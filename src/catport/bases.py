"""Measurement-basis families over qudit registers: labels, row layouts
and the term form of their states.

Four building blocks: generalized Bell pairs, the single-qudit Fourier
("pi") basis, three-slot GHZ states, and barred variants in which one slot
is a block of repeated digits. Each of their states is d terms
exp(2*pi*i*e/d)/sqrt(d) on d distinct kets: :func:`sector_terms` owns that
form. Families that only span a digit-string sector (barred, block-GHZ) are
completed to a full orthonormal basis by the kets of
:func:`complement_indices`, which are orthonormal and orthogonal to the
sector, so no re-orthogonalization step is needed. A :class:`Rung` fixes
each family's row order. The dense state builders, which scatter the terms
into vectors and build every family label-first, and the numeric
certificate live in :mod:`catport.dense`.

All phases follow the single convention exp(+2*pi*i*x/d); conjugations
enter only through inner products.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import RangeError, cat_sector_indices, forward_to_dense, unit_phase


@dataclass(frozen=True)
class BellLabel:
    """Two-qudit Bell outcome: phase index ``n`` and digit shift ``m``."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 0 or self.m < 0:
            raise RangeError(f"negative label component in {self}")

    def sort_key(self) -> tuple:
        return (0, self.n, self.m)

    def to_json(self) -> dict:
        return {"kind": "bell", "n": self.n, "m": self.m}

    def __str__(self):
        return f"bell({self.n},{self.m})"


@dataclass(frozen=True)
class PiLabel:
    """Single-qudit Fourier-basis outcome."""

    alpha: int

    def __post_init__(self):
        if self.alpha < 0:
            raise RangeError(f"negative label component in {self}")

    def sort_key(self) -> tuple:
        return (0, self.alpha)

    def to_json(self) -> dict:
        return {"kind": "pi", "alpha": self.alpha}

    def __str__(self):
        return f"pi({self.alpha})"


@dataclass(frozen=True)
class GhzLabel:
    """Three-slot GHZ outcome with slot shifts ``n``, ``m`` and phase index ``k``."""

    n: int
    m: int
    k: int

    def __post_init__(self):
        if self.n < 0 or self.m < 0 or self.k < 0:
            raise RangeError(f"negative label component in {self}")

    def sort_key(self) -> tuple:
        return (0, self.n, self.m, self.k)

    def to_json(self) -> dict:
        return {"kind": "ghz", "n": self.n, "m": self.m, "k": self.k}

    def __str__(self):
        return f"ghz({self.n},{self.m},{self.k})"


@dataclass(frozen=True)
class ComplementLabel:
    """A computational ket completing a sector family to a full basis."""

    digits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "digits", tuple(int(q) for q in self.digits))
        if any(q < 0 for q in self.digits):
            raise RangeError(f"negative digit in {self}")

    def sort_key(self) -> tuple:
        return (1, *self.digits)

    def to_json(self) -> dict:
        return {"kind": "complement", "digits": list(self.digits)}

    def __str__(self):
        return "ket(" + ",".join(str(q) for q in self.digits) + ")"


@dataclass(frozen=True)
class JointLabel:
    """Product outcome: per-qudit Fourier results followed by a collective block."""

    alphas: tuple[int, ...]
    tail: Union[BellLabel, ComplementLabel]

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(int(a) for a in self.alphas))
        if any(a < 0 for a in self.alphas):
            raise RangeError(f"negative Fourier outcome in {self}")

    def sort_key(self) -> tuple:
        return (*self.tail.sort_key(), *self.alphas)

    def to_json(self) -> dict:
        return {"kind": "joint", "alphas": list(self.alphas), "tail": self.tail.to_json()}

    def __str__(self):
        pis = "*".join(f"pi({a})" for a in self.alphas)
        return f"{pis}*{self.tail}" if pis else str(self.tail)


BasisLabel = Union[BellLabel, PiLabel, GhzLabel, ComplementLabel, JointLabel]


@dataclass(frozen=True)
class Rung:
    """The row layout of a measured family on m+1 qudits: ladder position k,
    a block-GHZ (``ghz``) or barred-Bell block, and joint or bare labels.

    Row ``tail * d**(k-2) + rest`` holds the k-2 Fourier outcomes of ``rest``
    in mixed radix and the block outcome ``tail`` on the last m-k+3 qudits:
    the sector states (n, m) or (n, m, k) in lex order, then the complement
    kets of :func:`complement_indices` in index order, so labels ascend by
    ``sort_key``. The first d**k rows are the outcomes that can occur. Each
    row's pair ``shift * d + phase``, label and label components come from
    this arithmetic alone, and :meth:`rank` inverts :meth:`label`.
    """

    d: int
    m: int
    k: int
    ghz: bool
    joint: bool

    def __post_init__(self):
        block_ghz = self.m >= 2 and self.k == 2 and not self.joint
        if self.d < 2 or not 2 <= self.k <= self.m + 1 or self.ghz and not block_ghz:
            raise ValueError(f"no measured family is {self}")

    @property
    def rows(self) -> int:
        return self.d ** (self.m + 1)

    @property
    def live(self) -> int:
        return self.d ** self.k

    @property
    def block(self) -> int:
        """The block's repeated-digit count: it spans block + 1 qudits."""
        return self.m - self.k + 2

    @property
    def sector_rows(self) -> int:
        """The rows of sector states; complement kets fill the rest."""
        return self.d ** (self.k + self.ghz)

    def pairs(self, start: int, stop: int) -> np.ndarray:
        """The pair of each row in [start, stop): a barred Bell state's shift
        is its m and its phase its n plus the Fourier outcomes, a block-GHZ
        state's are its m and k whatever its n, and a complement ket's is 0."""
        d = self.d
        tails, rest = self._window(start, stop)
        if self.ghz:
            pairs = tails % (d * d)
        else:
            phase, shift = np.divmod(tails, d)
            # Digit sums from a table over ``places`` digits, all k-2 once the window is as long.
            places = max(1, min(self.k - 2, int(math.log(max(rest.size, 1), d))))
            table = np.zeros(1, dtype=np.int64)
            for _ in range(places):
                table = (table[:, None] + np.arange(d)).reshape(-1)
            for _ in range(places, self.k - 2, places):
                rest, low = np.divmod(rest, d ** places)
                phase += table[low]
            phase += table[rest]  # the top digits, at most ``places`` of them
            pairs = shift * d + phase % d
        pairs[tails >= d ** (2 + self.ghz)] = 0
        return pairs

    def digits(self, start: int, stop: int) -> np.ndarray:
        """The m+1 base-d label components of each row in [start, stop): the
        Fourier outcomes, then a complement ket's digits or a sector state's
        components followed by zeros."""
        d, width, places = self.d, 2 + self.ghz, self.block + 1
        tails, rest = self._window(start, stop)
        codes = tails * d ** (places - width)
        kets = tails >= d ** width
        if kets.any():
            codes[kets] = self._ket(tails[kets] - d ** width)
        codes += rest * d ** places
        return codes[:, None] // d ** np.arange(self.m, -1, -1) % d

    def labels(self, start: int, stop: int) -> list[BasisLabel]:
        """The label of each row in [start, stop), from :meth:`digits`."""
        num_pi, width, sector_rows = self.k - 2, 2 + self.ghz, self.sector_rows
        sector = GhzLabel if self.ghz else BellLabel
        labels = []
        for row, digits in enumerate(self.digits(start, stop).tolist(), start):
            if row < sector_rows:
                tail = sector(*digits[num_pi : num_pi + width])
            else:
                tail = ComplementLabel(digits[num_pi:])
            labels.append(JointLabel(digits[:num_pi], tail) if self.joint else tail)
        return labels

    def label(self, row: int) -> BasisLabel:
        """The label of ``row``, by scalar arithmetic."""
        d, num_pi = self.d, self.k - 2
        tail, rest = divmod(row, d ** num_pi)
        if row >= self.sector_rows:
            ket = int(self._ket(tail - d ** (2 + self.ghz)))
            block = ComplementLabel([ket // d ** place % d for place in range(self.block, -1, -1)])
        elif self.ghz:
            block = GhzLabel(tail // d // d, tail // d % d, tail % d)
        else:
            block = BellLabel(*divmod(tail, d))
        if not self.joint:
            return block
        return JointLabel([rest // d ** place % d for place in reversed(range(num_pi))], block)

    def rank(self, label: BasisLabel) -> int:
        """The row of ``label`` if it is one of the family's, so that
        ``label(rank(x)) == x`` for those; any other gets a row whose label
        differs, or -1."""
        d, sector = self.d, self.d ** (2 + self.ghz)
        alphas, tail = (label.alphas, label.tail) if isinstance(label, JointLabel) else ((), label)
        if isinstance(tail, ComplementLabel):
            ket = sum(q * d ** place for place, q in enumerate(reversed(tail.digits)))
            # The complement kets ascend with their index.
            count = d ** (self.block + 1) - sector
            index = sector + bisect_left(range(count), ket, key=lambda c: int(self._ket(c)))
        elif isinstance(tail, GhzLabel):
            index = (int(tail.n) * d + int(tail.m)) * d + int(tail.k)
        elif isinstance(tail, BellLabel):
            index = int(tail.n) * d + int(tail.m)
        else:
            return -1
        for alpha in alphas:
            index = index * d + alpha
        return index

    def _window(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Each row's block outcome ``tail`` and Fourier outcomes ``rest``."""
        if not 0 <= start <= stop <= self.rows:
            raise ValueError(f"rows [{start}, {stop}) are not rows of {self}")
        return np.divmod(np.arange(start, stop, dtype=np.int64), self.d ** (self.k - 2))

    def _ket(self, index):
        """The complement ket of each complement index. The block's run of
        digits that must not all be equal, after block GHZ's first qudit,
        takes every value but the multiples of the repunit."""
        d, run = self.d, self.block - self.ghz
        repunit = (d ** run - 1) // (d - 1)
        rest, last = np.divmod(index, d)
        first, between = np.divmod(rest, d ** run - d)
        value = between // (repunit - 1) * repunit + between % (repunit - 1) + 1
        return (first * d ** run + value) * d + last


def sector_terms(d: int, block: int, labels) -> tuple[np.ndarray, np.ndarray]:
    """The kets and amplitudes exp(2*pi*i*e/d)/sqrt(d) of the d terms of each
    labelled state over ``block + 1`` qudits, one row per label, in order.

    A label is a row of components in [0, d): (alpha,) for the Fourier state
    on one qudit (block 0), (n, m) for the barred Bell state and (n, m, k)
    for the block-GHZ state. A row's kets are distinct, in ascending order.
    Amplitudes come from a table of ``unit_phase(e, d) / math.sqrt(d)``, bit for bit.
    """
    labels = np.asarray(labels, dtype=np.int64)
    j = np.arange(d)
    if labels.shape[1] == 1:
        kets, exponents = np.tile(j, (labels.shape[0], 1)), labels * j
    elif labels.shape[1] == 2:
        n, shift = labels.T[..., None]
        # (d**(b+1) - d) // (d - 1) is the index of b ones followed by a zero.
        kets, exponents = j * ((d ** (block + 1) - d) // (d - 1)) + (j + shift) % d, j * n
    else:
        n, shift, k = labels.T[..., None]
        kets = j * d**block + (j + n) % d * ((d**block - d) // (d - 1)) + (j + shift) % d
        exponents = j * (n + k)
    table = np.array([unit_phase(x, d) / math.sqrt(d) for x in range(d)], dtype=np.complex128)
    return kets, table[exponents % d]


def complement_indices(d: int, num_qudits: int, block: slice) -> np.ndarray:
    """Indices of the kets whose ``block`` digits are not all equal, in lex order.

    These are exactly the kets outside the repeated-digit sector, so they
    are orthonormal and orthogonal to every sector state; appending them is
    the (here trivial) Gram-Schmidt completion.
    """
    # The block's constant strings on its own axes, broadcast over the others.
    positions = range(num_qudits)[block]
    equal = np.zeros(d ** len(positions), dtype=bool)
    equal[cat_sector_indices(d, len(positions))] = True
    axes = [d if q in positions else 1 for q in range(num_qudits)]
    return np.flatnonzero(np.broadcast_to(~equal.reshape(axes), (d,) * num_qudits))


__getattr__ = forward_to_dense(
    __name__,
    "MeasurementBasis BasisReport BasisFamily bell_basis_state pi_basis_state"
    " ghz_basis_state block_ghz_basis_state barred_bell_basis_state _term_state"
    " label_basis build_basis verify_orthonormal_complete",
)
