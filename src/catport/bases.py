"""Measurement-basis families over qudit registers.

Four building blocks: generalized Bell pairs, the single-qudit Fourier
("pi") basis, three-slot GHZ states, and barred variants in which one slot
is a block of repeated digits. Each of their states is d terms
exp(2*pi*i*e/d)/sqrt(d) on d distinct kets: :func:`sector_terms` owns that
form, and each state builder scatters it into a dense vector. Families that
only span a digit-string sector (barred, block-GHZ) are completed to a full
orthonormal basis by the kets of :func:`complement_indices`, which are
orthonormal and orthogonal to the sector, so no re-orthogonalization step
is needed. The label functions fix each family's order, and every family is
built label-first by mapping its labels to their states.

All phases follow the single convention exp(+2*pi*i*x/d); conjugations
enter only through inner products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cache, reduce
from itertools import product
from typing import Union

import numpy as np

from .core import (
    PureState,
    RangeError,
    RegisterShape,
    basis_ket,
    cat_sector_indices,
    tensor,
    unit_phase,
)


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


@dataclass(frozen=True, eq=False)
class MeasurementBasis:
    """Ordered family of labeled states covering a register.

    Construction checks cardinality and shapes only; numeric certification
    of orthonormality and completeness is the job of
    :func:`verify_orthonormal_complete` (so deliberately corrupted bases can
    be built and diagnosed).
    """

    shape: RegisterShape
    states: tuple[tuple[BasisLabel, PureState], ...]

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        if len(self.states) != self.shape.total:
            raise ValueError(
                f"basis needs {self.shape.total} states, got {len(self.states)}"
            )
        for _, state in self.states:
            if state.shape != self.shape:
                raise ValueError("basis state shape disagrees with basis register")

    def labels(self) -> list[BasisLabel]:
        return [label for label, _ in self.states]

    def matrix(self) -> np.ndarray:
        """States stacked as rows: (count, dim)."""
        return np.stack([s.amps for _, s in self.states])


@dataclass(frozen=True)
class BasisReport:
    max_gram_error: float
    max_completeness_error: float


def bell_basis_state(d: int, label: BellLabel) -> PureState:
    """Two-qudit state with amplitude exp(2*pi*i*j*n/d)/sqrt(d) on (j, j+m)."""
    return barred_bell_basis_state(d, 1, label)


def pi_basis_state(d: int, label: PiLabel) -> PureState:
    """Fourier basis state with amplitude exp(2*pi*i*alpha*beta/d)/sqrt(d) on |beta>."""
    return _term_state(d, 0, alpha=label.alpha)


def ghz_basis_state(d: int, label: GhzLabel) -> PureState:
    """Three-qudit state on digits (j, j+n, j+m) with phase exp(2*pi*i*j*(n+k)/d)."""
    return block_ghz_basis_state(d, 2, label)


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


def _term_state(d: int, block: int, **components: int) -> PureState:
    """The dense state of one label's named components, in sector_terms' order."""
    for name, value in components.items():
        if not 0 <= value < d:
            raise RangeError(f"{name}={value} outside [0, {d})")
    shape = RegisterShape(d, block + 1)
    kets, amplitudes = sector_terms(d, block, [list(components.values())])
    amps = np.zeros(shape.total, dtype=np.complex128)
    amps[kets[0]] = amplitudes[0]
    return PureState(shape, amps)


def block_ghz_basis_state(d: int, m: int, label: GhzLabel) -> PureState:
    """GHZ state whose middle slot is a block of ``m - 1`` repeated digits.

    Lives on ``m + 1`` qudits: digits (j, (j+n)*(m-1 times), (j+m_shift)),
    each with phase exp(2*pi*i*j*(n+k)/d)/sqrt(d). For ``m = 2`` this is the
    plain three-slot GHZ state.
    """
    if m < 2:
        raise ValueError(f"block GHZ states need m >= 2, got {m}")
    return _term_state(d, m, n=label.n, m=label.m, k=label.k)


def barred_bell_basis_state(d: int, m: int, label: BellLabel) -> PureState:
    """Bell state whose first slot is a block of ``m`` repeated digits.

    Lives on ``m + 1`` qudits: amplitude exp(2*pi*i*j*n/d)/sqrt(d) on
    (j, ..., j, (j+m_shift) mod d). For ``m = 1`` it coincides with
    :func:`bell_basis_state`.
    """
    if m < 1:
        raise ValueError(f"barred Bell states need m >= 1, got {m}")
    return _term_state(d, m, n=label.n, m=label.m)


class BasisFamily(Enum):
    BELL = "bell"
    PI = "pi"
    GHZ = "ghz"
    BELL_PROTOCOL_JOINT = "bell_protocol_joint"
    GHZ_PROTOCOL_JOINT = "ghz_protocol_joint"
    BARRED = "barred"


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


def complement_labels(d: int, num_qudits: int, block: slice) -> list[BasisLabel]:
    """The kets of :func:`complement_indices`, as labels."""
    kets = complement_indices(d, num_qudits, block)[:, None] // d ** np.arange(num_qudits)[::-1]
    return [ComplementLabel(digits) for digits in (kets % d).tolist()]


def barred_labels(d: int, m: int) -> list[BasisLabel]:
    """Barred Bell labels over m+1 qudits, then their complement kets."""
    bell: list[BasisLabel] = [BellLabel(n, s) for n, s in product(range(d), repeat=2)]
    return bell + complement_labels(d, m + 1, slice(0, m))


def ghz_labels(d: int, m: int) -> list[BasisLabel]:
    """Block-GHZ labels over m+1 qudits, then their complement kets."""
    if m < 2:
        raise ValueError(f"block GHZ states need m >= 2, got {m}")
    ghz: list[BasisLabel] = [GhzLabel(*nmk) for nmk in product(range(d), repeat=3)]
    return ghz + complement_labels(d, m + 1, slice(1, m))


def joint_labels(d: int, num_pi: int, barred_m: int) -> list[BasisLabel]:
    """``num_pi`` Fourier outcomes paired with each barred-block outcome, block-major."""
    return [
        JointLabel(alphas, tail)
        for tail in barred_labels(d, barred_m)
        for alphas in product(range(d), repeat=num_pi)
    ]


def label_basis(d: int, m: int, labels: list[BasisLabel]) -> MeasurementBasis:
    """The family of ``labels``, in their order, each mapped to its state.

    ``m`` is the repeated-digit count of the block: a Bell label maps to its
    barred Bell state, a GHZ label to its block-GHZ state and a complement
    label to its ket. A joint label maps to its Fourier prefix tensored with
    the state of its tail; each prefix and each block state is built once.
    """
    pi_states = [pi_basis_state(d, PiLabel(a)) for a in range(d)]

    @cache
    def block(label: BasisLabel) -> PureState:
        if isinstance(label, BellLabel):
            return barred_bell_basis_state(d, m, label)
        if isinstance(label, GhzLabel):
            return block_ghz_basis_state(d, m, label)
        return basis_ket(RegisterShape(d, m + 1), label.digits)

    @cache
    def prefix(alphas: tuple[int, ...]) -> PureState:
        return reduce(tensor, [pi_states[a] for a in alphas])

    def state(label: BasisLabel) -> PureState:
        if not isinstance(label, JointLabel):
            return block(label)
        if not label.alphas:
            return block(label.tail)
        return tensor(prefix(label.alphas), block(label.tail))

    states = tuple((label, state(label)) for label in labels)
    return MeasurementBasis(states[0][1].shape, states)


def build_basis(family: BasisFamily, d: int, m: int | None = None) -> MeasurementBasis:
    """Construct a complete family with deterministic label ordering.

    ``m`` is the particle count of the repeated-digit block and is required
    for the joint and barred families, and must be omitted for the
    fixed-size ones.
    """
    fixed = family in (BasisFamily.BELL, BasisFamily.PI, BasisFamily.GHZ)
    if fixed and m is not None:
        raise ValueError(f"{family.value} takes no particle count")
    if not fixed and (m is None or m < 1):
        raise ValueError(f"{family.value} needs a particle count m >= 1")

    if family is BasisFamily.PI:
        states = [(PiLabel(a), pi_basis_state(d, PiLabel(a))) for a in range(d)]
        return MeasurementBasis(RegisterShape(d, 1), tuple(states))
    if family is BasisFamily.BELL_PROTOCOL_JOINT:
        # m - 1 Fourier slots, then a Bell pair.
        return label_basis(d, 1, joint_labels(d, m - 1, 1))
    if family in (BasisFamily.BELL, BasisFamily.BARRED):
        m = 1 if family is BasisFamily.BELL else m
        return label_basis(d, m, barred_labels(d, m))
    if family in (BasisFamily.GHZ, BasisFamily.GHZ_PROTOCOL_JOINT):
        m = 2 if family is BasisFamily.GHZ else m
        return label_basis(d, m, ghz_labels(d, m))
    raise ValueError(f"unknown basis family {family!r}")


def verify_orthonormal_complete(basis: MeasurementBasis) -> BasisReport:
    """Certify a family numerically; reports errors, never raises.

    ``max_gram_error`` is max |<v_i|v_j> - delta_ij|; ``max_completeness_error``
    is the largest entry of |sum_i |v_i><v_i| - identity|.
    """
    v = basis.matrix()
    eye = np.eye(v.shape[0])
    gram = v.conj() @ v.T
    completeness = v.T @ v.conj()
    return BasisReport(
        max_gram_error=float(np.abs(gram - eye).max()),
        max_completeness_error=float(np.abs(completeness - np.eye(v.shape[1])).max()),
    )
