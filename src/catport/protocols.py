"""End-to-end teleportation protocols for cat-like states.

A protocol run composes the unknown cat state with the shared maximally
entangled chain, measures the sender's ``m + 1`` qudits in a family chosen
by the protocol kind, and applies an outcome-dependent monomial correction
on the receiver's ``m`` qudits.

Protocol kinds and their sender measurements:

* ``BELL``    - per-qudit Fourier measurements on particles 1..m-1 plus a
  Bell-pair measurement on particles (m, m+1).
* ``GHZ``     - one collective block-GHZ measurement on all m+1 particles.
* ``BARRED``  - one collective barred-Bell measurement on all m+1 particles
  (the block-GHZ family folded onto its reachable sector).
* ``HYBRID``  - Fourier measurements on particles 1..k-2 plus a barred-Bell
  measurement on the remaining m-k+3 particles; k=2 reproduces BARRED and
  k=m+1 reproduces BELL.

Every correction has the same shape: shift every receiver digit down by the
outcome's ``m`` index and rephase the repeated-digit sector by the outcome's
total phase exponent. Branch states only ever occupy that sector, so the
off-sector extension (a plain digit shift) is unobservable but keeps the
operator unitary on the whole space.

Enumeration and sampling never build the joint register or the measurement
family. The joint state (1/sqrt(d)) sum_{l,i} alpha_l |l..l>|i>|i..i> has
only d**2 nonzero amplitudes, so each outcome's branch is a d-vector on the
receiver's repeated-digit sector, fixed in closed form by the outcome's
(shift, phase) pair. Outcomes with one pair share their branch, receiver
states and correction, so there are at most d**2 of each; a record's post
state is its own correction applied to its pre state. The dense projection
survives only as a test oracle.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .bases import BasisLabel, Rung
from .core import (
    DEFAULT_MAX_DIM,
    CatState,
    PureState,
    RegisterShape,
    ShapeMismatchError,
    cat_sector_indices,
    forward_to_dense,
    lists_each_index_once,
    sector_state,
)

PROB_FLOOR = 1e-12
ROW_WINDOW = 4096  # outcome rows labelled at a time
COLUMN_WINDOW = 1 << 16  # live-pair column rows computed at a time


class ProtocolKind(Enum):
    BELL = "bell"
    GHZ = "ghz"
    BARRED = "barred"
    HYBRID = "hybrid"


@dataclass(frozen=True)
class ProtocolSpec:
    """Which protocol to run, for which local dimension and particle count.

    ``rung`` is the measured family's row layout, made here from the kind:
    BELL is the ladder's k = m+1, BARRED its k = 2 with bare labels, and GHZ
    the block-GHZ form of k = 2."""

    kind: ProtocolKind
    d: int
    m: int
    hybrid_k: Optional[int] = None
    rung: Rung = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.kind, ProtocolKind):
            raise ValueError(f"protocol kind must be a ProtocolKind, got {self.kind!r}")
        integers = {"d": self.d, "m": self.m}
        if self.hybrid_k is not None:
            integers["hybrid_k"] = self.hybrid_k
        for name, value in integers.items():
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.d < 2:
            raise ValueError(f"local dimension must be >= 2, got {self.d}")
        if self.m < 1:
            raise ValueError(f"need at least one particle, got {self.m}")
        if self.kind is ProtocolKind.HYBRID:
            if self.hybrid_k is None:
                raise ValueError("hybrid protocols need hybrid_k")
            if not 2 <= self.hybrid_k <= self.m + 1:
                raise ValueError(
                    f"hybrid_k={self.hybrid_k} outside [2, {self.m + 1}]"
                )
        elif self.hybrid_k is not None:
            raise ValueError(f"{self.kind.value} takes no hybrid_k")
        if self.kind is ProtocolKind.GHZ and self.m < 2:
            raise ValueError("the GHZ protocol needs m >= 2")
        k = {ProtocolKind.HYBRID: self.hybrid_k, ProtocolKind.BELL: self.m + 1}.get(self.kind, 2)
        joint = self.kind in (ProtocolKind.BELL, ProtocolKind.HYBRID)
        rung = Rung(self.d, self.m, k, self.kind is ProtocolKind.GHZ, joint)
        object.__setattr__(self, "rung", rung)


def ladder_k(spec: ProtocolSpec) -> int:
    """The protocol's position on the ladder: the sender measures k-2 qudits
    one at a time and the last m-k+3 together, and k*log2(d) bits go out.
    BELL is k = m+1; BARRED and GHZ are k = 2."""
    return spec.rung.k


def protocol_specs(d: int, m: int) -> list[ProtocolSpec]:
    """Every protocol valid at (d, m) in ladder order: Bell, GHZ (m >= 2),
    barred, then the hybrids k = 2..m+1. Each call returns a new list of the
    same frozen specs."""
    return list(_protocol_specs(d, m))


# Typed, so a numpy-integer call keeps its specs' numpy fields to itself.
@lru_cache(maxsize=128, typed=True)
def _protocol_specs(d: int, m: int) -> tuple[ProtocolSpec, ...]:
    specs = [ProtocolSpec(ProtocolKind.BELL, d, m)]
    if m >= 2:
        specs.append(ProtocolSpec(ProtocolKind.GHZ, d, m))
    specs.append(ProtocolSpec(ProtocolKind.BARRED, d, m))
    specs.extend(
        ProtocolSpec(ProtocolKind.HYBRID, d, m, hybrid_k=k) for k in range(2, m + 2)
    )
    return tuple(specs)


class MonomialOperator:
    """Unitary with one nonzero unit-modulus entry per row and column.

    Acts as ``U|s> = factors[s] |perm[s]>`` with ``factors[s] =
    exp(2*pi*i*phase_exp[s]/d)``. The permutation and the integer phase
    exponents fully determine the operator, so adjoints and compositions are
    computed in exact integer arithmetic.
    """

    __slots__ = ("d", "num_qudits", "perm", "phase_exp", "factors")

    def __init__(self, d: int, num_qudits: int, perm, phase_exp):
        perm = np.asarray(perm, dtype=np.int64)
        phase_exp = np.mod(np.asarray(phase_exp, dtype=np.int64), d)
        total = d ** num_qudits
        if perm.shape != (total,) or phase_exp.shape != (total,):
            raise ShapeMismatchError("permutation/phase tables must cover the register")
        if perm.min() < 0 or perm.max() >= total:
            raise ValueError("digit map targets outside the register")
        if not lists_each_index_once([perm], total):
            raise ValueError("digit map is not a bijection")
        perm.setflags(write=False)
        phase_exp.setflags(write=False)
        self.d = d
        self.num_qudits = num_qudits
        self.perm = perm
        self.phase_exp = phase_exp
        self.factors = np.exp(2j * np.pi * (np.arange(d) / d))[phase_exp]
        self.factors.setflags(write=False)

    @classmethod
    def identity(cls, d: int, num_qudits: int) -> "MonomialOperator":
        total = d ** num_qudits
        return cls(d, num_qudits, np.arange(total), np.zeros(total, dtype=np.int64))

    def apply(self, state: PureState) -> PureState:
        if state.shape.d != self.d or state.shape.num_qudits != self.num_qudits:
            raise ShapeMismatchError(f"operator acts on (d={self.d}, n={self.num_qudits})")
        out = np.zeros_like(state.amps)
        out[self.perm] = state.amps * self.factors
        return PureState(state.shape, out, normalized=state.normalized)

    def adjoint(self) -> "MonomialOperator":
        inverse = np.empty_like(self.perm)
        inverse[self.perm] = np.arange(self.perm.size)
        phases = np.zeros_like(self.phase_exp)
        phases[self.perm] = -self.phase_exp
        return MonomialOperator(self.d, self.num_qudits, inverse, phases)

    def __matmul__(self, other: "MonomialOperator") -> "MonomialOperator":
        """Composition: ``(a @ b)`` applies ``b`` first."""
        if (self.d, self.num_qudits) != (other.d, other.num_qudits):
            raise ShapeMismatchError("cannot compose operators on different registers")
        return MonomialOperator(
            self.d,
            self.num_qudits,
            self.perm[other.perm],
            other.phase_exp + self.phase_exp[other.perm],
        )

    def is_identity(self) -> bool:
        """Exact structural check, independent of floating point."""
        return bool(
            np.array_equal(self.perm, np.arange(self.perm.size))
            and not self.phase_exp.any()
        )

    def matrix(self) -> np.ndarray:
        total = self.perm.size
        mat = np.zeros((total, total), dtype=np.complex128)
        mat[self.perm, np.arange(total)] = self.factors
        return mat

    def __repr__(self):
        return f"MonomialOperator(d={self.d}, n={self.num_qudits})"


def shift_operator(d: int, amount: int) -> MonomialOperator:
    """Single-qudit shift X**amount: |j> -> |j + amount mod d>."""
    src = np.arange(d)
    return MonomialOperator(d, 1, (src + amount) % d, np.zeros(d, dtype=np.int64))


def clock_operator(d: int, power: int) -> MonomialOperator:
    """Single-qudit clock Z**power: |j> -> exp(2*pi*i*j*power/d) |j>."""
    src = np.arange(d)
    return MonomialOperator(d, 1, src, (src * power) % d)


def monomial_tensor(a: MonomialOperator, b: MonomialOperator) -> MonomialOperator:
    """Tensor product of monomial operators; ``a`` takes the leading qudits."""
    if a.d != b.d:
        raise ShapeMismatchError("cannot tensor operators with different d")
    nb = b.perm.size
    perm = (a.perm[:, None] * nb + b.perm[None, :]).reshape(-1)
    phases = (a.phase_exp[:, None] + b.phase_exp[None, :]).reshape(-1)
    return MonomialOperator(a.d, a.num_qudits + b.num_qudits, perm, phases)


def cat_sector_correction(
    d: int, num_qudits: int, phase_power: int, shift: int
) -> MonomialOperator:
    """Correction mapping |(j+shift)...(j+shift)> to exp(2*pi*i*j*phase_power/d)|j...j>.

    Off the repeated-digit sector the operator shifts every digit down with
    no phase, which keeps it monomial and unitary everywhere. There are d**2
    of these per register, one per pair; :func:`_build_correction` is the
    one caller.
    """
    # Every qudit gets the same one-qudit shift, tensored as monomial_tensor does.
    one = (np.arange(d, dtype=np.int64) - shift) % d
    perm = one
    for _ in range(num_qudits - 1):
        perm = (perm[:, None] * d + one).reshape(-1)
    sector = cat_sector_indices(d, num_qudits)
    phases = np.zeros_like(perm)
    phases[sector] = (phase_power * (perm[sector] // sector[1])) % d
    return MonomialOperator(d, num_qudits, perm, phases)


@dataclass(frozen=True, eq=False)
class OutcomeRecord:
    """One measurement outcome with everything the receiver does about it."""

    label: BasisLabel
    probability: float
    bob_pre_correction: PureState
    correction: MonomialOperator
    bob_post_correction: PureState
    fidelity: float


@dataclass(frozen=True)
class EquivalenceReport:
    max_prob_delta: float
    max_state_delta: float


def check_size(d: int, m: int, max_dim: int) -> None:
    """Raise ValueError, worded as ProtocolSpec words it, unless d >= 2 and
    m >= 1, and SizeCapError if d**(2m+1), the nominal joint register at
    (d, m), exceeds ``max_dim``."""
    if d >= 2 and m < 1:
        raise ValueError(f"need at least one particle, got {m}")
    RegisterShape(d, 2 * m + 1, max_dim=max_dim)


def _check_inputs(cat: CatState, spec: ProtocolSpec, max_dim: int) -> None:
    """The cat must fit the protocol, and the joint register the size cap."""
    if (cat.d, cat.m) != (spec.d, spec.m):
        raise ValueError(
            f"cat state (d={cat.d}, m={cat.m}) does not match "
            f"protocol (d={spec.d}, m={spec.m})"
        )
    check_size(spec.d, spec.m, max_dim)


# One family at a time: a dense family holds d**(2m+2) amplitudes, 64 MB at (2, 10).
@lru_cache(maxsize=1)
def _family_cached(rung: Rung):
    from . import dense

    return dense.label_basis(rung.d, rung.block, rung.labels(0, rung.rows))


def measurement_family(spec: ProtocolSpec):
    """The complete orthonormal family measured on the sender's m+1 qudits,
    as a dense :class:`catport.dense.MeasurementBasis`: the reference the
    sector engine is tested against, which the engine never builds."""
    return _family_cached(spec.rung)


def _live_pairs(spec: ProtocolSpec) -> np.ndarray:
    """Each pair ``shift * d + phase`` of the d**k outcome rows that can occur,
    the first ones whatever the cat state, as the spec's rung lays them out.
    Indexing the pairs' probabilities with it gives the outcome probability
    column; every later row is zero by structure. Specs with one rung share
    it."""
    return _ladder_pairs(spec.rung)


@lru_cache(maxsize=128)
def _ladder_pairs(rung: Rung) -> np.ndarray:
    # A window at a time, so the arithmetic's temporaries stay window-sized.
    pairs = np.empty(rung.live, dtype=np.int64)
    for start in range(0, rung.live, COLUMN_WINDOW):
        stop = min(start + COLUMN_WINDOW, rung.live)
        pairs[start:stop] = rung.pairs(start, stop)
    pairs.setflags(write=False)
    return pairs


class LadderPosition(NamedTuple):
    """Specs with the same d**k live rows over the same pairs, which share
    branches, probabilities and fold: the count ``live = d**k``, the mask
    ``used`` of those pairs, and each distinct stored live-pair column once."""

    live: int
    used: np.ndarray
    columns: tuple[np.ndarray, ...]


@lru_cache(maxsize=32)
def _ladder_positions(d: int, m: int):
    """The ladder positions of ``protocol_specs(d, m)`` in first-use order,
    and each spec's (position, column) index among them. Only the row order
    of a spec's completeness sum is its own. Specs whose rungs differ at most
    in their label form, joint or bare, have equal columns and share one, as
    equal columns give equal sums."""
    positions, slots = {}, []
    for spec in protocol_specs(d, m):
        live_pairs = _live_pairs(spec)
        used = np.bincount(live_pairs, minlength=d * d) > 0
        used.setflags(write=False)
        index, _, columns = positions.setdefault(
            (live_pairs.size, used.tobytes()), (len(positions), used, {})
        )
        column = (spec.rung.k, spec.rung.ghz)
        slots.append((index, columns.setdefault(column, (len(columns), live_pairs))[0]))
    ladder = tuple(
        LadderPosition(live, used, tuple(column for _, column in columns.values()))
        for (live, _), (_, used, columns) in positions.items()
    )
    return ladder, tuple(slots)


def _live_label(spec: ProtocolSpec, row: int) -> BasisLabel:
    """The label of ``row``, laid out as :func:`_live_pairs` reads the rows."""
    return spec.rung.label(row)


def _label_pair(spec: ProtocolSpec, label: BasisLabel) -> int:
    """The pair ``shift * d + phase`` of a label of the protocol's family, the
    pair of its row. A complement ket never occurs and gets pair 0; any
    unitary would do there. Raises ValueError for a label outside the
    family: one that is not the label of the row it ranks to.
    """
    rung = spec.rung
    row = rung.rank(label)
    if 0 <= row < rung.rows and rung.label(row) == label:
        return rung.pair(row)
    raise ValueError(
        f"label {label} does not belong to a {spec.kind.value} measurement "
        f"at d={spec.d}, m={spec.m}"
    )


@lru_cache(maxsize=200_000)
def correction_for(spec: ProtocolSpec, label: BasisLabel) -> MonomialOperator:
    """Receiver-side unitary for one outcome.

    Raises ValueError if ``label`` is not in the protocol's measurement
    family. Complement outcomes never occur, so they get the identity (zero
    shift and phase); any unitary would do there. Outcomes with the same
    (shift, phase) pair share one immutable operator, so a register has at
    most d**2 distinct corrections.
    """
    return _pair_correction(spec, _label_pair(spec, label))


@lru_cache(maxsize=32)
def _register_corrections(d: int, num_qudits: int) -> dict[int, MonomialOperator]:
    """The corrections built so far for one register, by pair: at most d**2,
    kept and dropped together."""
    return {}


def _pair_correction(spec: ProtocolSpec, pair: int) -> MonomialOperator:
    """The register's one shared correction for ``pair = shift * d + phase``."""
    corrections = _register_corrections(spec.d, spec.m)
    correction = corrections.get(pair)
    if correction is None:
        correction = corrections.setdefault(pair, _build_correction(spec.d, spec.m, pair))
    return correction


def _build_correction(d: int, num_qudits: int, pair: int) -> MonomialOperator:
    """A new correction for ``pair = shift * d + phase`` on ``num_qudits`` qudits."""
    shift, phase = divmod(pair, d)
    return cat_sector_correction(d, num_qudits, phase, shift)


def _unitarity_error(correction: MonomialOperator) -> float:
    """1.0 unless the correction's digit map is a bijection, and then the
    largest ||f|**2 - 1| over its phase factors, because U^dagger U - I of a
    monomial operator with a bijective digit map is diagonal with those
    entries."""
    if not lists_each_index_once([correction.perm], correction.perm.size):
        return 1.0
    factors = correction.factors
    deviations = factors.real ** 2
    deviations += factors.imag ** 2
    deviations -= 1.0
    return float(np.abs(deviations).max())


def _register_images(d: int, num_qudits: int):
    """The worst :func:`_unitarity_error` of the register's d**2 corrections,
    and their images on the sector as two read-only (d**2, d) tables: row p
    holds, for pair p, the digit j of the sector ket |j..j> that its
    correction sends |i..i> to, or -1 off the sector, and the factor.

    Each correction is built, read and dropped in turn, so one at a time is
    held and none is stored. :func:`_check_plan` keeps what it returns."""
    sector = cat_sector_indices(d, num_qudits)
    slots = np.empty((d * d, d), dtype=np.int64)
    factors = np.empty((d * d, d), dtype=np.complex128)
    error = 0.0
    for pair in range(d * d):
        correction = _build_correction(d, num_qudits, pair)
        error = max(error, _unitarity_error(correction))
        targets = correction.perm[sector]
        slots[pair] = np.where(targets % sector[1] == 0, targets // sector[1], -1)
        factors[pair] = correction.factors[sector]
        del correction  # before the next one is built
    slots.setflags(write=False)
    factors.setflags(write=False)
    return error, (slots, factors)


def apply_correction(record: OutcomeRecord) -> PureState:
    """The receiver's state after the outcome's correction, as the engine builds it."""
    return record.correction.apply(record.bob_pre_correction)


@lru_cache(maxsize=64)
def _pair_tables(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Index and phase tables with one row per pair p = shift * d + phase:
    branch p reads alpha at ``source[p, i] = i - shift`` times
    ``rephase[p, i] = omega**(-source * phase)``."""
    shift, phase = np.divmod(np.arange(d * d), d)
    digits = np.arange(d)
    source = (digits - shift[:, None]) % d
    rephase = np.exp(2j * np.pi * (digits / d))[(source * phase[:, None]) % d].conj()
    for array in (source, rephase):
        array.setflags(write=False)
    return source, rephase


def _pair_branches(coeffs: np.ndarray, live) -> tuple[np.ndarray, np.ndarray]:
    """Bob's unnormalized branch on the sector |i..i> for each pair p, and its
    probability, for a cat's coefficients ``coeffs`` or a stack of them on
    leading axes. Every nonzero outcome with pair p leaves this branch.

    Row p is b[i] = alpha_l * omega**(-l * phase) / sqrt(d**k) with
    l = i - shift mod d, where ``live = d**k`` is the number of nonzero outcomes;
    a list of counts puts each count's rows on a new leading axis. Each row is
    rounded alike whatever the stack or the other counts around it.
    """
    source, rephase = _pair_tables(coeffs.shape[-1])
    if isinstance(live, list):
        scale = np.reshape([math.sqrt(count) for count in live], (-1,) + (1,) * (coeffs.ndim + 1))
    else:
        scale = math.sqrt(live)
    branches = coeffs[..., source] * rephase / scale
    return branches, np.einsum("...ij,...ij->...i", branches.conj(), branches).real


def _finish_pairs(cat: CatState, spec: ProtocolSpec, pairs: np.ndarray, branched, bob_shape):
    """(probability, pre state, correction, post state, fidelity) of each pair
    in ``pairs``, from ``branched = _pair_branches(...)``. The post state is
    the pair's correction applied to the pre state, so a wrong correction
    shows as a fidelity below 1."""
    branches, probabilities = branched
    pre_rows = branches[pairs] / np.sqrt(probabilities[pairs])[:, None]
    corrections = [_pair_correction(spec, pair) for pair in pairs.tolist()]
    pres = [sector_state(bob_shape, row) for row in pre_rows]
    posts = [correction.apply(pre) for correction, pre in zip(corrections, pres)]
    sector = cat_sector_indices(spec.d, spec.m)
    # einsum rounds each row alike whatever the batch size; BLAS matmul does
    # not, and run_protocol must give enumerate_outcomes' record bit for bit.
    on_sector = np.array([post.amps[sector] for post in posts])
    fidelities = (np.abs(np.einsum("ij,j->i", on_sector, cat.coeffs.conj())) ** 2).tolist()
    return list(zip(probabilities[pairs].tolist(), pres, corrections, posts, fidelities))


def enumerate_outcomes(
    cat: CatState, spec: ProtocolSpec, *, max_dim: int = DEFAULT_MAX_DIM
) -> list[OutcomeRecord]:
    """One record per measurement outcome, in the family's label order.

    Probabilities are squared norms of the branches. Outcomes with the same
    (shift, phase) pair share one correction, and nonzero ones one receiver
    state before and one after it. Outcomes the protocol structure forbids
    have probability 0.0, fidelity 0.0 and a shared zero receiver state.
    ``max_dim`` caps the joint register d**(2m+1), which is never allocated.
    """
    _check_inputs(cat, spec, max_dim)
    rung, pairs = spec.rung, _live_pairs(spec)
    used = np.flatnonzero(np.bincount(pairs))
    bob_shape = RegisterShape(spec.d, spec.m, max_dim=max_dim)
    branched = _pair_branches(cat.coeffs, rung.live)
    finished = dict(zip(used.tolist(), _finish_pairs(cat, spec, used, branched, bob_shape)))
    zero = PureState(bob_shape, np.zeros(bob_shape.total), normalized=False)
    records, live = [], rung.live
    for start in range(0, rung.rows, ROW_WINDOW):
        stop = min(start + ROW_WINDOW, rung.rows)
        window = zip(range(start, stop), rung.labels(start, stop), rung.pairs(start, stop).tolist())
        for row, label, pair in window:
            fields = finished[pair] if row < live else (
                0.0, zero, _pair_correction(spec, pair), zero, 0.0)
            records.append(OutcomeRecord(label, *fields))
    return records


def run_protocol(
    cat: CatState, spec: ProtocolSpec, seed: int, *, max_dim: int = DEFAULT_MAX_DIM
) -> OutcomeRecord:
    """Sample one outcome by inverse CDF over the label-ordered probabilities.

    Deterministic for a fixed seed; zero-probability outcomes are never
    sampled, and if rounding leaves the total short of the draw the last
    nonzero outcome is taken. Only the sampled pair's states are built.
    """
    _check_inputs(cat, spec, max_dim)
    pairs = _live_pairs(spec)
    branched = _pair_branches(cat.coeffs, pairs.size)
    u = float(np.random.default_rng(seed).random())
    # cumsum adds in label order, like a running float sum; the zero rows
    # after the live ones would add exactly nothing, so the pick is the same.
    cdf = np.cumsum(branched[1][pairs])
    position = min(int(np.searchsorted(cdf, u, side="right")), cdf.size - 1)
    bob_shape = RegisterShape(spec.d, spec.m, max_dim=max_dim)
    finished = _finish_pairs(cat, spec, pairs[position : position + 1], branched, bob_shape)[0]
    return OutcomeRecord(_live_label(spec, position), *finished)


class FoldTables(NamedTuple):
    """What :func:`_fold_corrections` reads of the corrections of ``pairs``:
    their sector factors, one row per pair, the mask of entries the
    correction keeps on the sector, the (row, column) of each such entry and
    its target slot, and whether every entry stays on."""

    pairs: np.ndarray
    factors: np.ndarray
    on_sector: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    targets: np.ndarray
    all_on: bool


def _fold_tables(pairs: np.ndarray, images) -> FoldTables:
    """The fold tables of the pairs ``pairs`` from the sector images
    ``images = _register_images(...)[1]``."""
    slots, factors = images[0][pairs], images[1][pairs]
    on_sector = slots >= 0
    rows, cols = np.nonzero(on_sector)
    targets = slots[rows, cols]
    for array in (factors, on_sector, rows, cols, targets):
        array.setflags(write=False)
    return FoldTables(pairs, factors, on_sector, rows, cols, targets, bool(on_sector.all()))


def _fold_corrections(coeffs: np.ndarray, branched, tables: FoldTables):
    """Each pair of ``tables`` after its real correction, for the cat
    coefficients ``coeffs`` or a stack of them on leading axes, as passed to
    ``_pair_branches`` (``branched`` may add ladder positions in front): the
    amplitudes left on the sector |i..i>, one row per pair, the norm sent off
    it, and the fidelity with the cat. The arithmetic is the engine's, so
    correct corrections give its fidelities bit for bit, per cat as if alone."""
    branches, probabilities = branched
    pairs, rows = tables.pairs, tables.rows
    scales = np.sqrt(probabilities[..., pairs])[..., None]
    # np.take keeps C order, so a fold with every entry on the sector scatters it as it is.
    moved = np.take(branches, pairs, axis=-2) / scales * tables.factors
    folded = np.zeros_like(moved)
    if tables.all_on:  # every entry moves, in order, and nothing leaks
        folded[..., rows, tables.targets] = moved.reshape(moved.shape[:-2] + (-1,))
        leaked = np.zeros(moved.shape[:-1])
    else:
        folded[..., rows, tables.targets] = moved[..., rows, tables.cols]
        leaked = np.linalg.norm(np.where(tables.on_sector, 0, moved), axis=-1)
    fidelities = np.abs(np.einsum("...ij,...j->...i", folded, coeffs.conj())) ** 2
    return folded, leaked, fidelities


class _CheckPlan(NamedTuple):
    """What :func:`catport.checks.run_all_checks` and
    :func:`barred_equivalence_check` read at (d, m) whatever the cats."""

    unitarity_err: float
    fold: FoldTables
    positions: tuple[LadderPosition, ...]
    lives: list[int]
    shares: np.ndarray
    masks: np.ndarray
    own_pairs: np.ndarray
    missing_shifts: int
    collective: int
    many_rows: np.ndarray


@lru_cache(maxsize=32)
def _check_plan(d: int, m: int) -> _CheckPlan:
    """The checks' work that depends on (d, m) alone: the corrections'
    certificate, from :func:`_register_images`, which keeps no correction,
    the fold tables of the used pairs, and the ladder positions with their
    masks and shares. The collective side of the equivalence is the first
    position with d**2 live rows, GHZ(m) or barred at m = 1, and its rows in
    the fold are ``many_rows``. At m = 1 every spec shares one position, so
    the plan at m = 1 is the single-particle side. A process builds each
    plan once."""
    positions = _ladder_positions(d, m)[0]
    masks = np.array([position.used for position in positions])
    # Outcomes with the same (shift, phase) pair share one correction.
    pairs = np.flatnonzero(masks.any(axis=0))
    unitarity_err, images = _register_images(d, m)

    # The ladder positions are one stacked axis of the branches and the fold.
    lives = [position.live for position in positions]
    shares = np.array([1.0 / live for live in lives])[:, None, None]
    # Joint amplitude on sender (l..l, l + s) reaches only rows whose pair
    # has shift s; with no such live row, it would land on a forbidden one.
    missing_shifts = d - int(masks.reshape(-1, d, d).any(axis=2).sum(axis=1).min())

    collective = lives.index(d * d)
    many_rows = np.searchsorted(pairs, np.flatnonzero(masks[collective]))
    own_pairs = masks[:, None, pairs]
    for array in (pairs, shares, masks, own_pairs, many_rows):
        array.setflags(write=False)
    return _CheckPlan(unitarity_err, _fold_tables(pairs, images), positions, lives, shares,
                      masks, own_pairs, missing_shifts, collective, many_rows)


def _equivalence_deltas(coeffs, branched, plan: _CheckPlan, folded, leaked):
    """The largest probability delta and the largest state delta of
    :func:`barred_equivalence_check`, one entry per cat of the stack
    ``coeffs`` (one row of d coefficients each), from both sides' shared
    ``branched = _pair_branches(coeffs, d**2)`` and the collective position's
    ``folded, leaked = _fold_corrections(coeffs, branched, plan.fold)[:2]``.
    The single side is the plan at m = 1, folded here. Each cat gets the
    bits it gets alone."""
    single = _check_plan(coeffs.shape[-1], 1)
    many_used, single_used = plan.masks[plan.collective], single.masks[0]
    many_p, single_p = (np.where(used, branched[1], 0.0) for used in (many_used, single_used))
    prob_deltas = np.abs(many_p - single_p).max(axis=-1)
    if not np.array_equal(many_used, single_used):
        return prob_deltas, np.ones_like(prob_deltas)
    many_post = folded[..., plan.many_rows, :]
    single_post = _fold_corrections(coeffs, branched, single.fold)[0]
    state_deltas = np.abs(many_post - single_post).max(axis=(-2, -1))
    return prob_deltas, np.maximum(state_deltas, leaked[..., plan.many_rows].max(axis=-1))


def barred_equivalence_check(
    cat: CatState, d: int, m: int, *, max_dim: int = DEFAULT_MAX_DIM
) -> EquivalenceReport:
    """Compare the collective protocol on m particles against teleporting a
    single d-level particle with the same coefficients.

    Nonzero outcomes map one-to-one through their (shift, phase) pair: the
    GHZ label (n=0, m, k) plays the role of the single-particle Bell
    outcome (n=k, m). Probabilities and post-correction states must agree;
    each side's post state comes from its own correction operator, and the
    collective one is folded through the repeated-digit identification, with
    any amplitude the correction leaks off the sector counted as error. A
    pair live on one side only is a state error of 1. For m=1 both sides
    are the same protocol and the deltas vanish identically.
    """
    if (cat.d, cat.m) != (d, m):
        raise ValueError(f"cat state is (d={cat.d}, m={cat.m}), asked for ({d}, {m})")
    check_size(d, m, max_dim)
    plan = _check_plan(d, m)
    coeffs = cat.coeffs[None]
    branched = _pair_branches(coeffs, d * d)
    folded, leaked = _fold_corrections(coeffs, branched, plan.fold)[:2]
    prob_deltas, state_deltas = _equivalence_deltas(coeffs, branched, plan, folded, leaked)
    return EquivalenceReport(float(prob_deltas[0]), float(state_deltas[0]))


__getattr__ = forward_to_dense(__name__, "compose_joint_state")
