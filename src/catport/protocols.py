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
states and correction, so there are at most d**2 of each. The dense
projection survives only as a test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from . import bases
from .bases import BasisLabel, BellLabel, ComplementLabel, GhzLabel, JointLabel, MeasurementBasis
from .core import (
    DEFAULT_MAX_DIM,
    CatState,
    PureState,
    RegisterShape,
    ShapeMismatchError,
    cat_sector_indices,
    cat_to_pure_state,
    sector_state,
    tensor,
    uniform_superposition_chain,
)

PROB_FLOOR = 1e-12


class ProtocolKind(Enum):
    BELL = "bell"
    GHZ = "ghz"
    BARRED = "barred"
    HYBRID = "hybrid"


@dataclass(frozen=True)
class ProtocolSpec:
    """Which protocol to run, for which local dimension and particle count."""

    kind: ProtocolKind
    d: int
    m: int
    hybrid_k: Optional[int] = None

    def __post_init__(self):
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


def ladder_k(spec: ProtocolSpec) -> int:
    """The protocol's position on the ladder: the sender measures k-2 qudits
    one at a time and the last m-k+3 together, and k*log2(d) bits go out.
    BELL is k = m+1; BARRED and GHZ are k = 2."""
    if spec.kind is ProtocolKind.HYBRID:
        return spec.hybrid_k
    return spec.m + 1 if spec.kind is ProtocolKind.BELL else 2


def protocol_specs(d: int, m: int) -> list[ProtocolSpec]:
    """Every protocol valid at (d, m) in ladder order: Bell, GHZ (m >= 2),
    barred, then the hybrids k = 2..m+1."""
    specs = [ProtocolSpec(ProtocolKind.BELL, d, m)]
    if m >= 2:
        specs.append(ProtocolSpec(ProtocolKind.GHZ, d, m))
    specs.append(ProtocolSpec(ProtocolKind.BARRED, d, m))
    specs.extend(
        ProtocolSpec(ProtocolKind.HYBRID, d, m, hybrid_k=k) for k in range(2, m + 2)
    )
    return specs


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
        if np.bincount(perm, minlength=total).max() != 1:
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


def compose_joint_state(
    cat: CatState, spec: ProtocolSpec, *, max_dim: int = DEFAULT_MAX_DIM
) -> PureState:
    """Cat state on particles 1..m tensored with the entangled chain on m+1..2m+1.

    The sender holds particles 1..m+1, the receiver m+2..2m+1.
    """
    _check_inputs(cat, spec, max_dim)
    return tensor(
        cat_to_pure_state(cat, max_dim=max_dim),
        uniform_superposition_chain(spec.d, spec.m + 1, max_dim=max_dim),
    )


def _family_labels(spec: ProtocolSpec) -> list[BasisLabel]:
    """The labels of ``measurement_family(spec)`` in its order: k-2 Fourier
    slots, then a block of m-k+2 repeated digits and one more qudit. GHZ and
    barred outcomes are bare block labels; the others are joint labels."""
    k = ladder_k(spec)
    block = spec.m - k + 2
    if spec.kind is ProtocolKind.GHZ:
        return bases.ghz_labels(spec.d, block)
    if spec.kind is ProtocolKind.BARRED:
        return bases.barred_labels(spec.d, block)
    return bases.joint_labels(spec.d, k - 2, block)


@lru_cache(maxsize=32)
def _family_cached(
    kind: ProtocolKind, d: int, m: int, hybrid_k: Optional[int]
) -> MeasurementBasis:
    spec = ProtocolSpec(kind, d, m, hybrid_k)
    return bases.label_basis(d, m - ladder_k(spec) + 2, _family_labels(spec))


def measurement_family(spec: ProtocolSpec) -> MeasurementBasis:
    """The complete orthonormal family measured on the sender's m+1 qudits."""
    return _family_cached(spec.kind, spec.d, spec.m, spec.hybrid_k)


def _live_pairs(spec: ProtocolSpec) -> np.ndarray:
    """Each pair ``shift * d + phase`` of the d**k outcome rows that can occur,
    the first ones whatever the cat state. Indexing the pairs' probabilities
    with it gives the outcome probability column; every later row is zero by
    structure. The protocols other than GHZ at one ladder position share it.

    GHZ row s*d + p is ghz(0,s,p), with pair s*d + p. Any other row is
    (n*d + s) * d**(k-2) plus the Fourier outcomes in mixed radix, with shift
    s and phase n plus their digit sum.
    """
    return _ladder_pairs(spec.d, ladder_k(spec), spec.kind is ProtocolKind.GHZ)


@lru_cache(maxsize=128)
def _ladder_pairs(d: int, k: int, ghz: bool) -> np.ndarray:
    if ghz:
        pairs = np.arange(d * d)
    else:
        # The Fourier digit sums in mixed-radix order, tensored one slot at a time.
        digit_sums = np.zeros(1, dtype=np.int64)
        for _ in range(k - 2):
            digit_sums = (digit_sums[:, None] + np.arange(d)).reshape(-1)
        phase, shift = np.divmod(np.arange(d * d), d)
        pairs = (shift[:, None] * d + (phase[:, None] + digit_sums) % d).reshape(-1)
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
    of a spec's completeness sum is its own; specs that share a stored column
    share that too, and equal columns give equal sums."""
    positions, slots = {}, []
    for spec in protocol_specs(d, m):
        live_pairs = _live_pairs(spec)
        used = np.bincount(live_pairs, minlength=d * d) > 0
        used.setflags(write=False)
        index, _, columns = positions.setdefault(
            (live_pairs.size, used.tobytes()), (len(positions), used, {})
        )
        slots.append((index, columns.setdefault(id(live_pairs), (len(columns), live_pairs))[0]))
    ladder = tuple(
        LadderPosition(live, used, tuple(column for _, column in columns.values()))
        for (live, _), (_, used, columns) in positions.items()
    )
    return ladder, tuple(slots)


def _live_label(spec: ProtocolSpec, row: int) -> BasisLabel:
    """The label of ``row``, one of the d**k rows that can occur, laid out as
    :func:`_live_pairs` reads them."""
    d, num_pi = spec.d, ladder_k(spec) - 2
    if spec.kind is ProtocolKind.GHZ:
        return GhzLabel(0, *divmod(row, d))
    tail, rest = divmod(row, d ** num_pi)
    bell = BellLabel(*divmod(tail, d))
    if spec.kind is ProtocolKind.BARRED:
        return bell
    return JointLabel([rest // d ** place % d for place in reversed(range(num_pi))], bell)


def _label_pair(spec: ProtocolSpec, label: BasisLabel) -> int:
    """The pair ``shift * d + phase`` of a label of the protocol's family.

    A Bell tail's shift is its ``m`` and its phase its ``n`` plus the Fourier
    outcomes; a GHZ label's pair is (m, k) whatever its n. A complement ket
    never occurs and gets pair 0; any unitary would do there. Raises
    ValueError for a label outside the family.
    """
    d, k, ghz = spec.d, ladder_k(spec), spec.kind is ProtocolKind.GHZ
    joint = isinstance(label, JointLabel)
    alphas, tail = (label.alphas, label.tail) if joint else ((), label)
    # Labels hold no negatives, and their Fourier outcomes and ket digits are ints.
    member = joint is (spec.kind in (ProtocolKind.BELL, ProtocolKind.HYBRID))
    member = member and len(alphas) == k - 2 and max(alphas, default=0) < d
    if isinstance(tail, ComplementLabel):
        # Off the sector: the block's repeated digits, after GHZ's first qudit, differ.
        digits, block = tail.digits, spec.m - k + 2
        if member and len(digits) == block + 1 and max(digits) < d:
            if len(set(digits[int(ghz) : block])) > 1:
                return 0
    elif isinstance(tail, GhzLabel if ghz else BellLabel):
        phase = tail.k if ghz else tail.n
        if member and all(q in range(d) for q in (tail.n, tail.m, phase)):
            return int(tail.m * d + (phase + sum(alphas)) % d)
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
    if not np.array_equal(np.sort(correction.perm), np.arange(correction.perm.size)):
        return 1.0
    factors = correction.factors
    deviations = factors.real ** 2
    deviations += factors.imag ** 2
    deviations -= 1.0
    return float(np.abs(deviations).max())


@lru_cache(maxsize=32)
def _register_images(d: int, num_qudits: int):
    """The worst :func:`_unitarity_error` of the register's d**2 corrections,
    and their images on the sector as two read-only (d**2, d) tables: row p
    holds, for pair p, the digit j of the sector ket |j..j> that its
    correction sends |i..i> to, or -1 off the sector, and the factor.

    Each correction is built, read and dropped in turn, so one at a time is
    held and none is stored."""
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
    """The receiver's state after applying the outcome's correction."""
    return record.correction.apply(record.bob_pre_correction)


@lru_cache(maxsize=64)
def _pair_tables(d: int) -> tuple[np.ndarray, ...]:
    """Index and phase tables with one row per pair p = shift * d + phase.

    Branch p reads alpha at ``source[p, i] = i - shift`` times
    ``rephase[p, i] = omega**(-source * phase)``; its correction reads the
    branch at ``gather[p, j] = j + shift`` times ``twist[p, j] =
    omega**(j * phase)``, rounded as MonomialOperator rounds its phases.
    """
    shift, phase = np.divmod(np.arange(d * d), d)
    digits = np.arange(d)
    roots = np.exp(2j * np.pi * (digits / d))
    source = (digits - shift[:, None]) % d
    gather = (digits + shift[:, None]) % d
    rephase = roots[(source * phase[:, None]) % d].conj()
    twist = roots[(digits * phase[:, None]) % d]
    for array in (source, gather, rephase, twist):
        array.setflags(write=False)
    return source, gather, rephase, twist


def _pair_branches(coeffs: np.ndarray, live) -> tuple[np.ndarray, np.ndarray]:
    """Bob's unnormalized branch on the sector |i..i> for each pair p, and its
    probability, for a cat's coefficients ``coeffs`` or a stack of them on
    leading axes. Every nonzero outcome with pair p leaves this branch.

    Row p is b[i] = alpha_l * omega**(-l * phase) / sqrt(d**k) with
    l = i - shift mod d, where ``live = d**k`` is the number of nonzero outcomes;
    a list of counts puts each count's rows on a new leading axis. Each row is
    rounded alike whatever the stack or the other counts around it.
    """
    source, _, rephase, _ = _pair_tables(coeffs.shape[-1])
    if isinstance(live, list):
        scale = np.reshape([math.sqrt(count) for count in live], (-1,) + (1,) * (coeffs.ndim + 1))
    else:
        scale = math.sqrt(live)
    branches = coeffs[..., source] * rephase / scale
    return branches, np.einsum("...ij,...ij->...i", branches.conj(), branches).real


def _finish_pairs(cat: CatState, pairs: np.ndarray, branched, bob_shape: RegisterShape):
    """(probability, pre state, post state, fidelity) of each pair in ``pairs``,
    from ``branched = _pair_branches(...)``.

    The correction acts on the sector as ``MonomialOperator.apply`` does:
    entry j of the result is entry j + shift of the branch times
    omega**(j * phase).
    """
    _, gather, _, twist = _pair_tables(cat.d)
    branches, probabilities = branched
    pre = branches[pairs] / np.sqrt(probabilities[pairs])[:, None]
    post = pre[np.arange(pairs.size)[:, None], gather[pairs]] * twist[pairs]
    # einsum rounds each row alike whatever the batch size; BLAS matmul does
    # not, and run_protocol must give enumerate_outcomes' record bit for bit.
    fidelities = np.abs(np.einsum("ij,j->i", post, cat.coeffs.conj())) ** 2
    states = ([sector_state(bob_shape, row) for row in rows] for rows in (pre, post))
    return list(zip(probabilities[pairs].tolist(), *states, fidelities.tolist()))


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
    d, pairs = spec.d, _live_pairs(spec)
    live, used = pairs.size, np.flatnonzero(np.bincount(pairs))
    bob_shape = RegisterShape(d, spec.m, max_dim=max_dim)
    branched = _pair_branches(cat.coeffs, live)
    finished = dict(zip(used.tolist(), _finish_pairs(cat, used, branched, bob_shape)))
    zero_state = PureState(bob_shape, np.zeros(bob_shape.total), normalized=False)
    zero = (0.0, zero_state, zero_state, 0.0)
    # Past the live rows come GHZ labels with n != 0, up to row d**3, then complement kets.
    last_ghz = d**3 if spec.kind is ProtocolKind.GHZ else 0
    records, pairs = [], pairs.tolist()
    for row, label in enumerate(_family_labels(spec)):
        pair = pairs[row] if row < live else row % (d * d) if row < last_ghz else 0
        probability, pre, post, fidelity = finished[pair] if row < live else zero
        correction = _pair_correction(spec, pair)
        records.append(OutcomeRecord(label, probability, pre, correction, post, fidelity))
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
    pair = pairs[position : position + 1]
    bob_shape = RegisterShape(spec.d, spec.m, max_dim=max_dim)
    probability, pre, post, fidelity = _finish_pairs(cat, pair, branched, bob_shape)[0]
    correction = _pair_correction(spec, int(pair[0]))
    label = _live_label(spec, position)
    return OutcomeRecord(label, probability, pre, correction, post, fidelity)


def _fold_corrections(coeffs: np.ndarray, pairs: np.ndarray, branched, images):
    """Each pair in ``pairs`` after its real correction (``images``), for the
    cat coefficients ``coeffs`` or a stack of them on leading axes, as passed
    to ``_pair_branches`` (``branched`` may add ladder positions in front):
    the amplitudes left on the sector |i..i>, one row per pair, the norm sent
    off it, and the fidelity with the cat. The arithmetic is the engine's, so
    correct corrections give its fidelities bit for bit, per cat as if alone."""
    branches, probabilities = branched
    slots, factors = images[0][pairs], images[1][pairs]
    scales = np.sqrt(probabilities[..., pairs])[..., None]
    # np.take keeps C order, so a fold with every entry on the sector scatters it as it is.
    moved = np.take(branches, pairs, axis=-2) / scales * factors
    on_sector = slots >= 0
    rows, cols = np.nonzero(on_sector)
    folded = np.zeros_like(moved)
    if on_sector.all():  # every entry moves, in order, and nothing leaks
        folded[..., rows, slots.ravel()] = moved.reshape(moved.shape[:-2] + (-1,))
        leaked = np.zeros(moved.shape[:-1])
    else:
        folded[..., rows, slots[rows, cols]] = moved[..., rows, cols]
        leaked = np.linalg.norm(np.where(on_sector, 0, moved), axis=-1)
    fidelities = np.abs(np.einsum("...ij,...j->...i", folded, coeffs.conj())) ** 2
    return folded, leaked, fidelities


def _equivalence_sides(d: int, m: int):
    """The live pairs' mask of the collective protocol on m particles, and
    the single side it must match as :func:`_equivalence_deltas` takes it."""
    kind = ProtocolKind.GHZ if m >= 2 else ProtocolKind.BARRED
    specs = ProtocolSpec(kind, d, m), ProtocolSpec(ProtocolKind.BELL, d, 1)
    many, single = (np.bincount(_live_pairs(spec), minlength=d * d) > 0 for spec in specs)
    return many, (single, _register_images(d, 1)[1])


def _equivalence_deltas(coeffs, branched, many, single) -> tuple[np.ndarray, np.ndarray]:
    """The largest probability delta and the largest state delta of
    :func:`barred_equivalence_check`, one entry per cat of the stack
    ``coeffs`` (one row of d coefficients each), from both sides' shared
    ``branched = _pair_branches(coeffs, d**2)``: the collective side's
    ``many = (used, folded, leaked)``, its live pairs' mask and their fold,
    and the single side's ``single = (used, images)``, folded here. Each cat
    gets the bits it gets alone."""
    (many_used, many_post, leaked), (single_used, images) = many, single
    many_p, single_p = (np.where(used, branched[1], 0.0) for used in (many_used, single_used))
    prob_deltas = np.abs(many_p - single_p).max(axis=-1)
    if not np.array_equal(many_used, single_used):
        return prob_deltas, np.ones_like(prob_deltas)
    single_post = _fold_corrections(coeffs, np.flatnonzero(single_used), branched, images)[0]
    state_deltas = np.abs(many_post - single_post).max(axis=(-2, -1))
    return prob_deltas, np.maximum(state_deltas, leaked.max(axis=-1))


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
    coeffs = cat.coeffs[None]
    branched = _pair_branches(coeffs, d * d)
    many_used, single = _equivalence_sides(d, m)
    pairs = np.flatnonzero(many_used)
    many = _fold_corrections(coeffs, pairs, branched, _register_images(d, m)[1])[:2]
    prob_deltas, state_deltas = _equivalence_deltas(coeffs, branched, (many_used, *many), single)
    return EquivalenceReport(float(prob_deltas[0]), float(state_deltas[0]))
