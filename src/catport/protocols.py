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
import threading
from collections import OrderedDict
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
    _dimensions,
    _integer,
    cat_sector_indices,
    forward_to_dense,
    lists_each_index_once,
    sector_state,
)

PROB_FLOOR = 1e-12
ROW_WINDOW = 4096  # outcome rows labelled at a time
COLUMN_WINDOW = 1 << 16  # live-pair column rows computed at a time
# What the register store keeps: all of ``verify --d 96 --m 2``'s tables (the
# (96, 2) plan 44 MB, the (96, 1) plan 37 MB, the pair tables 21 MB), so a
# warm call there rebuilds nothing.
KEEP_BYTES = 1 << 28
REGISTER_BYTES = 1 << 14  # counted for each register's Python objects


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
        d, m = _dimensions(self.d, self.m)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "m", m)
        if self.hybrid_k is not None:
            object.__setattr__(self, "hybrid_k", _integer("hybrid_k", self.hybrid_k))
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
    return list(Register.of(d, m).specs())


def _protocol_specs(d: int, m: int) -> tuple[ProtocolSpec, ...]:
    """The specs :func:`protocol_specs` lists, for the (d, m) register."""
    specs = [ProtocolSpec(ProtocolKind.BELL, d, m)]
    if m >= 2:
        specs.append(ProtocolSpec(ProtocolKind.GHZ, d, m))
    specs.append(ProtocolSpec(ProtocolKind.BARRED, d, m))
    specs.extend(ProtocolSpec(ProtocolKind.HYBRID, d, m, hybrid_k=k) for k in range(2, m + 2))
    return tuple(specs)


class Register:
    """Everything the engine keeps at one (d, m) between calls, each entry
    built on first use from this register alone by its builder, through
    :meth:`entry`: the protocol specs, the live-pair column of each rung
    (k, ghz), the pair tables, the correction of each pair, the check plan,
    which groups the specs into ladder positions, and the basis certificate,
    which :mod:`catport.checks` fills.

    The class keeps the one store of registers, least recently used first.
    A register counts each array buffer of its entries once, since the
    column entries and the plan share the columns, plus ``REGISTER_BYTES`` for
    its Python objects. When an entry takes the store past ``KEEP_BYTES``,
    the least recently used registers are dropped until it is back under,
    the asking one last. A call looks its register up once and reads
    through it even once it is dropped, so within a call each pair has one
    correction and nothing is built twice; across calls, they get the same
    objects while the register is kept. The lock guards the store and the
    byte counts: builds run outside it, and the first entry kept wins.
    """

    _kept: "OrderedDict[tuple[int, int], Register]" = OrderedDict()
    _kept_bytes = 0
    _lock = threading.Lock()

    def __init__(self, d: int, m: int):
        self.d, self.m = d, m
        self.entries = {}
        self.nbytes = REGISTER_BYTES
        self._counted = set()  # the ids of the buffers in nbytes

    @classmethod
    def of(cls, d: int, m: int) -> "Register":
        """The register of (d, m), checked by :func:`core._dimensions` before
        a new one is kept on first use."""
        d, m = _dimensions(d, m)
        key = d, m
        with cls._lock:
            register = cls._kept.get(key)
            if register is None:
                register = cls._kept[key] = cls(d, m)
                cls._kept_bytes += register.nbytes
                cls._trim()
            else:
                cls._kept.move_to_end(key)
        return register

    @classmethod
    def cache_clear(cls) -> None:
        """Drop every register, and the corrections :func:`correction_for`
        kept from them; a call under way keeps reading its own."""
        with cls._lock:
            cls._kept.clear()
            cls._kept_bytes = 0
        correction_for.cache_clear()

    @classmethod
    def _trim(cls) -> None:
        while cls._kept_bytes > KEEP_BYTES and cls._kept:
            cls._kept_bytes -= cls._kept.popitem(last=False)[1].nbytes

    def entry(self, key, build, *args):
        """The entry ``key``, kept from ``build(*args)`` on first use."""
        value = self.entries.get(key)
        if value is not None:
            return value
        built = build(*args)
        value = self.entries.setdefault(key, built)
        if value is built:
            with Register._lock:
                fresh = {id(b): b.nbytes for b in _buffers(built) if id(b) not in self._counted}
                self._counted.update(fresh)
                self.nbytes += sum(fresh.values())
                if Register._kept.get((self.d, self.m)) is self:
                    Register._kept_bytes += sum(fresh.values())
                    Register._trim()
        return value

    def specs(self) -> tuple[ProtocolSpec, ...]:
        return self.entry("specs", _protocol_specs, self.d, self.m)

    def column(self, rung: Rung) -> np.ndarray:
        """Each pair ``shift * d + phase`` of the d**k outcome rows of
        ``rung`` that can occur, the first ones whatever the cat state.
        Indexing the pairs' probabilities with it gives the outcome
        probability column; every later row is zero by structure. Rungs that
        differ only in their label form, joint or bare, share it."""
        return self.entry(("column", rung.k, rung.ghz), _live_column, rung)

    def pair_tables(self) -> tuple[np.ndarray, np.ndarray]:
        return self.entry("pair_tables", _pair_tables, self.d)

    def correction(self, pair: int) -> MonomialOperator:
        """The one correction for ``pair = shift * d + phase``."""
        return self.entry(("correction", pair), _build_correction, self.d, self.m, pair)

    def plan(self) -> "_CheckPlan":
        return self.entry("plan", _check_plan, self)


def _buffers(value):
    """The array buffers ``value`` holds: its arrays' bases, through tuples,
    lists and corrections."""
    if isinstance(value, np.ndarray):
        while isinstance(value.base, np.ndarray):
            value = value.base
        yield value
    elif isinstance(value, MonomialOperator):
        yield from _buffers((value.perm, value.phase_exp, value.factors))
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _buffers(item)


class MonomialOperator:
    """Unitary with one nonzero unit-modulus entry per row and column.

    Acts as ``U|s> = factors[s] |perm[s]>`` with ``factors[s] =
    exp(2*pi*i*phase_exp[s]/d)``. The permutation and the integer phase
    exponents fully determine the operator, so adjoints and compositions are
    computed in exact integer arithmetic.
    """

    __slots__ = ("d", "num_qudits", "perm", "phase_exp", "factors")

    def __init__(self, d: int, num_qudits: int, perm, phase_exp):
        perm, phase_exp = np.asarray(perm), np.asarray(phase_exp)
        if perm.dtype.kind not in "iu" or phase_exp.dtype.kind not in "iu":
            raise ValueError(
                f"permutation/phase tables must be integers, got {perm.dtype}/{phase_exp.dtype}"
            )
        perm = perm.astype(np.int64, copy=False)
        phase_exp = np.mod(phase_exp.astype(np.int64, copy=False), d)
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


def cat_sector_correction(
    d: int, num_qudits: int, phase_power: int, shift: int
) -> MonomialOperator:
    """Correction mapping |(j+shift)...(j+shift)> to exp(2*pi*i*j*phase_power/d)|j...j>.

    Off the repeated-digit sector the operator shifts every digit down with
    no phase, which keeps it monomial and unitary everywhere. There are d**2
    of these per register, one per pair; :func:`_build_correction` is the
    one caller.
    """
    # Every qudit gets the same one-qudit shift: the tensor power of ``one``.
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


def check_size(d: int, m: int, max_dim: int) -> tuple[int, int]:
    """(d, m) checked by :func:`core._dimensions`; SizeCapError if
    d**(2m+1), the nominal joint register at (d, m), exceeds ``max_dim``."""
    d, m = _dimensions(d, m)
    RegisterShape(d, 2 * m + 1, max_dim=max_dim)
    return d, m


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


def _live_column(rung: Rung) -> np.ndarray:
    """The pairs of the first ``rung.live`` rows, for :meth:`Register.column`,
    a window at a time, so the arithmetic's temporaries stay window-sized."""
    column = np.empty(rung.live, dtype=np.int64)
    for start in range(0, rung.live, COLUMN_WINDOW):
        stop = min(start + COLUMN_WINDOW, rung.live)
        column[start:stop] = rung.pairs(start, stop)
    column.setflags(write=False)
    return column


def _label_pair(spec: ProtocolSpec, label: BasisLabel) -> int:
    """The pair ``shift * d + phase`` of a label of the protocol's family, the
    pair of its row. A complement ket never occurs and gets pair 0; any
    unitary would do there. Raises ValueError for a label outside the
    family: one that is not the label of the row it ranks to.
    """
    rung = spec.rung
    row = rung.rank(label)
    if 0 <= row < rung.rows and rung.label(row) == label:
        return int(rung.pairs(row, row + 1)[0])
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
    (shift, phase) pair share one immutable operator, the (d, m)
    :class:`Register`'s, so a register has at most d**2 distinct
    corrections. This function's own cache is the one exception to the
    store's budget: it keeps the operators it returned alive after their
    register is dropped, and returns them again.
    """
    return Register.of(spec.d, spec.m).correction(_label_pair(spec, label))


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
    held and none is kept, not even in the register's corrections: the check
    plan of :func:`_check_plan` keeps what this returns."""
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


def _pair_branches(register: Register, coeffs: np.ndarray, live) -> tuple[np.ndarray, np.ndarray]:
    """Bob's unnormalized branch on the sector |i..i> for each pair p, and its
    probability, for a cat's coefficients ``coeffs`` or a stack of them on
    leading axes, from the register's pair tables. Every nonzero outcome
    with pair p leaves this branch.

    Row p is b[i] = alpha_l * omega**(-l * phase) / sqrt(d**k) with
    l = i - shift mod d, where ``live = d**k`` is the number of nonzero outcomes;
    a list of counts puts each count's rows on a new leading axis. Each row is
    rounded alike whatever the stack or the other counts around it.
    """
    source, rephase = register.pair_tables()
    if isinstance(live, list):
        scale = np.reshape([math.sqrt(count) for count in live], (-1,) + (1,) * (coeffs.ndim + 1))
    else:
        scale = math.sqrt(live)
    branches = coeffs[..., source] * rephase / scale
    return branches, np.einsum("...ij,...ij->...i", branches.conj(), branches).real


def _finish_pairs(register: Register, cat: CatState, pairs: np.ndarray, branched, bob_shape):
    """(probability, pre state, correction, post state, fidelity) of each pair
    in ``pairs``, from ``branched = _pair_branches(...)``. The post state is
    the pair's correction applied to the pre state, so a wrong correction
    shows as a fidelity below 1."""
    branches, probabilities = branched
    pre_rows = branches[pairs] / np.sqrt(probabilities[pairs])[:, None]
    corrections = [register.correction(pair) for pair in pairs.tolist()]
    pres = [sector_state(bob_shape, row) for row in pre_rows]
    posts = [correction.apply(pre) for correction, pre in zip(corrections, pres)]
    sector = cat_sector_indices(register.d, register.m)
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
    register = Register.of(spec.d, spec.m)
    rung = spec.rung
    used = np.flatnonzero(np.bincount(register.column(rung)))
    bob_shape = RegisterShape(spec.d, spec.m, max_dim=max_dim)
    branched = _pair_branches(register, cat.coeffs, rung.live)
    finished = dict(zip(used.tolist(), _finish_pairs(register, cat, used, branched, bob_shape)))
    zero = PureState(bob_shape, np.zeros(bob_shape.total), normalized=False)
    records, live = [], rung.live
    for start in range(0, rung.rows, ROW_WINDOW):
        stop = min(start + ROW_WINDOW, rung.rows)
        window = zip(range(start, stop), rung.labels(start, stop), rung.pairs(start, stop).tolist())
        for row, label, pair in window:
            fields = finished[pair] if row < live else (
                0.0, zero, register.correction(pair), zero, 0.0)
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
    seed = _integer("seed", seed)
    _check_inputs(cat, spec, max_dim)
    register = Register.of(spec.d, spec.m)
    pairs = register.column(spec.rung)
    branched = _pair_branches(register, cat.coeffs, pairs.size)
    u = float(np.random.default_rng(seed).random())
    # cumsum adds in label order, like a running float sum; the zero rows
    # after the live ones would add exactly nothing, so the pick is the same.
    cdf = np.cumsum(branched[1][pairs])
    position = min(int(np.searchsorted(cdf, u, side="right")), cdf.size - 1)
    bob_shape = RegisterShape(spec.d, spec.m, max_dim=max_dim)
    finished = _finish_pairs(register, cat, pairs[position : position + 1], branched, bob_shape)[0]
    return OutcomeRecord(spec.rung.label(position), *finished)


class FoldTables(NamedTuple):
    """What :func:`_fold_corrections` reads of the register's d**2
    corrections, one row per pair p = shift * d + phase, as in
    :func:`_pair_branches`: their sector factors, the mask of entries the
    correction keeps on the sector, the (row, column) of each such entry and
    its target slot, and whether every entry stays on."""

    factors: np.ndarray
    on_sector: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    targets: np.ndarray
    all_on: bool


def _fold_tables(images) -> FoldTables:
    """The fold tables of the sector images ``images = _register_images(...)[1]``."""
    slots, factors = images
    on_sector = slots >= 0
    rows, cols = np.nonzero(on_sector)
    targets = slots[rows, cols]
    for array in (on_sector, rows, cols, targets):
        array.setflags(write=False)
    return FoldTables(factors, on_sector, rows, cols, targets, bool(on_sector.all()))


def _fold_corrections(coeffs: np.ndarray, branched, tables: FoldTables):
    """Each pair after its real correction, for the cat coefficients
    ``coeffs`` or a stack of them on leading axes, as passed to
    ``_pair_branches`` (``branched`` may add ladder positions in front): the
    amplitudes left on the sector |i..i>, one row per pair, the norm sent off
    it, and the fidelity with the cat. The arithmetic is the engine's, so
    correct corrections give its fidelities bit for bit, per cat as if alone."""
    branches, probabilities = branched
    rows = tables.rows
    moved = branches / np.sqrt(probabilities)[..., None] * tables.factors
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
    lives: list[int]
    columns: tuple[tuple[np.ndarray, ...], ...]
    shares: np.ndarray
    masks: np.ndarray
    missing_shifts: int
    collective: int


def _check_plan(register: Register) -> _CheckPlan:
    """The checks' work that depends on (d, m) alone: the corrections'
    certificate, from :func:`_register_images`, which keeps no correction,
    the fold tables of every pair, whose row p is pair p as in
    :func:`_pair_branches`, and the register's ladder positions.

    Specs with the same d**k live rows over the same pairs share a
    position, and so branches, probabilities and fold; the positions come in
    first-use order, each with its count ``lives[i] = d**k``, its mask
    ``masks[i]`` of used pairs, its share 1/d**k and its distinct stored
    live-pair columns once each. Only the row order of a spec's completeness
    sum is its own. Specs whose rungs differ at most in their label form,
    joint or bare, have equal columns and share one, as equal columns give
    equal sums. The collective side of the equivalence is the first
    position with d**2 live rows, GHZ(m) or barred at m = 1. At m = 1 every
    spec shares one position, so the plan at m = 1 is the single-particle
    side."""
    d, m = register.d, register.m
    ladder = {}  # (live, used pairs) -> (used pairs, {id: column})
    for spec in register.specs():
        column = register.column(spec.rung)
        used = np.bincount(column, minlength=d * d) > 0
        kept = ladder.setdefault((column.size, used.tobytes()), (used, {}))[1]
        kept.setdefault(id(column), column)
    unitarity_err, images = _register_images(d, m)

    # The ladder positions are one stacked axis of the branches and the fold.
    lives = [live for live, _ in ladder]
    columns = tuple(tuple(kept.values()) for _, kept in ladder.values())
    shares = np.array([1.0 / live for live in lives])[:, None, None]
    masks = np.array([used for used, _ in ladder.values()])
    # Joint amplitude on sender (l..l, l + s) reaches only rows whose pair
    # has shift s; with no such live row, it would land on a forbidden one.
    missing_shifts = d - int(masks.reshape(-1, d, d).any(axis=2).sum(axis=1).min())
    for array in (shares, masks):
        array.setflags(write=False)
    return _CheckPlan(unitarity_err, _fold_tables(images), lives, columns, shares, masks,
                      missing_shifts, lives.index(d * d))


def _equivalence_deltas(coeffs, branched, plan: _CheckPlan, single: _CheckPlan, folded, leaked):
    """The largest probability delta and the largest state delta of
    :func:`barred_equivalence_check`, one entry per cat of the stack
    ``coeffs`` (one row of d coefficients each), from both sides' shared
    ``branched = _pair_branches(register, coeffs, d**2)`` and the collective
    position's ``folded, leaked = _fold_corrections(coeffs, branched,
    plan.fold)[:2]``. The single side is ``single``, the plan at m = 1,
    folded here. Both sides are compared on the collective side's used
    pairs, which are then the single side's too. Each cat gets the bits it
    gets alone."""
    many_used, single_used = plan.masks[plan.collective], single.masks[0]
    # The sides share each probability, so they differ by it where one side alone uses it.
    prob_deltas = np.where(many_used != single_used, branched[1], 0.0).max(axis=-1)
    if not np.array_equal(many_used, single_used):
        return prob_deltas, np.ones_like(prob_deltas)
    single_post = _fold_corrections(coeffs, branched, single.fold)[0]
    state_deltas = np.abs(folded - single_post)[..., many_used, :].max(axis=(-2, -1))
    return prob_deltas, np.maximum(state_deltas, leaked[..., many_used].max(axis=-1))


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
    d, m = check_size(d, m, max_dim)
    if (cat.d, cat.m) != (d, m):
        raise ValueError(f"cat state is (d={cat.d}, m={cat.m}), asked for ({d}, {m})")
    register = Register.of(d, m)
    plan, single = register.plan(), Register.of(d, 1).plan()
    coeffs = cat.coeffs[None]
    branched = _pair_branches(register, coeffs, d * d)
    folded, leaked = _fold_corrections(coeffs, branched, plan.fold)[:2]
    prob_deltas, state_deltas = _equivalence_deltas(coeffs, branched, plan, single, folded, leaked)
    return EquivalenceReport(float(prob_deltas[0]), float(state_deltas[0]))


__getattr__ = forward_to_dense(
    __name__, "compose_joint_state shift_operator clock_operator monomial_tensor"
)
