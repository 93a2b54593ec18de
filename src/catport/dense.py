"""The dense reference: states, families and the joint register as full vectors.

The engine never loads this module. Enumeration, sampling and every
``verify`` suite work on the receiver's d-dimensional repeated-digit sector
and the d**2 shift/clock pairs, so what is here is the oracle the tests
compare them against: tensor products, partial traces and density matrices,
the dense basis builders and their numeric certificate, and the joint state
of d**(2m+1) amplitudes. Each name stays reachable from ``catport`` and
from the module it came from (``core``, ``bases`` or ``protocols``), whose
module ``__getattr__`` loads this module on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cache, reduce
from typing import Iterable, Sequence

import numpy as np

from .bases import BasisLabel, BellLabel, GhzLabel, JointLabel, PiLabel, Rung, sector_terms
from .core import (DEFAULT_MAX_DIM, CatState, PureState, RangeError, RegisterShape,
                   ShapeMismatchError, digits_to_index, sector_state)
from .protocols import ProtocolSpec, _check_inputs


def basis_ket(shape: RegisterShape, digits: Sequence[int]) -> PureState:
    """Computational basis state |digits>."""
    amps = np.zeros(shape.total, dtype=np.complex128)
    amps[digits_to_index(shape, digits)] = 1.0
    return PureState(shape, amps)


def tensor(a: PureState, b: PureState) -> PureState:
    """Tensor product; ``a``'s qudits become the leading (most significant) block."""
    if a.shape.d != b.shape.d:
        raise ShapeMismatchError(
            f"cannot tensor local dimensions {a.shape.d} and {b.shape.d}"
        )
    shape = RegisterShape(
        a.shape.d,
        a.shape.num_qudits + b.shape.num_qudits,
        max_dim=max(a.shape.max_dim, b.shape.max_dim),
    )
    return PureState(
        shape, np.kron(a.amps, b.amps), normalized=a.normalized and b.normalized
    )


def inner(a: PureState, b: PureState) -> complex:
    """<a|b>: conjugate-linear in ``a``, linear in ``b``."""
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a.amps, b.amps))


class DensityMatrix:
    """Validated density matrix: Hermitian, unit trace, PSD up to rounding."""

    __slots__ = ("shape", "entries")

    HERMITICITY_TOL = 1e-12
    TRACE_TOL = 1e-12
    EIGENVALUE_FLOOR = -1e-10

    def __init__(self, shape: RegisterShape, entries):
        entries = np.array(entries, dtype=np.complex128)
        if entries.shape != (shape.total, shape.total):
            raise ShapeMismatchError(
                f"expected a {shape.total}x{shape.total} matrix, got {entries.shape}"
            )
        herm = float(np.abs(entries - entries.conj().T).max())
        if herm > self.HERMITICITY_TOL:
            raise ValueError(f"matrix deviates from Hermitian by {herm:.3e}")
        tr = complex(np.trace(entries))
        if abs(tr - 1.0) > self.TRACE_TOL:
            raise ValueError(f"trace is {tr!r}, expected 1")
        lo = float(np.linalg.eigvalsh(entries).min())
        if lo < self.EIGENVALUE_FLOOR:
            raise ValueError(f"eigenvalue {lo:.3e} below floor")
        entries.setflags(write=False)
        self.shape = shape
        self.entries = entries

    def __repr__(self):
        return f"DensityMatrix(d={self.shape.d}, n={self.shape.num_qudits})"


def partial_trace_keep(state: PureState, keep: Iterable[int]) -> DensityMatrix:
    """Reduced density matrix on the kept qudits.

    ``keep`` holds 1-based qudit positions; the reduced register orders
    them ascending. Requires a normalized input state.
    """
    if not state.normalized:
        raise ValueError("partial trace requires a normalized state")
    positions = sorted({int(p) for p in keep})
    n = state.shape.num_qudits
    if not positions:
        raise ValueError("keep set must be nonempty")
    if positions[0] < 1 or positions[-1] > n:
        raise ValueError(f"keep positions must lie in 1..{n}, got {positions}")
    axes = [p - 1 for p in positions]
    rest = [i for i in range(n) if i not in axes]
    d = state.shape.d
    block = (
        state.amps.reshape((d,) * n)
        .transpose(axes + rest)
        .reshape(d ** len(axes), -1)
    )
    reduced_shape = RegisterShape(d, len(axes), max_dim=state.shape.max_dim)
    return DensityMatrix(reduced_shape, block @ block.conj().T)


def cat_to_pure_state(cat: CatState, *, max_dim: int = DEFAULT_MAX_DIM) -> PureState:
    """Expand a cat state into its dense M-qudit amplitude vector."""
    return sector_state(RegisterShape(cat.d, cat.m, max_dim=max_dim), cat.coeffs)


def uniform_superposition_chain(
    d: int, num_qudits: int, *, max_dim: int = DEFAULT_MAX_DIM
) -> PureState:
    """The maximally entangled chain (1/sqrt(d)) sum_i |i i ... i>."""
    return sector_state(RegisterShape(d, num_qudits, max_dim=max_dim), 1.0 / math.sqrt(d))


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
    if not isinstance(family, BasisFamily):
        raise ValueError(f"unknown basis family {family!r}")
    # Bell is barred(1), GHZ is block GHZ(2), and the Bell protocol's family
    # is m - 1 Fourier slots, then a Bell pair.
    m = {BasisFamily.BELL: 1, BasisFamily.GHZ: 2}.get(family, m)
    joint = family is BasisFamily.BELL_PROTOCOL_JOINT
    ghz = family in (BasisFamily.GHZ, BasisFamily.GHZ_PROTOCOL_JOINT)
    rung = Rung(d, m, m + 1 if joint else 2, ghz, joint)
    return label_basis(d, rung.block, rung.labels(0, rung.rows))


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
