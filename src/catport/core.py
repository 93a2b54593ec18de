"""Dense linear algebra over registers of d-level quantum systems.

Amplitude vectors are flat complex128 arrays in big-endian mixed-radix
order: the first qudit's digit is the most significant. All containers are
immutable after construction (backing arrays are marked read-only), so
values can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

DEFAULT_MAX_DIM = 1 << 22
NORM_TOL = 1e-12


class RangeError(ValueError):
    """A digit, index, or label component is outside its allowed range."""


class ShapeMismatchError(ValueError):
    """Operands disagree on register shape or local dimension."""


class SizeCapError(ValueError):
    """Requested register dimension exceeds the configured cap."""


@dataclass(frozen=True)
class RegisterShape:
    """A register of ``num_qudits`` systems with ``d`` levels each.

    Construction fails with :class:`SizeCapError` once ``d**num_qudits``
    exceeds ``max_dim``; the cap exists because states are stored dense.
    The cap is construction policy only and does not affect equality.
    """

    d: int
    num_qudits: int
    max_dim: int = field(default=DEFAULT_MAX_DIM, compare=False, repr=False)

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"local dimension must be >= 2, got {self.d}")
        if self.num_qudits < 1:
            raise ValueError(f"need at least one qudit, got {self.num_qudits}")
        # d**n >= 2**n > max_dim once n reaches the cap's bit length, so a long
        # register fails without computing a power of possibly millions of digits.
        n = self.num_qudits
        if n >= int(self.max_dim).bit_length() or self.d**n > self.max_dim:
            raise SizeCapError(
                f"dense register of {self.d}**{self.num_qudits} amplitudes "
                f"exceeds the cap of {self.max_dim}"
            )

    @property
    def total(self) -> int:
        """Hilbert-space dimension ``d**num_qudits``."""
        return self.d ** self.num_qudits


def unit_phase(numerator: int, d: int) -> complex:
    """exp(2*pi*i*numerator/d), with the exponent reduced mod d first.

    Phases are always derived from the exact rational numerator/d rather
    than accumulated multiplicatively, so each entry carries a single
    rounding of the true root of unity.
    """
    return complex(np.exp(2j * np.pi * ((numerator % d) / d)))


def digits_to_index(shape: RegisterShape, digits: Sequence[int]) -> int:
    """Big-endian mixed-radix index of a digit string."""
    digits = tuple(int(q) for q in digits)
    if len(digits) != shape.num_qudits:
        raise ShapeMismatchError(
            f"expected {shape.num_qudits} digits, got {len(digits)}"
        )
    index = 0
    for q in digits:
        if not 0 <= q < shape.d:
            raise RangeError(f"digit {q} outside [0, {shape.d})")
        index = index * shape.d + q
    return index


def index_to_digits(shape: RegisterShape, index: int) -> tuple[int, ...]:
    """Digit string of a basis index; inverse of :func:`digits_to_index`."""
    index = int(index)
    if not 0 <= index < shape.total:
        raise RangeError(f"index {index} outside [0, {shape.total})")
    digits = []
    for _ in range(shape.num_qudits):
        index, q = divmod(index, shape.d)
        digits.append(q)
    return tuple(reversed(digits))


class PureState:
    """Immutable amplitude vector over a register.

    ``normalized`` marks unit-norm states. Subnormalized intermediates
    (e.g. unnormalized projection branches) are legal but must be
    constructed with ``normalized=False``.
    """

    __slots__ = ("shape", "amps", "normalized")

    def __init__(self, shape: RegisterShape, amps, normalized: bool = True):
        amps = np.array(amps, dtype=np.complex128)
        if amps.shape != (shape.total,):
            raise ShapeMismatchError(
                f"expected {shape.total} amplitudes, got array of shape {amps.shape}"
            )
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite (no NaN or inf)")
        if normalized:
            nrm = float(np.linalg.norm(amps))
            if abs(nrm - 1.0) > NORM_TOL:
                raise ValueError(
                    f"state flagged normalized but has norm {nrm!r}; "
                    "pass normalized=False for subnormalized intermediates"
                )
        amps.setflags(write=False)
        self.shape = shape
        self.amps = amps
        self.normalized = normalized

    def amplitude(self, digits: Sequence[int]) -> complex:
        return complex(self.amps[digits_to_index(self.shape, digits)])

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def __repr__(self):
        return (
            f"PureState(d={self.shape.d}, n={self.shape.num_qudits}, "
            f"normalized={self.normalized})"
        )


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


class CatState:
    """M copies of one digit in superposition: sum_l coeffs[l] |l l ... l>."""

    __slots__ = ("d", "m", "coeffs")

    def __init__(self, d: int, m: int, coeffs):
        coeffs = np.array(coeffs, dtype=np.complex128)
        if d < 2:
            raise ValueError(f"local dimension must be >= 2, got {d}")
        if m < 1:
            raise ValueError(f"need at least one particle, got {m}")
        if coeffs.shape != (d,):
            raise ShapeMismatchError(f"expected {d} coefficients, got {coeffs.shape}")
        if not np.isfinite(coeffs).all():
            raise ValueError("coefficients must be finite (no NaN or inf)")
        nrm = float(np.linalg.norm(coeffs))
        if abs(nrm - 1.0) > NORM_TOL:
            raise ValueError(f"coefficients have norm {nrm!r}, expected 1")
        coeffs.setflags(write=False)
        self.d = d
        self.m = m
        self.coeffs = coeffs

    def __repr__(self):
        return f"CatState(d={self.d}, m={self.m})"


def cat_sector_indices(d: int, num_qudits: int) -> np.ndarray:
    """Basis indices of the constant digit strings |0..0>, |1..1>, ..."""
    unit = (d ** num_qudits - 1) // (d - 1)
    return np.arange(d, dtype=np.int64) * unit


def cat_to_pure_state(cat: CatState, *, max_dim: int = DEFAULT_MAX_DIM) -> PureState:
    """Expand a cat state into its dense M-qudit amplitude vector."""
    shape = RegisterShape(cat.d, cat.m, max_dim=max_dim)
    amps = np.zeros(shape.total, dtype=np.complex128)
    amps[cat_sector_indices(cat.d, cat.m)] = cat.coeffs
    return PureState(shape, amps)


def random_cat_state(d: int, m: int, seed: int) -> CatState:
    """Haar-like random cat coefficients (complex Gaussians, normalized).

    Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return CatState(d, m, z / np.linalg.norm(z))


def uniform_superposition_chain(
    d: int, num_qudits: int, *, max_dim: int = DEFAULT_MAX_DIM
) -> PureState:
    """The maximally entangled chain (1/sqrt(d)) sum_i |i i ... i>."""
    shape = RegisterShape(d, num_qudits, max_dim=max_dim)
    amps = np.zeros(shape.total, dtype=np.complex128)
    amps[cat_sector_indices(d, num_qudits)] = 1.0 / math.sqrt(d)
    return PureState(shape, amps)
