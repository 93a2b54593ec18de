"""Registers of d-level quantum systems: shapes, indexing, states and cats.

Amplitude vectors are flat complex128 arrays in big-endian mixed-radix
order: the first qudit's digit is the most significant. All containers are
immutable after construction (backing arrays are marked read-only), so
values can be shared freely across threads. Tensor products, partial
traces and the other dense reference code live in :mod:`catport.dense`.
"""

from __future__ import annotations

import numbers
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


def _integer(name: str, value) -> int:
    """``value`` as an int; a bool or a non-integer raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _dimensions(d, m) -> tuple[int, int]:
    """(d, m) as ints; ValueError unless both are integers, d >= 2 and m >= 1.
    The one (d, m) rule: every entry point that takes them applies it."""
    d, m = _integer("d", d), _integer("m", m)
    if d < 2:
        raise ValueError(f"local dimension must be >= 2, got {d}")
    if m < 1:
        raise ValueError(f"need at least one particle, got {m}")
    return d, m


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
        d, n = self.d, self.num_qudits
        if type(d) is not int or type(n) is not int:  # a numpy d**n would overflow
            d, n = _integer("d", d), _integer("num_qudits", n)
            object.__setattr__(self, "d", d)
            object.__setattr__(self, "num_qudits", n)
        if d < 2:
            raise ValueError(f"local dimension must be >= 2, got {d}")
        if n < 1:
            raise ValueError(f"need at least one qudit, got {n}")
        # d**n >= 2**n > max_dim once n reaches the cap's bit length, so a long
        # register fails without computing a power of possibly millions of digits.
        if n >= int(self.max_dim).bit_length() or d**n > self.max_dim:
            raise SizeCapError(
                f"dense register of {d}**{n} amplitudes "
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


def lists_each_index_once(parts: Iterable[np.ndarray], total: int) -> bool:
    """Whether the index arrays ``parts`` together list each of 0..total-1
    exactly once. Each is range-checked before it marks its indices in a
    1-byte table, because numpy wraps negative indices."""
    seen, count = np.zeros(total, dtype=np.bool_), 0
    for part in parts:
        if part.size and (part.min() < 0 or part.max() >= total):
            return False
        seen[part] = True
        count += part.size
    return count == total and bool(seen.all())


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


class CatState:
    """M copies of one digit in superposition: sum_l coeffs[l] |l l ... l>."""

    __slots__ = ("d", "m", "coeffs")

    def __init__(self, d: int, m: int, coeffs):
        d, m = _dimensions(d, m)
        coeffs = np.array(coeffs, dtype=np.complex128)
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
    """Basis indices of the constant digit strings |0..0>, |1..1>, ...: the
    multiples of the unit 11..1 in base d, which is entry 1."""
    unit = (d ** num_qudits - 1) // (d - 1)
    return np.arange(d, dtype=np.int64) * unit


def sector_state(shape: RegisterShape, values) -> PureState:
    """The normalized state with amplitude ``values[l]`` on |l..l> and zero
    off the repeated-digit sector."""
    amps = np.zeros(shape.total, dtype=np.complex128)
    amps[cat_sector_indices(shape.d, shape.num_qudits)] = values
    return PureState(shape, amps)


def random_cat_coeffs(d: int, seeds: Iterable[int]) -> np.ndarray:
    """Haar-like random cat coefficients as an (n, d) array, one row per
    seed: d complex Gaussians, the real parts drawn first, divided by their
    norm.

    Each seed's generator fills its row's real and imaginary parts in one
    call, and each row is divided by its own ``np.linalg.norm``, so a row's
    bits do not depend on the seeds drawn with it.
    """
    seeds = list(seeds)
    parts = np.empty((len(seeds), 2, d))
    for seed, row in zip(seeds, parts):
        np.random.default_rng(seed).standard_normal(out=row)
    z = parts[:, 0] + 1j * parts[:, 1]
    z /= np.array([np.linalg.norm(row) for row in z])[:, None]
    return z


def random_cat_state(d: int, m: int, seed: int) -> CatState:
    """The cat whose coefficients are ``random_cat_coeffs(d, [seed])``.

    Deterministic for a fixed seed.
    """
    d, m = _dimensions(d, m)
    return CatState(d, m, random_cat_coeffs(d, [seed])[0])


def forward_to_dense(module: str, names: str):
    """A module ``__getattr__`` (PEP 562) that hands out the ``names`` of
    :mod:`catport.dense`, loading it on first use, so that importing
    ``module`` never loads the dense reference code."""
    names = frozenset(names.split())

    def __getattr__(name: str):
        if name not in names:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        from . import dense

        return getattr(dense, name)

    return __getattr__


__getattr__ = forward_to_dense(
    __name__,
    "basis_ket tensor inner DensityMatrix partial_trace_keep cat_to_pure_state"
    " uniform_superposition_chain",
)
