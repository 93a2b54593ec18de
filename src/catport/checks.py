"""Invariant suites behind the ``verify`` subcommand.

Each suite reports the worst error it saw across every protocol kind valid
at the requested (d, m) and a batch of seeded random cat states. Suites
report rather than raise, so one broken invariant never hides another.

The suites read the same structure the engine uses. The joint state has
d**2 nonzero amplitudes, every outcome reaches the receiver through one of
d**2 (shift, phase) pairs, each undone by one monomial correction, and every
measured family is built from a d x d Fourier slot and sector states with d
nonzero amplitudes each. So no joint register, family matrix, outcome
record or correction matrix is built: each check works on d-vectors per
pair, on the pair column of each protocol's live outcome rows, and on the
corrections' permutations and phase factors.

The seeded cats are stacked one row each, in blocks of a fixed number of
branch amplitudes, so memory is flat in the seed count; the first block also
carries the first cat with a global phase. Protocols at one ladder position
share their live pairs, so each position's branches, probabilities and
corrected fidelities are computed once per block, and so is the collective
versus single-particle equivalence. The d**2 corrections are certified
together on their stacked tables. Every row is rounded as it would be alone,
so the results do not depend on the blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import bases
from .bases import BasisFamily, BasisLabel, BellLabel, ComplementLabel
from .core import DEFAULT_MAX_DIM, random_cat_state
from .protocols import (
    MonomialOperator,
    _equivalence_deltas,
    _fold_corrections,
    _live_pairs,
    _pair_branches,
    _pair_correction,
    _sector_images,
    check_size,
    protocol_specs,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_error: float
    threshold: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "max_error": self.max_error,
            "threshold": self.threshold,
            "passed": self.passed,
        }


def _result(name: str, max_error: float, threshold: float) -> CheckResult:
    return CheckResult(name, float(max_error), threshold, bool(max_error < threshold))


def _sector_family_error(d: int, block: int, labels: list[BasisLabel]) -> float:
    """Worst Gram or completeness error of the barred-Bell or block-GHZ family
    of ``labels`` over ``block + 1`` qudits, without building its matrix.

    Each Bell or GHZ label's state has d nonzero amplitudes. States with the
    same support form a group. When the groups' supports are disjoint, the
    family's Gram and completeness matrices are block diagonal, exactly, and
    each block is one group's small dense product. Complement labels stand
    for kets, whose entries are exact, and must name exactly the kets that no
    group covers; otherwise the family is not certified and the error is 1.
    """
    groups: dict[bytes, tuple[np.ndarray, list[np.ndarray]]] = {}
    complement = []
    for label in labels:
        if isinstance(label, ComplementLabel):
            complement.append(label.digits)
            continue
        if isinstance(label, BellLabel):
            amps = bases.barred_bell_basis_state(d, block, label).amps
        else:
            amps = bases.block_ghz_basis_state(d, block, label).amps
        support = np.flatnonzero(amps)
        groups.setdefault(support.tobytes(), (support, []))[1].append(amps[support])
    covered = [support for support, _ in groups.values()]
    if complement:
        covered.append(np.array(complement) @ d ** np.arange(block, -1, -1))
    if not np.array_equal(np.sort(np.concatenate(covered)), np.arange(d ** (block + 1))):
        return 1.0
    error = 0.0
    for _, rows in groups.values():
        states = np.array(rows)
        gram = states.conj() @ states.T
        completeness = states.T @ states.conj()
        error = max(
            error,
            float(np.abs(gram - np.eye(gram.shape[0])).max()),
            float(np.abs(completeness - np.eye(completeness.shape[0])).max()),
        )
    return error


# Twice sqrt(2) * gamma_2 with gamma_2 = 2u / (1 - 2u), u = 2**-53: the most
# one complex product's rounding can move a Gram or completeness entry.
_KRON_ROUNDING = 2 * math.sqrt(2) * (2 * 2.0**-53 / (1 - 2 * 2.0**-53))


@lru_cache(maxsize=128)
def _basis_error(d: int, m: int) -> float:
    """Worst Gram or completeness error of the measured families at (d, m):
    Bell, Fourier, GHZ, the Bell protocol's joint family, barred(m) and, for
    m >= 2, block GHZ(m). They depend on nothing else, so a process
    certifies each (d, m) once.

    The d x d Fourier slot is certified dense, the sector families by
    :func:`_sector_family_error`. The Bell protocol's family is m - 1
    Fourier slots and a Bell pair. For exact products of two families, Gram
    and completeness are the Kronecker products of the factors', and
    ``||G_A (x) G_B - I||_max <= e_A + e_B + e_A * e_B`` when each factor is
    within e of the identity, so the bound is applied once per slot.

    The states themselves are not exact products: ``tensor`` rounds each
    product amplitude, a relative error of at most sqrt(2) * gamma_2 (about
    2 * sqrt(2) units in the last place) per complex product. Each Gram or
    completeness entry is a sum of |v_i(x)| |v_j(x)| <= 1 + e by
    Cauchy-Schwarz, so that rounding moves it by at most twice as much, and
    ``_KRON_ROUNDING`` is added once per slot to cover it.
    """
    fourier = bases.verify_orthonormal_complete(bases.build_basis(BasisFamily.PI, d))
    fourier_error = max(fourier.max_gram_error, fourier.max_completeness_error)
    bell_error = _sector_family_error(d, 1, bases.barred_labels(d, 1))
    joint_error = bell_error
    for _ in range(m - 1):
        joint_error += fourier_error + fourier_error * joint_error + _KRON_ROUNDING
    errors = [
        fourier_error,
        joint_error,
        _sector_family_error(d, 2, bases.ghz_labels(d, 2)),
        _sector_family_error(d, m, bases.barred_labels(d, m)),
    ]
    if m > 2:
        errors.append(_sector_family_error(d, m, bases.ghz_labels(d, m)))
    return max(errors)


def _unitarity_error(d: int, corrections: list[MonomialOperator]) -> float:
    """The worst of ``corrections``, checked together on their stacked
    tables: 1.0 unless a correction's digit map is a bijection that its
    adjoint undoes exactly, and then the largest ||f|**2 - 1| over its phase
    factors, because U^dagger U - I of a monomial operator is diagonal with
    those entries."""
    perms = np.array([correction.perm for correction in corrections])
    identity = np.arange(perms.shape[1])
    rows = np.arange(perms.shape[0])[:, None]
    undone = (np.sort(perms, axis=1) == identity).all(axis=1)
    # A row that is no bijection fails as it is; the identity in its place
    # keeps the adjoint's scatter in range.
    perms[~undone] = identity
    # The adjoint sends perm[s] back to s with phase -phase_exp[s]; composed
    # after the correction it must give the identity, exactly, mod d.
    adjoint = np.empty_like(perms)
    adjoint[rows, perms] = identity
    undone &= (adjoint[rows, perms] == identity).all(axis=1)
    phases = np.array([correction.phase_exp for correction in corrections])
    adjoint[rows, perms] = -phases
    composed = adjoint[rows, perms]
    del adjoint, perms  # the tables are d**m entries per correction
    composed += phases
    undone &= ~(composed % d).any(axis=1)
    del composed, phases
    factors = np.array([correction.factors for correction in corrections])
    deviations = factors.real ** 2
    deviations += factors.imag ** 2
    deviations -= 1.0
    return float(np.where(undone, np.abs(deviations).max(axis=1), 1.0).max())


# Entries checked together: d**3 branch amplitudes per cat, d**m table
# entries per correction. A block's arrays take a small multiple of 16 bytes
# per entry, so memory is flat in the seed count and the register size.
CHECK_BLOCK_ENTRIES = 1 << 18


def run_all_checks(
    d: int, m: int, seeds: int, *, max_dim: int = DEFAULT_MAX_DIM
) -> list[CheckResult]:
    if seeds < 1:
        raise ValueError(f"seeds must be at least 1, got {seeds}")
    # Before anything is built: listing the m + 4 specs of a huge register is slow.
    check_size(d, m, max_dim)
    specs = protocol_specs(d, m)
    basis_err = _basis_error(d, m)

    # Outcomes with the same (shift, phase) pair share one operator: check each once.
    counts = sum(np.bincount(_live_pairs(spec), minlength=d * d) for spec in specs)
    pairs = np.flatnonzero(counts)
    corrections = [_pair_correction(specs[0], pair) for pair in pairs.tolist()]
    chunk = max(1, CHECK_BLOCK_ENTRIES // d ** m)
    unitarity_err = max(
        _unitarity_error(d, corrections[start : start + chunk])
        for start in range(0, len(corrections), chunk)
    )
    images = _sector_images(specs[0], pairs)

    # Specs with the same d**k live rows over the same pairs share branches,
    # probabilities and fold: one per ladder position. Only the row order of
    # the completeness sum is each spec's own, and equal columns sum alike.
    positions = {}
    for spec in specs:
        live_pairs = _live_pairs(spec)
        used = np.flatnonzero(np.bincount(live_pairs, minlength=d * d))
        columns = positions.setdefault((live_pairs.size, used.tobytes()), (used, {}))[1]
        columns.setdefault(live_pairs.tobytes(), live_pairs)

    sum_err = 0.0
    fidelity_err = 0.0
    selection_err = 0.0
    uniformity_err = 0.0
    phase_err = 0.0
    signaling_err = 0.0
    equivalence_err = 0.0
    receiver = np.arange(d)
    block_cats = max(1, CHECK_BLOCK_ENTRIES // d ** 3)
    for start in range(0, seeds, block_cats):
        block = [
            random_cat_state(d, m, seed).coeffs
            for seed in range(start, min(start + block_cats, seeds))
        ]
        cats = len(block)
        # The first block also carries the first cat with a global phase, last.
        stack = np.array(block + [block[0] * np.exp(0.73j)] if start == 0 else block)
        norms = [float(np.vdot(coeffs, coeffs).real) for coeffs in block]
        for (live, _), (used, columns) in positions.items():
            # The first d**k rows can occur, each with probability 1/d**k.
            branched = _pair_branches(stack, live)
            probabilities = branched[1][:, used]
            fidelities = _fold_corrections(stack, used, branched, images)[2]
            if start == 0:
                phase_err = max(
                    phase_err,
                    float(np.abs(probabilities[-1] - probabilities[0]).max()),
                    float(np.abs(fidelities[-1] - fidelities[0]).max()),
                )
            # Row order, as a running sum over the outcome records adds them.
            for live_pairs in columns.values():
                sums = (sum(memoryview(row[live_pairs])) for row in branched[1][:cats])
                sum_err = max(sum_err, *(abs(total - 1.0) for total in sums))
            probabilities, fidelities = probabilities[:cats], fidelities[:cats]
            uniformity_err = max(uniformity_err, float(np.abs(probabilities - 1.0 / live).max()))
            fidelity_err = max(fidelity_err, float(np.abs(fidelities - 1.0).max()))
            # Joint amplitude on sender (l..l, l + s) reaches only rows whose pair
            # has shift s; with no such live row, it would land on a forbidden one.
            missing_shifts = d - np.unique(used // d).size
            selection_err = max(selection_err, *(missing_shifts * norm / d for norm in norms))

        # The receiver's reduced state from the d**2 nonzero joint amplitudes
        # alpha_l / sqrt(d) on sender (l..l, i) and receiver (i..i), traced over
        # the sender index (l, i). Off the sector it is exactly zero, as is the
        # expected maximally mixed state I/d there.
        for coeffs in block:
            joint = np.zeros((d, d, d), dtype=np.complex128)
            joint[receiver, :, receiver] = coeffs * (1.0 / math.sqrt(d))
            traced = joint.reshape(d, d * d)
            rho = traced @ traced.conj().T
            signaling_err = max(signaling_err, float(np.abs(rho - np.eye(d) / d).max()))

        prob_deltas, state_deltas = _equivalence_deltas(stack[:cats], d, m)
        equivalence_err = max(equivalence_err, float(np.maximum(prob_deltas, state_deltas).max()))

    return [
        _result("basis_orthonormality", basis_err, 1e-12),
        _result("correction_unitarity", unitarity_err, 1e-12),
        _result("probability_completeness", sum_err, 1e-10),
        _result("perfect_teleportation", fidelity_err, 1e-10),
        _result("selection_rule", selection_err, 1e-12),
        _result("outcome_uniformity", uniformity_err, 1e-10),
        _result("no_signaling", signaling_err, 1e-12),
        _result("barred_equivalence", equivalence_err, 1e-10),
        _result("global_phase_invariance", phase_err, 1e-12),
    ]
