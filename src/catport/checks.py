"""Invariant suites behind the ``verify`` subcommand.

Each suite reports the worst error it saw across every protocol kind valid
at the requested (d, m) and a batch of seeded random cat states. Suites
report rather than raise, so one broken invariant never hides another.

The suites read the same structure the engine uses. The joint state has
d**2 nonzero amplitudes, every outcome reaches the receiver through one of
d**2 (shift, phase) pairs, each undone by one monomial correction, and every
measured family is built from states of d terms and complement kets. So no
joint register, family matrix, dense state, label, outcome record or
correction matrix is built: each check works on d-vectors per pair, on the
term tables of ``bases.sector_terms`` and the index arrays of
``bases.complement_indices``, on the pair column of each protocol's live
outcome rows, and on the corrections' permutations and phase factors.

The seeded cats come in blocks of a fixed number of branch amplitudes over
all ladder positions, so memory is flat in the seed count. Each block is
drawn as one array by :func:`core.random_cat_coeffs`, one row per cat, and
no cat state is built; the first block also carries the first cat with a
global phase. The ladder positions, each shared by its protocols, are one
more stacked axis: a block takes one branch pass and one fold, whose k = 2
slice is also the equivalence's collective side. Every row is rounded as it
would be alone, so the results do not depend on the blocks. Completeness
sums add live rows in row order with ``np.cumsum``, one rounding each on
every Python; the builtin ``sum`` compensates from 3.12 on, and ``np.sum``
adds pairwise.

What depends on (d, m) alone is built once per (d, m): the basis
certificate in :func:`_basis_error`, and everything else in one
:func:`protocols._check_plan`. The plan certifies the register's d**2
corrections one at a time, reads their sector images into fold tables and
keeps the ladder positions, whose masks give the equivalence's collective
side. The single-particle side is the plan at m = 1. A call does only its
cat blocks.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from . import bases
from .core import DEFAULT_MAX_DIM, lists_each_index_once, random_cat_coeffs
from .protocols import (
    _check_plan,
    _equivalence_deltas,
    _fold_corrections,
    _pair_branches,
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
        return asdict(self)


def _result(name: str, max_error: float, threshold: float) -> CheckResult:
    return CheckResult(name, float(max_error), threshold, bool(max_error < threshold))


def _sector_family_error(d: int, block: int, width: int) -> float:
    """Worst Gram or completeness error of the family over ``block + 1``
    qudits of every label with ``width`` components, in lex order, as
    :func:`bases.sector_terms` reads them, then the block's complement kets.

    Each state has d terms; states on the same kets form a group. When the
    groups' kets and the complement kets partition the register, the Gram
    and completeness matrices are block diagonal, exactly, and each block is
    one group's small dense product, states in label order and kets in index
    order. Otherwise the family is not certified and the error is 1.
    The labels go d**2 at a time, d**3 terms; a group split over two chunks
    would put its kets in the partition twice, so it fails too.
    """
    # A block-GHZ block leaves its first qudit out.
    supports = [bases.complement_indices(d, block + 1, slice(int(width == 3), block))]
    error = 0.0
    for chunk in np.split(np.indices((d,) * width).reshape(width, -1).T, d ** max(0, width - 2)):
        kets, amplitudes = bases.sector_terms(d, block, chunk)
        # Each state's terms must come in ket order, as its dense vector lists them.
        if (np.diff(kets, axis=1) <= 0).any():
            return 1.0
        # States group by their least ket; one there on other kets overlaps the
        # group's support, which no partition allows.
        group, sizes = np.unique(kets[:, 0], return_inverse=True, return_counts=True)[1:]
        rows = np.argsort(group, kind="stable")
        supports.append(kets[rows[np.cumsum(sizes) - sizes]])
        if (kets != supports[-1][group]).any():
            return 1.0
        for states in np.split(amplitudes[rows], np.cumsum(sizes)[:-1]):
            for product in (states.conj() @ states.T, states.T @ states.conj()):
                error = max(error, float(np.abs(product - np.eye(len(product))).max()))
    return error if lists_each_index_once(supports, d ** (block + 1)) else 1.0


# Twice sqrt(2) * gamma_2 with gamma_2 = 2u / (1 - 2u), u = 2**-53: the most
# one complex product's rounding can move a Gram or completeness entry.
_KRON_ROUNDING = 2 * math.sqrt(2) * (2 * 2.0**-53 / (1 - 2 * 2.0**-53))


@lru_cache(maxsize=128)
def _basis_error(d: int, m: int) -> float:
    """Worst Gram or completeness error of the measured families at (d, m):
    Bell, Fourier, GHZ, the Bell protocol's joint family, barred(m) and, for
    m >= 2, block GHZ(m). They depend on nothing else, so a process
    certifies each (d, m) once.

    :func:`_sector_family_error` certifies each family, the d x d Fourier
    slot too: its d states form one group on one qudit. The Bell protocol's
    family is m - 1 Fourier slots and a Bell pair. For exact products of two
    families, Gram and completeness are the Kronecker products of the
    factors', and ``||G_A (x) G_B - I||_max <= e_A + e_B + e_A * e_B`` when
    each factor is within e of the identity, so the bound is applied once
    per slot.

    The states themselves are not exact products: ``dense.tensor`` rounds each
    product amplitude, a relative error of at most sqrt(2) * gamma_2 (about
    2 * sqrt(2) units in the last place) per complex product. Each Gram or
    completeness entry is a sum of |v_i(x)| |v_j(x)| <= 1 + e by
    Cauchy-Schwarz, so that rounding moves it by at most twice as much, and
    ``_KRON_ROUNDING`` is added once per slot to cover it.
    """
    fourier_error = _sector_family_error(d, 0, 1)
    joint_error = _sector_family_error(d, 1, 2)  # the Bell pair, then one slot at a time
    for _ in range(m - 1):
        joint_error += fourier_error + fourier_error * joint_error + _KRON_ROUNDING
    # (block, width): GHZ, barred(m) and block GHZ(m), which is GHZ at m = 2.
    families = [(2, 3), (m, 2)] + ([(m, 3)] if m > 2 else [])
    return max(fourier_error, joint_error, *(_sector_family_error(d, *f) for f in families))


# Branch amplitudes checked together: d**3 per cat and ladder position. A
# block's arrays take a small multiple of 16 bytes per amplitude, so memory
# is flat in the seeds. The completeness sums gather a sixteenth of that, or
# one cat's live rows if more, at a time.
CHECK_BLOCK_ENTRIES = 1 << 18


def run_all_checks(
    d: int, m: int, seeds: int, *, max_dim: int = DEFAULT_MAX_DIM
) -> list[CheckResult]:
    if seeds < 1:
        raise ValueError(f"seeds must be at least 1, got {seeds}")
    # Before anything is built: listing the m + 4 specs of a huge register is slow.
    check_size(d, m, max_dim)
    basis_err = _basis_error(d, m)
    plan = _check_plan(d, m)

    def worst(errors):  # over positions x cats x ``plan.fold.pairs``, at each position's own pairs
        return float(np.where(plan.own_pairs, errors, 0.0).max())

    sum_err = 0.0
    fidelity_err = 0.0
    selection_err = 0.0
    uniformity_err = 0.0
    phase_err = 0.0
    signaling_err = 0.0
    equivalence_err = 0.0
    receiver = np.arange(d)
    block_cats = max(1, CHECK_BLOCK_ENTRIES // (d ** 3 * len(plan.lives)))
    for start in range(0, seeds, block_cats):
        block = random_cat_coeffs(d, range(start, min(start + block_cats, seeds)))
        cats = len(block)
        # The first block also carries the first cat with a global phase, last.
        stack = np.concatenate([block, block[:1] * np.exp(0.73j)]) if start == 0 else block
        # At each position the first d**k rows can occur, each with probability 1/d**k.
        branched = _pair_branches(stack, plan.lives)
        folded, leaked, fidelities = _fold_corrections(stack, branched, plan.fold)
        probabilities = branched[1][..., plan.fold.pairs]
        if start == 0:
            twisted = (np.abs(a[:, -1:] - a[:, :1]) for a in (probabilities, fidelities))
            phase_err = max(phase_err, *map(worst, twisted))
        # Row order, as a running sum over the outcome records adds them.
        for position, (live, _, columns) in zip(branched[1], plan.positions):
            chunk = max(1, (CHECK_BLOCK_ENTRIES >> 4) // live)
            for live_pairs in columns:
                for first in range(0, cats, chunk):
                    rows = position[first : min(first + chunk, cats), live_pairs]
                    totals = np.cumsum(rows, axis=1, out=rows)[:, -1]
                    sum_err = max(sum_err, float(np.abs(totals - 1.0).max()))
        uniformity_err = max(uniformity_err, worst(np.abs(probabilities[:, :cats] - plan.shares)))
        fidelity_err = max(fidelity_err, worst(np.abs(fidelities[:, :cats] - 1.0)))
        if plan.missing_shifts:  # else every term is 0.0
            norms = (float(np.vdot(coeffs, coeffs).real) for coeffs in block)
            selection_err = max(selection_err, *(plan.missing_shifts * norm / d for norm in norms))

        # The receiver's reduced state from the d**2 nonzero joint amplitudes
        # alpha_l / sqrt(d) on sender (l..l, i) and receiver (i..i), traced over
        # the sender index (l, i). Off the sector it is exactly zero, as is the
        # expected maximally mixed state I/d there.
        joint = np.zeros((cats, d, d, d), dtype=np.complex128)
        joint[:, receiver, :, receiver] = stack[:cats] * (1.0 / math.sqrt(d))
        traced = joint.reshape(cats, d, d * d)
        rho = traced @ traced.conj().transpose(0, 2, 1)
        signaling_err = max(signaling_err, float(np.abs(rho - np.eye(d) / d).max()))

        shared = (branched[0][plan.collective, :cats], branched[1][plan.collective, :cats])
        many = (folded[plan.collective, :cats], leaked[plan.collective, :cats])
        prob_deltas, state_deltas = _equivalence_deltas(stack[:cats], shared, plan, *many)
        equivalence_err = max(equivalence_err, float(np.maximum(prob_deltas, state_deltas).max()))
        # Free the block's branches and fold, with the equivalence's views of
        # them, before the next block builds its own.
        del branched, folded, shared, many

    return [
        _result("basis_orthonormality", basis_err, 1e-12),
        _result("correction_unitarity", plan.unitarity_err, 1e-12),
        _result("probability_completeness", sum_err, 1e-10),
        _result("perfect_teleportation", fidelity_err, 1e-10),
        _result("selection_rule", selection_err, 1e-12),
        _result("outcome_uniformity", uniformity_err, 1e-10),
        _result("no_signaling", signaling_err, 1e-12),
        _result("barred_equivalence", equivalence_err, 1e-10),
        _result("global_phase_invariance", phase_err, 1e-12),
    ]
