"""Invariant suites behind the ``verify`` subcommand.

Each suite reports the worst error it saw across every protocol kind valid
at the requested (d, m) and a batch of seeded random cat states. Suites
report rather than raise, so one broken invariant never hides another.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import bases
from .bases import BasisFamily
from .core import (
    DEFAULT_MAX_DIM,
    CatState,
    RegisterShape,
    cat_sector_indices,
    partial_trace_keep,
    random_cat_state,
)
from .protocols import (
    _pair_correction,
    _row_pairs,
    barred_equivalence_check,
    compose_joint_state,
    enumerate_outcomes,
    ladder_k,
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


@lru_cache(maxsize=128)
def _basis_error(d: int, m: int) -> float:
    """Worst Gram or completeness error of the dense families at (d, m). They
    depend on nothing else, so a process certifies each (d, m) once."""
    basis_err = 0.0
    families = [(BasisFamily.BELL, None), (BasisFamily.PI, None), (BasisFamily.GHZ, None),
                (BasisFamily.BELL_PROTOCOL_JOINT, m), (BasisFamily.BARRED, m)]
    if m >= 2:
        families.append((BasisFamily.GHZ_PROTOCOL_JOINT, m))
    for family, fam_m in families:
        report = bases.verify_orthonormal_complete(bases.build_basis(family, d, fam_m))
        basis_err = max(basis_err, report.max_gram_error, report.max_completeness_error)
    return basis_err


def run_all_checks(
    d: int, m: int, seeds: int, *, max_dim: int = DEFAULT_MAX_DIM
) -> list[CheckResult]:
    specs = protocol_specs(d, m)
    # The cap enumerate_outcomes applies, before any dense family or matrix is built.
    RegisterShape(d, 2 * m + 1, max_dim=max_dim)
    cats = [random_cat_state(d, m, seed) for seed in range(seeds)]
    basis_err = _basis_error(d, m)

    unitarity_err = 0.0
    sum_err = 0.0
    fidelity_err = 0.0
    selection_err = 0.0
    uniformity_err = 0.0
    phase_err = 0.0

    # Outcomes with the same (shift, phase) share one operator: check each once.
    pairs = set().union(*(_row_pairs(spec)[0].tolist() for spec in specs))
    eye = np.eye(d ** m)
    for correction in (_pair_correction(specs[0], pair) for pair in sorted(pairs)):
        if not (correction.adjoint() @ correction).is_identity():
            unitarity_err = max(unitarity_err, 1.0)
        mat = correction.matrix()
        unitarity_err = max(
            unitarity_err, float(np.abs(mat.conj().T @ mat - eye).max())
        )

    twisted = CatState(d, m, cats[0].coeffs * np.exp(0.73j))
    for spec in specs:
        # The first d**k rows can occur, each with probability 1/d**k.
        live = d ** ladder_k(spec)
        expected_p = 1.0 / live
        base_records = None
        for cat in cats:
            records = enumerate_outcomes(cat, spec, max_dim=max_dim)
            if cat is cats[0]:
                base_records = records
            sum_err = max(
                sum_err, abs(sum(r.probability for r in records) - 1.0)
            )
            for row, record in enumerate(records):
                if row >= live:
                    selection_err = max(selection_err, record.probability)
                else:
                    uniformity_err = max(
                        uniformity_err, abs(record.probability - expected_p)
                    )
                    fidelity_err = max(fidelity_err, abs(record.fidelity - 1.0))

        twisted_records = enumerate_outcomes(twisted, spec, max_dim=max_dim)
        for row, (before, after) in enumerate(zip(base_records, twisted_records)):
            phase_err = max(phase_err, abs(before.probability - after.probability))
            if row < live:
                phase_err = max(phase_err, abs(before.fidelity - after.fidelity))

    signaling_err = 0.0
    receiver = list(range(m + 2, 2 * m + 2))
    sector = cat_sector_indices(d, m)
    expected_rho = np.zeros((d ** m, d ** m), dtype=np.complex128)
    expected_rho[sector, sector] = 1.0 / d
    plain_spec = specs[0]
    for cat in cats:
        joint = compose_joint_state(cat, plain_spec, max_dim=max_dim)
        rho = partial_trace_keep(joint, receiver)
        signaling_err = max(signaling_err, float(np.abs(rho.entries - expected_rho).max()))

    equivalence_err = 0.0
    for cat in cats:
        report = barred_equivalence_check(cat, d, m, max_dim=max_dim)
        equivalence_err = max(
            equivalence_err, report.max_prob_delta, report.max_state_delta
        )

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
