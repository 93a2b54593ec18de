"""The invariant suites behind ``qt verify``: each must fail when the code it
certifies is broken, and each must agree with the dense suites it replaced,
which stay here as the reference."""

import time
import tracemalloc

import numpy as np
import pytest
from test_sector_oracle import ORACLE_GRID

from catport import bases, checks, protocols
from catport.bases import BasisFamily, BellLabel, build_basis, verify_orthonormal_complete
from catport.checks import run_all_checks
from catport.core import (
    CatState,
    PureState,
    SizeCapError,
    cat_sector_indices,
    partial_trace_keep,
    random_cat_state,
)
from catport.protocols import (
    MonomialOperator,
    ProtocolKind,
    ProtocolSpec,
    _pair_correction,
    _row_pairs,
    compose_joint_state,
    enumerate_outcomes,
    ladder_k,
    protocol_specs,
)

CHECK_NAMES = [
    "basis_orthonormality", "correction_unitarity", "probability_completeness",
    "perfect_teleportation", "selection_rule", "outcome_uniformity", "no_signaling",
    "barred_equivalence", "global_phase_invariance",
]


def failures(d, m, seeds):
    results = run_all_checks(d, m, seeds)
    assert [r.name for r in results] == CHECK_NAMES
    return {r.name for r in results if not r.passed}


@pytest.fixture()
def fresh_corrections():
    """Drop the stored corrections before and after, so a patched constructor
    reaches the checks and leaves nothing behind for other tests."""
    protocols._register_corrections.cache_clear()
    yield
    protocols._register_corrections.cache_clear()


@pytest.fixture()
def fresh_basis_certificate():
    checks._basis_error.cache_clear()
    yield
    checks._basis_error.cache_clear()


class TestMutations:
    def test_unbroken_code_passes(self):
        assert failures(3, 2, 3) == set()

    def test_correction_phase_off_by_one(self, monkeypatch, fresh_corrections):
        build = protocols.cat_sector_correction
        monkeypatch.setattr(
            protocols, "cat_sector_correction",
            lambda d, n, phase_power, shift: build(d, n, phase_power + 1, shift),
        )
        assert "perfect_teleportation" in failures(3, 2, 3)

    def test_correction_swaps_image_of_ket_0_and_ket_1(self, monkeypatch, fresh_corrections):
        build = protocols.cat_sector_correction

        def swapped(d, n, phase_power, shift):
            good = build(d, n, phase_power, shift)
            perm, phases = good.perm.copy(), good.phase_exp.copy()
            perm[[0, 1]] = perm[[1, 0]]
            phases[[0, 1]] = phases[[1, 0]]
            return MonomialOperator(d, n, perm, phases)

        monkeypatch.setattr(protocols, "cat_sector_correction", swapped)
        assert failures(3, 2, 3) & {"perfect_teleportation", "barred_equivalence"}

    def test_corrupted_barred_bell_amplitude(self, monkeypatch, fresh_basis_certificate):
        build = bases.barred_bell_basis_state

        def corrupted(d, m, label):
            state = build(d, m, label)
            if label != BellLabel(0, 0):
                return state
            amps = state.amps.copy()
            amps[np.flatnonzero(amps)[0]] *= -1
            return PureState(state.shape, amps)

        monkeypatch.setattr(bases, "barred_bell_basis_state", corrupted)
        assert "basis_orthonormality" in failures(3, 2, 3)

    @pytest.mark.parametrize("broken", ["drops_last_ket", "repeats_first_ket"])
    def test_complement_labels_miss_the_off_support_kets(
        self, monkeypatch, fresh_basis_certificate, broken
    ):
        build = bases.complement_labels

        def miscounted(d, num_qudits, block):
            labels = build(d, num_qudits, block)
            return labels[:-1] if broken == "drops_last_ket" else labels + labels[:1]

        monkeypatch.setattr(bases, "complement_labels", miscounted)
        assert "basis_orthonormality" in failures(3, 2, 3)


def dense_basis_error(d, m):
    """The dense certificate: every family's full Gram and completeness."""
    families = [(BasisFamily.BELL, None), (BasisFamily.PI, None), (BasisFamily.GHZ, None),
                (BasisFamily.BELL_PROTOCOL_JOINT, m), (BasisFamily.BARRED, m)]
    if m >= 2:
        families.append((BasisFamily.GHZ_PROTOCOL_JOINT, m))
    error = 0.0
    for family, fam_m in families:
        report = verify_orthonormal_complete(build_basis(family, d, fam_m))
        error = max(error, report.max_gram_error, report.max_completeness_error)
    return error


def dense_equivalence(cat, d, m):
    """Collective against single-particle protocol from the outcome records."""
    many_spec = ProtocolSpec(ProtocolKind.GHZ if m >= 2 else ProtocolKind.BARRED, d, m)
    single_spec = ProtocolSpec(ProtocolKind.BELL, d, 1)
    many_pairs = _row_pairs(many_spec)
    many = dict(zip(many_pairs[: d ** ladder_k(many_spec)].tolist(), enumerate_outcomes(cat, many_spec)))
    singles = enumerate_outcomes(CatState(d, 1, cat.coeffs), single_spec)
    error = 0.0
    for pair, record in zip(_row_pairs(single_spec).tolist(), singles):
        partner = many.pop(pair, None)
        if partner is None:
            return 1.0
        sector = cat_sector_indices(d, m)
        off = np.delete(partner.bob_post_correction.amps, sector)
        folded = partner.bob_post_correction.amps[sector]
        error = max(error, abs(record.probability - partner.probability),
                    float(np.abs(folded - record.bob_post_correction.amps).max()),
                    float(np.linalg.norm(off)))
    return 1.0 if many else error


def dense_checks(d, m, seeds):
    """The dense suites: (name, max_error, threshold) per check, from every
    outcome record, correction matrices, the joint register's partial trace
    and the dense family certificate."""
    specs = protocol_specs(d, m)
    cats = [random_cat_state(d, m, seed) for seed in range(seeds)]
    unitarity = fidelity = selection = uniformity = phase = completeness = 0.0
    pairs = set().union(*(_row_pairs(spec).tolist() for spec in specs))
    eye = np.eye(d ** m)
    for pair in sorted(pairs):
        correction = _pair_correction(specs[0], pair)
        if not (correction.adjoint() @ correction).is_identity():
            unitarity = 1.0
        mat = correction.matrix()
        unitarity = max(unitarity, float(np.abs(mat.conj().T @ mat - eye).max()))
    twisted = CatState(d, m, cats[0].coeffs * np.exp(0.73j))
    for spec in specs:
        live = d ** ladder_k(spec)
        base = None
        for cat in cats:
            records = enumerate_outcomes(cat, spec)
            base = base or records
            completeness = max(completeness, abs(sum(r.probability for r in records) - 1.0))
            for row, record in enumerate(records):
                if row >= live:
                    selection = max(selection, record.probability)
                else:
                    uniformity = max(uniformity, abs(record.probability - 1.0 / live))
                    fidelity = max(fidelity, abs(record.fidelity - 1.0))
        for row, (before, after) in enumerate(zip(base, enumerate_outcomes(twisted, spec))):
            phase = max(phase, abs(before.probability - after.probability))
            if row < live:
                phase = max(phase, abs(before.fidelity - after.fidelity))
    signaling = 0.0
    expected = np.zeros((d ** m, d ** m))
    sector = cat_sector_indices(d, m)
    expected[sector, sector] = 1.0 / d
    for cat in cats:
        rho = partial_trace_keep(compose_joint_state(cat, specs[0]), range(m + 2, 2 * m + 2))
        signaling = max(signaling, float(np.abs(rho.entries - expected).max()))
    equivalence = max(dense_equivalence(cat, d, m) for cat in cats)
    errors = [dense_basis_error(d, m), unitarity, completeness, fidelity, selection,
              uniformity, signaling, equivalence, phase]
    thresholds = [1e-12, 1e-12, 1e-10, 1e-10, 1e-12, 1e-10, 1e-12, 1e-10, 1e-12]
    return list(zip(CHECK_NAMES, errors, thresholds))


@pytest.mark.parametrize("seeds", [1, 2, 3])
@pytest.mark.parametrize("d, m", ORACLE_GRID)
def test_matches_dense_checks(d, m, seeds):
    results = run_all_checks(d, m, seeds)
    reference = dense_checks(d, m, seeds)
    assert [r.name for r in results] == CHECK_NAMES
    for result, (name, error, threshold) in zip(results, reference):
        assert result.threshold == threshold
        assert result.passed == (error < threshold), name
    # The structural certificate bounds the rounding of the dense family's
    # product states, so it may read higher, but never lower.
    basis, (_, dense_basis, _) = results[0], reference[0]
    assert basis.max_error >= dense_basis - 1e-15, (basis.max_error, dense_basis)
    for result, (name, error, _) in zip(results[1:], reference[1:]):
        assert abs(result.max_error - error) <= 1e-15, (name, result.max_error, error)


def test_memory_at_d2_m10():
    checks._basis_error.cache_clear()
    protocols._register_corrections.cache_clear()
    tracemalloc.start()
    try:
        results = run_all_checks(2, 10, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in results)
    assert peak < 32 * 2**20, peak


def test_cap_is_checked_before_the_specs_are_listed():
    # A million particles: listing the m + 4 specs alone took seconds.
    start = time.perf_counter()
    with pytest.raises(SizeCapError):
        run_all_checks(10**9, 10**6, 1)
    assert time.perf_counter() - start < 2.0
