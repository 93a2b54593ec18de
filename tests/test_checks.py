"""The invariant suites behind ``qt verify``: each must fail when the code it
certifies is broken, and each must agree with the dense suites it replaced,
which stay here as the reference."""

import math
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
    """Drop the stored corrections, the sector images and the check plans
    that certify them before and after, so a patched constructor reaches the
    checks and leaves nothing behind for other tests."""
    protocols._register_corrections.cache_clear()
    protocols._register_images.cache_clear()
    checks._check_plan.cache_clear()
    yield
    protocols._register_corrections.cache_clear()
    protocols._register_images.cache_clear()
    checks._check_plan.cache_clear()


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
        build = bases.sector_terms

        def corrupted(d, block, labels):
            kets, amplitudes = build(d, block, labels)
            if np.shape(labels)[1] == 2:  # barred Bell: flip one sign of bell(0,0)
                amplitudes[(np.asarray(labels) == 0).all(axis=1), 0] *= -1
            return kets, amplitudes

        monkeypatch.setattr(bases, "sector_terms", corrupted)
        assert "basis_orthonormality" in failures(3, 2, 3)

    # bell(0,0)'s term on |0..0> moves onto ket 1, (0..0, 1), on another
    # Bell state's kets, or onto ket 3, at d = 3 the complement ket (0, 1, 0)
    # of the two-digit block. bell(1,0)'s term on |1..1> moves one ket up,
    # and its least ket, by which groups are found, stays.
    @pytest.mark.parametrize(
        "label, term, target", [((0, 0), 0, 1), ((0, 0), 0, 3), ((1, 0), 1, None)]
    )
    def test_barred_bell_term_on_a_wrong_ket(
        self, monkeypatch, fresh_basis_certificate, label, term, target
    ):
        build = bases.sector_terms

        def moved(d, block, labels):
            kets, amplitudes = build(d, block, labels)
            if np.shape(labels)[1] == 2:
                row = (np.asarray(labels) == label).all(axis=1)
                kets[row, term] = kets[row, term] + 1 if target is None else target
            return kets, amplitudes

        monkeypatch.setattr(bases, "sector_terms", moved)
        assert "basis_orthonormality" in failures(3, 2, 3)

    def test_single_particle_correction_phase_off_by_one(self, monkeypatch, fresh_corrections):
        # Only the one-qudit register's corrections are wrong, and only the
        # single-particle side of the equivalence applies them: its images
        # must come from that register, not from the m-qudit one.
        build = protocols.cat_sector_correction
        monkeypatch.setattr(
            protocols, "cat_sector_correction",
            lambda d, n, phase_power, shift: build(d, n, phase_power + (n == 1), shift),
        )
        assert failures(3, 2, 3) == {"barred_equivalence"}

    @pytest.mark.parametrize("broken", ["repeated_target", "factor_off_the_circle"])
    def test_corrupted_correction_fails_unitarity(self, monkeypatch, fresh_corrections, broken):
        # Built past the constructor's validation, and on ket |0..01> of the
        # m-qudit register, which is off the sector, so no branch sees it:
        # only the certificate can.
        build = protocols.cat_sector_correction

        def corrupted(d, n, phase_power, shift):
            good = build(d, n, phase_power, shift)
            if n == 1:
                return good
            bad = object.__new__(MonomialOperator)
            bad.d, bad.num_qudits, bad.phase_exp = d, n, good.phase_exp
            bad.perm, bad.factors = good.perm.copy(), good.factors.copy()
            if broken == "repeated_target":
                bad.perm[1] = bad.perm[0]
            else:
                bad.factors[1] *= 1 + 1e-9
            return bad

        monkeypatch.setattr(protocols, "cat_sector_correction", corrupted)
        assert failures(3, 2, 3) == {"correction_unitarity"}

    @pytest.mark.parametrize("broken", ["drops_last_ket", "repeats_first_ket"])
    def test_complement_indices_miss_the_off_support_kets(
        self, monkeypatch, fresh_basis_certificate, broken
    ):
        build = bases.complement_indices

        def miscounted(d, num_qudits, block):
            kets = build(d, num_qudits, block)
            return kets[:-1] if broken == "drops_last_ket" else np.append(kets, kets[:1])

        monkeypatch.setattr(bases, "complement_indices", miscounted)
        assert "basis_orthonormality" in failures(3, 2, 3)


def phase_off_by_one(build):
    return lambda d, n, phase_power, shift: build(d, n, phase_power + 1, shift)


def repeated_target(build):
    def corrupted(d, n, phase_power, shift):
        good = build(d, n, phase_power, shift)
        bad = object.__new__(MonomialOperator)
        bad.d, bad.num_qudits, bad.phase_exp = d, n, good.phase_exp
        bad.perm, bad.factors = good.perm.copy(), good.factors.copy()
        bad.perm[1] = bad.perm[0]
        return bad

    return corrupted


@pytest.mark.parametrize("broken, failed", [(phase_off_by_one, "perfect_teleportation"),
                                            (repeated_target, "correction_unitarity")])
def test_warm_plan_does_not_hide_a_mutated_constructor(request, monkeypatch, broken, failed):
    assert failures(3, 2, 3) == set()  # the plan at (3, 2) is warm
    request.getfixturevalue("fresh_corrections")
    monkeypatch.setattr(
        protocols, "cat_sector_correction", broken(protocols.cat_sector_correction)
    )
    assert failed in failures(3, 2, 3)


def swapped_shift_and_phase(build):
    return lambda d, n, phase_power, shift: build(d, n, shift, phase_power)


@pytest.mark.parametrize("warm", [False, True])
def test_one_pair_encoding_for_the_engine_and_the_checks(request, monkeypatch, warm):
    # Both the engine's stored corrections and the plan's sector images split
    # a pair into (shift, phase) in one place, so a constructor that takes
    # them the wrong way round fails both.
    if warm:
        assert failures(3, 2, 3) == set()
    request.getfixturevalue("fresh_corrections")
    monkeypatch.setattr(
        protocols, "cat_sector_correction", swapped_shift_and_phase(protocols.cat_sector_correction)
    )
    assert "perfect_teleportation" in failures(3, 2, 3)
    cat, sector = random_cat_state(3, 2, 0), cat_sector_indices(3, 2)
    records = enumerate_outcomes(cat, protocol_specs(3, 2)[0])[:27]  # Bell's live rows
    overlaps = [abs(np.vdot(cat.coeffs, protocols.apply_correction(r).amps[sector])) for r in records]
    assert min(overlaps) < 0.99


@pytest.mark.parametrize("d, m", [(3, 2), (2, 6), (5, 3)])
def test_warm_plan_certifies_no_correction_again(monkeypatch, d, m):
    first = run_all_checks(d, m, 4)
    calls = []

    def counted(module, name):
        call = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: calls.append(name) or call(*args))

    counted(protocols, "_build_correction")
    counted(protocols, "_unitarity_error")
    counted(protocols, "_pair_correction")
    assert run_all_checks(d, m, 4) == first
    assert calls == []


def test_cold_plan_keeps_no_correction():
    # The d**2 = 256 corrections of 4096 entries take 32 MB when stored.
    checks._basis_error(16, 3)
    checks._check_plan.cache_clear()
    protocols._register_images.cache_clear()
    protocols._register_corrections.cache_clear()
    tracemalloc.start()
    try:
        results = run_all_checks(16, 3, 1, max_dim=16**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in results)
    assert protocols._register_corrections(16, 3) == {}
    assert peak < 8 * 2**20, peak


@pytest.mark.parametrize("d, m", [(2, 12), (3, 4)])
def test_cold_basis_certificate_builds_no_label_or_dense_family(
    monkeypatch, fresh_basis_certificate, d, m
):
    def forbidden(*args, **kwargs):
        raise AssertionError("the basis certificate built a label or a dense state")

    for name in ("ComplementLabel", "barred_labels", "ghz_labels", "complement_labels",
                 "build_basis", "verify_orthonormal_complete", "pi_basis_state",
                 "barred_bell_basis_state", "block_ghz_basis_state"):
        monkeypatch.setattr(bases, name, forbidden)
    assert checks._basis_error(d, m) < 1e-12
    assert not {"BasisFamily", "BellLabel", "ComplementLabel"} & set(vars(checks))


def test_family_certificate_memory_at_d40():
    # The 64000 block-GHZ labels at d = 40 are read d**2 at a time.
    tracemalloc.start()
    try:
        error = checks._sector_family_error(40, 2, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert error < 1e-12
    assert peak < 16 * 2**20, peak


def row_pairs(spec):
    """Each outcome row's pair, from the label rule on the family's labels."""
    labels = protocols._family_labels(spec)
    return np.array([protocols._label_pair(spec, label) for label in labels])


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
    many_pairs = row_pairs(many_spec)
    many = dict(zip(many_pairs[: d ** ladder_k(many_spec)].tolist(), enumerate_outcomes(cat, many_spec)))
    singles = enumerate_outcomes(CatState(d, 1, cat.coeffs), single_spec)
    error = 0.0
    for pair, record in zip(row_pairs(single_spec).tolist(), singles):
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
    pairs = set().union(*(row_pairs(spec).tolist() for spec in specs))
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


def one_cat_branches(coeffs, live):
    """``_pair_branches`` for one cat, as written before cats were stacked."""
    source, _, rephase, _ = protocols._pair_tables(coeffs.size)
    branches = coeffs[source] * rephase / math.sqrt(live)
    return branches, np.einsum("ij,ij->i", branches.conj(), branches).real


def one_cat_fidelities(coeffs, pairs, branched, images):
    """``_fold_corrections``' fidelities for one cat, as written before cats
    were stacked."""
    branches, probabilities = branched
    slots, factors = images[0][pairs], images[1][pairs]
    moved = branches[pairs] / np.sqrt(probabilities[pairs])[:, None] * factors
    rows, cols = np.nonzero(slots >= 0)
    folded = np.zeros_like(moved)
    folded[rows, slots[rows, cols]] = moved[rows, cols]
    return np.abs(np.einsum("ij,j->i", folded, coeffs.conj())) ** 2


def per_cat_spec_loop(d, m, seeds):
    """The spec loop of run_all_checks as it was before the cats were
    stacked: the branches, probabilities and corrected fidelities of one cat
    at a time. Returns {check name: max_error} for the five checks it feeds."""
    specs = protocol_specs(d, m)
    cats = [random_cat_state(d, m, seed) for seed in range(seeds)]
    counts = sum(np.bincount(row_pairs(spec), minlength=d * d) for spec in specs)
    assert counts.all()  # every pair is live at some position
    images = protocols._register_images(d, m)[1]
    sum_err = fidelity_err = selection_err = uniformity_err = phase_err = 0.0
    twisted = CatState(d, m, cats[0].coeffs * np.exp(0.73j))
    for spec in specs:
        live = d ** ladder_k(spec)
        live_pairs = row_pairs(spec)[:live]
        used = np.flatnonzero(np.bincount(live_pairs, minlength=d * d))
        missing_shifts = d - np.unique(used // d).size
        base = None
        for cat in cats + [twisted]:
            branched = one_cat_branches(cat.coeffs, live)
            probabilities = branched[1][used]
            fidelities = one_cat_fidelities(cat.coeffs, used, branched, images)
            if cat is twisted:
                phase_err = max(
                    phase_err,
                    float(np.abs(probabilities - base[0]).max()),
                    float(np.abs(fidelities - base[1]).max()),
                )
                continue
            if cat is cats[0]:
                base = (probabilities, fidelities)
            sum_err = max(sum_err, abs(sum(branched[1][live_pairs].tolist()) - 1.0))
            uniformity_err = max(uniformity_err, float(np.abs(probabilities - 1.0 / live).max()))
            fidelity_err = max(fidelity_err, float(np.abs(fidelities - 1.0).max()))
            norm = float(np.vdot(cat.coeffs, cat.coeffs).real)
            selection_err = max(selection_err, missing_shifts * norm / d)
    return {
        "probability_completeness": sum_err,
        "perfect_teleportation": fidelity_err,
        "selection_rule": selection_err,
        "outcome_uniformity": uniformity_err,
        "global_phase_invariance": phase_err,
    }


@pytest.mark.parametrize("seeds", [1, 2, 3])
@pytest.mark.parametrize("d, m", ORACLE_GRID)
def test_stacked_cats_match_the_per_cat_loop(d, m, seeds):
    results = {r.name: r.max_error for r in run_all_checks(d, m, seeds)}
    for name, error in per_cat_spec_loop(d, m, seeds).items():
        assert results[name] == error, (name, results[name], error)


@pytest.mark.parametrize("seeds", [0, -1])
def test_no_seeds_rejected_before_anything_is_built(seeds):
    with pytest.raises(ValueError, match="seeds"):
        run_all_checks(3, 2, seeds)
    # Neither the size cap nor the specs are reached.
    start = time.perf_counter()
    with pytest.raises(ValueError, match="seeds"):
        run_all_checks(10**9, 10**6, seeds)
    assert time.perf_counter() - start < 2.0


def test_memory_at_d2_m10():
    checks._basis_error.cache_clear()
    checks._check_plan.cache_clear()
    protocols._register_images.cache_clear()
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


def per_operator_unitarity_error(correction):
    """``protocols._unitarity_error``, with an exact ``U^dagger U`` check
    as well."""
    perm = correction.perm
    if not np.array_equal(np.sort(perm), np.arange(perm.size)):
        return 1.0
    if not (correction.adjoint() @ correction).is_identity():
        return 1.0
    factors = correction.factors
    return float(np.abs(factors.real ** 2 + factors.imag ** 2 - 1.0).max())


def per_pair_sector_images(spec, pairs):
    """The sector images of ``protocols._register_images``, read one pair at
    a time off the engine's stored corrections."""
    d, sector = spec.d, cat_sector_indices(spec.d, spec.m)
    slots = np.zeros((d * d, d), dtype=np.int64)
    factors = np.zeros((d * d, d), dtype=np.complex128)
    for pair in pairs:
        correction = _pair_correction(spec, int(pair))
        targets = correction.perm[sector]
        slots[pair] = np.where(targets % sector[1] == 0, targets // sector[1], -1)
        factors[pair] = correction.factors[sector]
    return slots, factors


def per_cat_equivalence(cat, d, m):
    """``barred_equivalence_check`` as written before the cats were stacked:
    (max_prob_delta, max_state_delta) of one cat."""
    many_spec = ProtocolSpec(ProtocolKind.GHZ if m >= 2 else ProtocolKind.BARRED, d, m)
    single = (CatState(d, 1, cat.coeffs), ProtocolSpec(ProtocolKind.BELL, d, 1))
    sides = []
    for side, spec in ((cat, many_spec), single):
        live = d ** ladder_k(spec)
        used = np.bincount(row_pairs(spec)[:live], minlength=d * d) > 0
        pairs = np.flatnonzero(used)
        branched = protocols._pair_branches(side.coeffs, live)
        folded, leaked, _ = protocols._fold_corrections(
            side.coeffs, pairs, branched, per_pair_sector_images(spec, pairs)
        )
        sides.append((used, np.where(used, branched[1], 0.0), folded, leaked))
    (many_used, many_p, many_post, leaked), (single_used, single_p, single_post, _) = sides
    max_prob_delta = float(np.abs(many_p - single_p).max())
    if not np.array_equal(many_used, single_used):
        return max_prob_delta, 1.0
    deltas = np.abs(many_post - single_post).max(axis=1)
    return max_prob_delta, float(max(deltas.max(), leaked.max()))


@pytest.mark.parametrize("seeds", [1, 2, 3])
@pytest.mark.parametrize("d, m", ORACLE_GRID)
def test_stacked_certificates_match_the_per_cat_and_per_operator_ones(d, m, seeds):
    results = {r.name: r.max_error for r in run_all_checks(d, m, seeds)}
    specs = protocol_specs(d, m)
    pairs = np.flatnonzero(sum(np.bincount(row_pairs(spec), minlength=d * d) for spec in specs))
    unitarity = max(per_operator_unitarity_error(_pair_correction(specs[0], p)) for p in pairs)
    assert results["correction_unitarity"] == unitarity
    for new, old in zip(protocols._register_images(d, m)[1], per_pair_sector_images(specs[0], pairs)):
        assert np.array_equal(new, old)
    equivalence = 0.0
    for seed in range(seeds):
        cat = random_cat_state(d, m, seed)
        report = protocols.barred_equivalence_check(cat, d, m)
        reference = per_cat_equivalence(cat, d, m)
        assert (report.max_prob_delta, report.max_state_delta) == reference, seed
        equivalence = max(equivalence, *reference)
    assert results["barred_equivalence"] == equivalence


def test_memory_is_flat_in_seeds():
    run_all_checks(20, 2, 1)  # the basis certificate and corrections, once per process
    peaks = []
    for seeds in (checks.CHECK_BLOCK_ENTRIES // 20**3, 2000):
        tracemalloc.start()
        try:
            results = run_all_checks(20, 2, seeds)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert all(r.passed for r in results)
    assert peaks[1] <= 1.25 * peaks[0], peaks


@pytest.mark.parametrize("d, m", [(3, 2), (2, 3), (5, 2)])
@pytest.mark.parametrize("block_cats", [1, 2, 3])
def test_blocks_change_nothing(monkeypatch, d, m, block_cats):
    expected = run_all_checks(d, m, 7)
    drawn = []

    def recorded(d, m, seed):
        drawn.append(seed)
        return random_cat_state(d, m, seed)

    monkeypatch.setattr(checks, "CHECK_BLOCK_ENTRIES", block_cats * d**3)
    monkeypatch.setattr(checks, "random_cat_state", recorded)
    assert run_all_checks(d, m, 7) == expected
    assert drawn == list(range(7))


@pytest.mark.parametrize("m", [1, 2, 3, 5])
@pytest.mark.parametrize("d", range(2, 12))
def test_stacked_ladder_branches_match_the_per_count_calls(d, m):
    stack = np.array([random_cat_state(d, m, seed).coeffs for seed in range(4)])
    lives = [d**k for k in range(2, m + 2)]
    branches, probabilities = protocols._pair_branches(stack, lives)
    assert branches.shape == (len(lives), 4, d * d, d)
    for position, live in enumerate(lives):
        alone = protocols._pair_branches(stack, live)
        assert np.array_equal(branches[position], alone[0]), live
        assert np.array_equal(probabilities[position], alone[1]), live
        for cat, coeffs in enumerate(stack):
            one = protocols._pair_branches(coeffs, live)
            assert np.array_equal(branches[position, cat], one[0]), (live, cat)
            assert np.array_equal(probabilities[position, cat], one[1]), (live, cat)


def per_cat_signaling_error(d, m, seeds):
    """The no-signalling check as written before the cats were stacked: one
    joint array and one matmul per cat."""
    error = 0.0
    receiver = np.arange(d)
    for seed in range(seeds):
        joint = np.zeros((d, d, d), dtype=np.complex128)
        joint[receiver, :, receiver] = random_cat_state(d, m, seed).coeffs * (1.0 / math.sqrt(d))
        traced = joint.reshape(d, d * d)
        rho = traced @ traced.conj().T
        error = max(error, float(np.abs(rho - np.eye(d) / d).max()))
    return error


@pytest.mark.parametrize("d, m, seeds", [(2, 1, 5), (3, 2, 7), (5, 3, 5), (7, 2, 40),
                                         (11, 2, 3), (20, 2, 70)])
def test_stacked_no_signaling_matches_the_per_cat_matmul(d, m, seeds):
    results = {r.name: r.max_error for r in run_all_checks(d, m, seeds)}
    assert results["no_signaling"] == per_cat_signaling_error(d, m, seeds)
