"""The invariant suites behind ``qt verify``: each must fail when the code it
certifies is broken, and each must agree with the dense suites it replaced,
which stay here as the reference."""

import math
import time
import tracemalloc
from typing import Callable, NamedTuple, Optional

import numpy as np
import pytest
from test_sector_oracle import ORACLE_GRID

from catport import bases, checks, core, dense, protocols
from catport.bases import BasisFamily, BellLabel, build_basis, verify_orthonormal_complete
from catport.checks import run_all_checks
from catport.core import (
    CatState,
    PureState,
    ShapeMismatchError,
    SizeCapError,
    cat_sector_indices,
    partial_trace_keep,
    random_cat_coeffs,
    random_cat_state,
)
from catport.protocols import (
    MonomialOperator,
    ProtocolKind,
    ProtocolSpec,
    Register,
    compose_joint_state,
    enumerate_outcomes,
    ladder_k,
    protocol_specs,
    run_protocol,
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


# The register entries each owner feeds: a warm mutant run drops these, and
# only these, so an entry kept anywhere else would hide the mutant.
CORRECTIONS = ("correction", "plan")
BASIS = ("certificate",)
LADDER = ("column", "positions", "plan")
PAIR_TABLES = ("pair_tables",)


def clear_everything():
    for module in (core, bases, protocols, checks):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def drop(names):
    """Drop the entries ``names`` from every kept register: ``"plan"``, or
    ``"correction"`` for the entries keyed ``("correction", pair)``."""
    for register in list(Register._kept.values()):
        for key in list(register.entries):
            if (key[0] if isinstance(key, tuple) else key) in names:
                del register.entries[key]


def pair_correction(spec, pair):
    return Register.of(spec.d, spec.m).correction(pair)


@pytest.fixture()
def fresh_basis_certificate():
    drop(BASIS)
    yield
    drop(BASIS)


@pytest.fixture()
def fresh_ladder():
    """Drop the live-pair columns, the ladder positions and the check plans
    built from them before and after, so a patched column reaches both
    equivalence sides and leaves nothing behind for other tests."""
    drop(LADDER)
    yield
    drop(LADDER)


class Mutant(NamedTuple):
    """``owner.attribute`` broken by ``mutate``, which takes the unbroken
    value, and the exact set of suites it fails at ``point = (d, m, seeds)``.
    ``caches`` name the register entries built from the owner, and ``also``,
    if given, makes more assertions under the mutant."""

    owner: object
    attribute: str
    mutate: Callable
    fails: frozenset
    caches: tuple = ()
    point: tuple = (3, 2, 3)
    also: Optional[Callable] = None


def check_mutant(monkeypatch, mutant, modes=(False, True)):
    """Apply ``mutant`` to a process with no table built, then to one whose
    registers were built unbroken and only the mutant's ``caches`` dropped:
    it must fail exactly its suites both times, or in each warm value of
    ``modes``. Nothing built under it is kept."""
    try:
        for warm in modes:
            clear_everything()
            if warm:
                assert failures(*mutant.point) == set()
                drop(mutant.caches)
            unbroken = getattr(mutant.owner, mutant.attribute)
            monkeypatch.setattr(mutant.owner, mutant.attribute, mutant.mutate(unbroken))
            if mutant.also is not None:
                mutant.also()
            assert failures(*mutant.point) == mutant.fails, "warm" if warm else "cold"
            monkeypatch.undo()
    finally:
        monkeypatch.undo()
        clear_everything()


def phase_off_by_one(build):
    return lambda d, n, phase_power, shift: build(d, n, phase_power + 1, shift)


def single_particle_phase_off_by_one(build):
    # Only the one-qudit register's corrections are wrong, and only the
    # single-particle side of the equivalence applies them: its images
    # must come from that register, not from the m-qudit one.
    return lambda d, n, phase_power, shift: build(d, n, phase_power + (n == 1), shift)


def swapped_shift_and_phase(build):
    return lambda d, n, phase_power, shift: build(d, n, shift, phase_power)


def swaps_image_of_ket_0_and_ket_1(build):
    def swapped(d, n, phase_power, shift):
        good = build(d, n, phase_power, shift)
        perm, phases = good.perm.copy(), good.phase_exp.copy()
        perm[[0, 1]] = perm[[1, 0]]
        phases[[0, 1]] = phases[[1, 0]]
        return MonomialOperator(d, n, perm, phases)

    return swapped


def corrupted_correction(broken, registers):
    """Built past the constructor's validation, on ket |0..01> of each
    register ``n`` with ``registers(n)``. Off the one-qudit register that ket
    is off the sector, so no branch sees it: only the certificate can."""
    def mutate(build):
        def corrupted(d, n, phase_power, shift):
            good = build(d, n, phase_power, shift)
            if not registers(n):
                return good
            bad = object.__new__(MonomialOperator)
            bad.d, bad.num_qudits, bad.phase_exp = d, n, good.phase_exp
            bad.perm, bad.factors = good.perm.copy(), good.factors.copy()
            if broken == "repeated_target":
                bad.perm[1] = bad.perm[0]
            else:
                bad.factors[1] *= 1 + 1e-9
            return bad

        return corrupted

    return mutate


def corrupted_barred_bell_amplitude(build):
    def corrupted(d, block, labels):
        kets, amplitudes = build(d, block, labels)
        if np.shape(labels)[1] == 2:  # barred Bell: flip one sign of bell(0,0)
            amplitudes[(np.asarray(labels) == 0).all(axis=1), 0] *= -1
        return kets, amplitudes

    return corrupted


def barred_bell_term_on_a_wrong_ket(label, term, target):
    def mutate(build):
        def moved(d, block, labels):
            kets, amplitudes = build(d, block, labels)
            if np.shape(labels)[1] == 2:
                row = (np.asarray(labels) == label).all(axis=1)
                kets[row, term] = kets[row, term] + 1 if target is None else target
            return kets, amplitudes

        return moved

    return mutate


def row_out_of_ket_order(family):
    """Row 0's first two terms trade places, kets and amplitudes together, in
    the family ``family = (d, block, width)`` alone: the same state, listed
    out of ket order. The certificate reads each row in ket order, as the
    dense vector lists it, and must not re-sort it."""
    def mutate(build):
        def swapped(d, block, labels):
            kets, amplitudes = build(d, block, labels)
            if (d, block, np.shape(labels)[1]) == family:
                kets[0, :2], amplitudes[0, :2] = kets[0, 1::-1].copy(), amplitudes[0, 1::-1].copy()
            return kets, amplitudes

        return swapped

    return mutate


def family_is_not_certified(family):
    def check():
        assert checks._sector_family_error(*family) == 1.0

    return check


def complement_indices_miss_the_off_support_kets(broken):
    def mutate(build):
        def miscounted(d, num_qudits, block):
            kets = build(d, num_qudits, block)
            return kets[:-1] if broken == "drops_last_ket" else np.append(kets, kets[:1])

        return miscounted

    return mutate


def branch_probabilities_that_follow_arg_alpha_0(branches):
    # Every branch of a cat scaled by 1 + 1e-11 * arg(alpha_0): each
    # probability moves by at most 2e-11 * pi / d**k and each total by at
    # most 6.3e-11, inside the 1e-10 tolerances, and the fold divides the
    # scale out again. The cat with a global phase has its arg(alpha_0)
    # moved by 0.73, so at d**k = 9 its probabilities move by 1.6e-12.
    def phased(register, coeffs, live):
        b, probabilities = branches(register, coeffs, live)
        scale = 1 + 1e-11 * np.angle(coeffs[..., 0])
        return b * scale[..., None, None], probabilities * scale[..., None] ** 2

    return phased


def branches_scaled_by_1_plus_1e_9(branches):
    # The fold divides the scale out again, so only the probabilities show it.
    def scaled(register, coeffs, live):
        b, probabilities = branches(register, coeffs, live)
        return b * (1 + 1e-9), probabilities * (1 + 1e-9) ** 2

    return scaled


def unconjugated_rephase(tables):
    def rephased(d):
        source, rephase = tables(d)
        return source, rephase.conj()

    return rephased


def hybrid_columns_lose_their_shift(rung_pairs):
    # The hybrids k = 3..m; k = m + 1 is Bell's rung, and k = 2 shares the
    # barred column, which the barred spec builds first.
    def lost(rung, start, stop):
        pairs = rung_pairs(rung, start, stop)
        return pairs % rung.d if rung.joint and rung.k <= rung.m else pairs

    return lost


def ghz_column_repeats_pair_0(rung_pairs):
    # A GHZ column that repeats pair 0 where pair 1 was leaves pair 1 live on
    # the single-particle side only. Both the one-cat check and the stacked
    # suite read that mask from the ladder positions, and nothing else fails.
    def repeated(rung, start, stop):
        pairs = rung_pairs(rung, start, stop)
        if rung.ghz and start == 0 and stop > 1:
            pairs[1] = pairs[0]
        return pairs

    return repeated


def registers_keyed_by_d_alone(of):
    # A store that finds a register by d alone, here one built at m = 1.
    return lambda d, m: of(d, 1)


def records_at_another_m_misfit():
    # The suites read every table of (d, m) off one register, so they agree
    # with themselves at any m. The engine's records apply the register's
    # corrections to the receiver's m qudits, and those misfit.
    assert [spec.m for spec in protocol_specs(3, 2)] == [1, 1, 1]
    with pytest.raises(ShapeMismatchError):
        enumerate_outcomes(random_cat_state(3, 2, 0), ProtocolSpec(ProtocolKind.BELL, 3, 2))


def one_cat_check_sees_the_repeated_pair():
    report = protocols.barred_equivalence_check(random_cat_state(3, 2, 0), 3, 2)
    assert report.max_state_delta == 1.0


def engine_records_apply_their_own_correction():
    # Both the engine's stored corrections and the plan's sector images split
    # a pair into (shift, phase) in one place, so a constructor that takes
    # them the wrong way round fails both. The engine's records apply the
    # correction they carry, so their fidelities show it too.
    cat, spec = random_cat_state(3, 2, 0), protocol_specs(3, 2)[0]
    records = enumerate_outcomes(cat, spec)[:27]  # Bell's live rows
    sampled = [run_protocol(cat, spec, seed) for seed in range(10)]
    for record in records + sampled:
        applied = protocols.apply_correction(record).amps
        assert np.array_equal(record.bob_post_correction.amps, applied)
    sector = cat_sector_indices(3, 2)
    for group in (records, sampled):
        overlaps = [abs(np.vdot(cat.coeffs, protocols.apply_correction(r).amps[sector])) for r in group]
        assert min(overlaps) < 0.99
        assert min(record.fidelity for record in group) < 0.99


CONSTRUCTOR = (protocols, "cat_sector_correction")
TERMS = (bases, "sector_terms")
RUNG_PAIRS = (bases.Rung, "pairs")
BASIS_FAILS = frozenset({"basis_orthonormality"})

# Every mutant, by the TestMutations test that applies it: ``name`` alone, or
# ``name[id]`` with the test's parameter id.
MUTANTS = {
    "correction_phase_off_by_one": Mutant(
        *CONSTRUCTOR, phase_off_by_one, frozenset({"perfect_teleportation"}), CORRECTIONS),
    "correction_swaps_image_of_ket_0_and_ket_1": Mutant(
        *CONSTRUCTOR, swaps_image_of_ket_0_and_ket_1,
        frozenset({"perfect_teleportation", "barred_equivalence"}), CORRECTIONS),
    "single_particle_correction_phase_off_by_one": Mutant(
        *CONSTRUCTOR, single_particle_phase_off_by_one, frozenset({"barred_equivalence"}),
        CORRECTIONS),
    **{f"corrupted_correction_fails_unitarity[{broken}]": Mutant(
        *CONSTRUCTOR, corrupted_correction(broken, lambda n: n > 1),
        frozenset({"correction_unitarity"}), CORRECTIONS)
       for broken in ("repeated_target", "factor_off_the_circle")},
    "corrupted_correction_fails_unitarity[repeated_target_on_every_register]": Mutant(
        *CONSTRUCTOR, corrupted_correction("repeated_target", lambda n: True),
        frozenset({"correction_unitarity", "barred_equivalence"}), CORRECTIONS),
    "corrupted_barred_bell_amplitude": Mutant(
        *TERMS, corrupted_barred_bell_amplitude, BASIS_FAILS, BASIS),
    # bell(0,0)'s term on |0..0> moves onto ket 1, (0..0, 1), on another
    # Bell state's kets, or onto ket 3, at d = 3 the complement ket (0, 1, 0)
    # of the two-digit block. bell(1,0)'s term on |1..1> moves one ket up,
    # and its least ket, by which groups are found, stays.
    **{f"barred_bell_term_on_a_wrong_ket[label{i}-{term}-{target}]": Mutant(
        *TERMS, barred_bell_term_on_a_wrong_ket(label, term, target), BASIS_FAILS, BASIS)
       for i, (label, term, target) in enumerate([((0, 0), 0, 1), ((0, 0), 0, 3),
                                                  ((1, 0), 1, None)])},
    **{"row_out_of_ket_order_fails_its_family[{}-{}-{}]".format(*family): Mutant(
        *TERMS, row_out_of_ket_order(family), BASIS_FAILS, BASIS, (family[0], 2, 1),
        family_is_not_certified(family))
       for family in [(3, 2, 2), (3, 2, 3), (5, 0, 1)]},
    **{f"complement_indices_miss_the_off_support_kets[{broken}]": Mutant(
        bases, "complement_indices", complement_indices_miss_the_off_support_kets(broken),
        BASIS_FAILS, BASIS)
       for broken in ("drops_last_ket", "repeats_first_ket")},
    "branch_probabilities_that_follow_arg_alpha_0": Mutant(
        checks, "_pair_branches", branch_probabilities_that_follow_arg_alpha_0,
        frozenset({"global_phase_invariance"})),
    "branches_scaled_by_1_plus_1e_9": Mutant(
        checks, "_pair_branches", branches_scaled_by_1_plus_1e_9,
        frozenset({"probability_completeness", "outcome_uniformity"})),
    "unconjugated_branch_rephase": Mutant(
        protocols, "_pair_tables", unconjugated_rephase, frozenset({"perfect_teleportation"}),
        PAIR_TABLES),
    "hybrid_columns_lose_their_shift": Mutant(
        *RUNG_PAIRS, hybrid_columns_lose_their_shift,
        frozenset({"selection_rule"}), LADDER, (3, 3, 3)),
    "equivalence_sides_are_the_ladder_masks": Mutant(
        *RUNG_PAIRS, ghz_column_repeats_pair_0, frozenset({"barred_equivalence"}),
        LADDER, (3, 2, 2), one_cat_check_sees_the_repeated_pair),
    "registers_keyed_by_d_alone": Mutant(
        Register, "of", registers_keyed_by_d_alone, frozenset(), also=records_at_another_m_misfit),
}


def mutant_test(keys):
    """A TestMutations method that checks the mutants of ``keys``, one per
    parameter id when there is more than one."""
    if len(keys) == 1:
        def test(self, monkeypatch):
            check_mutant(monkeypatch, MUTANTS[keys[0]])

        return test

    @pytest.mark.parametrize("key", keys, ids=[key[key.index("[") + 1 : -1] for key in keys])
    def test(self, monkeypatch, key):
        check_mutant(monkeypatch, MUTANTS[key])

    return test


class TestMutations:
    """Each mutant of MUTANTS fails exactly its suites, cold and warm."""

    def test_unbroken_code_passes(self):
        assert failures(3, 2, 3) == set()


for _name in dict.fromkeys(key.partition("[")[0] for key in MUTANTS):
    setattr(TestMutations, f"test_{_name}",
            mutant_test([key for key in MUTANTS if key.partition("[")[0] == _name]))


@pytest.mark.parametrize("warm", [False, True])
def test_one_pair_encoding_for_the_engine_and_the_checks(monkeypatch, warm):
    mutant = Mutant(
        *CONSTRUCTOR, swapped_shift_and_phase, frozenset({"perfect_teleportation"}), CORRECTIONS,
        also=engine_records_apply_their_own_correction)
    check_mutant(monkeypatch, mutant, (warm,))


@pytest.mark.parametrize("key", [
    "correction_phase_off_by_one",
    "corrupted_correction_fails_unitarity[repeated_target_on_every_register]",
], ids=["phase_off_by_one-perfect_teleportation", "repeated_target-correction_unitarity"])
def test_warm_plan_does_not_hide_a_mutated_constructor(monkeypatch, key):
    # The constructor's own tables are dropped and every other one is kept.
    check_mutant(monkeypatch, MUTANTS[key], (True,))


def live_row_signaling(d, m):
    """For each spec at (d, m), the largest entry of |sum b b^H - I/d| over the
    branches b of its live rows, read through ``Register.column``, and seeds 0-4:
    the receiver's state on the sector |i..i> averaged over the outcomes
    that can occur, against the maximally mixed state."""
    errors, register = [], Register.of(d, m)
    for spec in protocol_specs(d, m):
        error = 0.0
        for seed in range(5):
            coeffs = random_cat_state(d, m, seed).coeffs
            rows = protocols._pair_branches(register, coeffs, spec.rung.live)[0][
                register.column(spec.rung)]
            error = max(error, float(np.abs(rows.T @ rows.conj() - np.eye(d) / d).max()))
        errors.append(error)
    return errors


@pytest.mark.parametrize("d, m", ORACLE_GRID)
def test_live_rows_leave_the_receiver_maximally_mixed(d, m):
    # no_signaling reads the cat alone; this is the engine's side of it.
    assert max(live_row_signaling(d, m)) < 1e-12


@pytest.mark.parametrize("d, m", [(3, 2), (2, 4)])
def test_live_rows_that_lose_their_shift_signal(monkeypatch, fresh_ladder, d, m):
    # With every shift 0 the live rows sum to diag(|alpha_i|**2).
    pairs = bases.Rung.pairs
    monkeypatch.setattr(bases.Rung, "pairs", lambda rung, *window: pairs(rung, *window) % rung.d)
    assert min(live_row_signaling(d, m)) > 1e-3


@pytest.mark.parametrize("d, m", [(3, 2), (2, 6), (5, 3)])
def test_warm_plan_certifies_no_correction_again(monkeypatch, d, m):
    first = run_all_checks(d, m, 4)
    calls = []

    def counted(module, name):
        call = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: calls.append(name) or call(*args))

    counted(protocols, "_build_correction")
    counted(protocols, "_unitarity_error")
    counted(Register, "correction")
    assert run_all_checks(d, m, 4) == first
    assert calls == []


def test_cold_plan_keeps_no_correction():
    # The d**2 = 256 corrections of 4096 entries take 32 MB when stored.
    register = Register.of(16, 3)
    register.entry("certificate", checks._basis_error, 16, 3)
    drop(CORRECTIONS)
    tracemalloc.start()
    try:
        results = run_all_checks(16, 3, 1, max_dim=16**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in results)
    assert not [key for key in register.entries if isinstance(key, tuple) and key[0] == "correction"]
    assert peak < 8 * 2**20, peak


@pytest.mark.parametrize("d, m", [(2, 12), (3, 4)])
def test_cold_basis_certificate_builds_no_label_or_dense_family(
    monkeypatch, fresh_basis_certificate, d, m
):
    def forbidden(*args, **kwargs):
        raise AssertionError("the basis certificate built a label or a dense state")

    for name in ("ComplementLabel", "Rung"):
        monkeypatch.setattr(bases, name, forbidden)
    for name in ("label_basis", "build_basis", "verify_orthonormal_complete",
                 "pi_basis_state", "barred_bell_basis_state", "block_ghz_basis_state"):
        monkeypatch.setattr(dense, name, forbidden)
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
    labels = spec.rung.labels(0, spec.rung.rows)
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
        correction = pair_correction(specs[0], pair)
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
    """``_pair_branches`` for one cat, as written before cats were stacked
    and the pair tables were kept in the register."""
    source, rephase = protocols._pair_tables(coeffs.size)
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


@pytest.mark.parametrize("seeds", [0, -1, 2.5, True, np.float64(2), "2"])
def test_no_seeds_rejected_before_anything_is_built(seeds):
    with pytest.raises(ValueError) as error:
        run_all_checks(3, 2, seeds)
    fault = "be at least 1" if type(seeds) is int else "be an integer"
    assert str(error.value) == f"seeds must {fault}, got {seeds!r}"
    # Neither the size cap nor the specs are reached.
    start = time.perf_counter()
    with pytest.raises(ValueError, match="seeds"):
        run_all_checks(10**9, 10**6, seeds)
    assert time.perf_counter() - start < 2.0


def test_memory_at_d2_m10():
    Register.cache_clear()
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
        correction = pair_correction(spec, int(pair))
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
        branched = protocols._pair_branches(Register.of(d, 1), side.coeffs, live)
        folded, leaked, _ = protocols._fold_corrections(
            side.coeffs, branched,
            protocols._fold_tables(pairs, per_pair_sector_images(spec, pairs)),
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
    unitarity = max(per_operator_unitarity_error(pair_correction(specs[0], p)) for p in pairs)
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

    def recorded(d, seeds):
        drawn.append(list(seeds))
        return random_cat_coeffs(d, seeds)

    monkeypatch.setattr(checks, "CHECK_BLOCK_ENTRIES", block_cats * d**3)
    monkeypatch.setattr(checks, "random_cat_coeffs", recorded)
    assert run_all_checks(d, m, 7) == expected
    # Every seed once, in order, with one draw per block.
    per_block = max(1, block_cats // len(Register.of(d, m).plan().lives))
    assert drawn == [list(range(start, min(start + per_block, 7)))
                     for start in range(0, 7, per_block)]


def compensated_sum(values, start=0):
    """The builtin ``sum`` of Python 3.12 and later on floats: a running sum
    with Neumaier's compensation, added in at the end."""
    total, compensation = start, 0.0
    for value in values:
        step = total + value
        if abs(total) >= abs(value):
            compensation += (total - step) + value
        else:
            compensation += (value - step) + total
        total = step
    return total + compensation if compensation and math.isfinite(compensation) else total


def test_completeness_is_the_same_on_every_python(monkeypatch):
    # Row order with one rounding per row, as Python 3.10 and 3.11 sum floats,
    # whichever ``sum`` the module would see.
    expected = {point: run_all_checks(*point) for point in [(3, 2, 3), (2, 6, 5), (5, 3, 5)]}
    monkeypatch.setattr(checks, "sum", compensated_sum, raising=False)
    for point, results in expected.items():
        assert run_all_checks(*point) == results, point
    completeness = {r.name: r.max_error for r in expected[5, 3, 5]}["probability_completeness"]
    assert completeness == 1.2212453270876722e-14


@pytest.mark.parametrize("m", [1, 2, 3, 5])
@pytest.mark.parametrize("d", range(2, 12))
def test_stacked_ladder_branches_match_the_per_count_calls(d, m):
    stack = np.array([random_cat_state(d, m, seed).coeffs for seed in range(4)])
    lives = [d**k for k in range(2, m + 2)]
    register = Register.of(d, m)
    branches, probabilities = protocols._pair_branches(register, stack, lives)
    assert branches.shape == (len(lives), 4, d * d, d)
    for position, live in enumerate(lives):
        alone = protocols._pair_branches(register, stack, live)
        assert np.array_equal(branches[position], alone[0]), live
        assert np.array_equal(probabilities[position], alone[1]), live
        for cat, coeffs in enumerate(stack):
            one = protocols._pair_branches(register, coeffs, live)
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
