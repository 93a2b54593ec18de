import dataclasses
import gc
import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from test_sector_oracle import ORACLE_GRID

from catport import (
    BellLabel,
    CatState,
    ComplementLabel,
    GhzLabel,
    JointLabel,
    MonomialOperator,
    ProtocolKind,
    ProtocolSpec,
    PureState,
    RegisterShape,
    SizeCapError,
    apply_correction,
    barred_equivalence_check,
    cat_to_pure_state,
    compose_joint_state,
    correction_for,
    digits_to_index,
    enumerate_outcomes,
    measurement_family,
    random_cat_state,
    bases,
    index_to_digits,
    protocols,
    run_protocol,
)
from catport.analysis import cost_of
from catport.bases import BasisLabel, complement_indices
from catport.core import cat_sector_indices
from catport.protocols import cat_sector_correction, ladder_k

W3 = np.exp(2j * np.pi / 3)

DESK_GRID = [(2, 2), (3, 2), (5, 2), (2, 3), (3, 3), (5, 3), (2, 4), (3, 4)]


def all_specs(d, m):
    specs = [ProtocolSpec(ProtocolKind.BELL, d, m)]
    if m >= 2:
        specs.append(ProtocolSpec(ProtocolKind.GHZ, d, m))
    specs.append(ProtocolSpec(ProtocolKind.BARRED, d, m))
    specs += [
        ProtocolSpec(ProtocolKind.HYBRID, d, m, hybrid_k=k) for k in range(2, m + 2)
    ]
    return specs


def brute_force_probability(joint, measured_state):
    """Oracle: outcome probability by explicit digit-tuple sums."""
    d = joint.shape.d
    na = measured_state.shape.num_qudits
    nb = joint.shape.num_qudits - na
    total = 0.0
    for bob in product(range(d), repeat=nb):
        amp = 0j
        for alice in product(range(d), repeat=na):
            amp += np.conj(measured_state.amplitude(alice)) * joint.amplitude(
                alice + bob
            )
        total += abs(amp) ** 2
    return total


class TestProtocolSpec:
    def test_hybrid_requires_k(self):
        with pytest.raises(ValueError):
            ProtocolSpec(ProtocolKind.HYBRID, 3, 2)
        with pytest.raises(ValueError):
            ProtocolSpec(ProtocolKind.HYBRID, 3, 2, hybrid_k=4)
        with pytest.raises(ValueError):
            ProtocolSpec(ProtocolKind.BELL, 3, 2, hybrid_k=2)

    def test_ghz_needs_two_particles(self):
        with pytest.raises(ValueError):
            ProtocolSpec(ProtocolKind.GHZ, 3, 1)

    def test_boundary_ks_allowed(self):
        ProtocolSpec(ProtocolKind.HYBRID, 3, 2, hybrid_k=2)
        ProtocolSpec(ProtocolKind.HYBRID, 3, 2, hybrid_k=3)

    @pytest.mark.parametrize("args", [
        ("bell", 2, 3),  # would run ladder position k = 2 with Bell's name
        ("hybrid", 2, 3, 2),
        (None, 2, 3),
        (ProtocolKind.BELL, 2.5, 2),
        (ProtocolKind.BELL, 3, 2.0),
        (ProtocolKind.HYBRID, 3, 2, 2.5),
        (ProtocolKind.HYBRID, 3, 2, 2.0),
        (ProtocolKind.BELL, True, 2),
        (ProtocolKind.BELL, 3, True),
        (ProtocolKind.HYBRID, 3, 2, True),
        (ProtocolKind.BELL, "3", 2),
        (ProtocolKind.BELL, np.float64(3), 2),
    ])
    def test_rejects_a_kind_or_count_of_the_wrong_type(self, args):
        with pytest.raises(ValueError):
            ProtocolSpec(*args)

    def test_numpy_integers_are_stored_as_ints(self):
        spec = ProtocolSpec(ProtocolKind.HYBRID, np.int64(3), np.int32(2), np.uint8(3))
        assert spec == ProtocolSpec(ProtocolKind.HYBRID, 3, 2, 3)
        assert all(type(value) is int for value in (spec.d, spec.m, spec.hybrid_k))
        row = cost_of(ProtocolSpec(ProtocolKind.BELL, np.int64(3), 2))
        assert row == cost_of(ProtocolSpec(ProtocolKind.BELL, 3, 2))
        assert row.classical_bits_ceil == 5


class TestProtocolSpecs:
    @pytest.mark.parametrize("d, m", [(2, 1), (3, 2), (5, 4)])
    def test_each_call_returns_a_new_list_of_equal_frozen_specs(self, d, m):
        first = protocols.protocol_specs(d, m)
        assert first == all_specs(d, m)
        first.reverse()
        first.append(ProtocolSpec(ProtocolKind.BELL, 7, 7))
        second = protocols.protocol_specs(d, m)
        assert second is not first and second == all_specs(d, m)
        with pytest.raises(dataclasses.FrozenInstanceError):
            second[0].d = 11

    def test_numpy_integer_call_keeps_its_types_to_itself(self):
        protocols.Register.cache_clear()
        numpy_specs = protocols.protocol_specs(np.int64(3), np.int64(2))
        assert numpy_specs == all_specs(3, 2)
        specs = protocols.protocol_specs(3, 2)
        assert specs == all_specs(3, 2)
        assert all(type(s.d) is int and type(s.m) is int for s in specs)


class TestComposeJointState:
    def test_d3_m2_amplitudes(self):
        cat = random_cat_state(3, 2, 0)
        joint = compose_joint_state(cat, ProtocolSpec(ProtocolKind.GHZ, 3, 2))
        assert joint.shape.num_qudits == 5
        for l, i in product(range(3), repeat=2):
            assert joint.amplitude((l, l, i, i, i)) == pytest.approx(
                cat.coeffs[l] / math.sqrt(3)
            )

    def test_corner_cat_gives_product_state(self):
        cat = CatState(2, 2, [1, 0])
        joint = compose_joint_state(cat, ProtocolSpec(ProtocolKind.BELL, 2, 2))
        assert joint.amplitude((0, 0, 0, 0, 0)) == pytest.approx(1 / math.sqrt(2))
        assert joint.amplitude((0, 0, 1, 1, 1)) == pytest.approx(1 / math.sqrt(2))
        assert np.count_nonzero(joint.amps) == 2

    @pytest.mark.parametrize("d,m", [(2, 2), (3, 2), (2, 3)])
    def test_norm_one_for_random_cats(self, d, m):
        spec = ProtocolSpec(ProtocolKind.BARRED, d, m)
        for seed in range(20):
            joint = compose_joint_state(random_cat_state(d, m, seed), spec)
            assert abs(joint.norm() - 1) < 1e-12

    def test_mismatched_cat(self):
        with pytest.raises(ValueError):
            compose_joint_state(
                random_cat_state(2, 2, 0), ProtocolSpec(ProtocolKind.BELL, 3, 2)
            )

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            compose_joint_state(
                random_cat_state(2, 2, 0),
                ProtocolSpec(ProtocolKind.BELL, 2, 2),
                max_dim=16,
            )


class TestMonomialOperator:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            MonomialOperator(2, 1, [0, 0], [0, 0])

    def test_apply_shift_and_clock(self):
        from catport import basis_ket, clock_operator, shift_operator

        ket = basis_ket(RegisterShape(3, 1), (1,))
        shifted = shift_operator(3, 1).apply(ket)
        assert shifted.amplitude((2,)) == 1.0
        phased = clock_operator(3, 1).apply(ket)
        assert phased.amplitude((1,)) == pytest.approx(W3)

    def test_adjoint_compose_is_exact_identity(self):
        for d, m in [(2, 2), (3, 2), (5, 3)]:
            op = correction_for(
                ProtocolSpec(ProtocolKind.BARRED, d, m), BellLabel(1, 1)
            )
            assert (op.adjoint() @ op).is_identity()
            assert (op @ op.adjoint()).is_identity()

    def test_numeric_unitarity(self):
        spec = ProtocolSpec(ProtocolKind.BELL, 3, 2)
        for label, _ in measurement_family(spec).states:
            mat = correction_for(spec, label).matrix()
            assert np.abs(mat.conj().T @ mat - np.eye(9)).max() < 1e-12


class TestCorrections:
    def test_ghz_k1_branch_recovery(self):
        # branch phases for the k=1 outcome: [1, w^2, w] on [a, b, g]
        a, b, g = random_cat_state(3, 2, 8).coeffs
        shape = RegisterShape(3, 2)
        branch = np.zeros(9, dtype=complex)
        branch[0], branch[4], branch[8] = a, W3**2 * b, W3 * g
        pre = PureState(shape, branch)
        op = correction_for(ProtocolSpec(ProtocolKind.GHZ, 3, 2), GhzLabel(0, 0, 1))
        post = op.apply(pre)
        np.testing.assert_allclose(
            [post.amplitude((0, 0)), post.amplitude((1, 1)), post.amplitude((2, 2))],
            [a, b, g],
            atol=1e-14,
        )

    def test_all_zero_label_is_identity_on_cat_sector(self):
        cat = random_cat_state(3, 2, 4)
        state = cat_to_pure_state(cat)
        op = correction_for(ProtocolSpec(ProtocolKind.GHZ, 3, 2), GhzLabel(0, 0, 0))
        assert np.array_equal(op.apply(state).amps, state.amps)

    def test_label_kind_mismatch_rejected(self):
        with pytest.raises(ValueError):
            correction_for(ProtocolSpec(ProtocolKind.GHZ, 3, 2), BellLabel(0, 0))
        with pytest.raises(ValueError):
            correction_for(
                ProtocolSpec(ProtocolKind.BELL, 3, 2), JointLabel((), BellLabel(0, 0))
            )
        with pytest.raises(ValueError):
            correction_for(ProtocolSpec(ProtocolKind.BARRED, 3, 2), BellLabel(3, 0))
        barred = ProtocolSpec(ProtocolKind.BARRED, 2, 2)
        for spec, label in [
            (ProtocolSpec(ProtocolKind.BELL, 3, 2), JointLabel((1,), GhzLabel(0, 1, 2))),
            (barred, ComplementLabel((5, 5, 5))),
            (barred, ComplementLabel((0, 0, 1))),  # a sector ket
            (barred, ComplementLabel((0, 1))),  # too few digits
        ]:
            with pytest.raises(ValueError):
                correction_for(spec, label)

    def test_out_of_range_fourier_outcome_rejected(self):
        bell = ProtocolSpec(ProtocolKind.BELL, 3, 2)
        hybrid = ProtocolSpec(ProtocolKind.HYBRID, 3, 3, hybrid_k=3)
        assert not correction_for(bell, JointLabel((2,), BellLabel(0, 0))).is_identity()
        assert correction_for(hybrid, JointLabel((2,), ComplementLabel((0, 1, 0)))).is_identity()
        for spec, label in [
            (bell, JointLabel((3,), BellLabel(0, 0))),
            (hybrid, JointLabel((3,), ComplementLabel((0, 1, 0)))),
        ]:
            with pytest.raises(ValueError):
                correction_for(spec, label)

    def test_all_pairs_shared_across_calls_at_large_d(self):
        # d = 17 has 289 corrections, more than a small global cache holds.
        spec = ProtocolSpec(ProtocolKind.BELL, 17, 1)
        cat = random_cat_state(17, 1, 3)
        first = enumerate_outcomes(cat, spec)
        second = enumerate_outcomes(cat, spec)
        assert len({id(r.correction) for r in first}) == 289
        for a, b in zip(first, second):
            assert a.correction is b.correction is correction_for(spec, a.label)

    def test_complement_label_gets_identity(self):
        op = correction_for(
            ProtocolSpec(ProtocolKind.BARRED, 2, 2), ComplementLabel((0, 1, 0))
        )
        assert op.is_identity()


@pytest.fixture(scope="module")
def records():
    cat = random_cat_state(3, 2, 42)
    return cat, enumerate_outcomes(cat, ProtocolSpec(ProtocolKind.GHZ, 3, 2))


class TestEnumerateGhzTwoQutrits:
    """The nine-branch structure of the two-qutrit collective protocol."""

    def test_counts_and_probabilities(self, records):
        _, recs = records
        assert len(recs) == 27
        nonzero = [r for r in recs if r.probability > 1e-12]
        zero = [r for r in recs if r.probability <= 1e-12]
        assert len(nonzero) == 9
        assert len(zero) == 18
        for record in nonzero:
            assert record.probability == pytest.approx(1 / 9, abs=1e-10)

    def test_nonzero_labels_have_no_block_shift(self, records):
        _, recs = records
        for record in recs:
            if record.probability > 1e-12:
                assert isinstance(record.label, GhzLabel)
                assert record.label.n == 0

    def test_branch_phase_patterns(self, records):
        cat, recs = records
        shape = RegisterShape(3, 2)
        phase_by_k = {0: [1, 1, 1], 1: [1, W3**2, W3], 2: [1, W3, W3**2]}
        for record in recs:
            if record.probability <= 1e-12:
                continue
            k, mshift = record.label.k, record.label.m
            expected = np.zeros(9, dtype=complex)
            for l in range(3):
                idx = digits_to_index(shape, ((l + mshift) % 3,) * 2)
                expected[idx] = cat.coeffs[l] * phase_by_k[k][l]
            np.testing.assert_allclose(
                record.bob_pre_correction.amps, expected, atol=1e-12
            )

    def test_probabilities_match_brute_force_oracle(self, records):
        cat, recs = records
        spec = ProtocolSpec(ProtocolKind.GHZ, 3, 2)
        joint = compose_joint_state(cat, spec)
        family = dict(measurement_family(spec).states)
        for record in recs[::5]:
            oracle = brute_force_probability(joint, family[record.label])
            assert record.probability == pytest.approx(oracle, abs=1e-12)


class TestEnumerateOtherProtocols:
    def test_bell_d2_m2_uniform_eighths(self):
        cat = random_cat_state(2, 2, 1)
        recs = enumerate_outcomes(cat, ProtocolSpec(ProtocolKind.BELL, 2, 2))
        assert len(recs) == 8
        for record in recs:
            assert record.probability == pytest.approx(1 / 8, abs=1e-10)
            assert record.fidelity == pytest.approx(1.0, abs=1e-10)

    def test_bell_probabilities_match_brute_force_oracle(self):
        cat = random_cat_state(2, 2, 2)
        spec = ProtocolSpec(ProtocolKind.BELL, 2, 2)
        joint = compose_joint_state(cat, spec)
        for label, state in measurement_family(spec).states:
            oracle = brute_force_probability(joint, state)
            assert oracle == pytest.approx(1 / 8, abs=1e-12)

    def test_barred_d3_m3_nine_nonzero(self):
        cat = random_cat_state(3, 3, 6)
        recs = enumerate_outcomes(cat, ProtocolSpec(ProtocolKind.BARRED, 3, 3))
        nonzero = [r for r in recs if r.probability > 1e-12]
        assert len(nonzero) == 9
        for record in nonzero:
            assert isinstance(record.label, BellLabel)
            assert record.probability == pytest.approx(1 / 9, abs=1e-10)
        for record in recs:
            if isinstance(record.label, ComplementLabel):
                assert record.probability < 1e-12


class TestMeasurementFamily:
    def test_bell_family_is_fourier_tensor_bell(self):
        from catport import bell_basis_state, pi_basis_state, tensor
        from catport.bases import PiLabel

        spec = ProtocolSpec(ProtocolKind.BELL, 3, 2)
        family = dict(measurement_family(spec).states)
        assert len(family) == 27
        for (alpha,) in product(range(3), repeat=1):
            for n, m in product(range(3), repeat=2):
                label = JointLabel((alpha,), BellLabel(n, m))
                expected = tensor(
                    pi_basis_state(3, PiLabel(alpha)),
                    bell_basis_state(3, BellLabel(n, m)),
                )
                assert np.array_equal(family[label].amps, expected.amps)

    def test_ghz_family_size_and_register(self):
        spec = ProtocolSpec(ProtocolKind.GHZ, 3, 2)
        family = measurement_family(spec)
        assert family.shape.num_qudits == 3
        assert len(family.states) == 27

    def test_family_is_cached_and_shared(self):
        spec = ProtocolSpec(ProtocolKind.BARRED, 2, 2)
        assert measurement_family(spec) is measurement_family(spec)

    def test_family_cache_holds_one_family(self):
        # Three families of about 1 MB of amplitudes each: after each build,
        # only the newest stays held, not the ones before it.
        specs = [ProtocolSpec(ProtocolKind.BARRED, 2, 7), ProtocolSpec(ProtocolKind.BELL, 3, 4),
                 ProtocolSpec(ProtocolKind.GHZ, 4, 3)]
        measurement_family(ProtocolSpec(ProtocolKind.BARRED, 2, 1))  # loads the dense module
        protocols._family_cached.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for spec in specs:
                measurement_family(spec)
                gc.collect()
                held = tracemalloc.get_traced_memory()[0] - base
                assert held < 1.5 * 16 * spec.rung.rows ** 2, (spec, held)
        finally:
            tracemalloc.stop()
            protocols._family_cached.cache_clear()


class TestProtocolInvariants:
    @pytest.mark.parametrize("d,m", [(2, 2), (3, 2), (2, 3)])
    def test_completeness_teleportation_uniformity(self, d, m):
        from catport.analysis import nonzero_outcome_count

        for spec in all_specs(d, m):
            expected = 1 / nonzero_outcome_count(spec)
            for seed in range(5):
                recs = enumerate_outcomes(random_cat_state(d, m, seed), spec)
                assert sum(r.probability for r in recs) == pytest.approx(
                    1.0, abs=1e-10
                )
                nonzero = [r for r in recs if r.probability > 1e-12]
                assert len(nonzero) == nonzero_outcome_count(spec)
                for record in nonzero:
                    assert record.fidelity == pytest.approx(1.0, abs=1e-10)
                    assert record.probability == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("d,m", [(2, 2), (3, 2), (3, 3)])
    def test_selection_rule(self, d, m):
        cat = random_cat_state(d, m, 13)
        for record in enumerate_outcomes(cat, ProtocolSpec(ProtocolKind.GHZ, d, m)):
            if isinstance(record.label, GhzLabel) and record.label.n != 0:
                assert record.probability < 1e-12
            if isinstance(record.label, ComplementLabel):
                assert record.probability < 1e-12

    def test_global_phase_invariance(self):
        cat = random_cat_state(3, 2, 17)
        spun = CatState(3, 2, cat.coeffs * np.exp(1.234j))
        for spec in all_specs(3, 2):
            before = enumerate_outcomes(cat, spec)
            after = enumerate_outcomes(spun, spec)
            for x, y in zip(before, after):
                assert abs(x.probability - y.probability) < 1e-12
                if x.probability > 1e-12:
                    assert abs(x.fidelity - y.fidelity) < 1e-12

    def test_hybrid_boundaries_reproduce_named_protocols(self):
        d, m = 2, 3
        cat = random_cat_state(d, m, 23)
        barred = enumerate_outcomes(cat, ProtocolSpec(ProtocolKind.BARRED, d, m))
        low = enumerate_outcomes(
            cat, ProtocolSpec(ProtocolKind.HYBRID, d, m, hybrid_k=2)
        )
        assert len(barred) == len(low)
        for x, y in zip(barred, low):
            assert isinstance(y.label, JointLabel) and y.label.alphas == ()
            assert y.label.tail == x.label
            assert x.probability == y.probability
            if x.probability > 1e-12:
                assert np.array_equal(
                    x.bob_post_correction.amps, y.bob_post_correction.amps
                )

        bell = enumerate_outcomes(cat, ProtocolSpec(ProtocolKind.BELL, d, m))
        high = enumerate_outcomes(
            cat, ProtocolSpec(ProtocolKind.HYBRID, d, m, hybrid_k=m + 1)
        )
        for x, y in zip(bell, high):
            assert x.label == y.label
            assert x.probability == y.probability


class TestApplyCorrection:
    def test_ghz_k2_branch(self):
        a, b, g = random_cat_state(3, 2, 31).coeffs
        shape = RegisterShape(3, 2)
        branch = np.zeros(9, dtype=complex)
        branch[0], branch[4], branch[8] = a, W3 * b, W3**2 * g
        spec = ProtocolSpec(ProtocolKind.GHZ, 3, 2)
        record_like = enumerate_outcomes(CatState(3, 2, [a, b, g]), spec)
        target = cat_to_pure_state(CatState(3, 2, [a, b, g]))
        # locate the (n=0, m=0, k=2) record and check both paths agree
        rec = next(
            r
            for r in record_like
            if isinstance(r.label, GhzLabel) and (r.label.n, r.label.m, r.label.k) == (0, 0, 2)
        )
        np.testing.assert_allclose(rec.bob_pre_correction.amps, branch, atol=1e-12)
        np.testing.assert_allclose(
            apply_correction(rec).amps, target.amps, atol=1e-12
        )

    def test_identity_branch_unchanged(self):
        cat = random_cat_state(2, 2, 3)
        spec = ProtocolSpec(ProtocolKind.BARRED, 2, 2)
        rec = next(
            r
            for r in enumerate_outcomes(cat, spec)
            if r.label == BellLabel(0, 0)
        )
        assert np.array_equal(
            apply_correction(rec).amps, rec.bob_pre_correction.amps
        )

    @pytest.mark.parametrize("d,m", [(2, 2), (3, 2), (2, 3)])
    def test_post_correction_equals_cat_exactly_up_to_rounding(self, d, m):
        for seed in range(20):
            cat = random_cat_state(d, m, seed)
            target = cat_to_pure_state(cat)
            for spec in all_specs(d, m):
                for record in enumerate_outcomes(cat, spec):
                    if record.probability <= 1e-12:
                        continue
                    np.testing.assert_allclose(
                        record.bob_post_correction.amps, target.amps, atol=1e-12
                    )


class TestSharedBranches:
    """Outcomes reach the receiver through their (shift, phase) pair, which the
    shared correction operator identifies: records with one pair share one
    pre-correction and one post-correction state."""

    @pytest.mark.parametrize("d,m", [(2, 3), (3, 2), (3, 3)])
    def test_records_with_same_pair_share_states(self, d, m):
        cat = random_cat_state(d, m, 4)
        for spec in all_specs(d, m):
            first = {}
            for record in enumerate_outcomes(cat, spec):
                if record.probability == 0.0:
                    continue
                other = first.setdefault(id(record.correction), record)
                assert record.bob_pre_correction is other.bob_pre_correction
                assert record.bob_post_correction is other.bob_post_correction
            assert len(first) <= d * d

    def test_bell_3_6_has_at_most_d2_distinct_pre_states(self):
        cat = random_cat_state(3, 6, 0)
        records = enumerate_outcomes(cat, ProtocolSpec(ProtocolKind.BELL, 3, 6))
        pre = {id(r.bob_pre_correction) for r in records if r.probability > 0}
        assert len(records) == 3 ** 7
        assert len(pre) <= 9

    def test_warm_bell_3_6_enumeration_memory(self):
        cat = random_cat_state(3, 6, 0)
        spec = ProtocolSpec(ProtocolKind.BELL, 3, 6)
        enumerate_outcomes(cat, spec)
        tracemalloc.start()
        try:
            records = enumerate_outcomes(cat, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(records) == 3 ** 7
        assert peak < 8 * 2 ** 20


class TestRunProtocol:
    def test_deterministic(self):
        cat = random_cat_state(3, 2, 0)
        spec = ProtocolSpec(ProtocolKind.GHZ, 3, 2)
        a = run_protocol(cat, spec, seed=77)
        b = run_protocol(cat, spec, seed=77)
        assert a.label == b.label
        assert a.probability == b.probability
        assert np.array_equal(
            a.bob_post_correction.amps, b.bob_post_correction.amps
        )

    def test_sampled_outcome_has_positive_probability(self):
        cat = random_cat_state(3, 2, 1)
        spec = ProtocolSpec(ProtocolKind.GHZ, 3, 2)
        for seed in range(50):
            assert run_protocol(cat, spec, seed).probability > 0

    @pytest.mark.parametrize("d,m", [(2, 2), (3, 2), (2, 3), (3, 3), (5, 2), (2, 5)])
    def test_sampled_record_is_the_enumerated_one_bit_for_bit(self, d, m):
        for spec in all_specs(d, m):
            for seed in range(50):
                cat = random_cat_state(d, m, seed)
                sampled = run_protocol(cat, spec, seed)
                listed = next(
                    r for r in enumerate_outcomes(cat, spec) if r.label == sampled.label
                )
                assert sampled.probability == listed.probability
                assert sampled.fidelity == listed.fidelity, (spec, seed)
                assert sampled.correction is listed.correction
                # Bytes, not np.array_equal, which takes -0.0 for +0.0: the
                # CLI writes the two differently.
                for state in ("bob_pre_correction", "bob_post_correction"):
                    assert (getattr(sampled, state).amps.tobytes()
                            == getattr(listed, state).amps.tobytes())

    def test_covers_every_nonzero_outcome(self):
        cat = random_cat_state(2, 2, 5)
        spec = ProtocolSpec(ProtocolKind.BARRED, 2, 2)
        seen = {run_protocol(cat, spec, seed).label for seed in range(200)}
        assert len(seen) == 4


class TestBarredEquivalence:
    def test_random_cat_d3_m2(self):
        cat = random_cat_state(3, 2, 12)
        report = barred_equivalence_check(cat, 3, 2)
        assert report.max_prob_delta < 1e-10
        assert report.max_state_delta < 1e-10

    def test_uniform_cat_d2_m3(self):
        cat = CatState(2, 3, [1 / math.sqrt(2)] * 2)
        report = barred_equivalence_check(cat, 2, 3)
        assert report.max_prob_delta < 1e-10
        assert report.max_state_delta < 1e-10

    def test_single_particle_is_exact_self_comparison(self):
        cat = random_cat_state(3, 1, 2)
        report = barred_equivalence_check(cat, 3, 1)
        assert report.max_prob_delta == 0.0
        assert report.max_state_delta == 0.0

    def test_mismatched_arguments(self):
        with pytest.raises(ValueError):
            barred_equivalence_check(random_cat_state(3, 2, 0), 3, 3)


def reference_pair(d: int, label: BasisLabel) -> tuple[int, bool]:
    """(shift * d + phase, whether the outcome can occur), read off the label.

    The shift is the block outcome's ``m``; the phase adds its phase index
    (``k`` for GHZ, ``n`` otherwise) to the Fourier outcomes. The protocol
    structure forbids every complement ket (pair 0) and a nonzero slot-2
    shift in the GHZ family.
    """
    alphas, tail = (label.alphas, label.tail) if isinstance(label, JointLabel) else ((), label)
    if isinstance(tail, ComplementLabel):
        return 0, False
    phase = tail.k if isinstance(tail, GhzLabel) else tail.n
    occurs = not isinstance(tail, GhzLabel) or tail.n == 0
    return tail.m * d + (phase + sum(alphas)) % d, occurs


def clear_protocol_caches():
    for value in vars(protocols).values():
        if callable(getattr(value, "cache_clear", None)):
            value.cache_clear()


ROW_GRID = [(2, 1), (3, 1), (2, 2), (3, 2), (5, 2), (7, 2), (2, 3), (3, 3), (4, 3), (3, 5), (2, 8)]

# The oracle grid's specs, GHZ(3, 4) among them, and a deep hybrid.
RUNG_SPECS = [spec for d, m in ORACLE_GRID for spec in all_specs(d, m)] + [
    ProtocolSpec(ProtocolKind.HYBRID, 2, 10, hybrid_k=5)]


def spec_id(spec):
    return f"{spec.kind.value}-{spec.d}-{spec.m}" + (f"-k{spec.hybrid_k}" if spec.hybrid_k else "")


@pytest.mark.parametrize("spec", RUNG_SPECS, ids=spec_id)
def test_rung_rows_pairs_and_labels_agree(spec):
    # build_basis reads the rung too, so the independent oracle is the order:
    # the labels ascend strictly by sort_key over all d**(m+1) rows.
    rung, d, m = spec.rung, spec.d, spec.m
    labels = rung.labels(0, rung.rows)
    keys = [label.sort_key() for label in labels]
    assert len(set(labels)) == len(labels) == d ** (m + 1)
    assert all(a < b for a, b in zip(keys, keys[1:]))
    pairs = rung.pairs(0, rung.rows)
    for window in (1, 7, 64):
        windows = [rung.pairs(start, min(start + window, rung.rows))
                   for start in range(0, rung.rows, window)]
        assert np.array_equal(np.concatenate(windows), pairs), window
    head = min(300, rung.rows)
    assert labels[:head] == [label for start in range(0, head, 7)
                             for label in rung.labels(start, min(start + 7, head))]
    for row, label in enumerate(labels):
        assert (protocols._label_pair(spec, label) == rung.pair(row)
                == rung.pairs(row, row + 1)[0] == pairs[row])
        assert spec.rung.label(row) == label
        assert rung.rank(label) == row
    for start, stop in [(-1, 1), (0, rung.rows + 1), (2, 1)]:
        with pytest.raises(ValueError):
            rung.pairs(start, stop)
        with pytest.raises(ValueError):
            rung.labels(start, stop)
    # After the sector rows come exactly the block's complement kets, in order.
    tails = [label.tail if rung.joint else label for label in labels[rung.sector_rows :]]
    kets = sorted({digits_to_index(RegisterShape(d, rung.block + 1), t.digits) for t in tails})
    block = slice(int(rung.ghz), rung.block)
    assert kets == complement_indices(d, rung.block + 1, block).tolist()
    assert all(isinstance(t, ComplementLabel) for t in tails)


class TestRowIndex:
    """Each outcome's pair follows from its row by arithmetic; the label
    rule above, applied to the family's labels, is the reference."""

    @pytest.mark.parametrize("d,m", ROW_GRID)
    def test_pair_column_follows_the_label_rule(self, d, m):
        for spec in all_specs(d, m):
            labels = spec.rung.labels(0, spec.rung.rows)
            pairs = [protocols._label_pair(spec, label) for label in labels]
            expected, occurs = zip(*(reference_pair(d, label) for label in labels))
            assert pairs == list(expected), spec
            live = d ** ladder_k(spec)
            assert list(occurs) == [row < live for row in range(len(labels))], spec
            register = protocols.Register.of(d, m)
            assert register.column(spec.rung).tolist() == list(expected[:live]), spec
            live_labels = [spec.rung.label(row) for row in range(live)]
            assert live_labels == labels[:live], spec
            for label, pair in zip(labels, pairs):
                assert correction_for(spec, label) is register.correction(pair)

    @pytest.mark.parametrize("d,m", ROW_GRID)
    def test_records_carry_the_label_rule_correction(self, d, m):
        # enumerate_outcomes reads each row's pair off the row index; the
        # label rule, which correction_for applies, must agree on every row.
        cat = random_cat_state(d, m, 4)
        register = protocols.Register.of(d, m)
        for spec in all_specs(d, m):
            for record in enumerate_outcomes(cat, spec):
                pair = protocols._label_pair(spec, record.label)
                expected = register.correction(pair)
                assert record.correction is expected, (spec, record.label)

    @pytest.mark.parametrize("d,m", ORACLE_GRID)
    def test_live_pair_column_gives_the_recorded_probabilities(self, d, m):
        # The column the cross-check counts and run_protocol samples from,
        # padded with the structural zeros, is enumerate_outcomes' column.
        register = protocols.Register.of(d, m)
        for seed in range(5):
            cat = random_cat_state(d, m, seed)
            for spec in all_specs(d, m):
                pairs = register.column(spec.rung)
                branched = protocols._pair_branches(register, cat.coeffs, d ** ladder_k(spec))
                column = np.zeros(d ** (m + 1))
                column[: pairs.size] = branched[1][pairs]
                records = enumerate_outcomes(cat, spec)
                assert column.tolist() == [r.probability for r in records], (spec, seed)

    @pytest.mark.parametrize("d,m", [(2, 3), (3, 2), (5, 1), (3, 3)])
    def test_cat_sector_correction_digit_by_digit(self, d, m):
        shape = RegisterShape(d, m)
        digits = [index_to_digits(shape, index) for index in range(shape.total)]
        for shift, phase in product(range(d), repeat=2):
            op = cat_sector_correction(d, m, phase, shift)
            for index, ket in enumerate(digits):
                target = tuple((q - shift) % d for q in ket)
                assert op.perm[index] == digits_to_index(shape, target)
                constant = len(set(ket)) == 1
                assert op.phase_exp[index] == (phase * target[0] % d if constant else 0)

    @pytest.mark.parametrize("d,m", [(2, 1), (3, 2), (5, 3), (4, 5), (2, 12)])
    def test_cat_sector_correction_matches_the_digit_pass_build(self, d, m):
        # The build before the one-qudit shift was tensored: one divmod pass
        # per digit over the whole register.
        rest = np.arange(d ** m, dtype=np.int64)
        unit = cat_sector_indices(d, m)[1]
        constant = rest % unit == 0
        for shift in range(d):
            for phase in {0, 1, d - 1}:
                digits, perm, place = rest, np.zeros_like(rest), 1
                for _ in range(m):
                    digits, digit = np.divmod(digits, d)
                    perm += (digit - shift) % d * place
                    place *= d
                phases = np.where(constant, (phase * (perm // unit)) % d, 0)
                op = cat_sector_correction(d, m, phase, shift)
                assert np.array_equal(op.perm, perm), (shift, phase)
                assert np.array_equal(op.phase_exp, phases), (shift, phase)

    @pytest.mark.parametrize("d,m", [(3, 3), (2, 5)])
    def test_run_builds_no_family_labels(self, d, m, monkeypatch):
        def no_labels(*args, **kwargs):
            raise AssertionError("run_protocol built a family label list")

        clear_protocol_caches()
        for name in ("labels", "digits"):
            monkeypatch.setattr(bases.Rung, name, no_labels)
        cat = random_cat_state(d, m, 2)
        for spec in all_specs(d, m):
            record = run_protocol(cat, spec, seed=5)
            assert record.probability > 0 and abs(record.fidelity - 1.0) < 1e-10

    def test_cold_barred_2_15_run_memory(self):
        cat = random_cat_state(2, 15, 0)
        spec = ProtocolSpec(ProtocolKind.BARRED, 2, 15)
        clear_protocol_caches()
        tracemalloc.start()
        try:
            record = run_protocol(cat, spec, 0, max_dim=2 ** 40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(record.fidelity - 1.0) < 1e-10
        assert peak < 8 * 2 ** 20

    @pytest.mark.parametrize("kind, k", [(ProtocolKind.BELL, None), (ProtocolKind.HYBRID, 12)])
    def test_cold_fourier_ladder_2_15_run_memory(self, kind, k):
        # run_protocol unranks the sampled row's label; it lists no labels
        # and no pair beyond the d**k live rows.
        cat = random_cat_state(2, 15, 0)
        spec = ProtocolSpec(kind, 2, 15, hybrid_k=k)
        clear_protocol_caches()
        tracemalloc.start()
        try:
            record = run_protocol(cat, spec, 0, max_dim=2 ** 40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(record.fidelity - 1.0) < 1e-10
        assert peak < 8 * 2 ** 20

    def test_cold_correction_for_builds_no_family_labels(self, monkeypatch):
        def no_labels(*args, **kwargs):
            raise AssertionError("correction_for built a family label list")

        spec = ProtocolSpec(ProtocolKind.BARRED, 2, 15)
        clear_protocol_caches()
        for name in ("labels", "digits"):
            monkeypatch.setattr(bases.Rung, name, no_labels)
        assert correction_for(spec, ComplementLabel((0, 1) + (0,) * 14)).is_identity()
        bell = correction_for(spec, BellLabel(1, 1))
        pair = reference_pair(2, BellLabel(1, 1))[0]
        assert bell is protocols.Register.of(2, 15).correction(pair)
        with pytest.raises(ValueError):
            correction_for(spec, ComplementLabel((1,) * 15 + (0,)))  # a sector ket
