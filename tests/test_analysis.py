import math
import re

import numpy as np
import pytest

from catport import (
    ProtocolKind,
    ProtocolSpec,
    analysis,
    cost_of,
    cost_table,
    enumerate_outcomes,
    protocols,
    random_cat_state,
)
from catport.analysis import collective_measurement_arity, nonzero_outcome_count
from catport.core import random_cat_coeffs


def hybrid(d, m, k):
    return ProtocolSpec(ProtocolKind.HYBRID, d, m, hybrid_k=k)


class TestCostOf:
    def test_collective_protocol_bits(self):
        row = cost_of(ProtocolSpec(ProtocolKind.GHZ, 3, 5), cross_check=False)
        assert row.nonzero_outcome_count == 9
        assert row.classical_bits == pytest.approx(2 * math.log2(3))
        assert row.classical_bits == pytest.approx(3.169925001442312)
        assert row.classical_bits_ceil == 4
        assert row.total_outcome_count == 3**6

    def test_bell_protocol_bits(self):
        row = cost_of(ProtocolSpec(ProtocolKind.BELL, 2, 3), cross_check=False)
        assert row.nonzero_outcome_count == 16
        assert row.classical_bits == 4.0
        assert row.classical_bits_ceil == 4
        assert row.collective_measurement_arity == 2

    def test_hybrid_boundaries_match_named_rows(self):
        d, m = 3, 4
        ghz = cost_of(ProtocolSpec(ProtocolKind.GHZ, d, m), cross_check=False)
        low = cost_of(hybrid(d, m, 2), cross_check=False)
        assert (low.nonzero_outcome_count, low.classical_bits, low.collective_measurement_arity) == (
            ghz.nonzero_outcome_count, ghz.classical_bits, ghz.collective_measurement_arity
        )
        bell = cost_of(ProtocolSpec(ProtocolKind.BELL, d, m), cross_check=False)
        high = cost_of(hybrid(d, m, m + 1), cross_check=False)
        assert (high.nonzero_outcome_count, high.classical_bits, high.collective_measurement_arity) == (
            bell.nonzero_outcome_count, bell.classical_bits, bell.collective_measurement_arity
        )

    @pytest.mark.parametrize("d,m", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_cross_check_against_enumeration(self, d, m):
        specs = [
            ProtocolSpec(ProtocolKind.BELL, d, m),
            ProtocolSpec(ProtocolKind.GHZ, d, m),
            ProtocolSpec(ProtocolKind.BARRED, d, m),
        ] + [hybrid(d, m, k) for k in range(2, m + 2)]
        for spec in specs:
            for seed in range(5):
                cost_of(spec, cross_check=True, seed=seed)  # raises on mismatch

    def test_cross_check_fails_when_a_live_outcome_has_zero_probability(self, monkeypatch):
        branches = analysis._pair_branches

        def lose_pair_0(coeffs, live):
            # Row 0 of every protocol has pair 0 (no shift, no phase).
            branched, probabilities = branches(coeffs, live)
            probabilities = probabilities.copy()
            probabilities[..., 0] = 0.0
            return branched, probabilities

        monkeypatch.setattr(analysis, "_pair_branches", lose_pair_0)
        for spec in protocols.protocol_specs(3, 3):
            with pytest.raises(RuntimeError, match="nonzero outcomes"):
                cost_of(spec, cross_check=True)
        with pytest.raises(RuntimeError, match="nonzero outcomes"):
            cost_table([2], [2], cross_check=True)

    @pytest.mark.parametrize("offset", [-1, 1])
    def test_cross_check_fails_on_a_wrong_count(self, monkeypatch, offset):
        monkeypatch.setattr(
            analysis, "nonzero_outcome_count", lambda spec: spec.d ** protocols.ladder_k(spec) + offset
        )
        for spec in protocols.protocol_specs(2, 3):
            with pytest.raises(RuntimeError, match="nonzero outcomes"):
                cost_of(spec, cross_check=True)
        with pytest.raises(RuntimeError, match="nonzero outcomes"):
            cost_table([3], [2], include_hybrids=True, cross_check=True)

    def test_cross_checked_table_names_the_first_failing_spec(self, monkeypatch):
        d, m = 3, 3
        specs = protocols.protocol_specs(d, m)
        wrong = {specs[2], hybrid(d, m, m + 1)}  # barred, and the hybrid at Bell's position
        count = analysis.nonzero_outcome_count
        monkeypatch.setattr(
            analysis, "nonzero_outcome_count", lambda spec: count(spec) + (spec in wrong)
        )
        with pytest.raises(RuntimeError) as alone:
            cost_of(specs[2], cross_check=True)
        for include_hybrids in (False, True):
            with pytest.raises(RuntimeError) as table:
                cost_table([d], [m], include_hybrids=include_hybrids, cross_check=True)
            assert str(table.value) == str(alone.value)
        # A hybrid the table leaves out is not cross-checked.
        wrong = {hybrid(d, m, 3)}
        assert len(cost_table([d], [m], cross_check=True)) == 3
        with pytest.raises(RuntimeError, match="hybrid_k=3"):
            cost_table([d], [m], include_hybrids=True, cross_check=True)

    def test_cross_check_skipped_over_cap(self):
        # register is 2**41; the analytic path must still succeed
        row = cost_of(ProtocolSpec(ProtocolKind.GHZ, 2, 20), cross_check=True)
        assert row.nonzero_outcome_count == 4


class TestCostTable:
    def test_hybrid_ladder_monotonicity(self):
        rows = [cost_of(hybrid(2, 4, k), cross_check=False) for k in range(2, 6)]
        assert [r.classical_bits for r in rows] == [2, 3, 4, 5]
        assert [r.collective_measurement_arity for r in rows] == [5, 4, 3, 2]

    def test_table_covers_bit_ladder(self):
        rows = cost_table([3], [2, 3], include_hybrids=True)
        for m in (2, 3):
            bits = {
                round(r.classical_bits / math.log2(3))
                for r in rows
                if r.spec.m == m
            }
            assert bits == set(range(2, m + 2))

    def test_table_ordering_and_single_row(self):
        rows = cost_table([2, 3], [2], include_hybrids=True)
        keys = [(r.spec.d, r.spec.m) for r in rows]
        assert keys == sorted(keys)
        solo = cost_table([3], [2], include_hybrids=False)
        assert [r.spec.kind for r in solo] == [
            ProtocolKind.BELL,
            ProtocolKind.GHZ,
            ProtocolKind.BARRED,
        ]
        assert solo[0].classical_bits == cost_of(
            ProtocolSpec(ProtocolKind.BELL, 3, 2), cross_check=False
        ).classical_bits

    def test_empty_ranges_rejected(self):
        with pytest.raises(ValueError):
            cost_table([], [2])

    @pytest.mark.parametrize(
        "d_values, m_values, shown",
        [
            ([2.9], [2], "2.9"),
            ([True], [2], "True"),
            ([2], [False], "False"),
            ([3], [2.0], "2.0"),
            ([np.float64(3.0)], [2], "3.0"),
            ([np.True_], [2], "True"),
            (["3"], [2], "'3'"),
        ],
    )
    def test_non_integer_values_rejected(self, d_values, m_values, shown):
        with pytest.raises(ValueError, match="must be integers, got .*" + re.escape(shown)):
            cost_table(d_values, m_values)

    def test_numpy_integers_accepted(self):
        rows = cost_table(np.arange(2, 4), [np.int32(2), 3], include_hybrids=True)
        assert rows == cost_table([2, 3], [2, 3], include_hybrids=True)
        assert all(type(r.spec.d) is int and type(r.spec.m) is int for r in rows)

    def test_cross_check_draws_one_cat_per_point(self, monkeypatch):
        drawn = []

        def counted(d, seeds):
            drawn.append((d, list(seeds)))
            return random_cat_coeffs(d, seeds)

        monkeypatch.setattr(analysis, "random_cat_coeffs", counted)
        rows = cost_table([2, 3], [1, 2, 3], include_hybrids=True, cross_check=True)
        assert len(rows) == sum(len(protocols.protocol_specs(d, m)) for d in (2, 3) for m in (1, 2, 3))
        assert drawn == [(d, [0]) for d in (2, 3) for m in (1, 2, 3)]

    def test_cross_checked_table_builds_no_outcome_records(self, monkeypatch):
        def no_records(*args, **kwargs):
            raise AssertionError("the cross-check built an outcome record or state")

        for name in ("OutcomeRecord", "PureState", "sector_state"):
            monkeypatch.setattr(protocols, name, no_records)
        with pytest.raises(AssertionError):  # the old cross-check's path
            enumerate_outcomes(random_cat_state(2, 2, 0), ProtocolSpec(ProtocolKind.BARRED, 2, 2))
        rows = cost_table(range(2, 6), range(1, 5), include_hybrids=True, cross_check=True)
        assert len(rows) == sum(len(protocols.protocol_specs(d, m)) for d in range(2, 6) for m in range(1, 5))


class TestTradeOffLaw:
    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_bits_plus_collectivity_is_conserved(self, d, m):
        specs = [
            ProtocolSpec(ProtocolKind.BELL, d, m),
            ProtocolSpec(ProtocolKind.GHZ, d, m),
            ProtocolSpec(ProtocolKind.BARRED, d, m),
        ] + [hybrid(d, m, k) for k in range(2, m + 2)]
        for spec in specs:
            bits = math.log2(nonzero_outcome_count(spec))
            arity = collective_measurement_arity(spec)
            assert bits + math.log2(d) * (arity - 2) == pytest.approx(
                (m + 1) * math.log2(d), abs=1e-12
            )
