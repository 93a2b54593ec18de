"""The sector backend of enumerate_outcomes and run_protocol against the
dense projection it replaced, which stays here as the reference."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catport import (
    CatState,
    ProtocolKind,
    ProtocolSpec,
    PureState,
    RegisterShape,
    compose_joint_state,
    correction_for,
    enumerate_outcomes,
    measurement_family,
    random_cat_state,
    run_protocol,
)
from catport import dense, protocols
from catport.checks import protocol_specs
from catport.protocols import PROB_FLOOR

# The acceptance grid plus two larger registers.
ORACLE_GRID = [
    (2, 2), (3, 2), (5, 2), (2, 3), (3, 3), (5, 3), (2, 4), (3, 4), (2, 6), (3, 5)
]
TOL = 1e-12


def dense_outcomes(cat, spec):
    """(label, probability, pre amps, post amps) per outcome by dense projection."""
    joint = compose_joint_state(cat, spec, max_dim=2**18)
    family = measurement_family(spec)
    bob_shape = RegisterShape(spec.d, spec.m)
    block = joint.amps.reshape(family.shape.total, bob_shape.total)
    branches = family.matrix().conj() @ block
    probabilities = np.einsum("ij,ij->i", branches.conj(), branches).real
    out = []
    for (label, _), branch, p in zip(family.states, branches, probabilities):
        if p > PROB_FLOOR:
            pre = PureState(bob_shape, branch / math.sqrt(p))
            post = correction_for(spec, label).apply(pre).amps
            out.append((label, float(p), pre.amps, post))
        else:
            zero = np.zeros(bob_shape.total)
            out.append((label, float(p), zero, zero))
    return out


def dense_sample(dense, seed):
    """The label the dense records' inverse CDF picks for ``seed``."""
    u = float(np.random.default_rng(seed).random())
    acc = 0.0
    for label, p, _, _ in dense:
        if p <= 0.0:
            continue
        acc += p
        if u < acc:
            return label
    return next(label for label, p, _, _ in reversed(dense) if p > 0.0)


def assert_matches_dense(cat, spec):
    records = enumerate_outcomes(cat, spec)
    dense = dense_outcomes(cat, spec)
    assert [r.label for r in records] == [label for label, *_ in dense]
    assert {r.label for r in records if r.probability == 0.0} == {
        label for label, p, *_ in dense if p <= PROB_FLOOR
    }
    for record, (_, p, pre, post) in zip(records, dense):
        assert abs(record.probability - p) < TOL
        assert np.abs(record.bob_pre_correction.amps - pre).max() < TOL
        assert np.abs(record.bob_post_correction.amps - post).max() < TOL
        # The post state is the record's own correction applied, bit for bit.
        applied = protocols.apply_correction(record).amps
        assert np.array_equal(record.bob_post_correction.amps, applied)
        if p > PROB_FLOOR:
            assert abs(record.fidelity - 1.0) < 1e-10


@pytest.mark.parametrize("d,m", ORACLE_GRID)
def test_every_ladder_spec_matches_dense_projection(d, m):
    for spec in protocol_specs(d, m):
        for seed in range(2):
            assert_matches_dense(random_cat_state(d, m, seed), spec)


SMALL_PAIRS = [
    (d, m) for d in range(2, 6) for m in range(1, 7) if d ** (2 * m + 1) <= 2**14
]


@st.composite
def specs_and_cats(draw):
    d, m = draw(st.sampled_from(SMALL_PAIRS))
    spec = draw(st.sampled_from(protocol_specs(d, m)))
    parts = draw(
        st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=2 * d, max_size=2 * d)
    )
    coeffs = np.array(parts[:d]) + 1j * np.array(parts[d:])
    norm = np.linalg.norm(coeffs)
    if norm < 1e-3:
        coeffs, norm = np.eye(d)[0].astype(complex), 1.0
    return spec, CatState(d, m, coeffs / norm)


@settings(max_examples=60, deadline=None)
@given(specs_and_cats())
def test_random_specs_and_cats_match_dense_projection(case):
    spec, cat = case
    assert_matches_dense(cat, spec)


@pytest.mark.parametrize(
    "spec,seeds",
    [
        (ProtocolSpec(ProtocolKind.GHZ, 3, 2), 10_000),
        (ProtocolSpec(ProtocolKind.BELL, 2, 3), 1_000),
        (ProtocolSpec(ProtocolKind.HYBRID, 3, 3, hybrid_k=3), 1_000),
    ],
)
def test_run_protocol_picks_the_dense_inverse_cdf_label(spec, seeds):
    cat = random_cat_state(spec.d, spec.m, 42)
    dense = dense_outcomes(cat, spec)
    for seed in range(seeds):
        assert run_protocol(cat, spec, seed).label == dense_sample(dense, seed)


def test_large_register_stays_sector_sized():
    spec = ProtocolSpec(ProtocolKind.BARRED, 2, 11)
    cat = random_cat_state(2, 11, 0)
    misses = protocols._family_cached.cache_info().misses
    tracemalloc.start()
    try:
        records = enumerate_outcomes(cat, spec, max_dim=2**23)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == 2**12
    assert sum(r.probability > 0.0 for r in records) == 4
    assert peak < 32 * 2**20  # the dense family alone is 256 MB
    assert protocols._family_cached.cache_info().misses == misses


def test_enumeration_and_sampling_never_touch_dense_registers(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("dense path called")

    monkeypatch.setattr(dense, "compose_joint_state", forbidden)
    monkeypatch.setattr(protocols, "measurement_family", forbidden)
    monkeypatch.setattr(protocols, "_family_cached", forbidden)
    for spec in protocol_specs(3, 3):
        cat = random_cat_state(3, 3, 1)
        enumerate_outcomes(cat, spec)
        run_protocol(cat, spec, 5)


def test_corrections_are_shared_per_weyl_pair():
    d, m = 3, 3
    distinct = {
        id(correction_for(spec, record.label))
        for spec in protocol_specs(d, m)
        for record in enumerate_outcomes(random_cat_state(d, m, 0), spec)
    }
    assert len(distinct) <= d * d
