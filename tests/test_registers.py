"""The register store: one register per (d, m) holds everything the engine
keeps between calls, and one store keeps the registers within a byte budget."""

import gc
import hashlib
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from test_sector_oracle import ORACLE_GRID

from catport import analysis, bases, checks, cli, core, protocols
from catport.analysis import cost_table
from catport.checks import run_all_checks
from catport.core import CatState, random_cat_state
from catport.protocols import (
    REGISTER_BYTES,
    ProtocolKind,
    ProtocolSpec,
    Register,
    barred_equivalence_check,
    check_size,
    correction_for,
    enumerate_outcomes,
    protocol_specs,
    run_protocol,
)


@pytest.fixture(autouse=True)
def fresh_store():
    Register.cache_clear()
    correction_for.cache_clear()
    yield
    Register.cache_clear()
    correction_for.cache_clear()


def counted_bytes(register):
    """What the register should count: its floor and each distinct array
    buffer of its entries once."""
    buffers = {id(b): b.nbytes for b in protocols._buffers(list(register.entries.values()))}
    return REGISTER_BYTES + sum(buffers.values())


def test_a_register_counts_each_buffer_once():
    register = Register.of(3, 3)
    plan = register.plan()
    # The positions and the plan hold the same column arrays.
    columns = [entry for key, entry in register.entries.items() if key[0] == "column"]
    assert all(any(c is column for position in plan.positions for c in position.columns)
               for column in columns)
    assert register.nbytes == counted_bytes(register)
    assert Register._kept_bytes == sum(r.nbytes for r in Register._kept.values())


def test_least_recently_used_registers_go_first(monkeypatch):
    monkeypatch.setattr(protocols, "KEEP_BYTES", 3 * REGISTER_BYTES)
    for m in (1, 2, 3):
        Register.of(2, m)
    Register.of(2, 1)
    kept = Register.of(2, 4)
    assert list(Register._kept) == [(2, 3), (2, 1), (2, 4)]
    # An entry that takes the store past the budget drops the oldest first.
    kept.pair_tables()
    assert list(Register._kept) == [(2, 1), (2, 4)]
    # One register over the budget alone drops itself, and still serves its caller.
    rung = protocol_specs(2, 4)[0].rung
    monkeypatch.setattr(protocols, "KEEP_BYTES", REGISTER_BYTES)
    assert kept.column(rung) is kept.column(rung)
    assert list(Register._kept) == []
    assert Register._kept_bytes == 0


def record_digest(records):
    """One digest of every field of ``records``; each array object is read once."""
    digest, arrays = hashlib.sha256(), {}
    for r in records:
        digest.update(repr((str(r.label), r.probability, r.fidelity)).encode())
        for array in (r.bob_pre_correction.amps, r.bob_post_correction.amps,
                      r.correction.perm, r.correction.phase_exp):
            if id(array) not in arrays:
                arrays[id(array)] = hashlib.sha256(array.tobytes()).digest()
            digest.update(arrays[id(array)])
    return digest.hexdigest()


def test_held_memory_stays_under_the_budget(monkeypatch):
    # Barred (2, 14) builds four corrections of 2**14 entries, 2 MB in all.
    spec, max_dim = ProtocolSpec(ProtocolKind.BARRED, 2, 14), 2**29
    cat = random_cat_state(2, 14, 0)
    expected = record_digest(enumerate_outcomes(cat, spec, max_dim=max_dim))
    Register.cache_clear()
    budget = 1 << 20
    monkeypatch.setattr(protocols, "KEEP_BYTES", budget)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        records = enumerate_outcomes(cat, spec, max_dim=max_dim)
        shared = {}
        for record in records[: spec.rung.live]:
            objects = (record.correction, record.bob_pre_correction, record.bob_post_correction)
            first = shared.setdefault(protocols._label_pair(spec, record.label), objects)
            assert all(a is b for a, b in zip(objects, first)), record.label
        assert len(shared) == 4
        got = record_digest(records)
        del records, shared, objects, first, record
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held < budget, held
    assert got == expected


ENTRIES_BUILT_BY = [(protocols, "_build_correction"), (protocols, "_check_plan"),
                    (protocols, "_ladder_positions"), (protocols, "_pair_tables"),
                    (checks, "_basis_error"), (protocols, "_protocol_specs"),
                    (protocols, "_live_column")]


@pytest.mark.parametrize("d, m", ORACLE_GRID)
def test_warm_calls_build_nothing(monkeypatch, d, m):
    cat = random_cat_state(d, m, 0)

    def calls():
        for spec in protocol_specs(d, m):
            enumerate_outcomes(cat, spec)
            run_protocol(cat, spec, 3)
        return run_all_checks(d, m, 2)

    first = calls()
    built = []
    for owner, name in ENTRIES_BUILT_BY:
        build = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, b=build, n=name: built.append(n) or b(*args))
    assert calls() == first
    assert built == []


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("d, m", [(3.0, 2), (True, 2), (np.float64(3), 2),
                                  (3, 2.0), (3, True), (3, np.float64(2)), (1, 2), (2, 0)])
def test_non_integer_dimensions_are_rejected_cold_and_warm(d, m, warm):
    cat = random_cat_state(3, 2, 0)
    if warm:
        protocol_specs(3, 2)
        run_all_checks(3, 2, 1)
        barred_equivalence_check(cat, 3, 2)
    kept = list(Register._kept)
    calls = [lambda: protocol_specs(d, m), lambda: run_all_checks(d, m, 1),
             lambda: barred_equivalence_check(cat, d, m), lambda: Register.of(d, m),
             lambda: check_size(d, m, 2**60), lambda: random_cat_state(d, m, 0),
             # Coefficients sized for int(d), so only the dimensions are wrong.
             lambda: CatState(d, m, np.eye(int(d))[0])]
    if type(d) is int and type(m) is int:  # out of range
        message = (f"local dimension must be >= 2, got {d}" if d < 2
                   else f"need at least one particle, got {m}")
        calls.append(lambda: cost_table([d], [m]))
    else:
        name, value = ("d", d) if m == 2 and type(m) is int else ("m", m)
        message = f"{name} must be an integer, got {value!r}"
    with pytest.raises(ValueError) as spec_error:
        ProtocolSpec(ProtocolKind.BELL, d, m)
    assert str(spec_error.value) == message
    for call in calls:
        with pytest.raises(ValueError) as error:
            call()
        assert str(error.value) == message
    assert list(Register._kept) == kept


def test_numpy_integer_dimensions_still_work():
    cat = random_cat_state(3, 2, 0)
    d, m = np.int64(3), np.int32(2)
    assert protocol_specs(d, m) == protocol_specs(3, 2)
    assert run_all_checks(d, m, np.int64(2)) == run_all_checks(3, 2, 2)
    assert barred_equivalence_check(cat, d, m) == barred_equivalence_check(cat, 3, 2)
    assert set(Register._kept) == {(3, 1), (3, 2)}
    assert all(type(key) is int for keys in Register._kept for key in keys)
    assert check_size(d, m, 2**60) == (3, 2)
    assert all(type(value) is int for value in check_size(d, m, 2**60))
    for state in (CatState(d, m, cat.coeffs), random_cat_state(d, m, 0)):
        assert type(state.d) is type(state.m) is int
    assert np.array_equal(random_cat_state(d, m, 0).coeffs, cat.coeffs)


def test_a_module_walk_of_cache_clear_leaves_nothing_built(monkeypatch):
    run_all_checks(3, 2, 1)
    # The walk of clear_caches in perfbench/workloads.py, which must find
    # every table: a certificate left behind would make the benchmark's
    # cold passes warm.
    for module in (core, bases, protocols):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    built = []
    terms = bases.sector_terms
    monkeypatch.setattr(bases, "sector_terms", lambda *args: built.append(args) or terms(*args))
    run_all_checks(3, 2, 1)
    assert built


def test_the_engine_keeps_no_other_functools_cache():
    # correction_for and _family_cached stay for the benchmark's traced counts.
    cached = set()
    for module in (core, bases, protocols, checks, analysis, cli):
        for name, value in vars(module).items():
            members = vars(value).items() if isinstance(value, type) else [(name, value)]
            cached.update(member for member, entry in members if hasattr(entry, "cache_info"))
    assert cached == {"correction_for", "_family_cached"}


def test_threads_share_the_store(monkeypatch):
    # A budget of a few registers, so lookups, builds, counts and drops interleave.
    monkeypatch.setattr(protocols, "KEEP_BYTES", 1 << 17)
    points = [(2, 6), (3, 4), (2, 8), (3, 3), (5, 2)]
    errors = []

    def work(worker):
        try:
            for round in range(3):
                for d, m in points:
                    specs = protocol_specs(d, m)
                    spec = specs[(worker + round) % len(specs)]
                    records = enumerate_outcomes(random_cat_state(d, m, worker), spec)
                    corrections = {}
                    for record in records:
                        pair = protocols._label_pair(spec, record.label)
                        assert corrections.setdefault(pair, record.correction) is record.correction
                    assert run_protocol(random_cat_state(d, m, worker), spec, round).fidelity > 0.999
        except BaseException as error:  # reported by the main thread
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(worker,)) for worker in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert Register._kept_bytes == sum(r.nbytes for r in Register._kept.values())
    assert Register._kept_bytes <= protocols.KEEP_BYTES
    assert all(r.nbytes == counted_bytes(r) for r in Register._kept.values())
