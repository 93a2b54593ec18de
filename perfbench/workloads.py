"""Operations and workloads of the catport benchmark.

Every operation is one call a user makes: a library call for ``sample`` and
``verify``, one ``qt`` child process for ``cli``. An operation knows how to
check its own output and how to replay, on the same inputs, the public
sub-calls its call makes, so a traced run can split its time by layer.
"""

from __future__ import annotations

import csv
import json
import math
import os
import signal
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from catport import (
    DEFAULT_MAX_DIM,
    BasisFamily,
    CatState,
    ProtocolKind,
    ProtocolSpec,
    barred_equivalence_check,
    bases,
    build_basis,
    cli,
    compose_joint_state,
    core,
    correction_for,
    cost_of,
    cost_table,
    enumerate_outcomes,
    measurement_family,
    partial_trace_keep,
    protocols,
    random_cat_state,
    run_protocol,
    verify_orthonormal_complete,
)
from catport.analysis import nonzero_outcome_count
from catport.checks import protocol_specs, run_all_checks
from catport.protocols import PROB_FLOOR

SRC = Path(core.__file__).resolve().parents[1]

# The acceptance suite's and ``qt verify``'s tolerance on fidelities and on
# probability totals.
FIDELITY_TOL = 1e-10

# A qt child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 60

# (d, m) pairs whose joint register is at most this many amplitudes are small
# enough to probe every layer on, in a traced run.
PROBE_MAX_JOINT = 1 << 16

SAMPLE_GRID = [(2, 2), (3, 2), (5, 2), (2, 3), (3, 3), (2, 4)]
SAMPLE_BLOCK = 10  # consecutive run seeds per spec and pass

VERIFY_CHECKS = [(3, 3), (2, 6), (3, 4), (5, 3)]
VERIFY_SEEDS = 5
ACCEPTANCE_GRID = [(2, 2), (3, 2), (5, 2), (2, 3), (3, 3), (5, 3), (2, 4), (3, 4)]

# (command, protocol, d, m, k, format, extra flags)
CLI_MIX = [
    ("run", "barred", 2, 10, None, "json", ()),
    ("run", "bell", 3, 6, None, "json", ()),
    ("run", "ghz", 3, 6, None, "json", ()),
    ("run", "hybrid", 2, 10, 6, "json", ()),
    ("enumerate", "barred", 2, 10, None, "csv", ()),
    ("enumerate", "bell", 3, 6, None, "csv", ()),
    ("enumerate", "bell", 2, 8, None, "json", ()),
    ("enumerate", "hybrid", 3, 4, 3, "json", ()),
    ("run", "barred", 2, 11, None, "json", ("--max-dim", "8388608")),
    ("cost", None, 3, 4, None, "json", ()),
]


class CheckFailed(Exception):
    """An operation completed but its output is wrong."""


def child_env() -> dict:
    """The environment of a child process, importing this catport."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def make_cat(rng: np.random.Generator, d: int, m: int) -> CatState:
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return CatState(d, m, z / np.linalg.norm(z))


def clear_caches() -> None:
    """Forget every memoized result in catport, as a fresh process starts."""
    for module in (core, bases, protocols):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


@contextmanager
def cache_counts(tr):
    """Add the family-cache misses and correction-cache hits of the block to ``tr.counts``."""
    fam0 = protocols._family_cached.cache_info()
    cor0 = protocols.correction_for.cache_info()
    yield
    fam1 = protocols._family_cached.cache_info()
    cor1 = protocols.correction_for.cache_info()
    tr.counts["family_misses"] += fam1.misses - fam0.misses
    tr.counts["correction_hits"] += cor1.hits - cor0.hits
    tr.counts["correction_misses"] += cor1.misses - cor0.misses


def replay_enumerate(tr, cat, spec, max_dim=DEFAULT_MAX_DIM) -> None:
    """enumerate_outcomes with warm caches, then the two calls it makes."""
    tr.call("protocols.enumerate_outcomes", enumerate_outcomes, cat, spec, max_dim=max_dim)
    with tr.under():
        tr.call("core.compose_joint_state", compose_joint_state, cat, spec, max_dim=max_dim)
        tr.call("bases.measurement_family", measurement_family, spec)


def check_fidelity(probability: float, fidelity: float, what: str) -> None:
    if not probability > 0.0:
        raise CheckFailed(f"{what}: sampled an outcome of probability {probability!r}")
    if abs(fidelity - 1.0) > FIDELITY_TOL:
        raise CheckFailed(f"{what}: fidelity {fidelity!r}")


def check_outcomes(spec, probabilities, fidelities, what: str) -> None:
    """A full enumeration: complete, normalized, with the protocol's nonzero count."""
    if len(probabilities) != spec.d ** (spec.m + 1):
        raise CheckFailed(f"{what}: {len(probabilities)} outcomes")
    total = math.fsum(probabilities)
    if abs(total - 1.0) > FIDELITY_TOL:
        raise CheckFailed(f"{what}: probabilities sum to {total!r}")
    nonzero = [f for p, f in zip(probabilities, fidelities) if p > PROB_FLOOR]
    if len(nonzero) != nonzero_outcome_count(spec):
        raise CheckFailed(f"{what}: {len(nonzero)} nonzero outcomes")
    worst = max(abs(f - 1.0) for f in nonzero)
    if worst > FIDELITY_TOL:
        raise CheckFailed(f"{what}: fidelity off by {worst!r}")


class SampleOp:
    """One seeded ``run_protocol`` call."""

    kind = "sample"
    span = "protocols.run_protocol"

    def __init__(self, spec, cat, seed):
        self.spec, self.cat, self.seed = spec, cat, seed
        self.specs = self.enumerated = [spec]

    def __str__(self):
        return f"run_protocol({self.spec}, seed={self.seed})"

    def call(self):
        return run_protocol(self.cat, self.spec, self.seed)

    def check(self, record):
        check_fidelity(record.probability, record.fidelity, str(self))

    def replay(self, tr):
        replay_enumerate(tr, self.cat, self.spec)


class ChecksOp:
    """``run_all_checks(d, m, seeds)``, the work behind ``qt verify``."""

    kind = "checks"
    span = "checks.run_all_checks"

    def __init__(self, d, m, seeds):
        self.d, self.m, self.seeds = d, m, seeds
        collective = ProtocolSpec(
            ProtocolKind.GHZ if m >= 2 else ProtocolKind.BARRED, d, m
        )
        single = ProtocolSpec(ProtocolKind.BELL, d, 1)
        self.specs = protocol_specs(d, m)
        self.enumerated = [s for s in self.specs for _ in range(seeds + 1)]
        self.enumerated += [collective, single] * seeds

    def __str__(self):
        return f"run_all_checks({self.d}, {self.m}, seeds={self.seeds})"

    def call(self):
        return run_all_checks(self.d, self.m, self.seeds)

    def check(self, results):
        failed = [r.name for r in results if not r.passed]
        if failed or not results:
            raise CheckFailed(f"{self}: failed {failed}")

    def replay(self, tr):
        # The public calls run_all_checks makes, on the inputs it makes them
        # with. What is left of its time is its own correction-unitarity loop.
        d, m = self.d, self.m
        families = [(BasisFamily.BELL, None), (BasisFamily.PI, None),
                    (BasisFamily.GHZ, None), (BasisFamily.BELL_PROTOCOL_JOINT, m),
                    (BasisFamily.BARRED, m)]
        if m >= 2:
            families.append((BasisFamily.GHZ_PROTOCOL_JOINT, m))
        for family, fam_m in families:
            basis = tr.call("bases.build_basis", build_basis, family, d, fam_m)
            tr.call("bases.verify_orthonormal_complete", verify_orthonormal_complete, basis)
        cats = [random_cat_state(d, m, seed) for seed in range(self.seeds)]
        twisted = CatState(d, m, cats[0].coeffs * np.exp(0.73j))
        for spec in self.specs:
            tr.call("bases.measurement_family", measurement_family, spec)
            for cat in cats + [twisted]:
                replay_enumerate(tr, cat, spec)
        bell = self.specs[0]
        receiver = list(range(m + 2, 2 * m + 2))
        for cat in cats:
            joint = tr.call("core.compose_joint_state", compose_joint_state, cat, bell)
            tr.call("core.partial_trace_keep", partial_trace_keep, joint, receiver)
        for cat in cats:
            tr.call("protocols.barred_equivalence_check", barred_equivalence_check, cat, d, m)


class CostTableOp:
    """``cost_table`` with hybrids and cross-checking, at each (d, m) of a grid."""

    kind = "cost"
    span = "analysis.cost_table"

    def __init__(self, grid):
        self.grid = list(grid)
        self.specs = [s for d, m in self.grid for s in protocol_specs(d, m)]
        self.enumerated = list(self.specs)

    def __str__(self):
        return f"cost_table over {self.grid}, hybrids, cross_check"

    def call(self):
        # The grid is not a product of d and m values, so one table per point.
        return [row for d, m in self.grid
                for row in cost_table([d], [m], include_hybrids=True, cross_check=True)]

    def check(self, rows):
        # protocol_specs lists a point's specs in cost_table's row order.
        if [row.spec for row in rows] != self.specs:
            raise CheckFailed(f"{self}: rows {[str(r.spec) for r in rows]}")
        for row in rows:
            if (row.total_outcome_count != row.spec.d ** (row.spec.m + 1)
                    or row.nonzero_outcome_count != nonzero_outcome_count(row.spec)):
                raise CheckFailed(f"{self}: wrong counts in {row}")

    def replay(self, tr):
        for spec in self.specs:
            cat = random_cat_state(spec.d, spec.m, 0)  # cost_of's cross-check state
            tr.call("analysis.cost_of", cost_of, spec, cross_check=True)
            with tr.under():
                replay_enumerate(tr, cat, spec)


class CliOp:
    """One ``qt`` invocation. Its inputs reach it through a --coeffs-file.

    With ``spawn`` false the child process is skipped and only the
    in-process replay runs (a layer probe).
    """

    kind = "cli"
    span = "cli.qt"

    def __init__(self, workdir: Path, name: str, command, protocol, d, m, k, fmt,
                 extra=(), cat=None, seed=0, spawn=True):
        self.command, self.fmt, self.spawn = command, fmt, spawn
        self.out = workdir / f"{name}.out"
        self.main_out = workdir / f"{name}.main.out"
        self.err = workdir / f"{name}.err"
        self.max_dim = int(extra[1]) if extra[:1] == ("--max-dim",) else DEFAULT_MAX_DIM
        self.cat, self.seed = cat, seed
        if command == "cost":
            self.spec = None
            self.specs = [ProtocolSpec(ProtocolKind.HYBRID, d, m, hybrid_k=k)
                          for k in range(2, m + 2)]
            self.enumerated = []
            self.args = ["cost", "--d", str(d), "--m", str(m), "--hybrids"]
        else:
            self.spec = ProtocolSpec(ProtocolKind(protocol), d, m, hybrid_k=k)
            self.specs = self.enumerated = [self.spec]
            coeffs_file = workdir / f"{name}.cat.json"
            coeffs_file.write_text(json.dumps(
                {"d": d, "m": m, "coeffs": [[z.real, z.imag] for z in cat.coeffs.tolist()]}
            ), encoding="utf-8")
            self.args = [command, "--protocol", protocol, "--coeffs-file", str(coeffs_file),
                         "--seed", str(seed)]
            if k is not None:
                self.args += ["--k", str(k)]
        if fmt != "json":
            self.args += ["--format", fmt]
        self.args += list(extra)
        self.maxrss_kb = 0

    def __str__(self):
        return "qt " + " ".join(a for a in self.args if "/" not in a)

    def call(self):
        """Run the child; returns its exit code. Sets ``maxrss_kb``."""
        with open(self.err, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "catport", *self.args, "--out", str(self.out)],
                env=child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=err,
            )
            previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.maxrss_kb = usage.ru_maxrss
        return proc.returncode

    def check(self, returncode):
        if returncode != 0:
            tail = self.err.read_text(encoding="utf-8", errors="replace")[-300:]
            raise CheckFailed(f"{self}: exit code {returncode}: {tail}")
        self.check_output(self.out.read_text(encoding="utf-8"))

    def check_output(self, text: str) -> None:
        what = str(self)
        try:
            if self.fmt == "csv":
                rows = list(csv.DictReader(text.splitlines()))
                probabilities = [float(r["probability"]) for r in rows]
                fidelities = [float(r["fidelity"]) for r in rows]
                doc = None
            else:
                doc = json.loads(text)
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckFailed(f"{what}: unparsable output: {exc}") from exc
        if self.command == "cost":
            got = [(r["k"], r["nonzero_outcomes"], r["total_outcomes"]) for r in doc]
            want = [(s.hybrid_k, nonzero_outcome_count(s), s.d ** (s.m + 1)) for s in self.specs]
            if got != want:
                raise CheckFailed(f"{what}: rows {got}")
            return
        if doc is not None:
            coeffs = np.array([complex(re, im) for re, im in doc["coeffs"]])
            if np.abs(coeffs - self.cat.coeffs).max() > 1e-12:
                raise CheckFailed(f"{what}: echoed coefficients differ from the input")
        if self.command == "run":
            record = doc["record"]
            check_fidelity(record["probability"], record["fidelity"], what)
            return
        if doc is not None:
            probabilities = [r["probability"] for r in doc["records"]]
            fidelities = [r["fidelity"] for r in doc["records"]]
            if doc["nonzero_count"] != nonzero_outcome_count(self.spec):
                raise CheckFailed(f"{what}: nonzero_count {doc['nonzero_count']}")
        check_outcomes(self.spec, probabilities, fidelities, what)

    def replay(self, tr):
        # In-process, from empty caches, as each qt process starts: the whole
        # command, then the work inside it (cold family, cold corrections,
        # the library call); the rest is argument parsing, input loading and
        # serialization.
        clear_caches()
        with cache_counts(tr):
            code = tr.call("cli.main", cli.main, [*self.args, "--out", str(self.main_out)])
        if code != 0:
            raise CheckFailed(f"{self}: in-process main returned {code}")
        tr.counts["out_bytes"] += self.main_out.stat().st_size
        tr.counts["outputs"] += 1
        if not self.spawn:
            self.check_output(self.main_out.read_text(encoding="utf-8"))
        with tr.under():
            clear_caches()
            if self.spec is None:
                for spec in self.specs:
                    tr.call("analysis.cost_of", cost_of, spec, cross_check=False)
            else:
                family = tr.call("bases.family_build", measurement_family, self.spec)
                with tr.span("protocols.correction_for"):
                    for label in family.labels():
                        correction_for(self.spec, label)
                if self.command == "run":
                    tr.call("protocols.run_protocol", run_protocol, self.cat, self.spec,
                            self.seed, max_dim=self.max_dim)
                    with tr.under():
                        replay_enumerate(tr, self.cat, self.spec, self.max_dim)
                else:
                    replay_enumerate(tr, self.cat, self.spec, self.max_dim)
        clear_caches()  # release the family before the next child needs the memory


class Workload:
    """A fixed, seeded mix of operations, repeated pass after pass."""

    def __init__(self, name, seed, workdir: Path):
        self.name = name
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        if name == "sample":
            specs = [s for d, m in SAMPLE_GRID for s in protocol_specs(d, m)]
            self._sample = [(s, make_cat(rng, s.d, s.m), int(rng.integers(1 << 31)))
                            for s in specs]
            self._ops = None
        elif name == "verify":
            self._ops = [ChecksOp(d, m, VERIFY_SEEDS) for d, m in VERIFY_CHECKS]
            self._ops.append(CostTableOp(ACCEPTANCE_GRID))
        elif name == "cli":
            self._ops = []
            for i, (command, protocol, d, m, k, fmt, extra) in enumerate(CLI_MIX):
                cat = make_cat(rng, d, m) if protocol else None
                self._ops.append(CliOp(workdir, f"cli{i}", command, protocol, d, m, k, fmt,
                                       extra, cat=cat, seed=int(rng.integers(1 << 31))))
        else:
            raise ValueError(f"unknown workload {name!r}")
        # One input state per spec, for warm-up and probes of specs the
        # mix reaches only through calls that draw their own states.
        self.cats = {}
        for op in self.ops(0):
            cat = getattr(op, "cat", None)
            for spec in op.specs + op.enumerated:
                key = (spec.d, spec.m)
                self.cats.setdefault(key, cat if cat is not None else make_cat(rng, *key))

    def ops(self, pass_index: int) -> list:
        if self._ops is not None:
            return self._ops
        base = pass_index * SAMPLE_BLOCK
        return [SampleOp(spec, cat, seed + base + j)
                for spec, cat, seed in self._sample for j in range(SAMPLE_BLOCK)]

    def specs(self) -> list:
        """Distinct specs the mix enumerates, in first-use order."""
        seen = {}
        for op in self.ops(0):
            for spec in op.enumerated:
                seen.setdefault(spec, None)
        return list(seen)

    def warm_up(self) -> None:
        """Fill catport's caches the way a pass does (no-op for cli: each qt starts cold)."""
        if self.name == "cli":
            return
        for spec in self.specs():
            enumerate_outcomes(self.cats[(spec.d, spec.m)], spec)

    def probe_ops(self) -> list:
        """Small calls of the layers this workload's mix does not reach, on its inputs."""
        kinds = {op.kind for op in self.ops(0)}
        small = [s for s in self.specs() if s.d ** (2 * s.m + 1) <= PROBE_MAX_JOINT]
        pairs = list(dict.fromkeys((s.d, s.m) for s in small))
        probes = []
        if "checks" not in kinds:
            probes += [ChecksOp(d, m, 1) for d, m in pairs]
        if "cost" not in kinds:
            probes.append(CostTableOp(pairs))
        if "sample" not in kinds:
            probes += [SampleOp(s, self.cats[(s.d, s.m)], 0) for s in small]
        if "cli" not in kinds:
            probes += [CliOp(self.workdir, f"probe{i}", "run", s.kind.value, s.d, s.m,
                             s.hybrid_k, "json", cat=self.cats[(s.d, s.m)], spawn=False)
                       for i, s in enumerate(small)]
        return probes
