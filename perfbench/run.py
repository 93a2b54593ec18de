"""Benchmark of catport: one closed-loop client driving the library or ``qt``.

Run from the repository root:

    python3 perfbench/run.py --workload {sample,cli,verify} --seed N --seconds S --trace {0,1}

The workloads, metrics and layer replays are described in perfbench/README.md.
Report lines start with '#'; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones. The
run record and the spans of a traced run are written to .bench_out/.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 5
# op_tail_ms is the latency at the highest of these percentiles that has at
# least 10 operations beyond it, so a run makes at least 20 operations.
# Deeper percentiles read a handful of the slowest operations, and those
# spread too widely between runs on a shared machine.
TAIL_PERCENTILES = (99, 90, 50)
MIN_OPS = 20

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sample", "cli", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def seconds_until_ready(cmd) -> tuple[float, str]:
    """Wall time from starting ``cmd`` until it prints its first line, or exits."""
    from workloads import child_env

    start = time.perf_counter()
    with subprocess.Popen(cmd, env=child_env(), stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    if code != 0:
        raise RuntimeError(f"{cmd[1:]} exited with {code}")
    return elapsed, (line + rest).decode()


def setup_seconds(args) -> list[float]:
    """Set-up of fresh processes: import, plus the warm-up pass for library workloads."""
    if args.workload == "cli":
        cmd = [sys.executable, "-c", "import catport"]
    else:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-probe"]
    return [seconds_until_ready(cmd)[0] for _ in range(SETUP_PROBES)]


def cli_import_ms() -> float:
    code = ("import time; t = time.perf_counter(); import catport.cli; "
            "print(time.perf_counter() - t)")
    runs = [float(seconds_until_ready([sys.executable, "-c", code])[1])
            for _ in range(SETUP_PROBES)]
    return 1e3 * statistics.median(runs)


def blas_info(numpy) -> dict:
    info = {"threads": None}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def metadata(numpy) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        git_sha = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_info(numpy),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


class Loop:
    """Latencies and failures of the operations one phase ran."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.passes = 0
        self.attempted = 0
        self.maxrss_kb = 0

    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)


def run_op(op, loop: Loop, tr=None) -> None:
    loop.attempted += 1
    start = time.perf_counter()
    try:
        if tr is None:
            out = op.call()
        else:
            from workloads import cache_counts

            with cache_counts(tr), tr.span(op.span) as sid:
                out = op.call()
    except Exception as exc:  # a failed operation is counted, not fatal
        loop.latencies.append(time.perf_counter() - start)
        loop.failures.append(f"{op}: {exc!r}")
        return
    loop.latencies.append(time.perf_counter() - start)
    loop.maxrss_kb = max(loop.maxrss_kb, getattr(op, "maxrss_kb", 0))
    try:
        op.check(out)
        if tr is not None:
            with tr.under(sid):
                op.replay(tr)
    except Exception as exc:
        loop.failures.append(f"{op}: {exc!r}")


def run_pass(workload, index: int, loop: Loop, tr=None) -> None:
    for op in workload.ops(index):
        if tr is not None:
            tr.op_id = len(loop.latencies)
        run_op(op, loop, tr)
    loop.passes += 1


def run_passes(workload, loop: Loop, seconds: float) -> None:
    """Whole passes of the mix, until ``seconds`` have passed and MIN_OPS have run."""
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(loop.latencies) < MIN_OPS:
        run_pass(workload, loop.passes, loop)


def end_to_end(args, workload) -> tuple[dict, Loop, dict]:
    setup = setup_seconds(args)
    workload.warm_up()
    loop = Loop()
    run_passes(workload, loop, args.seconds)
    latencies = sorted(loop.latencies)
    n = len(latencies)
    tail_p = next(p for p in TAIL_PERCENTILES if n - math.ceil(p * n / 100) >= 10)
    if args.workload == "cli":
        peak_kb = loop.maxrss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": loop.ops_per_s(),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * latencies[math.ceil(tail_p * n / 100) - 1],
        "peak_rss_mb": peak_kb / 1024,
    }
    notes = {
        "setup_runs_s": setup,
        "ops": n,
        "passes": loop.passes,
        "op_tail_percentile": tail_p,
        "failed_frac": len(loop.failures) / n,
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}, loop, notes


def computed_counts(workload) -> dict:
    """Counts that follow from the mix alone; they repeat exactly."""
    from catport.analysis import nonzero_outcome_count

    ops = workload.ops(0)
    specs = [s for op in ops for s in op.enumerated]
    outcomes = sum(s.d ** (s.m + 1) for s in specs)
    return {
        "core.joint_bytes": (max((16 * s.d ** (2 * s.m + 1) for s in specs), default=0), "B"),
        "bases.family_bytes": (max((32 * s.d ** (2 * s.m + 2) for s in specs), default=0), "B"),
        "protocols.outcomes_per_op": (outcomes / len(ops), "count"),
        "protocols.nonzero_ratio": (
            sum(nonzero_outcome_count(s) for s in specs) / outcomes if outcomes else 0.0, "1"),
        "protocols.projection_flops": (
            sum(8 * s.d ** (2 * s.m + 2) * s.d ** s.m for s in specs) / len(ops), "flop"),
    }


COMPUTED = ("core.joint_bytes", "bases.family_bytes", "protocols.outcomes_per_op",
            "protocols.nonzero_ratio", "protocols.projection_flops",
            "bases.family_cache_misses", "protocols.correction_cache_hit_ratio")


def per_layer(args, workload) -> tuple[dict, Loop, dict]:
    from catport.protocols import measurement_family
    from tracing import Tracer
    from workloads import CliOp, clear_caches

    tr = Tracer()
    import_ms = cli_import_ms()
    if args.workload != "cli":  # cli ops build their families cold inside each op
        clear_caches()
        for spec in workload.specs():
            tr.call("bases.family_build", measurement_family, spec)
    workload.warm_up()

    # Untraced and traced passes alternate, so a drift in the machine's speed
    # falls on both sides of the tracing overhead alike.
    untraced, traced = Loop(), Loop()
    traced_from = len(tr.spans)
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        run_pass(workload, untraced.passes + traced.passes, untraced)
        run_pass(workload, untraced.passes + traced.passes, traced, tr)
    counts = dict(tr.counts)

    probes_from = len(tr.spans)
    probes = Loop()
    for op in workload.probe_ops():
        tr.op_id = "probe"
        if isinstance(op, CliOp):
            probes.attempted += 1
            try:
                op.replay(tr)
            except Exception as exc:
                probes.failures.append(f"{op}: {exc!r}")
        else:
            run_op(op, probes, tr)

    # A layer call the mix makes is measured there; the rest on the probes.
    stats = tr.per_name(probes_from)
    stats.update(tr.per_name(0, probes_from))

    def ms_per_call(name, own=False):
        calls, total, own_s = stats.get(name, (0, 0.0, 0.0))
        return 1e3 * (own_s if own else total) / calls if calls else 0.0

    outputs = counts if counts.get("outputs") else tr.counts
    out_bytes = outputs["out_bytes"] / max(outputs["outputs"], 1)
    lookups = counts.get("correction_hits", 0) + counts.get("correction_misses", 0)
    values = {
        "core.compose_joint_state_ms": (ms_per_call("core.compose_joint_state"), "ms"),
        "core.partial_trace_keep_ms": (ms_per_call("core.partial_trace_keep"), "ms"),
        "bases.family_build_ms": (ms_per_call("bases.family_build"), "ms"),
        "bases.family_cache_misses": (counts.get("family_misses", 0) / traced.passes, "count"),
        "bases.verify_orthonormal_complete_ms": (
            ms_per_call("bases.verify_orthonormal_complete"), "ms"),
        "protocols.enumerate_outcomes_ms": (ms_per_call("protocols.enumerate_outcomes"), "ms"),
        "protocols.run_protocol_ms": (ms_per_call("protocols.run_protocol"), "ms"),
        "protocols.correction_cache_hit_ratio": (
            counts.get("correction_hits", 0) / lookups if lookups else 0.0, "1"),
        "protocols.barred_equivalence_check_ms": (
            ms_per_call("protocols.barred_equivalence_check"), "ms"),
        "checks.run_all_checks_ms": (ms_per_call("checks.run_all_checks"), "ms"),
        "checks.self_ms": (ms_per_call("checks.run_all_checks", own=True), "ms"),
        "analysis.cost_of_ms": (ms_per_call("analysis.cost_of"), "ms"),
        "cli.import_ms": (import_ms, "ms"),
        "cli.main_ms": (ms_per_call("cli.main"), "ms"),
        "cli.serialize_ms": (ms_per_call("cli.main", own=True), "ms"),
        "cli.out_bytes": (out_bytes, "B"),
        "trace.untraced_ops_per_s": (untraced.ops_per_s(), "1/s"),
        "trace.traced_ops_per_s": (traced.ops_per_s(), "1/s"),
        "trace.overhead_ops_per_s": (untraced.ops_per_s() - traced.ops_per_s(), "1/s"),
    }
    values.update(computed_counts(workload))
    layer_self = tr.layer_self_ms(len(traced.latencies), traced_from, probes_from)
    loop = Loop()
    loop.attempted = untraced.attempted + traced.attempted + probes.attempted
    loop.failures = untraced.failures + traced.failures + probes.failures
    notes = {
        "pass_pairs": traced.passes,
        "traced_ops": len(traced.latencies),
        "probe_ops": probes.attempted,
        "layer_self_ms_per_op": layer_self,
        "computed": list(COMPUTED),
    }
    tr.write(OUT / f"spans-{args.workload}-seed{args.seed}.json",
             {"workload": args.workload, "seed": args.seed, "layer_self_ms_per_op": layer_self,
              "traced_spans": [traced_from, probes_from]})
    return values, loop, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "catport" / "__init__.py").is_file():
        print(f"error: no catport sources under {SRC}", file=sys.stderr)
        return 2
    # One thread generates the load. A multi-threaded BLAS would spin a
    # second thread after every call, on a box with few cores, which
    # measures the spinning as much as the program.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import catport

    if not Path(catport.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported catport from {catport.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy
    from workloads import Workload

    OUT.mkdir(exist_ok=True)
    workload = Workload(args.workload, args.seed, OUT)
    if args.setup_probe:
        workload.warm_up()
        print("ready", flush=True)
        return 0

    meta = metadata(numpy)
    measure = per_layer if args.trace else end_to_end
    values, loop, notes = measure(args, workload)
    attempted = loop.attempted
    failed = len(loop.failures)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "meta": meta, "notes": notes,
              "failures": loop.failures[:50], "result": result}
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace}")
    print(f"# meta {json.dumps(meta)}")
    print(f"# notes {json.dumps(notes)}")
    for failure in loop.failures[:5]:
        print(f"# FAILED {failure}")
    for name, (value, unit) in values.items():
        label = " (computed)" if name in COMPUTED else ""
        print(f"# {name} = {value:.6g} {unit}{label}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
