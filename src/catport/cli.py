"""Command-line front end.

Subcommands: ``run`` (sample one outcome), ``enumerate`` (all outcomes),
``verify`` (invariant suites), ``cost`` (classical-communication table).
Output is JSON or CSV, byte-stable for identical invocations: floats are
rendered with Python's shortest round-trip representation and complex
amplitudes as [re, im] pairs.

Exit codes: 0 success, 1 malformed flags or input, 2 verification failure,
3 size-cap violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

import numpy as np

from .analysis import cost_of
from .checks import run_all_checks
from .core import DEFAULT_MAX_DIM, CatState, SizeCapError, random_cat_state
from .protocols import (
    ProtocolKind,
    ProtocolSpec,
    enumerate_outcomes,
    protocol_specs,
    run_protocol,
)

NORM_INPUT_TOL = 1e-9


class CliError(Exception):
    """Malformed flags or input files; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # No prefix matching, or ``verify --seed`` would resolve to ``--seeds``.
    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise CliError(message)


def _int_at_least(low: int, what: str):
    """An argparse type for integers >= ``low``, named ``what`` in errors."""

    def parse(text: str) -> int:
        try:
            if int(text) >= low:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"invalid {what} int value: {text!r}")

    return parse


def _complex_pairs(values: np.ndarray) -> list[list[float]]:
    return values.view(np.float64).reshape(-1, 2).tolist()


def load_cat_file(path: str) -> CatState:
    """Read a {"d", "m", "coeffs": [[re, im], ...]} JSON file.

    Norm drift up to 1e-9 is tolerated and renormalized away; anything
    larger is rejected as a malformed state.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        d, m = doc["d"], doc["m"]
        coeffs = np.array([complex(re, im) for re, im in doc["coeffs"]])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CliError(f"cannot read cat-state file {path}: {exc}") from exc
    # Exact type test: bool is an int subclass, and 2.9 or "3" must not truncate.
    if type(d) is not int or type(m) is not int:
        raise CliError(f"cat-state file {path} needs integer d and m, got {d!r} and {m!r}")
    if coeffs.shape != (d,):
        raise CliError(f"cat-state file lists {coeffs.size} coefficients for d={d}")
    if not np.isfinite(coeffs).all():
        raise CliError(f"cat-state file {path} has non-finite coefficients")
    nrm = float(np.linalg.norm(coeffs))
    if abs(nrm - 1.0) > NORM_INPUT_TOL:
        raise CliError(f"cat-state coefficients have norm {nrm!r}")
    return CatState(d, m, coeffs / nrm)


def _build_spec(args) -> ProtocolSpec:
    kind = ProtocolKind(args.protocol)
    k = args.k if kind is ProtocolKind.HYBRID else None
    if kind is not ProtocolKind.HYBRID and args.k is not None:
        raise CliError("--k only applies to the hybrid protocol")
    if kind is ProtocolKind.HYBRID and args.k is None:
        raise CliError("the hybrid protocol requires --k")
    try:
        return ProtocolSpec(kind, args.d, args.m, hybrid_k=k)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _resolve_cat(args) -> CatState:
    if args.coeffs_file is not None:
        cat = load_cat_file(args.coeffs_file)
        if args.d is not None and args.d != cat.d:
            raise CliError(f"--d {args.d} disagrees with file (d={cat.d})")
        if args.m is not None and args.m != cat.m:
            raise CliError(f"--m {args.m} disagrees with file (m={cat.m})")
        args.d, args.m = cat.d, cat.m
        return cat
    if args.d is None or args.m is None:
        raise CliError("--d and --m are required without --coeffs-file")
    return random_cat_state(args.d, args.m, args.seed)


def _record_doc(record, bits: float) -> dict:
    return {
        "label": record.label.to_json(),
        "label_str": str(record.label),
        "probability": record.probability,
        "fidelity": record.fidelity,
        "classical_bits": bits,
        "bob_pre": _complex_pairs(record.bob_pre_correction.amps),
        "bob_post": _complex_pairs(record.bob_post_correction.amps),
    }


def _header_doc(args, spec: ProtocolSpec, cat: CatState, bits: float) -> dict:
    return {
        "protocol": spec.kind.value,
        "d": spec.d,
        "m": spec.m,
        "hybrid_k": spec.hybrid_k,
        "seed": args.seed,
        "classical_bits": bits,
        "coeffs": _complex_pairs(cat.coeffs),
    }


def _csv_text(header, rows) -> str:
    """One CSV table; ``csv`` writes None as an empty cell and floats by repr."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _records_csv(records, bits: float) -> str:
    return _csv_text(
        ["label", "probability", "fidelity", "classical_bits"],
        ([str(r.label), r.probability, r.fidelity, bits] for r in records),
    )


def _cost_doc(row) -> dict:
    return {
        "protocol": row.spec.kind.value,
        "d": row.spec.d,
        "m": row.spec.m,
        "k": row.spec.hybrid_k,
        "total_outcomes": row.total_outcome_count,
        "nonzero_outcomes": row.nonzero_outcome_count,
        "classical_bits": row.classical_bits,
        "classical_bits_ceil": row.classical_bits_ceil,
        "collective_arity": row.collective_measurement_arity,
    }


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        Path(out_path).write_bytes(text.encode("utf-8"))
    except OSError as exc:
        raise CliError(f"cannot write {out_path}: {exc.strerror or exc}") from exc


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qt", description="Cat-like state teleportation simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    common = _Parser(add_help=False)
    common.add_argument("--d", type=int, help="local dimension of each qudit")
    common.add_argument("--m", type=int, help="number of particles in the cat state")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", help="write output to this path instead of stdout")

    capped = _Parser(add_help=False)
    capped.add_argument(
        "--max-dim", type=_int_at_least(1, "positive"), default=DEFAULT_MAX_DIM,
        help="dense register size cap (amplitudes)",
    )

    proto = _Parser(add_help=False)
    proto.add_argument(
        "--seed", type=_int_at_least(0, "non-negative"), default=0,
        help="RNG seed, any non-negative integer",
    )
    proto.add_argument(
        "--protocol", required=True, choices=[kind.value for kind in ProtocolKind]
    )
    proto.add_argument("--k", type=int, help="hybrid ladder position, 2..m+1")
    proto.add_argument("--coeffs-file", help="JSON cat-state file; omit for a seeded random cat")

    sub.add_parser("run", parents=[common, capped, proto], help="sample one outcome")
    sub.add_parser("enumerate", parents=[common, capped, proto], help="list every outcome")

    verify = sub.add_parser("verify", parents=[common, capped], help="run the invariant suites")
    verify.add_argument("--seeds", type=int, default=5, help="number of random cat states")

    cost = sub.add_parser("cost", parents=[common], help="classical-communication table")
    cost.add_argument(
        "--hybrids", action="store_true",
        help="emit the hybrid ladder k=2..m+1 instead of the named protocols",
    )
    return parser


def _require_dm(args) -> None:
    if args.d is None or args.m is None:
        raise CliError("--d and --m are required")


def _cmd_run(args) -> int:
    cat = _resolve_cat(args)
    spec = _build_spec(args)
    bits = cost_of(spec, cross_check=False).classical_bits
    record = run_protocol(cat, spec, args.seed, max_dim=args.max_dim)
    doc = _header_doc(args, spec, cat, bits)
    doc["record"] = _record_doc(record, bits)
    if args.format == "csv":
        _emit(_records_csv([record], bits), args.out)
    else:
        _emit(_json_text(doc), args.out)
    return 0


def _cmd_enumerate(args) -> int:
    cat = _resolve_cat(args)
    spec = _build_spec(args)
    cost = cost_of(spec, cross_check=False)
    bits = cost.classical_bits
    records = enumerate_outcomes(cat, spec, max_dim=args.max_dim)
    if args.format == "csv":
        _emit(_records_csv(records, bits), args.out)
        return 0
    doc = _header_doc(args, spec, cat, bits)
    doc["nonzero_count"] = cost.nonzero_outcome_count
    doc["records"] = [_record_doc(r, bits) for r in records]
    _emit(_json_text(doc), args.out)
    return 0


def _cmd_verify(args) -> int:
    _require_dm(args)
    if args.seeds < 1:
        raise CliError("--seeds must be at least 1")
    results = run_all_checks(args.d, args.m, args.seeds, max_dim=args.max_dim)
    ok = all(r.passed for r in results)
    checks = [r.to_json() for r in results]
    if args.format == "csv":
        _emit(_csv_text(list(checks[0]), [list(c.values()) for c in checks]), args.out)
    else:
        doc = {
            "ok": ok,
            "d": args.d,
            "m": args.m,
            "seeds": args.seeds,
            "failures": [r.name for r in results if not r.passed],
            "checks": checks,
        }
        _emit(_json_text(doc), args.out)
    return 0 if ok else 2


def _cmd_cost(args) -> int:
    _require_dm(args)
    docs = [
        _cost_doc(cost_of(spec, cross_check=False))
        for spec in protocol_specs(args.d, args.m)
        if (spec.kind is ProtocolKind.HYBRID) == args.hybrids
    ]
    if args.format == "csv":
        _emit(_csv_text(list(docs[0]), [list(doc.values()) for doc in docs]), args.out)
    else:
        _emit(_json_text(docs), args.out)
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "enumerate": _cmd_enumerate,
    "verify": _cmd_verify,
    "cost": _cmd_cost,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, SizeCapError) else 1


if __name__ == "__main__":
    sys.exit(main())
