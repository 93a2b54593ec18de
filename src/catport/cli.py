"""Command-line front end.

Subcommands: ``run`` (sample one outcome), ``enumerate`` (all outcomes),
``verify`` (invariant suites), ``cost`` (classical-communication table).
Output is JSON or CSV, byte-stable for identical invocations: floats are
rendered with Python's shortest round-trip representation and complex
amplitudes as [re, im] pairs. ``run`` and ``enumerate`` write their output
as a stream, in the layout of ``json.dumps(doc, indent=2)``, rendering each
receiver state that records share once.

Exit codes: 0 success, 1 malformed flags or input, or output that cannot be
written, 2 verification failure, 3 size-cap violation or out of memory.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import os
import sys
from collections.abc import Iterable, Iterator
from itertools import islice
from pathlib import Path

import numpy as np

from .analysis import cost_of
from .checks import run_all_checks
from .core import DEFAULT_MAX_DIM, CatState, SizeCapError, random_cat_state
from .protocols import (
    ProtocolKind,
    ProtocolSpec,
    check_size,
    enumerate_outcomes,
    protocol_specs,
    run_protocol,
)

NORM_INPUT_TOL = 1e-9
CSV_BATCH_ROWS = 4096  # rows rendered per written piece


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


def load_cat_file(path: str) -> CatState:
    """Read a {"d", "m", "coeffs": [[re, im], ...]} JSON file.

    Norm drift up to 1e-9 is tolerated and renormalized away; anything
    larger is rejected as a malformed state.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        d, m = doc["d"], doc["m"]
        coeffs = np.array([complex(re, im) for re, im in doc["coeffs"]])
    except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
        raise CliError(f"cannot read cat-state file {path}: {exc}") from exc
    # Exact type test: bool is an int subclass, and 2.9 or "3" must not truncate.
    if type(d) is not int or type(m) is not int:
        raise CliError(f"cat-state file {path} needs integer d and m, got {d!r} and {m!r}")
    # complex() rejects every other non-number, but reads true and false as 1 and 0.
    if any(type(part) is bool for pair in doc["coeffs"] for part in pair):
        raise CliError(f"cat-state file {path} has boolean coefficients")
    if coeffs.shape != (d,):
        raise CliError(f"cat-state file lists {coeffs.size} coefficients for d={d}")
    if not np.isfinite(coeffs).all():
        raise CliError(f"cat-state file {path} has non-finite coefficients")
    with np.errstate(over="ignore"):  # an infinite norm is rejected below
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
    check_size(args.d, args.m, args.max_dim)  # before d coefficients are drawn
    return random_cat_state(args.d, args.m, args.seed)


def _indented(value, depth: int) -> str:
    """``json.dumps(value, indent=2)`` as it reads ``depth`` levels deep in a
    document. JSON text has no raw newline inside a string, so re-indenting
    every line is exact."""
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


def _pairs_text(values: np.ndarray, depth: int) -> str:
    """``_indented`` of a complex vector as its list of [re, im] pairs.

    Only pairs other than an exact (+0.0, +0.0) are formatted; each run of
    those repeats one fixed text, so a receiver state with d nonzero
    amplitudes out of d**m costs about d formatted pairs.
    """
    pad, inner = "  " * (depth + 1), "  " * (depth + 2)
    floats = values.view(np.float64).reshape(-1, 2)
    live = np.flatnonzero(floats.view(np.uint64).any(axis=1))
    zero = f"{pad}[\n{inner}0.0,\n{inner}0.0\n{pad}]"
    items, done = [], 0
    for row, (re, im) in zip(live.tolist(), floats[live].tolist()):
        items += [zero] * (row - done)
        items.append(f"{pad}[\n{inner}{re!r},\n{inner}{im!r}\n{pad}]")
        done = row + 1
    items += [zero] * (len(floats) - done)
    return "[\n" + ",\n".join(items) + "\n" + "  " * depth + "]"


def _members(fields: dict[str, str], depth: int) -> str:
    """The member lines of an ``indent=2`` object ``depth`` levels deep, from
    values already rendered one level deeper; no braces."""
    pad = "  " * (depth + 1)
    return ",\n".join(f"{pad}{json.dumps(key)}: {text}" for key, text in fields.items())


def _record_texts(records, bits: float, depth: int) -> Iterator[tuple[str, str]]:
    """Each record's JSON object ``depth`` levels deep, as (label part, rest).

    Records of one (shift, phase) pair share their receiver states and their
    probability and fidelity objects, so the rest is rendered once per pair,
    each distinct state once, and only the label part per record.
    """
    states, rests = {}, {}
    close = "\n" + "  " * depth + "}"

    def state_text(state) -> str:
        if id(state) not in states:
            states[id(state)] = _pairs_text(state.amps, depth + 1)
        return states[id(state)]

    for record in records:
        pre, post = record.bob_pre_correction, record.bob_post_correction
        key = (id(record.probability), id(record.fidelity), id(pre), id(post))
        if key not in rests:
            rests[key] = _members({
                "probability": json.dumps(record.probability),
                "fidelity": json.dumps(record.fidelity),
                "classical_bits": json.dumps(bits),
                "bob_pre": state_text(pre),
                "bob_post": state_text(post),
            }, depth) + close
        label = _members({
            "label": _indented(record.label.to_json(), depth + 1),
            "label_str": json.dumps(str(record.label)),
        }, depth)
        yield "{\n" + label + ",\n", rests[key]


def _document(args, spec: ProtocolSpec, cat: CatState, bits: float, tail: dict) -> Iterator[str]:
    """The run/enumerate JSON document in pieces: the header members, then
    ``tail``'s members, whose values are iterables of rendered pieces."""
    header = {
        "protocol": spec.kind.value,
        "d": spec.d,
        "m": spec.m,
        "hybrid_k": spec.hybrid_k,
        "seed": args.seed,
        "classical_bits": bits,
    }
    fields = {key: json.dumps(value) for key, value in header.items()}
    fields["coeffs"] = _pairs_text(cat.coeffs, 1)
    yield "{\n" + _members(fields, 0)
    for key, pieces in tail.items():
        yield f",\n  {json.dumps(key)}: "
        yield from pieces
    yield "\n}\n"


def _json_list(items, depth: int) -> Iterator[str]:
    """An ``indent=2`` list ``depth`` levels deep of at least one item, each
    an iterable of rendered pieces."""
    lead = "[\n" + "  " * (depth + 1)
    for pieces in items:
        yield lead
        yield from pieces
        lead = ",\n" + "  " * (depth + 1)
    yield "\n" + "  " * depth + "]"


def _csv_text(header, rows) -> Iterator[str]:
    """One CSV table in pieces; ``csv`` writes None as an empty cell and floats by repr."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    rows = iter(rows)
    while True:
        writer.writerows(islice(rows, CSV_BATCH_ROWS))
        if not buf.tell():
            return
        yield buf.getvalue()
        buf.seek(0)
        buf.truncate()


def _records_csv(records, bits: float) -> Iterator[str]:
    # Records of one pair share their probability and fidelity objects.
    cells = {}

    def row(record) -> list:
        key = (id(record.probability), id(record.fidelity))
        if key not in cells:
            cells[key] = [repr(record.probability), repr(record.fidelity)]
        return [str(record.label), *cells[key], bits]

    return _csv_text(["label", "probability", "fidelity", "classical_bits"], map(row, records))


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


def _emit(pieces: Iterable[str], out_path: str | None) -> None:
    """Write ``pieces`` to ``out_path``, or stdout, as they come.

    Any failed write or flush is a CliError (exit 1); one partway through
    may leave a partial ``out_path``. Commands call this only after their
    computation has succeeded, so a failed command creates no file.
    """
    try:
        if out_path is None:
            if sys.stdout is None:  # the process started with stdout closed
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            for piece in pieces:
                sys.stdout.write(piece)
            sys.stdout.flush()
        else:
            with open(out_path, "w", encoding="utf-8", newline="") as stream:
                for piece in pieces:
                    stream.write(piece)
    except OSError as exc:
        if out_path is None and sys.stdout is not None and sys.stdout is sys.__stdout__:
            # Python flushes stdout again at exit; what is still buffered
            # goes to the null device, not to a second error report.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        target = "stdout" if out_path is None else out_path
        raise CliError(f"cannot write {target}: {exc.strerror or exc}") from exc


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
    verify.add_argument(
        "--seeds", type=_int_at_least(1, "positive"), default=5,
        help="number of random cat states",
    )

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
    if args.format == "csv":
        _emit(_records_csv([record], bits), args.out)
    else:
        record_pieces = next(_record_texts([record], bits, 1))
        _emit(_document(args, spec, cat, bits, {"record": record_pieces}), args.out)
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
    tail = {
        "nonzero_count": [json.dumps(cost.nonzero_outcome_count)],
        "records": _json_list(_record_texts(records, bits, 2), 1),
    }
    _emit(_document(args, spec, cat, bits, tail), args.out)
    return 0


def _cmd_verify(args) -> int:
    _require_dm(args)
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
        _emit([_json_text(doc)], args.out)
    return 0 if ok else 2


def _check_printable(d: int, m: int) -> None:
    """Reject, before computing it, a d**(m+1) outcome count with more digits
    than this interpreter converts to text (a limit of 0 is none)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # It has more than ``limit`` digits iff it reaches 10**limit, and it lies
    # in [2**((m+1)(b-1)), 2**((m+1)b)) for d of bit length b.
    bits, b = (10**limit).bit_length(), d.bit_length()
    if limit and d >= 2 and m >= 1 and (
        (m + 1) * (b - 1) >= bits or ((m + 1) * b >= bits and d ** (m + 1) >= 10**limit)
    ):
        raise CliError(f"--d {d} --m {m}: the d**(m+1) outcome count has over {limit} digits")


def _cmd_cost(args) -> int:
    _require_dm(args)
    _check_printable(args.d, args.m)
    docs = [
        _cost_doc(cost_of(spec, cross_check=False))
        for spec in protocol_specs(args.d, args.m)
        if (spec.kind is ProtocolKind.HYBRID) == args.hybrids
    ]
    if args.format == "csv":
        _emit(_csv_text(list(docs[0]), [list(doc.values()) for doc in docs]), args.out)
    else:
        _emit([_json_text(docs)], args.out)
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
    except MemoryError as exc:
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
