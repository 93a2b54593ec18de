"""Byte-level gate on ``qt run`` and ``qt enumerate`` output.

The oracle renders the whole output at once: ``json.dumps(doc, indent=2) +
"\\n"`` over whole record dicts, or one ``csv.writer`` table. Every byte of the
streamed output must match, which the golden tests' float tolerance cannot
check. The other tests bound what the writer holds and how it fails.
"""

import contextlib
import csv
import errno
import io
import json
import os
import subprocess
import sys
import tracemalloc

import pytest
from test_sector_oracle import ORACLE_GRID

from catport import cli, protocols
from catport.analysis import cost_of
from catport.checks import run_all_checks
from catport.core import DEFAULT_MAX_DIM, random_cat_state
from catport.protocols import enumerate_outcomes, protocol_specs, run_protocol

SIZES = [(2, 2), (3, 2), (2, 3), (3, 3), (5, 2), (2, 5)]
SEED = 7


def _pairs(values):
    return values.view("f8").reshape(-1, 2).tolist()


def _oracle(command, spec, fmt, seed=SEED, max_dim=DEFAULT_MAX_DIM):
    cat = random_cat_state(spec.d, spec.m, seed)
    cost = cost_of(spec, cross_check=False)
    bits = cost.classical_bits
    if command == "run":
        records = [run_protocol(cat, spec, seed, max_dim=max_dim)]
    else:
        records = enumerate_outcomes(cat, spec, max_dim=max_dim)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["label", "probability", "fidelity", "classical_bits"])
        writer.writerows([str(r.label), r.probability, r.fidelity, bits] for r in records)
        return buf.getvalue()
    docs = [
        {
            "label": r.label.to_json(),
            "label_str": str(r.label),
            "probability": r.probability,
            "fidelity": r.fidelity,
            "classical_bits": bits,
            "bob_pre": _pairs(r.bob_pre_correction.amps),
            "bob_post": _pairs(r.bob_post_correction.amps),
        }
        for r in records
    ]
    doc = {
        "protocol": spec.kind.value,
        "d": spec.d,
        "m": spec.m,
        "hybrid_k": spec.hybrid_k,
        "seed": seed,
        "classical_bits": bits,
        "coeffs": _pairs(cat.coeffs),
    }
    if command == "run":
        doc["record"] = docs[0]
    else:
        doc["nonzero_count"] = cost.nonzero_outcome_count
        doc["records"] = docs
    return json.dumps(doc, indent=2) + "\n"


def _argv(command, spec, fmt, seed=SEED, max_dim=DEFAULT_MAX_DIM):
    argv = [command, "--protocol", spec.kind.value, "--d", str(spec.d), "--m", str(spec.m),
            "--seed", str(seed), "--format", fmt, "--max-dim", str(max_dim)]
    return argv + (["--k", str(spec.hybrid_k)] if spec.hybrid_k is not None else [])


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == 0, argv
    return out.getvalue()


def _assert_same_text(got, want):
    # pytest's own diff of two long strings can take minutes; show where they part.
    if got != want:
        at = len(os.path.commonprefix([got, want]))
        pytest.fail(f"first difference at offset {at} of {len(want)}: "
                    f"{got[at - 60:at + 60]!r} != {want[at - 60:at + 60]!r}")


CASES = [
    (command, spec, fmt)
    for d, m in SIZES
    for spec in protocol_specs(d, m)
    for command in ("run", "enumerate")
    for fmt in ("json", "csv")
]


@pytest.mark.parametrize(
    "command,spec,fmt", CASES,
    ids=[f"{c}-{s.kind.value}-{s.d}-{s.m}-k{s.hybrid_k}-{f}" for c, s, f in CASES],
)
def test_output_matches_plain_renderer(command, spec, fmt):
    _assert_same_text(_stdout(_argv(command, spec, fmt)), _oracle(command, spec, fmt))


# Every window constant that cuts work into pieces, shrunk to a few rows.
SHRUNK_WINDOWS = [(protocols, "COLUMN_WINDOW", 3), (protocols, "ROW_WINDOW", 5),
                  (cli, "CSV_BATCH_ROWS", 2)]


def test_shrunk_windows_change_no_byte(monkeypatch):
    def outputs():
        protocols.Register.cache_clear()  # so the columns are built under these windows
        texts = [_stdout(_argv(command, spec, fmt))
                 for d, m in ORACLE_GRID for spec in protocol_specs(d, m)
                 for command in ("run", "enumerate") for fmt in ("json", "csv")]
        checks = [[r.max_error.hex() for r in run_all_checks(d, m, 3)] for d, m in ORACLE_GRID]
        return texts, checks

    expected = outputs()
    for owner, name, rows in SHRUNK_WINDOWS:
        monkeypatch.setattr(owner, name, rows)
    texts, checks = outputs()
    protocols.Register.cache_clear()
    for got, want in zip(texts, expected[0]):
        _assert_same_text(got, want)
    assert checks == expected[1]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_zero_heavy_run_matches_plain_renderer(fmt):
    spec = next(s for s in protocol_specs(2, 12) if s.kind.value == "barred")
    max_dim = 2 ** 25  # the nominal joint register d**(2m+1)
    _assert_same_text(_stdout(_argv("run", spec, fmt, max_dim=max_dim)),
                      _oracle("run", spec, fmt, max_dim=max_dim))


@pytest.mark.parametrize("command", ["run", "enumerate"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_out_file_bytes_equal_stdout(tmp_path, command, fmt):
    spec = protocol_specs(3, 3)[-2]
    argv = _argv(command, spec, fmt)
    target = tmp_path / "out"
    assert cli.main([*argv, "--out", str(target)]) == 0
    _assert_same_text(target.read_bytes(), _stdout(argv).encode("utf-8"))


def test_enumerate_to_file_never_holds_the_document(tmp_path):
    target = tmp_path / "bell-2-8.json"
    tracemalloc.start()
    try:
        code = cli.main(["enumerate", "--protocol", "bell", "--d", "2", "--m", "8",
                         "--out", str(target)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert target.stat().st_size > 10 * 2**20
    assert peak < 4 * 2**20, peak


class _FullStdout(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("stdout, reason", [
    (_FullStdout(), "No space left on device"),
    (None, "Bad file descriptor"),  # how Python shows a stdout closed at start
])
def test_unwritable_stdout_exits_1(capsys, monkeypatch, stdout, reason):
    monkeypatch.setattr(sys, "stdout", stdout)
    code = cli.main(["enumerate", "--protocol", "bell", "--d", "2", "--m", "3"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: cannot write stdout: {reason}\n"


@pytest.mark.parametrize("argv, code", [
    (["run", "--protocol", "barred", "--d", "2", "--m", "30"], 3),
    (["enumerate", "--protocol", "hybrid", "--d", "2", "--m", "2"], 1),
])
def test_failed_command_creates_no_out_file(tmp_path, capsys, argv, code):
    target = tmp_path / "out.json"
    assert cli.main([*argv, "--out", str(target)]) == code
    assert capsys.readouterr().err.startswith("error:")
    assert not target.exists()


def _qt(stdout):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "catport", "enumerate", "--protocol", "bell", "--d", "2",
         "--m", "8"],
        stdout=stdout, stderr=subprocess.PIPE, env=env,
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_device_stdout_exits_1_without_traceback():
    with open("/dev/full", "wb") as full:
        proc = _qt(full)
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err.decode().splitlines() == ["error: cannot write stdout: No space left on device"]


def test_closed_pipe_exits_1_without_traceback():
    proc = _qt(subprocess.PIPE)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert err.splitlines() == ["error: cannot write stdout: Broken pipe"]
