"""Golden outputs of the ``qt`` CLI.

Each case's stdout is stored in ``tests/golden``. Exit codes, labels and
their order, counts, every other string and integer, and the whole ``cost``
output must match exactly. Other floats may differ by 1e-15, so that a
last-digit rounding difference between numpy builds does not fail the test.

After an intended output change, regenerate the files with
``PYTHONPATH=src python tests/test_cli_golden.py``. With ``--check`` it
instead runs every case through its own ``python -m catport`` process and
compares stdout with the file byte for byte, listing each case that differs.
"""

import contextlib
import csv
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from catport import cli
from catport.cli import main

GOLDEN = Path(__file__).with_name("golden")
FLOAT_TOL = 1e-15


def _cases() -> dict[str, list[str]]:
    cases = {}
    for kind, d, m, k in [("bell", 3, 2, None), ("ghz", 3, 2, None),
                          ("barred", 3, 2, None), ("hybrid", 2, 3, 3)]:
        spec = ["--protocol", kind, "--d", str(d), "--m", str(m), "--seed", "7"]
        spec += ["--k", str(k)] if k else []
        stem = f"{kind}-{d}-{m}" + (f"-k{k}" if k else "")
        for command in ("run", "enumerate"):
            for fmt in ("json", "csv"):
                cases[f"{command}-{stem}.{fmt}"] = [command, *spec, "--format", fmt]
    for fmt in ("json", "csv"):
        cases[f"cost-3-4.{fmt}"] = ["cost", "--d", "3", "--m", "4", "--format", fmt]
        cases[f"cost-hybrids-3-4.{fmt}"] = [
            "cost", "--d", "3", "--m", "4", "--hybrids", "--format", fmt]
    for fmt in ("json", "csv"):
        cases[f"verify-3-2.{fmt}"] = ["verify", "--d", "3", "--m", "2", "--seeds", "3",
                                      "--format", fmt]
    # Two of the verify benchmark's points, with many ladder positions or wide cats.
    for d, m in [(2, 6), (5, 3)]:
        for fmt in ("json", "csv"):
            cases[f"verify-{d}-{m}.{fmt}"] = ["verify", "--d", str(d), "--m", str(m),
                                              "--seeds", "5", "--format", fmt]
    # Two cat blocks, of 2048 and 52 cats.
    for fmt in ("json", "csv"):
        cases[f"verify-4-2.{fmt}"] = ["verify", "--d", "4", "--m", "2", "--seeds", "2100",
                                      "--format", fmt]
    return cases


CASES = _cases()


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _same_cell(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        return math.isclose(float(got), float(want), rel_tol=0.0, abs_tol=FLOAT_TOL)
    except ValueError:
        return False


def _assert_same_json(got, want, path="$"):
    assert type(got) is type(want), f"{path}: {got!r} != {want!r}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{path}: keys {list(got)} != {list(want)}"
        for key in want:
            _assert_same_json(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{path}: length {len(got)} != {len(want)}"
        for i, (a, b) in enumerate(zip(got, want)):
            _assert_same_json(a, b, f"{path}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=0.0, abs_tol=FLOAT_TOL), (
            f"{path}: {got!r} != {want!r}")
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_matches_golden(name):
    code, out = _run(CASES[name])
    assert code == 0
    want = (GOLDEN / name).read_text(encoding="utf-8")
    if name.startswith("cost"):
        assert out == want
    elif name.endswith(".json"):
        _assert_same_json(json.loads(out), json.loads(want))
    else:
        got_rows = list(csv.reader(io.StringIO(out)))
        want_rows = list(csv.reader(io.StringIO(want)))
        assert len(got_rows) == len(want_rows)
        for got_row, want_row in zip(got_rows, want_rows):
            assert len(got_row) == len(want_row)
            assert all(map(_same_cell, got_row, want_row)), f"{got_row} != {want_row}"


@pytest.mark.parametrize("name", sorted(n for n in CASES if n.startswith(("run", "enumerate"))))
def test_records_render_only_their_format(monkeypatch, name):
    # A CSV call renders no receiver state and a JSON call no CSV row, so a
    # large CSV run never holds the d**m amplitude texts.
    unused = "_pairs_text" if name.endswith(".csv") else "_records_csv"

    def forbidden(*args, **kwargs):
        raise AssertionError(f"{name} called {unused}")

    monkeypatch.setattr(cli, unused, forbidden)
    assert _run(CASES[name]) == (0, (GOLDEN / name).read_text(encoding="utf-8"))


def _differing_cases() -> list[str]:
    """The cases whose ``python -m catport`` process fails or whose stdout
    differs in any byte from the golden file."""
    differing = []
    for name, argv in CASES.items():
        done = subprocess.run([sys.executable, "-m", "catport", *argv], capture_output=True)
        if done.returncode != 0 or done.stdout != (GOLDEN / name).read_bytes():
            differing.append(name)
    return differing


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        differing = _differing_cases()
        print(f"{len(CASES) - len(differing)} of {len(CASES)} cases match byte for byte")
        for name in differing:
            print(f"differs: {name}")
        sys.exit(1 if differing else 0)
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        code, out = _run(argv)
        assert code == 0, (name, code)
        (GOLDEN / name).write_text(out, encoding="utf-8")
