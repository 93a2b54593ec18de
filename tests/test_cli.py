import json
import math
import subprocess
import sys
import time

import pytest

from catport import bases, checks, cli
from catport.checks import CheckResult
from catport.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def cat_file(tmp_path):
    coeffs = [[0.6, 0.0], [0.0, 0.8], [0.0, 0.0]]
    path = tmp_path / "cat.json"
    path.write_text(json.dumps({"d": 3, "m": 2, "coeffs": coeffs}))
    return str(path)


class TestEnumerate:
    def test_ghz_json_document(self, capsys, cat_file):
        code, out, _ = run_cli(
            capsys,
            ["enumerate", "--protocol", "ghz", "--d", "3", "--m", "2",
             "--coeffs-file", cat_file],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["protocol"] == "ghz"
        assert len(doc["records"]) == 27
        assert doc["nonzero_count"] == 9
        for record in doc["records"]:
            assert set(record) >= {"label", "probability", "fidelity", "classical_bits"}
            assert record["classical_bits"] == pytest.approx(2 * math.log2(3))
            assert len(record["bob_post"]) == 9
            assert all(len(pair) == 2 for pair in record["bob_post"])

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["enumerate", "--protocol", "barred", "--d", "2", "--m", "2",
             "--format", "csv"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "label,probability,fidelity,classical_bits"
        assert len(lines) == 9  # header + 8 outcomes

    def test_seeded_random_cat_is_deterministic(self, capsys):
        argv = ["enumerate", "--protocol", "bell", "--d", "2", "--m", "2",
                "--seed", "9"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_output_file_byte_identical(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code, _, _ = run_cli(
                capsys,
                ["enumerate", "--protocol", "hybrid", "--d", "2", "--m", "3",
                 "--k", "3", "--seed", "4", "--out", str(path)],
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_coeffs_file_overrides_dimensions(self, capsys, cat_file):
        code, out, _ = run_cli(
            capsys, ["enumerate", "--protocol", "ghz", "--coeffs-file", cat_file]
        )
        assert code == 0
        doc = json.loads(out)
        assert (doc["d"], doc["m"]) == (3, 2)
        assert doc["coeffs"][0] == [0.6, 0.0]

    def test_conflicting_dimensions_rejected(self, capsys, cat_file):
        code, _, err = run_cli(
            capsys,
            ["enumerate", "--protocol", "ghz", "--d", "4", "--m", "2",
             "--coeffs-file", cat_file],
        )
        assert code == 1
        assert "disagrees" in err


class TestRun:
    def test_deterministic_record(self, capsys):
        argv = ["run", "--protocol", "ghz", "--d", "3", "--m", "2", "--seed", "31"]
        code, first, _ = run_cli(capsys, argv)
        assert code == 0
        _, second, _ = run_cli(capsys, argv)
        assert first == second
        doc = json.loads(first)
        assert doc["record"]["probability"] > 0
        assert doc["record"]["fidelity"] == pytest.approx(1.0, abs=1e-10)

    def test_hybrid_requires_k(self, capsys):
        code, _, err = run_cli(
            capsys, ["run", "--protocol", "hybrid", "--d", "2", "--m", "2"]
        )
        assert code == 1
        assert "--k" in err

    def test_csv_single_row(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["run", "--protocol", "bell", "--d", "2", "--m", "2", "--format", "csv"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "label,probability,fidelity,classical_bits"
        assert len(lines) == 2


class TestVerify:
    def test_passes_on_small_instance(self, capsys):
        code, out, _ = run_cli(
            capsys, ["verify", "--d", "2", "--m", "2", "--seeds", "3"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["failures"] == []
        names = {c["name"] for c in doc["checks"]}
        assert {"basis_orthonormality", "perfect_teleportation",
                "selection_rule", "no_signaling"} <= names

    def test_failure_exit_code(self, capsys, monkeypatch):
        def fake_checks(d, m, seeds, max_dim):
            return [CheckResult("rigged", 1.0, 1e-12, False)]

        monkeypatch.setattr(checks, "run_all_checks", fake_checks)
        monkeypatch.setattr("catport.cli.run_all_checks", fake_checks)
        code, out, _ = run_cli(capsys, ["verify", "--d", "2", "--m", "2"])
        assert code == 2
        doc = json.loads(out)
        assert doc["failures"] == ["rigged"]

    def test_bases_certified_once_per_dimensions(self, monkeypatch):
        built = []
        build = bases.sector_terms
        monkeypatch.setattr(
            bases, "sector_terms", lambda *args: built.append(args) or build(*args)
        )
        checks._basis_error.cache_clear()
        first = checks.run_all_checks(2, 2, 1)
        count = len(built)
        assert checks.run_all_checks(2, 2, 2)[0] == first[0]
        assert len(built) == count > 0

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["verify", "--d", "2", "--m", "2", "--seeds", "1", "--format", "csv"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "name,max_error,threshold,passed"
        assert all(line.endswith("True") for line in lines[1:])


class TestCost:
    def test_hybrid_ladder_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, ["cost", "--d", "3", "--m", "4", "--hybrids", "--format", "csv"]
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 5  # header + k = 2..5
        ks = [int(line.split(",")[3]) for line in lines[1:]]
        assert ks == [2, 3, 4, 5]

    def test_named_protocol_rows_json(self, capsys):
        code, out, _ = run_cli(capsys, ["cost", "--d", "2", "--m", "3"])
        assert code == 0
        rows = json.loads(out)
        assert [r["protocol"] for r in rows] == ["bell", "ghz", "barred"]
        bell = rows[0]
        assert bell["nonzero_outcomes"] == 16
        assert bell["classical_bits"] == 4.0


class TestExitCodes:
    def test_malformed_flags(self, capsys, cat_file, tmp_path):
        (tmp_path / "not-json.json").write_text("{d: 3")
        short = tmp_path / "short.json"
        short.write_text(json.dumps({"d": 3, "m": 2, "coeffs": [[0.6, 0.0], [0.0, 0.8]]}))
        for argv in (
            ["enumerate", "--protocol", "nope", "--d", "2", "--m", "2"],
            ["cost", "--d", "2", "--m", "0", "--hybrids"],
            ["run", "--protocol", "bell", "--d", "2", "--m", "2", "--threads", "2"],
            ["cost", "--d", "2", "--m", "2", "--seed", "1"],
            ["cost", "--d", "2", "--m", "2", "--max-dim", "1"],
            ["verify", "--d", "2", "--m", "2", "--seed", "3"],
            ["cost", "--d", "2", "--m", "2", "--hyb"],
            ["run", "--protocol", "bell", "--d", "2", "--m", "2", "--max-dim", "0"],
            ["run", "--protocol", "bell", "--d", "2", "--m", "2", "--max-dim", "-5"],
            ["verify", "--d", "2", "--m", "2", "--seeds", "0"],
            ["verify", "--d", "2", "--m", "2", "--seeds", "-3"],
            ["verify", "--d", "2", "--m", "2", "--seeds", "x"],
            # Each call below must fail fast; the first took 51 s before it
            # failed on Python's own integer-to-text limit.
            ["cost", "--d", "1000000000", "--m", "1000000"],
            ["cost", "--d", "10", "--m", "5000"],
            ["run", "--protocol", "ghz", "--d", "3", "--m", "2", "--k", "2"],
            ["run", "--protocol", "ghz", "--d", "3", "--m", "1"],
            ["run", "--protocol", "hybrid", "--d", "2", "--m", "2", "--k", "9"],
            ["run", "--protocol", "bell", "--coeffs-file", cat_file, "--m", "3"],
            ["run", "--protocol", "bell", "--coeffs-file", str(tmp_path / "missing.json")],
            ["run", "--protocol", "bell", "--coeffs-file", str(tmp_path / "not-json.json")],
            ["enumerate", "--protocol", "bell", "--coeffs-file", str(short)],
            ["verify", "--m", "2"],
            ["cost", "--m", "2"],
        ):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, argv)
            assert time.perf_counter() - start < 2.0, argv
            assert code == 1, argv
            assert out == ""
            assert err.startswith("error:")

    @pytest.mark.parametrize("source", ["random", "file"])
    def test_negative_seed_names_the_flag(self, capsys, cat_file, source):
        for command in ("run", "enumerate"):
            argv = [command, "--protocol", "bell", "--seed", "-1"]
            argv += ["--d", "2", "--m", "2"] if source == "random" else ["--coeffs-file", cat_file]
            code, out, err = run_cli(capsys, argv)
            assert code == 1, argv
            assert out == ""
            assert err.startswith("error:") and "--seed" in err

    def test_seed_beyond_64_bits_is_accepted(self, capsys):
        code, _, _ = run_cli(
            capsys, ["run", "--protocol", "bell", "--d", "2", "--m", "2", "--seed", str(2**70)]
        )
        assert code == 0

    def test_missing_dimensions(self, capsys):
        code, _, _ = run_cli(capsys, ["enumerate", "--protocol", "bell"])
        assert code == 1

    def test_size_cap_violation(self, capsys):
        code, _, err = run_cli(
            capsys, ["run", "--protocol", "barred", "--d", "2", "--m", "30"]
        )
        assert code == 3
        assert "cap" in err

    @pytest.mark.parametrize("message", ["Unable to allocate 512. MiB for an array", ""])
    def test_out_of_memory_is_one_line_and_exit_3(self, capsys, monkeypatch, message):
        def exhausted(d, m, seeds, max_dim):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "run_all_checks", exhausted)
        code, out, err = run_cli(capsys, ["verify", "--d", "2", "--m", "2"])
        assert code == 3
        assert out == ""
        assert err == f"error: out of memory{': ' + message if message else ''}\n"

    @pytest.mark.parametrize("command", ["run", "enumerate"])
    def test_size_cap_checked_before_drawing_the_cat(self, capsys, monkeypatch, command):
        def no_cat(*args, **kwargs):
            raise AssertionError("drew a random cat before checking the size cap")

        monkeypatch.setattr(cli, "random_cat_state", no_cat)
        code, out, err = run_cli(
            capsys, [command, "--protocol", "barred", "--d", "4000000", "--m", "1"]
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and "cap" in err

    def test_verify_checks_size_cap_before_building_bases(self, capsys, monkeypatch):
        def no_basis(*args, **kwargs):
            raise AssertionError("verify built a basis before checking the size cap")

        # What verify builds right after its cap check.
        for name in ("_basis_error", "_check_plan"):
            monkeypatch.setattr(checks, name, no_basis)
        code, out, err = run_cli(
            capsys,
            ["verify", "--d", "12", "--m", "2", "--seeds", "1", "--max-dim", "1000"],
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and "cap" in err

    def test_max_dim_override_loosens_cap(self, capsys):
        code, _, _ = run_cli(
            capsys,
            ["run", "--protocol", "barred", "--d", "2", "--m", "11",
             "--max-dim", str(2**23)],
        )
        assert code == 0

    def test_bad_norm_in_cat_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"d": 2, "m": 2, "coeffs": [[1, 0], [1, 0]]}))
        code, _, err = run_cli(
            capsys,
            ["enumerate", "--protocol", "bell", "--coeffs-file", str(path)],
        )
        assert code == 1
        assert "norm" in err

    @pytest.mark.parametrize("command", ["run", "enumerate"])
    @pytest.mark.parametrize("d, m", [(-3, 2), (0, 2), (1, 2), (2, 0), (2, -1)])
    def test_out_of_range_dimensions_name_the_bound(self, capsys, command, d, m):
        # Rejected before the d random coefficients are drawn.
        code, out, err = run_cli(
            capsys, [command, "--protocol", "bell", "--d", str(d), "--m", str(m)]
        )
        assert code == 1
        assert out == ""
        if d < 2:
            assert err == f"error: local dimension must be >= 2, got {d}\n"
        else:
            assert err == f"error: need at least one particle, got {m}\n"

    def test_boolean_coefficients_in_cat_file(self, tmp_path, capsys):
        path = tmp_path / "bools.json"
        path.write_text(json.dumps({"d": 2, "m": 2, "coeffs": [[True, False], [False, False]]}))
        for command in ("run", "enumerate"):
            code, out, err = run_cli(
                capsys, [command, "--protocol", "bell", "--coeffs-file", str(path)]
            )
            assert code == 1, command
            assert out == ""
            assert err.startswith("error:") and str(path) in err

    def test_huge_integer_coefficient_in_cat_file(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"d": 2, "m": 2, "coeffs": [[1' + "0" * 400 + ', 0], [0, 0]]}')
        code, out, err = run_cli(
            capsys, ["run", "--protocol", "bell", "--coeffs-file", str(path)]
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and str(path) in err

    def test_overflowing_norm_prints_one_error_line(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"d": 2, "m": 2, "coeffs": [[1e308, 1e308], [0, 0]]}))
        proc = subprocess.run(
            [sys.executable, "-m", "catport", "run", "--protocol", "bell",
             "--coeffs-file", str(path)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == ["error: cat-state coefficients have norm inf"]

    @pytest.mark.parametrize("field", ["d", "m"])
    @pytest.mark.parametrize("bad", [2.9, True, "3"])
    def test_non_integer_dimension_in_cat_file(self, tmp_path, capsys, field, bad):
        # Coefficients sized for the truncated value, so only the type is wrong.
        doc = {"d": 2, "m": 2, field: bad}
        d = int(bad) if field == "d" else 2
        doc["coeffs"] = [[1 / math.sqrt(d), 0]] * d
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(
            capsys, ["enumerate", "--protocol", "bell", "--coeffs-file", str(path)]
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "integer" in err

    @pytest.mark.parametrize("command", ["enumerate", "run"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_cat_file(self, tmp_path, capsys, command, bad):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"d": 2, "m": 2, "coeffs": [[bad, 0], [1, 0]]}))
        code, out, err = run_cli(
            capsys, [command, "--protocol", "bell", "--coeffs-file", str(path)]
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "finite" in err

    def test_unwritable_out_path(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(
            capsys,
            ["enumerate", "--protocol", "bell", "--d", "2", "--m", "2",
             "--out", str(target)],
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: cannot write") and str(target) in err
        assert not target.exists()

    def test_near_unit_norm_is_renormalized(self, tmp_path, capsys):
        wobble = 1 + 5e-10
        path = tmp_path / "near.json"
        path.write_text(
            json.dumps({"d": 2, "m": 2, "coeffs": [[wobble / math.sqrt(2), 0],
                                                   [1 / math.sqrt(2), 0]]})
        )
        code, out, _ = run_cli(
            capsys, ["enumerate", "--protocol", "bell", "--coeffs-file", str(path)]
        )
        assert code == 0
        doc = json.loads(out)
        norm = math.hypot(*[math.hypot(re, im) for re, im in doc["coeffs"]])
        assert norm == pytest.approx(1.0, abs=1e-12)


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "catport", "cost", "--d", "2", "--m", "2"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        rows = json.loads(proc.stdout)
        assert rows[0]["protocol"] == "bell"
