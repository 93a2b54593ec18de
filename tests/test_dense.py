"""The dense reference code lives in ``catport.dense``. Each of its names
keeps the import paths it had before, as the same object, and neither the
engine modules nor ``qt`` load it."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_cli_golden import CASES, GOLDEN

import catport
from catport import bases, core, dense, protocols

# The dense names, by the module that held them before catport.dense.
MOVED = {
    core: ["basis_ket", "tensor", "inner", "DensityMatrix", "partial_trace_keep",
           "cat_to_pure_state", "uniform_superposition_chain"],
    bases: ["MeasurementBasis", "BasisReport", "BasisFamily", "bell_basis_state",
            "pi_basis_state", "ghz_basis_state", "block_ghz_basis_state",
            "barred_bell_basis_state", "_term_state", "label_basis", "build_basis",
            "verify_orthonormal_complete"],
    protocols: ["compose_joint_state"],
}
MOVED_NAMES = {name for names in MOVED.values() for name in names}

# catport.__all__ as it was before the dense names moved.
ALL = [
    "BasisFamily", "BasisReport", "BellLabel", "CatState", "ComplementLabel", "CostRow",
    "DEFAULT_MAX_DIM", "DensityMatrix", "EquivalenceReport", "GhzLabel", "JointLabel",
    "MeasurementBasis", "MonomialOperator", "OutcomeRecord", "PiLabel", "ProtocolKind",
    "ProtocolSpec", "PureState", "RangeError", "RegisterShape", "ShapeMismatchError",
    "SizeCapError", "apply_correction", "barred_bell_basis_state", "barred_equivalence_check",
    "basis_ket", "bell_basis_state", "build_basis", "cat_to_pure_state", "clock_operator",
    "compose_joint_state", "correction_for", "cost_of", "cost_table", "digits_to_index",
    "enumerate_outcomes", "ghz_basis_state", "index_to_digits", "inner", "measurement_family",
    "monomial_tensor", "partial_trace_keep", "pi_basis_state", "random_cat_state",
    "run_protocol", "shift_operator", "tensor", "unit_phase", "verify_orthonormal_complete",
]

ENGINE = ["core", "bases", "protocols", "analysis", "checks", "cli"]
SRC = Path(catport.__file__).resolve().parent


def _child(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, env=env,
                          timeout=120)


@pytest.mark.parametrize("module, name", [(m, n) for m, names in MOVED.items() for n in names])
def test_moved_name_is_one_object_on_every_path(module, name):
    obj = getattr(dense, name)
    assert getattr(module, name) is obj
    scope = {}
    exec(f"from {module.__name__} import {name}", scope)
    assert scope[name] is obj
    if name in catport.__all__:
        assert getattr(catport, name) is obj


def test_unknown_names_still_raise_attribute_error():
    for module in MOVED:
        with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
            module.not_a_name
    with pytest.raises(AttributeError):
        catport.not_a_name


def test_all_and_dir_are_unchanged_and_import_loads_no_oracle():
    done = _child("import json, sys, catport\n"
                  "forwarded = sorted(set(catport.__all__) - set(vars(catport)))\n"
                  "print(json.dumps([catport.__all__, dir(catport), forwarded, sorted(sys.modules)]))")
    assert done.returncode == 0, done.stderr.decode()
    names, listed, forwarded, loaded = json.loads(done.stdout)
    assert names == ALL
    assert forwarded == sorted(MOVED_NAMES & set(ALL))
    # The module hooks __getattr__ and __dir__ are the only new dunder names.
    assert [n for n in listed if not n.startswith("__")] == sorted(
        ALL + ["analysis", "bases", "core", "protocols"])
    assert "catport.dense" not in loaded


@pytest.mark.parametrize("module", ENGINE)
def test_engine_module_defines_and_loads_no_dense_name(module):
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            assert node.name not in MOVED_NAMES, (module, node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            assert not {t.id for t in targets if isinstance(t, ast.Name)} & MOVED_NAMES
        elif isinstance(node, ast.ImportFrom):
            assert node.module != "dense" and not (node.module is None and any(
                alias.name == "dense" for alias in node.names)), (module, node.lineno)
            assert not {alias.name for alias in node.names} & MOVED_NAMES, (module, node.lineno)
        elif isinstance(node, ast.Import):
            assert "catport.dense" not in {alias.name for alias in node.names}, module
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            assert called != "tensor", (module, node.lineno)


# One golden case per qt subcommand.
QT_CASES = ["run-bell-3-2.json", "enumerate-hybrid-2-3-k3.csv", "verify-3-2.json",
            "cost-hybrids-3-4.csv"]


@pytest.mark.parametrize("name", QT_CASES)
def test_qt_loads_no_oracle(name):
    done = _child("import sys\n"
                  "from catport.cli import main\n"
                  "code = main(sys.argv[1:])\n"
                  "sys.stdout.flush()\n"
                  "assert 'catport.dense' not in sys.modules, 'qt loaded catport.dense'\n"
                  "sys.exit(code)\n", *CASES[name])
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == (GOLDEN / name).read_bytes()
