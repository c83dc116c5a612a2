"""Tests for the package's public surface and its runtime dependencies."""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys
import types

import subalg

SRC = str(pathlib.Path(subalg.__file__).resolve().parents[1])
TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# The package's public names, pinned: a name the commands do not reach does
# not come back into ``__all__`` without this list changing too.
PUBLIC = [
    "BlockStructure", "ConcreteRealization", "ConfigError", "DensityStats", "DimReport",
    "DomainError", "EmbeddedAlgebra", "FreeElement", "HypothesisAudit", "Letter",
    "MultiplicityMatrix", "NumericalInstabilityError", "RcpBalance", "RcpReport", "RepPair",
    "SearchExhaustedError", "ShapeMismatchError", "Stage", "StagedBuild", "SubalgebraClass",
    "audit_density_hypotheses", "box_max", "class_dim", "classify_pair", "commutant_basis",
    "compatible_embeddings", "compose_multiplicities", "conjugate", "d_value",
    "density_experiment", "dim_report", "dpi_probe", "enumerate_embedded_algebras",
    "enumerate_subalgebra_classes", "enumerate_unital_embeddings", "evaluate", "haar_unitary",
    "intersect", "joint_commutant_dim", "lagrange_min", "lipschitz_bound", "orbit_dims",
    "rcp_balance", "rcp_check", "realize", "realize_class", "relative_commutant", "stab_dim",
    "staged_build",
]

# Small configs that reach every former scipy call site, the exponential in
# local_unitary: local density, local dpi and a build whose second stage is
# RCP-balanced and needs a random search step.
NO_SCIPY_CONFIGS = [
    (
        "density",
        {
            "algebras": [{"blocks": [2], "mult": [2]}, {"blocks": [2], "mult": [2]}],
            "ambient": 4,
            "samples": 3,
            "radius": 1e-3,
            "seed": 7,
        },
    ),
    (
        "dpi",
        {
            "algebras": [{"blocks": [1, 1], "mult": [2, 2]}, {"blocks": [1, 1], "mult": [2, 2]}],
            "samples": 3,
            "radius": 0.1,
            "seed": 5,
        },
    ),
    (
        "build-primitive",
        {
            "algebras": [{"blocks": [1, 1]}, {"blocks": [2]}],
            "stages": [[[1, 1], [1]], [[2, 0], [1]]],
            "epsilon": 0.5,
            "seed": 11,
        },
    ),
]

# Blocks every scipy import, then runs each (command, config) through main.
NO_SCIPY_SCRIPT = """
import json, pathlib, sys
sys.modules["scipy"] = None
from subalg.cli import main
out = pathlib.Path(sys.argv[1])
codes = []
for command, payload in json.loads(sys.argv[2]):
    cfg = out / (command + ".json")
    cfg.write_text(json.dumps(payload))
    codes.append(main([command, "--config", str(cfg), "--out", str(out / (command + ".out"))]))
print(json.dumps(codes))
"""


def run_python(code, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], cwd=cwd, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_all_exports_no_modules():
    modules = [name for name in subalg.__all__ if isinstance(getattr(subalg, name), types.ModuleType)]
    assert modules == []


def test_all_is_pinned_and_resolves():
    assert subalg.__all__ == PUBLIC
    assert all(hasattr(subalg, name) for name in PUBLIC)


def traced_targets():
    """The (module, attribute) pairs of perfbench's tracer, read from its source, not run."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_traced_targets_resolve():
    # the traced benchmark run wraps each of these by name and crashes
    # without it: a module attribute, or for "Class.method" the function
    # the class itself defines, read as the tracer reads it (vars(cls))
    targets = traced_targets()
    assert targets
    for module, attr in targets:
        owner = vars(importlib.import_module(f"subalg.{module}"))
        if "." in attr:
            cls, attr = attr.split(".")
            assert isinstance(owner.get(cls), type), (module, cls)
            owner = vars(owner[cls])
        assert callable(owner.get(attr)), (module, attr)


def test_import_loads_no_scipy(tmp_path):
    code = (
        "import sys, subalg.cli\n"
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    )
    assert run_python(code, cwd=tmp_path).strip() == "[]"


def test_commands_run_with_scipy_blocked(tmp_path):
    out = run_python(NO_SCIPY_SCRIPT, str(tmp_path), json.dumps(NO_SCIPY_CONFIGS), cwd=tmp_path)
    assert json.loads(out) == [0, 0, 0]
