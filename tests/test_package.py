"""Tests for the package's public surface and its runtime dependencies."""

import json
import os
import pathlib
import subprocess
import sys
import types

import subalg

SRC = str(pathlib.Path(subalg.__file__).resolve().parents[1])

# Small configs that reach every former scipy call site: local density
# (local_unitary), local dpi (the dpi_probe exponential) and a build whose
# second stage is RCP-balanced and needs a random search step.
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


def test_import_loads_no_scipy(tmp_path):
    code = (
        "import sys, subalg.cli\n"
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    )
    assert run_python(code, cwd=tmp_path).strip() == "[]"


def test_commands_run_with_scipy_blocked(tmp_path):
    out = run_python(NO_SCIPY_SCRIPT, str(tmp_path), json.dumps(NO_SCIPY_CONFIGS), cwd=tmp_path)
    assert json.loads(out) == [0, 0, 0]
