"""End-to-end tests of the command-line harness: configs, exit codes, reports."""

import argparse
import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subalg
from subalg.cli import COMMANDS, MAX_COUNT, READS, ExperimentConfig, build_parser, main, validate
from subalg.serialize import (
    free_element_from_json,
    matrix_from_json,
    matrix_to_json,
)
from subalg.algebra import BlockStructure, EmbeddedAlgebra
from subalg.freeprod import FreeElement, Letter, RepPair
from subalg.errors import ConfigError
from subalg.numeric import EPS, default_tolerance, density_experiment, haar_unitary, resolution
from oracles import free_element_to_json


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(tmp_path, command, payload, extra=()):
    cfg = write_config(tmp_path / "config.json", payload)
    out = tmp_path / "report.json"
    code = main([command, "--config", cfg, "--out", str(out), *extra])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report, out


M2_PAIR = {
    "algebras": [{"blocks": [2], "mult": [2]}, {"blocks": [2], "mult": [2]}],
    "ambient": 4,
    "seed": 7,
}
# the same pair for the commands that read no ambient dimension
M2_FACTORS = {key: value for key, value in M2_PAIR.items() if key != "ambient"}

# C^2 (2, 2) against M2 (2), and M2+M2 (1, 1) against itself: the dpi and
# density pairs at N = 4 whose local steps are refused below resolution
DPI_C2_M2 = {"algebras": [{"blocks": [1, 1], "mult": [2, 2]}, {"blocks": [2], "mult": [2]}]}
DENSITY_M2M2 = {"algebras": [{"blocks": [2, 2], "mult": [1, 1]}] * 2, "ambient": 4}

def probe_with_value(value):
    """Probe file holding one word of one side-1 letter with the given value."""
    return {"elements": [{"terms": [{"word": [{"side": 1, "value": value}]}]}]}


BUILD_M2 = {
    "algebras": [{"blocks": [2]}, {"blocks": [2]}],
    "stages": [[[1], [1]]],
    "epsilon": 0.5,
    "seed": 11,
}

# C^2 (1, 1) against itself in two stages: stage 2 searches at radius epsilon / 24
C2_TWO_STAGES = {
    "algebras": [{"blocks": [1, 1]}, {"blocks": [1, 1]}],
    "stages": [[[1, 1], [1, 1]]] * 2,
    "epsilon": 0.5,
    "seed": 5,
}


class TestMatrixSerialization:
    def test_roundtrip(self):
        m = np.array([[1 + 2j, 0], [3, -1j]])
        back = matrix_from_json(matrix_to_json(m))
        assert np.array_equal(m, back)

    def test_free_element_roundtrip(self):
        x = FreeElement.word(
            2.0 - 1j,
            [Letter(1, np.eye(2, dtype=complex)), Letter(2, np.array([[0, 1j], [1, 0]]))],
        )
        back = free_element_from_json(free_element_to_json(x))
        assert back.terms[0][0] == x.terms[0][0]
        for l1, l2 in zip(back.terms[0][1], x.terms[0][1]):
            assert l1.side == l2.side
            assert np.array_equal(l1.value, l2.value)

    @pytest.mark.parametrize(
        "obj, pointer",
        [
            ({"shape": [1, 1], "data": [[True, 0]]}, "/m/data/0"),
            ({"shape": [1, 1], "data": [["1", 0]]}, "/m/data/0"),
            ({"shape": [1, True], "data": [[1, 0]]}, "/m/shape"),
            ({"shape": [1, 1], "data": [[1, 0], [0, 0]]}, "/m/data"),
            ({"data": [[1, 0]]}, "/m"),
            # an entry is a pair only if both parts convert to finite floats
            ({"shape": [1, 1], "data": [[10**400, 0]]}, "/m/data/0"),
            ({"shape": [1, 1], "data": [[0, float("nan")]]}, "/m/data/0"),
            ({"shape": [1, 1], "data": [[float("-inf"), 0]]}, "/m/data/0"),
        ],
    )
    def test_malformed_matrix_raises_config_error(self, obj, pointer):
        with pytest.raises(ConfigError) as info:
            matrix_from_json(obj, "/m")
        assert [p for p, _ in info.value.diagnostics] == [pointer]


class TestValidation:
    def test_missing_seed_exits_1(self, tmp_path):
        payload = {k: v for k, v in M2_PAIR.items() if k != "seed"}
        payload["samples"] = 5
        code, report, _ = run_cli(tmp_path, "density", payload)
        assert code == 1
        assert report is None

    def test_bad_mult_row_exits_1(self, tmp_path, capsys):
        payload = dict(M2_PAIR, samples=5)
        payload["algebras"] = [{"blocks": [2], "mult": [1]}, {"blocks": [2], "mult": [2]}]
        code, _, _ = run_cli(tmp_path, "density", payload)
        assert code == 1
        assert "/algebras/0/mult" in capsys.readouterr().err

    def test_negative_block_exits_1(self, tmp_path, capsys):
        payload = dict(M2_PAIR, samples=5)
        payload["algebras"] = [{"blocks": [-2], "mult": [1]}, {"blocks": [2], "mult": [2]}]
        code, _, _ = run_cli(tmp_path, "density", payload)
        assert code == 1
        assert "/algebras/0/blocks" in capsys.readouterr().err

    def test_parse_error_is_line_anchored(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text('{\n  "algebras": [,]\n}')
        code = main(["density", "--config", str(cfg)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{cfg}:2:" in err

    @pytest.mark.parametrize(
        "center, message",
        [
            (matrix_to_json(np.eye(2)), "/center: expected 4x4"),
            ({"shape": [4, 4], "data": 3}, "/center: expected {shape, data}"),
            (
                {"shape": [4, 4], "data": [[1, 0]] * 15 + ["a"]},
                "/center/data/15: expected [re, im], got 'a'",
            ),
            (
                {"shape": [4, 4], "data": [[1, 0, 0]] + [[1, 0]] * 15},
                "/center/data/0: expected [re, im], got [1, 0, 0]",
            ),
            (
                {"shape": "x", "data": []},
                "/center/shape: expected a list of nonnegative integers, got 'x'",
            ),
            (
                {"shape": [4, -4], "data": []},
                "/center/shape: expected a list of nonnegative integers, got [4, -4]",
            ),
        ],
    )
    def test_density_center_malformed_exits_1(self, tmp_path, capsys, center, message):
        payload = dict(M2_PAIR, samples=5, radius=1e-3, center=center)
        code, report, _ = run_cli(tmp_path, "density", payload)
        assert code == 1
        assert report is None
        assert message in capsys.readouterr().err

    def test_ambient_the_algebras_do_not_fill_is_diagnosed_once(self, tmp_path, capsys):
        # the run's dimension is known only once the algebras fill ambient, so
        # neither the center nor the radius is held to 10**200; the radius
        # was refused as below a resolution of inf
        payload = dict(M2_PAIR, ambient=10**200, samples=2, radius=1e-3, center=_EYE4)
        code, report, _ = run_cli(tmp_path, "density", payload)
        assert (code, report) == (1, None)
        assert capsys.readouterr().err == "".join(
            f"/algebras/{i}/mult: multiplicities fill dimension 4, not ambient {10**200}\n"
            for i in (0, 1)
        )

    def test_density_center_not_unitary_exits_1(self, tmp_path, capsys):
        payload = dict(M2_PAIR, samples=5, radius=1e-3, center=matrix_to_json(2 * np.eye(4)))
        code, report, _ = run_cli(tmp_path, "density", payload)
        assert code == 1
        assert report is None
        assert "/center: not unitary (defect" in capsys.readouterr().err

    def test_density_unitary_center_accepted(self, tmp_path):
        center = haar_unitary(4, 3)
        payload = dict(M2_PAIR, samples=5, radius=1e-3, center=matrix_to_json(center))
        code, report, _ = run_cli(tmp_path, "density", payload)
        assert code == 0
        assert np.array_equal(matrix_from_json(report["config"]["center"]), center)

    def test_density_center_at_the_bound_decides(self, tmp_path):
        # validate accepts a center whose defect is exactly 10 N^2 eps (here
        # at N = 24); density decides through its polar factor, where
        # conjugating by the center as given exited 4 on the rank band
        n = 24
        center = np.diag([1.0 + 2880 * EPS] + [1.0] * (n - 1))
        pair = {"algebras": [{"blocks": [1, 1], "mult": [12, 12]}] * 2, "ambient": n}
        payload = dict(pair, samples=4, seed=1, radius=1e-3, center=matrix_to_json(center))
        code, report, _ = run_cli(tmp_path, "density", payload)
        assert code == 0
        assert report["result"]["dims"] == [1] * 4

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("density", dict(M2_PAIR, samples=5)),
            ("dpi", dict(M2_FACTORS, samples=5)),
            ("dpi", dict(M2_FACTORS, samples=5, radius=1e-3)),
            ("build-primitive", BUILD_M2),
        ],
    )
    def test_center_without_density_radius_exits_1(self, tmp_path, capsys, command, payload):
        # a center applies only to local density; anywhere else it would be
        # dropped without a word (global density would report no center)
        payload = dict(payload, center=matrix_to_json(np.eye(4)))
        code, report, _ = run_cli(tmp_path, command, payload)
        assert code == 1
        assert report is None
        message = "a center needs a radius" if command == "density" else f"not read by {command}"
        assert capsys.readouterr().err == f"/center: {message}\n"

    @pytest.mark.parametrize(
        "command, payload, extra, pointer, shown",
        [
            ("density", dict(M2_PAIR, radius=float("inf")), (), "/radius", "inf"),
            ("density", dict(M2_PAIR, radius=float("nan")), (), "/radius", "nan"),
            ("density", dict(M2_PAIR, radius=True), (), "/radius", "True"),
            ("dpi", dict(M2_FACTORS, radius=float("inf")), (), "/radius", "inf"),
            ("dpi", dict(M2_FACTORS, radius=True), (), "/radius", "True"),
            ("build-primitive", dict(BUILD_M2, epsilon=True), (), "/epsilon", "True"),
            ("build-primitive", dict(BUILD_M2, epsilon=float("inf")), (), "/epsilon", "inf"),
            ("build-primitive", dict(BUILD_M2, epsilon=10**400), (), "/epsilon", "1000"),
        ],
    )
    def test_real_field_not_positive_finite_exits_1(
        self, tmp_path, capsys, command, payload, extra, pointer, shown
    ):
        # booleans, infinities, NaN and integers beyond float range are
        # rejected with a pointer before any numerics run
        if "samples" in READS[command]:
            payload = dict(payload, samples=3)
        code, report, _ = run_cli(tmp_path, command, payload, extra)
        assert code == 1
        assert report is None
        err = capsys.readouterr().err
        assert f"{pointer}: expected a positive finite number, got {shown}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("radius", [1e-15, 1e-300, 5e-324])
    @pytest.mark.parametrize("command, payload", [("dpi", DPI_C2_M2), ("density", DENSITY_M2M2)])
    def test_radius_below_resolution_exits_1(self, tmp_path, capsys, command, payload, radius):
        # a local step this small cannot be told from rounding at N = 4:
        # dpi reported [4]*4 where the answer is 1, and density [8]*4 where
        # the generic answer is 2, both with exit 0
        payload = dict(payload, samples=4, seed=1, radius=radius)
        code, report, _ = run_cli(tmp_path, command, payload)
        assert (code, report) == (1, None)
        assert capsys.readouterr().err == (
            f"/radius: radius {radius!r} is below resolution: a local step at dimension 4 "
            "must exceed 3.553e-14 (10 N^2 eps)\n"
        )

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("density", dict(M2_PAIR, ambient=10**400)),
            ("dpi", {"algebras": [{"blocks": [2], "mult": [10**400]}] * 2, "seed": 7}),
        ],
    )
    def test_dimension_past_float_range_exits_1(self, tmp_path, capsys, command, payload):
        # 10 N^2 eps cannot be formed for such an N (OverflowError); the
        # dimension is refused at its own pointer and the radius goes unchecked
        code, report, _ = run_cli(tmp_path, command, dict(payload, samples=3, radius=1e-3))
        assert (code, report) == (1, None)
        assert "/radius" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, payload, n",
        [
            ("dpi", DPI_C2_M2, 4),
            ("density", DENSITY_M2M2, 4),
            ("dpi", {"algebras": [{"blocks": [1, 1], "mult": [24, 24]},
                                  {"blocks": [1, 1, 1], "mult": [16, 16, 16]}]}, 48),
            ("density", {"algebras": [{"blocks": [1] * 48, "mult": [1] * 48},
                                      {"blocks": [24], "mult": [2]}], "ambient": 48}, 48),
        ],
        ids=["dpi-4", "density-4", "dpi-48", "density-48"],
    )
    def test_resolution_bound_is_refused_and_the_next_float_accepted(self, command, payload, n):
        # the bound is 10 N^2 eps: the dimension of the pair for dpi and the
        # ambient dimension for density
        bound = 10 * default_tolerance(n, 1.0)
        payload = dict(payload, samples=4, seed=1)
        diags = validate(ExperimentConfig(command=command, radius=bound, **payload))[1]
        assert [pointer for pointer, _ in diags] == ["/radius"]
        assert f"at dimension {n} must exceed {bound:.3e}" in diags[0][1]
        above = math.nextafter(bound, math.inf)
        assert validate(ExperimentConfig(command=command, radius=above, **payload))[1] == []

    @pytest.mark.parametrize("value", [MAX_COUNT + 1, 10**9, 10**400])
    @pytest.mark.parametrize(
        "command, payload, field",
        [
            ("density", dict(M2_PAIR, samples=3), "samples"),
            ("dpi", dict(M2_PAIR, samples=3), "samples"),
            ("build-primitive", BUILD_M2, "max_tries"),
        ],
    )
    def test_count_above_cap_exits_1(self, tmp_path, capsys, command, payload, field, value):
        # a count past the cap is a request for a run that does not end
        code, report, _ = run_cli(tmp_path, command, dict(payload, **{field: value}))
        assert code == 1
        assert report is None
        err = capsys.readouterr().err
        assert f"/{field}: {field} must be an integer from 1 to {MAX_COUNT}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["density", "dpi", "build-primitive"])
    def test_count_at_cap_validates(self, command):
        field = "max_tries" if command == "build-primitive" else "samples"
        payload = dict(VALID_CONFIGS[command], probe=None, **{field: MAX_COUNT})
        config = ExperimentConfig(command=command, **payload)
        assert validate(config)[1] == []

    def test_build_whose_decision_cannot_fit_exits_1_before_any_search(
        self, tmp_path, capsys, monkeypatch
    ):
        # C+M2 against C^3: RCP padding takes the pair from 12 to 60 to 252,
        # where one commutant decision would hold about 81 GiB
        def no_search(*args, **kwargs):
            raise AssertionError("a refused config reached the staged build")

        monkeypatch.setattr(subalg.cli, "staged_build", no_search)
        payload = {
            "algebras": [{"blocks": [1, 2]}, {"blocks": [1, 1, 1]}],
            "stages": [[[0, 1], [0, 1, 1]]] * 2 + [[[1, 0], [0, 0, 1]]],
            "epsilon": 0.5,
            "seed": 40,
        }
        start = time.perf_counter()
        code, report, _ = run_cli(tmp_path, "build-primitive", payload)
        elapsed = time.perf_counter() - start
        assert (code, report) == (1, None)
        err = capsys.readouterr().err
        assert err.startswith("/stages/2: one decision at dimension 252 needs 81.4 GiB")
        assert elapsed < 1.0

    def test_stage_past_float_range_exits_1(self, tmp_path, capsys):
        # 10**200 copies: the decision's byte count is past float range
        payload = {
            "algebras": [{"blocks": [1, 1]}, {"blocks": [2]}],
            "stages": [[[10**200, 10**200], [10**200]]],
            "epsilon": 0.5,
            "seed": 1,
        }
        code, report, _ = run_cli(tmp_path, "build-primitive", payload)
        assert (code, report) == (1, None)
        err = capsys.readouterr().err
        assert err.startswith("/stages/0: one decision at dimension 2" + "0" * 200 + " needs ")
        assert "e+" in err and "Traceback" not in err

    def test_epsilon_whose_search_radius_underflows_exits_1(self, tmp_path, capsys):
        # 5e-324 / 12 is 0.0, stage 1's search radius, which no rank decision
        # resolves: validate refuses the epsilon first, with a pointer, before
        # any search
        payload = dict(C2_TWO_STAGES, epsilon=5e-324)
        code, report, _ = run_cli(tmp_path, "build-primitive", payload)
        assert (code, report) == (1, None)
        err = capsys.readouterr().err
        assert err.startswith("/epsilon: ")
        assert err == (
            "/epsilon: epsilon 5e-324 is too small at stage 1: radius 0.0 is below resolution: "
            "a local step at dimension 2 must exceed 8.882e-15 (10 N^2 eps)\n"
        )

    @pytest.mark.parametrize(
        "epsilon, stages, refused",
        [(1e-14, 3, (1, 2)), (1e-300, 3, (1, 2)), (1e-12, 3, (3, 6)), (1e-12, 2, None)],
    )
    def test_build_with_an_unresolved_stage_exits_1(self, tmp_path, capsys, epsilon, stages,
                                                    refused):
        # C^2 (1, 1) against M2 (1), stage after stage: stage k searches at
        # epsilon / ((k + 1)(k + 2)) / 2 at N = 2k.  At 1e-14 stage 2's radius
        # 4.17e-16 is below its bound 3.553e-14, and the build exhausted its
        # tries, every one undecidable; stage 1's radius is below its bound
        # too, and validate holds every stage that adds dimension to the rule,
        # as it cannot know before deciding that stage 1's identity is
        # irreducible.  At 1e-12 stage 3 is the first unresolved stage; in
        # two stages every radius resolves, and the search meets the rank band
        payload = {"algebras": [{"blocks": [1, 1]}, {"blocks": [2]}],
                   "stages": [[[1, 1], [1]]] * stages, "epsilon": epsilon, "seed": 3}
        code, report, _ = run_cli(tmp_path, "build-primitive", payload)
        err = capsys.readouterr().err
        if refused is None:
            assert (code, report) == (4, None)
            assert err.startswith("numerical instability: rank decision")
            return
        stage, n = refused
        radius = epsilon / ((stage + 1) * (stage + 2)) / 2
        assert (code, report) == (1, None)
        assert err == (
            f"/epsilon: epsilon {epsilon!r} is too small at stage {stage}: radius {radius!r} "
            f"is below resolution: a local step at dimension {n} must exceed "
            f"{resolution(n):.3e} (10 N^2 eps)\n"
        )

    @pytest.mark.parametrize("epsilon", [0.5, 5e-324])
    @pytest.mark.parametrize(
        "algebras, pointer",
        [([], "/algebras"), ([{"blocks": [1]}, {"blocks": []}], "/algebras/1/blocks")],
    )
    def test_invalid_algebra_with_empty_stages_exits_1(
        self, tmp_path, capsys, algebras, pointer, epsilon
    ):
        # stages that add no dimension over an invalid algebra: the algebra's
        # diagnostic is printed, and no stage is searched for its radius
        payload = {"algebras": algebras, "stages": [[[0], [0]]], "epsilon": epsilon, "seed": 1}
        code, report, _ = run_cli(tmp_path, "build-primitive", payload)
        assert (code, report) == (1, None)
        err = capsys.readouterr().err
        assert err.startswith(pointer + ": ") and "Traceback" not in err
        assert "/epsilon" not in err

    @pytest.mark.parametrize("empty", [0, 3])
    def test_least_epsilon_validates(self, empty):
        # stage 2 searches at radius (epsilon / 12) / 2 at N = 4, however
        # many empty stages follow, and stage 1 at twice that at N = 2: the
        # least accepted epsilon is the float above 24 times the bound at
        # N = 4, and the float below it halves to the bound itself
        stages = C2_TWO_STAGES["stages"] + [[[0, 0], [0, 0]]] * empty
        least = math.nextafter(24 * resolution(4), math.inf)
        assert least / 12 / 2 > resolution(4) == math.nextafter(least, 0) / 12 / 2
        for epsilon, pointers in ((least, []), (math.nextafter(least, 0), ["/epsilon"])):
            payload = dict(C2_TWO_STAGES, stages=stages, epsilon=epsilon)
            diags = validate(ExperimentConfig(command="build-primitive", **payload))[1]
            assert [pointer for pointer, _ in diags] == pointers, epsilon

    @pytest.mark.parametrize("n, refused", [(48, False), (96, False), (144, True)])
    def test_dpi_decision_cap(self, n, refused):
        # C^2 (n/2, n/2) against C^3 (n/3, n/3, n/3): about 65 MiB at N = 48,
        # 1.0 GiB at N = 96 and 5.0 GiB, past the 4 GiB cap, at N = 144
        payload = {
            "algebras": [
                {"blocks": [1, 1], "mult": [n // 2] * 2},
                {"blocks": [1, 1, 1], "mult": [n // 3] * 3},
            ],
            "samples": 4,
            "seed": 3,
        }
        diags = validate(ExperimentConfig(command="dpi", **payload))[1]
        if refused:
            assert diags == [
                ("/algebras", "one decision at dimension 144 needs 5.02 GiB, past the 4 GiB cap")
            ]
        else:
            assert diags == []

    def test_density_pair_past_the_cap_exits_1(self, tmp_path, capsys, monkeypatch):
        # M1000 (x) 1_2 against itself at N = 2000: a realized basis alone
        # would hold 58 TiB, and the run died in the realization
        def no_run(*args, **kwargs):
            raise AssertionError("a refused config reached the density run")

        monkeypatch.setattr(subalg.cli, "density_experiment", no_run)
        payload = {
            "algebras": [{"blocks": [1000], "mult": [2]}, {"blocks": [1000], "mult": [2]}],
            "ambient": 2000,
            "samples": 1,
            "seed": 1,
        }
        start = time.perf_counter()
        code, report, _ = run_cli(tmp_path, "density", payload)
        elapsed = time.perf_counter() - start
        assert (code, report) == (1, None)
        err = capsys.readouterr().err
        want = "one decision at dimension 2000 needs 2.38e+5 GiB, past the 4 GiB cap"
        assert err == f"/algebras: {want}\n"
        assert elapsed < 1.0

    @pytest.mark.parametrize(
        "half, refused", [(24, False), (48, False), (50, False), (54, True), (64, True)]
    )
    def test_density_cap(self, half, refused):
        # M_h + M_h against itself at N = 2h: 162 MiB at N = 48 (CI's
        # largest density run), 2.5 GiB at N = 96, 2.98 GiB at N = 100,
        # 4.05 GiB at N = 108 and 8 GiB at N = 128.  With the meet's basis
        # and its closure products counted, N = 100 (4.47 GiB) was refused
        n = 2 * half
        pair = {"blocks": [half, half], "mult": [1, 1]}
        payload = {"algebras": [pair, pair], "ambient": n, "samples": 4, "seed": 3}
        diags = validate(ExperimentConfig(command="density", **payload))[1]
        if refused:
            gib = {54: "4.05", 64: "8"}[half]
            want = f"one decision at dimension {n} needs {gib} GiB, past the 4 GiB cap"
            assert diags == [("/algebras", want)]
        else:
            assert diags == []

    @pytest.mark.parametrize("side", [None, 3])
    def test_probe_letter_without_valid_side_exits_1(self, tmp_path, capsys, side):
        letter = {"value": matrix_to_json(np.eye(2))}
        if side is not None:
            letter["side"] = side
        probe = {"elements": [{"terms": [{"coeff": [1.0, 0.0], "word": [letter]}]}]}
        probe_path = tmp_path / "probe.json"
        probe_path.write_text(json.dumps(probe))
        payload = {
            "algebras": [{"blocks": [2]}, {"blocks": [2]}],
            "stages": [[[1], [1]]],
            "epsilon": 0.5,
            "seed": 11,
            "probe": str(probe_path),
        }
        code, report, _ = run_cli(tmp_path, "build-primitive", payload)
        assert code == 1
        assert report is None
        assert "/elements/0/terms/0/word/0/side: expected 1 or 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "probe, message",
        [
            ({"elements": [{"terms": ["oops"]}]}, "/elements/0/terms/0: expected an object"),
            (
                {"elements": [{"terms": [{"word": ["x"]}]}]},
                "/elements/0/terms/0/word/0: expected an object",
            ),
            ({"elements": [3]}, "/elements/0: expected an object"),
            ({"elements": 3}, "/elements: expected a list"),
            ({"elements": [{"terms": {}}]}, "/elements/0/terms: expected a list"),
            (
                {"elements": [{"terms": [{"coeff": "x"}]}]},
                "/elements/0/terms/0/coeff: expected [re, im], got 'x'",
            ),
            (
                {"elements": [{"terms": [{"word": [{"side": 1}]}]}]},
                "/elements/0/terms/0/word/0/value: expected {shape, data}",
            ),
            (
                probe_with_value({"shape": [2, 2], "data": [[1, 0], "a", [0, 0], [1, 0]]}),
                "/elements/0/terms/0/word/0/value/data/1: expected [re, im], got 'a'",
            ),
            (
                probe_with_value({"shape": [2.0, 2], "data": []}),
                "/elements/0/terms/0/word/0/value/shape: expected a list of nonnegative integers",
            ),
            (
                probe_with_value(matrix_to_json(np.eye(3))),
                "/elements/0/terms/0/word/0/value: expected 2x2 for /algebras/0, got shape [3, 3]",
            ),
            (
                probe_with_value({"shape": [1, 1], "data": [[10**400, 0]]}),
                "/elements/0/terms/0/word/0/value/data/0: expected [re, im], got [1000",
            ),
            (
                probe_with_value({"shape": [2, 2], "data": [[float("nan"), 0]] + [[0, 0]] * 3}),
                "/elements/0/terms/0/word/0/value/data/0: expected [re, im], got [nan, 0]",
            ),
            (
                probe_with_value({"shape": [2, 2], "data": [[0, 0], [float("inf"), 0]] * 2}),
                "/elements/0/terms/0/word/0/value/data/1: expected [re, im], got [inf, 0]",
            ),
            (
                {"elements": [{"terms": [{"coeff": [10**400, 0]}]}]},
                "/elements/0/terms/0/coeff: expected [re, im], got [1000",
            ),
            (
                {"elements": [{"terms": [{"coeff": [float("nan"), 0.0]}]}]},
                "/elements/0/terms/0/coeff: expected [re, im], got [nan, 0.0]",
            ),
            (
                {"elements": [{"terms": [{"word": [
                    {"side": 1, "value": matrix_to_json(np.eye(2))},
                    {"side": 1, "value": matrix_to_json(np.eye(2))},
                ]}]}]},
                "/elements/0/terms/0/word/1/side: consecutive letters must alternate sides",
            ),
            (
                # finite entries whose products overflow
                {"elements": [{"terms": [{"word": [
                    {"side": 1, "value": matrix_to_json(1e300 * np.eye(2))},
                    {"side": 2, "value": matrix_to_json(1e300 * np.eye(2))},
                ]}]}]},
                "/elements/0: too large to evaluate (norm bound inf)",
            ),
            (
                {"elements": [{"terms": [{"coeff": [1.7e308, 1.7e308]}]}]},
                "/elements/0: too large to evaluate (norm bound inf)",
            ),
        ],
    )
    def test_malformed_probe_exits_1(self, tmp_path, capsys, probe, message):
        probe_path = tmp_path / "probe.json"
        probe_path.write_text(json.dumps(probe))
        payload = dict(BUILD_M2, probe=str(probe_path))
        code, report, _ = run_cli(tmp_path, "build-primitive", payload)
        assert code == 1
        assert report is None
        err = capsys.readouterr().err
        assert message in err
        assert "not a JSON file" not in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["enumerate", "density", "dpi", "build-primitive"])
    def test_algebras_not_a_list_exits_1(self, tmp_path, capsys, command):
        payload = dict(valid_payload(command, tmp_path), algebras=5)
        code, report, _ = run_cli(tmp_path, command, payload)
        assert code == 1
        assert report is None
        assert capsys.readouterr().err == "/algebras: expected a list\n"

    def test_out_not_a_path_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "config.json", dict(VALID_CONFIGS["enumerate"], out=7))
        assert main(["enumerate", "--config", cfg]) == 1
        assert capsys.readouterr().err == "/out: expected a file path, got 7\n"

    @pytest.mark.parametrize("config", ["a directory", "not UTF-8"])
    def test_unreadable_config_exits_1(self, tmp_path, capsys, config):
        if config == "a directory":
            path, message = tmp_path, "cannot read the config: Is a directory"
        else:
            path, message = tmp_path / "latin1.json", "not a UTF-8 file (byte 10: invalid"
            path.write_bytes('{"seed": "\xe9"}'.encode("latin-1"))
        assert main(["density", "--config", str(path)]) == 1
        assert f"{path}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "out, in_config, message",
        [
            ("missing/report.json", False, "no directory"),
            ("folder", False, "it is a directory"),
            ("folder", True, "it is a directory"),
        ],
    )
    def test_unwritable_out_exits_1_before_running(
        self, tmp_path, capsys, monkeypatch, out, in_config, message
    ):
        # refused by validate, before a sample is drawn or a report written,
        # whether the path comes from --out or from the config's out
        (tmp_path / "folder").mkdir()
        monkeypatch.setattr(subalg.cli, "run", lambda *a: pytest.fail("the run started"))
        path = str(tmp_path / out)
        payload = dict(M2_PAIR, samples=3, **({"out": path} if in_config else {}))
        cfg = write_config(tmp_path / "config.json", payload)
        argv = ["density", "--config", cfg] + ["--out", path] * (not in_config)
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"/out: cannot write {path!r}: {message}")

    def test_failed_report_write_exits_1(self, tmp_path, capsys):
        # a file name past the system's limit passes validate and fails to open
        cfg = write_config(tmp_path / "config.json", dict(M2_PAIR, samples=3))
        path = str(tmp_path / ("r" * 300))
        assert main(["density", "--config", cfg, "--out", path]) == 1
        assert capsys.readouterr().err.startswith(f"/out: cannot write {path!r}: File name too long")

    def test_probe_not_a_path_exits_1(self, tmp_path, capsys):
        code, report, _ = run_cli(tmp_path, "build-primitive", dict(BUILD_M2, probe=7))
        assert code == 1
        assert report is None
        assert "/probe: expected a file path, got 7" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [(None, "No such file or directory"), ('{"elements": [', "is not a JSON file")],
    )
    def test_unreadable_probe_file_exits_1(self, tmp_path, capsys, text, message):
        probe_path = tmp_path / "probe.json"
        if text is not None:
            probe_path.write_text(text)
        payload = dict(BUILD_M2, probe=str(probe_path))
        code, report, _ = run_cli(tmp_path, "build-primitive", payload)
        assert code == 1
        assert report is None
        err = capsys.readouterr().err
        assert "/probe: " in err and message in err

    def test_probe_file_is_read_as_utf8_under_an_ascii_locale(self, tmp_path):
        # like the config, the probe file is UTF-8 whatever the locale says
        probe_path = tmp_path / "probe.json"
        probe = dict(probe_with_value(matrix_to_json(np.diag([1.0, 2.0]))), note="café")
        probe_path.write_text(json.dumps(probe, ensure_ascii=False), encoding="utf-8")
        cfg = write_config(tmp_path / "config.json", dict(BUILD_M2, probe=str(probe_path)))
        out = tmp_path / "report.json"
        src = str(Path(subalg.__file__).resolve().parents[1])
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = ["build-primitive", "--config", cfg, "--out", str(out)]
        proc = subprocess.run(
            [sys.executable, "-m", "subalg", *argv], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        (stage,) = json.loads(out.read_text())["result"]["stages"]
        assert len(stage["probe_residuals"]) == 1

    def test_probe_value_off_the_block_model_exits_1(self, tmp_path, capsys):
        # amplify reads only the diagonal blocks of C^2, so this value would act as 0
        probe_path = tmp_path / "probe.json"
        value = matrix_to_json(np.array([[0, 5], [5, 0]]))
        probe_path.write_text(json.dumps(probe_with_value(value)))
        payload = dict(BUILD_M2, algebras=[{"blocks": [1, 1]}, {"blocks": [2]}])
        payload["stages"] = [[[1, 1], [1]]]
        code, report, _ = run_cli(tmp_path, "build-primitive", dict(payload, probe=str(probe_path)))
        assert code == 1
        assert report is None
        assert (
            "/elements/0/terms/0/word/0/value: nonzero entry at (0, 1) outside the diagonal "
            "blocks of /algebras/0" in capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "u, message",
        [
            (np.eye(3), "/u: expected 4x4, got shape [3, 3]"),
            (np.diag([1.0 + 1e-7, 1.0, 1.0, 1.0]), "/u: not unitary (defect"),
        ],
    )
    def test_dpi_bad_u_exits_1(self, tmp_path, capsys, u, message):
        payload = dict(M2_PAIR, samples=3, u=matrix_to_json(u))
        del payload["ambient"]
        code, report, _ = run_cli(tmp_path, "dpi", payload)
        assert code == 1
        assert report is None
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("n", [4, 24])
    def test_one_unitarity_bound_for_configs_and_the_library(self, n, monkeypatch):
        # the same matrices through RepPair, density_experiment's center and
        # validate's /u and /center: diag(1 + k eps, 1, ..., 1) has the
        # defect 2 k eps exactly, and the bound 10 N^2 eps is that at
        # k = 5 N^2.  Below N = 22 RepPair and the center used to admit
        # defects up to 1e-12, such as 4e-13 from k = 900 at N = 4.  The
        # center is checked before any draw, and no draw is made here
        monkeypatch.setattr(subalg.numeric, "sample_dims", lambda *args: iter(()))
        eps, half, c2 = np.finfo(float).eps, n // 2, BlockStructure((1, 1))
        b = EmbeddedAlgebra(n, c2, (half, half))
        algebras = [{"blocks": [1, 1], "mult": [half, half]}] * 2
        pair = {"algebras": algebras, "samples": 1, "seed": 1}

        def accepted(check):
            try:
                check()
            except ValueError:
                return False
            return True

        for k in (1, 900, 5 * n * n - 1, 5 * n * n, 5 * n * n + 1, 10 * n * n):
            m = np.diag([1.0 + k * eps] + [1.0] * (n - 1))
            doc = matrix_to_json(m)
            dpi = ExperimentConfig(command="dpi", u=doc, **pair)
            density = ExperimentConfig(
                command="density", ambient=n, radius=1e-3, center=doc, **pair
            )
            verdicts = [
                accepted(lambda: RepPair(c2, (half, half), c2, (half, half), m)),
                accepted(lambda: density_experiment(b, b, 1, seed=1, radius=1e-3, center=m)),
                validate(dpi)[1] == [],
                validate(density)[1] == [],
            ]
            assert verdicts == [k <= 5 * n * n] * 4, k
            if not verdicts[0]:
                message = f"not unitary (defect {2 * k * eps:.3e})"
                assert validate(dpi)[1] == [("/u", message)]
                assert validate(density)[1] == [("/center", message)]

    def test_dpi_u_within_validate_bound_runs(self, tmp_path, capsys):
        # At N = 24 validate's bound 10 * N^2 * eps exceeds 1e-12; a u that
        # passes validation must not be rejected later by RepPair.
        n = 24
        pair = {"algebras": [{"blocks": [1, 1], "mult": [12, 12]}] * 2, "seed": 7, "samples": 1}
        u = (1 + 1.12e-13) * np.eye(n)
        assert np.linalg.norm(u.conj().T @ u - np.eye(n)) > 1e-12
        code, report, _ = run_cli(tmp_path, "dpi", dict(pair, u=matrix_to_json(u)))
        assert code == 0
        assert report["result"]["samples"] == 1

        # defect ||(1 + d)^2 I - I||_F is about 2 d sqrt(N): twice the bound
        bound = 10 * default_tolerance(n, 1.0)
        u = (1 + bound / np.sqrt(n)) * np.eye(n)
        (tmp_path / "twice").mkdir()
        code, report, _ = run_cli(tmp_path / "twice", "dpi", dict(pair, u=matrix_to_json(u)))
        assert code == 1
        assert report is None
        assert "/u: not unitary (defect" in capsys.readouterr().err

        # local dpi composes each step w with u: the rounding in w @ u must not
        # be checked against the bound again (u's defect is 99.9% of it)
        u = (1 + 0.999 * bound / (2 * np.sqrt(n))) * np.eye(n)
        assert 0.99 * bound < np.linalg.norm(u.conj().T @ u - np.eye(n)) <= bound
        local = dict(pair, samples=8, radius=1e-3, u=matrix_to_json(u))
        (tmp_path / "local").mkdir()
        code, report, _ = run_cli(tmp_path / "local", "dpi", local)
        assert code == 0
        assert report["result"]["dims"] == [12] * 8

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("density", dict(M2_PAIR, samples=3)),
            ("dims", M2_PAIR),
            ("rcp-balance", M2_FACTORS),
            ("build-primitive", BUILD_M2),
        ],
    )
    def test_u_outside_dpi_exits_1(self, tmp_path, capsys, command, payload):
        # only dpi perturbs by u; anywhere else it would be echoed and ignored
        u = matrix_to_json(np.diag([2.0, 1.0, 1.0, 1.0]))
        code, report, _ = run_cli(tmp_path, command, dict(payload, u=u))
        assert code == 1
        assert report is None
        assert capsys.readouterr().err == f"/u: not read by {command}\n"

    @pytest.mark.parametrize("radius", [None, 1e-3])
    @pytest.mark.parametrize(
        "algebra, dim",
        [
            ({"blocks": [1], "mult": [4]}, 16),
            # both commutants have dimension 8; conjugating the units by u*
            # instead of u^-1 leaves the defect in the stability band (exit 4)
            ({"blocks": [1, 1], "mult": [2, 2]}, 2),
        ],
    )
    def test_dpi_u_defect_inside_validate_bound_decides(self, tmp_path, algebra, dim, radius):
        # u = diag(1 + d, 1, 1, 1) with defect 48 eps = 1.07e-14, 30% of the bound
        n = 4
        u = np.diag([1.0 + 24 * np.finfo(float).eps, 1.0, 1.0, 1.0])
        defect = np.linalg.norm(u.conj().T @ u - np.eye(n))
        assert defect == pytest.approx(0.3 * 10 * default_tolerance(n, 1.0))
        payload = {
            "algebras": [algebra, algebra],
            "seed": 5,
            "samples": 8,
            "radius": radius,
            "u": matrix_to_json(u),
        }
        code, report, _ = run_cli(tmp_path, "dpi", payload)
        assert code == 0
        assert report["result"]["dims"] == [dim] * 8

    def test_dpi_on_dimension_0_exits_1(self, tmp_path, capsys):
        payload = {"algebras": [{"blocks": [1, 1], "mult": [0, 0]}, {"blocks": [2], "mult": [0]}],
                   "samples": 2, "seed": 1}
        code, report, _ = run_cli(tmp_path, "dpi", payload)
        assert code == 1
        assert report is None
        assert "/algebras/0/mult: dpi needs a nonzero dimension, got 0" in capsys.readouterr().err

    def test_dpi_unitary_u_accepted(self, tmp_path):
        payload = dict(M2_PAIR, samples=3, u=matrix_to_json(haar_unitary(4, 8)))
        del payload["ambient"]
        code, report, _ = run_cli(tmp_path, "dpi", payload)
        assert code == 0

    @pytest.mark.parametrize(
        "stages, message",
        [
            ([[["a"], [1]]], "/stages/0/0/0: expected a nonnegative integer, got 'a'"),
            ([[[1], [1]], [[1], [-1]]], "/stages/1/1/0: expected a nonnegative integer, got -1"),
            ([[[1], [1.5]]], "/stages/0/1/0: expected a nonnegative integer, got 1.5"),
            ([[[1, 1], [1]]], "/stages/0/0: expected 1 entries, one per block of /algebras/0"),
            ([[[2], [1]]], "/stages/0: factor dimensions differ: 4 vs 2"),
            ([[[0], [0]], [[1], [1]]], "/stages/0: the first stage fills dimension 0"),
        ],
    )
    def test_bad_stage_row_exits_1(self, tmp_path, capsys, stages, message):
        payload = dict(BUILD_M2, stages=stages)
        code, report, _ = run_cli(tmp_path, "build-primitive", payload)
        assert code == 1
        assert report is None
        assert message in capsys.readouterr().err

    def test_command_mismatch_flagged(self, tmp_path, capsys):
        payload = dict(M2_PAIR, command="density", samples=5)
        code, _, _ = run_cli(tmp_path, "enumerate", payload)
        assert code == 1
        assert "/command" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, payload, pointer",
        [
            ("density", dict(M2_PAIR, samples=2, raduis=1e-3), "/raduis"),
            ("build-primitive", dict(BUILD_M2, max_trys=4), "/max_trys"),
            ("density", dict(M2_PAIR, samples=2, **{"a/b~c": 1}), "/a~1b~0c"),
            ("dpi", dict(M2_FACTORS, samples=2, tolerance=1000), "/tolerance"),
            ("density", dict(M2_PAIR, samples=2, format="json"), "/format"),
        ],
    )
    def test_unknown_field_exits_1(self, tmp_path, capsys, command, payload, pointer):
        # a misspelled field would be dropped, and its default would run
        # (a density run without its radius is global); the pointer escapes
        # '~' and '/' as RFC 6901 does.  The rank tolerance is no field: every
        # cutoff is the default one.  Nor is the output format: the JSON
        # report is the one output
        code, report, _ = run_cli(tmp_path, command, payload)
        assert (code, report) == (1, None)
        assert capsys.readouterr().err == f"{pointer}: unknown field\n"


# One small valid config per command.  The build-primitive probe is a
# document of its own, written next to the config.
_EYE4 = matrix_to_json(np.eye(4))
_PROBE = {"elements": [{"terms": [{"coeff": [1.0, 0.0], "word": [
    {"side": 2, "value": matrix_to_json(np.array([[0, 1], [1, 0]]))},
    {"side": 1, "value": matrix_to_json(np.diag([1, -1]))},
]}]}]}
VALID_CONFIGS = {
    "enumerate": {"algebras": [{"blocks": [2], "mult": [2]}], "ambient": 4, "seed": 7},
    "dims": M2_PAIR,
    "thm41-check": M2_PAIR,
    "density": dict(M2_PAIR, samples=2, radius=1e-3, center=_EYE4),
    "rcp-balance": {"algebras": [{"blocks": [1, 1], "mult": [2, 2]},
                                 {"blocks": [2], "mult": [2]}], "seed": 1},
    "dpi": {"algebras": [{"blocks": [2], "mult": [2]}, {"blocks": [2], "mult": [2]}],
            "samples": 2, "radius": 1e-3, "u": _EYE4, "seed": 5},
    "build-primitive": {"algebras": [{"blocks": [1, 1]}, {"blocks": [2]}],
                        "stages": [[[1, 1], [1]]], "epsilon": 0.5, "seed": 11,
                        "max_tries": 4, "probe": "probe.json"},
}
_DELETE = object()
_POOL = [
    _DELETE, None, True, False, 0, -1, 1, 2, 0.5, float("nan"), float("inf"),
    float("-inf"), 1e300, 10**400, "x", "", [], {}, [1, 0], [[1, 0]], [float("nan"), 0],
    [10**400, 0], {"shape": [1, 1], "data": [[1, 0]]},
]
# "pointer: message" from validation, or "file:line:col: message" from parsing
_DIAGNOSTIC = re.compile(r"^(/\S*|\S+:\d+:\d+): \S")


def _paths(doc, prefix=()):
    """Every key and index path below the root of a JSON document."""
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield prefix + (key,)
            yield from _paths(value, prefix + (key,))


def _mutate(doc, path, value):
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)


def valid_payload(command, tmp_path):
    """VALID_CONFIGS[command], its probe file written to tmp_path."""
    payload = copy.deepcopy(VALID_CONFIGS[command])
    if "probe" in payload:
        (tmp_path / "probe.json").write_text(json.dumps(_PROBE))
        payload["probe"] = str(tmp_path / "probe.json")
    return payload


# Every (command, config field it does not read), from the table in cli
_CONFIG_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}
_UNREAD = [(cmd, name) for cmd in COMMANDS for name in sorted(_CONFIG_FIELDS - READS[cmd])]


class TestFieldsReadByCommand:
    """A config refused for a field, flag or spec entry its command does not read.

    Each case adds one such entry to a valid config and exits 1 with exactly
    one diagnostic at its pointer, writing no report.
    """

    def refused(self, tmp_path, capsys, command, payload, extra=()):
        code, report, _ = run_cli(tmp_path, command, payload, extra)
        assert (code, report) == (1, None)
        return capsys.readouterr().err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_valid_config_runs(self, tmp_path, command):
        # and its report echoes exactly the fields the command reads
        code, report, _ = run_cli(tmp_path, command, valid_payload(command, tmp_path))
        assert code == 0 and report["status"] == "ok"
        assert set(report["config"]) == READS[command]

    def test_table(self):
        # 35 settable fields over the seven commands, each read by some command
        assert len(_UNREAD) == 7 * len(_CONFIG_FIELDS) - sum(map(len, READS.values()))
        assert sum(len(read - {"command"}) for read in READS.values()) == 35
        assert set().union(*READS.values()) == _CONFIG_FIELDS

    @pytest.mark.parametrize("command, name", _UNREAD)
    def test_unread_field_exits_1(self, tmp_path, capsys, command, name):
        # the value is one another command reads, from its valid config
        value = next(cfg[name] for cfg in VALID_CONFIGS.values() if name in cfg)
        payload = dict(valid_payload(command, tmp_path), **{name: value})
        assert self.refused(tmp_path, capsys, command, payload) == (
            f"/{name}: not read by {command}\n"
        )

    @pytest.mark.parametrize("command", [c for c in COMMANDS if "samples" not in READS[c]])
    def test_samples_flag_exits_1(self, tmp_path, capsys, command):
        payload = valid_payload(command, tmp_path)
        err = self.refused(tmp_path, capsys, command, payload, ["--samples", "3"])
        assert err == f"/samples: not read by {command}\n"

    @pytest.mark.parametrize("command", COMMANDS)
    def test_one_algebra_spec_too_many_exits_1(self, tmp_path, capsys, command):
        payload = valid_payload(command, tmp_path)
        want = len(payload["algebras"])
        payload["algebras"].append(payload["algebras"][-1])
        assert self.refused(tmp_path, capsys, command, payload) == (
            f"/algebras: command {command!r} reads {want} algebra spec(s), got {want + 1}\n"
        )

    def test_mult_under_build_primitive_exits_1(self, tmp_path, capsys):
        payload = valid_payload("build-primitive", tmp_path)
        payload["algebras"][1]["mult"] = [1]
        err = self.refused(tmp_path, capsys, "build-primitive", payload)
        assert err == "/algebras/1/mult: not read by build-primitive\n"

    @pytest.mark.parametrize("command", COMMANDS)
    def test_unknown_spec_key_exits_1(self, tmp_path, capsys, command):
        # a misspelled mult, its pointer escaped as RFC 6901 does
        payload = valid_payload(command, tmp_path)
        payload["algebras"][0]["ml/t"] = [1]
        err = self.refused(tmp_path, capsys, command, payload)
        assert err == "/algebras/0/ml~1t: unknown field\n"

    @pytest.mark.parametrize("command", COMMANDS)
    def test_key_diagnostics_print_before_value_diagnostics(self, tmp_path, capsys, command):
        # the seed comes first in the file, but the diagnostics of the keys
        # (load_config) print before those of the values (validate)
        payload = dict(valid_payload(command, tmp_path), colour="red", seed=-1)
        assert list(payload).index("seed") < list(payload).index("colour")
        assert self.refused(tmp_path, capsys, command, payload) == (
            "/colour: unknown field\n/seed: seed must be a nonnegative integer\n"
        )


class TestBoundary:
    @pytest.mark.parametrize(
        "command, counts", [("build-primitive", (1, 0)), ("dpi", (0, 1)), ("density", (0, 1))]
    )
    def test_each_config_value_is_parsed_once(self, tmp_path, monkeypatch, command, counts):
        # validate parses the probe file, u and center; run reuses its values
        calls = {"load_probe_file": 0, "matrix_from_json": 0}
        for name in calls:
            def counted(*args, _name=name, _real=getattr(subalg.cli, name)):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(subalg.cli, name, counted)
        code, _, _ = run_cli(tmp_path, command, valid_payload(command, tmp_path))
        assert code == 0
        assert (calls["load_probe_file"], calls["matrix_from_json"]) == counts

    @settings(max_examples=300, deadline=None)
    @given(command=st.sampled_from(sorted(VALID_CONFIGS)), data=st.data())
    def test_mutated_config_decides_or_exits_1_with_diagnostics(self, command, data):
        # One or two entries of a valid config or probe file replaced or
        # deleted: the run decides (exit 0, 2 or 3) or exits 1 with one
        # diagnostic per line, never with a traceback or a bare message.
        with tempfile.TemporaryDirectory() as tmp:
            docs = {"config": copy.deepcopy(VALID_CONFIGS[command])}
            if "probe" in docs["config"]:
                docs["config"]["probe"] = str(Path(tmp, "probe.json"))
                docs["probe"] = copy.deepcopy(_PROBE)
            for _ in range(data.draw(st.integers(1, 2), label="mutations")):
                name = data.draw(st.sampled_from(sorted(docs)), label="document")
                paths = list(_paths(docs[name]))
                if not paths:
                    continue
                path = data.draw(st.sampled_from(paths), label="path")
                value = data.draw(st.sampled_from(_POOL), label="value")
                _mutate(docs[name], path, value)
            Path(tmp, "probe.json").write_text(json.dumps(docs.get("probe", _PROBE)))
            config = Path(tmp, "config.json")
            config.write_text(json.dumps(docs["config"]))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([command, "--config", str(config), "--out", str(Path(tmp, "r"))])
        assert code in (0, 1, 2, 3), (code, err.getvalue())
        if code == 1:
            lines = err.getvalue().splitlines()
            assert lines and all(_DIAGNOSTIC.match(line) for line in lines), lines


TALLY_KEYS = {"samples", "trivial_count", "dims_histogram", "dims"}


class TestCommands:
    def test_enumerate(self, tmp_path):
        code, report, _ = run_cli(tmp_path, "enumerate", VALID_CONFIGS["enumerate"])
        assert code == 0
        assert report["status"] == "ok"
        assert report["result"]["count"] == 3
        structures = {tuple(c["structure"]) for c in report["result"]["classes"]}
        assert structures == {(1,), (1, 1), (2,)}

    def test_dims(self, tmp_path):
        code, report, _ = run_cli(tmp_path, "dims", M2_PAIR)
        assert code == 0
        row = next(
            r for r in report["result"]["classes"] if r["structure"] == [1, 1]
        )
        assert row["stab_dim"] == 2
        assert row["class_dim"] == 2
        assert row["orbit_dims_histogram"] == {"10": 1}
        assert row["d"] == 12

    def test_thm41_check_covered(self, tmp_path):
        code, report, _ = run_cli(tmp_path, "thm41-check", M2_PAIR)
        assert code == 0
        assert report["result"]["case"] == 1
        assert report["result"]["all_pass"] is True

    def test_thm41_check_not_covered_exits_2(self, tmp_path):
        payload = {
            "algebras": [
                {"blocks": [2, 2], "mult": [1, 1]},
                {"blocks": [2, 2], "mult": [1, 1]},
            ],
            "ambient": 4,
            "seed": 7,
        }
        code, report, _ = run_cli(tmp_path, "thm41-check", payload)
        assert code == 2
        assert report["status"] == "not-covered"

    @pytest.mark.parametrize(
        "command, payload, keys",
        [
            ("density", dict(M2_PAIR, samples=3), TALLY_KEYS),
            ("density", dict(M2_PAIR, samples=3, radius=1e-3, center=_EYE4), TALLY_KEYS),
            ("dpi", dict(M2_FACTORS, samples=3, radius=1e-3, u=_EYE4), TALLY_KEYS),
            ("build-primitive", BUILD_M2, {"total_perturbation", "stages"}),
        ],
    )
    def test_result_holds_what_the_run_decided(self, tmp_path, command, payload, keys):
        # the inputs (seed, radius, center, u, epsilon) are stated once, in
        # the config block, and not again in the result
        code, report, _ = run_cli(tmp_path, command, payload)
        assert code == 0
        assert set(report["result"]) == keys
        assert all(report["config"][key] == value for key, value in payload.items())

    def test_density(self, tmp_path):
        payload = dict(M2_PAIR, samples=10)
        code, report, _ = run_cli(tmp_path, "density", payload)
        assert code == 0
        assert report["result"]["trivial_count"] == 10
        assert report["version"] == subalg.__version__
        assert report["config"]["samples"] == 10

    def test_density_negative_control(self, tmp_path):
        payload = {
            "algebras": [
                {"blocks": [2, 2], "mult": [1, 1]},
                {"blocks": [2, 2], "mult": [1, 1]},
            ],
            "ambient": 4,
            "seed": 7,
            "samples": 10,
        }
        code, report, _ = run_cli(tmp_path, "density", payload)
        assert code == 0
        assert report["result"]["trivial_count"] == 0

    def test_density_instability_exits_4(self, tmp_path, capsys):
        # M2+M2 against local conjugates of itself at radius 1e-13: the step
        # is below what the projected system's rank decision resolves.  The
        # same pair decides [2]*4 at 1e-10, and M8+M8 at N = 16 [8]*2 at 1e-6
        pair = {"blocks": [2, 2], "mult": [1, 1]}
        payload = {"algebras": [pair, pair], "ambient": 4, "samples": 4, "seed": 1,
                   "radius": 1e-13}
        code, report, _ = run_cli(tmp_path, "density", payload)
        assert (code, report) == (4, None)
        err = capsys.readouterr().err
        assert err.startswith(
            "numerical instability: rank decision for projected system is unstable"
        )

    def test_dpi_instability_exits_4(self, tmp_path, capsys):
        # C^2 (2, 2) against M2 (2) at radius 1e-13: the perturbation is
        # below what the commutant system's rank decision resolves
        payload = {"algebras": [{"blocks": [1, 1], "mult": [2, 2]}, {"blocks": [2], "mult": [2]}],
                   "samples": 8, "seed": 1, "radius": 1e-13}
        code, report, _ = run_cli(tmp_path, "dpi", payload)
        assert (code, report) == (4, None)
        err = capsys.readouterr().err
        assert err.startswith(
            "numerical instability: rank decision for commutant system is unstable"
        )

    def test_rcp_balance(self, tmp_path):
        payload = {
            "algebras": [
                {"blocks": [1, 1], "mult": [1, 3]},
                {"blocks": [2], "mult": [2]},
            ],
            "seed": 1,
        }
        code, report, _ = run_cli(tmp_path, "rcp-balance", payload)
        assert code == 0
        bal = report["result"]["balance"]
        assert bal["s"] == 3
        assert bal["padding1"] == [2, 0]
        assert bal["padding2"] == [1]
        assert bal["final_dim"] == 6
        assert all(r["passes"] for r in report["result"]["after"])

    def test_dpi(self, tmp_path):
        payload = {
            "algebras": [
                {"blocks": [1, 1], "mult": [3, 3]},
                {"blocks": [2], "mult": [3]},
            ],
            "seed": 5,
            "samples": 8,
        }
        code, report, _ = run_cli(tmp_path, "dpi", payload)
        assert code == 0
        assert report["result"]["trivial_count"] == 8

    @pytest.mark.parametrize("radius", [None, 1e-3])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_dpi_scalar_pair_commutes_with_everything(self, tmp_path, n, radius):
        # both factors C in M_n: the commutator system is pure rounding noise
        scalar = {"blocks": [1], "mult": [n]}
        payload = {"algebras": [scalar, scalar], "seed": 5, "samples": 8, "radius": radius}
        code, report, _ = run_cli(tmp_path, "dpi", payload)
        assert code == 0
        assert report["result"]["dims"] == [n * n] * 8

    def test_build_primitive(self, tmp_path):
        probe_path = tmp_path / "probe.json"
        x = FreeElement.word(
            1.0,
            [
                Letter(1, np.array([[0, 1], [1, 0]], dtype=complex) / 2),
                Letter(2, np.array([[1, 0], [0, -1]], dtype=complex) / 2),
            ],
        )
        probe_path.write_text(json.dumps({"elements": [free_element_to_json(x)]}))
        payload = {
            "algebras": [{"blocks": [2]}, {"blocks": [2]}],
            "stages": [[[1], [1]], [[1], [1]]],
            "epsilon": 0.5,
            "seed": 11,
            "probe": str(probe_path),
        }
        code, report, _ = run_cli(tmp_path, "build-primitive", payload)
        assert code == 0
        stages = report["result"]["stages"]
        assert [s["dim"] for s in stages] == [2, 4]
        assert all(s["irreducible"] for s in stages)
        assert len(stages[0]["probe_residuals"]) == 1

    def test_build_primitive_search_exhausted_exits_3(self, tmp_path):
        payload = {
            "algebras": [{"blocks": [1, 1]}, {"blocks": [1, 1]}],
            "stages": [[[1, 1], [1, 1]], [[1, 1], [1, 1]]],
            "epsilon": 0.5,
            "seed": 3,
            "max_tries": 40,
        }
        code, report, _ = run_cli(tmp_path, "build-primitive", payload)
        assert code == 3
        assert report["status"] == "search-exhausted"
        assert report["result"]["dim"] == 4
        assert report["result"]["best_dim"] == 2


class TestReportDeterminism:
    @pytest.mark.parametrize("command", ["density", "dpi"])
    def test_stdout_is_the_one_report(self, tmp_path, capsys, command):
        # without --out, stdout is one JSON document (json.loads refuses
        # anything after it), the report and nothing else
        cfg = write_config(tmp_path / "config.json", VALID_CONFIGS[command])
        assert main([command, "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "ok" and report["config"]["out"] is None

    def test_byte_identical_reruns(self, tmp_path):
        payload = dict(M2_PAIR, samples=6)
        cfg = write_config(tmp_path / "c.json", payload)
        out = tmp_path / "r.json"
        assert main(["density", "--config", cfg, "--out", str(out)]) == 0
        first = out.read_bytes()
        assert main(["density", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_bytes() == first

    def test_flag_overrides_land_in_resolved_config(self, tmp_path):
        payload = dict(M2_PAIR, samples=6)
        cfg = write_config(tmp_path / "c.json", payload)
        out = tmp_path / "r.json"
        assert main(["density", "--config", cfg, "--out", str(out), "--seed", "99"]) == 0
        report = json.loads(out.read_text())
        assert report["config"]["seed"] == 99


# Two N = 6 pairs: (3,3) against (2,2,2), covered case 4, whose orbit lists hold
# several distinct values each; and M3 (x) 1_2 against itself, covered case 1,
# whose audit carries a simple-class comparison.  The Monte-Carlo entries run
# density (M2 (x) 1_2 against C^2 (2,2)) and dpi (C^2 (2,2) against M2 (2)),
# global and local, at two seeds: their results hold only integer dims, and
# their inputs are echoed once, in the config, so they are the same on every
# platform.
MC_DENSITY = {"algebras": [{"blocks": [2], "mult": [2]}, {"blocks": [1, 1], "mult": [2, 2]}],
              "ambient": 4, "samples": 6}
MC_DPI = {"algebras": [{"blocks": [1, 1], "mult": [2, 2]}, {"blocks": [2], "mult": [2]}],
          "samples": 6}
PINNED_PAIRS = {
    "case4": {"algebras": [{"blocks": [3, 3], "mult": [1, 1]},
                           {"blocks": [2, 2, 2], "mult": [1, 1, 1]}], "ambient": 6, "seed": 1},
    "case1": {"algebras": [{"blocks": [3], "mult": [2]},
                           {"blocks": [3], "mult": [2]}], "ambient": 6, "seed": 1},
    "density-s1": dict(MC_DENSITY, seed=1),
    "density-local-s1": dict(MC_DENSITY, seed=1, radius=1e-3),
    "dpi-s1": dict(MC_DPI, seed=1),
    "dpi-local-s1": dict(MC_DPI, seed=1, radius=1e-3),
    "density-s7": dict(MC_DENSITY, seed=7),
    "density-local-s7": dict(MC_DENSITY, seed=7, radius=1e-3),
    "dpi-s7": dict(MC_DPI, seed=7),
    "dpi-local-s7": dict(MC_DPI, seed=7, radius=1e-3),
}


# (pair, command) -> (size in bytes, sha256) of the report
PINNED_REPORTS = {
    ("case4", "dims"): (
        28923, "4c1a53ac730cbd20ff844104505be0fed6ba6190d7fc73bedd8f8ecd6e90f206"),
    ("case4", "thm41-check"): (
        17228, "e30ffdc80d180d37cfb423076065548f9639fee01620172e5c13a0d94841f259"),
    ("case1", "dims"): (
        2346, "db298db81d59b9c7170c7e557705767f054321f444be33115c3a8a33f1b637f5"),
    ("case1", "thm41-check"): (
        1658, "1afc5173ac94ca06ef03933ef50b8b9eb005d56a4606865c2a963fa595e5ceb2"),
    ("density-s1", "density"): (
        656, "d2c2a2356478ba6e37b8d35e8dc08a316bc68b13d15234b1401fc58fee12f97d"),
    ("density-local-s1", "density"): (
        657, "93908e9b3047c92dd2b5729881a204c40ea8c38e93c7fe1d4c54fc08cb198094"),
    ("dpi-s1", "dpi"): (
        625, "f34c96987bbe9c917235b3dab24d736b447686b0b51c19676ed77422a348615c"),
    ("dpi-local-s1", "dpi"): (
        626, "60eec58d4c7d33ef83195cb82876a17141776d5a536256532349c91e260a8ee0"),
    ("density-s7", "density"): (
        656, "b97876d90d9490552b5ad3e48e0dd1b609c0290bad64165c282a9765faa2f9ab"),
    ("density-local-s7", "density"): (
        657, "f411c16421b83be0f4bc1884a681252d4ce3fa641cc41f244ea4bf12ff9f6341"),
    ("dpi-s7", "dpi"): (
        625, "b662cc0a1aff45428ec217a09f2e8768378b52a008fe8da5563ec6c0f04d639a"),
    ("dpi-local-s7", "dpi"): (
        626, "662ff3849b90e717a2949b85fab7d89cb5441149bdc07785666f457a8c460ef4"),
}


@pytest.mark.parametrize("pair, command", list(PINNED_REPORTS))
def test_symbolic_reports_pinned(tmp_path, monkeypatch, pair, command):
    # the whole report, orbit-dimension histograms included, is frozen
    # byte for byte; a relative --out keeps the echoed config path fixed
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path / "config.json", PINNED_PAIRS[pair])
    assert main([command, "--config", "config.json", "--out", "report.json"]) == 0
    data = (tmp_path / "report.json").read_bytes()
    assert (len(data), hashlib.sha256(data).hexdigest()) == PINNED_REPORTS[pair, command]


# Per stage (dim, tries, irreducible, balance) of two seeded builds of C^2
# against M2: the benchmark's eight equal stages, and three stages of which
# the last two fail the RCP condition and are padded.  The floats of a build
# depend on the BLAS, so only these integers and flags are pinned.
_BALANCED_6 = {"s": 3, "padding1": [0, 2], "padding2": [1], "copies": [1, 1],
               "final_mult1": [3, 3], "final_mult2": [3], "final_dim": 6}
_BALANCED_10 = {"s": 5, "padding1": [2, 0], "padding2": [1], "copies": [1, 1],
                "final_mult1": [5, 5], "final_mult2": [5], "final_dim": 10}
PINNED_BUILDS = {
    "eight-stages": (
        [[[1, 1], [1]]] * 8,
        [(2, 0, True, None)] + [(d, 1, True, None) for d in range(4, 17, 2)],
    ),
    "rcp-balanced": (
        [[[1, 1], [1]], [[2, 0], [1]], [[0, 2], [1]]],
        [(2, 0, True, None), (6, 1, True, _BALANCED_6), (10, 1, True, _BALANCED_10)],
    ),
}


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("build", list(PINNED_BUILDS))
def test_build_stages_pinned(tmp_path, build, seed):
    stages, expected = PINNED_BUILDS[build]
    payload = {"algebras": [{"blocks": [1, 1]}, {"blocks": [2]}], "stages": stages,
               "epsilon": 0.5, "seed": seed}
    code, report, _ = run_cli(tmp_path, "build-primitive", payload)
    assert code == 0
    got = [(s["dim"], s["tries"], s["irreducible"], s["balance"])
           for s in report["result"]["stages"]]
    assert got == expected


def subcommand_parser():
    """The reference: one subparser per command, each with the four options."""
    parser = argparse.ArgumentParser(prog="subalg")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--out", default=None)
    return parser


OPTION_VALUES = [
    (),
    ("--seed", "12"),
    ("--samples", "3"),
    ("--out", "report.json"),
    # no such options: both parsers refuse them
    ("--tolerance", "1e-9"),
    ("--format", "csv"),
    ("--format", "json"),
]


class TestParser:
    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("option", OPTION_VALUES, ids=lambda o: o[0] if o else "none")
    def test_flat_parser_matches_subcommands(self, command, option):
        argv = [command, "--config", "c.json", *option]

        def parsed(parser):
            try:
                return vars(parser.parse_args(argv))
            except SystemExit:
                return "refused"

        got = parsed(build_parser())
        assert got == parsed(subcommand_parser())
        if option[:1] in (("--tolerance",), ("--format",)):
            assert got == "refused"
        else:
            assert set(got) == {"command", "config", "seed", "samples", "out"}

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["dpi"],
            ["nope", "--config", "c.json"],
            ["density", "--config", "c.json", "--format", "csv"],
            ["dpi", "--config", "c.json", "--seed", "x"],
            ["dpi", "--config", "c.json", "--bogus"],
            ["dpi", "density", "--config", "c.json"],
            ["dpi", "--config", "c.json", "--tolerance", "1000"],
        ],
    )
    def test_argparse_errors_exit_1(self, argv, capsys):
        # a usage error is a malformed input (1), never a decided "not covered" (2)
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1
        assert "usage: subalg" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        assert "usage: subalg" in capsys.readouterr().out
