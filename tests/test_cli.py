"""End-to-end tests of the command-line harness: configs, exit codes, reports."""

import hashlib
import json

import numpy as np
import pytest

import subalg
from subalg.cli import main
from subalg.serialize import (
    free_element_from_json,
    free_element_to_json,
    matrix_from_json,
    matrix_to_json,
)
from subalg.freeprod import FreeElement, Letter
from subalg.errors import ConfigError
from subalg.numeric import default_tolerance, haar_unitary


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

def probe_with_value(value):
    """Probe file holding one word of one side-1 letter with the given value."""
    return {"elements": [{"terms": [{"word": [{"side": 1, "value": value}]}]}]}


BUILD_M2 = {
    "algebras": [{"blocks": [2]}, {"blocks": [2]}],
    "stages": [[[1], [1]]],
    "epsilon": 0.5,
    "seed": 11,
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
        assert np.array_equal(matrix_from_json(report["result"]["center"]), center)

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("density", dict(M2_PAIR, samples=5)),
            ("dpi", dict(M2_PAIR, samples=5)),
            ("dpi", dict(M2_PAIR, samples=5, radius=1e-3)),
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
        assert "/center: a center is accepted only by density, with a radius" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "command, payload, extra, pointer, shown",
        [
            ("density", dict(M2_PAIR, radius=float("inf")), (), "/radius", "inf"),
            ("density", dict(M2_PAIR, radius=float("nan")), (), "/radius", "nan"),
            ("density", dict(M2_PAIR, radius=True), (), "/radius", "True"),
            ("dpi", dict(M2_PAIR, radius=float("inf")), (), "/radius", "inf"),
            ("dpi", dict(M2_PAIR, radius=True), (), "/radius", "True"),
            ("build-primitive", dict(BUILD_M2, epsilon=True), (), "/epsilon", "True"),
            ("build-primitive", dict(BUILD_M2, epsilon=float("inf")), (), "/epsilon", "inf"),
            ("build-primitive", dict(BUILD_M2, epsilon=10**400), (), "/epsilon", "1000"),
            ("density", dict(M2_PAIR, tolerance=float("inf")), (), "/tolerance", "inf"),
            ("density", dict(M2_PAIR, tolerance=False), (), "/tolerance", "False"),
            ("density", M2_PAIR, ("--tolerance", "inf"), "/tolerance", "inf"),
            ("dpi", M2_PAIR, ("--tolerance=-inf",), "/tolerance", "-inf"),
        ],
    )
    def test_real_field_not_positive_finite_exits_1(
        self, tmp_path, capsys, command, payload, extra, pointer, shown
    ):
        # booleans, infinities, NaN and integers beyond float range are
        # rejected with a pointer before any numerics run
        code, report, _ = run_cli(tmp_path, command, dict(payload, samples=3), extra)
        assert code == 1
        assert report is None
        err = capsys.readouterr().err
        assert f"{pointer}: expected a positive finite number, got {shown}" in err
        assert "Traceback" not in err

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
        ],
    )
    def test_malformed_probe_exits_1(self, tmp_path, capsys, probe, message):
        probe_path = tmp_path / "probe.json"
        probe_path.write_text(json.dumps(probe))
        payload = dict(BUILD_M2, probe=str(probe_path))
        code, report, _ = run_cli(tmp_path, "build-primitive", payload)
        assert code == 1
        assert report is None
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["enumerate", "density", "dpi", "build-primitive"])
    def test_algebras_not_a_list_exits_1(self, tmp_path, capsys, command):
        payload = dict(BUILD_M2, algebras=5, ambient=4, samples=3)
        code, report, _ = run_cli(tmp_path, command, payload)
        assert code == 1
        assert report is None
        assert "/algebras: expected a list" in capsys.readouterr().err

    def test_out_not_a_path_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "config.json", dict(M2_PAIR, out=7))
        assert main(["enumerate", "--config", cfg]) == 1
        assert "/out: expected a file path, got 7" in capsys.readouterr().err

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


class TestCommands:
    def test_enumerate(self, tmp_path):
        code, report, _ = run_cli(tmp_path, "enumerate", M2_PAIR)
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
        assert row["orbit_dims"] == [10]
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

    def test_density_csv(self, tmp_path):
        payload = dict(M2_PAIR, samples=5)
        code, report, out = run_cli(tmp_path, "density", payload, ["--format", "csv"])
        assert code == 0
        csv_text = (tmp_path / "report.json.csv").read_text()
        lines = csv_text.strip().splitlines()
        assert lines[0] == "sample,intersection_dim"
        assert len(lines) == 6

    def test_density_instability_exits_4(self, tmp_path):
        payload = dict(M2_PAIR, samples=3)
        code, _, _ = run_cli(tmp_path, "density", payload, ["--tolerance", "0.5"])
        assert code == 4

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
        assert report["result"]["seed"] == 99


# Two N = 6 pairs: (3,3) against (2,2,2), covered case 4, whose orbit lists hold
# several distinct values each; and M3 (x) 1_2 against itself, covered case 1,
# whose audit carries a simple-class comparison.  The Monte-Carlo entries run
# density (M2 (x) 1_2 against C^2 (2,2)) and dpi (C^2 (2,2) against M2 (2)),
# global and local, at two seeds: their reports hold only integer dims and
# echoed inputs, so they are the same on every platform.
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
        38321, "ffce02a4bb3bef3417734827ae84a42bdbe2d8e0a8a13fb0407bf08701bc7ea7"),
    ("case4", "thm41-check"): (
        25279, "37316aa1338f9b79776aaf3d4fcaec80e116692263a1f974f62d9bccfd54e25c"),
    ("case1", "dims"): (
        2474, "a9fc1d832b8d2a5cfabd8e4b5c5e7d9ee87dda3d4c2a4b53508cc9163955743c"),
    ("case1", "thm41-check"): (
        1831, "fc636f75127e9e03669cfb1155f1a7a0ba31b3d6aff9306cb1e0d5429f8a0152"),
    ("density-s1", "density"): (
        853, "4dceb76ba70ac7104f4170576ecba75b5e6ec2d5d8c8975f69e450144a5ba669"),
    ("density-local-s1", "density"): (
        1728, "e76b3eb9df4dab3f97784e7ab41b10957292de00dfa753ff2f5ca2858795eae5"),
    ("dpi-s1", "dpi"): (
        848, "152b265882a49347838a04a293e41844243804c67f39a75b44f6da37271c3a31"),
    ("dpi-local-s1", "dpi"): (
        1723, "a6332e436309201d2c9b6c329934b9eea606a51f9c8f9266ef50ca6ac6858061"),
    ("density-s7", "density"): (
        853, "13a3e3d19c062cb55d5a091b37e7af52aa04abda055d47a49af46000882cdb0e"),
    ("density-local-s7", "density"): (
        1728, "06c57cfac0f11a10c24313afd847561b9d23fd32b3ea27ee5ff8fa01e0f70661"),
    ("dpi-s7", "dpi"): (
        848, "cdeea69cb4121fb3537961cf333d7fcfb85a7b62f22fd508f078f790a044cfae"),
    ("dpi-local-s7", "dpi"): (
        1723, "926d962554c618c899b86b2e3fe43673a58b5753f5370907607238cbbf411d88"),
}


@pytest.mark.parametrize("pair, command", list(PINNED_REPORTS))
def test_symbolic_reports_pinned(tmp_path, monkeypatch, pair, command):
    # the whole report, orbit_dims lists and their order included, is frozen
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
