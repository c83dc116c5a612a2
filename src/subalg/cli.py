"""Command-line front end: experiment configs, validation, dispatch, and reports.

A run is described by a JSON config file; a handful of flags can override the
config.  The one output is a JSON report, written to ``--out`` or stdout.  It
embeds the library version and the config fields its command reads, unset ones
at their defaults, and identical (config, seed) pairs produce byte-identical
reports.

Exit codes: 0 success, 1 malformed config or command line, 2 hypothesis not
covered, 3 search exhausted, 4 numerical instability.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields
from decimal import Decimal

import numpy as np

from . import __version__
from .algebra import (
    BlockStructure,
    EmbeddedAlgebra,
    _rep_dim,
    enumerate_subalgebra_classes,
)
from .dimensions import audit_density_hypotheses, dim_report
from .errors import ConfigError, NumericalInstabilityError, SearchExhaustedError
from .freeprod import (
    DECISION_BYTES,
    RepPair,
    decision_bytes,
    dpi_probe,
    rcp_balance,
    rcp_check,
    stage_budget,
    stage_layouts,
    staged_build,
)
from .numeric import _not_unitary, _radius_unresolved, amplify, density_bytes, density_experiment
from .serialize import (
    canonical_json,
    is_finite_real,
    is_number,
    load_probe_file,
    matrix_from_json,
)

# The config fields each command reads, and the fields its report echoes.  A
# config or flag that sets any other field is refused (``load_config``).
_SYMBOLIC = ("algebras", "ambient")
READS = {
    command: frozenset(("command", "seed", "out") + extra)
    for command, extra in {
        "enumerate": _SYMBOLIC,
        "dims": _SYMBOLIC,
        "thm41-check": _SYMBOLIC,
        "density": _SYMBOLIC + ("samples", "radius", "center"),
        "rcp-balance": ("algebras",),
        "dpi": ("algebras", "samples", "radius", "u"),
        "build-primitive": ("algebras", "epsilon", "stages", "max_tries", "probe"),
    }.items()
}
COMMANDS = tuple(READS)
_NEEDS_AMBIENT = {command for command, read in READS.items() if "ambient" in read}
_NEEDS_SAMPLES = {command for command, read in READS.items() if "samples" in read}

# Largest accepted ``samples`` and ``max_tries``: a larger count asks for a
# run that does not end in any useful time, so it is refused as malformed.
MAX_COUNT = 10**6


@dataclass
class ExperimentConfig:
    """A config file's keys, flag overrides applied."""

    command: str
    algebras: list[dict] = field(default_factory=list)
    ambient: int | None = None
    samples: int | None = None
    seed: int | None = None
    epsilon: float | None = None
    radius: float | None = None
    center: dict | None = None
    u: dict | None = None
    probe: str | None = None
    stages: list | None = None
    max_tries: int = 128
    out: str | None = None

    def resolved_dict(self) -> dict:
        """The fields the command reads, unset ones at their defaults."""
        return {name: getattr(self, name) for name in READS[self.command]}


def _pointer(key: str) -> str:
    """A key as one JSON-pointer token: ``~`` as ``~0`` and ``/`` as ``~1`` (RFC 6901)."""
    return key.replace("~", "~0").replace("/", "~1")


def _positive_finite_diagnostics(value, pointer: str) -> list[tuple[str, str]]:
    """Diagnostics for a real field that must be a positive finite number (not a bool)."""
    if is_finite_real(value) and value > 0:
        return []
    return [(pointer, f"expected a positive finite number, got {value!r}")]


def _count_diagnostics(value, name: str) -> list[tuple[str, str]]:
    """Diagnostics for the count field ``name``, an integer from 1 to MAX_COUNT."""
    if is_number(value, int) and 1 <= value <= MAX_COUNT:
        return []
    return [(f"/{name}", f"{name} must be an integer from 1 to {MAX_COUNT}")]


def _parse_unitary(obj, pointer: str, n: int) -> tuple[np.ndarray | None, list[tuple[str, str]]]:
    """A config matrix that must be an n x n unitary, and its diagnostics.

    The unitarity defect ||M*M - I||_F may be at most ``numeric.resolution``, the upper
    end of the window in which every rank decision is checked for stability;
    unitaries computed in double precision sit about ten times below it.
    """
    try:
        mat = matrix_from_json(obj, pointer)
    except ConfigError as exc:
        return None, list(exc.diagnostics)
    if mat.shape != (n, n):
        return None, [(pointer, f"expected {n}x{n}, got shape {list(mat.shape)}")]
    if why := _not_unitary(mat):
        return None, [(pointer, why)]
    return mat, []


def _stage_diagnostics(stages: list, algs: dict[int, BlockStructure]) -> list[tuple[str, str]]:
    """Diagnostics for build-primitive stages: pairs of nonnegative integer rows.

    ``algs`` maps the index of each algebra with a valid block list to its
    structure.  Row i of a stage must have one entry per block of algebra i, and
    the two rows of a stage must fill the same dimension, nonzero in the
    first stage.
    """
    diags = []
    for k, stage in enumerate(stages):
        if (
            not isinstance(stage, list)
            or len(stage) != 2
            or any(not isinstance(row, list) for row in stage)
        ):
            diags.append((f"/stages/{k}", "each stage is a pair of multiplicity rows"))
            continue
        dims = []
        for i, row in enumerate(stage):
            bad = [j for j, m in enumerate(row) if not is_number(m, int) or m < 0]
            for j in bad:
                diags.append(
                    (f"/stages/{k}/{i}/{j}", f"expected a nonnegative integer, got {row[j]!r}")
                )
            if i not in algs:
                continue
            if len(row) != algs[i].num_blocks:
                diags.append(
                    (
                        f"/stages/{k}/{i}",
                        f"expected {algs[i].num_blocks} entries, one per block of "
                        f"/algebras/{i}, got {len(row)}",
                    )
                )
            elif not bad:
                dims.append(_rep_dim(algs[i], row))
        if len(dims) == 2 and dims[0] != dims[1]:
            diags.append(
                (f"/stages/{k}", f"factor dimensions differ: {dims[0]} vs {dims[1]}")
            )
        elif k == 0 and dims == [0, 0]:  # later stages may add nothing
            diags.append(("/stages/0", "the first stage fills dimension 0"))
    return diags


def _cap_diagnostics(size: int, dim: int, pointer: str) -> list[tuple[str, str]]:
    """Diagnostics for a decision at dimension ``dim`` whose ``size`` bytes are past the cap.

    The cap is DECISION_BYTES, and ``size`` is counted from integers:
    ``decision_bytes`` for a dpi pair or a build stage, ``density_bytes``
    for a density pair.
    """
    if size <= DECISION_BYTES:
        return []
    # exact for any integer size: a float overflows past about 1e308 bytes
    gib = Decimal(size) / 2**30
    return [(pointer, f"one decision at dimension {dim} needs {gib:.3g} GiB, "
                      f"past the {DECISION_BYTES >> 30} GiB cap")]


def _stage_decision_diagnostics(stages, algs: dict, epsilon) -> list[tuple[str, str]]:
    """Diagnostics for the first build stage past the cap or, unless epsilon is None, unresolved.

    Runs the build's integer bookkeeping (``stage_layouts``), RCP paddings
    included, with no search; ``stages`` and both ``algs`` must be valid
    already.  A stage that adds dimension searches at its dimension at
    radius ``stage_budget(epsilon, k) / 2``, which ``sample_dims`` refuses unresolved.
    """
    alg1, alg2 = algs[0], algs[1]
    for k, segs1, segs2, earlier, dim, _ in stage_layouts(alg1, alg2, stages):
        found = _cap_diagnostics(decision_bytes(alg1, segs1, alg2, segs2), dim, f"/stages/{k - 1}")
        if found:
            return found
        if epsilon is not None and dim > earlier:
            if why := _radius_unresolved(dim, stage_budget(epsilon, k) / 2):
                return [("/epsilon", f"epsilon {epsilon!r} is too small at stage {k}: {why}")]
    return []


def _parse_probe(path, algs: dict[int, BlockStructure]) -> tuple[list, list[tuple[str, str]]]:
    """The probe file's elements and diagnostics for them (``algs`` as for stages)."""
    if not isinstance(path, str):
        return [], [("/probe", f"expected a file path, got {path!r}")]
    try:
        probe = load_probe_file(path)
    except ConfigError as exc:
        return [], list(exc.diagnostics)
    except OSError as exc:
        return [], [("/probe", f"cannot read {path!r}: {exc.strerror}")]
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        return [], [("/probe", f"{path!r} is not a JSON file: {exc}")]
    diags = []
    for i, element in enumerate(probe):
        for t, (_, word) in enumerate(element.terms):
            for j, letter in enumerate(word):
                k = letter.side - 1
                if k in algs:
                    at = f"/elements/{i}/terms/{t}/word/{j}/value"
                    diags += _model_diagnostics(letter.value, algs[k].blocks, f"/algebras/{k}", at)
        # Every evaluation of the element has norm at most ``scale``; a build's
        # residuals and Lipschitz bounds stay below 4 (longest word + 1) scale.
        # Entrywise 1-norms, of coefficients too, overflow to inf, never raise.
        with np.errstate(over="ignore"):
            norms = [[float(np.abs(v).sum()) for _, v in word] for _, word in element.terms]
        scale = sum(
            (abs(c.real) + abs(c.imag)) * math.prod(n) for (c, _), n in zip(element.terms, norms)
        )
        if not math.isfinite(4 * (max(map(len, norms), default=0) + 1) * scale):
            diags.append((f"/elements/{i}", f"too large to evaluate (norm bound {scale:.3e})"))
    return probe, diags


def _model_diagnostics(value, blocks: tuple, algebra: str, pointer: str) -> list[tuple[str, str]]:
    """Diagnostics for a matrix that must be an element of the block model of ``blocks``.

    Entries outside the diagonal blocks must be exactly zero: ``amplify``
    reads only the diagonal blocks and would drop them without a word.
    """
    size = sum(blocks)
    if value.shape != (size, size):
        return [(pointer, f"expected {size}x{size} for {algebra}, got shape {list(value.shape)}")]
    off = np.argwhere(value != amplify(value, blocks, [[1] * len(blocks)]))
    if off.size:
        where = tuple(off[0].tolist())
        return [(pointer, f"nonzero entry at {where} outside the diagonal blocks of {algebra}")]
    return []


def validate(config: ExperimentConfig) -> tuple[dict, list[tuple[str, str]]]:
    """The config's parsed values, and every violation as a (json-pointer, message).

    ``parsed`` holds ``algebras``, a (BlockStructure, mult tuple or None) per
    valid spec, the ``density`` ``center``, the ``dpi`` ``u`` (the identity when
    absent) and the ``probe`` elements; ``run`` needs it without diagnostics.
    What needs the run's dimension waits until the algebras are valid and fill it.
    """
    parsed: dict = {"algebras": [], "center": None, "u": None, "probe": []}
    diags: list[tuple[str, str]] = []
    cmd = config.command
    if cmd not in COMMANDS:
        diags.append(("/command", f"unknown command {cmd!r}"))
        return parsed, diags

    if config.seed is None:
        diags.append(("/seed", "seed is required; wall-clock seeding is not supported"))
    elif not is_number(config.seed, int) or config.seed < 0:
        diags.append(("/seed", "seed must be a nonnegative integer"))

    want = 1 if cmd == "enumerate" else 2
    algebras = config.algebras
    if not isinstance(algebras, list):
        diags.append(("/algebras", "expected a list"))
        algebras = []
    elif len(algebras) != want:
        message = f"command {cmd!r} reads {want} algebra spec(s), got {len(algebras)}"
        diags.append(("/algebras", message))
        algebras = algebras[:want]

    needs_mult = cmd != "build-primitive"
    algs: dict[int, BlockStructure] = {}
    for i, spec in enumerate(algebras):
        if not isinstance(spec, dict):
            diags.append((f"/algebras/{i}", "algebra spec must be an object"))
            continue
        for key in spec:
            if key not in ("blocks", "mult"):
                diags.append((f"/algebras/{i}/{_pointer(key)}", "unknown field"))
            elif key == "mult" and not needs_mult:
                diags.append((f"/algebras/{i}/mult", f"not read by {cmd}"))
        blocks = spec.get("blocks")
        if not isinstance(blocks, list) or not blocks or any(
            not is_number(b, int) or b < 1 for b in blocks
        ):
            diags.append((f"/algebras/{i}/blocks", "blocks must be a list of positive integers"))
            continue
        structure = algs[i] = BlockStructure(tuple(blocks))
        if not needs_mult:
            parsed["algebras"].append((structure, None))
            continue
        mult = spec.get("mult")
        if mult is None:
            why = "multiplicity row is required"
        elif not isinstance(mult, list) or len(mult) != len(blocks) or any(
            not is_number(m, int) for m in mult
        ):
            why = "mult must be an integer list matching blocks"
        elif cmd not in _NEEDS_AMBIENT:
            why = "multiplicities must be nonnegative" if min(mult) < 0 else None
        elif min(mult) < 1:
            why = "ambient multiplicities must be >= 1"
        elif is_number(config.ambient, int) and (
            total := _rep_dim(structure, mult)
        ) != config.ambient:
            why = f"multiplicities fill dimension {total}, not ambient {config.ambient}"
        else:
            why = None
        if why:
            diags.append((f"/algebras/{i}/mult", why))
        else:
            parsed["algebras"].append((structure, tuple(mult)))

    dim = None  # the one dimension the run lives on
    specs_valid = len(parsed["algebras"]) == want
    if cmd in _NEEDS_AMBIENT:
        if not is_number(config.ambient, int) or config.ambient < 1:
            diags.append(("/ambient", "ambient dimension must be a positive integer"))
        elif specs_valid:
            dim = config.ambient
    elif specs_valid and needs_mult:  # rcp-balance and dpi: two factors on one space
        d1, d2 = (_rep_dim(structure, mult) for structure, mult in parsed["algebras"])
        if d1 != d2:
            diags.append(("/algebras/1/mult", f"factor dimensions differ: {d1} vs {d2}"))
        elif cmd == "dpi" and d1 == 0:
            diags.append(("/algebras/0/mult", "dpi needs a nonzero dimension, got 0"))
        else:
            dim = d1

    if dim is not None and cmd in ("density", "dpi"):
        if cmd == "density":
            b1, b2 = (EmbeddedAlgebra(dim, s, m) for s, m in parsed["algebras"])
            size = density_bytes(b1, b2)
        else:
            (alg1, mult1), (alg2, mult2) = parsed["algebras"]
            size = decision_bytes(alg1, [mult1], alg2, [mult2])
        if found := _cap_diagnostics(size, dim, "/algebras"):  # refused for its size alone
            diags += found
            dim = None

    if config.center is not None:
        if dim is not None:
            parsed["center"], found = _parse_unitary(config.center, "/center", dim)
            diags += found
        if config.radius is None:
            diags.append(("/center", "a center needs a radius"))
    if cmd == "dpi" and dim is not None:
        if config.u is None:
            parsed["u"] = np.eye(dim, dtype=complex)
        else:
            parsed["u"], found = _parse_unitary(config.u, "/u", dim)
            diags += found

    if cmd in _NEEDS_SAMPLES:
        diags.extend(_count_diagnostics(config.samples, "samples"))

    if config.radius is not None:
        found = _positive_finite_diagnostics(config.radius, "/radius")
        if not found and dim is not None and (why := _radius_unresolved(dim, config.radius)):
            found = [("/radius", why)]
        diags += found

    if cmd == "build-primitive":
        bad_epsilon = _positive_finite_diagnostics(config.epsilon, "/epsilon")
        diags += bad_epsilon
        if not isinstance(config.stages, list) or not config.stages:
            diags.append(("/stages", "stages must be a nonempty list of multiplicity-row pairs"))
        else:
            found = _stage_diagnostics(config.stages, algs)
            if not found and {0, 1} <= algs.keys():
                epsilon = None if bad_epsilon else config.epsilon
                found = _stage_decision_diagnostics(config.stages, algs, epsilon)
            diags += found
        diags.extend(_count_diagnostics(config.max_tries, "max_tries"))
        if config.probe is not None:
            parsed["probe"], found = _parse_probe(config.probe, algs)
            diags += found

    if config.out is not None and not isinstance(config.out, str):
        diags.append(("/out", f"expected a file path, got {config.out!r}"))
    elif config.out:
        folder = os.path.dirname(config.out) or "."
        if not os.path.isdir(folder):
            diags.append(("/out", f"cannot write {config.out!r}: no directory {folder!r}"))
        elif os.path.isdir(config.out):
            diags.append(("/out", f"cannot write {config.out!r}: it is a directory"))

    return parsed, diags


def load_config(
    path: str, command: str, overrides: dict
) -> tuple[ExperimentConfig, list[tuple[str, str]]]:
    """The config of ``command`` from a file and flag overrides, and the diagnostics of its keys."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{path}: no such config file")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a UTF-8 file (byte {exc.start}: {exc.reason})")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read the config: {exc.strerror}")
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}:1:1: config root must be a JSON object")

    diagnostics = []
    declared = raw.get("command")
    if declared is not None and declared != command:
        diagnostics.append(
            ("/command", f"config declares {declared!r} but {command!r} was invoked")
        )

    given = {**raw, **{key: value for key, value in overrides.items() if value is not None}}
    known = {f.name for f in fields(ExperimentConfig)}
    reads = READS[command]
    for key in given:
        if key not in known:
            diagnostics.append((f"/{_pointer(key)}", "unknown field"))
        elif key not in reads:
            diagnostics.append((f"/{key}", f"not read by {command}"))
    config = ExperimentConfig(
        command=command,
        **{key: value for key, value in given.items() if key in reads - {"command"}},
    )
    return config, diagnostics


def run(config: ExperimentConfig, parsed: dict) -> tuple[int, dict]:
    """Execute a config on ``validate``'s values; returns (exit code, report)."""
    cmd = config.command
    status = "ok"
    exit_code = 0
    if cmd in _NEEDS_AMBIENT:  # algebras embedded in M_ambient
        b = [EmbeddedAlgebra(config.ambient, s, m) for s, m in parsed["algebras"]]
    else:  # the free-product commands: two factors on one space
        (alg1, mult1), (alg2, mult2) = parsed["algebras"]

    if cmd == "enumerate":
        classes = enumerate_subalgebra_classes(b[0])
        result = {"count": len(classes), "classes": [c.to_json_dict() for c in classes]}

    elif cmd == "dims":
        rows = []
        for cls in enumerate_subalgebra_classes(b[0]):
            rep = dim_report(b[0], cls, b[1])
            rows.append({**cls.to_json_dict(), **rep.to_json_dict()})
        result = {"classes": rows}

    elif cmd == "thm41-check":
        audit = audit_density_hypotheses(b[0], b[1])
        result = audit.to_json_dict()
        if not audit.covered:
            status = "not-covered"
            exit_code = 2

    elif cmd == "density":
        result = density_experiment(
            b[0], b[1], config.samples, config.seed, radius=config.radius, center=parsed["center"]
        ).to_json_dict()

    elif cmd == "rcp-balance":
        balance = rcp_balance(alg1, mult1, alg2, mult2)
        result = {
            "balance": balance.to_json_dict(),
            "before": [
                rcp_check(alg1, mult1).to_json_dict(),
                rcp_check(alg2, mult2).to_json_dict(),
            ],
            "after": [
                rcp_check(alg1, balance.final_mult1).to_json_dict(),
                rcp_check(alg2, balance.final_mult2).to_json_dict(),
            ],
        }

    elif cmd == "dpi":
        rep = RepPair(alg1, mult1, alg2, mult2, parsed["u"])
        result = dpi_probe(rep, config.samples, config.seed, radius=config.radius).to_json_dict()

    elif cmd == "build-primitive":
        try:
            build = staged_build(
                alg1,
                alg2,
                config.stages,
                float(config.epsilon),
                parsed["probe"],
                config.seed,
                max_tries=config.max_tries,
            )
            result = build.to_json_dict()
        except SearchExhaustedError as exc:
            status = "search-exhausted"
            exit_code = 3
            result = {
                "stage": exc.stage,
                "dim": exc.dim,
                "best_dim": exc.best_dim,
                "tries": exc.tries,
            }

    report = {
        "version": __version__,
        "command": cmd,
        "status": status,
        "config": config.resolved_dict(),
        "result": result,
    }
    return exit_code, report


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1, as every other malformed input does, not 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """One flat parser: the command as a positional choice, then the shared options."""
    parser = _Parser(
        prog="subalg",
        description="Subalgebra dimension counting and perturbation experiments",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON experiment config")
    parser.add_argument(
        "--seed", type=int, default=None, help="master RNG seed, a nonnegative integer of any size"
    )
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--out", default=None, help="report output path (default: stdout)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    try:
        config, diagnostics = load_config(args.config, args.command, overrides)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 1

    parsed, diags = validate(config)
    if diagnostics or diags:
        for pointer, message in diagnostics + diags:
            print(f"{pointer}: {message}", file=sys.stderr)
        return 1

    try:
        exit_code, report = run(config, parsed)
    except NumericalInstabilityError as exc:
        print(f"numerical instability: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:  # a config that validate should have rejected
        print(str(exc), file=sys.stderr)
        return 1

    text = canonical_json(report)
    if config.out:
        try:
            with open(config.out, "w") as fh:
                fh.write(text)
        except OSError as exc:  # validate checked the path, but writing can still fail
            print(f"/out: cannot write {exc.filename!r}: {exc.strerror}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
