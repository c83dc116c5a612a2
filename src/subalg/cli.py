"""Command-line front end: experiment configs, validation, dispatch, and reports.

A run is described by a JSON config file; a handful of flags can override the
config.  Every report embeds the fully resolved config and the library
version, and identical (config, seed) pairs produce byte-identical reports.

Exit codes: 0 success, 1 malformed config, 2 hypothesis not covered,
3 search exhausted, 4 numerical instability.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from .algebra import (
    BlockStructure,
    EmbeddedAlgebra,
    enumerate_subalgebra_classes,
)
from .dimensions import audit_density_hypotheses, dim_report
from .errors import ConfigError, NumericalInstabilityError, SearchExhaustedError
from .freeprod import (
    RepPair,
    dpi_probe,
    rcp_balance,
    rcp_check,
    staged_build,
)
from .numeric import amplify, default_tolerance, density_experiment
from .serialize import (
    canonical_json,
    load_probe_file,
    matrix_from_json,
    stats_csv,
)

COMMANDS = (
    "enumerate",
    "dims",
    "thm41-check",
    "density",
    "rcp-balance",
    "dpi",
    "build-primitive",
)

_NEEDS_AMBIENT = {"enumerate", "dims", "thm41-check", "density"}
_NEEDS_SAMPLES = {"density", "dpi"}
_TWO_ALGEBRAS = {"dims", "thm41-check", "density", "rcp-balance", "dpi", "build-primitive"}


@dataclass
class ExperimentConfig:
    """A config file's keys (every field but ``diagnostics``), flag overrides applied."""

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
    tolerance: float | None = None
    out: str | None = None
    format: str = "json"
    diagnostics: list = field(default_factory=list)

    def resolved_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "diagnostics"}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _positive_finite_diagnostics(value, pointer: str) -> list[tuple[str, str]]:
    """Diagnostics for a real field that must be a positive finite number.

    Booleans are rejected although Python counts them as integers, and so is
    an integer too large to convert to a float.
    """
    try:
        ok = (
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and 0.0 < float(value) < math.inf
        )
    except OverflowError:
        ok = False
    return [] if ok else [(pointer, f"expected a positive finite number, got {value!r}")]


def _unitary_diagnostics(obj, pointer: str, n: int) -> list[tuple[str, str]]:
    """Diagnostics for a config matrix that must be an n x n unitary.

    The unitarity defect ||M*M - I||_F may be at most 10 * N^2 * eps, the upper
    end of the window in which every rank decision is checked for stability;
    unitaries computed in double precision sit about ten times below it.
    """
    try:
        mat = matrix_from_json(obj, pointer)
    except ConfigError as exc:
        return list(exc.diagnostics)
    if mat.shape != (n, n):
        return [(pointer, f"expected {n}x{n}, got shape {list(mat.shape)}")]
    defect = float(np.linalg.norm(mat.conj().T @ mat - np.eye(n)))
    if not defect <= 10.0 * default_tolerance(n, 1.0):
        return [(pointer, f"not unitary (defect {defect:.3e})")]
    return []


def _stage_diagnostics(stages: list, blocks: dict[int, list]) -> list[tuple[str, str]]:
    """Diagnostics for build-primitive stages: pairs of nonnegative integer rows.

    ``blocks`` maps the index of each algebra with a valid block list to that
    list.  Row i of a stage must have one entry per block of algebra i, and
    the two rows of a stage must fill the same dimension.
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
            bad = [j for j, m in enumerate(row) if not _is_int(m) or m < 0]
            for j in bad:
                diags.append(
                    (f"/stages/{k}/{i}/{j}", f"expected a nonnegative integer, got {row[j]!r}")
                )
            if i not in blocks:
                continue
            if len(row) != len(blocks[i]):
                diags.append(
                    (
                        f"/stages/{k}/{i}",
                        f"expected {len(blocks[i])} entries, one per block of "
                        f"/algebras/{i}, got {len(row)}",
                    )
                )
            elif not bad:
                dims.append(sum(m * n for m, n in zip(row, blocks[i])))
        if len(dims) == 2 and dims[0] != dims[1]:
            diags.append(
                (f"/stages/{k}", f"factor dimensions differ: {dims[0]} vs {dims[1]}")
            )
    return diags


def _probe_diagnostics(path, blocks: dict[int, list]) -> list[tuple[str, str]]:
    """Diagnostics for the probe file and its letter values (``blocks`` as for stages)."""
    if not isinstance(path, str):
        return [("/probe", f"expected a file path, got {path!r}")]
    try:
        probe = load_probe_file(path)
    except ConfigError as exc:
        return list(exc.diagnostics)
    except OSError as exc:
        return [("/probe", f"cannot read {path!r}: {exc.strerror}")]
    except ValueError as exc:  # not JSON, or not UTF-8 text
        return [("/probe", f"{path!r} is not a JSON file: {exc}")]
    diags = []
    for i, element in enumerate(probe):
        for t, (_, word) in enumerate(element.terms):
            for j, letter in enumerate(word):
                k = letter.side - 1
                if k in blocks:
                    at = f"/elements/{i}/terms/{t}/word/{j}/value"
                    diags += _model_diagnostics(letter.value, blocks[k], f"/algebras/{k}", at)
    return diags


def _model_diagnostics(value, blocks: list, algebra: str, pointer: str) -> list[tuple[str, str]]:
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


def validate(config: ExperimentConfig) -> list[tuple[str, str]]:
    """Every invariant violation as a (json-pointer, message) diagnostic."""
    diags: list[tuple[str, str]] = list(config.diagnostics)
    cmd = config.command
    if cmd not in COMMANDS:
        diags.append(("/command", f"unknown command {cmd!r}"))
        return diags

    if config.seed is None:
        diags.append(("/seed", "seed is required; wall-clock seeding is not supported"))
    elif not _is_int(config.seed) or config.seed < 0:
        diags.append(("/seed", "seed must be a nonnegative integer"))

    want = 2 if cmd in _TWO_ALGEBRAS else 1
    algebras = config.algebras
    if not isinstance(algebras, list):
        diags.append(("/algebras", "expected a list"))
        algebras = []
    elif len(algebras) < want:
        diags.append(("/algebras", f"command {cmd!r} needs {want} algebra spec(s)"))

    needs_mult = cmd != "build-primitive"
    valid_blocks: dict[int, list] = {}
    for i, spec in enumerate(algebras):
        if not isinstance(spec, dict):
            diags.append((f"/algebras/{i}", "algebra spec must be an object"))
            continue
        blocks = spec.get("blocks")
        if not isinstance(blocks, list) or not blocks or any(
            not _is_int(b) or b < 1 for b in blocks
        ):
            diags.append((f"/algebras/{i}/blocks", "blocks must be a list of positive integers"))
            continue
        valid_blocks[i] = blocks
        mult = spec.get("mult")
        if mult is None:
            if needs_mult:
                diags.append((f"/algebras/{i}/mult", "multiplicity row is required"))
            continue
        if not isinstance(mult, list) or len(mult) != len(blocks) or any(
            not _is_int(m) for m in mult
        ):
            diags.append(
                (f"/algebras/{i}/mult", "mult must be an integer list matching blocks")
            )
            continue
        if cmd in _NEEDS_AMBIENT:
            if any(m < 1 for m in mult):
                diags.append((f"/algebras/{i}/mult", "ambient multiplicities must be >= 1"))
            elif _is_int(config.ambient) and config.ambient is not None:
                total = sum(m * n for m, n in zip(mult, blocks))
                if total != config.ambient:
                    diags.append(
                        (
                            f"/algebras/{i}/mult",
                            f"multiplicities fill dimension {total}, not ambient {config.ambient}",
                        )
                    )
        elif any(m < 0 for m in mult):
            diags.append((f"/algebras/{i}/mult", "multiplicities must be nonnegative"))

    if cmd in _NEEDS_AMBIENT:
        if not _is_int(config.ambient) or config.ambient is None or config.ambient < 1:
            diags.append(("/ambient", "ambient dimension must be a positive integer"))
        elif cmd == "density" and config.center is not None:
            diags.extend(_unitary_diagnostics(config.center, "/center", config.ambient))
    if config.center is not None and (cmd != "density" or config.radius is None):
        diags.append(("/center", "a center is accepted only by density, with a radius"))

    if cmd in ("rcp-balance", "dpi") and len(algebras) >= 2 and not diags:
        dims = [
            sum(m * n for m, n in zip(spec["mult"], spec["blocks"]))
            for spec in algebras[:2]
        ]
        if dims[0] != dims[1]:
            diags.append(
                ("/algebras/1/mult", f"factor dimensions differ: {dims[0]} vs {dims[1]}")
            )
        elif cmd == "dpi" and config.u is not None:
            diags.extend(_unitary_diagnostics(config.u, "/u", dims[0]))

    if cmd in _NEEDS_SAMPLES:
        if not _is_int(config.samples) or config.samples is None or config.samples < 1:
            diags.append(("/samples", "samples must be an integer >= 1"))

    if config.radius is not None:
        diags.extend(_positive_finite_diagnostics(config.radius, "/radius"))

    if cmd == "build-primitive":
        diags.extend(_positive_finite_diagnostics(config.epsilon, "/epsilon"))
        if not isinstance(config.stages, list) or not config.stages:
            diags.append(("/stages", "stages must be a nonempty list of multiplicity-row pairs"))
        else:
            diags.extend(_stage_diagnostics(config.stages, valid_blocks))
        if not _is_int(config.max_tries) or config.max_tries < 1:
            diags.append(("/max_tries", "max_tries must be a positive integer"))
        if config.probe is not None:
            diags.extend(_probe_diagnostics(config.probe, valid_blocks))

    if config.out is not None and not isinstance(config.out, str):
        diags.append(("/out", f"expected a file path, got {config.out!r}"))

    if config.format not in ("json", "csv"):
        diags.append(("/format", "format must be 'json' or 'csv'"))
    elif config.format == "csv" and cmd not in _NEEDS_SAMPLES:
        diags.append(("/format", f"command {cmd!r} has no per-sample CSV output"))

    if config.tolerance is not None:
        diags.extend(_positive_finite_diagnostics(config.tolerance, "/tolerance"))

    return diags


def load_config(path: str, command: str, overrides: dict) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{path}: no such config file")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}:1:1: config root must be a JSON object")

    diagnostics = []
    declared = raw.get("command")
    if declared is not None and declared != command:
        diagnostics.append(
            ("/command", f"config declares {declared!r} but {command!r} was invoked")
        )

    keys = {f.name for f in fields(ExperimentConfig)} - {"command", "diagnostics"}
    config = ExperimentConfig(
        command=command,
        diagnostics=diagnostics,
        **{key: value for key, value in raw.items() if key in keys},
    )
    for key, value in overrides.items():
        if value is not None:
            setattr(config, key, value)
    return config


def _embedded(config: ExperimentConfig, index: int) -> EmbeddedAlgebra:
    spec = config.algebras[index]
    return EmbeddedAlgebra(
        config.ambient, BlockStructure(tuple(spec["blocks"])), tuple(spec["mult"])
    )


def run(config: ExperimentConfig) -> tuple[int, dict, str | None]:
    """Execute a validated config; returns (exit code, report dict, optional CSV text)."""
    cmd = config.command
    status = "ok"
    exit_code = 0
    csv_text = None
    if cmd in _NEEDS_AMBIENT:  # algebras embedded in M_ambient
        b1 = _embedded(config, 0)
        if cmd in _TWO_ALGEBRAS:
            b2 = _embedded(config, 1)
    elif cmd in _TWO_ALGEBRAS:  # the free-product commands: two factors on one space
        a1, a2 = config.algebras[0], config.algebras[1]
        alg1, alg2 = BlockStructure(tuple(a1["blocks"])), BlockStructure(tuple(a2["blocks"]))

    if cmd == "enumerate":
        classes = enumerate_subalgebra_classes(b1)
        result = {"count": len(classes), "classes": [c.to_json_dict() for c in classes]}

    elif cmd == "dims":
        rows = []
        for cls in enumerate_subalgebra_classes(b1):
            rep = dim_report(b1, cls, b2)
            rows.append({**cls.to_json_dict(), **rep.to_json_dict()})
        result = {"classes": rows}

    elif cmd == "thm41-check":
        audit = audit_density_hypotheses(b1, b2)
        result = audit.to_json_dict()
        if not audit.covered:
            status = "not-covered"
            exit_code = 2

    elif cmd == "density":
        local = None
        if config.radius is not None:
            center = None if config.center is None else matrix_from_json(config.center, "/center")
            local = (center, float(config.radius))
        stats = density_experiment(
            b1, b2, config.samples, config.seed, local=local, tol=config.tolerance
        )

    elif cmd == "rcp-balance":
        balance = rcp_balance(alg1, a1["mult"], alg2, a2["mult"])
        result = {
            "balance": balance.to_json_dict(),
            "before": [
                rcp_check(alg1, a1["mult"]).to_json_dict(),
                rcp_check(alg2, a2["mult"]).to_json_dict(),
            ],
            "after": [
                rcp_check(alg1, balance.final_mult1).to_json_dict(),
                rcp_check(alg2, balance.final_mult2).to_json_dict(),
            ],
        }

    elif cmd == "dpi":
        dim = sum(m * n for m, n in zip(a1["mult"], alg1.blocks))
        u = (
            matrix_from_json(config.u, "/u")
            if config.u is not None
            else np.eye(dim, dtype=complex)
        )
        rep = RepPair(alg1, tuple(a1["mult"]), alg2, tuple(a2["mult"]), u)
        stats = dpi_probe(
            rep, config.samples, config.seed, local_radius=config.radius, tol=config.tolerance
        )

    elif cmd == "build-primitive":
        stages = [(tuple(s[0]), tuple(s[1])) for s in config.stages]
        probe = load_probe_file(config.probe) if config.probe is not None else []
        try:
            build = staged_build(
                alg1,
                alg2,
                stages,
                float(config.epsilon),
                probe,
                config.seed,
                max_tries=config.max_tries,
                tol=config.tolerance,
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

    else:  # pragma: no cover - guarded by validation
        raise ConfigError(f"unknown command {cmd!r}")

    if cmd in _NEEDS_SAMPLES:
        result = stats.to_json_dict()
        if config.format == "csv":
            csv_text = stats_csv(stats.csv_rows())

    report = {
        "version": __version__,
        "command": cmd,
        "status": status,
        "config": config.resolved_dict(),
        "result": result,
    }
    return exit_code, report, csv_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subalg",
        description="Subalgebra dimension counting and perturbation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="master RNG seed (u64)")
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--out", default=None, help="report output path (default: stdout)")
        p.add_argument("--tolerance", type=float, default=None, help="rank tolerance override")
        p.add_argument("--format", choices=("json", "csv"), default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    try:
        config = load_config(args.config, args.command, overrides)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 1

    diags = validate(config)
    if diags:
        for pointer, message in diags:
            print(f"{pointer}: {message}", file=sys.stderr)
        return 1

    try:
        exit_code, report, csv_text = run(config)
    except NumericalInstabilityError as exc:
        print(f"numerical instability: {exc}", file=sys.stderr)
        return 4
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        for pointer, message in exc.diagnostics:
            print(f"{pointer}: {message}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 1

    text = canonical_json(report)
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text)
        if csv_text is not None:
            with open(config.out + ".csv", "w") as fh:
                fh.write(csv_text)
    else:
        sys.stdout.write(text)
        if csv_text is not None:
            sys.stdout.write(csv_text)
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
