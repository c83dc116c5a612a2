"""The three benchmark workloads, their pinned inputs and their output checks.

Each workload runs in passes.  A pass repeats the same pinned inputs, which
come from the workload seed alone, so per-pass call counts are exact.  Only
the calls into subalg are timed; reading reports back and checking them is
not.  Every operation (one audited pair or one CLI command) is checked, and a
failed check is counted, never retried or skipped.

Why these workloads:

- ``audit_sweep`` is the only one that runs the symbolic layer (``algebra``,
  ``dimensions``); ``numeric`` and ``freeprod`` are never called.
- ``density_scan`` runs the numeric intersection path (``conjugate``,
  ``intersect``, closure check) through the CLI; ``commutant_basis`` is never
  called.
- ``freeprod_build`` runs the free-product layer, whose time is almost all in
  ``commutant_basis``; ``intersect`` is never called.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time

PROBE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.json")

# Seed-commit totals of one audit sweep over N = 2..6; a different number of
# ordered pairs or of verdict rows means the symbolic layer changed its answer.
AUDIT_PAIRS = 1600
AUDIT_VERDICT_ROWS = 1711


class PassResult:
    """Timings, operation count and check failures of one pass."""

    def __init__(self):
        self.seconds = 0.0
        self.by_config: dict[str, list[float]] = {}  # config -> [seconds, samples]
        self.attempted = 0
        self.failures: list[str] = []

    def timed(self, config: str, fn, *args, samples: int = 0):
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        self.seconds += elapsed
        entry = self.by_config.setdefault(config, [0.0, 0])
        entry[0] += elapsed
        entry[1] += samples
        return result

    def check(self, label: str, error: str | None) -> None:
        self.attempted += 1
        if error:
            self.failures.append(f"{label}: {error}")


class AuditSweep:
    """``audit_density_hypotheses`` on every ordered pair of embedded algebras in M_N, N = 2..6.

    The class caches are cleared before each pass so every pass starts cold;
    the seed only permutes the pair order within each N.  N = 7 is left out:
    its C^7 x C^7 pair alone takes about 10 s, which leaves two or three
    passes per run and a run-to-run spread wider than any allowed bound.
    """

    name = "audit_sweep"
    sizes = range(2, 7)

    def __init__(self, subalg, seed: int, workdir: str):
        self.algebra = subalg.algebra
        self.dimensions = subalg.dimensions
        self.modules = [m for n, m in sys.modules.items() if n.startswith("subalg.")]
        self.orders = {}
        rng = random.Random(seed)
        for n in self.sizes:
            count = len(self.algebra.enumerate_embedded_algebras(n))
            order = [(i, j) for i in range(count) for j in range(count)]
            rng.shuffle(order)
            self.orders[n] = order

    def _clear_caches(self) -> None:
        for module in self.modules:
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()

    def run_pass(self, tracer=None) -> PassResult:
        self._clear_caches()
        res = PassResult()
        pairs = rows = 0
        for n in self.sizes:
            algs = res.timed("audit_sweep", self.algebra.enumerate_embedded_algebras, n)
            for i, j in self.orders[n]:
                if tracer is not None:
                    tracer.op += 1
                b1, b2 = algs[i], algs[j]
                pairs += 1
                try:
                    audit = res.timed("audit_sweep", self.dimensions.audit_density_hypotheses, b1, b2)
                except Exception as exc:  # a failing operation is counted, not fatal
                    res.check(f"audit {b1} | {b2}", f"raised {exc!r}")
                    continue
                rows += len(audit.rows)
                error = None
                if audit.covered and not audit.all_pass:
                    error = "covered pair fails the d(B) < N^2 audit"
                res.check(f"audit {b1} | {b2}", error)
        if pairs != AUDIT_PAIRS:
            res.failures.append(f"audit: {pairs} pairs, expected {AUDIT_PAIRS}")
        if rows != AUDIT_VERDICT_ROWS:
            res.failures.append(f"audit: {rows} verdict rows, expected {AUDIT_VERDICT_ROWS}")
        return res


class CliWorkload:
    """A fixed list of in-process ``subalg.cli.main`` calls on generated config files."""

    def __init__(self, subalg, seed: int, workdir: str):
        self.cli = subalg.cli
        self.ops = []  # (config label, samples, argv, report path, check)
        rng = random.Random(seed)
        for index, (label, command, samples, config, check) in enumerate(self.commands()):
            config = dict(config, command=command, seed=rng.randrange(2**32))
            config["out"] = os.path.join(workdir, f"{index}-{label}.report.json")
            if samples:
                config["samples"] = samples
            path = os.path.join(workdir, f"{index}-{label}.config.json")
            with open(path, "w") as fh:
                json.dump(config, fh)
            self.ops.append((label, samples, [command, "--config", path], config["out"], check))

    def commands(self):
        raise NotImplementedError

    def run_pass(self, tracer=None) -> PassResult:
        res = PassResult()
        for label, samples, argv, out, check in self.ops:
            if tracer is not None:
                tracer.op += 1
            if os.path.exists(out):
                os.remove(out)
            try:
                code = res.timed(label, self.cli.main, argv, samples=samples)
            except Exception as exc:  # a failing operation is counted, not fatal
                res.check(label, f"raised {exc!r}")
                continue
            try:
                with open(out) as fh:
                    report = json.load(fh)
            except (OSError, ValueError) as exc:
                res.check(label, f"exit {code}, no readable report ({exc})")
                continue
            res.check(label, check(code, report))
        return res


def _masa(n: int) -> dict:
    return {"blocks": [1] * n, "mult": [1] * n}


def _all_trivial(code, report):
    if code != 0:
        return f"exit code {code}"
    result = report["result"]
    if result["trivial_count"] != result["samples"]:
        return f"{result['trivial_count']}/{result['samples']} trivial"
    return None


def _all_dim_8(code, report):
    if code != 0:
        return f"exit code {code}"
    dims = report["result"]["dims"]
    if not dims or any(d != 8 for d in dims):
        return f"intersection dimensions {sorted(set(dims))}, expected all 8"
    return None


class DensityScan(CliWorkload):
    """``density`` on C^N (the diagonal MASA) against M4 (x) 1_{N/4}, N = 16 and 24,
    half the samples global and half local, plus the M8+M8 control."""

    name = "density_scan"
    local = {"radius": 1e-3}

    def commands(self):
        for n, samples in ((16, 48), (24, 10)):
            pair = {"ambient": n, "algebras": [_masa(n), {"blocks": [4], "mult": [n // 4]}]}
            yield f"density.n{n}", "density", samples, pair, _all_trivial
            yield f"density.n{n}", "density", samples, dict(pair, **self.local), _all_trivial
        control = {"ambient": 16, "algebras": [{"blocks": [8, 8], "mult": [1, 1]}] * 2}
        yield "density.nontrivial", "density", 6, control, _all_dim_8
        yield "density.nontrivial", "density", 6, dict(control, **self.local), _all_dim_8


class FreeprodBuild(CliWorkload):
    """``dpi`` on the RCP-balanced pair C^2 (6,6) against M2 (6), an 8-stage
    ``build-primitive`` of C^2 (1,1) against M2 (1), and an exhausted search."""

    name = "freeprod_build"
    epsilon = 0.5
    stages = 8

    def __init__(self, subalg, seed: int, workdir: str):
        self.attempts = 0  # stage-search attempts reported by the builds of one pass
        super().__init__(subalg, seed, workdir)

    def commands(self):
        dpi = {"algebras": [{"blocks": [1, 1], "mult": [6, 6]}, {"blocks": [2], "mult": [6]}]}
        yield "dpi.n12", "dpi", 4, dpi, _all_trivial
        yield "dpi.n12", "dpi", 4, dict(dpi, radius=1e-3), _all_trivial
        build = {
            "algebras": [{"blocks": [1, 1]}, {"blocks": [2]}],
            "stages": [[[1, 1], [1]]] * self.stages,
            "epsilon": self.epsilon,
            "probe": PROBE_FILE,
        }
        yield "build", "build-primitive", 0, build, self._check_build
        exhausted = {
            "algebras": [{"blocks": [1, 1]}, {"blocks": [1, 1]}],
            "stages": [[[1, 1], [1, 1]]] * 2,
            "epsilon": self.epsilon,
            "max_tries": 64,
        }
        yield "build.exhausted", "build-primitive", 0, exhausted, _exhausted

    def _check_build(self, code, report):
        if code != 0:
            return f"exit code {code}"
        result = report["result"]
        stages = result["stages"]
        self.attempts = sum(s["tries"] for s in stages) + len(stages)
        dims = [s["dim"] for s in stages]
        if dims != list(range(2, 2 * self.stages + 1, 2)):
            return f"stage dimensions {dims}"
        if not all(s["irreducible"] for s in stages):
            return "a stage is reducible"
        if not result["total_perturbation"] < self.epsilon / 2:
            return f"total perturbation {result['total_perturbation']} >= epsilon/2"
        for s in stages:
            if not s["probe_residuals"] or any(
                r > b for r, b in zip(s["probe_residuals"], s["probe_bounds"])
            ):
                return f"stage {s['stage']} probe residuals exceed their bounds"
        return None


def _exhausted(code, report):
    if code != 3 or report.get("status") != "search-exhausted":
        return f"exit code {code}, status {report.get('status')!r}; expected 3, search-exhausted"
    return None


WORKLOADS = {w.name: w for w in (AuditSweep, DensityScan, FreeprodBuild)}
