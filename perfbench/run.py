"""subalg benchmark: three seeded workloads, timed end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload audit_sweep --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``audit_sweep``, ``density_scan``,
``freeprod_build``.  The run imports subalg from ``src/`` of the current
directory and exits non-zero, printing no result, when it is not there.

``--trace 0`` measures for ``--seconds`` seconds and reports the end-to-end
metrics: ``setup_s`` (median over several fresh interpreters, from start until
subalg and subalg.cli are imported, the inputs written and one small SVD/QR
done), ``pass_s`` (median wall time of the timed subalg calls of one pass),
``peak_rss_mb`` and ``ok_ops_ratio``.  It also checks that no tracer wrapper
is installed.

``--trace 1`` spends half the time on untraced passes and half on traced
ones, then reports per-layer calls and self time per traced pass, the
exact-count layer-separation checks, import times from ``-X importtime``, the
unattributed remainder and the tracing overhead.  Spans go to
``.perfbench_out/trace-<workload>-<seed>.jsonl``.

The last line of standard output is the JSON result; the line before it
records the environment and per-configuration figures.
"""

import os

# Pin the BLAS thread count before numpy loads, here and in every child.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from tracer import TARGETS, Tracer, import_seconds, span_name, wrapped_bindings  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = os.getcwd()
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 60

# Calls per pass that must be exactly zero, or nonzero, on each workload; they
# show that each workload reaches its own layer and bypasses the others.
_NUMERIC_FREEPROD = [
    span_name(m, a) for m, a in TARGETS if m in ("numeric", "freeprod")
]
MUST_BE_ZERO = {
    "audit_sweep": _NUMERIC_FREEPROD,
    "density_scan": ["algebra.compatible_embeddings", "numeric.commutant_basis"],
    "freeprod_build": ["algebra.compatible_embeddings", "numeric.intersect"],
}
MUST_BE_NONZERO = {
    "audit_sweep": ["algebra.compatible_embeddings"],
    "density_scan": ["numeric.intersect"],
    "freeprod_build": ["numeric.commutant_basis"],
}

# Per-configuration figures, reported on every workload (0 where not run):
# samples per second, and median seconds per pass, of a workload config.
CONFIG_RATES = {
    "density.samples_per_s.n16": "density.n16",
    "density.samples_per_s.n24": "density.n24",
    "density.samples_per_s.nontrivial": "density.nontrivial",
    "dpi.samples_per_s.n12": "dpi.n12",
}
CONFIG_TIMES = {"audit_sweep_s": "audit_sweep", "build_s": "build"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_subalg():
    """Import subalg from ./src, refusing any other copy."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import subalg
        import subalg.cli  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import subalg from {src}: {exc}")
    if not os.path.abspath(subalg.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: subalg imported from {subalg.__file__}, not {src}")
    return subalg


def warm_up():
    import numpy as np

    a = np.arange(16, dtype=complex).reshape(4, 4) + 1j * np.eye(4)
    np.linalg.svd(a)
    np.linalg.qr(a)


def setup(workload: str, seed: int, workdir: str):
    """Everything a run does before its first timed call."""
    subalg = load_subalg()
    os.makedirs(workdir, exist_ok=True)
    wl = WORKLOADS[workload](subalg, seed, workdir)
    warm_up()
    return wl


def child_setup(args, workdir: str, importtime: bool = False):
    """Run setup in a fresh interpreter; returns (seconds until ready, stderr text)."""
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only", workdir]
    os.makedirs(workdir, exist_ok=True)
    # stderr goes to a file: a pipe could fill with -X importtime output and stall the child
    err_path = os.path.join(workdir, "stderr.txt")
    with open(err_path, "w") as err_file:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=err_file,
                                text=True)
        try:
            ready = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    with open(err_path) as fh:
        err = fh.read()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up child failed (exit {proc.returncode}): {err[-2000:]}")
    return elapsed, err


def environment(args, load_at_start):
    import numpy
    import scipy

    def blas_version(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
        except (AttributeError, KeyError, TypeError):
            return None

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "load_at_start": load_at_start,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas_version(numpy),
        "scipy_openblas": blas_version(scipy),
    }


def run_passes(wl, seconds: float, tracer=None):
    """Passes until ``seconds`` of wall time have gone by; at least one."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(wl.run_pass(tracer))
    return passes


def config_figures(passes):
    """Samples per second and median seconds per pass of each configuration."""
    figures = {}
    for metric, config in CONFIG_RATES.items():
        seconds = sum(p.by_config.get(config, (0.0, 0))[0] for p in passes)
        samples = sum(p.by_config.get(config, (0.0, 0))[1] for p in passes)
        figures[metric] = samples / seconds if seconds else 0.0
    for metric, config in CONFIG_TIMES.items():
        times = [p.by_config[config][0] for p in passes if config in p.by_config]
        figures[metric] = statistics.median(times) if times else 0.0
    return figures


def trace_metrics(args, wl, untraced, traced, tracer, imports):
    count = len(traced)
    totals = tracer.layer_totals()
    metrics = {}
    for module, attr in TARGETS:
        name = span_name(module, attr)
        calls, self_s = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls / count, "count")
        metrics[f"{name}.self_s"] = (self_s / count, "s")
    for name, unit in (("algebra.compatible_embeddings.embeddings", "count"),
                       ("numeric.commutant_basis.u_bytes_computed", "B")):
        metrics[name] = (tracer.counters.get(name, 0) / count, unit)
    attempts = getattr(wl, "attempts", 0)
    metrics["freeprod.search.attempts"] = (attempts, "count")
    metrics["freeprod.search.useful_ratio"] = (wl.stages / attempts if attempts else 0.0, "ratio")
    for name, value in imports.items():
        metrics[name] = (value, "s")
    traced_s = statistics.median(p.seconds for p in traced)
    untraced_s = statistics.median(p.seconds for p in untraced)
    metrics["trace.pass_s"] = (traced_s, "s")
    metrics["trace.untraced_pass_s"] = (untraced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.unattributed_s"] = (
        (sum(p.seconds for p in traced) - tracer.root_seconds()) / count, "s")
    for name, value in config_figures(untraced).items():
        metrics[name] = (value, "s" if name.endswith("_s") else "1/s")

    errors = []
    for name in MUST_BE_ZERO[args.workload]:
        if metrics[f"{name}.calls"][0] != 0:
            errors.append(f"separation: {name} called {metrics[name + '.calls'][0]} times per pass")
    for name in MUST_BE_NONZERO[args.workload]:
        if metrics[f"{name}.calls"][0] == 0:
            errors.append(f"separation: {name} never called")
    return metrics, errors


def main(argv=None) -> int:
    load_at_start = os.getloadavg()
    args = parse_args(argv)
    if args.setup_only:
        setup(args.workload, args.seed, args.setup_only)
        print("ready", flush=True)
        return 0

    workdir = os.path.join(OUT_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        return measure(args, workdir, load_at_start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir, load_at_start) -> int:
    errors = []
    if args.trace:
        _, importtime_text = child_setup(args, os.path.join(workdir, "child"), importtime=True)
        setup_times = []
    else:
        setup_times = [child_setup(args, os.path.join(workdir, f"child{i}"))[0]
                       for i in range(SETUP_REPEATS)]
    wl = setup(args.workload, args.seed, os.path.join(workdir, "main"))
    env = environment(args, load_at_start)

    if args.trace:
        untraced = run_passes(wl, args.seconds / 2)
        errors += [f"hygiene: {b} wrapped before tracing" for b in wrapped_bindings()]
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(wl, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        errors += [f"hygiene: {b} still wrapped after tracing" for b in wrapped_bindings()]
        passes, timed = untraced + traced, untraced
        metrics, separation = trace_metrics(
            args, wl, untraced, traced, tracer, import_seconds(importtime_text))
        errors += separation
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.jsonl"),
                     {"env": env, "traced_passes": len(traced)})
    else:
        passes = timed = run_passes(wl, args.seconds)
        errors += [f"hygiene: {b} wrapped in an untraced run" for b in wrapped_bindings()]

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures] + errors
    failed = min(len(failures), attempted)
    for failure in failures[:20]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)

    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "pass_s": (statistics.median(p.seconds for p in timed), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "ok_ops_ratio": (1.0 - failed / attempted, "ratio"),
        }
    print(json.dumps({
        "env": env,
        "passes": len(timed),
        "pass_s": [p.seconds for p in timed],
        "setup_s": setup_times,
        "configs": config_figures(timed),
    }))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
