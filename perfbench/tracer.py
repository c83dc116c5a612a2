"""Span tracer that wraps the public functions of the subalg modules.

Wrappers exist only between ``Tracer.install`` and ``Tracer.uninstall``; the
untraced runs never call ``install``, and ``wrapped_bindings`` lets a run prove
that no wrapper is left in any subalg module.  Spans are kept in memory as
``(name, start, end, parent, op)`` and written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, attribute) of every traced callable; "Class.method" names a method.
TARGETS = (
    ("algebra", "enumerate_embedded_algebras"),
    ("algebra", "enumerate_subalgebra_classes"),
    ("algebra", "compatible_embeddings"),
    ("dimensions", "audit_density_hypotheses"),
    ("dimensions", "classify_pair"),
    ("numeric", "realize"),
    ("numeric", "haar_unitary"),
    ("numeric", "local_unitary"),
    ("numeric", "conjugate"),
    ("numeric", "intersect"),
    ("numeric", "ConcreteRealization.closure_defect"),
    ("numeric", "commutant_basis"),
    ("numeric", "density_experiment"),
    ("freeprod", "joint_commutant_dim"),
    ("freeprod", "rcp_balance"),
    ("freeprod", "lipschitz_bound"),
    ("freeprod", "dpi_probe"),
    ("freeprod", "staged_build"),
    ("cli", "main"),
    ("cli", "load_config"),
    ("cli", "validate"),
    ("cli", "run"),
    ("serialize", "canonical_json"),
    ("serialize", "load_probe_file"),
)

WRAPPED_MARK = "__perfbench_wrapped__"


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.split('.')[-1]}"


def _commutant_u_bytes(args, kwargs, result) -> int:
    """Bytes of the full U factor of the stacked commutant system, from its shape."""
    gens = args[0] if args else kwargs["gens"]
    n = gens[0].shape[0]
    rows = len(gens) * n * n
    return rows * rows * 16


# Counters derived from a traced call's arguments and result.
COUNTERS = {
    "algebra.compatible_embeddings": (
        "algebra.compatible_embeddings.embeddings",
        lambda args, kwargs, result: len(result),
    ),
    "numeric.commutant_basis": (
        "numeric.commutant_basis.u_bytes_computed",
        _commutant_u_bytes,
    ),
}


def _subalg_modules():
    return [m for name, m in sys.modules.items() if name == "subalg" or name.startswith("subalg.")]


def wrapped_bindings() -> list[str]:
    """Every attribute of a subalg module or class that is still a tracer wrapper."""
    found = []
    for module in _subalg_modules():
        for attr, value in vars(module).items():
            if hasattr(value, WRAPPED_MARK):
                found.append(f"{module.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for name, member in vars(value).items():
                    if hasattr(member, WRAPPED_MARK):
                        found.append(f"{module.__name__}.{attr}.{name}")
    return found


class Tracer:
    """Wraps the TARGETS in every subalg namespace that binds them and records spans."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((name, 0.0, 0.0, parent, self.op))
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if counter is not None:
                counters[counter[0]] += counter[1](args, kwargs, result)
            return result

        setattr(wrapper, WRAPPED_MARK, fn)
        return wrapper

    def install(self) -> None:
        modules = _subalg_modules()
        for module_name, attr in TARGETS:
            name = span_name(module_name, attr)
            owner = sys.modules[f"subalg.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = vars(cls)[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            obj, key, original = self._restore.pop()
            setattr(obj, key, original)

    def layer_totals(self) -> dict[str, list[float]]:
        """name -> [calls, self seconds]; self time is duration minus child durations."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, list[float]] = {}
        for (name, start, end, _, _), inner in zip(self.spans, child):
            entry = totals.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += end - start - inner
        return totals

    def root_seconds(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def write(self, path: str, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def import_seconds(importtime_text: str) -> dict[str, float]:
    """Import cost of numpy, scipy and subalg from ``python -X importtime`` output.

    Each module's self time goes to the outermost numpy or scipy package
    above it, else to subalg if subalg imported it, else to nobody; so
    numpy and scipy pulled in by subalg are not counted twice.
    """
    entries = []  # (depth, name, self_us), in printed (post-) order
    for line in importtime_text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        head, _, name_field = line.split("|", 2)
        self_us = head.split(":", 1)[1]
        name = name_field.strip()
        depth = (len(name_field) - len(name_field.lstrip()) - 1) // 2
        entries.append((depth, name, int(self_us)))

    def package(name: str) -> str | None:
        top = name.split(".")[0]
        return top if top in ("numpy", "scipy", "subalg") else None

    totals = {"numpy": 0, "scipy": 0, "subalg": 0}
    ancestors: dict[int, tuple[str | None, str | None]] = {}  # depth -> (outer np/sp, subalg seen)
    # printed order is post-order; reversed it visits every parent before its children
    for depth, name, self_us in reversed(entries):
        outer, in_subalg = ancestors.get(depth - 1, (None, None))
        pkg = package(name)
        if outer is None and pkg in ("numpy", "scipy"):
            outer = pkg
        if pkg == "subalg":
            in_subalg = "subalg"
        ancestors[depth] = (outer, in_subalg)
        owner = outer or in_subalg
        if owner:
            totals[owner] += self_us
    return {f"import.{pkg}_s": us / 1e6 for pkg, us in totals.items()}
