"""Span tracing around homprod's layers, installed from outside the library.

Each layer is a module under ``src/homprod``.  ``Tracer.install`` replaces
every public function of those modules, plus a few methods that do a
layer's work, with a wrapper that records a span (name, start, end,
parent).  Modules that re-bind a name with ``from .x import y`` hold their
own reference, so every module attribute that is the original function is
replaced, not only the one in the defining module.  ``uninstall`` puts the
originals back.  Spans stay in memory until ``write`` at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("gf2", "extnat", "complexes", "distance", "products", "codes",
          "alist", "bundle", "report", "verify", "cli")

# Methods that carry a layer's work; module-level functions are found by name.
METHODS = (
    ("gf2", "BinMatrix", "transpose", "gf2.transpose"),
    ("gf2", "BinMatrix", "__matmul__", "gf2.matmul"),
    ("gf2", "BinMatrix", "mul_vec", "gf2.mul_vec"),
    ("complexes", "ChainComplex", "__init__", "complexes.validate"),
    ("complexes", "ChainComplex", "homology_rank", "complexes.homology_rank"),
    ("complexes", "ChainComplex", "homology_ranks", "complexes.homology_ranks"),
    ("complexes", "ChainComplex", "cochain", "complexes.cochain"),
)

# Span names summed into each per-layer metric.  Times are self time
# (span minus its child spans) unless the metric is listed in TOTAL_TIME.
TIME_METRICS = {
    "gf2.rank_s": ("gf2.rank",),
    "gf2.kernel_basis_s": ("gf2.kernel_basis",),
    "gf2.column_space_basis_s": ("gf2.column_space_basis",),
    "gf2.matmul_s": ("gf2.matmul",),
    "gf2.transpose_s": ("gf2.transpose",),
    "gf2.kron_s": ("gf2.kron",),
    "products.tensor_product_s": ("products.tensor_product",),
    "products.power_complex_s": ("products.power_complex",),
    "complexes.validate_s": ("complexes.validate",),
    "complexes.homology_ranks_s": ("complexes.homology_rank", "complexes.homology_ranks"),
    "complexes.cochain_s": ("complexes.cochain",),
    "distance.search_s": ("distance.homological_distance", "distance.cohomological_distance",
                          "distance.classical_distance"),
    "distance.fallback_s": ("distance.nontrivial_weight_upper_bound",),
    "alist.write_s": ("alist.write_alist", "alist.dumps_alist"),
    "alist.read_s": ("alist.read_alist", "alist.loads_alist"),
    "bundle.save_s": ("bundle.save_bundle",),
    "bundle.load_s": ("bundle.load_bundle",),
    "report.distance_levels_s": ("report.distance_levels",),
    "report.analysis_levels_s": ("report.analysis_levels",),
    "report.render_s": ("report.render",),
    "verify.verify_bundle_s": ("verify.verify_bundle",),
    "codes.extract_css_s": ("codes.extract_css",),
}
CLI_COMMANDS = ("build", "product", "power", "analyze", "distance", "verify", "export_css")
TIME_METRICS.update({f"cli.{c}_s": (f"cli.cmd_{c}",) for c in CLI_COMMANDS})
TOTAL_TIME = {"distance.fallback_s"} | {f"cli.{c}_s" for c in CLI_COMMANDS}

COUNT_METRICS = ("gf2.rank_calls", "gf2.rank_rows", "gf2.kernel_calls", "distance.steps",
                 "distance.kernel_dim", "alist.bytes_written", "alist.bytes_read",
                 "report.exact_sides", "report.bound_gap")
MAX_COUNTS = {"distance.kernel_dim"}

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [(name, "s") for name in TIME_METRICS]
    + [(name, "B" if name.startswith("alist.bytes") else "count") for name in COUNT_METRICS]
    + [("distance.steps_per_s", "1/s"), ("trace.spans", "count"),
       ("trace.untraced_result_s", "s"), ("trace.traced_result_s", "s"),
       ("trace.overhead_s", "s"), ("bench.unattributed_s", "s")]
)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _number(value) -> float:
    """A report bound (an ExtNat before rendering) as a float; infinity stays infinite."""
    if getattr(value, "is_finite", True):
        return getattr(value, "finite_value", value)
    return float("inf")


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        # Span records: [name, start, end, parent index, child time, iteration].
        self.spans: list[list] = []
        self.counts: list[dict] = []
        self.iteration = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin_iteration(self) -> None:
        self.iteration += 1
        self.counts.append(defaultdict(float))

    def _count(self, name: str, value) -> None:
        counts = self.counts[self.iteration]
        if name in MAX_COUNTS:
            counts[name] = max(counts[name], value)
        else:
            counts[name] += value

    def _inside(self, layer: str) -> bool:
        prefix = layer + "."
        return any(self.spans[i][0].startswith(prefix) for i in self._stack)

    def _wrap(self, name: str, fn):
        tracer = self
        spans, stack = self.spans, self._stack
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, 0.0, 0.0, parent, 0.0, tracer.iteration]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                record[2] = end
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += end - record[1]
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"homprod.{layer}") for layer in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "homprod" and not mod_name.startswith("homprod."):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, entry[1])
        for layer, cls_name, attr, span_name in METHODS:
            cls = getattr(modules[layer], cls_name, None)
            original = cls.__dict__.get(attr) if cls is not None else None
            if inspect.isfunction(original):
                self._patches.append((cls, attr, original))
                setattr(cls, attr, self._wrap(span_name, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    def iteration_metrics(self, iteration: int, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced iteration."""
        by_name: dict[str, float] = defaultdict(float)
        by_layer: dict[str, float] = defaultdict(float)
        total_by_name: dict[str, float] = defaultdict(float)
        top_level = 0.0
        n_spans = 0
        for name, start, end, parent, child, it in self.spans:
            if it != iteration:
                continue
            n_spans += 1
            duration = end - start
            self_time = duration - child
            by_name[name] += self_time
            total_by_name[name] += duration
            by_layer[name.partition(".")[0]] += self_time
            if parent < 0:
                top_level += duration
        out: dict[str, float] = {f"{layer}.self_s": by_layer[layer] for layer in LAYERS}
        for metric, names in TIME_METRICS.items():
            source = total_by_name if metric in TOTAL_TIME else by_name
            out[metric] = sum(source[n] for n in names)
        counts = self.counts[iteration]
        for metric in COUNT_METRICS:
            out[metric] = counts[metric]
        search = out["distance.search_s"]
        out["distance.steps_per_s"] = out["distance.steps"] / search if search > 0 else 0.0
        out["trace.spans"] = n_spans
        out["bench.unattributed_s"] = wall_s - top_level
        return out

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, child, it) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "iteration": it,
                                     "name": name, "start": start, "end": end,
                                     "self": end - start - child}) + "\n")


# -- counters taken at the same boundaries as the spans ------------------------

def _rank_hook(tracer, args, result):
    tracer._count("gf2.rank_calls", 1)
    tracer._count("gf2.rank_rows", args[0].rows)


def _kernel_hook(tracer, args, result):
    tracer._count("gf2.kernel_calls", 1)
    if tracer._inside("distance"):
        tracer._count("distance.kernel_dim", len(result))


def _distance_hook(tracer, args, result):
    tracer._count("distance.steps", result.enumerated)


def _write_hook(tracer, args, result):
    tracer._count("alist.bytes_written", _file_size(args[1]))


def _read_hook(tracer, args, result):
    tracer._count("alist.bytes_read", _file_size(args[0]))


def _levels_hook(tracer, args, result):
    entries, _cap_hit = result
    for entry in entries:
        for side in (entry["homology"], entry["cohomology"]):
            if side["exact"]:
                tracer._count("report.exact_sides", 1)
            else:
                tracer._count("report.bound_gap", _number(side["upper"]) - _number(side["lower"]))


_HOOKS = {
    "gf2.rank": _rank_hook,
    "gf2.kernel_basis": _kernel_hook,
    "distance.homological_distance": _distance_hook,
    "alist.write_alist": _write_hook,
    "alist.read_alist": _read_hook,
    "report.distance_levels": _levels_hook,
}
