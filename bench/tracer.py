"""Span tracing of ordagg from outside the package.

`Tracer.install` replaces the public functions of every ordagg module with
timing wrappers in each namespace where callers look them up (the
defining module, every module that imported the name, and the package),
plus a few methods on their classes.  Each call records a span: name,
start, end, parent span and operation id, kept in flat arrays and turned
into per-layer metrics once the run is over.  `uninstall` puts the
originals back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import Counter

LAYERS = ("cli", "specfile", "chains", "measures", "aggregation",
          "correspondences", "intervals", "metrics")

# Called once per scale point, table row or pair of intervals: a span each
# would swamp both the trace and the timings.  Their cost shows in the
# self time of their callers; label lookups are counted through
# rank_of_label instead of Chain.label.
HOT = frozenset({
    "join", "meet", "leq", "top", "bottom", "refl", "absolute", "sign", "svee",
    "striangle", "dist_r", "singleton", "topkis_cmp", "topkis_leq", "sqcup",
    "sqcap", "sqcup_family", "sqcap_family", "leq_via_lemma", "rinterval_leq",
    "level_set", "zeta", "parse_subset", "format_subset",
})

METHODS = (
    ("chains", "Chain", "rank_of_label"),
    ("chains", "ReflChain", "srank_of_label"),
    ("chains", "ReflChain", "positive_half"),
    ("measures", "Measure", "__init__"),
    ("correspondences", "TotalFn", "as_corr"),
    ("aggregation", "CommFn", "as_corr"),
)


def _spec_rows(args) -> int:
    text = args[0]
    return text.count("\n ") + text.count("\n\t")


# Work counted from a finished call's arguments: span name -> (counter, amount).
WORK = {
    "specfile.parse": ("specfile.rows", _spec_rows),
    "correspondences.inverse": (
        "correspondences.inverse_cells", lambda a: len(a[0].table) * a[0].dst.size),
    "correspondences.TotalFn.as_corr": (
        "correspondences.intervals_built", lambda a: len(a[0].values)),
    "aggregation.CommFn.as_corr": (
        "correspondences.intervals_built", lambda a: len(a[0].values)),
    "measures.Measure.__init__": ("measures.validated_subsets", lambda a: len(a[0].values)),
}

ROOT = "bench.op"


class Tracer:
    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.names = array("l")
        self.ops = array("l")
        self.name_ids: dict[str, int] = {}
        self.stack = [-1]
        self.op = -1
        self.counts: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self._seen_errors: set[int] = set()
        # (namespace, attribute, original, wrapper), found on the first install
        self._plan: list[tuple[object, str, object, object]] = []
        self.installed = False

    def _name_id(self, name: str) -> int:
        return self.name_ids.setdefault(name, len(self.name_ids))

    def _open(self, nid: int) -> int:
        idx = len(self.starts)
        self.parents.append(self.stack[-1])
        self.names.append(nid)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def _error(self, layer: str, exc: BaseException) -> None:
        # count an exception once, in the layer it first leaves
        if id(exc) not in self._seen_errors:
            self._seen_errors.add(id(exc))
            self.errors[layer] += 1

    def wrap(self, fn, name: str):
        nid = self._name_id(name)
        layer = name.split(".", 1)[0]
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._error(layer, exc)
                raise
            finally:
                self._close(idx)
            if work is not None:
                self.counts[work[0]] += work[1](args)
            return result

        return traced

    def run_op(self, op: int, call):
        """Run one benchmark operation under a root span."""
        self.op = op
        idx = self._open(self._name_id(ROOT))
        try:
            return call()
        finally:
            self._close(idx)

    def _make_plan(self) -> None:
        import ordagg

        mods = {layer: importlib.import_module(f"ordagg.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in HOT):
                    wrapped[obj] = self.wrap(obj, f"{layer}.{attr}")
        for ns in (ordagg, *mods.values()):
            for attr, obj in vars(ns).items():
                if inspect.isfunction(obj) and obj in wrapped:
                    self._plan.append((ns, attr, obj, wrapped[obj]))
        for layer, cls_name, meth in METHODS:
            cls = getattr(mods[layer], cls_name)
            orig = cls.__dict__[meth]
            self._plan.append((cls, meth, orig, self.wrap(orig, f"{layer}.{cls_name}.{meth}")))

    def install(self) -> None:
        """Put the wrappers in place; cheap after the first call, so that a
        run can switch tracing on and off between operations."""
        if not self._plan:
            self._make_plan()
        for ns, attr, _, traced in self._plan:
            setattr(ns, attr, traced)
        self.installed = True

    def uninstall(self) -> None:
        for ns, attr, orig, _ in self._plan:
            setattr(ns, attr, orig)
        self.installed = False

    def write(self, path: str) -> None:
        """One tab-separated line per span: index, operation, name, parent,
        start and end in seconds."""
        id_names = sorted(self.name_ids, key=self.name_ids.get)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\top\tname\tparent\tstart\tend\n")
            for i, (op, k, p, s, e) in enumerate(
                    zip(self.ops, self.names, self.parents, self.starts, self.ends)):
                fh.write(f"{i}\t{op}\t{id_names[k]}\t{p}\t{s:.9f}\t{e:.9f}\n")


# Inclusive time of the outermost spans among the named ones, per operation.
TIMES = {
    "cli.run_ms": ("cli.run",),
    "specfile.parse_ms": ("specfile.parse",),
    "chains.rank_of_label_ms": ("chains.Chain.rank_of_label",),
    "measures.validate_ms": ("measures.Measure.__init__",),
    "measures.extension_ms": ("measures.inner_extension", "measures.outer_extension"),
    "measures.chain_measure_ms": ("measures.chain_measure",),
    "measures.classify_ms": ("measures.is_minitive", "measures.is_maxitive"),
    "measures.sign_measure_ms": ("measures.sign_measure",),
    "aggregation.distribution_ms": ("aggregation.distribution",),
    "aggregation.sugeno_integral_ms": ("aggregation.sugeno_integral",),
    "aggregation.quantile_ms": ("aggregation.quantile",),
    "aggregation.fan_sugeno_ms": ("aggregation.fan_sugeno", "aggregation.fan_sugeno_sup"),
    "aggregation.fan_sugeno_dual_ms": ("aggregation.fan_sugeno_dual",),
    "aggregation.symmetric_ms": ("aggregation.symmetric_fan_sugeno",),
    "aggregation.asymmetric_ms": ("aggregation.asymmetric_fan_sugeno",),
    "correspondences.inverse_ms": ("correspondences.inverse",),
    "correspondences.saturate_ms": ("correspondences.saturate", "correspondences.sharp_saturate"),
    "correspondences.product_ms": ("correspondences.inner_product", "correspondences.dual_product"),
    "correspondences.as_corr_ms": ("correspondences.TotalFn.as_corr", "aggregation.CommFn.as_corr"),
    "intervals.svee_ms": ("intervals.svee_intervals",),
    "intervals.format_ms": ("intervals.format_interval", "intervals.format_rinterval"),
    "metrics.distance_ms": ("metrics.ordinal_distance", "metrics.pointwise_distance"),
    "metrics.norm_ms": ("metrics.ordinal_norm", "metrics.kyfan_norm", "metrics.esssup_norm"),
}

# Number of spans of one name, per operation.
CALLS = {
    "chains.rank_of_label_calls": "chains.Chain.rank_of_label",
    "chains.srank_of_label_calls": "chains.ReflChain.srank_of_label",
    "chains.positive_half_calls": "chains.ReflChain.positive_half",
    "measures.validate_calls": "measures.Measure.__init__",
    "aggregation.quantile_calls": "aggregation.quantile",
}

# Layer self time, per operation.
SELF = {
    "cli.self_ms": "cli",
    "specfile.parse_self_ms": "specfile",
    "aggregation.self_ms": "aggregation",
}

# Work counters, per operation.
WORK_PER_OP = ("correspondences.inverse_cells", "correspondences.intervals_built",
               "measures.validated_subsets")

# A validation is derived when another library call made it from an
# already-built value; parsing and the client build from raw input.
PRIMARY_PARENTS = ("bench", "specfile", "cli")


def self_times(parents, durations) -> list[float]:
    """Span duration minus the time covered by its direct children."""
    child = [0.0] * len(durations)
    for p, d in zip(parents, durations):
        if p >= 0:
            child[p] += d
    return [d - c for d, c in zip(durations, child)]


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced operations, from the spans alone,
    as (value, unit); times and counts are per operation."""
    id_names = sorted(tr.name_ids, key=tr.name_ids.get)
    layer_of = [name.split(".", 1)[0] for name in id_names]
    names, parents = tr.names, tr.parents
    dur = [e - s for s, e in zip(tr.starts, tr.ends)]
    own = self_times(parents, dur)
    root = tr.name_ids.get(ROOT, -1)
    ops = sum(1 for k in names if k == root) or 1
    root_s = sum(d for k, d in zip(names, dur) if k == root) or 1.0

    group_bit = {}
    for g, span_names in enumerate(TIMES.values()):
        for name in span_names:
            if name in tr.name_ids:
                group_bit[tr.name_ids[name]] = (g, 1 << g)
    group_s = [0.0] * len(TIMES)
    open_groups = [0] * len(names)
    layer_self: Counter[str] = Counter()
    calls: Counter[int] = Counter()
    validations = derived = 0
    init_id = tr.name_ids.get("measures.Measure.__init__", -2)
    for i, (k, p) in enumerate(zip(names, parents)):
        above = open_groups[p] if p >= 0 else 0
        bit = group_bit.get(k)
        if bit is None:
            open_groups[i] = above
        else:
            if not above & bit[1]:
                group_s[bit[0]] += dur[i]
            open_groups[i] = above | bit[1]
        layer_self[layer_of[k]] += own[i]
        calls[k] += 1
        if k == init_id:
            validations += 1
            derived += p >= 0 and layer_of[names[p]] not in PRIMARY_PARENTS

    out: dict[str, tuple[float, str]] = {}
    for (metric, _), secs in zip(TIMES.items(), group_s):
        out[metric] = (1000 * secs / ops, "ms")
    for metric, name in CALLS.items():
        out[metric] = (calls[tr.name_ids.get(name, -2)] / ops, "count")
    for metric, layer in SELF.items():
        out[metric] = (1000 * layer_self[layer] / ops, "ms")
    for metric in WORK_PER_OP:
        out[metric] = (tr.counts[metric] / ops, "count")
    parse_s = group_s[list(TIMES).index("specfile.parse_ms")]
    out["specfile.rows_per_s"] = (tr.counts["specfile.rows"] / parse_s if parse_s else 0.0, "1/s")
    out["measures.derived_validation_share"] = (
        100 * derived / validations if validations else 0.0, "%")
    for layer in LAYERS:
        out[f"{layer}.self_share"] = (100 * layer_self[layer] / root_s, "%")
        out[f"{layer}.errors"] = (tr.errors[layer], "count")
    return out
