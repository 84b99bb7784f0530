"""Outside-in span tracing of alexq, and the per-layer metrics built from it.

`install()` replaces public functions of alexq's modules with wrappers that
record one span per call: name, start, end, parent span and a few attributes
taken from the arguments or the result. A function imported by name into
another alexq module (`from .lambda_modules import canonical_label`) is
replaced there too, so every call site goes through the wrapper. A target
that no longer exists is reported as absent instead of failing, so the
benchmark keeps running after refactors that delete or move a layer.

Spans stay in memory; the child process writes them out when it finishes.
`layer_totals()` sums one process's spans into the per-layer metrics named
in BENCHMARK.json, and `finish()` turns the sums of a run into the values.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


def _carrier_name(group) -> str:
    return "-".join(str(d) for d in group.factors) or "1"


def _attrs_carrier(args, kwargs, result):
    return {"carrier": _carrier_name(args[0])}


def _attrs_count(args, kwargs, result):
    return {"count": len(result)}


def _attrs_enumerate(args, kwargs, result):
    # enumerate_linear_bijections(n, factors, gen_idx, add, allowed)
    return {"carrier": "-".join(str(d) for d in args[1]) or "1", "count": len(result)}


def _attrs_partition(args, kwargs, result):
    _, reps = result
    return {"aut": len(args[0]), "classes": len(reps)}


def _attrs_order(args, kwargs, result):
    return {"order": args[0]}


def _attrs_found(args, kwargs, result):
    return {"found": result is not None}


def _attrs_bytes(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


# (module, function, span name, attribute extractor)
TARGETS = (
    ("alexq.classify", "classify_order", "classify.classify_order", _attrs_order),
    ("alexq.classify", "cross_validate", "classify.cross_validate", _attrs_order),
    ("alexq.abelian", "enumerate_groups", "abelian.enumerate_groups", _attrs_count),
    ("alexq.autgroup", "conjugacy_representatives", "autgroup.conjugacy_representatives", _attrs_carrier),
    ("alexq.kernels", "enumerate_linear_bijections", "autgroup.enumerate", _attrs_enumerate),
    ("alexq.kernels", "conjugacy_partition", "autgroup.partition", _attrs_partition),
    ("alexq.autgroup", "lex_least_conjugate", "autgroup.lex_least_conjugate", _attrs_carrier),
    ("alexq.autgroup", "parse_phi_spec", "autgroup.parse_phi_spec", None),
    ("alexq.lambda_modules", "image_one_minus_t", "lambda_modules.image_one_minus_t", None),
    ("alexq.lambda_modules", "canonical_label", "lambda_modules.canonical_label", None),
    ("alexq.lambda_modules", "is_lambda_isomorphic", "lambda_modules.is_lambda_isomorphic", _attrs_found),
    ("alexq.lambda_modules", "scalar_cyclic_module", "lambda_modules.scalar_cyclic_module", None),
    ("alexq.lambda_modules", "parse_module_spec", "lambda_modules.parse_module_spec", None),
    ("alexq.polymod", "build", "polymod.build", None),
    ("alexq.quandle", "alexander_table", "quandle.alexander_table", None),
    ("alexq.quandle", "brute_force_isomorphic", "quandle.brute_force_isomorphic", _attrs_found),
    ("alexq.cli", "report_to_json", "cli.report_to_json", _attrs_bytes),
)


class Tracer:
    """Records spans while installed; `uninstall()` restores every name."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.absent = []
        for modname, attr, span_name, attrs_fn in TARGETS:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                self.absent.append(f"{modname}.{attr}")
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(original, span_name, attrs_fn)
            for other_name, other in list(sys.modules.items()):
                if other is None or not (other_name == "alexq" or other_name.startswith("alexq.")):
                    continue
                if getattr(other, attr, None) is original:
                    self._patched.append((other, attr, original))
                    setattr(other, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def _wrap(self, fn, span_name, attrs_fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {
                "id": len(spans),
                "parent": stack[-1] if stack else None,
                "name": span_name,
                "start": clock(),
            }
            spans.append(span)
            stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = clock()
                stack.pop()
            if attrs_fn is not None:
                span["attrs"] = attrs_fn(args, kwargs, result)
            return result

        return wrapper


# --- per-layer metrics ------------------------------------------------------

# carriers with |Aut| > 1000 on the ladder orders, reported one by one
BIG_CARRIERS = ("2-2-2-2", "3-3-3", "2-2-2-6")

COUNT = "count"
SECONDS = "s"


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {
        "abelian.carriers_s": SECONDS,
        "abelian.carriers": COUNT,
        "autgroup.enum_s": SECONDS,
        "autgroup.aut_count": COUNT,
        "autgroup.partition_s": SECONDS,
        "autgroup.classes": COUNT,
        "autgroup.conjugates": COUNT,
        "autgroup.lex_least_calls": COUNT,
        "autgroup.lex_least_s": SECONDS,
    }
    for carrier in BIG_CARRIERS:
        units[f"autgroup.enum_s.{carrier}"] = SECONDS
        units[f"autgroup.partition_s.{carrier}"] = SECONDS
    units.update(
        {
            "autgroup.partition_share_48": "ratio",
            "lambda_modules.image_calls": COUNT,
            "lambda_modules.image_s": SECONDS,
            "lambda_modules.label_calls": COUNT,
            "lambda_modules.label_s": SECONDS,
            "lambda_modules.label_iso_calls": COUNT,
            "lambda_modules.label_iso_s": SECONDS,
            "lambda_modules.scalar_build_calls": COUNT,
            "polymod.build_calls": COUNT,
            "polymod.build_s": SECONDS,
            "classify.merge_iso_calls": COUNT,
            "classify.merge_iso_hits": COUNT,
            "classify.merge_iso_s": SECONDS,
            "classify.cache_hits": COUNT,
            "classify.cache_misses": COUNT,
            "classify.parse_calls": COUNT,
            "classify.parse_s": SECONDS,
            "classify.self_s": SECONDS,
            "quandle.table_calls": COUNT,
            "quandle.table_s": SECONDS,
            "quandle.iso_calls": COUNT,
            "quandle.iso_positive": COUNT,
            "quandle.iso_s": SECONDS,
            "cli.report_json_s": SECONDS,
            "cli.report_bytes": COUNT,
            "bench.untraced_s": SECONDS,
            "bench.traced_s": SECONDS,
            "bench.trace_overhead_s": SECONDS,
        }
    )
    return units


def _ancestor(spans, span, names):
    """The nearest enclosing span whose name is in `names`, or None."""
    parent = span["parent"]
    while parent is not None:
        p = spans[parent]
        if p["name"] in names:
            return p
        parent = p["parent"]
    return None


def layer_totals(spans: list[dict], scale: float = 1.0) -> dict[str, float]:
    """Per-layer sums over one process's spans.

    Spans must come from one process (ids index the list). Self time is the
    span's duration minus the durations of its direct child spans. Every
    duration is multiplied by `scale`, the process's reference-speed factor
    (see speed.py).
    """
    m = dict.fromkeys(layer_metric_units(), 0.0)
    m["_partition_48_s"] = m["_classify_48_s"] = 0.0
    dur = [(s["end"] - s["start"]) / 1e9 * scale for s in spans]
    child_time = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s["parent"] is not None:
            child_time[s["parent"]] += d
    self_time = [d - c for d, c in zip(dur, child_time)]
    classify_names = ("classify.classify_order",)

    for s, d, st in zip(spans, dur, self_time):
        name = s["name"]
        attrs = s.get("attrs", {})
        parent = spans[s["parent"]] if s["parent"] is not None else None
        pname = parent["name"] if parent is not None else None
        in_classify = _ancestor(spans, s, classify_names)
        if name == "abelian.enumerate_groups":
            m["abelian.carriers_s"] += d
            m["abelian.carriers"] += attrs.get("count", 0)
            if pname == "classify.classify_order":
                m["classify.cache_hits"] += attrs.get("count", 0)
        elif name == "autgroup.enumerate":
            m["autgroup.enum_s"] += d
            m["autgroup.aut_count"] += attrs.get("count", 0)
            key = f"autgroup.enum_s.{attrs.get('carrier')}"
            if key in m:
                m[key] += d
        elif name == "autgroup.partition":
            m["autgroup.partition_s"] += d
            m["autgroup.classes"] += attrs.get("classes", 0)
            m["autgroup.conjugates"] += attrs.get("aut", 0) * attrs.get("classes", 0)
            owner = _ancestor(spans, s, ("autgroup.conjugacy_representatives",))
            if owner is not None:
                key = f"autgroup.partition_s.{owner.get('attrs', {}).get('carrier')}"
                if key in m:
                    m[key] += d
            if in_classify is not None and in_classify.get("attrs", {}).get("order") == 48:
                m["_partition_48_s"] += d
        elif name == "autgroup.conjugacy_representatives":
            if in_classify is not None:
                # each recomputed carrier payload is a cache miss
                m["classify.cache_misses"] += 1
        elif name == "autgroup.lex_least_conjugate":
            m["autgroup.lex_least_calls"] += 1
            m["autgroup.lex_least_s"] += d
        elif name in ("autgroup.parse_phi_spec", "lambda_modules.parse_module_spec"):
            if in_classify is not None:
                m["classify.parse_calls"] += 1
                m["classify.parse_s"] += d
        elif name == "lambda_modules.image_one_minus_t":
            m["lambda_modules.image_calls"] += 1
            m["lambda_modules.image_s"] += d
        elif name == "lambda_modules.canonical_label":
            m["lambda_modules.label_calls"] += 1
            m["lambda_modules.label_s"] += st
        elif name == "lambda_modules.is_lambda_isomorphic":
            if pname == "lambda_modules.canonical_label":
                m["lambda_modules.label_iso_calls"] += 1
                m["lambda_modules.label_iso_s"] += d
            elif pname == "classify.classify_order":
                m["classify.merge_iso_calls"] += 1
                m["classify.merge_iso_s"] += d
                m["classify.merge_iso_hits"] += attrs.get("found", False)
        elif name == "lambda_modules.scalar_cyclic_module":
            m["lambda_modules.scalar_build_calls"] += 1
        elif name == "polymod.build":
            m["polymod.build_calls"] += 1
            m["polymod.build_s"] += d
        elif name == "classify.classify_order":
            m["classify.self_s"] += st
            if attrs.get("order") == 48:
                m["_classify_48_s"] += d
        elif name == "quandle.alexander_table":
            m["quandle.table_calls"] += 1
            m["quandle.table_s"] += d
        elif name == "quandle.brute_force_isomorphic":
            m["quandle.iso_calls"] += 1
            m["quandle.iso_s"] += d
            m["quandle.iso_positive"] += attrs.get("found", False)
        elif name == "cli.report_to_json":
            m["cli.report_json_s"] += d
            m["cli.report_bytes"] += attrs.get("bytes", 0)

    # hits are the carriers classify_order enumerated minus those it recomputed
    m["classify.cache_hits"] -= m["classify.cache_misses"]
    return m


def finish(totals: dict[str, float]) -> dict[str, float]:
    """The reported per-layer metrics from summed `layer_totals`."""
    out = {k: totals.get(k, 0.0) for k in layer_metric_units()}
    classify_48 = totals.get("_classify_48_s", 0.0)
    if classify_48:
        out["autgroup.partition_share_48"] = totals["_partition_48_s"] / classify_48
    return out
