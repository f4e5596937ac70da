"""Outside-in tracer for the wenzl layers.

The tracer wraps public functions of each layer from outside the package:
every ``wenzl`` module namespace (and class) that holds a target function has
that binding replaced by a wrapper, so calls made through ``from .tl import
compose`` in ``jw``/``pjw`` are seen as well as calls inside ``tl`` itself.
Nothing under ``src/`` is edited.  ``uninstall`` puts every original binding
back.

Two kinds of wrapper exist:

* span wrappers record (name, start, end, parent, run id) for each call,
  plus an optional per-call attribute (term counts, the result object);
* counter wrappers only count calls.  They are used for functions called
  millions of times per run, where a span per call would cost more than
  the work it measures.

A target that no longer exists (a renamed private helper, say) is skipped
and every metric that depends on it is reported in ``absent`` instead of
raising.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


def _terms_in_second(args, kwargs, result):
    x = args[1] if len(args) > 1 else kwargs["x"]
    return len(x.terms)


def _terms_in_first(args, kwargs, result):
    return len(args[0].terms)


def _pair_products(args, kwargs, result):
    g, f = args[0], args[1]
    return len(g.terms) * len(f.terms)


def _result_len(args, kwargs, result):
    return len(result)


def _first_arg_len(args, kwargs, result):
    return len(args[0])


def _apply_jw_identity(args, kwargs, result):
    x = args[1] if len(args) > 1 else kwargs["x"]
    return result is x


def _keep_result(args, kwargs, result):
    return result


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module.qualname`` reported under ``name``."""

    name: str
    module: str
    qualname: str
    kind: str = "span"  # "span" | "count"
    attr: Optional[Callable] = None


TARGETS: tuple[Target, ...] = (
    Target("tl.compose", "wenzl.tl", "compose", attr=_pair_products),
    Target("tl.matching_compose", "wenzl.tl", "matching_compose", "count"),
    Target("tl.matching_compose_walk", "wenzl.tl", "_matching_compose_walk", "count"),
    Target("tl.apply_matching_right", "wenzl.tl", "apply_matching_right",
           attr=_terms_in_second),
    Target("tl.apply_matching_left", "wenzl.tl", "apply_matching_left",
           attr=_terms_in_second),
    Target("tl.apply_e_top", "wenzl.tl", "apply_e_top", attr=_terms_in_second),
    Target("tl.apply_e_bottom", "wenzl.tl", "apply_e_bottom", attr=_terms_in_second),
    Target("tl.top_killed_upto", "wenzl.tl", "top_killed_upto"),
    Target("tl.bottom_killed_upto", "wenzl.tl", "bottom_killed_upto"),
    Target("tl.markov_trace", "wenzl.tl", "markov_trace", attr=_terms_in_first),
    Target("tl.tensor_with_identity", "wenzl.tl", "tensor_with_identity"),
    Target("rings.reduce_mod_p", "wenzl.rings", "reduce_mod_p"),
    Target("rings.p_valuation", "wenzl.rings", "p_valuation"),
    Target("padic.p_support", "wenzl.padic", "p_support", "count"),
    Target("jw.jones_wenzl", "wenzl.jw", "jones_wenzl"),
    Target("jw.apply_jw", "wenzl.jw", "apply_jw", attr=_apply_jw_identity),
    Target("jw.sandwich_test", "wenzl.jw", "sandwich_test"),
    Target("jw.close_jw", "wenzl.jw", "close_jw"),
    Target("pjw.rational_pjw", "wenzl.pjw", "rational_pjw"),
    Target("pjw.verify_battery", "wenzl.pjw", "verify_battery", attr=_keep_result),
    Target("pjw.reduce_pjw", "wenzl.pjw", "reduce_pjw"),
    Target("serialize.morphism_to_json", "wenzl.serialize", "morphism_to_json",
           attr=_result_len),
    Target("serialize.morphism_from_json", "wenzl.serialize", "morphism_from_json",
           attr=_first_arg_len),
    Target("serialize.decomposition_to_json", "wenzl.serialize",
           "decomposition_to_json", attr=_result_len),
    Target("cache.store_morphism", "wenzl.cache", "DiskCache.store_morphism"),
    Target("cache.load_morphism", "wenzl.cache", "DiskCache.load_morphism"),
    Target("hecke.lemma_positivity_check", "wenzl.hecke", "lemma_positivity_check"),
    Target("cli.main", "wenzl.cli", "main"),
)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    outer: bool  # no enclosing span of the same name
    attr: Any = None


@dataclass
class Tracer:
    """Spans and call counts of one run, kept in memory until ``write``."""

    run_id: str
    targets: tuple[Target, ...] = TARGETS
    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    missing: list = field(default_factory=list)
    _saved: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _depth: defaultdict = field(default_factory=lambda: defaultdict(int))

    # -- installing and removing wrappers ------------------------------------

    def install(self) -> None:
        for target in self.targets:
            original = _resolve(target)
            if original is None:
                self.missing.append(target.name)
                continue
            wrapper = (
                self._span_wrapper(target, original)
                if target.kind == "span"
                else self._count_wrapper(target, original)
            )
            for holder, attr in _holders(target, original):
                self._saved.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            holder, attr, original = self._saved.pop()
            setattr(holder, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _span_wrapper(self, target: Target, fn: Callable) -> Callable:
        spans, stack, depth = self.spans, self._stack, self._depth
        name = target.name
        attr = target.attr
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            span = Span(name, 0.0, 0.0, parent, depth[name] == 0)
            spans.append(span)
            stack.append(sid)
            depth[name] += 1
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                depth[name] -= 1
                stack.pop()
            if attr is not None:
                span.attr = attr(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, target: Target, fn: Callable) -> Callable:
        counts = self.counts
        name = target.name

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- output ----------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write the spans as JSON lines: one header, then one line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"run_id": self.run_id, "counts": dict(self.counts),
                                 "missing": self.missing}) + "\n")
            for sid, s in enumerate(self.spans):
                fh.write(json.dumps([sid, s.name, s.start, s.end, s.parent,
                                     self.run_id]) + "\n")


def _resolve(target: Target) -> Optional[Callable]:
    module = sys.modules.get(target.module)
    if module is None:
        try:
            module = importlib.import_module(target.module)
        except ImportError:
            return None
    obj: Any = module
    for part in target.qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj if callable(obj) else None


def _holders(target: Target, original: Callable):
    """Every (namespace, attribute) in a loaded wenzl module bound to original."""
    if "." in target.qualname:  # a method: rebinding the class attribute suffices
        cls_name, meth = target.qualname.rsplit(".", 1)
        yield getattr(sys.modules[target.module], cls_name), meth
        return
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "wenzl" and not mod_name.startswith("wenzl."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                yield module, attr


# ---------------------------------------------------------------------------
# Metrics derived from a finished trace
# ---------------------------------------------------------------------------


def span_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, self time and busy time.

    Self time is a span's duration minus the durations of its direct child
    spans (children of one span never overlap: the tracer is single-threaded).
    Busy time sums only outermost spans of a name, so recursion is not
    counted twice.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "busy_s": 0.0}
    )
    for sid, s in enumerate(spans):
        dur = s.end - s.start
        row = out[s.name]
        row["calls"] += 1
        row["self_s"] += dur - child_time[sid]
        if s.outer:
            row["busy_s"] += dur
    return dict(out)


def _attr_sum(spans: list[Span], *names: str) -> int:
    return sum(s.attr for s in spans if s.name in names and s.attr is not None)


def derive_metrics(tracer: Tracer, gauges: dict[str, Optional[int]]) -> tuple[dict, list]:
    """Per-layer metrics (name -> (value, unit)) and the names marked absent.

    ``gauges`` holds sizes read at the end of the run; None marks a gauge
    whose table no longer exists.
    """
    spans = tracer.spans
    totals = span_totals(spans)
    missing = set(tracer.missing)
    metrics: dict[str, tuple[float, str]] = {}
    absent: list[str] = []

    def put(name: str, needs: tuple[str, ...], value, unit: str) -> None:
        if any(n in missing for n in needs):
            absent.append(name)
        else:
            metrics[name] = (value() if callable(value) else value, unit)

    def tot(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0)

    for name, key, unit in (
        ("tl.compose", "calls", "count"),
        ("tl.compose", "self_s", "s"),
        ("tl.apply_matching_right", "self_s", "s"),
        ("tl.apply_matching_left", "self_s", "s"),
        ("tl.apply_e_top", "self_s", "s"),
        ("tl.apply_e_bottom", "self_s", "s"),
        ("tl.top_killed_upto", "busy_s", "s"),
        ("tl.bottom_killed_upto", "busy_s", "s"),
        ("tl.markov_trace", "self_s", "s"),
        ("tl.tensor_with_identity", "self_s", "s"),
        ("rings.reduce_mod_p", "calls", "count"),
        ("rings.reduce_mod_p", "self_s", "s"),
        ("rings.p_valuation", "calls", "count"),
        ("rings.p_valuation", "self_s", "s"),
        ("jw.jones_wenzl", "self_s", "s"),
        ("jw.apply_jw", "calls", "count"),
        ("jw.apply_jw", "self_s", "s"),
        ("jw.sandwich_test", "busy_s", "s"),
        ("jw.close_jw", "busy_s", "s"),
        ("pjw.rational_pjw", "busy_s", "s"),
        ("pjw.verify_battery", "busy_s", "s"),
        ("pjw.verify_battery", "self_s", "s"),
        ("pjw.reduce_pjw", "busy_s", "s"),
        ("serialize.morphism_to_json", "self_s", "s"),
        ("serialize.morphism_from_json", "self_s", "s"),
        ("serialize.decomposition_to_json", "self_s", "s"),
        ("cache.store_morphism", "self_s", "s"),
        ("cache.load_morphism", "self_s", "s"),
        ("cache.load_morphism", "busy_s", "s"),
        ("hecke.lemma_positivity_check", "busy_s", "s"),
        ("cli.main", "busy_s", "s"),
    ):
        put(f"{name}.{key}", (name,), tot(name, key), unit)

    put("tl.compose.pair_products", ("tl.compose",),
        lambda: _attr_sum(spans, "tl.compose"), "count")
    put("tl.apply_matching_right.terms_in", ("tl.apply_matching_right",),
        lambda: _attr_sum(spans, "tl.apply_matching_right"), "count")
    put("tl.apply_e.terms_in", ("tl.apply_e_top", "tl.apply_e_bottom"),
        lambda: _attr_sum(spans, "tl.apply_e_top", "tl.apply_e_bottom"), "count")
    put("tl.markov_trace.terms_in", ("tl.markov_trace",),
        lambda: _attr_sum(spans, "tl.markov_trace"), "count")
    put("serialize.bytes",
        ("serialize.morphism_to_json", "serialize.morphism_from_json",
         "serialize.decomposition_to_json"),
        lambda: _attr_sum(spans, "serialize.morphism_to_json",
                          "serialize.morphism_from_json",
                          "serialize.decomposition_to_json"), "count")

    lookups = tracer.counts["tl.matching_compose"]
    walks = tracer.counts["tl.matching_compose_walk"]
    put("tl.matching_compose.calls", ("tl.matching_compose",), lookups, "count")
    put("tl.matching_compose.walks", ("tl.matching_compose_walk",), walks, "count")
    put("tl.compose_memo.hit_ratio", ("tl.matching_compose", "tl.matching_compose_walk"),
        lambda: 1 - walks / lookups if lookups else 0.0, "ratio")
    put("padic.p_support.calls", ("padic.p_support",),
        tracer.counts["padic.p_support"], "count")

    paths = apply_jw_paths(spans)
    for path in ("identity", "direct", "ladder"):
        put(f"jw.apply_jw.path.{path}", ("jw.apply_jw", "tl.compose"),
            paths[path], "count")

    modes = battery_mode_counts(spans)
    for mode in ("direct", "certified"):
        put(f"pjw.checks.{mode}", ("pjw.verify_battery",), modes[mode], "count")

    for name, value in gauges.items():
        if value is None:
            absent.append(name)
        else:
            metrics[name] = (value, "count")
    return metrics, absent


def apply_jw_paths(spans: list[Span]) -> Counter:
    """Classify each apply_jw call: identity, direct or ladder.

    identity: the result is the input object; direct: the call has a
    tl.compose child span; ladder: anything else.
    """
    composed = {s.parent for s in spans if s.name == "tl.compose"}
    out: Counter = Counter(identity=0, direct=0, ladder=0)
    for sid, s in enumerate(spans):
        if s.name != "jw.apply_jw":
            continue
        if s.attr:
            out["identity"] += 1
        elif sid in composed:
            out["direct"] += 1
        else:
            out["ladder"] += 1
    return out


def battery_mode_counts(spans: list[Span]) -> Counter:
    """Check modes over the distinct battery reports the run produced."""
    seen: dict[int, Any] = {}
    for s in spans:
        if s.name == "pjw.verify_battery" and s.attr is not None:
            seen[id(s.attr)] = s.attr
    out: Counter = Counter(direct=0, certified=0)
    for report in seen.values():
        for check in report.checks:
            out[check.mode] += 1
    return out
