"""Tests of the benchmark harness itself (not of wenzl).

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import io
import json
import signal
import sys
import types
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import child  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import (  # noqa: E402
    TARGETS,
    Span,
    Target,
    Tracer,
    apply_jw_paths,
    derive_metrics,
    span_totals,
)


def test_self_time_of_synthetic_nested_spans():
    # outer [0, 10] holds a [1, 4] (which holds a recursive a [2, 3]) and b [5, 6]
    spans = [
        Span("outer", 0.0, 10.0, -1, True),
        Span("a", 1.0, 4.0, 0, True),
        Span("a", 2.0, 3.0, 1, False),
        Span("b", 5.0, 6.0, 0, True),
    ]
    totals = span_totals(spans)
    assert totals["outer"] == {"calls": 1, "self_s": 6.0, "busy_s": 10.0}
    assert totals["a"] == {"calls": 2, "self_s": 3.0, "busy_s": 3.0}
    assert totals["b"] == {"calls": 1, "self_s": 1.0, "busy_s": 1.0}
    assert sum(t["self_s"] for t in totals.values()) == 10.0


def _synthetic_module():
    mod = types.ModuleType("wenzl._bench_synthetic")
    src = (
        "def inner(k):\n"
        "    return inner(k - 1) + 1 if k else 0\n"
        "def outer(k):\n"
        "    return inner(k) + inner(k)\n"
    )
    exec(src, mod.__dict__)
    return mod


def test_tracer_records_nested_calls_through_module_globals(monkeypatch):
    mod = _synthetic_module()
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    original_inner = mod.inner
    tracer = Tracer("synthetic", targets=(
        Target("s.outer", mod.__name__, "outer"),
        Target("s.inner", mod.__name__, "inner"),
    ))
    with tracer:
        assert mod.outer(3) == 6
    assert mod.inner is original_inner
    names = [s.name for s in tracer.spans]
    assert names.count("s.outer") == 1 and names.count("s.inner") == 8
    totals = span_totals(tracer.spans)
    assert totals["s.inner"]["calls"] == 8
    outer = tracer.spans[0]
    # self times of all spans add up to the root's duration
    total_self = sum(t["self_s"] for t in totals.values())
    assert total_self == pytest.approx(outer.end - outer.start)
    # busy time counts only the two outermost inner calls
    tops = [s for s in tracer.spans if s.name == "s.inner" and s.outer]
    assert len(tops) == 2 and all(s.parent == 0 for s in tops)


def _bindings():
    """Every (holder, attribute) -> value for the real targets."""
    import wenzl  # noqa: F401
    from tracer import _holders, _resolve

    out = {}
    for target in TARGETS:
        fn = _resolve(target)
        if fn is not None:
            for holder, attr in _holders(target, fn):
                out[(id(holder), attr)] = (holder, attr, fn)
    return out


def test_bindings_restored_after_traced_run():
    from wenzl import jw, pjw, tl

    before = _bindings()
    assert len(before) > len(TARGETS)  # jw/pjw hold tl names too
    tracer = Tracer("restore")
    with tracer:
        assert getattr(jw.compose, "__wrapped__", None) is not None
        assert getattr(pjw.compose, "__wrapped__", None) is not None
        x = jw.jones_wenzl(4)
        tl.compose(x, x)
    for holder, attr, fn in before.values():
        assert getattr(holder, attr) is fn, attr
    assert any(s.name == "tl.compose" for s in tracer.spans)
    assert tracer.counts["tl.matching_compose"] > 0


def test_missing_target_is_reported_absent():
    from wenzl import tl

    renamed = tuple(
        Target(t.name, t.module, "_renamed_walk", t.kind)
        if t.name == "tl.matching_compose_walk" else t
        for t in TARGETS
    )
    tracer = Tracer("missing", targets=renamed)
    with tracer:
        tl.compose(tl.TLMorphism.identity(3), tl.TLMorphism.identity(3))
    metrics, absent = derive_metrics(tracer, {"tl.intern.size": None})
    assert "tl.matching_compose.walks" in absent
    assert "tl.compose_memo.hit_ratio" in absent
    assert "tl.intern.size" in absent
    assert metrics["tl.compose.calls"][0] == 1
    assert metrics["tl.compose.pair_products"][0] == 1


def test_apply_jw_path_classification():
    spans = [
        Span("jw.apply_jw", 0, 1, -1, True, attr=True),
        Span("jw.apply_jw", 1, 2, -1, True, attr=False),
        Span("tl.compose", 1, 2, 1, True),
        Span("jw.apply_jw", 2, 3, -1, True, attr=False),
    ]
    assert apply_jw_paths(spans) == {"identity": 1, "direct": 1, "ladder": 1}


def test_speed_probe_drops_bursts_and_scales_by_nearby_ones():
    probe = speed.SpeedProbe()
    # two 10 ms bursts inside [1, 2); a slow one long after it must not count
    probe.bursts = [(1.2, 0.01), (1.6, 0.01), (5.0, 0.04)]
    assert probe.spent(1.0, 2.0) == pytest.approx(0.02)
    assert probe.normalise(1.0, 2.0) == pytest.approx(0.98 * speed.REFERENCE_BURST_S / 0.01)


def test_traced_summary_reports_overhead_from_normalised_times():
    common = {"attempted": 1, "failed": 0, "duration": 1.0}
    untraced = dict(common, wall_s=2.5, wall_raw_s=2.0, setup_s=0.2, setup_raw_s=0.1)
    traced = dict(common, wall_s=3.0, wall_raw_s=2.4, setup_s=0.2, setup_raw_s=0.1,
                  per_layer={"tl.compose.calls": {"value": 7, "unit": "count"}})
    metrics = run.summarize([untraced, traced], 1)["metrics"]
    assert metrics["tl.compose.calls"]["value"] == 7
    assert metrics["trace.wall_s"]["value"] == 3.0
    assert metrics["trace.overhead_s"]["value"] == pytest.approx(0.5)


def _child_sample(monkeypatch, tmp_path, reference: dict) -> dict:
    monkeypatch.setattr(workloads, "JW_BUILD_N", 4)
    ref_file = tmp_path / "reference.json"
    ref_file.write_text(json.dumps({"jw_build": reference}))
    monkeypatch.setattr(child, "REFERENCE_PATH", ref_file)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = child.main(["--workload", "jw_build", "--seed", "1", "--trace", "0",
                           "--spawned-at", "0", "--outdir", str(tmp_path)])
    assert code == 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)  # probe timer stopped
    return json.loads(buf.getvalue().splitlines()[-1])


def test_tampered_reference_digest_is_a_failed_operation(monkeypatch, tmp_path):
    from wenzl.jw import jones_wenzl
    from wenzl.serialize import morphism_to_json

    good = {"jw": workloads.sha256(morphism_to_json(jones_wenzl(4)))}
    passing = _child_sample(monkeypatch, tmp_path, good)
    assert passing["failed"] == 0 and passing["attempted"] == 1

    tampered = {"jw": "0" * 64}
    failing = _child_sample(monkeypatch, tmp_path, tampered)
    assert failing["attempted"] == 1 and failing["failed"] == 1

    failing["wall_s"] = 0.001  # a failed sample must never count as fast
    summary = run.summarize([dict(passing, duration=1.0), dict(failing, duration=1.0)], 0)
    assert summary["correct"] is False
    assert summary["attempted"] == 2 and summary["failed"] == 1
    assert summary["metrics"]["wall_s"]["value"] == passing["wall_s"]

    alone = run.summarize([dict(failing, duration=1.0)], 0)
    assert alone["correct"] is False and alone["failed"] == 1
