"""Span trees: nesting, thread safety, the disabled fast path."""

from __future__ import annotations

import threading

from repro import obs
from repro.obs.tracing import _NOOP_SPAN, span


class TestNesting:
    def test_child_attaches_to_parent(self):
        obs.enable()
        with span("outer"):
            with span("inner"):
                pass
        roots = obs.get_collector().drain()
        assert [r.name for r in roots] == ["outer"]
        assert [c.name for c in roots[0].children] == ["inner"]
        assert roots[0].children[0].children == []

    def test_siblings_stay_ordered(self):
        obs.enable()
        with span("parent"):
            with span("a"):
                pass
            with span("b"):
                pass
        (root,) = obs.get_collector().drain()
        assert [c.name for c in root.children] == ["a", "b"]

    def test_durations_nest_sanely(self):
        obs.enable()
        with span("outer"):
            with span("inner"):
                sum(range(1000))
        (root,) = obs.get_collector().drain()
        assert root.wall_ms >= root.children[0].wall_ms >= 0.0
        assert root.cpu_ms >= 0.0

    def test_attrs_and_set(self):
        obs.enable()
        with span("stage", reads=7) as s:
            s.set(frames=3)
        (root,) = obs.get_collector().drain()
        assert root.attrs == {"reads": 7, "frames": 3}

    def test_exception_still_closes_span(self):
        obs.enable()
        try:
            with span("outer"):
                with span("inner"):
                    raise RuntimeError("boom")
        except RuntimeError:
            pass
        (root,) = obs.get_collector().drain()
        assert root.name == "outer"
        assert [c.name for c in root.children] == ["inner"]

    def test_walk_is_depth_first(self):
        obs.enable()
        with span("r"):
            with span("a"):
                with span("a1"):
                    pass
            with span("b"):
                pass
        roots = obs.get_collector().drain()
        assert [s.name for s in obs.walk_spans(roots)] == ["r", "a", "a1", "b"]

    def test_as_dict_roundtrips_tree(self):
        obs.enable()
        with span("root", k="v"):
            with span("leaf"):
                pass
        (root,) = obs.get_collector().drain()
        d = root.as_dict()
        assert d["name"] == "root"
        assert d["attrs"] == {"k": "v"}
        assert d["children"][0]["name"] == "leaf"

    def test_render_span_tree_mentions_every_span(self):
        obs.enable()
        with span("top"):
            with span("mid"):
                pass
        text = obs.render_span_tree(obs.get_collector().drain())
        assert "top" in text and "mid" in text
        assert "wall=" in text and "cpu=" in text


class TestThreadSafety:
    def test_concurrent_roots_all_collected(self):
        obs.enable()
        n_threads, per_thread = 8, 50

        def work():
            for _ in range(per_thread):
                with span("worker"):
                    with span("step"):
                        pass

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        roots = obs.get_collector().drain()
        assert len(roots) == n_threads * per_thread
        assert all(len(r.children) == 1 for r in roots)

    def test_stacks_are_per_thread(self):
        obs.enable()
        seen = {}

        def work(tag):
            with span(f"root.{tag}"):
                with span(f"leaf.{tag}"):
                    pass

        threads = [
            threading.Thread(target=work, args=(i,), name=f"w{i}") for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for root in obs.get_collector().drain():
            tag = root.name.split(".")[1]
            seen[tag] = [c.name for c in root.children]
        assert seen == {str(i): [f"leaf.{i}"] for i in range(4)}


class TestCollector:
    def test_capacity_counts_drops(self):
        from repro.obs.tracing import SpanCollector, Span

        c = SpanCollector(max_roots=2)
        for i in range(5):
            c.add_root(Span(name=f"s{i}"))
        assert len(c.snapshot()) == 2
        assert c.dropped == 3
        c.drain()
        assert c.dropped == 0

    def test_durations_by_name_covers_children(self):
        obs.enable()
        with span("parent"):
            with span("child"):
                pass
            with span("child"):
                pass
        by_name = obs.get_collector().durations_by_name()
        assert len(by_name["parent"]) == 1
        assert len(by_name["child"]) == 2


class TestDisabledPath:
    def test_disabled_span_is_shared_noop(self):
        assert not obs.is_enabled()
        s = span("anything", attr=1)
        assert s is _NOOP_SPAN
        with s as handle:
            handle.set(ignored=True)
        assert obs.get_collector().snapshot() == []

    def test_disabled_records_no_metrics(self):
        with span("stage.x"):
            pass
        assert obs.get_registry().collect() == []

    def test_enable_disable_roundtrip(self):
        obs.enable()
        assert obs.is_enabled()
        with span("live"):
            pass
        obs.disable()
        with span("dead"):
            pass
        names = [r.name for r in obs.get_collector().drain()]
        assert names == ["live"]

    def test_env_var_enables(self):
        import pathlib
        import subprocess
        import sys

        repo = pathlib.Path(__file__).resolve().parents[2]
        code = (
            "from repro.obs import tracing; "
            "import sys; sys.exit(0 if tracing.is_enabled() else 1)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={
                "REPRO_OBS": "1",
                "PYTHONPATH": str(repo / "src"),
                "PATH": "/usr/bin:/bin",
            },
            cwd=str(repo),
        )
        assert proc.returncode == 0


class TestAutoHistogram:
    def test_live_span_observes_latency_histogram(self):
        obs.enable()
        with span("dsp.music"):
            pass
        metrics = {m.name: m for m in obs.get_registry().collect()}
        hist = metrics["dsp.music.latency_ms"]
        assert hist.kind == "histogram"
        assert hist.count == 1


class TestSpanExitGuard:
    def test_metric_clash_does_not_crash_instrumented_code(self):
        # A counter squatting on the span's auto-histogram name makes
        # the registry raise a kind clash; the span must swallow it
        # and count a dropped observation instead.
        obs.enable()
        obs.get_registry().counter("clashing.stage.latency_ms").inc()
        with span("clashing.stage"):
            pass
        metrics = {m.name: m for m in obs.get_registry().collect()}
        assert metrics["obs.dropped_observations_total"].value == 1.0

    def test_invalid_span_name_does_not_crash(self):
        obs.enable()
        with span("Not A Valid Metric Name"):
            pass
        metrics = {m.name: m for m in obs.get_registry().collect()}
        assert metrics["obs.dropped_observations_total"].value == 1.0
