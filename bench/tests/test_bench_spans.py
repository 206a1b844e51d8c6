"""Span recording and self time, including spans from pool threads."""

import sys
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

from cgabench.spans import Tracer, self_times, summarize, union_length


def test_union_counts_overlap_once():
    assert union_length([]) == 0
    assert union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == pytest.approx(4)
    assert union_length([(4, 4), (3, 2)]) == 0


def test_self_time_of_nested_spans():
    spans = [
        ["main", 0.0, 10.0, -1],
        ["child", 2.0, 5.0, 0],
        ["grandchild", 3.0, 4.0, 1],
        ["child", 6.0, 7.0, 0],
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])
    s = summarize(spans)
    assert s["child"] == {"calls": 2, "total_s": pytest.approx(4.0), "self_s": pytest.approx(3.0)}


def test_self_time_with_children_overlapping_across_threads():
    # two workers run children at once; the parent is busy only where
    # neither covers it, and a child is clipped to the parent's interval
    spans = [
        ["pool", 0.0, 10.0, -1],
        ["task", 1.0, 6.0, 0],
        ["task", 4.0, 8.0, 0],
        ["task", 9.5, 11.0, 0],
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 0.5)


@pytest.fixture
def fake_package():
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.work")

    def leaf(x):
        time.sleep(0.01)
        return x * 2

    def fan_out(xs):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(mod.leaf, xs))

    class Box:
        @classmethod
        def make(cls, x):
            return cls, x

    mod.leaf, mod.fan_out, mod.Box = leaf, fan_out, Box
    pkg.leaf = leaf  # a re-export, as cga/__init__.py does
    sys.modules["fakepkg"], sys.modules["fakepkg.work"] = pkg, mod
    yield pkg, mod
    del sys.modules["fakepkg"], sys.modules["fakepkg.work"]


def test_tracer_links_pool_threads_and_restores(fake_package):
    pkg, mod = fake_package
    leaf, make = mod.leaf, mod.Box.__dict__["make"]
    seen = []
    with Tracer() as tracer:
        tracer.patch("fakepkg.work", "leaf", "leaf", seen.append)
        tracer.patch("fakepkg.work", "fan_out", "fan_out")
        tracer.patch("fakepkg.work", "Box.make", "make")
        assert pkg.leaf is mod.leaf is not leaf
        assert mod.fan_out([1, 2, 3, 4]) == [2, 4, 6, 8]
        assert mod.Box.make(5) == (mod.Box, 5)
    assert mod.leaf is leaf and pkg.leaf is leaf
    assert mod.Box.__dict__["make"] is make
    assert sorted(seen) == [2, 4, 6, 8]

    spans = tracer.spans
    names = [s[0] for s in spans]
    assert names.count("leaf") == 4 and names.count("make") == 1
    root = names.index("fan_out")
    assert all(s[3] == root for s in spans if s[0] == "leaf")
    s = summarize(spans)
    # four 10 ms leaves on two threads: about 20 ms of the pool is covered
    assert s["leaf"]["total_s"] >= 0.04
    assert s["fan_out"]["self_s"] < s["fan_out"]["total_s"] - 0.015


def test_tracer_closes_spans_on_exceptions(fake_package):
    _, mod = fake_package

    def boom():
        raise ValueError("boom")

    mod.boom = boom
    with Tracer() as tracer:
        tracer.patch("fakepkg.work", "boom", "boom")
        with pytest.raises(ValueError):
            mod.boom()
        tracer.patch("fakepkg.work", "leaf", "leaf")
        mod.leaf(1)
    failed, after = tracer.spans
    # the failed span was closed, so the next call is not its child
    assert failed[2] >= failed[1] and after[3] == -1


def test_spans_from_many_threads_are_all_kept(fake_package):
    _, mod = fake_package
    mod.leaf = lambda x: x
    with Tracer() as tracer:
        tracer.patch("fakepkg.work", "leaf", "leaf")
        threads = [threading.Thread(target=lambda: [mod.leaf(i) for i in range(500)])
                   for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert len(tracer.spans) == 2000
    assert all(s[2] >= s[1] for s in tracer.spans)


def test_probe_skips_boundaries_the_program_lacks(monkeypatch):
    import cga.cli  # noqa: F401  (loads every layer)
    import cga.generator
    from cgabench.metrics import LayerProbe

    monkeypatch.delattr(cga.generator, "edge_list_text")
    with LayerProbe() as probe:
        pass
    assert probe.missing == ["cga.generator.edge_list_text"]
    assert probe.metrics()["generator.edge_list_text_s"] == 0.0
