"""Self time of nested spans: a span's duration minus what its children
cover."""

import json

import pytest

from perfbench.spans import Tracer, layer_self_time, self_times


def build(spans):
    tracer = Tracer()
    ids = {}
    for name, start, end, parent in spans:
        ids[name] = tracer.add(name, start, end, "r1", parent=ids.get(parent)).id
    return tracer, ids


def test_self_time_subtracts_children():
    tracer, ids = build(
        [
            ("root", 0.0, 10.0, None),
            ("a", 1.0, 4.0, "root"),
            ("b", 5.0, 9.0, "root"),
            ("b.inner", 6.0, 7.0, "b"),
        ]
    )
    own = self_times(tracer.spans)
    assert own[ids["root"]] == pytest.approx(10.0 - 3.0 - 4.0)
    assert own[ids["a"]] == pytest.approx(3.0)
    assert own[ids["b"]] == pytest.approx(3.0)
    assert own[ids["b.inner"]] == pytest.approx(1.0)
    # self times of a tree add up to the root's duration
    assert sum(own.values()) == pytest.approx(10.0)


def test_overlapping_children_are_counted_once_and_clipped():
    tracer, ids = build(
        [
            ("root", 0.0, 10.0, None),
            ("x", 2.0, 6.0, "root"),
            ("y", 4.0, 8.0, "root"),  # overlaps x (threads)
            ("z", 9.0, 12.0, "root"),  # runs past its parent
        ]
    )
    own = self_times(tracer.spans)
    assert own[ids["root"]] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_self_time_sums_spans_of_a_name():
    tracer = Tracer()
    for request in ("r1", "r2"):
        root = tracer.add("replay", 0.0, 5.0, request)
        tracer.add("core.hb", 1.0, 3.0, request, parent=root.id)
    totals = layer_self_time(tracer.spans)
    assert totals["core.hb"] == pytest.approx(4.0)
    assert totals["replay"] == pytest.approx(6.0)


def test_context_manager_nests_and_disabled_tracer_records_nothing(tmp_path):
    tracer = Tracer()
    with tracer.span("outer", "req"):
        with tracer.span("inner", "req"):
            pass
    outer, inner = tracer.spans
    assert inner.parent == outer.id and outer.parent is None
    assert outer.start <= inner.start <= inner.end <= outer.end
    off = Tracer(enabled=False)
    with off.span("outer", "req"):
        pass
    assert off.spans == []
    path = tmp_path / "spans.json"
    tracer.write(str(path))
    written = json.loads(path.read_text())
    assert [s["name"] for s in written] == ["outer", "inner"]
    assert set(written[0]) == {"id", "name", "start", "end", "parent", "request"}
