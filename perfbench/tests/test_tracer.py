"""Span arithmetic and patch/restore behaviour of the benchmark's tracer."""

import math
import threading
import types

import pytest

from gbbench.tracer import Span, Tracer, aggregate, covered_length, self_times


def span(span_id, start, end, parent=None, name="x"):
    return Span(span_id=span_id, name=name, start=start, end=end, parent=parent)


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([], 0.0, 10.0) == 0.0
    assert covered_length([(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)], 0.0, 10.0) == 5.0
    # Intervals hanging over the window are clipped to it.
    assert covered_length([(-5.0, 2.0), (9.0, 20.0)], 0.0, 10.0) == 3.0
    assert covered_length([(20.0, 30.0)], 0.0, 10.0) == 0.0


def test_self_time_of_nested_spans():
    spans = [
        span(0, 0.0, 10.0),
        span(1, 1.0, 4.0, parent=0),
        span(2, 2.0, 3.0, parent=1),
        span(3, 6.0, 7.0, parent=0),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(1.0)


def test_self_time_of_overlapping_children_counts_their_union_once():
    # Two worker-thread children of one fan-out span overlap in time.
    spans = [span(0, 0.0, 10.0), span(1, 1.0, 6.0, parent=0), span(2, 4.0, 9.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 8.0)


def test_aggregate_sums_self_time_calls_and_counts_per_name():
    spans = [
        span(0, 0.0, 4.0, name="outer"),
        span(1, 1.0, 2.0, parent=0, name="inner"),
        span(2, 2.5, 3.0, parent=0, name="inner"),
    ]
    spans[1].counts["rows"] = 3
    spans[2].counts["rows"] = 4
    table = aggregate(spans)
    assert table["outer"]["s"] == pytest.approx(2.5)
    assert table["outer"]["total_s"] == pytest.approx(4.0)
    assert table["inner"]["calls"] == 2
    assert table["inner"]["rows"] == 7
    assert table["inner"]["s"] == pytest.approx(1.5)


class Thing:
    def __init__(self):
        self.value = 2

    def method(self, x):
        return x * self.value

    @staticmethod
    def static(x):
        return x + 1

    @classmethod
    def klass(cls, x):
        return (cls.__name__, x)

    @property
    def prop(self):
        return self.value


class SubThing(Thing):
    pass


def test_tracer_restores_every_patched_attribute():
    module = types.ModuleType("fake")
    module.function = lambda x: x - 1
    originals = {
        "function": module.function,
        "method": Thing.__dict__["method"],
        "static": Thing.__dict__["static"],
        "klass": Thing.__dict__["klass"],
        "prop": Thing.__dict__["prop"],
    }
    instance = Thing()
    tracer = Tracer()
    tracer.patch(module, "function", "m.function")
    tracer.patch(Thing, "method", "t.method")
    tracer.patch(Thing, "static", "t.static")
    tracer.patch(Thing, "klass", "t.klass")
    tracer.patch_property(Thing, "prop", "t.prop")
    tracer.patch(instance, "method", "t.instance")
    tracer.patch(SubThing, "method", "t.sub")  # inherited, not SubThing's own

    assert module.function(3) == 2
    assert instance.method(3) == 6
    assert Thing.static(1) == 2 and instance.static(1) == 2
    assert SubThing.klass(5) == ("SubThing", 5)
    assert instance.prop == 2
    assert SubThing().method(1) == 2
    names = [s.name for s in tracer.spans]
    for name in ("m.function", "t.method", "t.instance", "t.static", "t.klass", "t.prop", "t.sub"):
        assert name in names

    tracer.restore()
    assert module.function is originals["function"]
    for attribute in ("method", "static", "klass", "prop"):
        assert Thing.__dict__[attribute] is originals[attribute]
    assert "method" not in vars(instance)
    assert "method" not in vars(SubThing)
    recorded = len(tracer.spans)
    instance.method(1), instance.prop, module.function(1)
    assert len(tracer.spans) == recorded


def test_restore_runs_even_when_the_traced_call_raises():
    module = types.ModuleType("fake")

    def boom():
        raise ValueError("no")

    module.boom = boom
    with Tracer() as tracer:
        tracer.patch(module, "boom", "m.boom")
        with pytest.raises(ValueError):
            module.boom()
        assert math.isfinite(tracer.spans[0].end)
    assert module.boom is boom


def test_adopted_callables_parent_to_the_fan_out_span_across_threads():
    module = types.ModuleType("fake")

    def work(x):
        return x

    def fan_out(fn, items):
        results = [None] * len(items)

        def run(position):
            results[position] = fn(items[position])

        threads = [threading.Thread(target=run, args=(p,)) for p in range(len(items))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        return results

    module.work, module.fan_out = work, fan_out
    with Tracer() as tracer:
        tracer.patch(module, "work", "m.work")
        tracer.patch(module, "fan_out", "m.fan_out", adopt=True)
        assert module.fan_out(module.work, [1, 2, 3]) == [1, 2, 3]
    parent = next(s for s in tracer.spans if s.name == "m.fan_out")
    children = [s for s in tracer.spans if s.name == "m.work"]
    assert len(children) == 3
    assert all(child.parent == parent.span_id for child in children)


def test_library_tracing_restores_the_library():
    import repro.core.bulk as bulk
    import repro.core.index as index_module
    import repro.sharding.backend as backend
    import repro.sharding.planner as planner
    from repro.core.index import GBKMVIndex
    from repro.core.store import ColumnarSketchStore
    from repro.hashing import UnitHash
    from repro.serving.write_buffer import WriteCoalescer
    from repro.sharding.executor import ShardExecutor

    from gbbench.layers import install_library_tracing

    watched = [
        (index_module, "flatten_records"),
        (planner, "flatten_records"),
        (bulk, "fingerprint_many"),
        (index_module, "residual_intersection_estimates"),
        (index_module, "bulk_sketch"),
        (UnitHash, "hash_many"),
        (ColumnarSketchStore, "row_sizes"),
        (ColumnarSketchStore, "append_bulk"),
        (GBKMVIndex, "search_many"),
        (ShardExecutor, "map"),
        (backend, "merge_workload_hits"),
        (WriteCoalescer, "flush"),
    ]
    before = [vars(owner)[name] for owner, name in watched]
    tracer = Tracer()
    install_library_tracing(tracer)
    assert all(vars(owner)[name] is not orig for (owner, name), orig in zip(watched, before))
    tracer.restore()
    assert all(vars(owner)[name] is orig for (owner, name), orig in zip(watched, before))
