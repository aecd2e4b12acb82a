"""The telemetry registry: primitives, exporters, determinism."""

import json
import math

import pytest

from repro.metrics.registry import (CYCLE_BUCKETS, Counter, Gauge, Histogram,
                                    MetricsRegistry, escape_label_value,
                                    format_value, snapshot_delta)


class TestPrimitives:
    def test_counter_counts_per_label_set(self):
        counter = Counter("t_total", "help", ("config", "reason"))
        counter.labels("a", "hvc").inc()
        counter.labels("a", "hvc").inc(2)
        counter.labels("b", "eret").inc()
        assert counter.labels("a", "hvc").value == 3
        assert counter.labels("b", "eret").value == 1
        assert counter.total() == 4

    def test_counter_rejects_negative(self):
        counter = Counter("t_total")
        with pytest.raises(ValueError):
            counter.labels().inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge("depth", "", ("cpu",))
        child = gauge.labels("0")
        child.set(2)
        child.dec()
        child.inc(3)
        assert child.value == 4

    def test_histogram_buckets_are_cumulative(self):
        histogram = Histogram("lat", "", buckets=(10, 100, 1000))
        child = histogram.labels()
        for value in (5, 50, 500, 5000):
            child.observe(value)
        # +Inf appended automatically; each observation lands in every
        # bucket whose bound it does not exceed.
        assert histogram.buckets == (10, 100, 1000, math.inf)
        assert child.counts == [1, 2, 3, 4]
        assert child.sum == 5555
        assert child.count == 4

    def test_labels_by_keyword(self):
        counter = Counter("t_total", "", ("config", "reason"))
        assert (counter.labels(reason="hvc", config="a")
                is counter.labels("a", "hvc"))

    def test_label_arity_enforced(self):
        counter = Counter("t_total", "", ("config",))
        with pytest.raises(ValueError):
            counter.labels("a", "b")
        with pytest.raises(ValueError):
            counter.labels(nope="a")

    def test_enum_and_bool_labels_canonicalized(self):
        from repro.metrics.counters import ExitReason
        counter = Counter("t_total", "", ("reason", "flag"))
        counter.labels(ExitReason.HVC, True).inc()
        assert counter.labels("hvc", "true").value == 1

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError):
            Counter("bad-name")
        with pytest.raises(ValueError):
            Counter("1starts_with_digit")
        with pytest.raises(ValueError):
            Counter("ok", "", ("bad label",))


class TestRegistry:
    def test_reregistration_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "h", ("a",))
        again = registry.counter("x_total", "h", ("a",))
        assert first is again

    def test_reregistration_schema_conflict(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "h", ("a",))
        with pytest.raises(ValueError):
            registry.gauge("x_total", "h", ("a",))
        with pytest.raises(ValueError):
            registry.counter("x_total", "h", ("a", "b"))

    def test_collect_is_registration_ordered(self):
        registry = MetricsRegistry()
        registry.counter("z_total")
        registry.gauge("a_gauge")
        assert [f.name for f in registry.collect()] == ["z_total", "a_gauge"]

    def test_virtual_clock(self):
        ticks = [12345]
        registry = MetricsRegistry(clock=lambda: ticks[0])
        assert registry.now() == 12345
        assert "# Virtual-cycle timestamp: 12345" in \
            registry.prometheus_text()
        assert json.loads(registry.json_snapshot())["virtual_cycles"] \
            == 12345

    def test_reset_keeps_schema(self):
        registry = MetricsRegistry()
        counter = registry.counter("x_total", "", ("a",))
        counter.labels("1").inc()
        registry.reset()
        assert counter.total() == 0
        assert registry.get("x_total") is counter


class TestExporters:
    def _populated(self):
        registry = MetricsRegistry(clock=lambda: 777)
        counter = registry.counter("traps_total", "traps", ("config",))
        counter.labels("neve").inc(16)
        counter.labels("arm").inc(126)
        histogram = registry.histogram("lat", "latency", ("config",),
                                       buckets=(100, 1000))
        histogram.labels("neve").observe(70)
        histogram.labels("neve").observe(700)
        registry.gauge("depth", "", ("cpu",)).labels("0").set(2)
        return registry

    def test_prometheus_text_shape(self):
        text = self._populated().prometheus_text()
        assert '# TYPE traps_total counter' in text
        assert 'traps_total{config="arm"} 126' in text
        assert 'traps_total{config="neve"} 16' in text
        assert 'lat_bucket{config="neve",le="100"} 1' in text
        assert 'lat_bucket{config="neve",le="1000"} 2' in text
        assert 'lat_bucket{config="neve",le="+Inf"} 2' in text
        assert 'lat_sum{config="neve"} 770' in text
        assert 'lat_count{config="neve"} 2' in text
        assert 'depth{cpu="0"} 2' in text

    def test_children_sorted_by_label_values(self):
        text = self._populated().prometheus_text()
        assert text.index('config="arm"') < text.index('config="neve"')

    def test_json_snapshot_roundtrips(self):
        document = json.loads(self._populated().json_snapshot())
        assert document["schema"] == "repro-metrics/1"
        traps = document["metrics"]["traps_total"]
        assert traps["kind"] == "counter"
        assert traps["series"][0] == {"labels": {"config": "arm"},
                                      "value": 126}
        lat = document["metrics"]["lat"]["series"][0]
        assert lat["buckets"] == [1, 2, 2]
        assert lat["le"] == ["100", "1000", "+Inf"]

    def test_format_value(self):
        assert format_value(math.inf) == "+Inf"
        assert format_value(16) == "16"
        assert format_value(16.0) == "16"
        assert format_value(2.5) == "2.5"

    def test_escape_label_value(self):
        assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'

    def test_default_cycle_buckets_end_with_inf(self):
        assert CYCLE_BUCKETS[-1] == math.inf
        assert list(CYCLE_BUCKETS) == sorted(CYCLE_BUCKETS)


class TestSnapshotDelta:
    """snapshot_delta / DeltaCursor: the streaming-export diff."""

    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("t_total", "h", ("k",))
        registry.gauge("depth", "h")
        registry.histogram("lat", "h", buckets=(10, 100))
        return registry

    def test_quiet_interval_deltas_to_empty(self):
        registry = self._registry()
        registry.get("t_total").labels("x").inc(3)
        base = registry.snapshot()
        assert snapshot_delta(base, registry.snapshot()) == {}

    def test_counter_delta_is_the_movement_not_the_total(self):
        registry = self._registry()
        counter = registry.get("t_total")
        counter.labels("x").inc(3)
        base = registry.snapshot()
        counter.labels("x").inc(2)
        counter.labels("y").inc(1)
        delta = snapshot_delta(base, registry.snapshot())
        series = {tuple(s["labels"].items()): s["value"]
                  for s in delta["t_total"]["series"]}
        assert series[(("k", "x"),)] == 2
        assert series[(("k", "y"),)] == 1

    def test_gauge_delta_carries_the_current_value(self):
        registry = self._registry()
        registry.get("depth").labels().set(5)
        base = registry.snapshot()
        registry.get("depth").labels().set(2)
        delta = snapshot_delta(base, registry.snapshot())
        assert delta["depth"]["series"][0]["value"] == 2

    def test_histogram_delta_subtracts_sum_count_and_buckets(self):
        registry = self._registry()
        hist = registry.get("lat")
        hist.labels().observe(5)
        base = registry.snapshot()
        hist.labels().observe(50)
        delta = snapshot_delta(base, registry.snapshot())
        series = delta["lat"]["series"][0]
        assert series["count"] == 1
        assert series["sum"] == 50
        assert series["buckets"] == [0, 1, 1]

    def test_delta_does_not_alias_the_live_snapshot(self):
        registry = self._registry()
        hist = registry.get("lat")
        base = registry.snapshot()
        hist.labels().observe(5)
        delta = snapshot_delta(base, registry.snapshot())
        series = delta["lat"]["series"][0]
        hist.labels().observe(7)
        assert series["count"] == 1  # frozen, not a view

    def test_schema_change_refuses_to_diff(self):
        before = self._registry()
        before.get("t_total").labels("x").inc()
        base = before.snapshot()
        after = MetricsRegistry()
        after.gauge("t_total", "h", ("k",))
        after.get("t_total").labels("x").set(1)
        with pytest.raises(ValueError, match="schema"):
            snapshot_delta(base, after.snapshot())

    def test_folding_every_delta_reproduces_the_final_counters(self):
        registry = self._registry()
        cursor = registry.delta_cursor()
        folded = MetricsRegistry()
        for step in range(4):
            registry.get("t_total").labels("x").inc(step + 1)
            registry.get("lat").labels().observe(10 * step + 1)
            document = cursor.advance(virtual_cycles=step)
            assert document["schema"] == "repro-metrics/1"
            assert document["delta"] is True
            assert document["virtual_cycles"] == step
            folded.merge_snapshot(document)
        assert folded.get("t_total").labels("x").value \
            == registry.get("t_total").labels("x").value == 10
        want = registry.get("lat").labels()
        got = folded.get("lat").labels()
        assert (got.count, got.sum, got.counts) \
            == (want.count, want.sum, want.counts)

    def test_cursor_rebaselines_so_advances_do_not_overlap(self):
        registry = self._registry()
        cursor = registry.delta_cursor()
        registry.get("t_total").labels("x").inc(3)
        first = cursor.advance()
        second = cursor.advance()
        assert first["metrics"]["t_total"]["series"][0]["value"] == 3
        assert second["metrics"] == {}

    def test_back_to_back_cursors_both_delta_to_empty(self):
        # Two cursors opened with no movement between them agree the
        # interval was quiet — and stay independent afterwards.
        registry = self._registry()
        first = registry.delta_cursor()
        second = registry.delta_cursor()
        assert first.advance()["metrics"] == {}
        assert second.advance()["metrics"] == {}
        registry.get("t_total").labels("x").inc(4)
        assert first.advance()["metrics"]["t_total"]["series"][0]["value"] \
            == 4
        assert second.advance()["metrics"]["t_total"]["series"][0]["value"] \
            == 4

    def test_fresh_cursor_on_a_moved_registry_starts_empty(self):
        registry = self._registry()
        registry.get("t_total").labels("x").inc(9)
        cursor = registry.delta_cursor()
        # History before the cursor is baseline, not movement.
        assert cursor.advance()["metrics"] == {}

    def test_cursor_sees_merge_snapshot_as_movement(self):
        registry = self._registry()
        registry.get("t_total").labels("x").inc(1)
        cursor = registry.delta_cursor()
        other = self._registry()
        other.get("t_total").labels("x").inc(5)
        other.get("lat").labels().observe(50)
        registry.merge_snapshot({"metrics": other.snapshot()})
        delta = cursor.advance()["metrics"]
        assert delta["t_total"]["series"][0]["value"] == 5
        lat = delta["lat"]["series"][0]
        assert (lat["count"], lat["sum"]) == (1, 50)
        # And the cursor rebaselines past the merge like any movement.
        assert cursor.advance()["metrics"] == {}


class TestCollectors:
    """Pulled series: collectors are folded in by every read path."""

    def _pulled(self):
        registry = MetricsRegistry()
        family = registry.counter("pulled_total", "", ("key",))
        source = {}
        registry.register_collector(
            lambda: ((family, (key,), value)
                     for key, value in source.items()))
        return registry, family, source

    def test_every_read_path_sees_the_live_source(self):
        registry, family, source = self._pulled()
        source["a"] = 3
        assert family.total() == 3
        source["a"] = 5
        assert registry.get("pulled_total").labels("a").value == 5
        source["b"] = 1
        assert 'pulled_total{key="b"} 1' in registry.prometheus_text()
        source["b"] = 2
        assert registry.snapshot()["pulled_total"]["series"][1]["value"] \
            == 2

    def test_zero_sample_creates_its_child(self):
        registry, family, source = self._pulled()
        source["idle"] = 0
        assert [child.label_values for child in
                registry.get("pulled_total").children()] == [("idle",)]

    def test_collectors_feeding_one_child_add_up(self):
        registry, family, source = self._pulled()
        registry.register_collector(lambda: [(family, ("a",), 10)])
        source["a"] = 1
        assert family.total() == 11

    def test_unregister_freezes_the_contribution(self):
        registry = MetricsRegistry()
        family = registry.counter("pulled_total", "", ("key",))
        value = [4]

        def collector():
            yield family, ("a",), value[0]
        registry.register_collector(collector)
        value[0] = 6
        registry.unregister_collector(collector)
        value[0] = 100
        assert family.total() == 6

    def test_reset_drops_what_was_counted_so_far(self):
        registry, family, source = self._pulled()
        source["a"] = 7
        registry.reset()
        assert family.total() == 0
        source["a"] = 9
        assert family.total() == 2

    def test_cursor_deltas_fold_back_to_the_pulled_totals(self):
        registry, family, source = self._pulled()
        cursor = registry.delta_cursor()
        folded = MetricsRegistry()
        for value in (2, 2, 5):
            source["a"] = value
            folded.merge_snapshot(cursor.advance())
        assert folded.get("pulled_total").total() == 5

    def test_a_source_going_backwards_is_refused(self):
        registry, family, source = self._pulled()
        source["a"] = 3
        family.total()
        source["a"] = 1
        with pytest.raises(ValueError):
            family.total()
