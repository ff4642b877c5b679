"""Self-tests of the paper-scenario benchmark.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

The last two tests start real scenario runs (about 15 s in all).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import catalog  # noqa: E402
import fingerprint  # noqa: E402
import run  # noqa: E402
from layers import LayerMap  # noqa: E402


def _stored():
    with open(run.REFERENCES) as handle:
        return json.load(handle)


def _fake_run(seed, fp="f" * 64, delivered=100, **counters):
    base = {"pkts.delivered": delivered, "kernel.events": 1000}
    base.update(counters)
    return {
        "seed": seed,
        "fingerprint": fp,
        "counters": base,
        "cache_counters": {},
        "run_cpu_s": 1.0,
        "run_wall_s": 1.0,
        "setup_s": 0.5,
        "import_s": 0.4,
        "build_s": 0.01,
        "peak_rss_mb": 40.0,
    }


def _measure_with(monkeypatch, runs_by_seed, trace=False):
    """run.measure over canned child records instead of real processes."""

    def fake_child(workload, seed, mode, reference, deadline):
        if mode == "setup":
            return {"setup_s": 0.5, "import_s": 0.4, "build_s": 0.01}
        return dict(runs_by_seed[seed])

    monkeypatch.setattr(run, "run_child", fake_child)
    return run.measure("fred-overload", 17, 0, trace, lambda message: None)


def test_matching_runs_are_correct(monkeypatch):
    reference = _stored()["fred-overload"]["17"]
    good = _fake_run(17, reference["fingerprint"], reference["delivered"])
    result = _measure_with(monkeypatch, {17: good})
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["ok_rate"]["value"] == 1.0


def test_perturbed_fingerprint_counts_as_error(monkeypatch):
    reference = _stored()["fred-overload"]["17"]
    perturbed = "0" + reference["fingerprint"][1:]
    assert perturbed != reference["fingerprint"]
    bad = _fake_run(17, perturbed, reference["delivered"])
    result = _measure_with(monkeypatch, {17: bad})
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1
    assert result["metrics"]["ok_rate"]["value"] == 0.0


def test_delivered_count_mismatch_counts_as_error(monkeypatch):
    reference = _stored()["fred-overload"]["17"]
    bad = _fake_run(17, reference["fingerprint"], reference["delivered"] + 1)
    assert _measure_with(monkeypatch, {17: bad})["failed"] == 1


def test_fingerprint_covers_every_behaviour_field():
    record = {
        "result": {"drops": 3},
        "hosts": {"h0": [1, 2, 3, 4]},
        "switches": {"s0": {"tm": [5, 5, 0], "bus": {"ENQUEUE": [5, 5, 0]}}},
    }
    base = fingerprint.fingerprint(record)
    for path in (("result", "drops"), ("hosts", "h0"), ("switches", "s0", "tm")):
        changed = json.loads(json.dumps(record))
        target = changed
        for key in path[:-1]:
            target = target[key]
        value = target[path[-1]]
        target[path[-1]] = value + 1 if isinstance(value, int) else value[:-1] + [99]
        assert fingerprint.fingerprint(changed) != base


def test_ratio_metrics_carry_their_bases():
    names = {name for name, _ in catalog.PER_LAYER}
    for ratio_name, (numerator, denominator) in catalog.RATIO_BASES.items():
        assert {ratio_name, numerator, denominator} <= names
    traced = _fake_run(17)
    traced["counters"] = {name: 0 for name, _ in catalog.PER_LAYER}
    traced["counters"].update(
        {"pkts.delivered": 100, "bus.fired": 8, "bus.handled": 2, "pisa.walks": 50}
    )
    traced["layers"] = {f"{layer}.{f}": 1 for layer in catalog.LAYERS
                        for f in ("self_s", "calls", "entries")}
    traced["layers"].update({"py.self_s": 12.0, "py.calls": 12})
    traced["owned_events"] = {layer: 0 for layer in catalog.LAYERS}
    metrics = run.per_layer(traced, [_fake_run(17)], [_fake_run(17)])
    assert set(metrics) == names
    for ratio_name, (numerator, denominator) in catalog.RATIO_BASES.items():
        den = metrics[denominator]["value"]
        expected = metrics[numerator]["value"] / den if den else 0.0
        assert metrics[ratio_name]["value"] == expected
    assert metrics["bus.handled_ratio"]["value"] == 0.25
    assert metrics["pisa.walks_per_pkt"]["value"] == 0.5


def test_counters_test_cache_presence_not_truthiness():
    class Empty:
        def __len__(self):
            return 0

    class Cache(Empty):
        class stats:
            hits, misses, uncacheable = 5, 1, 2

    class Fastpath(Empty):
        class stats:
            fused, fallbacks_total = 3, 4

    class Bus:
        fired = handled = suppressed = {}

    class TM:
        total_enqueued, drops_overflow = 10, 1

        class buffer:
            max_occupancy_bytes = 1500

    class Switch:
        name = "s0"
        bus, tm, flow_cache, flow_fastpath = Bus(), TM(), Cache(), Fastpath()

    class Network:
        switches, hosts, links = {"s0": Switch()}, {}, []

        class sim:
            events_executed = 7

    assert not Switch.flow_cache and not Switch.flow_fastpath
    out = fingerprint.counters([Network()])
    assert out["pisa.flowcache.hits"] == 5
    assert out["pisa.flowcache.lookups"] == 8
    assert out["pisa.fastpath.attempts"] == 7
    assert out["tm.offered"] == 11


def test_run_seeds_are_a_function_of_the_seed():
    for workload in catalog.WORKLOADS.values():
        seeds = catalog.run_seeds(workload, 123)
        assert seeds == catalog.run_seeds(workload, 123)
        assert seeds[0] == 123 and len(set(seeds)) == workload.seeds_per_run
    stored = _stored()
    for name, workload in catalog.WORKLOADS.items():
        seeds = [workload.default_seed, catalog.HELD_OUT_SEED]
        if workload.seeds_per_run > 1:
            seeds += list(catalog.COMPANION_SEEDS)
        assert {str(seed) for seed in seeds} <= set(stored[name])


def test_benchmark_json_matches_catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        doc = json.load(handle)
    assert [w["name"] for w in doc["workloads"]] == list(catalog.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == [
        tuple(metric) for metric in catalog.END_TO_END
    ]
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == catalog.PER_LAYER
    for metric in doc["per_layer"]:
        higher = metric["name"] in catalog.HIGHER_IS_BETTER
        assert metric["better"] == ("higher" if higher else "lower")
    setup_bound = dict((m["name"], m["bound"]) for m in doc["end_to_end"])["setup_s"]
    assert setup_bound == max(m["bound"] for m in doc["end_to_end"])


def test_layer_map():
    import repro

    layers = LayerMap(os.path.dirname(repro.__file__))
    tm_file = os.path.join(os.path.dirname(repro.__file__), "tm", "queues.py")
    assert layers.of_file(tm_file) == "tm"
    assert layers.of_file(os.path.join(os.path.dirname(repro.__file__), "cli.py")) == "other"
    assert layers.of_file("~") == "stdlib"
    assert layers.of_file(json.__file__) == "stdlib"
    assert layers.of_file(os.path.join(BENCH_DIR, "child.py")) is None
    from repro.net.host import Host

    assert layers.of_callback(Host.receive) == "net"


def test_callback_field_matches_kernel_layout():
    import child
    from repro.sim.kernel import Simulator

    sim = Simulator()
    marker = []
    event = sim.call_at(5, marker.append, 1)
    assert event[child.CALLBACK_FIELD] is event.callback


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fred-overload",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _child(mode):
    deadline = time.monotonic() + 120
    result = run.run_child("microburst-psa", 11, mode, False, deadline)
    assert "error" not in result, result
    return result


def test_traced_run_reproduces_untraced_counters():
    untraced, traced = _child("timed"), _child("traced")
    assert traced["fingerprint"] == untraced["fingerprint"]
    assert traced["counters"] == untraced["counters"]
    assert traced["cache_counters"] == untraced["cache_counters"]
    reference = _stored()["microburst-psa"]["11"]
    assert untraced["fingerprint"] == reference["fingerprint"]
    shares = [traced["layers"][f"{layer}.self_s"] for layer in catalog.LAYERS]
    assert abs(sum(shares) - traced["layers"]["py.self_s"]) < 1e-9
    assert traced["owned_events"]["net"] > 0
    assert sum(traced["owned_events"].values()) == traced["counters"]["kernel.events"]


def test_counts_repeat_between_traced_runs():
    first, second = _child("traced"), _child("traced")
    for name in catalog.EXACT_COUNTS:
        if name in first["counters"]:
            assert first["counters"][name] == second["counters"][name], name
    assert first["owned_events"] == second["owned_events"]
    for name in catalog.CALL_COUNTS:
        a, b = first["layers"][name], second["layers"][name]
        assert abs(a - b) <= catalog.CALL_COUNT_TOLERANCE * max(a, b, 1), name
