"""What the benchmark runs and what it reports.

Each workload is one registered paper scenario run with the workload
seed.  The metric lists here are the single source for the names that
``run.py`` prints and ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a registered scenario and its seeds.

    A run of the benchmark with seed ``n`` runs the scenario at seed
    ``n`` and at ``seeds_per_run - 1`` companion seeds drawn from
    COMPANION_SEEDS by ``n`` (see :func:`run_seeds`).  How much traffic
    an ON/OFF scenario offers depends on its seed, so one seed per run
    would make the run's time follow the seed more than the program.
    """

    scenario: str
    default_seed: int
    seeds_per_run: int
    why: str


#: Seed recorded beside each workload's default seed in references.json
#: and never used to tune the benchmark.
HELD_OUT_SEED = 2019

#: Companion seeds, all with recorded references.
COMPANION_SEEDS = tuple(range(1, 25))

WORKLOADS: Dict[str, Workload] = {
    "microburst-sume": Workload(
        "microburst/event-driven",
        11,
        7,
        "paper section 2 detector on the SUME event switch; the merger and "
        "carrier packets carry most of the work",
    ),
    "microburst-psa": Workload(
        "microburst/snappy",
        11,
        8,
        "same traffic on the baseline PSA switch; TM events suppressed, the "
        "only run of arch/baseline and the flow fastpath",
    ),
    "ecmp-leafspine": Workload(
        "load-balance/ecmp",
        3,
        7,
        "2x2 leaf-spine, 3 switches per packet; the flow cache answers "
        "almost every pipeline walk",
    ),
    "fred-overload": Workload(
        "aqm/fred",
        17,
        1,  # constant-rate traffic: the seed does not change the input
        "9 Gb/s blaster overloads one port; TM overflow path plus FRED "
        "enqueue/dequeue handlers",
    ),
}


def run_seeds(workload: Workload, seed: int) -> List[int]:
    """The scenario seeds one benchmark run measures, ``seed`` first."""
    pool = [s for s in COMPANION_SEEDS if s != seed]
    return [seed] + random.Random(seed).sample(pool, workload.seeds_per_run - 1)


#: Environment that selects the interpreted, per-hop reference datapath:
#: every optional acceleration layer off.  A variable a later version of
#: the program no longer reads is harmless (the reference is then the
#: default path and the check reduces to determinism).
REFERENCE_ENV = {
    "REPRO_FLOW_CACHE": "0",
    "REPRO_PIPELINE_COMPILE": "0",
    "REPRO_FLOW_FASTPATH": "0",
    "REPRO_BATCH_DRAIN": "0",
}

#: (name, unit, better, bound) of every end-to-end metric.  The time
#: bounds are wide because the speed of a shared 2-core host drifts by
#: about 10% over minutes, which no amount of work in one run averages
#: out.  ``setup_s`` carries the largest bound: it is a median of few
#: process starts.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("run_cpu_s", "s", "lower", 0.24),
    ("run_wall_s", "s", "lower", 0.24),
    ("pkts_per_s", "1/s", "higher", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_rate", "share", "higher", 0.01),
]

#: Layers are the ``repro`` packages that own the profiled code.
#: ``stdlib`` is everything outside the repository (builtins included);
#: ``other`` is any remaining ``repro`` package.
LAYERS = (
    "sim",
    "arch",
    "pisa",
    "tm",
    "packet",
    "net",
    "apps",
    "state",
    "workloads",
    "experiments",
    "stdlib",
    "other",
)

#: Per-layer metrics reported for every layer in LAYERS.
_LAYER_FIELDS = [
    ("self_s", "s"),
    ("self_share", "share"),
    ("calls", "count"),
    ("calls_per_pkt", "count/pkt"),
    ("entries", "count"),
    ("owned_events", "count"),
]

_COUNTERS: List[Tuple[str, str]] = [
    ("pkts.delivered", "count"),
    ("kernel.events", "count"),
    ("sim.events_per_pkt", "count/pkt"),
    ("bus.fired", "count"),
    ("bus.handled", "count"),
    ("bus.handled_ratio", "share"),
    ("bus.suppressed", "count"),
    ("merger.offered", "count"),
    ("merger.piggybacked", "count"),
    ("merger.piggyback_ratio", "share"),
    ("merger.carriers", "count"),
    ("merger.carriers_per_pkt", "count/pkt"),
    ("pisa.flowcache.hits", "count"),
    ("pisa.flowcache.lookups", "count"),
    ("pisa.flowcache.hit_ratio", "share"),
    ("pisa.fastpath.fused", "count"),
    ("pisa.fastpath.attempts", "count"),
    ("pisa.fastpath.fuse_ratio", "share"),
    ("pisa.walks", "count"),
    ("pisa.walks_per_pkt", "count/pkt"),
    ("tm.offered", "count"),
    ("tm.overflow_drops", "count"),
    ("tm.drop_ratio", "share"),
    ("tm.max_buffer_bytes", "bytes"),
    ("net.link_deliveries", "count"),
    ("net.hops_per_pkt", "count/pkt"),
    ("py.self_s", "s"),
    ("py.calls", "count"),
    ("py.calls_per_pkt", "count/pkt"),
    ("trace.cpu_s", "s"),
    ("trace.untraced_cpu_s", "s"),
    ("trace.overhead", "x"),
    ("setup.import_s", "s"),
    ("setup.build_s", "s"),
]

#: Per-layer metrics where a higher value is the better one; for every
#: other time, count and share, lower is better.
HIGHER_IS_BETTER = {
    "pkts.delivered",
    "bus.handled_ratio",
    "merger.piggybacked",
    "merger.piggyback_ratio",
    "pisa.flowcache.hits",
    "pisa.flowcache.hit_ratio",
    "pisa.fastpath.fused",
    "pisa.fastpath.fuse_ratio",
}

PER_LAYER: List[Tuple[str, str]] = _COUNTERS + [
    (f"{layer}.{field}", unit) for layer in LAYERS for (field, unit) in _LAYER_FIELDS
]

#: Ratio metrics and the (numerator, denominator) metrics they are
#: reported beside.
RATIO_BASES: Dict[str, Tuple[str, str]] = {
    "sim.events_per_pkt": ("kernel.events", "pkts.delivered"),
    "bus.handled_ratio": ("bus.handled", "bus.fired"),
    "merger.piggyback_ratio": ("merger.piggybacked", "merger.offered"),
    "merger.carriers_per_pkt": ("merger.carriers", "pkts.delivered"),
    "pisa.flowcache.hit_ratio": ("pisa.flowcache.hits", "pisa.flowcache.lookups"),
    "pisa.fastpath.fuse_ratio": ("pisa.fastpath.fused", "pisa.fastpath.attempts"),
    "pisa.walks_per_pkt": ("pisa.walks", "pkts.delivered"),
    "tm.drop_ratio": ("tm.overflow_drops", "tm.offered"),
    "net.hops_per_pkt": ("net.link_deliveries", "pkts.delivered"),
    "py.calls_per_pkt": ("py.calls", "pkts.delivered"),
    "trace.overhead": ("trace.cpu_s", "trace.untraced_cpu_s"),
}
for _layer in LAYERS:
    RATIO_BASES[f"{_layer}.self_share"] = (f"{_layer}.self_s", "py.self_s")
    RATIO_BASES[f"{_layer}.calls_per_pkt"] = (f"{_layer}.calls", "pkts.delivered")

#: Python call counts (and the cross-layer calls among them) vary by a
#: few calls in millions from one process to the next; they must agree
#: within CALL_COUNT_TOLERANCE, relative.  Every other count must repeat
#: exactly between runs of one workload and seed.
CALL_COUNTS = ["py.calls"] + [
    f"{layer}.{field}" for layer in LAYERS for field in ("calls", "entries")
]
EXACT_COUNTS = [
    name
    for name, unit in PER_LAYER
    if unit in ("count", "bytes") and name not in CALL_COUNTS
]
CALL_COUNT_TOLERANCE = 1e-4
