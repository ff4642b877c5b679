"""Behaviour fingerprint and work counters read from a finished run.

Everything here reads public attributes of the objects a scenario built
(networks, hosts, switches, their buses, traffic managers, mergers,
flow caches and fastpaths, links); nothing is attached to the run.

The fingerprint covers what the simulated network *did*: the scenario
result, per-host traffic, per-TM queueing and per-bus event counts.
Kernel-event, flow-cache, fastpath and compile counters stay out of it,
because a faster implementation of the same behaviour may change them.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Iterable, List


def _switches(networks: Iterable[Any]) -> List[Any]:
    return [
        switch
        for network in networks
        for _, switch in sorted(network.switches.items())
    ]


def behaviour(result: Any, networks: Iterable[Any]) -> Dict[str, Any]:
    """The JSON-able behaviour record the fingerprint hashes."""
    from repro.search.objective import extract_metrics, sanitize_metrics

    networks = list(networks)
    hosts = {}
    for network in networks:
        for name, host in sorted(network.hosts.items()):
            hosts[name] = [
                host.sent_packets,
                host.sent_bytes,
                host.received_packets,
                host.received_bytes,
            ]
    switches = {}
    for switch in _switches(networks):
        bus = switch.bus
        record = {
            "tm": [
                switch.tm.total_enqueued,
                switch.tm.total_dequeued,
                switch.tm.drops_overflow,
            ],
            "bus": {
                kind.name: [bus.fired[kind], bus.handled[kind], bus.suppressed[kind]]
                for kind in bus.fired
                if bus.fired[kind] or bus.handled[kind] or bus.suppressed[kind]
            },
        }
        merger = getattr(switch, "merger", None)
        if merger is not None:
            stats = merger.stats
            record["merger"] = [
                stats.offered,
                stats.piggybacked,
                stats.injected_events,
                stats.injected_packets,
            ]
        switches[switch.name] = record
    return {
        "result": sanitize_metrics(extract_metrics(result)),
        "hosts": hosts,
        "switches": switches,
    }


def fingerprint(record: Dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON of a behaviour record."""
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def delivered_packets(networks: Iterable[Any]) -> int:
    """Packets received by hosts."""
    return sum(
        host.received_packets for network in networks for host in network.hosts.values()
    )


def counters(networks: Iterable[Any]) -> Dict[str, int]:
    """Work counts per layer, summed over every switch, host and link."""
    from repro.pisa.pipeline import Pipeline

    networks = list(networks)
    out = {
        "pkts.delivered": delivered_packets(networks),
        "kernel.events": sum(network.sim.events_executed for network in networks),
        "bus.fired": 0,
        "bus.handled": 0,
        "bus.suppressed": 0,
        "merger.offered": 0,
        "merger.piggybacked": 0,
        "merger.carriers": 0,
        "pisa.flowcache.hits": 0,
        "pisa.flowcache.lookups": 0,
        "pisa.fastpath.fused": 0,
        "pisa.fastpath.attempts": 0,
        "pisa.walks": 0,
        "tm.offered": 0,
        "tm.overflow_drops": 0,
        "tm.max_buffer_bytes": 0,
        "net.link_deliveries": sum(
            link.delivered_packets for network in networks for link in network.links
        ),
    }
    for switch in _switches(networks):
        bus = switch.bus
        out["bus.fired"] += sum(bus.fired.values())
        out["bus.handled"] += sum(bus.handled.values())
        out["bus.suppressed"] += sum(bus.suppressed.values())
        merger = getattr(switch, "merger", None)
        if merger is not None:
            out["merger.offered"] += merger.stats.offered
            out["merger.piggybacked"] += merger.stats.piggybacked
            out["merger.carriers"] += merger.stats.injected_packets
        # FlowCache and FlowFastpath define __len__: an empty one is
        # falsy, so test presence with ``is not None``.
        cache = switch.flow_cache
        if cache is not None:
            stats = cache.stats
            out["pisa.flowcache.hits"] += stats.hits
            out["pisa.flowcache.lookups"] += stats.hits + stats.misses + stats.uncacheable
        fastpath = switch.flow_fastpath
        if fastpath is not None:
            out["pisa.fastpath.fused"] += fastpath.stats.fused
            out["pisa.fastpath.attempts"] += (
                fastpath.stats.fused + fastpath.stats.fallbacks_total
            )
        for value in vars(switch).values():
            if isinstance(value, Pipeline):
                out["pisa.walks"] += value.packets_processed - value.walks_elided
        tm = switch.tm
        out["tm.offered"] += tm.total_enqueued + tm.drops_overflow
        out["tm.overflow_drops"] += tm.drops_overflow
        out["tm.max_buffer_bytes"] = max(
            out["tm.max_buffer_bytes"], tm.buffer.max_occupancy_bytes
        )
    return out


def cache_counters(networks: Iterable[Any]) -> Dict[str, Dict[str, int]]:
    """Every flow-cache counter per switch (traced/untraced equality)."""
    return {
        switch.name: switch.flow_cache.stats.as_dict()
        for switch in _switches(networks)
        if switch.flow_cache is not None
    }
