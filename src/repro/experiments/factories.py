"""Switch factories for experiment topologies.

All topology builders take ``factory(sim, name, port_count)``; these
helpers bind each architecture with a port-count-adjusted description
and experiment-friendly buffer defaults.
"""

from __future__ import annotations

from typing import Optional

from repro.arch.baseline import BaselinePsaSwitch
from repro.arch.description import (
    BASELINE_PSA,
    FULL_EVENT_SWITCH,
    LOGICAL_EVENT_DRIVEN,
    SUME_EVENT_SWITCH,
    TOFINO_LIKE,
)
from repro.arch.emulation import EmulatedEventSwitch
from repro.arch.event_driven import LogicalEventSwitch
from repro.arch.sume import SumeEventSwitch
from repro.net.topology import with_ports
from repro.sim.kernel import Simulator


def make_baseline_switch(
    queue_capacity_bytes: int = 64 * 1024,
    queues_per_port: int = 1,
    scheduler_factory=None,
    flow_cache: Optional[bool] = None,
    compile: Optional[bool] = None,
):
    """Factory for Figure 1 baseline PSA switches."""

    def factory(sim: Simulator, name: str, port_count: int) -> BaselinePsaSwitch:
        return BaselinePsaSwitch(
            sim,
            with_ports(BASELINE_PSA, port_count),
            name=name,
            queue_capacity_bytes=queue_capacity_bytes,
            queues_per_port=queues_per_port,
            scheduler_factory=scheduler_factory,
            flow_cache=flow_cache,
            compile=compile,
        )

    return factory


def make_logical_switch(
    queue_capacity_bytes: int = 64 * 1024,
    queues_per_port: int = 1,
    scheduler_factory=None,
    flow_cache: Optional[bool] = None,
    compile: Optional[bool] = None,
):
    """Factory for Figure 2 logical event-driven switches."""

    def factory(sim: Simulator, name: str, port_count: int) -> LogicalEventSwitch:
        return LogicalEventSwitch(
            sim,
            with_ports(LOGICAL_EVENT_DRIVEN, port_count),
            name=name,
            queue_capacity_bytes=queue_capacity_bytes,
            queues_per_port=queues_per_port,
            scheduler_factory=scheduler_factory,
            flow_cache=flow_cache,
            compile=compile,
        )

    return factory


def make_sume_switch(
    queue_capacity_bytes: int = 64 * 1024,
    queues_per_port: int = 1,
    scheduler_factory=None,
    flow_cache: Optional[bool] = None,
    compile: Optional[bool] = None,
    full_events: bool = False,
    merger_injection_enabled: bool = True,
    merger_queue_capacity: int = 64,
):
    """Factory for Figure 4 SUME Event Switches.

    ``full_events=True`` selects the extended description (underflow,
    control-plane, and user events included).
    """
    base = FULL_EVENT_SWITCH if full_events else SUME_EVENT_SWITCH

    def factory(sim: Simulator, name: str, port_count: int) -> SumeEventSwitch:
        return SumeEventSwitch(
            sim,
            with_ports(base, port_count),
            name=name,
            queue_capacity_bytes=queue_capacity_bytes,
            queues_per_port=queues_per_port,
            scheduler_factory=scheduler_factory,
            merger_injection_enabled=merger_injection_enabled,
            merger_queue_capacity=merger_queue_capacity,
            flow_cache=flow_cache,
            compile=compile,
        )

    return factory


def make_emulated_switch(
    queue_capacity_bytes: int = 64 * 1024,
    recirc_rate_gbps: float = 100.0,
    recirc_queue_capacity: int = 128,
    flow_cache: Optional[bool] = None,
    compile: Optional[bool] = None,
):
    """Factory for §6 Tofino-like switches with event emulation."""

    def factory(sim: Simulator, name: str, port_count: int) -> EmulatedEventSwitch:
        return EmulatedEventSwitch(
            sim,
            with_ports(TOFINO_LIKE, port_count),
            name=name,
            queue_capacity_bytes=queue_capacity_bytes,
            recirc_rate_gbps=recirc_rate_gbps,
            recirc_queue_capacity=recirc_queue_capacity,
            flow_cache=flow_cache,
            compile=compile,
        )

    return factory
