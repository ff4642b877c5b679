"""One scenario run in a fresh, single-threaded process.

Usage (``run.py`` starts this; it is not meant to be run by hand)::

    python3 perfbench/child.py WORKLOAD SEED MODE SPAWN_MONOTONIC

MODE is ``timed`` (untraced measurement), ``traced`` (the same run
under cProfile with a kernel execution observer), or ``setup`` (stop at
the first ``Simulator.run`` entry: a set-up time sample only).
``SPAWN_MONOTONIC`` is the parent's ``time.monotonic()`` just before it
started this process; the system-wide monotonic clock makes set-up time
include interpreter start.

Prints one JSON object on the last line of standard output.
"""

from __future__ import annotations

import time

T_START = time.monotonic()

import cProfile  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import catalog  # noqa: E402
import fingerprint  # noqa: E402
from layers import LayerMap, profile_layers  # noqa: E402

#: Index of the callback in a kernel ScheduledEvent (its documented
#: flat-list layout).  Read by index in the observer so that the
#: observer makes no profiled call per event; tests check it against
#: the ``ScheduledEvent.callback`` property.
CALLBACK_FIELD = 3


class _SetupDone(Exception):
    """Raised at the first Simulator.run entry in ``setup`` mode."""


def main(argv) -> int:
    workload_name, seed, mode, spawn_t = argv[1], int(argv[2]), argv[3], float(argv[4])
    if mode not in ("timed", "traced", "setup"):
        raise SystemExit(f"unknown mode {mode!r}")
    workload = catalog.WORKLOADS[workload_name]

    from repro.scenarios import registry

    registry.load_all()
    t_imported = time.monotonic()

    from repro.net.network import Network
    from repro.sim.kernel import Simulator

    networks = []
    network_init = Network.__init__

    def capture_network(self, *args, **kwargs):
        network_init(self, *args, **kwargs)
        networks.append(self)

    owned = {}

    def observe(event):
        callback = event[CALLBACK_FIELD]
        try:
            owned[callback] += 1
        except KeyError:
            owned[callback] = 1

    first = {}
    profiler = cProfile.Profile() if mode == "traced" else None
    simulator_run = Simulator.run

    def timed_run(self, *args, **kwargs):
        if not first:
            first["wall"] = time.monotonic()
            first["cpu"] = time.process_time()
            if mode == "setup":
                raise _SetupDone
            if profiler is not None:
                self.add_execution_observer(observe)
                profiler.enable()
        return simulator_run(self, *args, **kwargs)

    Network.__init__ = capture_network
    Simulator.run = timed_run

    t_build = time.monotonic()
    spec = registry.get(workload.scenario).with_params(seed=seed)
    try:
        result = spec.run()
    except _SetupDone:
        result = None
    if profiler is not None:
        profiler.disable()
    t_end = time.monotonic()
    cpu_end = time.process_time()

    out = {
        "setup_s": first["wall"] - spawn_t,
        "import_s": t_imported - T_START,
        "build_s": first["wall"] - t_build,
    }
    if mode != "setup":
        record = fingerprint.behaviour(result, networks)
        out.update(
            run_cpu_s=cpu_end - first["cpu"],
            run_wall_s=t_end - first["wall"],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            fingerprint=fingerprint.fingerprint(record),
            counters=fingerprint.counters(networks),
            cache_counters=fingerprint.cache_counters(networks),
        )
    if profiler is not None:
        import repro

        layer_map = LayerMap(os.path.dirname(repro.__file__))
        out["layers"] = profile_layers(pstats.Stats(profiler), layer_map)
        events = {layer: 0 for layer in catalog.LAYERS}
        for callback, count in owned.items():
            events[layer_map.of_callback(callback)] += count
        out["owned_events"] = events
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
