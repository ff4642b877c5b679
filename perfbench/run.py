"""Paper-scenario benchmark: time the event path end to end, check behaviour.

Run from the repository root::

    python3 perfbench/run.py --workload microburst-sume --seed 11 \
        --seconds 15 --trace 0

Every scenario run is a fresh single-threaded process (``child.py``);
runs never overlap.  With ``--trace 0`` the benchmark repeats timed runs
until ``--seconds`` have passed and reports medians of the end-to-end
metrics.  With ``--trace 1`` it does the same and then one profiled run
of ``--seed``, and reports the per-layer metrics of that run.  A run
measures the scenario at ``--seed`` and at companion seeds drawn from it
(``catalog.run_seeds``).  Each scenario run's behaviour fingerprint must
equal the reference for its seed: the recorded one in
``references.json`` when there is one, otherwise that of one run on the
interpreted reference datapath.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import catalog

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(BENCH_DIR, "references.json")

#: Set-up samples per run: timed runs each give one, set-up-only
#: processes make up the rest.
MIN_SETUP_SAMPLES = 5
#: Every process this benchmark starts must be done by then.
DEADLINE_S = 170.0


def child_env(reference: bool) -> Dict[str, str]:
    """The child environment: default configuration, or the reference path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    if reference:
        env.update(catalog.REFERENCE_ENV)
    return env


def run_child(
    workload: str, seed: int, mode: str, reference: bool, deadline: float
) -> Dict[str, Any]:
    """One child process; its JSON record, or ``{"error": ...}``."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return {"error": "no time left before the deadline"}
    argv = [sys.executable, os.path.join(BENCH_DIR, "child.py"), workload, str(seed), mode]
    spawn_t = time.monotonic()
    try:
        proc = subprocess.run(
            argv + [repr(spawn_t)],
            env=child_env(reference),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} run timed out"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        return {"error": f"{mode} run failed: {tail[0]}"}
    return json.loads(lines[-1])


def mismatch(run: Dict[str, Any], reference: Dict[str, Any]) -> Optional[str]:
    """Why ``run`` does not match ``reference``; None when it does."""
    if "error" in run:
        return run["error"]
    if run["fingerprint"] != reference["fingerprint"]:
        return "behaviour fingerprint differs from the reference"
    if run["counters"]["pkts.delivered"] != reference["delivered"]:
        return "delivered packets differ from the reference"
    return None


def same_counts(run: Dict[str, Any], base: Dict[str, Any]) -> Optional[str]:
    """Why two runs of one seed differ in their work counts; None if equal."""
    if run["counters"] != base["counters"]:
        return "work counters differ between runs of one seed"
    if run["cache_counters"] != base["cache_counters"]:
        return "flow-cache counters differ between runs of one seed"
    return None


def _summary(run: Dict[str, Any]) -> str:
    if "error" in run:
        return run["error"]
    if "run_cpu_s" in run:
        return f"{run['run_cpu_s']:.3f} s cpu"
    return f"{run['setup_s']:.3f} s set-up"


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(timed: List[Dict[str, Any]], setups: List[float], ok_rate: float):
    """Medians of the end-to-end metrics over the timed runs."""
    values = {
        "run_cpu_s": statistics.median(r["run_cpu_s"] for r in timed),
        "run_wall_s": statistics.median(r["run_wall_s"] for r in timed),
        "pkts_per_s": statistics.median(
            ratio(r["counters"]["pkts.delivered"], r["run_cpu_s"]) for r in timed
        ),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        "ok_rate": ok_rate,
    }
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit, _, _ in catalog.END_TO_END
    }


def per_layer(
    traced: Dict[str, Any], timed: List[Dict[str, Any]], setup_runs: List[Dict[str, Any]]
):
    """Per-layer metrics of the traced run, every ratio beside its base."""
    values: Dict[str, float] = dict(traced["counters"])
    values.update(traced["layers"])
    for layer, count in traced["owned_events"].items():
        values[f"{layer}.owned_events"] = count
    values["trace.cpu_s"] = traced["run_cpu_s"]
    values["trace.untraced_cpu_s"] = statistics.median(r["run_cpu_s"] for r in timed)
    values["setup.import_s"] = statistics.median(r["import_s"] for r in setup_runs)
    values["setup.build_s"] = statistics.median(r["build_s"] for r in setup_runs)
    for name, (numerator, denominator) in catalog.RATIO_BASES.items():
        values[name] = ratio(values[numerator], values[denominator])
    return {name: {"value": values[name], "unit": unit} for name, unit in catalog.PER_LAYER}


def measure(name: str, seed: int, seconds: int, trace: bool, log) -> Dict[str, Any]:
    """Run the benchmark for one workload and seed; the result object."""
    seeds = catalog.run_seeds(catalog.WORKLOADS[name], seed)
    start = time.monotonic()
    deadline = start + DEADLINE_S

    def scenario_run(run_seed: int, mode: str, reference: bool) -> Dict[str, Any]:
        run = run_child(name, run_seed, mode, reference, deadline)
        run["seed"] = run_seed
        path = "reference-path" if reference else mode
        log(f"{path} run, seed {run_seed}: " + _summary(run))
        return run

    # Whole cycles over the run's seeds, so that its inputs depend on
    # the seed alone and not on how fast the host is.
    timed: List[Dict[str, Any]] = []
    while not any("error" in run for run in timed):
        for run_seed in seeds:
            timed.append(scenario_run(run_seed, "timed", False))
            if "error" in timed[-1]:
                break
        if time.monotonic() - start >= seconds:
            break
    # (run, whether its work counts must repeat those of the first run
    # of its seed): the reference-path run is checked on behaviour only.
    checked = [(run, True) for run in timed]
    traced = None
    if trace and "error" not in timed[0]:
        traced = scenario_run(seed, "traced", False)
        checked.append((traced, True))

    with open(REFERENCES) as handle:
        stored = json.load(handle).get(name, {})
    references: Dict[int, Optional[Dict[str, Any]]] = {}
    for run_seed in seeds:
        reference = stored.get(str(run_seed))
        if reference is None:
            ref_run = scenario_run(run_seed, "timed", True)
            checked.append((ref_run, False))
            if "error" not in ref_run:
                reference = {
                    "fingerprint": ref_run["fingerprint"],
                    "delivered": ref_run["counters"]["pkts.delivered"],
                }
        references[run_seed] = reference

    failures = []
    first_of_seed: Dict[int, Dict[str, Any]] = {}
    for run, counts_too in checked:
        reference = references[run["seed"]]
        if reference is None:
            why = "no reference: the reference-path run failed"
        else:
            why = mismatch(run, reference)
            if why is None and counts_too:
                why = same_counts(run, first_of_seed.setdefault(run["seed"], run))
        if why is not None:
            failures.append(why)
            log(f"FAILED, seed {run['seed']}: {why}")

    good = [run for run in timed if "error" not in run]
    setup_runs = list(good)
    while good and len(setup_runs) < MIN_SETUP_SAMPLES:
        sample = scenario_run(seed, "setup", False)
        if "error" in sample:
            failures.append(sample["error"])
            checked.append((sample, False))
            break
        setup_runs.append(sample)

    metrics: Dict[str, Any] = {}
    if trace and traced is not None and "error" not in traced:
        untraced = [run for run in good if run["seed"] == seed]
        metrics = per_layer(traced, untraced, setup_runs)
    elif not trace and good:
        ok_rate = 1.0 - len(failures) / len(checked)
        metrics = end_to_end(good, [r["setup_s"] for r in setup_runs], ok_rate)
    return {
        "correct": not failures and bool(metrics),
        "attempted": len(checked),
        "failed": len(failures),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(catalog.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print(
            "perfbench: src/repro not found; run from the repository root",
            file=sys.stderr,
        )
        return 2
    if os.path.dirname(BENCH_DIR) != os.path.abspath("."):
        print("perfbench: run from the repository root", file=sys.stderr)
        return 2

    def log(message: str) -> None:
        print(f"[{args.workload} seed={args.seed}] {message}", file=sys.stderr)

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), log)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
