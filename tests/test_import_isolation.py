"""Every ``repro.*`` module imports on its own in a fresh interpreter.

An import cycle stays hidden as long as some other module happens to be
imported first; a fresh interpreter per module exposes it.
"""

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import repro

PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__))
SRC = os.path.dirname(PACKAGE_DIR)


def _module_names():
    names = []
    for root, _dirs, files in os.walk(PACKAGE_DIR):
        for filename in files:
            if not filename.endswith(".py"):
                continue
            path = os.path.relpath(os.path.join(root, filename[:-3]), SRC)
            parts = path.split(os.sep)
            if parts[-1] == "__init__":
                parts.pop()
            names.append(".".join(parts))
    return sorted(names)


def _import_alone(name):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", f"import {name}"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    if proc.returncode == 0:
        return None
    lines = proc.stderr.strip().splitlines() or [f"exit status {proc.returncode}"]
    return f"{name}: {lines[-1]}"


def test_every_module_imports_alone():
    names = _module_names()
    assert "repro.pisa.compile" in names and "repro.arch.base" in names
    with ThreadPoolExecutor(max_workers=min(4, os.cpu_count() or 1)) as pool:
        failures = [f for f in pool.map(_import_alone, names) if f is not None]
    assert not failures, "\n".join(failures)
