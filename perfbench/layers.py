"""Attribute profiled host time and calls to the ``repro`` packages.

A layer is the ``repro`` package that owns a function: ``repro.tm.*``
is ``tm``.  Code outside the repository (the standard library and
builtins) is ``stdlib``; any other ``repro`` package is ``other``.  The
benchmark's own functions (the instrument) belong to no layer and are
left out of every total.
"""

from __future__ import annotations

import os
import pstats
from typing import Any, Callable, Dict, Optional

from catalog import LAYERS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

#: cProfile names exec-generated code by its ``<string>`` pseudo-file;
#: in these scenarios that is only repro.pisa.compile's specialized
#: pipeline walks.
_GENERATED = {"<string>": "pisa"}


class LayerMap:
    """Maps profiled functions and kernel callbacks to layers."""

    def __init__(self, repro_dir: str) -> None:
        self.repro_dir = os.path.abspath(repro_dir) + os.sep
        self._by_file: Dict[str, Optional[str]] = {}

    def of_file(self, filename: str) -> Optional[str]:
        """The layer owning code from ``filename`` (None: the instrument)."""
        layer = self._by_file.get(filename, "")
        if layer != "":
            return layer
        if filename in _GENERATED:
            layer = _GENERATED[filename]
        elif os.path.abspath(filename).startswith(BENCH_DIR + os.sep):
            layer = None
        elif os.path.abspath(filename).startswith(self.repro_dir):
            package = os.path.abspath(filename)[len(self.repro_dir):].split(os.sep)[0]
            package = package[:-3] if package.endswith(".py") else package
            layer = package if package in LAYERS else "other"
        else:
            layer = "stdlib"
        self._by_file[filename] = layer
        return layer

    def of_callback(self, callback: Callable[..., Any]) -> str:
        """The layer owning a kernel callback (bound method, function, object)."""
        func = getattr(callback, "__func__", callback)
        func = getattr(func, "func", func)  # functools.partial
        code = getattr(func, "__code__", None)
        if code is None:
            code = getattr(type(func).__call__, "__code__", None)
        if code is None:
            return "stdlib"
        return self.of_file(code.co_filename) or "other"


def profile_layers(stats: pstats.Stats, layers: LayerMap) -> Dict[str, float]:
    """Per-layer self time, calls and cross-layer entries from a profile.

    ``entries`` counts layer-boundary spans: calls into a layer's
    function from a function of another layer.  Calls from the
    instrument do not count as entries.
    """
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
        out[f"{layer}.entries"] = 0
    for (filename, _, _), (_, ncalls, tottime, _, callers) in stats.stats.items():
        layer = layers.of_file(filename)
        if layer is None:
            continue
        out[f"{layer}.self_s"] += tottime
        out[f"{layer}.calls"] += ncalls
        for (caller_file, _, _), caller_stats in callers.items():
            caller_layer = layers.of_file(caller_file)
            if caller_layer is not None and caller_layer != layer:
                out[f"{layer}.entries"] += caller_stats[1]
    out["py.self_s"] = sum(out[f"{layer}.self_s"] for layer in LAYERS)
    out["py.calls"] = sum(out[f"{layer}.calls"] for layer in LAYERS)
    return out
