"""Trace ``demqa`` from outside the package, in a child process.

    python3 bench/tracer.py spans|memory SUMMARY.json -- <demqa arguments>

stands in for the ``demqa`` console script. It imports every ``demqa``
module, replaces each public function in every ``demqa`` namespace that
holds it (so a function re-exported by ``demqa`` or imported into
``demqa.cli`` is traced wherever it is called from), runs
``demqa.cli.main`` and writes what the wrappers saw to SUMMARY.json.

``spans`` records one span per call (function, start, end, parent) plus
counts taken from arguments and results. ``memory`` wraps only the
functions in PEAK_FUNCTIONS and records the tracemalloc peak of each
call. The two are separate passes because tracemalloc slows the per-token
grid reader about elevenfold and would skew the span timings.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from time import perf_counter

LAYERS = ("raster", "sample", "terrain", "screen", "stats", "spatial", "landcover", "cli", "synth")
PEAK_FUNCTIONS = {
    "raster.read_ascii_grid": "raster.read_peak_mb",
    "spatial.build_weights": "spatial.build_weights_peak_mb",
}


def layer_of(module: str) -> str:
    """The layer a module belongs to; modules outside LAYERS are orchestration (cli)."""
    short = module.rsplit(".", 1)[-1]
    return short if short in LAYERS else "cli"


def qualified_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def public_functions() -> list[tuple[object, list[tuple[object, str]]]]:
    """Every public demqa function with the (namespace, attribute) pairs holding it."""
    import demqa

    for info in pkgutil.walk_packages(demqa.__path__, "demqa."):
        importlib.import_module(info.name)
    holders: dict[int, tuple[object, list]] = {}
    for name, module in sorted(sys.modules.items()):
        if name != "demqa" and not name.startswith("demqa."):
            continue
        for attr, obj in vars(module).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__.startswith("demqa")
            ):
                holders.setdefault(id(obj), (obj, []))[1].append((module, attr))
    return list(holders.values())


def install(make_wrapper) -> None:
    """Replace each public function by ``make_wrapper(fn)`` unless that returns None."""
    for fn, places in public_functions():
        wrapper = make_wrapper(fn)
        if wrapper is not None:
            for module, attr in places:
                setattr(module, attr, wrapper)


def _cells(obj) -> int:
    values = getattr(obj, "values", obj)
    return int(getattr(values, "size", 0))


def _nnz(weights) -> int:
    if hasattr(weights, "nnz"):
        return int(weights.nnz)
    return len(weights.entries)


class SpanTracer:
    """Spans kept in memory while the command runs, summarised at the end."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.spans: list[list] = []  # [function index, start, end, parent span or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.slope_grids: set[int] = set()  # ids of slope grids a terrain call returned

    def wrap(self, fn):
        fid = len(self.names)
        name = qualified_name(fn)
        self.names.append(name)
        self.layers.append(layer_of(fn.__module__))
        hook = self._hook(name, self.layers[-1])
        signature = inspect.signature(fn) if hook is not None else None
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [fid, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def _hook(self, name: str, layer: str):
        c = self.counts
        if name == "raster.read_ascii_grid":
            def hook(args, grid):
                c["raster.read_cells"] += _cells(grid)
        elif name == "raster.write_ascii_grid":
            def hook(args, _):
                cells = _cells(args["grid"])
                c["raster.write_cells"] += cells
                if id(args["grid"]) in self.slope_grids:
                    c["terrain.cells_used"] += cells
        elif name == "sample.extract_coincident":
            def hook(args, records):
                c["sample.records"] += len(records)
        elif name == "sample.attach_derivatives":
            def hook(args, records):
                c["terrain.cells_used"] += len(records)
        elif layer == "terrain":
            def hook(args, result):
                slope = getattr(result, "slope", None)
                if slope is not None:
                    c["terrain.cells_computed"] += _cells(slope)
                    self.slope_grids.add(id(slope))
        elif name == "screen.validity_filter":
            def hook(args, result):
                c["screen.removed"] += len(result[1])
        elif name == "screen.tukey_filter":
            def hook(args, result):
                c["screen.kept"] += len(result[0])
                c["screen.removed"] += len(result[1])
        elif name == "spatial.build_weights":
            def hook(args, w):
                c["spatial.weights_n"] += w.n
                c["spatial.weights_nnz"] += _nnz(w)
        elif name == "spatial.permutation_test":
            def hook(args, result):
                c["spatial.permutations"] += result.n_perm
        else:
            return None
        return hook

    def summary(self) -> dict:
        """Per function: calls, inclusive and self time. Per layer: calls,
        self time and the time of its spans that no span of the same layer
        encloses (so nested calls within a layer are not counted twice)."""
        functions = {
            n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in self.names
        }
        layers = {
            lay: {"calls": 0, "self_s": 0.0, "outer_s": 0.0} for lay in LAYERS
        }
        child_s = [0.0] * len(self.spans)
        for fid, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        for k, (fid, start, end, parent) in enumerate(self.spans):
            dur = end - start
            name, layer = self.names[fid], self.layers[fid]
            functions[name]["calls"] += 1
            functions[name]["total_s"] += dur
            functions[name]["self_s"] += dur - child_s[k]
            layers[layer]["calls"] += 1
            layers[layer]["self_s"] += dur - child_s[k]
            while parent >= 0 and self.layers[self.spans[parent][0]] != layer:
                parent = self.spans[parent][3]
            if parent < 0:
                layers[layer]["outer_s"] += dur
        return {
            "functions": {n: f for n, f in functions.items() if f["calls"]},
            "layers": layers,
            "counts": dict(self.counts),
        }


class PeakTracer:
    """tracemalloc peak of each call to the functions in PEAK_FUNCTIONS.

    Tracing starts at entry and stops at exit, so the peak counts only
    memory the call itself allocated, and the rest of the command runs at
    full speed.
    """

    def __init__(self):
        self.peaks: dict[str, float] = {}

    def wrap(self, fn):
        metric = PEAK_FUNCTIONS.get(qualified_name(fn))
        if metric is None:
            return None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peaks[metric] = max(self.peaks.get(metric, 0.0), peak / 2**20)

        return wrapper

    def summary(self) -> dict:
        return {"peaks_mb": self.peaks}


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] not in ("spans", "memory") or argv[2] != "--":
        print("usage: tracer.py spans|memory SUMMARY.json -- <demqa arguments>", file=sys.stderr)
        return 2
    tracer = SpanTracer() if argv[0] == "spans" else PeakTracer()
    install(tracer.wrap)
    import demqa.cli

    code = demqa.cli.main(argv[3:])
    Path(argv[1]).write_text(json.dumps(tracer.summary()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
