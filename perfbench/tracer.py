"""Spans around the public functions of each stonekit layer.

The tracer wraps, from outside the package, every public function that a
stonekit module defines, and rebinds every ``stonekit.*`` module attribute
that refers to the same function object.  It has to be installed after
the modules are imported and before anything is called, because several
functions (``space_universe()`` and the other universes) capture function
objects the first time they run.

Each call becomes a span (function, start, end, parent) kept in flat
arrays; ``summary()`` turns them into per-function and per-layer counts
and self times at the end.  Self time is a span's duration minus the time
covered by its child spans, so the self times of all spans add up to the
duration of the outermost one.

For the cached views, a call is a miss when the function's own
``cache_info().misses`` grew during it, and a hit otherwise; ``build_s``
is the time spent in missed calls.
"""

import inspect
import sys
import time
from array import array
from typing import Callable, Dict, List

# layer of each module's public functions; the names below override it
MODULE_LAYERS = {
    "stonekit.universes": "universes",
    "stonekit.order": "construction",
    "stonekit.dlat": "construction",
    "stonekit.spaces": "construction",
    "stonekit.frame": "derived",
    "stonekit.topspace": "derived",
    "stonekit.catengine": "catengine",
    "stonekit.instances": "catengine",
    "stonekit.documents": "documents",
    "stonekit.cli": "cli",
}

VIEWS = (
    "ideal_view",
    "downset_view",
    "prime_filters",
    "spectrum_view",
    "open_frame_view",
    "filter_space_view",
    "center_view",
    "way_below",
)

# functions that sit in a module of another layer
FUNCTION_LAYERS = dict.fromkeys(VIEWS + ("ideals_bruteforce",), "views")

# the CLI's only public function; its private helpers count as its self time
CLI_ENTRY = "main"


def _is_public_function(module_name: str, name: str, obj) -> bool:
    if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
        return False
    if getattr(obj, "__module__", None) != module_name:
        return False
    return inspect.isfunction(getattr(obj, "__wrapped__", obj))


class Tracer:
    """Holds the spans of one process; ``install`` wires it into stonekit."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        self.span_fn = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: List[int] = []
        self.calls: Dict[int, int] = {}
        self.hits: Dict[int, int] = {}
        self.misses: Dict[int, int] = {}
        self.build_s: Dict[int, float] = {}
        self.items: Dict[int, int] = {}

    # -- wiring -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the layered modules, before any runs."""
        modules = dict(sys.modules)
        wrapped: Dict[int, Callable] = {}
        for module_name, layer in MODULE_LAYERS.items():
            module = modules[module_name]
            for name, obj in vars(module).items():
                if not _is_public_function(module_name, name, obj):
                    continue
                if module_name == "stonekit.cli" and name != CLI_ENTRY:
                    continue
                wrapped[id(obj)] = self._wrap(
                    name, FUNCTION_LAYERS.get(name, layer), obj
                )
        for module_name, module in modules.items():
            if module is None or not (
                module_name == "stonekit" or module_name.startswith("stonekit.")
            ):
                continue
            for name, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    setattr(module, name, wrapped[id(obj)])

    def _wrap(self, name: str, layer: str, fn: Callable) -> Callable:
        fid = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        cache_info = getattr(fn, "cache_info", None) if layer == "views" else None
        count_items = layer == "universes"
        generator = inspect.isgeneratorfunction(getattr(fn, "__wrapped__", fn))
        clock = time.perf_counter
        fn_arr, parent_arr = self.span_fn, self.span_parent
        start_arr, end_arr, stack = self.span_start, self.span_end, self.stack
        layers = self.layers

        def open_span() -> int:
            idx = len(fn_arr)
            fn_arr.append(fid)
            parent_arr.append(stack[-1] if stack else -1)
            end_arr.append(0.0)
            stack.append(idx)
            start_arr.append(clock())
            return idx

        def close_span(idx: int) -> float:
            end = clock()
            end_arr[idx] = end
            stack.pop()
            return end - start_arr[idx]

        def outermost(idx: int) -> bool:
            parent = parent_arr[idx]
            return parent < 0 or layers[fn_arr[parent]] != layer

        if generator:

            def traced_gen(*args, **kwargs):
                self.calls[fid] = self.calls.get(fid, 0) + 1
                inner = fn(*args, **kwargs)
                while True:
                    idx = open_span()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        close_span(idx)
                    if count_items and outermost(idx):
                        self.items[fid] = self.items.get(fid, 0) + 1
                    yield item

            traced = traced_gen
        else:

            def traced_call(*args, **kwargs):
                self.calls[fid] = self.calls.get(fid, 0) + 1
                before = cache_info().misses if cache_info else 0
                idx = open_span()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    duration = close_span(idx)
                if cache_info:
                    if cache_info().misses > before:
                        self.misses[fid] = self.misses.get(fid, 0) + 1
                        self.build_s[fid] = self.build_s.get(fid, 0.0) + duration
                    else:
                        self.hits[fid] = self.hits.get(fid, 0) + 1
                if count_items and outermost(idx) and isinstance(result, (tuple, list)):
                    self.items[fid] = self.items.get(fid, 0) + len(result)
                return result

            traced = traced_call
        traced.__name__ = name
        traced.__wrapped__ = fn
        return traced

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-function calls, self times and cache counts of the closed spans."""
        count = len(self.span_fn)
        durations = [self.span_end[i] - self.span_start[i] for i in range(count)]
        self_s = durations[:]
        for idx in range(count):
            parent = self.span_parent[idx]
            if parent >= 0:
                self_s[parent] -= durations[idx]
        functions = {
            name: {
                "layer": self.layers[fid],
                "calls": self.calls.get(fid, 0),
                "self_s": 0.0,
                "hits": self.hits.get(fid, 0),
                "misses": self.misses.get(fid, 0),
                "build_s": self.build_s.get(fid, 0.0),
                "items": self.items.get(fid, 0),
            }
            for fid, name in enumerate(self.names)
        }
        for idx in range(count):
            functions[self.names[self.span_fn[idx]]]["self_s"] += self_s[idx]
        root_s = sum(durations[i] for i in range(count) if self.span_parent[i] < 0)
        return {"spans": count, "root_s": root_s, "functions": functions}


def merge(summaries: List[dict]) -> dict:
    """Add up the summaries of the processes of one run."""
    out: dict = {"spans": 0, "root_s": 0.0, "functions": {}}
    for summary in summaries:
        out["spans"] += summary["spans"]
        out["root_s"] += summary["root_s"]
        for name, entry in summary["functions"].items():
            mine = out["functions"].setdefault(name, {"layer": entry["layer"]})
            for key, value in entry.items():
                if key != "layer":
                    mine[key] = mine.get(key, 0) + value
    return out


def layer_totals(functions: Dict[str, dict]) -> Dict[str, dict]:
    """Calls and self time summed over the functions of each layer."""
    out: Dict[str, dict] = {}
    for entry in functions.values():
        layer = out.setdefault(entry["layer"], {"calls": 0, "self_s": 0.0})
        layer["calls"] += entry["calls"]
        layer["self_s"] += entry["self_s"]
    return out
