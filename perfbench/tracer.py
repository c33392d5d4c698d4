"""Span recorder for the traced runs.

The layer is the module.  ``install`` wraps every public function of the
ottolab layer modules, plus ``cli.main``, wherever it is bound: in its own
module and in every module that imported it by name.  Each call records one
span (name, start, end, parent) in flat arrays kept in memory; ``dump``
writes them out when the traced process ends.  ``LayerStats`` turns spans
into calls, total time and self time, where self time is a span's duration
minus the durations of its child spans.

A few functions also add counts from their result at the same boundary:
``oracle.maximize`` adds its objective evaluations, ``verification.run_all``
its checks and the checks that passed.  ``tables.figure_table`` spans are
named per figure id.
"""

from __future__ import annotations

import json
import sys
import types
from array import array
from collections import defaultdict
from time import perf_counter

#: modules whose public functions (``__all__``) are layers
LAYERS = ("engine", "fridge", "cycle", "cubic", "oracle", "tables", "verification")

#: result -> counter increments, at the boundary that produces the result
_COUNTS = {
    "oracle.maximize": lambda report: {"oracle.maximize.evaluations": report.evaluations},
    "verification.run_all": lambda results: {
        "verification.checks": len(results),
        "verification.checks_passed": sum(1 for r in results if r.passed),
    },
}

#: span-name suffix from the call's arguments
_TAGS = {"tables.figure_table": lambda figure_id, *_, **__: figure_id}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = defaultdict(int)
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        fixed_id = self._id(name)
        tag, count = _TAGS.get(name), _COUNTS.get(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, counters = self._stack, self.counters

        def traced(*args, **kwargs):
            nid = fixed_id if tag is None else self._id(f"{name}.{tag(*args, **kwargs)}")
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if count is not None:
                for key, value in count(result).items():
                    counters[key] += value
            return result

        return traced

    def install(self) -> None:
        """Wrap the layer functions in every loaded ottolab module."""
        import ottolab.cli

        targets = {}
        for layer in LAYERS:
            module = sys.modules[f"ottolab.{layer}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if isinstance(fn, types.FunctionType):
                    targets[id(fn)] = (fn, self.wrap(f"{layer}.{attr}", fn))
        targets[id(ottolab.cli.main)] = (ottolab.cli.main, self.wrap("cli.main", ottolab.cli.main))
        modules = [m for n, m in sys.modules.items() if n == "ottolab" or n.startswith("ottolab.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def dump(self, path: str) -> None:
        """Write the spans as ``path`` (JSON: names, counters, span count)
        plus ``path + '.bin'`` (the four arrays, back to back)."""
        with open(path + ".bin", "wb") as handle:
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(handle)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "counters": dict(self.counters),
                       "spans": len(self.start)}, handle)


def load(path: str) -> tuple[dict, array, array, array, array]:
    with open(path, encoding="utf-8") as handle:
        meta = json.load(handle)
    n = meta["spans"]
    arrays = (array("i"), array("i"), array("d"), array("d"))
    with open(path + ".bin", "rb") as handle:
        for arr in arrays:
            arr.fromfile(handle, n)
    return (meta, *arrays)


class LayerStats:
    """Per span name: calls, total seconds, self seconds; plus counters."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)

    def add(self, path: str, rename=None) -> None:
        """Fold one dumped span file in.  ``rename`` maps a span name to
        the name it is counted under (used to tag ``cli.main`` by command)."""
        meta, name_id, parent, start, end = load(path)
        names = [rename(n) if rename else n for n in meta["names"]]
        n = len(start)
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        for i in range(n):
            name = names[name_id[i]]
            duration = end[i] - start[i]
            self.calls[name] += 1
            self.total[name] += duration
            self.self_time[name] += duration - child[i]
        for key, value in meta["counters"].items():
            self.counters[key] += value

    def merge(self, other: "LayerStats") -> None:
        for mine, theirs in ((self.calls, other.calls), (self.total, other.total),
                             (self.self_time, other.self_time),
                             (self.counters, other.counters)):
            for key, value in theirs.items():
                mine[key] += value

    def signature(self) -> tuple:
        """Everything that must repeat exactly when the same inputs run again."""
        return tuple(sorted(self.calls.items())), tuple(sorted(self.counters.items()))
