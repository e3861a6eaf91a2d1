"""In-memory span tracer wrapped around sdke's public functions.

While installed, a ``Tracer`` has replaced every public function in every
sdke module namespace that binds it with a wrapper that records a span
(name, start, end, parent, note).  A span is named after the module that
defines the function, e.g. ``decomposition.sd_ke_partition``, whichever
namespace the call went through.  Generator functions get one span per
resume.  ``uninstall`` puts the original functions back, so untraced code
runs exactly as without the tracer.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
from collections import defaultdict
from time import perf_counter


def _witness_edges(args, result):
    return None if result is None else result.num_edges


def _ryser_terms(args, result):
    return 2 ** args[0].n


# A number noted on a span from its call's arguments and result; None notes nothing.
NOTES = {
    "alternating.semi_jposy_witness": _witness_edges,
    "determinantal.perm_adjacency": _ryser_terms,
}


class Tracer:
    def __init__(self, modules) -> None:
        self.spans: list = []  # (name, start, end, parent index or -1, note)
        self._stack: list[int] = []
        self._patches = []  # (module, attribute, original, wrapper)
        wrappers: dict = {}
        for module in modules:
            for attr, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and not attr.startswith("_")
                    and fn.__module__.startswith("sdke.")
                ):
                    if fn not in wrappers:
                        name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
                        wrappers[fn] = self._wrap(name, fn)
                    self._patches.append((module, attr, fn, wrappers[fn]))

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn, _ in self._patches:
            setattr(module, attr, fn)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append((name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: float, note) -> None:
        end = perf_counter()
        self._stack.pop()
        name, _, _, parent, _ = self.spans[idx]
        self.spans[idx] = (name, start, end, parent, note)

    def _wrap(self, name: str, fn):
        note_of = NOTES.get(name)
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        idx = self._open(name)
                        start = perf_counter()
                        yielded = None
                        try:
                            item = next(gen)
                            yielded = 1
                        except StopIteration:
                            return
                        finally:
                            self._close(idx, start, yielded)
                        yield item
                finally:
                    gen.close()

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            start = perf_counter()
            note = None
            try:
                result = fn(*args, **kwargs)
                if note_of is not None:
                    note = note_of(args, result)
                return result
            finally:
                self._close(idx, start, note)

        return traced

    def dump(self, path: str, ops: list[tuple[int, int]]) -> None:
        """Write spans as gzipped JSON lines; ``ops`` gives each op's span range."""
        with gzip.open(path, "wt") as out:
            for op, (lo, hi) in enumerate(ops):
                for i in range(lo, hi):
                    name, start, end, parent, note = self.spans[i]
                    out.write(json.dumps([op, i, name, start, end, parent, note]) + "\n")


def summarize(spans, lo: int, hi: int) -> dict:
    """Per-name totals of the spans in ``spans[lo:hi]``, one op's worth.

    Each name gets its span count, its total and self time in ms, and the
    count and sum of its notes.  Self time is a span's duration minus the
    durations of its children; spans nest strictly, so children never
    overlap.  ``roots_ms`` is the total duration of the top-level spans,
    which the self times add up to.
    """
    child: dict[int, float] = defaultdict(float)
    for name, start, end, parent, note in spans[lo:hi]:
        if parent >= 0:
            child[parent] += end - start
    layers: dict = {}
    roots = 0.0
    for i in range(lo, hi):
        name, start, end, parent, note = spans[i]
        entry = layers.setdefault(
            name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0, "noted": 0, "note_sum": 0})
        entry["calls"] += 1
        entry["total_ms"] += (end - start) * 1000
        entry["self_ms"] += (end - start - child[i]) * 1000
        if note is not None:
            entry["noted"] += 1
            entry["note_sum"] += note
        if parent < 0:
            roots += end - start
    return {"layers": layers, "roots_ms": roots * 1000}
