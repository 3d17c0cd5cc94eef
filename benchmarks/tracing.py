"""In-memory span recorder for the traced benchmark run.

A span is (id, parent, name, tag, start_ns, end_ns).  The layer is the
first dotted part of the name: "dvm", "network", "training", "signals",
"complexity", "cli", or "bench" for the benchmark's own work.  Spans are
kept in a list and written out once, when the run ends.

A disabled Tracer records nothing, so the same workload code runs traced
and untraced and the difference between the two walls is the tracing
overhead.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
from time import perf_counter_ns

_NULL = contextlib.nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []   # [id, parent, name, tag, start_ns, end_ns]
        self._stack: list = []

    def span(self, name: str, tag: str = ""):
        if not self.enabled:
            return _NULL
        return self._span(name, tag)

    @contextlib.contextmanager
    def _span(self, name, tag):
        rec = [len(self.spans), self._stack[-1] if self._stack else -1,
               name, tag, perf_counter_ns(), 0]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield rec
        finally:
            rec[5] = perf_counter_ns()
            self._stack.pop()

    def call(self, name: str, fn, *args, tag: str = "", **kwargs):
        """Call fn inside a span named name (a plain call when disabled)."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self._span(name, tag):
            return fn(*args, **kwargs)

    def wrap(self, name: str, fn):
        """fn with every call recorded as a span named name."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self._span(name, ""):
                return fn(*args, **kwargs)
        return traced

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list:
        """Self time of each span: its duration minus the part of it that its
        child spans cover.  Children of one span never overlap (one thread,
        strictly nested), so the covered part is the sum of their durations."""
        out = [s[5] - s[4] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                out[s[1]] -= s[5] - s[4]
        return out

    def subtree(self, root_id: int) -> list:
        """Ids of root_id and every span below it (ids grow with start time)."""
        keep = {root_id}
        for s in self.spans[root_id + 1:]:
            if s[1] in keep:
                keep.add(s[0])
        return sorted(keep)

    def select(self, name: str, tag: str | None = None) -> list:
        return [s[0] for s in self.spans
                if s[2] == name and (tag is None or s[3] == tag)]

    def median_ms(self, name, tag=None, self_time=False) -> float:
        ids = self.select(name, tag)
        if not ids:
            raise KeyError(f"no span {name!r} tag {tag!r}")
        st = self.self_times() if self_time else None
        vals = [(st[i] if self_time else self.spans[i][5] - self.spans[i][4]) / 1e6
                for i in ids]
        return statistics.median(vals)

    def layer_self_ms(self) -> dict:
        """Summed self time of every span, by layer."""
        out: dict = {}
        for s, own in zip(self.spans, self.self_times()):
            layer = s[2].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + own / 1e6
        return out

    def write(self, path: str, header: dict, append: bool = False) -> None:
        st = self.self_times()
        with open(path, "a" if append else "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for s, own in zip(self.spans, st):
                fh.write(json.dumps({
                    "id": s[0], "parent": s[1], "name": s[2], "tag": s[3],
                    "start_ns": s[4], "end_ns": s[5], "self_ns": own,
                }) + "\n")


@contextlib.contextmanager
def patched(tracer: Tracer, targets):
    """Temporarily replace module attributes with span-recording wrappers.

    targets is a list of (module, attribute, span name).  The CLI imports its
    collaborators inside each subcommand, so wrapping the module attribute
    records exactly the calls the cli layer makes into the other layers,
    without touching the program's source.
    """
    saved = []
    try:
        for mod, attr, name in targets:
            orig = getattr(mod, attr)
            saved.append((mod, attr, orig))
            setattr(mod, attr, tracer.wrap(name, orig))
        yield
    finally:
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)
