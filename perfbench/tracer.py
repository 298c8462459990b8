"""In-memory span tracer for the benchmark's traced run.

While a :class:`Tracer` is installed, every attribute of a ``dreglab``
module that is bound to a traced function is replaced by a wrapper that
records a span.  Calls the library makes internally, such as the modular
eliminations inside ``rank_exact`` or the ``f_perp`` calls inside
``run_family_checks``, are therefore seen without editing the library.
Uninstalling restores the original bindings, so untraced code between
traced sections runs the library exactly as shipped.

A span is ``(trial, id, parent, name, start, end, busy, items)``.  ``busy``
is ``end - start`` for an ordinary call.  A generator's body runs in
slices between its consumer's pulls, so for a generator ``busy`` sums the
slices only and ``items`` counts what it yielded.  A span's self time is
its busy time minus the busy time of its child spans.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self, targets: dict[str, tuple[str, str]]):
        # span name -> (module, attribute) of the function it wraps
        self.targets = targets
        self.spans: list[tuple] = []
        self.trial: object = None
        self._stack: list[int] = []
        self._next_id = 0
        self._origin = perf_counter()
        self._bindings: list[tuple[object, str, object, object]] | None = None

    # ─── spans ─────────────────────────────────────────────────────────────

    def _open(self) -> tuple[int | None, int]:
        parent = self._stack[-1] if self._stack else None
        self._next_id += 1
        return parent, self._next_id

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        parent, sid = self._open()
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((self.trial, sid, parent, name, start, end, end - start, None))

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, sid = tracer._open()
            tracer._stack.append(sid)
            start = perf_counter()
            lazy = False
            try:
                result = fn(*args, **kwargs)
                lazy = inspect.isgenerator(result)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                if not lazy:
                    tracer.spans.append((tracer.trial, sid, parent, name, start, end, end - start, None))
            if lazy:
                return tracer._slices(result, sid, parent, name, start, end - start)
            return result

        return traced

    def _slices(self, inner, sid: int, parent: int | None, name: str, start: float, busy: float):
        """Pass a generator's items through, timing each slice of its body."""
        end = start + busy
        items = 0
        try:
            while True:
                self._stack.append(sid)
                t0 = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    end = perf_counter()
                    self._stack.pop()
                    busy += end - t0
                items += 1
                yield item
        finally:
            inner.close()
            self.spans.append((self.trial, sid, parent, name, start, end, busy, items))

    # ─── installation ──────────────────────────────────────────────────────

    def _find_bindings(self) -> list[tuple[object, str, object, object]]:
        modules = [
            m for key, m in sys.modules.items() if key == "dreglab" or key.startswith("dreglab.")
        ]
        bindings = []
        for name, (module, attr) in self.targets.items():
            original = getattr(sys.modules[module], attr, None)
            if original is None:
                continue  # the library no longer has this function: it reads as 0 calls
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        bindings.append((m, key, original, wrapper))
        return bindings

    @contextmanager
    def installed(self):
        if self._bindings is None:
            self._bindings = self._find_bindings()
        for m, key, _, wrapper in self._bindings:
            setattr(m, key, wrapper)
        try:
            yield self
        finally:
            for m, key, original, _ in self._bindings:
                setattr(m, key, original)

    # ─── results ───────────────────────────────────────────────────────────

    def _rows(self) -> list[tuple[object, str, float, float, int]]:
        """(trial, name, busy, self, items) per span."""
        child_busy: dict[int, float] = defaultdict(float)
        for _, _, parent, _, _, _, busy, _ in self.spans:
            if parent is not None:
                child_busy[parent] += busy
        return [
            (trial, name, busy, busy - child_busy[sid], items or 0)
            for trial, sid, _, name, _, _, busy, items in self.spans
        ]

    def by_name(self) -> dict[str, dict[str, list]]:
        """Per span name: busy and self times (seconds) and yielded items."""
        out: dict[str, dict[str, list]] = defaultdict(lambda: {"busy": [], "self": [], "items": []})
        for _, name, busy, own, items in self._rows():
            entry = out[name]
            entry["busy"].append(busy)
            entry["self"].append(own)
            entry["items"].append(items)
        return out

    def shares(self, root: str) -> dict[str, float]:
        """Each span name's summed self time as a share of the root spans' busy time.

        Only trials that have a root span count, so spans recorded outside
        the measured trials (such as set-up) do not enter a share.
        """
        rows = self._rows()
        trials = {trial for trial, name, *_ in rows if name == root}
        total = sum(busy for trial, name, busy, _, _ in rows if name == root)
        own: dict[str, float] = defaultdict(float)
        for trial, name, _, self_time, _ in rows:
            if trial in trials:
                own[name] += self_time
        return {name: t / total for name, t in sorted(own.items())} if total else {}

    def write(self, path) -> None:
        """Write every span as one gzipped JSON line, times relative to the tracer's creation."""
        with gzip.open(path, "wt") as fp:
            for trial, sid, parent, name, start, end, busy, items in self.spans:
                fp.write(
                    json.dumps(
                        {
                            "trial": trial,
                            "id": sid,
                            "parent": parent,
                            "name": name,
                            "start": start - self._origin,
                            "end": end - self._origin,
                            "busy": busy,
                            "items": items,
                        },
                        separators=(",", ":"),
                    )
                )
                fp.write("\n")


def median_ms(values: list[float]) -> float:
    return statistics.median(values) * 1000.0 if values else 0.0
