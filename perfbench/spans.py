"""In-memory spans around the public functions of the actdock modules.

The program is not edited: `Patches` swaps a wrapper in for a function at the
name its caller looks it up by (a module global or a class attribute) and puts
the original back on `restore()`. A wrapper records one span per call; a
span's self time is its duration minus the time its direct child spans cover.

Which name is patched decides what a span contains. `infer_chunk` calls
`embed_observation` and `predict_chunk` through the policy module, which is
left alone, so the `policy.infer_chunk` span holds the whole forward pass;
training calls them through the training module, where they are patched.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict

_now = time.perf_counter_ns


class Patches:
    """Replaced attributes, restorable in reverse order."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, attr: str, make_wrapper) -> None:
        """Replace owner.attr by make_wrapper(original function)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            replacement = classmethod(make_wrapper(raw.__func__))
        else:
            replacement = make_wrapper(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


class Tracer:
    """Spans as parallel arrays of name index, start, end and parent index,
    kept until `dump`. Arrays rather than tuples keep the spans out of the
    garbage collector's way, which would otherwise walk them on every
    collection the traced program triggers."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack: list[int] = []
        self.active = True

    def wrapper(self, name: str):
        if name not in self.names:
            self.names.append(name)
        name_index = self.names.index(name)

        def make(fn):
            def traced(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                idx = len(self.start)
                self.name_of.append(name_index)
                self.parent.append(self._stack[-1] if self._stack else -1)
                self.end.append(0)
                self._stack.append(idx)
                self.start.append(_now())
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.end[idx] = _now()
                    self._stack.pop()

            return traced

        return make

    def mark(self) -> int:
        """Index that separates spans recorded before this call from later ones."""
        return len(self.start)

    def summary(self, first: int = 0, last: int | None = None) -> dict:
        """{name: [calls, total_ns, self_ns]} over spans first..last-1.

        Only completed spans count, so call this outside any traced call."""
        last = len(self.start) if last is None else last
        child_ns = defaultdict(int)
        for idx in range(first, last):
            if self.parent[idx] >= first:
                child_ns[self.parent[idx]] += self.end[idx] - self.start[idx]
        out: dict = {}
        for idx in range(first, last):
            row = out.setdefault(self.names[self.name_of[idx]], [0, 0, 0])
            took = self.end[idx] - self.start[idx]
            row[0] += 1
            row[1] += took
            row[2] += took - child_ns[idx]
        return out

    def dump(self, path) -> None:
        """Write the spans as parallel lists; `name` indexes `names`."""
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"names": self.names, "name": self.name_of.tolist(),
                       "start_ns": self.start.tolist(), "end_ns": self.end.tolist(),
                       "parent": self.parent.tolist()}, f, separators=(",", ":"))
