"""In-memory spans around calls into the hseom package.

A span is [name, start, end, parent]: the name is "<layer>.<call>", the
times come from time.perf_counter, and parent is the index of the span
that was open when this one began (-1 for none).  Calls run on one thread,
so spans nest strictly and a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import collections
import functools
import inspect
import time
from typing import Callable, Dict, Iterable, List, Optional


class Tracer:
    """Records spans and counters; nothing is written until ``dump``."""

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Dict[str, float] = collections.Counter()
        self._open: List[int] = []

    def wrap(self, name: str, fn: Callable,
             on_call: Optional[Callable[[Dict, "Tracer"], None]] = None):
        """``fn`` with a span named ``name`` around every call.

        ``on_call`` receives the call's arguments bound to ``fn``'s
        parameter names, for counters read off the arguments.
        """
        signature = inspect.signature(fn) if on_call else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(signature.bind(*args, **kwargs).arguments, self)
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()

        return traced

    def patch(self, owner, attr: str, name: str, on_call=None) -> None:
        """Replace ``owner.attr`` (a module global or a class method)."""
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), on_call))

    def dump(self) -> Dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def self_times(spans: List[list]) -> List[float]:
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i]
            for i, (_, start, end, _) in enumerate(spans)]


def subtree(spans: List[list], roots: Iterable[int]) -> List[int]:
    """Indices of the given spans and all their descendants."""
    inside = set(roots)
    # a child always comes after its parent in recording order
    for i, (_, _, _, parent) in enumerate(spans):
        if parent in inside:
            inside.add(i)
    return sorted(inside)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def solve_roots(spans: List[list]) -> List[int]:
    """The observable calls made by the subcommand itself."""
    return [i for i, (name, _, _, parent) in enumerate(spans)
            if layer_of(name) == "observables"
            and (parent < 0 or layer_of(spans[parent][0]) != "observables")]
