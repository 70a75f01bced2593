"""Outside-in tracing of the compspec layers.

Every public function of every ``compspec`` module is wrapped from
outside the library, and the wrapper is rebound in each ``compspec``
module that imported the function by name (so ``spectrum.certify_s2``
goes through the same wrapper as ``symbol.certify_s2``).  The
constructors of the library's dataclasses are wrapped as well, and the
numpy kernels the modules call are wrapped at their numpy module.

A wrapped call records a span (name, start, end, parent) in memory.  A
layer's self time is the duration of its spans minus the time their
child spans cover.  ``polyval`` and ``polyder`` run hundreds of
thousands of times per degree-64 document, so they are only counted.
Eigen-solves inside ``polyroots`` belong to ``polyroots``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

import numpy.linalg
import numpy.polynomial.polynomial as npoly

# numpy entry points: (module, attribute, span name); None = count only
KERNELS = [
    (npoly, "polyroots", "kernel.polyroots"),
    (npoly, "polyval", None),
    (npoly, "polyder", None),
    (numpy.linalg, "eigvals", "kernel.eig"),
    (numpy.linalg, "eig", "kernel.eig"),
    (numpy.linalg, "inv", "kernel.factor"),
    (numpy.linalg, "cond", "kernel.factor"),
]

# kernel spans started inside these spans are attributed to them
_ABSORBING = {"kernel.polyroots"}


class Tracer:
    """Spans and call counts of one traced stretch of requests."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- wrappers ---------------------------------------------------
    def _span(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] in _ABSORBING \
                    and name.startswith("kernel."):
                return fn(*args, **kwargs)
            counts[name] += 1
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    # -- install / remove -------------------------------------------
    def install(self, package: str = "compspec"):
        for mod, attr, name in KERNELS:
            fn = getattr(mod, attr)
            label = name or f"kernel.{attr}"
            self._patch(mod, attr, self._span(label, fn) if name
                        else self._counter(label, fn))
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == package
                                      or n.startswith(package + "."))]
        for mod in mods:
            if mod.__name__ == package:
                continue
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) \
                        != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._span(f"{layer}.{attr}", obj)
                    for other in mods:
                        for oattr, oval in list(vars(other).items()):
                            if oval is obj:
                                self._patch(other, oattr, wrapped)
                elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                    self._patch(obj, "__post_init__",
                                self._span(f"{layer}.{attr}.__init__",
                                           vars(obj)["__post_init__"]))

    def remove(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    # -- summaries --------------------------------------------------
    def self_times(self) -> Counter:
        """Seconds of self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def inclusive_times(self) -> Counter:
        """Seconds per span name, outermost spans of that name only."""
        names = [s[0] for s in self.spans]
        out: Counter = Counter()
        for name, start, end, parent in self.spans:
            p = parent
            nested = False
            while p >= 0:
                if names[p] == name:
                    nested = True
                    break
                p = self.spans[p][3]
            if not nested:
                out[name] += end - start
        return out
