"""Outside-in span recorder for the flatwitness benchmark.

``install`` wraps, without editing the library:

* every public function defined in a ``flatwitness`` module, in every
  ``flatwitness.*`` namespace that binds it (``acceptance`` and ``cli``
  import names directly), and in module-level lists that hold it (the
  acceptance battery keeps its criteria in one);
* the methods ``GridFunction.spectrum`` and ``OuterFunction.__call__``;
* the numpy kernels ``numpy.fft.fft``, ``numpy.fft.ifft`` and
  ``numpy.polyval``, with their work counted as transform points and
  coefficient-points.

Each call becomes a span ``(id, parent, op, name, start_ns, end_ns)``; spans
stay in memory until the run writes them out.  The recorder assumes one
thread of control, which holds because the benchmark runs the library with
``FLATWITNESS_THREADS=1``.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import defaultdict

import numpy as np

PACKAGE = "flatwitness"
KERNELS = (("numpy.fft.fft", np.fft, "fft"), ("numpy.fft.ifft", np.fft, "ifft"),
           ("numpy.polyval", np, "polyval"))


def _fft_points(args, kwargs):
    n = kwargs.get("n", args[1] if len(args) > 1 else None)
    return int(n) if n is not None else int(np.shape(args[0])[-1])


def _polyval_points(args, kwargs):
    p = args[0] if args else kwargs["p"]
    x = args[1] if len(args) > 1 else kwargs["x"]
    return int(np.size(p)) * int(np.size(x))


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []          # (id, parent, op, name, start_ns, end_ns)
        self.work = defaultdict(int)   # kernel name -> points or coeff_points
        self.op_id = -1
        self._stack = [-1]
        self._next = 0

    def wrap(self, name, fn, work=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next
            self._next += 1
            parent = stack[-1]
            if work is not None:
                self.work[name] += work(args, kwargs)
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, self.op_id, name, start, end))

        return traced

    def summary(self):
        """Per span name: calls, total ms and self ms (total minus direct children)."""
        child_ns = defaultdict(int)
        for _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for span_id, _, _, name, start, end in self.spans:
            row = out[name]
            row["calls"] += 1
            row["ms"] += (end - start) / 1e6
            row["self_ms"] += (end - start - child_ns[span_id]) / 1e6
        return out

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("id\tparent\top\tname\tstart_ns\tend_ns\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")


def _library_modules():
    return [m for name, m in sorted(sys.modules.items())
            if isinstance(m, types.ModuleType)
            and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def install(tracer: Tracer) -> int:
    """Wrap the library and the numpy kernels; return how many callables were wrapped."""
    modules = _library_modules()
    wrapped = {}
    for mod in modules:
        if mod.__name__ == PACKAGE:
            continue
        short = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                wrapped[obj] = tracer.wrap(f"{short}.{attr}", obj)
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
            elif isinstance(obj, list):
                for i, item in enumerate(obj):
                    if isinstance(item, types.FunctionType) and item in wrapped:
                        obj[i] = wrapped[item]

    hardy = sys.modules[PACKAGE + ".hardy_engine"]
    for cls, meth in ((hardy.GridFunction, "spectrum"), (hardy.OuterFunction, "__call__")):
        setattr(cls, meth, tracer.wrap(f"hardy_engine.{cls.__name__}.{meth}",
                                       getattr(cls, meth)))
    for name, owner, attr in KERNELS:
        work = _polyval_points if attr == "polyval" else _fft_points
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), work))
    return len(wrapped) + 2 + len(KERNELS)
