"""Outside-in tracer: wraps the public functions of every curlowrank module.

The tracer leaves the package's source alone.  It replaces each public
module-level function with a wrapper that records a span
``(name, start_ns, end_ns, parent, call_id)`` in memory, and it rebinds the
wrapper on every module attribute that holds the original function (the
defining module and every ``from .x import f`` binding, including the package
namespace).  ``numpy.linalg.svd``, ``numpy.linalg.norm`` and
``numpy.linalg.matrix_rank`` are wrapped with counters instead of spans, and
only calls whose direct caller lives in the package are counted.
``uninstall`` puts every original back; ``restored`` checks that by identity.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "harness", "cluster", "deim", "cur", "sampling", "linalg", "mmio")
PACKAGE = "curlowrank"


def svd_flops(shape, compute_uv=True, full_matrices=True):
    """Flop count of a dense SVD of a ``p x q`` matrix (``p >= q``), from its shape only.

    Golub & Van Loan, Matrix Computations (4th ed.), Fig. 8.6.1, Golub-Reinsch
    column: singular values only ``4pq^2 - 4q^3/3``; thin factors
    ``14pq^2 + 8q^3``; full factors ``4p^2q + 8pq^2 + 9q^3``.
    """
    p, q = max(shape[-2:]), min(shape[-2:])
    if not compute_uv:
        return 4.0 * p * q * q - 4.0 * q ** 3 / 3.0
    if not full_matrices:
        return 14.0 * p * q * q + 8.0 * q ** 3
    return 4.0 * p * p * q + 8.0 * p * q * q + 9.0 * q ** 3


class Tracer:
    """Span recorder for one traced replay; create, ``install``, run, ``uninstall``."""

    def __init__(self):
        # one entry per span in each column: name, start_ns, end_ns, parent span, call id
        self.names = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.call_ids = array("q")
        self.call_id = -1
        self.svd_calls = 0
        self.svd_flops = 0.0
        self.draws = 0
        self.unique_draws = 0
        self.read_bytes = 0
        self._stack = []
        self._patches = []

    # -- patching -------------------------------------------------------
    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: sys.modules[f"{PACKAGE}.{name}"] for name in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self._span_wrapper(f"{layer}.{attr}", obj)
        holders = [sys.modules[PACKAGE], *modules.values()]
        for holder in holders:
            for attr, obj in list(vars(holder).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(holder, attr, wrappers[obj])
        for attr in ("svd", "norm", "matrix_rank"):
            self._patch(np.linalg, attr, self._kernel_wrapper(attr, getattr(np.linalg, attr)))

    def _patch(self, holder, attr, wrapper):
        self._patches.append((holder, attr, getattr(holder, attr), wrapper))
        setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, original, _ in reversed(self._patches):
            setattr(holder, attr, original)

    @property
    def patched(self):
        """``(holder, attribute, original, wrapper)`` for every rebinding made."""
        return list(self._patches)

    def restored(self) -> bool:
        """True when every patched attribute is again the original object."""
        return all(getattr(h, a) is orig for h, a, orig, _ in self._patches)

    # -- wrappers -------------------------------------------------------
    def _span_wrapper(self, name, fn):
        names, starts, ends = self.names, self.starts, self.ends
        parents, call_ids = self.parents, self.call_ids
        stack = self._stack
        clock = time.perf_counter_ns
        observe = {
            "cur.randomized_cur": self._observe_draws,
            "mmio.read_matrix": self._observe_read,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            call_ids.append(self.call_id)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = start
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _observe_draws(self, args, factors):
        for index_set in (factors.I, factors.J):
            self.draws += len(index_set.indices)
            self.unique_draws += len(set(index_set.indices))

    def _observe_read(self, args, result):
        self.read_bytes += os.path.getsize(args[0])

    def _kernel_wrapper(self, attr, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if caller.startswith(PACKAGE + "."):
                self._count_kernel(attr, args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _count_kernel(self, attr, args, kwargs):
        x = args[0]
        if attr == "svd":
            uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
            full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
            flops = svd_flops(np.shape(x), uv, full)
        elif attr == "norm":
            order = kwargs.get("ord", args[1] if len(args) > 1 else None)
            axis = kwargs.get("axis", args[2] if len(args) > 2 else None)
            if order != 2 or np.ndim(x) != 2 or axis is not None:
                return
            flops = svd_flops(np.shape(x), compute_uv=False)
        else:
            if np.ndim(x) < 2:
                return
            flops = svd_flops(np.shape(x), compute_uv=False)
        self.svd_calls += 1
        self.svd_flops += flops

    # -- results --------------------------------------------------------
    def aggregate(self):
        """Per-layer self time and call counts, and inclusive time per function.

        Self time is a span's duration minus the durations of its direct
        children (the package is single-threaded, so children nest inside
        their parent's interval).
        """
        child_ns = [0] * len(self.names)
        for start, end, parent in zip(self.starts, self.ends, self.parents):
            if parent >= 0:
                child_ns[parent] += end - start
        layer_self = dict.fromkeys(LAYERS, 0)
        layer_calls = dict.fromkeys(LAYERS, 0)
        fn_total = {}
        fn_calls = {}
        for idx, (name, start, end) in enumerate(zip(self.names, self.starts, self.ends)):
            layer = name.partition(".")[0]
            layer_self[layer] += end - start - child_ns[idx]
            layer_calls[layer] += 1
            fn_total[name] = fn_total.get(name, 0) + end - start
            fn_calls[name] = fn_calls.get(name, 0) + 1
        return layer_self, layer_calls, fn_total, fn_calls

    def write_spans(self, path):
        """One tab-separated line per span, in start order."""
        with open(path, "w") as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\tcall_id\n")
            rows = zip(self.names, self.starts, self.ends, self.parents, self.call_ids)
            for idx, (name, start, end, parent, call_id) in enumerate(rows):
                fh.write(f"{idx}\t{name}\t{start}\t{end}\t{parent}\t{call_id}\n")
