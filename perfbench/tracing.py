"""Per-layer spans and work counts, recorded from outside the program.

:class:`Tracer` replaces every public function of the layer modules with a
wrapper that records a span (layer, name, start, end, parent) and, for the
functions that do bulk work, a count taken from the call's arguments or
from the items a generator yields.  Names bound elsewhere with
``from .x import y`` (for example ``thermo.spectral_radius`` or
``twisted.iter_pq_rows``) are rebound too, so calls through them are
recorded.  A layer's self time is the time its spans cover minus the time
their child spans cover.  ``uninstall`` restores the original functions.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time
import types
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

from fareychain.rings import Params

LAYER_MODULES = ("cli", "thermo", "spinchain", "transfer", "twisted", "tree", "rings")
EIGEN = {"spectral_radius", "collocation_spectrum", "power_ratio_sequence", "smallest_determinant_zero"}

SELF_LAYERS = ("cli", "thermo", "spinchain", "transfer.leaf", "transfer.eigen", "twisted", "tree", "rings")


def _layer(module: str, name: str) -> str:
    mod = module.rpartition(".")[2]
    if mod == "transfer":
        return "transfer.eigen" if name in EIGEN else "transfer.leaf"
    return mod


def _is_exact(values) -> bool:
    for v in values:
        if isinstance(v, Params) and v.mode != "float":
            return True
        if isinstance(v, argparse.Namespace) and getattr(v, "mode", "float") != "float":
            return True
    return False


def _leaves(a) -> int:
    return 1 << (a["q"].n - 1)


# counter name -> amount, from the bound arguments of a call
CALL_COUNTS: Dict[str, Callable[[dict], Dict[str, int]]] = {
    "pq_tables": lambda a: {"spinchain.entries": 1 << a["k"]},
    "pc_qc_tables": lambda a: {"spinchain.entries": 1 << a["k"]},
    "iterate_one": lambda a: {"transfer.leaves": _leaves(a)},
    # m = 0 delegates to iterate_one, which counts its own leaves
    "iterate_character": lambda a: {"transfer.leaves": _leaves(a) if a["m"] else 0},
    "trace_power": lambda a: {"transfer.leaves": _leaves(a)},
    "periodic_sum_xi": lambda a: {"transfer.leaves": _leaves(a)},
    "extended_pairs": lambda a: {"transfer.leaves": 1 << (a["n"] - 1)},
    "spectral_radius": lambda a: {"transfer.power_checks": int(a.get("method", "auto") != "collocation")},
}


class Tracer:
    def __init__(self):
        # span: [layer, name, start, end, parent index, exact-mode arguments]
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self._patches: List[tuple] = []

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for mod_name in LAYER_MODULES:
            module = sys.modules[f"fareychain.{mod_name}"]
            for name, fn in vars(module).items():
                if (isinstance(fn, types.FunctionType) and not name.startswith("_")
                        and fn.__module__ == module.__name__):
                    wrappers[id(fn)] = self._wrap(fn, _layer(module.__name__, name), name)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.startswith("fareychain.") and module is not None:
                for attr, val in list(vars(module).items()):
                    if id(val) in wrappers and isinstance(val, types.FunctionType):
                        self._patches.append((module, attr, val))
                        setattr(module, attr, wrappers[id(val)])

    def uninstall(self) -> None:
        for module, attr, val in reversed(self._patches):
            setattr(module, attr, val)
        self._patches.clear()

    def _wrap(self, fn, layer: str, name: str):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter
        sig = inspect.signature(fn)
        counter = CALL_COUNTS.get(name)
        calls_key = f"{layer}.calls"

        def count(args, kwargs) -> bool:
            counts[calls_key] += 1
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                counts.update(counter(bound.arguments))
            return _is_exact(args) or _is_exact(kwargs.values())

        def open_span(exact: bool) -> list:
            span = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, exact]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            return span

        def close_span(span: list) -> None:
            span[3] = clock()
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            # the only public generator is spinchain.iter_pq_rows, which
            # yields (k, p_k, q_k); each next() is a span of its own
            def gen_wrapper(*args, **kwargs):
                exact = count(args, kwargs)
                gen = fn(*args, **kwargs)
                while True:
                    span = open_span(exact)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        close_span(span)
                    counts["spinchain.entries"] += len(item[1])
                    yield item

            return gen_wrapper

        def wrapper(*args, **kwargs):
            span = open_span(count(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(span)

        return wrapper

    # -- summary -------------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        """Self time per layer, time under exact-mode calls, and work counts."""
        spans = self.spans
        child = [0.0] * len(spans)
        for layer, name, t0, t1, parent, exact in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: Dict[str, float] = defaultdict(float)
        for layer in SELF_LAYERS:
            out[f"{layer}.self_s"] = 0.0
        exact_s = 0.0
        bisection = 0
        for i, (layer, name, t0, t1, parent, exact) in enumerate(spans):
            out[f"{layer}.self_s"] += (t1 - t0) - child[i]
            if exact and (parent < 0 or not spans[parent][5]):
                exact_s += t1 - t0
            if name == "spectral_radius" and self._under(i, "critical_line"):
                bisection += 1
        out["rings.exact_s"] = exact_s
        out["thermo.bisection_steps"] = bisection
        for key in ("spinchain.calls", "spinchain.entries", "transfer.leaves",
                    "transfer.eigen.calls", "transfer.power_checks"):
            out[key] = self.counts[key]
        return dict(out)

    def _under(self, i: int, name: str) -> bool:
        parent: Optional[int] = self.spans[i][4]
        while parent >= 0:
            if self.spans[parent][1] == name:
                return True
            parent = self.spans[parent][4]
        return False
