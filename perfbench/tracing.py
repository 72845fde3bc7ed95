"""Spans around the public functions of each fracctrl layer, from outside.

``Tracer.install`` wraps every function a layer module exports and rebinds
the wrapper wherever the original is bound: fracctrl's modules import each
other's functions by name (``from .x import y``), so patching the defining
module alone would miss most calls.  ``ControlSignal.sample`` overrides are
wrapped as one span, ``fracsys.control_sample``.  Each span records name,
start, end, parent span and operation id; spans stay in memory until
``write``.  ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "mlkernel", "fraccalc", "fracsys", "controlsyn")


class Tracer:
    def __init__(self, warm_keys=()):
        self.spans = []       # [name, start, end, parent index, op id, raised]
        self.stack = []
        self.op_id = None
        self.counts = defaultdict(float)
        self.seen_keys = set(warm_keys)   # (alpha, beta) tables already built
        self._patches = []

    # ----------------------------------------------------------- recording
    def _wrap(self, name, fn, count=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.op_id, False]
            stack.append(len(spans))
            spans.append(rec)
            if count is not None:
                count(rec, args, kwargs)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[2] = clock()
                stack.pop()
                if count is not None and len(rec) > 6:
                    self.counts[rec[6]] += rec[2] - rec[1]

        return wrapper

    def _count_ml_scalar(self, rec, args, kwargs):
        params = args[0] if args else kwargs["params"]
        key = (params.alpha, params.beta)
        if key not in self.seen_keys:
            self.seen_keys.add(key)
            self.counts["mlkernel.ml_scalar.cold_calls"] += 1
            rec.append("mlkernel.ml_scalar.cold_s")

    def _count_lags(self, rec, args, kwargs):
        s = args[3] if len(args) > 3 else kwargs["s"]
        self.counts["mlkernel.ml_matrix_batch.lags"] += getattr(s, "size", 1)

    def _count_sample(self, rec, args, kwargs):
        parent = self.spans[rec[3]][0] if rec[3] is not None else None
        if parent == "fracsys.simulate":
            times = args[1] if len(args) > 1 else kwargs["times"]
            self.counts["fracsys.simulate.fine_nodes"] += len(times) - 1

    # -------------------------------------------------------- installation
    def install(self) -> None:
        for layer in LAYERS:
            importlib.import_module(f"fracctrl.{layer}")
        mods = [m for name, m in list(sys.modules.items())
                if name == "fracctrl" or name.startswith("fracctrl.")]
        counters = {"mlkernel.ml_scalar": self._count_ml_scalar,
                    "mlkernel.ml_matrix_batch": self._count_lags}
        for layer in LAYERS:
            mod = sys.modules[f"fracctrl.{layer}"]
            names = getattr(mod, "__all__", None) or ["main"]  # cli exports only main
            for attr in names:
                fn = getattr(mod, attr, None)
                if not inspect.isfunction(fn):
                    continue
                span = f"{layer}.{attr}"
                wrapper = self._wrap(span, fn, counters.get(span))
                for m in mods:
                    for key, val in list(vars(m).items()):
                        if val is fn:
                            self._patches.append((m, key, fn))
                            setattr(m, key, wrapper)
        fracsys = sys.modules["fracctrl.fracsys"]
        for cls in vars(fracsys).values():
            if inspect.isclass(cls) and issubclass(cls, fracsys.ControlSignal) and "sample" in vars(cls):
                orig = vars(cls)["sample"]
                self._patches.append((cls, "sample", orig))
                setattr(cls, "sample", self._wrap("fracsys.control_sample", orig, self._count_sample))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    # ----------------------------------------------------------- reporting
    def summary(self) -> dict:
        """calls, self_s and errors per span name, plus the counters."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in (s[:6] for s in self.spans):
            if parent is not None:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for i, (name, t0, t1, parent, _, raised) in enumerate(s[:6] for s in self.spans):
            layer = name.split(".")[0]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (t1 - t0) - child[i]
            # an exception counts once per layer it leaves, not once per span
            if raised and not (parent is not None and self.spans[parent][5]
                               and self.spans[parent][0].split(".")[0] == layer):
                out[f"{layer}.errors"] += 1
        out.update(self.counts)
        return dict(out)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent, op, raised in (s[:6] for s in self.spans):
                fh.write(json.dumps({"name": name, "start": t0, "end": t1, "parent": parent,
                                     "op": op, "raised": raised}) + "\n")
