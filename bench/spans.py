"""Outside-in span tracing of lmint's public functions.

The tracer wraps every public function of the traced modules and rebinds
each name under which any lmint module (or the package itself) refers to
it, so a call from harness to `forward` or from cli to `run_mc` passes
through the wrapper.  Each call records a span (name, start, end, parent,
round) in memory, timed in CPU seconds of the process; self time is a span's
duration less that of its direct children.  Nothing in src/ changes, and a name a later version no longer
has or calls simply reports 0 calls.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np

#: Modules whose public functions are traced, in layer order.
MODULES = ("interferometer", "measurement", "estimators", "fisher", "harness", "cli")


def _shots(args, kwargs, result):
    plan = args[1] if len(args) > 1 else kwargs["plan"]
    return plan.n_samples


def _nfev(args, kwargs, result):
    return int(result.diagnostics.get("nfev", 0))


#: Counts read from a call's arguments or result: span name -> (count name, reader).
COUNTERS = {
    "measurement.sample": ("shots", _shots),
    "estimators.est_general_cov": ("nfev", _nfev),
}


class Tracer:
    def __init__(self):
        self.spans = []       # [name, start, end, parent index, round]
        self.counts = {}      # "<span name>.<count>" -> total
        self.round = -1
        self._stack = []
        self._restore = []    # (module, attribute, original)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.round]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.process_time()
                stack.pop()
            if counter is not None:
                key = f"{name}.{counter[0]}"
                self.counts[key] = self.counts.get(key, 0) + counter[1](args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap the public functions of MODULES wherever lmint binds them."""
        loaded = [m for n, m in sorted(sys.modules.items())
                  if (n == "lmint" or n.startswith("lmint.")) and m is not None]
        for short in MODULES:
            module = importlib.import_module(f"lmint.{short}")
            for attr, fn in vars(module).copy().items():
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != module.__name__:
                    continue
                traced = self._wrap(f"{short}.{attr}", fn)
                for holder in loaded:
                    for ref_name, value in vars(holder).copy().items():
                        if value is fn:
                            self._restore.append((holder, ref_name, fn))
                            setattr(holder, ref_name, traced)

    def uninstall(self):
        for holder, name, fn in reversed(self._restore):
            setattr(holder, name, fn)
        self._restore.clear()

    def layer_stats(self) -> dict:
        """name -> (self seconds, per-call durations in seconds)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = {}
        for k, (name, start, end, _, _) in enumerate(self.spans):
            entry = stats.setdefault(name, [0.0, []])
            entry[0] += end - start - child[k]
            entry[1].append(end - start)
        return stats

    def metrics(self, names) -> dict:
        """Per-layer metrics for the requested `<module>.<function>.<stat>` names;
        a layer never called reads 0."""
        stats = self.layer_stats()
        counted = {count for count, _ in COUNTERS.values()}
        out = {}
        for metric in names:
            layer, stat = metric.rsplit(".", 1)
            self_s, durations = stats.get(layer, (0.0, []))
            if stat in counted:
                out[metric] = float(self.counts.get(metric, 0))
            elif stat == "calls":
                out[metric] = float(len(durations))
            elif stat == "self_s":
                out[metric] = self_s
            else:  # call_ms_p50, call_ms_p90
                q = float(stat.rsplit("_p", 1)[1])
                out[metric] = 1e3 * float(np.percentile(durations, q)) if durations else 0.0
        return out

    def self_seconds(self) -> float:
        return sum(s for s, _ in self.layer_stats().values())

    def write(self, path):
        """Spans as JSON: one [name, start, end, parent, round] per call."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "round"],
                       "spans": self.spans, "counts": self.counts}, fh)
