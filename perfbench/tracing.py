"""Span tracing around the public functions of the semimarket modules.

Each traced function is replaced by a wrapper in the namespace its caller
looks it up in, so a call made through that name records a span
(name, start, end, parent, run id).  Spans stay in memory and are written out
once, when the run ends.  Nothing inside the package is changed on disk and
the package has no tracing switch of its own: the benchmark patches module
attributes for the length of a traced pass and restores them afterwards.
"""
from __future__ import annotations

import functools
import json
import os
import time

import numpy as np

from semimarket import experiments, fbm, integrals, market, paths, renewal, \
    stationary_law

# (namespace object, attribute, span name).  A function is patched where its
# caller resolves it: `states_at_times` was imported by name into experiments,
# the renewal helpers are module globals of renewal, SamplePath.to_csv is a
# method of the class.
TRACED = (
    (renewal, "solve_volterra", "renewal.solve_volterra"),
    (renewal, "covariance_gamma", "renewal.covariance_gamma"),
    (renewal, "first_passage", "renewal.first_passage"),
    (renewal, "conv_stieltjes", "renewal.conv_stieltjes"),
    (renewal, "stationary_transition", "renewal.stationary_transition"),
    (renewal, "key_renewal_asymptote", "renewal.key_renewal_asymptote"),
    (renewal, "write_grid_csv", "io.write_grid_csv"),
    (paths.SamplePath, "to_csv", "io.to_csv"),
    (market, "simulate_market", "market.simulate_market"),
    (market, "markov_market", "market.markov_market"),
    (fbm, "sample_fbm", "fbm.sample_fbm"),
    (fbm, "hurst_variogram", "fbm.hurst_variogram"),
    (fbm, "hurst_aggregated_variance", "fbm.hurst_aggregated_variance"),
    (experiments, "states_at_times", "semi_markov.states_at_times"),
    (experiments, "run", "experiments.run"),
    (experiments, "limit_constant_comparison", "experiments.limit_constant_comparison"),
) + tuple((integrals, fn, f"integrals.{fn}") for fn in integrals.__all__
          if fn != "PartitionLadder")


class Tracer:
    """Collects spans and work counters while its wrappers are installed."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, run id]
        self.points = 0      # grid points handed to solve_volterra
        self.bytes_written = 0
        self.agent_events = 0.0
        self.market_keys = []
        self._stack = []
        self._patched = []
        self.run_id = -1

    # -- installation -------------------------------------------------------

    def install(self, run_id):
        self.run_id = run_id
        for owner, attr, name in TRACED:
            original = owner.__dict__[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn):
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent, self.run_id]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                counter(self, name, args, kwargs)
            return out

        return traced

    # -- summaries ----------------------------------------------------------

    def write(self, path):
        """Write every span as one JSON line: name, start, end, parent, run."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id}) + "\n")

    def layer_totals(self):
        """Per span name: (calls, busy seconds, self seconds).

        Busy time counts a span only when no enclosing span has the same
        name; self time is a span's duration minus its direct children.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {}
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            calls, busy, self_s = totals.get(name, (0, 0.0, 0.0))
            nested = self._has_ancestor(parent, lambda n: n == name)
            totals[name] = (calls + 1, busy + (0.0 if nested else end - start),
                            self_s + (end - start) - child_time[idx])
        return totals

    def busy_of_prefix(self, prefix):
        """Time in spans whose name starts with `prefix`, outermost only."""
        total = 0.0
        for name, start, end, parent, _ in self.spans:
            if name.startswith(prefix) and \
                    not self._has_ancestor(parent, lambda n: n.startswith(prefix)):
                total += end - start
        return total

    def _has_ancestor(self, idx, pred):
        while idx >= 0:
            if pred(self.spans[idx][0]):
                return True
            idx = self.spans[idx][3]
        return False


def _count_points(tracer, name, args, kwargs):
    forcing = args[0] if args else kwargs["forcing"]
    tracer.points += int(np.shape(forcing)[-1])


def _count_bytes(tracer, name, args, kwargs):
    target = args[1] if args and isinstance(args[0], paths.SamplePath) else args[0]
    tracer.bytes_written += os.path.getsize(target)


def _count_market(tracer, name, args, kwargs):
    """Computed event count N (T/eps) / (pi . m) and the replicate's identity."""
    cfg = args[0] if args else kwargs["cfg"]
    replicate = args[1] if len(args) > 1 else kwargs.get("replicate", 0)
    law = stationary_law(cfg.model)
    tracer.agent_events += cfg.n_agents * (cfg.horizon / cfg.epsilon) / float(law.pi @ law.m)
    tracer.market_keys.append((name, cfg.seed, int(replicate), cfg.n_agents,
                               cfg.epsilon, cfg.horizon, cfg.n_grid))


_COUNTERS = {
    "renewal.solve_volterra": _count_points,
    "io.write_grid_csv": _count_bytes,
    "io.to_csv": _count_bytes,
    "market.simulate_market": _count_market,
    "market.markov_market": _count_market,
}
