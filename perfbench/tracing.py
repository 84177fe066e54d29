"""Per-layer tracing, applied from outside the package.

``Tracer.install`` replaces each layer function listed in ``LAYERS`` with a
wrapper that records one span (name, start, end, parent span, pass index,
and one optional count) per call.  The wrapper is bound at every import
site: any ``dirac_qca`` module attribute that is the original function
object is rebound, so ``from .automaton import evolve_momentum`` in
``cli`` and ``from .dispersion import omega`` in ``discrimination`` are
traced as well as the defining modules.  Calls that resolve the name
through a module's globals at call time therefore all pass through the
wrapper.

Spans are kept in flat arrays in memory and written out once, at the end.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import tracemalloc
from array import array

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _points(args, kwargs):
    return float(np.size(_arg(args, kwargs, 0, "k")))


def _site_steps(args, kwargs):
    return float(_arg(args, kwargs, 0, "field").L * int(_arg(args, kwargs, 2, "t")))


def _file_bytes(args, kwargs):
    return float(os.path.getsize(_arg(args, kwargs, 0, "path")))


def _expected_kept_draws(args, kwargs):
    # each sample holds configs_per_state configurations of a particle count
    # uniform on {1..N_bar}: on average configs * (N_bar + 1) / 2 kept momenta
    inp = _arg(args, kwargs, 0, "inp")
    samples = _arg(args, kwargs, 1, "samples")
    configs = kwargs.get("configs_per_state", 8)
    return samples * configs * (inp.N_bar + 1) / 2.0


# module -> {function: counter or None}; the counter's value is summed per pass
LAYERS = {
    "cli": {"main": None, "_write_csv": _file_bytes, "_write_json": None},
    "svgplot": {"write_plot": _file_bytes},
    "automaton": {
        "evolve_position": _site_steps,
        "evolve_momentum": None,
        "transform": None,
        "inverse_transform": None,
        "symmetry_check": None,
    },
    "dispersion": {
        "omega": _points,
        "sin_omega": _points,
        "dirac_omega": _points,
        "derivatives": _points,
        "branch_spinors": None,
    },
    "wavepacket": {"build": None, "position_moments": None},
    "approx": {"schrodinger_evolve": None, "fidelity": None, "accuracy_bound": None},
    "discrimination": {
        "mu": _points,
        "extremal_alpha_beta": None,
        "pe_lower_bound": None,
        "t_min_exact": None,
        "validate_bound_montecarlo": _expected_kept_draws,
    },
    "flytime": {"visibility_report": None},
}

MEMORY_SPAN = "discrimination.validate_bound_montecarlo"
PASS_SPAN = "pass"


class Tracer:
    """Spans of one traced child process.

    ``pass_index`` tags every span; only spans with a nonnegative index
    (the timed passes) enter the per-layer figures.  While ``memory`` is
    set, calls of ``MEMORY_SPAN`` run under ``tracemalloc`` and their peaks
    are kept in ``peaks``; that pass is run apart from the timed ones so
    the cost of tracing memory stays out of every self time.
    """

    def __init__(self):
        self.names = []
        self.fid = array("i")
        self.parent = array("i")
        self.pass_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self.stack = [-1]
        self.pass_index = -1
        self.memory = False
        self.peaks = []
        self._pass = self._wrap(PASS_SPAN, lambda body: body(), None)  # span id 0

    def _open(self, fid):
        idx = len(self.start)
        self.fid.append(fid)
        self.parent.append(self.stack[-1])
        self.pass_of.append(self.pass_index)
        self.start.append(0.0)
        self.end.append(0.0)
        self.value.append(0.0)
        self.stack.append(idx)
        return idx

    def _wrap(self, name, fn, counter):
        fid = len(self.names)
        self.names.append(name)
        memory = name == MEMORY_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(fid)
            tracing_memory = memory and self.memory
            if tracing_memory:
                tracemalloc.start()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
                if tracing_memory:
                    self.peaks.append(tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if counter is not None:
                self.value[idx] = counter(args, kwargs)
            return result

        return traced

    def install(self):
        """Wrap every layer function at every ``dirac_qca`` module that binds it."""
        wrappers = {}
        for module_name, functions in LAYERS.items():
            module = sys.modules[f"dirac_qca.{module_name}"]
            for func, counter in functions.items():
                original = getattr(module, func)
                wrappers[id(original)] = self._wrap(f"{module_name}.{func}", original, counter)
        modules = [m for name, m in sys.modules.items() if name == "dirac_qca" or name.startswith("dirac_qca.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])

    def run_pass(self, body):
        """Run ``body()`` inside one pass span; return its wall time."""
        idx = len(self.start)
        self._pass(body)
        return self.end[idx] - self.start[idx]

    def calls_of(self, name: str) -> int:
        return int(np.count_nonzero(np.frombuffer(self.fid, dtype=np.int32) == self.names.index(name)))

    def write(self, path: str):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            fid=np.frombuffer(self.fid, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            pass_index=np.frombuffer(self.pass_of, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            value=np.frombuffer(self.value),
        )

    def summary(self) -> dict:
        """Per-layer figures: the median over timed passes of per-pass sums.

        Returns ``{span name: {"self_s", "calls", "value"}}`` plus the pass
        figures under ``"pass"``, where ``uncovered_share`` is the share of
        a pass that no layer span covers.  Self time is a span's duration
        minus the durations of its direct children; calls nest on one
        thread, so children never overlap.
        """
        fid = np.frombuffer(self.fid, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        pass_of = np.frombuffer(self.pass_of, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        value = np.frombuffer(self.value)
        covered = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(covered, parent[nested], duration[nested])
        self_time = duration - covered

        timed = pass_of >= 0
        if not timed.any():
            raise RuntimeError("no timed traced pass to summarize")
        passes = int(pass_of[timed].max()) + 1
        n = len(self.names)
        key = pass_of[timed].astype(np.int64) * n + fid[timed]

        def per_pass(weights):
            return np.bincount(key, weights=weights, minlength=passes * n).reshape(passes, n)

        self_s = per_pass(self_time[timed])
        calls = np.median(per_pass(np.ones(int(timed.sum()))), axis=0)
        values = np.median(per_pass(value[timed]), axis=0)
        pass_time = per_pass(duration[timed])[:, 0]
        out = {
            PASS_SPAN: {
                "passes": passes,
                "p50_s": float(np.median(pass_time)),
                "uncovered_share": float(np.median(self_s[:, 0] / pass_time)),
            }
        }
        self_s = np.median(self_s, axis=0)
        for i, name in enumerate(self.names[1:], start=1):
            out[name] = {"self_s": float(self_s[i]), "calls": float(calls[i]), "value": float(values[i])}
        return out
