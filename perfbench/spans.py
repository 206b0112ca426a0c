"""Outside-in tracing of one obflow run, and the per-layer metrics it gives.

The tracer wraps public functions where obflow looks them up at call time
(module globals, a class attribute and ``numpy.fft``), so nothing in the
package changes.  Each call records a span ``(id, parent, name, start, end,
components)`` in memory; the spans are written out when the run ends and
self times are derived from them.  A span's self time is its duration minus
the durations of its direct children; calls are strictly nested because a
run is single-threaded.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np

import obflow.diagnostics
import obflow.experiments
import obflow.model
import obflow.stepping

FFT_FWD = "fft.fwd"
FFT_INV = "fft.inv"
STEP = "stepping.step"
CFL = "stepping.cfl_dt"
OBSERVE = "diagnostics.observe"
BUDGET = "diagnostics.energy_budget"
WRITE = "experiments.write_snapshot"
INTEGRATE = "experiments.integrate"
RUN = "experiments.run_single"
RHS = ("stepping.explicit_rhs", "model.explicit_rhs")
PROJECT = ("stepping.leray_project", "model.leray_project")

# (owner, attribute, span name); every attribute is looked up at call time
TARGETS = (
    (obflow.stepping, "step", STEP),
    (obflow.stepping, "cfl_dt", CFL),
    (obflow.stepping, "explicit_rhs", RHS[0]),
    (obflow.stepping, "leray_project", PROJECT[0]),
    (obflow.model, "explicit_rhs", RHS[1]),
    (obflow.model, "leray_project", PROJECT[1]),
    (obflow.diagnostics.DiagnosticsCollector, "observe", OBSERVE),
    (obflow.diagnostics, "energy_budget", BUDGET),
    (obflow.diagnostics, "stress_min_eigenvalue",
     "diagnostics.stress_min_eigenvalue"),
    (obflow.experiments, "write_snapshot", WRITE),
    (obflow.experiments, "integrate", INTEGRATE),
)


def _fft_components(args, kwargs) -> int:
    """Transformed components of one fftn/ifftn call: size / n^d."""
    a = np.asarray(args[0])
    axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
    axes = range(a.ndim) if axes is None else axes
    return a.size // math.prod(a.shape[ax] for ax in axes)


class Tracer:
    """Records nested spans of one run; install() patches, remove() restores."""

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.spans = []          # (id, parent, name, start, end, components)
        self._stack = [-1]
        self._ids = itertools.count()
        self._saved = []

    def span(self, name: str, fn, components=None):
        perf = time.perf_counter
        spans, stack, ids = self.spans, self._stack, self._ids

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            comps = components(args, kwargs) if components else 0
            stack.append(sid)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans.append((sid, parent, name, start, end, comps))

        return wrapper

    def install(self) -> None:
        targets = list(TARGETS) + [(np.fft, "fftn", FFT_FWD),
                                   (np.fft, "ifftn", FFT_INV)]
        for owner, attr, name in targets:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            counter = _fft_components if owner is np.fft else None
            setattr(owner, attr, self.span(name, fn, counter))

    def remove(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def write(self, path: Path) -> None:
        """Spans as JSON lines; times in seconds from the first start."""
        t0 = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w") as handle:
            for sid, parent, name, start, end, comps in self.spans:
                handle.write(json.dumps({
                    "run": self.run_id, "id": sid, "parent": parent,
                    "name": name, "start": start - t0, "end": end - t0,
                    "components": comps}) + "\n")


def self_times(spans) -> dict:
    """Span id -> (duration, self time)."""
    child = {}
    for sid, parent, _, start, end, _ in spans:
        child[parent] = child.get(parent, 0.0) + (end - start)
    return {sid: (end - start, (end - start) - child.get(sid, 0.0))
            for sid, _, _, start, end, _ in spans}


def _phase(spans) -> dict:
    """Span id -> 'step' below a step or cfl_dt span, 'record' below an
    observe span, None elsewhere."""
    by_id = {s[0]: s for s in spans}
    phase = {}
    for sid, parent, name, *_ in spans:
        node, found = parent, None
        while node != -1:
            pname = by_id[node][2]
            if pname in (STEP, CFL):
                found = "step"
                break
            if pname == OBSERVE:
                found = "record"
                break
            node = by_id[node][1]
        phase[sid] = found
    return phase


def layer_metrics(spans, grid_points: int, run_s: float) -> dict:
    """Per-layer metrics of one traced run (times in s unless named _ms).

    Also returns the raw step and observe durations under ``_step_ms`` and
    ``_observe_ms`` so that percentiles can be pooled across runs.
    """
    times = self_times(spans)
    phase = _phase(spans)
    by_id = {s[0]: s for s in spans}

    def total(names, part=0):
        return sum(times[s[0]][part] for s in spans if s[2] in names)

    def count(names, where=None):
        return sum(1 for s in spans
                   if s[2] in names and (where is None or phase[s[0]] == where))

    def comps(name, where):
        return sum(s[5] for s in spans if s[2] == name and phase[s[0]] == where)

    def comps_under_rhs(name):
        out = 0
        for s in spans:
            if s[2] == name and s[1] != -1 and by_id[s[1]][2] in RHS:
                out += s[5]
        return out

    steps = count((STEP,))
    records = count((OBSERVE,))
    rhs_calls = count(RHS)
    per_step = 1.0 / steps if steps else 0.0
    per_record = 1.0 / records if records else 0.0
    per_rhs = 1.0 / rhs_calls if rhs_calls else 0.0
    step_ms = [1e3 * (s[4] - s[3]) for s in spans if s[2] == STEP]
    observe_ms = [1e3 * (s[4] - s[3]) for s in spans if s[2] == OBSERVE]
    fft_s = total((FFT_FWD, FFT_INV))
    observe_s = total((OBSERVE,))
    inv_step = comps(FFT_INV, "step") * per_step
    fwd_step = comps(FFT_FWD, "step") * per_step
    write_spans = [s for s in spans if s[2] == WRITE]
    return {
        "spectral.fft_inv_comps_per_step": inv_step,
        "spectral.fft_fwd_comps_per_step": fwd_step,
        "spectral.fft_inv_comps_per_record": comps(FFT_INV, "record") * per_record,
        "spectral.fft_fwd_comps_per_record": comps(FFT_FWD, "record") * per_record,
        "spectral.fft_inv_comps_per_rhs": comps_under_rhs(FFT_INV) * per_rhs,
        "spectral.fft_fwd_comps_per_rhs": comps_under_rhs(FFT_FWD) * per_rhs,
        "spectral.fft_s": fft_s,
        "spectral.fft_share": fft_s / run_s,
        # computed: each component is read and written once as complex128
        "spectral.fft_bytes_per_step": (inv_step + fwd_step) * grid_points * 32,
        "spectral.project_calls_per_step": count(PROJECT, "step") * per_step,
        "spectral.project_s": total(PROJECT),
        "model.rhs_calls_per_step": count(RHS, "step") * per_step,
        "model.rhs_calls_per_record": count(RHS, "record") * per_record,
        "model.rhs_self_s": total(RHS, part=1),
        "model.budget_s": total((BUDGET,)),
        "stepping.step_self_s": total((STEP,), part=1),
        "stepping.cfl_calls": count((CFL,)),
        "stepping.cfl_s": total((CFL,)),
        "diagnostics.observe_calls": records,
        "diagnostics.observe_share": observe_s / run_s,
        "snapshots.write_calls": len(write_spans),
        "snapshots.write_s": total((WRITE,)),
        "experiments.post_s": total((RUN,)) - total((INTEGRATE,)),
        "_step_ms": step_ms,
        "_observe_ms": observe_ms,
    }
