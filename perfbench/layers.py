"""Per-layer metrics of a traced run: spans plus counts taken at the layer boundaries.

Self time is a span's duration minus the part of it that its child spans
cover (their union: pool tasks on several threads overlap), so
``spectra.diagonalize.self_s`` excludes the ``eigenvalues_only`` call it makes
and ``dynamics.propagate.self_s`` excludes ``build_sector`` and ``expm``.
Spans on the ``--jobs`` worker threads overlap in time; their self times add
up across threads and can exceed the wall time of the pass.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import Counter, defaultdict

from instrument import OBSERVE, arg

POOL = "cli._pool_map"
POOL_TASK = "cli.pool_task"

# every per-layer metric the benchmark reports, with its unit
METRICS = {
    "cli.self_s": "s",
    "cli.pool_busy_ratio": "ratio",
    "liouvillian.build_sector.calls": "count",
    "liouvillian.build_sector.self_s": "s",
    "spectra.eigenvalues_only.calls": "count",
    "spectra.eigenvalues_only.self_s": "s",
    "spectra.diagonalize.calls": "count",
    "spectra.diagonalize.self_s": "s",
    "spectra.diagonalize.eigvecs": "count",
    "spectra.eigvec_used_ratio": "ratio",
    "spectra.pair_distances.self_s": "s",
    "spectra.ep_scan.self_s": "s",
    "spectra.eigenvector_distance.self_s": "s",
    "spectra.fit.self_s": "s",
    "spectra.residual_max_rel": "ratio",
    "dynamics.propagate.calls": "count",
    "dynamics.propagate.self_s": "s",
    "dynamics.expm.calls": "count",
    "dynamics.expm.busy_s": "s",
    "dynamics.expm.calls_per_sector": "count",
    "dynamics.entropy.self_s": "s",
    "dynamics.expectation.self_s": "s",
    "dynamics.trace_drift_max": "abs",
    "dynamics.hermiticity_defect_max": "abs",
    "closed_forms.hp_states.self_s": "s",
    "closed_forms.thermal_ss.self_s": "s",
    "output.write_csv.calls": "count",
    "output.write_csv.self_s": "s",
    "output.write_csv.rows": "count",
    "output.write_csv.bytes": "B",
    "output.svg.self_s": "s",
    "verification.run_all_checks.self_s": "s",
}

# metrics that sum the self time of several functions
GROUPS = {
    "spectra.fit.self_s": ("spectra.fit_power_law", "spectra.fit_exponential"),
    "output.svg.self_s": ("output.svg_scatter", "output.svg_lines"),
}


class Gauges:
    """Counts and health figures gathered by observers during traced passes."""

    def __init__(self, recorder):
        self.recorder = recorder
        self._lock = threading.Lock()
        self.eigvecs = 0
        self.residual_max = 0.0
        self.columns = []  # [computed, used] per decomposition
        self._by_dec = {}  # id(dec) -> (weakref, entry)
        self.sectors = 0
        self.trace_drift = 0.0
        self.hermiticity = 0.0
        self.rows = 0
        self.bytes = 0
        self.pool_jobs = {}  # pool span id -> jobs

    def observers(self) -> dict:
        return {
            "spectra.diagonalize": self._diagonalize,
            "spectra.pair_distances": self._pair_distances,
            "spectra.ep_scan": self._ep_scan,
            "spectra.eigenvector_distance": self._eigenvector_distance,
            "dynamics.propagate": self._propagate,
            "output.write_csv": self._write_csv,
        }

    def pool_hook(self, args, kwargs):
        """Runs inside the pool span: note ``jobs`` and trace each task."""
        pool = self.recorder.stack()[-1]
        self.pool_jobs[pool[0]] = max(1, int(arg(args, kwargs, 0, "jobs")))
        task = self.recorder.span_wrapper(arg(args, kwargs, 1, "fn"), POOL_TASK, root=pool)
        if len(args) > 1:
            return args[:1] + (task,) + args[2:], kwargs
        return args, dict(kwargs, fn=task)

    def _diagonalize(self, args, kwargs, dec, parent):
        n = dec.right_eigenvectors.shape[1]
        rel = float(dec.residual_norms.max()) / max(dec.operator_scale, 1e-300)
        entry = [n, 0]
        with self._lock:
            self.eigvecs += n
            self.residual_max = max(self.residual_max, rel)
            self.columns.append(entry)
            self._by_dec[id(dec)] = (weakref.ref(dec), entry)

    def _use(self, dec, count):
        with self._lock:
            ref, entry = self._by_dec.get(id(dec), (None, None))
            if ref is not None and ref() is dec:
                entry[1] = max(entry[1], min(count, entry[0]))

    def _pair_distances(self, args, kwargs, d, parent):
        # ep_scan and near_defective_pairs call it internally; count direct use only
        if parent is None or not parent.startswith("spectra."):
            dec = arg(args, kwargs, 0, "dec")
            self._use(dec, dec.dim)

    def _ep_scan(self, args, kwargs, res, parent):
        dec = arg(args, kwargs, 0, "dec")
        self._use(dec, dec.dim if res.precursor_index is None else res.precursor_index + 1)

    def _eigenvector_distance(self, args, kwargs, d, parent):
        self._use(arg(args, kwargs, 0, "dec"), arg(args, kwargs, 1, "N") + 2)

    def _propagate(self, args, kwargs, states, parent):
        rho0 = arg(args, kwargs, 1, "rho0")
        tr0 = rho0.trace()
        drift = max((abs(s.trace() - tr0) for s in states), default=0.0)
        herm = max((s.hermiticity_defect() for s in states), default=0.0)
        with self._lock:
            self.sectors += len(rho0.sectors)
            self.trace_drift = max(self.trace_drift, drift)
            self.hermiticity = max(self.hermiticity, herm)

    def _write_csv(self, args, kwargs, path, parent):
        rows = arg(args, kwargs, 2, "rows")
        with self._lock:
            self.rows += len(rows)
            self.bytes += os.path.getsize(path)


def _covered_ns(intervals) -> int:
    """Length of the union of (start, end) intervals."""
    total, end = 0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def summarize(spans, gauges: Gauges, passes: int) -> dict:
    """Per-layer metrics per traced pass (ratios and maxima over all passes)."""
    intervals = defaultdict(list)
    for _, _, t0, t1, parent, _ in spans:
        intervals[parent].append((t0, t1))
    children = {sid: _covered_ns(iv) for sid, iv in intervals.items()}
    calls, self_ns, total_ns = Counter(), Counter(), Counter()
    for sid, name, t0, t1, _, _ in spans:
        if name == OBSERVE:
            continue
        calls[name] += 1
        total_ns[name] += t1 - t0
        self_ns[name] += (t1 - t0) - children.get(sid, 0)

    def per_pass(x):
        return x / passes

    def self_s(*names):
        return per_pass(sum(self_ns[n] for n in names) / 1e9)

    busy = capacity = 0
    for sid, name, t0, t1, _, _ in spans:
        if name == POOL:
            capacity += (t1 - t0) * gauges.pool_jobs.get(sid, 1)
        elif name == POOL_TASK:
            busy += t1 - t0
    computed = sum(c for c, _ in gauges.columns)
    used = sum(u for _, u in gauges.columns)
    out = {
        "cli.self_s": self_s(*(n for n in self_ns if n.startswith("cli."))),
        "cli.pool_busy_ratio": busy / capacity if capacity else 0.0,
        "spectra.diagonalize.eigvecs": per_pass(gauges.eigvecs),
        "spectra.eigvec_used_ratio": used / computed if computed else 0.0,
        "spectra.residual_max_rel": gauges.residual_max,
        "dynamics.expm.busy_s": per_pass(total_ns["dynamics.expm"] / 1e9),
        "dynamics.expm.calls_per_sector": calls["dynamics.expm"] / gauges.sectors if gauges.sectors else 0.0,
        "dynamics.trace_drift_max": gauges.trace_drift,
        "dynamics.hermiticity_defect_max": gauges.hermiticity,
        "output.write_csv.rows": per_pass(gauges.rows),
        "output.write_csv.bytes": per_pass(gauges.bytes),
    }
    for metric, names in GROUPS.items():
        out[metric] = self_s(*names)
    for metric in METRICS:
        if metric in out:
            continue
        fn, kind = metric.rsplit(".", 1)
        out[metric] = per_pass(calls[fn]) if kind == "calls" else self_s(fn)
    return {m: out[m] for m in METRICS}
