"""Span tracing from outside the program, and the per-layer metrics.

The tracer replaces a layer's public function by a wrapper under the name its
caller looks it up by: modules that import a function by name (``from .replica
import fm_sup``) get the wrapper installed in their own namespace.  A span is
(name, start, end, parent, job), kept in flat arrays so that the ~10^5 spans of
a rank-M search cost little memory; ``job`` counts ``cli.main`` calls.  A
span's self time is its duration minus the durations of its direct children,
which on one thread never overlap.
"""

from __future__ import annotations

import importlib
import inspect
import math
from array import array
from time import perf_counter

ENUM_FUNCS = ("posterior_replicates", "free_entropy_replicates", "overlap_concentration")

# (span name, module, attribute): every place a caller looks the function up,
# except logsumexp_matmul, wrapped only where replica looks it up (one call per
# rank-M ln Z evaluation); channel's own calls from mi_vector_signal are not spans
TARGETS = [
    ("cli.main", "wignerlab.cli", "main"),
    *[(f"simulator.{f}", "wignerlab.simulator", f) for f in ENUM_FUNCS],
    ("rng.stream", "wignerlab.rng", "stream"),
    ("cavity.build_table", "wignerlab.cavity", "build_table"),
    ("cavity.cavity_report", "wignerlab.cavity", "cavity_report"),
    ("replica.fm_sup", "wignerlab.reduction", "fm_sup"),
    ("replica.f1_sup", "wignerlab.replica", "f1_sup"),
    ("replica.f1_sup", "wignerlab.reduction", "f1_sup"),
    ("replica.f1_sup", "wignerlab.cavity", "f1_sup"),
    ("replica.phase_scan", "wignerlab.replica", "phase_scan"),
    ("replica.phase_scan", "wignerlab.reduction", "phase_scan"),
    ("channel.logsumexp_matmul", "wignerlab.replica", "logsumexp_matmul"),
    ("channel.mi_vector", "wignerlab.reduction", "mi_vector"),
    ("channel.mi_scalar_noise", "wignerlab.reduction", "mi_scalar_noise"),
    ("reduction.reduction_sweep", "wignerlab.reduction", "reduction_sweep"),
    ("reduction.noise_inequality_batch", "wignerlab.reduction", "noise_inequality_batch"),
    ("priors.make_prior", "wignerlab.priors", "make_prior"),
]


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _enum_attrs(fn, args, kwargs, out):
    a = _bound(fn, args, kwargs)
    points = a.get("n_eps", 1)          # overlap_concentration enumerates per eps point
    configs = a["replicates"] * points * a["prior"].n_atoms ** (a["N"] * a["M"])
    return {"replicates": a["replicates"], "configs": configs}


def _table_attrs(fn, args, kwargs, out):
    a = _bound(fn, args, kwargs)
    k = a["prior"].n_atoms
    configs = a["replicates"] * sum(k ** (n * m) for n, m in out.entries)
    return {"entries": len(out.entries), "configs": configs}


def _fm_sup_attrs(fn, args, kwargs, out):
    return {"M": _bound(fn, args, kwargs)["M"]}


def _sweep_attrs(fn, args, kwargs, out):
    return {"gap_max": max((abs(r.gap) for r in out), default=0.0)}


def _noise_attrs(fn, args, kwargs, out):
    trim, trace = out
    return {"residuals": len(trim) + len(trace),
            "min": min(float(trim.min()), float(trace.min())) if len(trim) else math.inf}


ATTRS = {
    **{f"simulator.{f}": _enum_attrs for f in ENUM_FUNCS},
    "cavity.build_table": _table_attrs,
    "replica.fm_sup": _fm_sup_attrs,
    "reduction.reduction_sweep": _sweep_attrs,
    "reduction.noise_inequality_batch": _noise_attrs,
}


def _noop():
    return None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.kind = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job = array("q")
        self.attrs: dict[int, dict] = {}
        self.attr_cost: dict[int, float] = {}
        self._stack = [-1]
        self._jobs = -1
        self._saved = []
        self.span_cost_s = 0.0

    def _intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn):
        kid = self._intern(name)
        attrs = ATTRS.get(name)
        is_job = name == "cli.main"
        kind, start, end, parent, job, stack = (self.kind, self.start, self.end,
                                                self.parent, self.job, self._stack)

        def traced(*args, **kwargs):
            if is_job:
                self._jobs += 1
            i = len(kind)
            kind.append(kid)
            parent.append(stack[-1])
            job.append(self._jobs)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if attrs is not None:
                t = perf_counter()
                self.attrs[i] = attrs(fn, args, kwargs, out)
                self.attr_cost[i] = perf_counter() - t
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> list[str]:
        """Install every wrapper; returns the targets the program lacks."""
        missing = []
        for name, module, attr in TARGETS:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr, None)
            if fn is None:
                missing.append(f"{module}.{attr}")
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(name, fn))
        return missing

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def calibrate(self, calls=20000):
        """Per-span cost of the bare wrapper, from a wrapped and a bare no-op.

        The attribute hooks' cost is not in it; ``overhead_s`` adds their
        measured time span by span.
        """
        mark = len(self)
        traced = self.wrap("trace.calibration", _noop)
        best = math.inf
        for _ in range(3):
            t0 = perf_counter()
            for _ in range(calls):
                _noop()
            t1 = perf_counter()
            for _ in range(calls):
                traced()
            t2 = perf_counter()
            best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
            self.truncate(mark)
        self.span_cost_s = max(best, 0.0)
        return self.span_cost_s

    def truncate(self, mark):
        for arr in (self.kind, self.start, self.end, self.parent, self.job):
            del arr[mark:]
        for i in [i for i in self.attrs if i >= mark]:
            del self.attrs[i], self.attr_cost[i]

    def __len__(self):
        return len(self.kind)

    def span_stats(self, lo=0, hi=None):
        """{name: [calls, busy_s, self_s]} over spans lo..hi-1."""
        hi = len(self) if hi is None else hi
        dur = [self.end[i] - self.start[i] for i in range(lo, hi)]
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += dur[i - lo]
        stats = {}
        for i in range(lo, hi):
            s = stats.setdefault(self.names[self.kind[i]], [0, 0.0, 0.0])
            s[0] += 1
            s[1] += dur[i - lo]
            s[2] += dur[i - lo] - child[i - lo]
        return stats

    def overhead_s(self, lo, hi):
        """Time tracing added to spans lo..hi-1: wrappers plus attribute hooks."""
        hooks = sum(c for i, c in self.attr_cost.items() if lo <= i < hi)
        return (hi - lo) * self.span_cost_s + hooks

    def attrs_of(self, name, lo=0, hi=None):
        hi = len(self) if hi is None else hi
        kid = self._ids.get(name)
        return [(self.end[i] - self.start[i], a) for i, a in self.attrs.items()
                if lo <= i < hi and self.kind[i] == kid]

    def layer_metrics(self, lo, hi, wall_s, cpu_s, csv_bytes) -> dict:
        """The per-layer metrics of one pass over a workload's job list."""
        st = self.span_stats(lo, hi)

        def get(name, field):
            return st.get(name, [0, 0.0, 0.0])[field]

        enum = [st.get(f"simulator.{f}", [0, 0.0, 0.0]) for f in ENUM_FUNCS]
        enum_attrs = [a for f in ENUM_FUNCS for _, a in self.attrs_of(f"simulator.{f}", lo, hi)]
        sim_self = sum(s[2] for s in enum)
        sim_busy = sum(s[1] for s in enum)
        sim_reps = sum(a["replicates"] for a in enum_attrs)
        sim_configs = sum(a["configs"] for a in enum_attrs)
        tables = self.attrs_of("cavity.build_table", lo, hi)
        cav_configs = sum(a["configs"] for _, a in tables)
        sups = self.attrs_of("replica.fm_sup", lo, hi)

        def per_call(M):
            d = [t for t, a in sups if a["M"] == M]
            return sum(d) / len(d) if d else 0.0

        noise = [a for _, a in self.attrs_of("reduction.noise_inequality_batch", lo, hi)]
        gaps = [a["gap_max"] for _, a in self.attrs_of("reduction.reduction_sweep", lo, hi)]
        return {
            "simulator.calls": sum(s[0] for s in enum),
            "simulator.busy_s": sim_busy,
            "simulator.self_s": sim_self,
            "simulator.replicates": sim_reps,
            "simulator.configs": sim_configs,
            "simulator.ns_per_config": 1e9 * sim_self / sim_configs if sim_configs else 0.0,
            "simulator.us_per_replicate": 1e6 * sim_busy / sim_reps if sim_reps else 0.0,
            "rng.stream.calls": get("rng.stream", 0),
            "rng.stream.busy_s": get("rng.stream", 1),
            "cavity.build_table.busy_s": get("cavity.build_table", 1),
            "cavity.entries": sum(a["entries"] for _, a in tables),
            "cavity.configs": cav_configs,
            "cavity.ns_per_config": (1e9 * get("cavity.build_table", 2) / cav_configs
                                     if cav_configs else 0.0),
            "cavity.cavity_report.busy_s": get("cavity.cavity_report", 1),
            "replica.fm_sup.calls": get("replica.fm_sup", 0),
            "replica.fm_sup.busy_s": get("replica.fm_sup", 1),
            "replica.fm_sup.self_s": get("replica.fm_sup", 2),
            "replica.fm_sup_m2.s_per_call": per_call(2),
            "replica.fm_sup_m3.s_per_call": per_call(3),
            "replica.f1_sup.busy_s": get("replica.f1_sup", 1),
            "replica.phase_scan.busy_s": get("replica.phase_scan", 1),
            "replica.sup_gap_max": max(gaps, default=0.0),
            "channel.logsumexp_matmul.calls": get("channel.logsumexp_matmul", 0),
            "channel.logsumexp_matmul.busy_s": get("channel.logsumexp_matmul", 1),
            "channel.mi_vector.calls": get("channel.mi_vector", 0),
            "channel.mi_vector.busy_s": get("channel.mi_vector", 1),
            "channel.mi_scalar_noise.busy_s": get("channel.mi_scalar_noise", 1),
            "reduction.reduction_sweep.busy_s": get("reduction.reduction_sweep", 1),
            "reduction.noise_inequality_batch.busy_s":
                get("reduction.noise_inequality_batch", 1),
            "reduction.residuals": sum(a["residuals"] for a in noise),
            "reduction.min_residual": min((a["min"] for a in noise), default=0.0),
            "cli.jobs": get("cli.main", 0),
            "cli.busy_s": get("cli.main", 1),
            "cli.self_s": get("cli.main", 2),
            "cli.csv_bytes": csv_bytes,
            "priors.make_prior.busy_s": get("priors.make_prior", 1),
            "proc.cpu_s": cpu_s,
            "proc.cpu_per_wall": cpu_s / wall_s,
            "trace.overhead_s": self.overhead_s(lo, hi),
        }

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent,job\n")
            names, kind, start, end, parent, job = (self.names, self.kind, self.start,
                                                    self.end, self.parent, self.job)
            for i in range(len(kind)):
                fh.write(f"{i},{names[kind[i]]},{start[i]!r},{end[i]!r},{parent[i]},{job[i]}\n")
