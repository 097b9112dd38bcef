"""Reproducible experiment runner.

Every subcommand reads a JSON config, checks it against its schema in
``SCHEMAS`` before any computation starts (an unknown or missing key, a wrong
JSON type -- ``2.0`` is not an integer, ``"yes"`` is not a flag -- or an
out-of-range or non-finite number is a validation error), runs its jobs in
order, and writes CSV results plus a JSON run manifest (config echo, content
hash, wall time, environment).  Fixed (config, seed) reproduces CSV bodies
byte-identically.

Exit codes: 0 success, 2 validation error, 3 enumeration budget overflow,
4 non-convergence flagged as fatal by the config, 5 a non-finite result or an
unexpected internal error.  A failure prints one JSON error record on stderr
and writes a manifest with ``"partial": true`` (its ``config`` is null when the
config file cannot be read or parsed).  Stderr holds nothing else: NumPy's
RuntimeWarnings are counted, by message, under the manifest's
``runtime_warnings`` instead of printed.
"""

from __future__ import annotations

import argparse
import collections
import csv
import hashlib
import json
import math
import os
import sys
import time
import traceback
import warnings
from pathlib import Path

import numpy as np

from . import cavity, channel, priors, reduction, replica, rng, simulator

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_NONCONVERGENCE = 4
EXIT_INTERNAL = 5


class ConfigError(ValueError):
    pass


class ConfigFileError(ConfigError):
    pass


class NonConvergenceError(RuntimeError):
    pass


class NonFiniteResultError(ArithmeticError):
    pass


def _fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _config_hash(config) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _write_csv(path: Path, header, rows, meta):
    # every row carries the run provenance
    full_header = list(header) + ["seed", "config_sha256"]
    tail = [str(meta["seed"]), meta["config_sha256"]]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(full_header)
        for row in rows:
            writer.writerow([_fmt(row[h]) for h in header] + tail)
    meta["outputs"].append(path.name)


def _check_finite(outputs):
    """A NaN or inf in a result is an error, never a CSV value."""
    for name, header, rows in outputs:
        for i, row in enumerate(rows if header is not None else ()):
            for h in header:
                if isinstance(row[h], (float, np.floating)) and not math.isfinite(row[h]):
                    raise NonFiniteResultError(f"{name}: column {h} is {row[h]!r} in row {i}")


# config schema: key -> (parser, default or REQUIRED); a parser takes
# (value, name) and returns the value to use or raises ConfigError
REQUIRED = object()


def _fields(schema, raw, where):
    """Check ``raw`` against ``schema``: no unknown keys, every required key,
    each value through its parser.  Returns the parsed values, defaults filled."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object, got {raw!r}")
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {unknown}")
    missing = [key for key, (_, default) in schema.items()
               if default is REQUIRED and key not in raw]
    if missing:
        raise ConfigError(f"{where} needs {missing}")
    return {key: parse(raw[key], f"{where}.{key}") if key in raw else default
            for key, (parse, default) in schema.items()}


def _value(kinds, what, ok=lambda v: True):
    """A JSON value of type ``kinds`` that passes ``ok``, kept as given (so an
    integer ``lambda`` still prints as ``2``).  A bool is only ever a flag."""
    def parse(value, name):
        if (isinstance(value, bool) and kinds is not bool
                or not isinstance(value, kinds) or not ok(value)):
            raise ConfigError(f"{name} must be {what}, got {value!r}")
        return value
    return parse


def _number(lo=-math.inf, hi=math.inf, above=False):
    """A finite number in [lo, hi], or (lo, hi] when ``above``."""
    return _value((int, float), f"a finite number in {'(' if above else '['}{lo:g}, {hi:g}]",
                  lambda v: abs(v) <= sys.float_info.max     # NaN, inf, huge ints
                  and lo <= v <= hi and not (above and v == lo))


def _int(lo, hi=math.inf):
    """An integer in [lo, hi]: ``2``, not ``2.0``."""
    return _value(int, f"an integer in [{lo}, {hi}]", lambda v: lo <= v <= hi)


_flag = _value(bool, "true or false")
_text = _value(str, "a string")


def _list(each):
    """A nonempty JSON list whose items all pass ``each``."""
    def parse(value, name):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{name} must be a nonempty list, got {value!r}")
        return [each(v, f"{name}[{i}]") for i, v in enumerate(value)]
    return parse


def _grid(lo=-math.inf):
    """A 1-d grid of finite numbers >= lo: a list, or {start, stop, count}."""
    point = _number(lo)
    span = {"start": (point, REQUIRED), "stop": (point, REQUIRED), "count": (_int(1), REQUIRED)}

    def parse(value, name):
        if not isinstance(value, dict):
            return np.asarray(_list(point)(value, name), dtype=float)
        g = _fields(span, value, name)
        return np.linspace(*np.asarray([g["start"], g["stop"]], dtype=float), g["count"])
    return parse


# prior kind -> (schema of its other keys, constructor)
PRIOR_KINDS = {
    "rademacher": ({}, lambda s: priors.make_rademacher()),
    "sparse_rademacher": ({"p": (_number(0, 1, above=True), REQUIRED)},
                          lambda s: priors.make_sparse_rademacher(s["p"])),
    "uniform": ({"D": (_number(0, above=True), 1.0), "n_nodes": (_int(2), 16)},
                lambda s: priors.make_discretized_uniform(s["D"], s["n_nodes"])),
    "atoms": ({"atoms": (_list(_list(_number())), REQUIRED), "label": (_text, "custom")},
              lambda s: priors.make_prior(s["atoms"], label=s["label"])),
}


def _prior(value, name):
    """A prior: a kind name, or a {"kind": ..., <that kind's keys>} object."""
    spec = {"kind": value} if isinstance(value, str) else value
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if not isinstance(kind, str) or kind not in PRIOR_KINDS:
        raise ConfigError(f"{name} must name one of {sorted(PRIOR_KINDS)} as a string "
                          f"or a {{kind: ...}} object, got {value!r}")
    schema, make = PRIOR_KINDS[kind]
    return make(_fields({"kind": (_text, REQUIRED), **schema}, spec, name))


COMMON = {"prior": (_prior, REQUIRED), "seed": (_int(0), 0)}
# quad_order: Gauss-Hermite nodes per axis for every potential of the run;
# unset, each potential takes its default order (replica.DEFAULT_ORDER)
QUAD = {"quad_order": (_int(1, 256), None)}
QUAD_TEMP_LIMIT = 1 << 24       # elements of the largest temporary an order may need
LAMBDA = (_number(0), 1.0)

SCHEMAS = {name: {**COMMON, **keys} for name, keys in {
    "prior": {"sample_count": (_int(0), 0)},
    "mi": {**QUAD, "s_grid": (_grid(0), REQUIRED)},
    "potential": {**QUAD, "lambda": LAMBDA, "tau_grid": (_grid(0), REQUIRED),
                  "M": (_int(1, 3), 1)},
    "fixed-point": {**QUAD, "lambda_grid": (_grid(0), REQUIRED),
                    "damping": (_number(0, 1, above=True), 0.5), "M": (_int(1, 3), 1),
                    "q0": (_number(0), None), "fatal_nonconvergence": (_flag, False)},
    "phase-scan": {**QUAD, "lambda_grid": (_grid(0), REQUIRED)},
    "reduce": {"M": (_int(2, 3), 2), "lambda_grid": (_grid(0), REQUIRED),
               "n_sigma": (_int(0), 0)},
    "simulate": {"N": (_int(1), REQUIRED), "M": (_int(1), 1), "lambda": LAMBDA,
                 "epsilon": (_number(0), 0.0), "replicates": (_int(1), 100),
                 "posterior": (_flag, False), "dump_instance": (_flag, False)},
    "concentration": {"N_grid": (_list(_int(1)), REQUIRED), "M": (_int(1), 1),
                      "lambda": LAMBDA, "s_exponent": (_number(), 0.125),
                      "n_eps": (_int(2), 4), "replicates": (_int(1), 100)},
    "cavity": {"lambda": LAMBDA, "alpha": (_number(0, above=True), 1.0),
               "gamma": (_number(0), 0.5), "N_max": (_int(1), 8), "T": (_int(0), 0),
               "replicates": (_int(1), 100), "epsilon": (_number(0), None)},
}.items()}


# ---------------------------------------------------------------------------
# subcommand handlers: each takes the checked config and the seed and returns
# a list of (filename, header, rows)
# ---------------------------------------------------------------------------

def run_prior(cfg, seed):
    p, count = cfg["prior"], cfg["sample_count"]
    row = {
        "label": p.label, "n_atoms": p.n_atoms,
        "mean": float(p.weights @ p.values), "rho": p.rho, "D": p.support_bound,
        "sample_count": count, "sample_mean": 0.0, "sample_second_moment": 0.0,
    }
    if count:
        draws = priors.sample(p, count, rng.stream(seed, rng.tag("prior")))
        row["sample_mean"] = float(draws.mean())
        row["sample_second_moment"] = float((draws**2).mean())
    return [("prior.csv", list(row), [row])]


def _quad(cfg, M):
    """The rule of ``quad_order``, or None when it is unset.  An order whose
    rank-M evaluation needs a temporary of k^M max(k^M, order^M) elements (k
    atoms) above QUAD_TEMP_LIMIT is refused."""
    order = cfg["quad_order"]
    if order is None:
        return None
    k = cfg["prior"].n_atoms ** M
    if k * max(k, order**M) > QUAD_TEMP_LIMIT:
        raise ConfigError(f"quad_order {order} at M = {M} needs a temporary of "
                          f"{k * max(k, order**M)} elements, above {QUAD_TEMP_LIMIT}")
    return channel.gauss_hermite(order)


def run_mi(cfg, seed):
    p, quad = cfg["prior"], _quad(cfg, 1) or channel.gauss_hermite(replica.DEFAULT_ORDER[1])
    rows = [{"s": float(s), "mi": channel.mi_scalar_signal(p, float(s), quad),
             "mmse": channel.mmse_scalar(p, float(s), quad)} for s in cfg["s_grid"]]
    return [("mi.csv", ["s", "mi", "mmse"], rows)]


def run_potential(cfg, seed):
    p, lam, M, taus = cfg["prior"], cfg["lambda"], cfg["M"], cfg["tau_grid"]
    quad = _quad(cfg, M)
    if np.any(taus > p.rho + 1e-12):
        raise ConfigError("tau grid must stay in [0, rho]")

    def job(tau):
        row = {"tau": float(tau), "lambda": lam,
               "f1": replica.f1_rs(p, float(tau), lam, quad)}
        if M > 1:
            ev = replica.fm_rs(p, M, float(tau) * np.eye(M), lam, quad)
            row["fm_logz"] = ev.value_logz
            row["fm_mi_form"] = ev.value_mi
        return row

    rows = [job(tau) for tau in taus]
    header = ["tau", "lambda", "f1"] + (["fm_logz", "fm_mi_form"] if M > 1 else [])
    return [("potential.csv", header, rows)]


def run_fixed_point(cfg, seed):
    p, damping, M = cfg["prior"], cfg["damping"], cfg["M"]
    quad = _quad(cfg, M)
    q0 = p.rho if cfg["q0"] is None else cfg["q0"]
    if q0 > p.rho:
        raise ConfigError("q0 must lie in [0, rho]")

    def job(lam):
        if M == 1:
            res = replica.f1_fixed_point(p, float(lam), q0, damping, quad)
            q_out = res.overlap
        else:
            res = replica.fm_fixed_point(p, M, float(lam), q0 * np.eye(M), damping, quad)
            q_out = float(np.trace(res.overlap)) / M
        return {"lambda": float(lam), "q_star": q_out,
                "iterations": res.iterations, "residual": res.residual,
                "converged": res.converged, "potential": res.potential_value}

    rows = [job(lam) for lam in cfg["lambda_grid"]]
    if cfg["fatal_nonconvergence"] and not all(r["converged"] for r in rows):
        raise NonConvergenceError("fixed-point iteration did not converge")
    header = ["lambda", "q_star", "iterations", "residual", "converged", "potential"]
    return [("fixed_point.csv", header, rows)]


def run_phase_scan(cfg, seed):
    p = cfg["prior"]
    scan = replica.phase_scan(p, cfg["lambda_grid"], _quad(cfg, 1))
    rows = []
    for i, lam in enumerate(scan.lambdas):
        in_cell = bool(scan.jump_cell is not None
                       and scan.jump_cell[0] <= lam <= scan.jump_cell[1])
        rows.append({"lambda": float(lam), "q_star": float(scan.q_star[i]),
                     "value": float(scan.value[i]),
                     "dq_dlambda": float(scan.dq_dlambda[i]),
                     "mmse_prediction": p.rho**2 - float(scan.q_star[i]) ** 2,
                     "in_jump_cell": in_cell})
    header = ["lambda", "q_star", "value", "dq_dlambda", "mmse_prediction",
              "in_jump_cell"]
    return [("phase_scan.csv", header, rows)]


def run_reduce(cfg, seed):
    p, M, n_sigma = cfg["prior"], cfg["M"], cfg["n_sigma"]
    outputs = []
    reports = reduction.reduction_sweep(p, M, cfg["lambda_grid"])
    rows = [{
        "prior": r.prior_label, "M": r.M, "lambda": r.lam,
        "fm_sup": r.fm_sup_value, "f1_sup": r.f1_sup_value, "gap": r.gap,
        "isotropy": r.maximizer_isotropy, "near_critical": r.near_critical,
        "pass_gap": r.passes["gap"], "pass_isotropy": r.passes["isotropy"],
    } for r in reports]
    outputs.append(("reduction.csv",
                    ["prior", "M", "lambda", "fm_sup", "f1_sup", "gap",
                     "isotropy", "near_critical", "pass_gap", "pass_isotropy"],
                    rows))
    if n_sigma:
        trim, trace = reduction.noise_inequality_batch(p, M, n_sigma, seed)
        rows = [{"sample": i, "trim_residual": float(trim[i]),
                 "trace_residual": float(trace[i])} for i in range(n_sigma)]
        outputs.append(("noise_checks.csv",
                        ["sample", "trim_residual", "trace_residual"], rows))
    return outputs


def run_simulate(cfg, seed):
    p, N, M, lam = cfg["prior"], cfg["N"], cfg["M"], cfg["lambda"]
    eps, replicates = cfg["epsilon"], cfg["replicates"]
    simulator._check_budget(p, N, M)
    outputs = []
    if cfg["posterior"]:
        summaries = simulator.posterior_replicates(
            p, N, M, lam, epsilon=eps, replicates=replicates, seed=seed)
        rows = [{"replicate": r, "free_entropy": s.free_entropy,
                 "matrix_mmse": s.matrix_mmse, "overlap_fluct": s.overlap_fluct}
                for r, s in enumerate(summaries)]
        outputs.append(("simulate.csv",
                        ["replicate", "free_entropy", "matrix_mmse",
                         "overlap_fluct"], rows))
    else:
        vals = simulator.free_entropy_replicates(
            p, N, M, lam, epsilon=eps, replicates=replicates, seed=seed)
        rows = [{"replicate": r, "free_entropy": float(v)}
                for r, v in enumerate(vals)]
        outputs.append(("simulate.csv", ["replicate", "free_entropy"], rows))
    if cfg["dump_instance"]:
        inst = simulator.sample_instance(p, N, M, lam, seed)
        outputs.append(("instance.json", None,
                        simulator.instance_to_json(inst, p.label)))
    return outputs


def run_concentration(cfg, seed):
    p, Ns, M, lam = cfg["prior"], cfg["N_grid"], cfg["M"], cfg["lambda"]
    for n in Ns:
        simulator._check_budget(p, n, M)

    def job(n):
        s_n = float(n) ** (-cfg["s_exponent"])
        est, se, gamma = simulator.overlap_concentration(
            p, n, M, lam, s_n, cfg["n_eps"], cfg["replicates"], seed)
        return {"N": n, "s_N": s_n, "estimate": est, "std_err": se,
                "gamma": gamma, "ratio": est / gamma}

    rows = [job(n) for n in Ns]
    header = ["N", "s_N", "estimate", "std_err", "gamma", "ratio"]
    return [("concentration.csv", header, rows)]


def run_cavity(cfg, seed):
    p, lam, n_max, T = cfg["prior"], cfg["lambda"], cfg["N_max"], cfg["T"]
    if T >= n_max:
        raise ConfigError("truncation T must satisfy 0 <= T < N_max")
    schedule = cavity.dims_schedule(cfg["alpha"], cfg["gamma"], n_max)
    if schedule.rank_at(n_max) < 1:
        raise ConfigError("schedule reaches rank 0 at N_max; increase alpha or N_max")
    eps = float(n_max) ** (-0.125) if cfg["epsilon"] is None else cfg["epsilon"]
    table = cavity.build_table(p, lam, schedule, eps, cfg["replicates"], seed, T=T)
    report = cavity.cavity_report(p, lam, schedule, table, T=T)
    inc = report.increments

    table_rows = [{"n": n, "m": m, "L": v[0], "std_err": v[1], "replicates": v[2]}
                  for (n, m), v in sorted(table.entries.items())]
    inc_rows = [{"n": int(n), "delta_N": float(inc.delta_N[i]),
                 "delta_M": float(inc.delta_M[i]),
                 "delta_N_norm": float(inc.delta_N_norm[i]),
                 "delta_M_norm": float(inc.delta_M_norm[i]),
                 "rank_step": bool(inc.increment_steps[i])}
                for i, n in enumerate(inc.n_values)]
    report_rows = [{
        "f1_sup": report.f1_sup_value, "w_N": report.weights[0],
        "w_M": report.weights[1], "combined": report.combined_mean,
        "combined_se": report.combined_se,
        "table_free_entropy": report.table_free_entropy,
        "table_free_entropy_se": report.table_free_entropy_se,
        "diff": report.diff, "diff_se": report.diff_se,
        "plain_combined": report.plain_combined_mean,
        "plain_diff": report.plain_diff,
        "telescoping_residual": report.telescoping_residual,
    }]
    return [
        ("cavity_table.csv", ["n", "m", "L", "std_err", "replicates"], table_rows),
        ("cavity_increments.csv",
         ["n", "delta_N", "delta_M", "delta_N_norm", "delta_M_norm", "rank_step"],
         inc_rows),
        ("cavity_report.csv", list(report_rows[0]), report_rows),
    ]


HANDLERS = {name: globals()[f"run_{name.replace('-', '_')}"] for name in SCHEMAS}


# exception type -> (error record kind, exit code); the first match wins
FAILURES = [
    (ConfigFileError, "config", EXIT_VALIDATION),
    (simulator.BudgetError, "budget", EXIT_BUDGET),
    (NonConvergenceError, "non-convergence", EXIT_NONCONVERGENCE),
    (NonFiniteResultError, "non-finite", EXIT_INTERNAL),
    (ValueError, "validation", EXIT_VALIDATION),
    (Exception, "internal", EXIT_INTERNAL),
]


def _read_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:        # unreadable, not UTF-8 or not JSON
        raise ConfigFileError(exc) from exc


def _counting(counter, show):
    """A ``warnings.showwarning`` that counts RuntimeWarnings by message
    instead of printing them, and passes every other warning to ``show``."""
    def showwarning(message, category, *rest):
        if issubclass(category, RuntimeWarning):
            counter[str(message)] += 1
        else:
            show(message, category, *rest)
    return showwarning


def _environment():
    """Interpreter, NumPy and SciPy versions and the CPU count.  The versions
    come from modules already loaded, so recording them imports nothing."""
    scipy = sys.modules.get("scipy")
    return {"python": ".".join(map(str, sys.version_info[:3])),
            "numpy": np.__version__,
            "scipy": getattr(scipy, "__version__", None),
            "cpu_count": os.cpu_count()}


def _error_record(kind, detail):
    print(json.dumps({"error": kind, "detail": str(detail)}), file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wignerlab",
        description="spiked matrix model laboratory: potentials, inequalities, "
                    "simulation and cavity bookkeeping")
    parser.add_argument("subcommand", choices=sorted(HANDLERS))
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--seed", type=int, default=None, help="master seed")
    parser.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    meta = {
        "subcommand": args.subcommand,
        "config": None,
        "config_sha256": None,
        "seed": args.seed,
        "outputs": [],
        "partial": False,
        "env": _environment(),
    }
    started = time.monotonic()
    warned = collections.Counter()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always", RuntimeWarning)
            warnings.showwarning = _counting(warned, warnings.showwarning)
            config = meta["config"] = _read_config(args.config)
            meta["config_sha256"] = _config_hash(config)
            cfg = _fields(SCHEMAS[args.subcommand], config, "config")
            seed = meta["seed"] = cfg["seed"] if args.seed is None else args.seed
            outputs = HANDLERS[args.subcommand](cfg, seed)
            _check_finite(outputs)
            for name, header, rows in outputs:
                if header is None:                      # raw text artifact
                    path = out_dir / name
                    path.write_text(rows)
                    meta["outputs"].append(name)
                else:
                    _write_csv(out_dir / name, header, rows, meta)
        code = EXIT_OK
    except Exception as exc:    # the boundary: every failure is reported, none escapes
        kind, code = next((k, c) for t, k, c in FAILURES if isinstance(exc, t))
        meta["partial"] = True
        meta["error"] = str(exc)
        if kind == "internal":
            exc = f"{type(exc).__name__}: {exc}"
            meta["traceback"] = traceback.format_exc()
        _error_record(kind, exc)
    meta["runtime_warnings"] = {"count": sum(warned.values()), "messages": sorted(warned)}
    meta["wall_time_s"] = time.monotonic() - started
    with open(out_dir / f"{args.subcommand.replace('-', '_')}_manifest.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
