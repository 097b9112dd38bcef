"""Reproducible experiment runner.

Every subcommand reads a JSON config, checks it against its schema in
``SCHEMAS`` before any computation starts (an unknown or missing key, a wrong
JSON type -- ``2.0`` is not an integer, ``"yes"`` is not a flag -- or an
out-of-range or non-finite number is a validation error), runs its jobs in
order, and writes CSV results plus a JSON run manifest (config echo, content
hash, wall time, stage times, environment).  A handler returns each table as
an ordered dict of columns; the key order is the header, fixed per file, and
each column is checked and formatted in one pass.  Fixed (config, seed)
reproduces CSV bodies byte for byte, cell format included: true/false,
integers as written, floats as shortest round-trip repr, ``_quote`` on text.

Exit codes: 0 success, 2 validation error, 3 enumeration budget overflow,
4 non-convergence flagged as fatal by the config, 5 a non-finite result or an
unexpected internal error.  A failure prints one JSON error record on stderr
and writes a manifest with ``"partial": true`` (its ``config`` is null when the
config file cannot be read or parsed).  Stderr holds nothing else: NumPy's
RuntimeWarnings are counted, by message, under the manifest's
``runtime_warnings`` instead of printed.

Importing this module loads NumPy, ``priors`` and ``rng``; each handler
imports the compute modules it runs, inside ``stages.compute_s``.
"""

from __future__ import annotations

import argparse
import collections
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

from . import priors, rng

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


def _config_hash(config) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _quote(text):
    """csv's minimal quoting for a row of two or more fields: a field holding
    a comma, a double quote or a newline is quoted, its quotes doubled."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _cells(column):
    """One column's CSV cells: bools as true/false, integers as written (one
    past int64 rides in an object column), floats as the shortest round-trip
    repr (a Python float's str, never quoted), anything else as its str through
    ``_quote`` (text as given: NumPy would strip trailing NULs)."""
    a = np.asarray(column)
    if a.dtype == bool:
        return np.where(a, "true", "false").tolist()
    if a.dtype.kind in "iuf":
        return list(map(str, a.tolist()))
    return list(map(_quote, map(str, column if a.dtype.kind == "U" else a.tolist())))


def _write_csv(path: Path, columns, seed, config_sha256):
    """The table, header from the column order; every row carries the run
    provenance, a tail built once per file."""
    tail = f",{seed},{config_sha256}\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(map(_quote, [*columns, "seed", "config_sha256"])) + "\n")
        fh.writelines(row + tail for row in map(",".join, zip(*map(_cells, columns.values()))))


def _check_finite(outputs):
    """A NaN or inf in a result is an error, never a CSV value.  Reports the
    first non-finite cell in row-major order."""
    for name, columns in outputs:
        if isinstance(columns, str):                # raw text artifact
            continue
        first = {}                                  # column -> (row, value)
        for h, column in columns.items():
            a = np.asarray(column)
            bad = np.flatnonzero(~np.isfinite(a)) if a.dtype.kind == "f" else ()
            if len(bad):
                first[h] = int(bad[0]), float(a[bad[0]])
        if first:
            h = min(first, key=lambda h: first[h][0])   # the leftmost column among ties
            i, value = first[h]
            raise NonFiniteResultError(f"{name}: column {h} is {value!r} in row {i}")


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
# _quote quotes a "\n" in a cell but leaves a "\r" bare, which splits the row on reading
_label = _value(str, "a string without a carriage return", lambda v: "\r" not in v)


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
    "atoms": ({"atoms": (_list(_list(_number())), REQUIRED), "label": (_label, "custom")},
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


SEED = _int(0)
COMMON = {"prior": (_prior, REQUIRED), "seed": (SEED, 0)}
# quad_order: Gauss-Hermite nodes per axis for every potential of the run;
# unset, each potential takes its default order (channel.DEFAULT_ORDER)
QUAD = {"quad_order": (_int(1, 256), None)}
QUAD_TEMP_LIMIT = 1 << 24       # elements of the largest temporary an order may need
LAMBDA = (_number(0), 1.0)

# replicates: at most 2^32, as rng.keys keys replicate indices below 2^32
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
                 "epsilon": (_number(0), 0.0), "replicates": (_int(1, 2 ** 32), 100),
                 "posterior": (_flag, False), "dump_instance": (_flag, False)},
    "concentration": {"N_grid": (_list(_int(1)), REQUIRED), "M": (_int(1), 1),
                      "lambda": LAMBDA, "s_exponent": (_number(), 0.125),
                      "n_eps": (_int(2), 4), "replicates": (_int(1, 2 ** 32), 100)},
    "cavity": {"lambda": LAMBDA, "alpha": (_number(0, above=True), 1.0),
               "gamma": (_number(0), 0.5), "N_max": (_int(1), 8), "T": (_int(0), 0),
               "replicates": (_int(1, 2 ** 32), 100), "epsilon": (_number(0), None)},
}.items()}


# ---------------------------------------------------------------------------
# subcommand handlers: each takes the checked config and the seed and returns
# a list of (filename, columns).  A table is an insertion-ordered dict of
# columns, {name: NumPy array or list}; its key order is the CSV header.  A
# str in place of the columns is a raw text artifact.  Each imports the compute
# modules it runs, so that importing the CLI loads only priors and rng.
# ---------------------------------------------------------------------------

def _attrs(items):
    """column(name): attribute ``name`` of every item, as one column."""
    return lambda name: [getattr(item, name) for item in items]


def run_prior(cfg, seed):
    p, count = cfg["prior"], cfg["sample_count"]
    # no draws: both sample moments are 0.0
    draws = priors.sample(p, count, rng.stream(seed, rng.tag("prior"))) if count else np.zeros(1)
    return [("prior.csv", {
        "label": [p.label], "n_atoms": [p.n_atoms], "mean": [float(p.weights @ p.values)],
        "rho": [p.rho], "D": [p.support_bound], "sample_count": [count],
        "sample_mean": [float(draws.mean())],
        "sample_second_moment": [float((draws**2).mean())]})]


def _check_pass(p, M, order, blocks):
    """Refuse a rank-M pass whose temporary of blocks k^M max(k^M, n) elements
    is above QUAD_TEMP_LIMIT: k atoms, n the nodes it keeps (order^M, halved to
    (order^M + 1) // 2 for a sign-symmetric prior), ``blocks`` its row blocks."""
    k = p.n_atoms ** M
    nodes = (order**M + 1) // 2 if p.sign_symmetric else order**M
    size = blocks * k * max(k, nodes)
    if size > QUAD_TEMP_LIMIT:
        raise ConfigError(f"order {order} at M = {M} needs a temporary of "
                          f"{size} elements, above {QUAD_TEMP_LIMIT}")


def _quad(cfg, M, blocks=1):
    """The checked rule of ``quad_order``, or of channel.DEFAULT_ORDER[M]."""
    from . import channel
    order = channel.DEFAULT_ORDER[M] if cfg["quad_order"] is None else cfg["quad_order"]
    _check_pass(cfg["prior"], M, order, blocks)
    return channel.gauss_hermite(order)


def run_mi(cfg, seed):
    from . import channel
    p, quad = cfg["prior"], _quad(cfg, 1, blocks=2)
    s = cfg["s_grid"]
    return [("mi.csv", {"s": s, "mi": channel.mi_scalar_signal(p, s, quad),
                        "mmse": channel.mmse_scalar(p, s, quad)})]


def run_potential(cfg, seed):
    from . import replica
    p, lam, M, taus = cfg["prior"], cfg["lambda"], cfg["M"], cfg["tau_grid"]
    f1_quad, quad = _quad(cfg, 1), _quad(cfg, M)
    if np.any(taus > p.rho + 1e-12):
        raise ConfigError("tau grid must stay in [0, rho]")
    columns = {"tau": taus, "lambda": [lam] * len(taus),
               "f1": [replica.f1_rs(p, tau, lam, f1_quad) for tau in taus.tolist()]}
    if M > 1:
        evs = [replica.fm_rs(p, M, tau * np.eye(M), lam, quad) for tau in taus.tolist()]
        columns["fm_logz"] = _attrs(evs)("value_logz")
        columns["fm_mi_form"] = _attrs(evs)("value_mi")
    return [("potential.csv", columns)]


def run_fixed_point(cfg, seed):
    from . import replica
    p, damping, M, lams = cfg["prior"], cfg["damping"], cfg["M"], cfg["lambda_grid"]
    quad = _quad(cfg, M, blocks=M + 1)
    q0 = p.rho if cfg["q0"] is None else cfg["q0"]
    if q0 > p.rho:
        raise ConfigError("q0 must lie in [0, rho]")
    if M == 1:
        results = [replica.f1_fixed_point(p, lam, q0, damping, quad) for lam in lams.tolist()]
        q_star = [res.overlap for res in results]
    else:
        results = [replica.fm_fixed_point(p, M, lam, q0 * np.eye(M), damping, quad)
                   for lam in lams.tolist()]
        q_star = [float(np.trace(res.overlap)) / M for res in results]
    column = _attrs(results)
    if cfg["fatal_nonconvergence"] and not all(column("converged")):
        raise NonConvergenceError("fixed-point iteration did not converge")
    return [("fixed_point.csv", {
        "lambda": lams, "q_star": q_star, "iterations": column("iterations"),
        "residual": column("residual"), "converged": column("converged"),
        "potential": column("potential_value")})]


def run_phase_scan(cfg, seed):
    from . import replica
    p = cfg["prior"]
    scan = replica.phase_scan(p, cfg["lambda_grid"], _quad(cfg, 1, blocks=2))
    lo, hi = scan.jump_cell or (math.inf, -math.inf)
    return [("phase_scan.csv", {
        "lambda": scan.lambdas, "q_star": scan.q_star, "value": scan.value,
        "dq_dlambda": scan.dq_dlambda,
        # Python's ** per value: NumPy's squaring can differ in the last ulp
        "mmse_prediction": [p.rho**2 - q**2 for q in scan.q_star.tolist()],
        "in_jump_cell": (lo <= scan.lambdas) & (scan.lambdas <= hi)})]


def run_reduce(cfg, seed):
    from . import reduction
    p, M, n_sigma = cfg["prior"], cfg["M"], cfg["n_sigma"]
    for dim, order, blocks in reduction.largest_passes(M):
        _check_pass(p, dim, order, blocks)
    reports = reduction.reduction_sweep(p, M, cfg["lambda_grid"])
    column = _attrs(reports)
    outputs = [("reduction.csv", {
        "prior": column("prior_label"), "M": column("M"), "lambda": column("lam"),
        "fm_sup": column("fm_sup_value"), "f1_sup": column("f1_sup_value"),
        "gap": column("gap"), "isotropy": column("maximizer_isotropy"),
        "near_critical": column("near_critical"),
        "pass_gap": [r.passes["gap"] for r in reports],
        "pass_isotropy": [r.passes["isotropy"] for r in reports]})]
    if n_sigma:
        trim, trace = reduction.noise_inequality_batch(p, M, n_sigma, seed)
        outputs.append(("noise_checks.csv", {"sample": np.arange(n_sigma),
                                             "trim_residual": trim, "trace_residual": trace}))
    return outputs


def run_simulate(cfg, seed):
    from . import simulator
    p, N, M, lam = cfg["prior"], cfg["N"], cfg["M"], cfg["lambda"]
    kw = {"epsilon": cfg["epsilon"], "replicates": cfg["replicates"], "seed": seed}
    if cfg["posterior"]:
        column = _attrs(simulator.posterior_replicates(p, N, M, lam, **kw))
        columns = {"free_entropy": column("free_entropy"),
                   "matrix_mmse": column("matrix_mmse"), "overlap_fluct": column("overlap_fluct")}
    else:
        columns = {"free_entropy": simulator.free_entropy_replicates(p, N, M, lam, **kw)}
    outputs = [("simulate.csv", {"replicate": np.arange(len(columns["free_entropy"])),
                                 **columns})]
    if cfg["dump_instance"]:
        inst = simulator.sample_instance(p, N, M, lam, seed)
        outputs.append(("instance.json", simulator.instance_to_json(inst, p.label)))
    return outputs


def run_concentration(cfg, seed):
    from . import simulator
    p, Ns, M, lam = cfg["prior"], cfg["N_grid"], cfg["M"], cfg["lambda"]
    simulator._check_budget(p, [(n, M) for n in Ns])
    try:
        s = [float(n) ** -cfg["s_exponent"] for n in Ns]
    except OverflowError:
        raise ConfigError(f"s_exponent {cfg['s_exponent']!r} makes s_N = N^(-s_exponent) "
                          f"overflow on N_grid {Ns}") from None
    est, se, gamma = zip(*(simulator.overlap_concentration(
        p, n, M, lam, s_n, cfg["n_eps"], cfg["replicates"], seed) for n, s_n in zip(Ns, s)))
    # gamma = 0.0 (N s_N past the float range) makes a non-finite ratio, not an exception
    return [("concentration.csv", {"N": Ns, "s_N": s, "estimate": est, "std_err": se,
                                   "gamma": gamma, "ratio": np.divide(est, gamma)})]


def run_cavity(cfg, seed):
    from . import cavity, simulator
    p, lam, n_max, T = cfg["prior"], cfg["lambda"], cfg["N_max"], cfg["T"]
    if T >= n_max:
        raise ConfigError("truncation T must satisfy 0 <= T < N_max")
    simulator._check_budget(p, [(n_max, 1)])    # before the schedule's arrays of N_max + 1
    schedule = cavity.dims_schedule(cfg["alpha"], cfg["gamma"], n_max)
    if schedule.rank_at(n_max) < 1:
        raise ConfigError("schedule reaches rank 0 at N_max; increase alpha or N_max")
    eps = float(n_max) ** (-0.125) if cfg["epsilon"] is None else cfg["epsilon"]
    table = cavity.build_table(p, lam, schedule, eps, cfg["replicates"], seed, T=T)
    report = cavity.cavity_report(p, lam, schedule, table, T=T)
    inc = report.increments
    keys = sorted(table.entries)
    L, se, count = zip(*map(table.entries.get, keys))
    return [
        ("cavity_table.csv", {"n": [n for n, _ in keys], "m": [m for _, m in keys],
                              "L": L, "std_err": se, "replicates": count}),
        ("cavity_increments.csv", {
            "n": inc.n_values, "delta_N": inc.delta_N, "delta_M": inc.delta_M,
            "delta_N_norm": inc.delta_N_norm, "delta_M_norm": inc.delta_M_norm,
            "rank_step": inc.increment_steps}),
        ("cavity_report.csv", {
            "f1_sup": [report.f1_sup_value], "w_N": [report.weights[0]],
            "w_M": [report.weights[1]], "combined": [report.combined_mean],
            "combined_se": [report.combined_se],
            "table_free_entropy": [report.table_free_entropy],
            "table_free_entropy_se": [report.table_free_entropy_se],
            "diff": [report.diff], "diff_se": [report.diff_se],
            "plain_combined": [report.plain_combined_mean],
            "plain_diff": [report.plain_diff],
            "telescoping_residual": [report.telescoping_residual]}),
    ]


HANDLERS = {name: globals()[f"run_{name.replace('-', '_')}"] for name in SCHEMAS}


# exception types -> (error record kind, exit code); the first match wins.  A
# float overflow (a valid prior's rho**2 past the float range) is a non-finite
# result.  main matches simulator.BudgetError (exit 3) first, looked up only
# on the failure path, so that importing the CLI does not load the simulator
FAILURES = [
    (ConfigFileError, "config", EXIT_VALIDATION),
    (NonConvergenceError, "non-convergence", EXIT_NONCONVERGENCE),
    ((NonFiniteResultError, OverflowError), "non-finite", EXIT_INTERNAL),
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
    """Interpreter and NumPy versions and the CPU count."""
    return {"python": ".".join(map(str, sys.version_info[:3])),
            "numpy": np.__version__, "cpu_count": os.cpu_count()}


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
    stages = []                 # (name, start) of each stage entered
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always", RuntimeWarning)
            warnings.showwarning = _counting(warned, warnings.showwarning)
            config = meta["config"] = _read_config(args.config)
            meta["config_sha256"] = _config_hash(config)
            cfg = _fields(SCHEMAS[args.subcommand], config, "config")
            seed = meta["seed"] = cfg["seed"] if args.seed is None else SEED(args.seed, "--seed")
            stages.append(("compute_s", time.monotonic()))
            outputs = HANDLERS[args.subcommand](cfg, seed)
            _check_finite(outputs)
            stages.append(("write_s", time.monotonic()))
            for name, columns in outputs:
                if isinstance(columns, str):            # raw text artifact
                    (out_dir / name).write_text(columns)
                else:
                    _write_csv(out_dir / name, columns, seed, meta["config_sha256"])
                meta["outputs"].append(name)
        stopped, code = time.monotonic(), EXIT_OK
    except Exception as exc:    # the boundary: every failure is reported, none escapes
        stopped = time.monotonic()
        simulator = sys.modules.get(f"{__package__}.simulator")    # loaded if it raised
        budget = [(simulator.BudgetError, "budget", EXIT_BUDGET)] if simulator else []
        kind, code = next((k, c) for t, k, c in budget + FAILURES if isinstance(exc, t))
        meta["partial"] = True
        meta["error"] = str(exc)
        if kind == "internal":
            exc = f"{type(exc).__name__}: {exc}"
            meta["traceback"] = traceback.format_exc()
        _error_record(kind, exc)
    ends = [start for _, start in stages[1:]] + [stopped]
    meta["stages"] = {name: end - start for (name, start), end in zip(stages, ends)}
    meta["runtime_warnings"] = {"count": sum(warned.values()), "messages": sorted(warned)}
    meta["wall_time_s"] = time.monotonic() - started
    with open(out_dir / f"{args.subcommand.replace('-', '_')}_manifest.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
