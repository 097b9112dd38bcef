"""Reproducible experiment runner.

Every subcommand reads a JSON config, validates it against the target
operation's preconditions before any computation starts, runs its jobs in
order, and writes CSV results plus a JSON run manifest (config echo, content
hash, wall time).  Fixed (config, seed) reproduces CSV bodies
byte-identically.

Exit codes: 0 success, 2 validation error, 3 enumeration budget overflow,
4 non-convergence flagged as fatal by the config.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import cavity, channel, priors, reduction, replica, rng, simulator

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_NONCONVERGENCE = 4


class ConfigError(ValueError):
    pass


class NonConvergenceError(RuntimeError):
    pass


def _fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _config_hash(config: dict) -> str:
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


def prior_from_config(spec) -> priors.Prior:
    if isinstance(spec, str):
        spec = {"kind": spec}
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("prior spec must be a name or a {kind: ...} object")
    kind = spec["kind"]
    if kind == "rademacher":
        return priors.make_rademacher()
    if kind == "sparse_rademacher":
        if "p" not in spec:
            raise ConfigError("sparse_rademacher needs a sparsity level p")
        if not 0 < spec["p"] <= 1:
            raise ConfigError("sparsity level p must be in (0, 1]")
        return priors.make_sparse_rademacher(spec["p"])
    if kind == "uniform":
        D = spec.get("D", 1.0)
        n_nodes = spec.get("n_nodes", 16)
        if D <= 0:
            raise ConfigError("uniform prior needs D > 0")
        if n_nodes < 2:
            raise ConfigError("uniform prior needs n_nodes >= 2")
        return priors.make_discretized_uniform(D, n_nodes)
    if kind == "atoms":
        return priors.make_prior(spec["atoms"], label=spec.get("label", "custom"))
    raise ConfigError(f"unknown prior kind {kind!r}")


def _integer(config, key, default):
    value = config.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _quad(config, default=64):
    order = _integer(config, "quad_order", default)
    if not 1 <= order <= 256:
        raise ConfigError("quad_order must be in [1, 256]")
    return channel.gauss_hermite(order)


def _grid(config, key):
    """A 1-d grid of finite values: a list, or {start, stop, count}."""
    g = config.get(key)
    if g is None:
        raise ConfigError(f"config needs {key!r}")
    if isinstance(g, dict):
        if set(g) != {"start", "stop", "count"} or _integer(g, "count", None) < 1:
            raise ConfigError(f"{key} needs start, stop and a positive integer count")
        g = np.linspace(*np.asarray([g["start"], g["stop"]], dtype=float), g["count"])
    grid = np.asarray(g, dtype=float)
    if grid.ndim != 1 or not np.all(np.isfinite(grid)):
        raise ConfigError(f"{key} must be a list of finite numbers")
    return grid


# ---------------------------------------------------------------------------
# subcommand handlers: each returns a list of (filename, header, rows)
# ---------------------------------------------------------------------------

def run_prior(config, seed):
    p = prior_from_config(config["prior"])
    count = config.get("sample_count", 0)
    row = {
        "label": p.label, "n_atoms": p.n_atoms,
        "mean": float(p.weights @ p.values), "rho": p.rho, "D": p.support_bound,
        "sample_count": count, "sample_mean": 0.0, "sample_second_moment": 0.0,
    }
    if count:
        draws = priors.sample(p, count, rng.stream(seed, rng.tag("prior")))
        row["sample_mean"] = float(draws.mean())
        row["sample_second_moment"] = float((draws**2).mean())
    header = list(row)
    return [("prior.csv", header, [row])]


def run_mi(config, seed):
    p = prior_from_config(config["prior"])
    quad = _quad(config)
    s_grid = _grid(config, "s_grid")
    if np.any(s_grid < 0):
        raise ConfigError("signal scales must be nonnegative")

    rows = [{"s": float(s), "mi": channel.mi_scalar_signal(p, float(s), quad),
             "mmse": channel.mmse_scalar(p, float(s), quad)} for s in s_grid]
    return [("mi.csv", ["s", "mi", "mmse"], rows)]


def run_potential(config, seed):
    p = prior_from_config(config["prior"])
    quad = _quad(config)
    lam = config.get("lambda", 1.0)
    if lam < 0:
        raise ConfigError("lambda must be nonnegative")
    taus = _grid(config, "tau_grid")
    if np.any(taus < 0) or np.any(taus > p.rho + 1e-12):
        raise ConfigError("tau grid must stay in [0, rho]")
    M = config.get("M", 1)

    def job(tau):
        row = {"tau": float(tau), "lambda": lam,
               "f1": replica.f1_rs(p, float(tau), lam, quad)}
        if M > 1:
            ev = replica.fm_rs(p, M, float(tau) * np.eye(M), lam)
            row["fm_logz"] = ev.value_logz
            row["fm_mi_form"] = ev.value_mi
        return row

    rows = [job(tau) for tau in taus]
    header = ["tau", "lambda", "f1"] + (["fm_logz", "fm_mi_form"] if M > 1 else [])
    return [("potential.csv", header, rows)]


def run_fixed_point(config, seed):
    p = prior_from_config(config["prior"])
    quad = _quad(config)
    lams = _grid(config, "lambda_grid")
    damping = config.get("damping", 0.5)
    if not 0 < damping <= 1:
        raise ConfigError("damping must be in (0, 1]")
    M = config.get("M", 1)
    q0 = config.get("q0", p.rho)
    if not 0 <= q0 <= p.rho:
        raise ConfigError("q0 must lie in [0, rho]")

    def job(lam):
        if M == 1:
            res = replica.f1_fixed_point(p, float(lam), q0, damping, quad)
            q_out = res.overlap
        else:
            res = replica.fm_fixed_point(p, M, float(lam), q0 * np.eye(M), damping)
            q_out = float(np.trace(res.overlap)) / M
        return {"lambda": float(lam), "q_star": q_out,
                "iterations": res.iterations, "residual": res.residual,
                "converged": res.converged, "potential": res.potential_value}

    rows = [job(lam) for lam in lams]
    if config.get("fatal_nonconvergence", False) and not all(r["converged"] for r in rows):
        raise NonConvergenceError("fixed-point iteration did not converge")
    header = ["lambda", "q_star", "iterations", "residual", "converged", "potential"]
    return [("fixed_point.csv", header, rows)]


def run_phase_scan(config, seed):
    p = prior_from_config(config["prior"])
    quad = _quad(config)
    lams = _grid(config, "lambda_grid")
    scan = replica.phase_scan(p, lams, quad)
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


def run_reduce(config, seed):
    p = prior_from_config(config["prior"])
    M = _integer(config, "M", 2)
    lams = _grid(config, "lambda_grid")
    if np.any(lams < 0):
        raise ConfigError("lambda grid must be nonnegative")
    outputs = []
    reports = reduction.reduction_sweep(p, M, lams)
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
    n_sigma = config.get("n_sigma", 0)
    if n_sigma:
        trim, trace = reduction.noise_inequality_batch(p, M, n_sigma, seed)
        rows = [{"sample": i, "trim_residual": float(trim[i]),
                 "trace_residual": float(trace[i])} for i in range(n_sigma)]
        outputs.append(("noise_checks.csv",
                        ["sample", "trim_residual", "trace_residual"], rows))
    return outputs


def _simulate_validate(config):
    p = prior_from_config(config["prior"])
    N, M = config.get("N"), config.get("M", 1)
    if not N or N < 1 or M < 1:
        raise ConfigError("simulate needs N >= 1 and M >= 1")
    lam = config.get("lambda", 1.0)
    if lam < 0:
        raise ConfigError("lambda must be nonnegative")
    replicates = config.get("replicates", 100)
    if replicates < 1:
        raise ConfigError("need at least one replicate")
    eps = config.get("epsilon", 0.0)
    if eps < 0:
        raise ConfigError("epsilon must be nonnegative")
    return p, N, M, lam, eps, replicates


def run_simulate(config, seed):
    p, N, M, lam, eps, replicates = _simulate_validate(config)
    simulator._check_budget(p, N, M)
    want_posterior = config.get("posterior", False)
    outputs = []
    if want_posterior:
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
    if config.get("dump_instance", False):
        inst = simulator.sample_instance(p, N, M, lam, seed)
        outputs.append(("instance.json", None,
                        simulator.instance_to_json(inst, p.label)))
    return outputs


def run_concentration(config, seed):
    p = prior_from_config(config["prior"])
    Ns = [int(n) for n in config.get("N_grid", [])]
    if not Ns:
        raise ConfigError("concentration needs an N_grid")
    M = config.get("M", 1)
    lam = config.get("lambda", 1.0)
    exponent = config.get("s_exponent", 0.125)
    n_eps = config.get("n_eps", 4)
    if n_eps < 2:
        raise ConfigError("need n_eps >= 2")
    replicates = config.get("replicates", 100)
    for n in Ns:
        simulator._check_budget(p, n, M)

    def job(n):
        s_n = float(n) ** (-exponent)
        est, se, gamma = simulator.overlap_concentration(
            p, n, M, lam, s_n, n_eps, replicates, seed)
        return {"N": n, "s_N": s_n, "estimate": est, "std_err": se,
                "gamma": gamma, "ratio": est / gamma}

    rows = [job(n) for n in Ns]
    header = ["N", "s_N", "estimate", "std_err", "gamma", "ratio"]
    return [("concentration.csv", header, rows)]


def run_cavity(config, seed):
    p = prior_from_config(config["prior"])
    lam = config.get("lambda", 1.0)
    alpha = config.get("alpha", 1.0)
    gamma = config.get("gamma", 0.5)
    n_max = config.get("N_max", 8)
    if alpha <= 0 or gamma < 0 or n_max < 1:
        raise ConfigError("cavity needs alpha > 0, gamma >= 0, N_max >= 1")
    T = config.get("T", 0)
    if not 0 <= T < n_max:
        raise ConfigError("truncation T must satisfy 0 <= T < N_max")
    replicates = config.get("replicates", 100)
    schedule = cavity.dims_schedule(alpha, gamma, n_max)
    if schedule.rank_at(n_max) < 1:
        raise ConfigError("schedule reaches rank 0 at N_max; increase alpha or N_max")
    eps = config.get("epsilon", float(n_max) ** (-0.125))
    table = cavity.build_table(p, lam, schedule, eps, replicates, seed, T=T)
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


HANDLERS = {
    "prior": run_prior,
    "mi": run_mi,
    "potential": run_potential,
    "fixed-point": run_fixed_point,
    "phase-scan": run_phase_scan,
    "reduce": run_reduce,
    "simulate": run_simulate,
    "concentration": run_concentration,
    "cavity": run_cavity,
}


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

    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _error_record("config", exc)
        return EXIT_VALIDATION

    seed = args.seed if args.seed is not None else config.get("seed", 0)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    meta = {
        "subcommand": args.subcommand,
        "config": config,
        "config_sha256": _config_hash(config),
        "seed": int(seed),
        "outputs": [],
        "partial": False,
    }
    started = time.monotonic()
    try:
        outputs = HANDLERS[args.subcommand](config, int(seed))
        for name, header, rows in outputs:
            if header is None:                      # raw text artifact
                path = out_dir / name
                path.write_text(rows)
                meta["outputs"].append(name)
            else:
                _write_csv(out_dir / name, header, rows, meta)
        code = EXIT_OK
    except (ConfigError, simulator.BudgetError, NonConvergenceError, ValueError) as exc:
        meta["partial"] = True
        meta["error"] = str(exc)
        if isinstance(exc, simulator.BudgetError):
            _error_record("budget", exc)
            code = EXIT_BUDGET
        elif isinstance(exc, NonConvergenceError):
            _error_record("non-convergence", exc)
            code = EXIT_NONCONVERGENCE
        else:
            _error_record("validation", exc)
            code = EXIT_VALIDATION
    meta["wall_time_s"] = time.monotonic() - started
    with open(out_dir / f"{args.subcommand.replace('-', '_')}_manifest.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
