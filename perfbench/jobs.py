"""Workload job lists and the per-job output checks.

A job is one ``wignerlab`` CLI call: a subcommand and its JSON config.  The
workload seed is passed to every job as ``--seed``; the configs are fixed.
``check_job`` reads what a job left in its output directory and returns the
list of problems found; a job with any problem counts as failed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

RADEMACHER = "rademacher"
SPARSE = {"kind": "sparse_rademacher", "p": 0.3}
# centred but not sign-symmetric: a search that assumes x -> -x symmetry is wrong here
ASYMMETRIC = {"kind": "atoms", "atoms": [[-1.0, 2.0 / 3.0], [2.0, 1.0 / 3.0]]}

WORKLOADS = {
    "enum-large": [
        ("simulate", {"prior": RADEMACHER, "N": 20, "M": 1, "lambda": 1.0,
                      "replicates": 2, "posterior": True}),
        ("simulate", {"prior": RADEMACHER, "N": 10, "M": 2, "lambda": 1.0,
                      "replicates": 1, "posterior": True}),
        ("simulate", {"prior": SPARSE, "N": 12, "M": 1, "lambda": 1.0,
                      "replicates": 2, "posterior": True}),
        ("simulate", {"prior": RADEMACHER, "N": 20, "M": 1, "lambda": 1.0,
                      "epsilon": 0.2, "replicates": 3}),
    ],
    "replicates-small": [
        ("simulate", {"prior": RADEMACHER, "N": 1, "M": 1, "lambda": 1.0,
                      "replicates": 10000}),
        ("simulate", {"prior": RADEMACHER, "N": 4, "M": 1, "lambda": 1.0,
                      "replicates": 2000, "posterior": True}),
        ("concentration", {"prior": RADEMACHER, "N_grid": [6, 10], "M": 1,
                           "lambda": 1.0, "n_eps": 4, "replicates": 100}),
        ("cavity", {"prior": RADEMACHER, "lambda": 1.0, "alpha": 1.0,
                    "gamma": 0.5, "N_max": 6, "replicates": 200}),
    ],
    "potential-search": [
        ("reduce", {"prior": RADEMACHER, "M": 3, "lambda_grid": [2.0],
                    "n_sigma": 50}),
        ("reduce", {"prior": ASYMMETRIC, "M": 2, "lambda_grid": [0.5, 1.5]}),
        ("reduce", {"prior": SPARSE, "M": 2, "lambda_grid": [2.0], "n_sigma": 50}),
        ("phase-scan", {"prior": RADEMACHER,
                        "lambda_grid": {"start": 0.2, "stop": 3.0, "count": 57}}),
    ],
}

LNZ_TOL = 1e-12          # |delta ln Z| allowed against a stored reference
RESIDUAL_FLOOR = -1e-6   # noise-inequality residuals (criteria 1-2)
TELESCOPING_TOL = 1e-12  # cavity telescoping identity
REF_ROWS = 32            # rows kept per referenced column


def manifest_name(subcommand: str) -> str:
    return f"{subcommand.replace('-', '_')}_manifest.json"


def expected_csvs(subcommand: str, config: dict) -> list[str]:
    if subcommand == "simulate":
        return ["simulate.csv"]
    if subcommand == "concentration":
        return ["concentration.csv"]
    if subcommand == "cavity":
        return ["cavity_table.csv", "cavity_increments.csv", "cavity_report.csv"]
    if subcommand == "reduce":
        return ["reduction.csv"] + (["noise_checks.csv"] if config.get("n_sigma") else [])
    if subcommand == "phase-scan":
        return ["phase_scan.csv"]
    raise ValueError(f"no checks defined for subcommand {subcommand!r}")


def lnz_columns(subcommand: str, config: dict) -> list[tuple[str, str, float]]:
    """(file, column, scale) for the CSV columns that hold ln Z / scale."""
    if subcommand == "simulate":
        return [("simulate.csv", "free_entropy", float(config["N"] * config.get("M", 1)))]
    if subcommand == "cavity":
        return [("cavity_table.csv", "L", 1.0)]
    return []


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def csv_digest(out_dir: Path, subcommand: str, config: dict) -> tuple[dict, int]:
    """SHA-256 of every expected CSV that exists, and their total size."""
    digests, size = {}, 0
    for name in expected_csvs(subcommand, config):
        path = out_dir / name
        if path.is_file():
            data = path.read_bytes()
            digests[name] = hashlib.sha256(data).hexdigest()
            size += len(data)
    return digests, size


def make_refs(subcommand: str, config: dict, out_dir: Path) -> list[dict]:
    """Reference entries for a job's ln Z columns, from a run taken as correct."""
    refs = []
    for name, column, scale in lnz_columns(subcommand, config):
        values = [float(r[column]) for r in read_csv(out_dir / name)]
        n = len(values)
        idx = sorted({round(i * (n - 1) / (REF_ROWS - 1)) for i in range(REF_ROWS)}) \
            if n > REF_ROWS else range(n)
        refs.append({"file": name, "column": column, "scale": scale, "count": n,
                     "rows": {str(i): values[i] for i in idx},
                     "mean": math.fsum(values) / n})
    return refs


def _floats(rows, column):
    return [float(r[column]) for r in rows]


def check_job(subcommand: str, config: dict, out_dir: Path, code,
              refs: list[dict] | None = None) -> list[str]:
    """Every reason the job's output is wrong; an empty list means it passed."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        return _check_outputs(subcommand, config, out_dir, refs)
    except (KeyError, IndexError, ValueError) as exc:   # a column, row or file unreadable
        return [f"unexpected output layout: {exc!r}"]


def _check_outputs(subcommand, config, out_dir, refs):
    manifest = out_dir / manifest_name(subcommand)
    if not manifest.is_file():
        return ["no manifest"]
    if json.loads(manifest.read_text()).get("partial", True):
        return ["partial manifest"]
    problems = []
    tables = {}
    for name in expected_csvs(subcommand, config):
        path = out_dir / name
        if not path.is_file():
            problems.append(f"missing {name}")
            continue
        tables[name] = rows = read_csv(path)
        for i, row in enumerate(rows):
            for key, text in row.items():
                try:
                    value = float(text)
                except (TypeError, ValueError):
                    continue                    # labels and booleans
                if not math.isfinite(value):
                    problems.append(f"{name} row {i}: non-finite {key}={text}")
    if problems:
        return problems

    if "simulate.csv" in tables:
        rows = tables["simulate.csv"]
        if len(rows) != config["replicates"]:
            problems.append(f"simulate.csv has {len(rows)} rows, "
                            f"expected {config['replicates']}")
        for column in ("matrix_mmse", "overlap_fluct"):
            if rows and column in rows[0] and min(_floats(rows, column)) < 0:
                problems.append(f"simulate.csv: negative {column}")
    if "concentration.csv" in tables:
        if min(_floats(tables["concentration.csv"], "estimate")) < 0:
            problems.append("concentration.csv: negative overlap fluctuation")
    if "cavity_report.csv" in tables:
        res = max(_floats(tables["cavity_report.csv"], "telescoping_residual"))
        if res > TELESCOPING_TOL:
            problems.append(f"cavity telescoping residual {res:.3g} > {TELESCOPING_TOL:g}")
    if "reduction.csv" in tables:
        rows = tables["reduction.csv"]
        if len(rows) != len(config["lambda_grid"]):
            problems.append(f"reduction.csv has {len(rows)} rows")
        for row in rows:
            for gate in ("pass_gap", "pass_isotropy"):
                if row[gate] != "true":
                    problems.append(f"reduction.csv lambda={row['lambda']}: {gate} "
                                    f"(gap {row['gap']}, isotropy {row['isotropy']})")
    if "noise_checks.csv" in tables:
        rows = tables["noise_checks.csv"]
        worst = min(_floats(rows, "trim_residual") + _floats(rows, "trace_residual"))
        if worst < RESIDUAL_FLOOR:
            problems.append(f"noise residual {worst:.3g} < {RESIDUAL_FLOOR:g}")
    for ref in refs or []:
        values = _floats(tables[ref["file"]], ref["column"])
        if len(values) != ref["count"]:
            problems.append(f"{ref['file']}: {len(values)} rows, reference has {ref['count']}")
            continue
        scale = ref["scale"]
        for i, want in ref["rows"].items():
            err = abs(values[int(i)] - want) * scale
            if err > LNZ_TOL:
                problems.append(f"{ref['file']} row {i}: ln Z off the reference by {err:.3g}")
        err = abs(math.fsum(values) / len(values) - ref["mean"]) * scale
        if err > LNZ_TOL:
            problems.append(f"{ref['file']}: mean ln Z off the reference by {err:.3g}")
    return problems
