"""Write a committed before/after record for the checkout this script is in.

    python3 tools/bench_file.py BENCH_26.json

Run from anywhere; the program is taken from ``src/`` of this script's
checkout.  To record a parent commit, run the same script from a copy of that
commit's tree.  The JSON file holds:

- ``workloads``: per ``perfbench/run.py`` workload, every end-to-end metric's
  median and quartiles over ``RUNS`` untraced runs of ``SECONDS`` each
  (seeds 1 .. RUNS), and the failed / attempted job counts;
- ``subcommands``: per CLI subcommand, the wall time of a fresh
  ``python -m wignerlab.cli`` process on the fixed small config in
  ``SUBCOMMANDS``, median and quartiles of ``STARTS`` round-robin starts
  (after one untimed round that writes the bytecode caches, where they are
  written);
- ``kernels``: in ``STARTS`` fresh interpreters (``KERNELS``), median and
  quartiles of the in-process seconds of
  ``free_entropy_replicates(rademacher, 2, 7, 1.0, replicates=512)`` and of
  the ``ru_maxrss`` growth above the imports it causes (its A-block is one
  row, which enumerates a single configuration per orbit of the column sign
  flips), of ``mi_scalar_signal``'s seconds per evaluation at s = 1 on the
  order-64 rule (the mean of 200 calls after one warm-up call), and of the
  nanoseconds per configuration of ``posterior_replicates(rademacher, N, M)``
  at (20, 1) and (10, 2): the mean seconds of 5 calls after one warm-up
  call, over replicates x 2^(N M), the full configuration count; and the
  microseconds per replicate of ``posterior_replicates(rademacher, 4, 1,
  replicates=2000)``, the posterior job of ``replicates-small`` (the mean of
  5 calls after one warm-up call); and the microseconds per replicate of
  ``simulator._disorder``, the disorder draw of one chunk, at (1, 1) x 10,000,
  (4, 1) x 2,000 and (20, 1) x 3 replicates (the mean of 20 calls after one
  warm-up call): the masters of ``replicates-small``'s simulate jobs and of
  ``enum-large``'s first, which ``rng.draws`` reads in lockstep (the first)
  or row by row (the other two: a (4, 1) row holds 28 Philox words);
- ``tier1``: the Tier-1 suite's wall time, outcome counts and per-test
  durations (from ``pytest --junitxml``);
- ``src_lines``: the lines of each ``src/wignerlab/*.py`` module, and their
  ``total``;
- ``calibration_s`` and ``calibration_end_s``: the median time of a fixed
  pure-Python loop (``REPEATS`` times) before and after the runs, which
  places the host's speed state (a shared host can drift between speed states);
- ``env``: Python and NumPy versions, CPU count and
  ``sys.flags.dont_write_bytecode`` (with it set, every fresh interpreter
  compiles ``src/`` again).

Numbers from two files compare only when their calibration times agree.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
RUNS = 5            # benchmark runs per workload
SECONDS = 10.0      # --seconds of each benchmark run
STARTS = 7          # timed fresh-process starts per subcommand
REPEATS = 7         # calibration loops
WORKLOADS = ("enum-large", "replicates-small", "potential-search")
# one fixed small config per subcommand, so that start-up is a visible share
SUBCOMMANDS = {
    "prior": {"prior": {"kind": "sparse_rademacher", "p": 0.3}, "sample_count": 1000},
    "mi": {"prior": "rademacher", "s_grid": {"start": 0.0, "stop": 2.0, "count": 9}},
    "potential": {"prior": "rademacher", "lambda": 1.5, "tau_grid": [0.0, 0.5, 1.0], "M": 2},
    "fixed-point": {"prior": "rademacher", "lambda_grid": [0.5, 1.5, 2.5]},
    "phase-scan": {"prior": "rademacher", "lambda_grid": {"start": 0.2, "stop": 3.0, "count": 15}},
    "reduce": {"prior": "rademacher", "M": 2, "lambda_grid": [1.5], "n_sigma": 2},
    "simulate": {"prior": "rademacher", "N": 6, "replicates": 50, "posterior": True},
    "concentration": {"prior": "rademacher", "N_grid": [4, 6], "replicates": 20},
    "cavity": {"prior": "rademacher", "N_max": 5, "replicates": 20},
}


# one fresh interpreter's kernel measurements, printed as one JSON line
KERNELS = """
import json, resource, time
from wignerlab import channel, priors, simulator
prior = priors.make_rademacher()
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
t0 = time.perf_counter()
simulator.free_entropy_replicates(prior, 2, 7, 1.0, replicates=512, seed=1)
enum_s = time.perf_counter() - t0
enum_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
quad = channel.gauss_hermite(64)
channel.mi_scalar_signal(prior, 1.0, quad)
t0 = time.perf_counter()
for _ in range(200):
    channel.mi_scalar_signal(prior, 1.0, quad)
out = {"free_entropy_replicates_2x7x512_s": enum_s,
       "free_entropy_replicates_2x7x512_peak_mb": enum_kb / 1024,
       "mi_scalar_signal_order64_s": (time.perf_counter() - t0) / 200}
for N, M, R in ((20, 1, 2), (10, 2, 1)):
    simulator.posterior_replicates(prior, N, M, 1.0, replicates=R, seed=1)
    t0 = time.perf_counter()
    for _ in range(5):
        simulator.posterior_replicates(prior, N, M, 1.0, replicates=R, seed=1)
    out[f"posterior_replicates_{N}x{M}_ns_per_config"] = (
        (time.perf_counter() - t0) / 5 / (R * 2 ** (N * M)) * 1e9)
simulator.posterior_replicates(prior, 4, 1, 1.0, replicates=2000, seed=1)
t0 = time.perf_counter()
for _ in range(5):
    simulator.posterior_replicates(prior, 4, 1, 1.0, replicates=2000, seed=1)
out["posterior_replicates_4x1x2000_us_per_replicate"] = (time.perf_counter() - t0) / 5 / 2000 * 1e6
for N, M, R in ((1, 1, 10000), (4, 1, 2000), (20, 1, 3)):
    args = (prior, (N, M), simulator.TAG_SIM, 1, slice(0, R))
    simulator._disorder(*args)
    t0 = time.perf_counter()
    for _ in range(20):
        simulator._disorder(*args)
    out[f"disorder_{N}x{M}x{R}_us_per_replicate"] = (time.perf_counter() - t0) / 20 / R * 1e6
print(json.dumps(out))
"""


def summary(values):
    """Median and quartiles of ``values``, with their count."""
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def src_env(root):
    """The environment with ``root``/src first on PYTHONPATH."""
    path = [str(root / "src"), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def workload_runs(root, workload):
    """Each end-to-end metric of RUNS untraced benchmark runs, seeds 1 .. RUNS."""
    values, failed, attempted = {}, 0, 0
    for seed in range(1, RUNS + 1):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(SECONDS), "--trace", "0"],
            cwd=root, capture_output=True, text=True, check=True, timeout=20 * SECONDS + 120)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        attempted += result["attempted"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return {"failed": failed, "attempted": attempted,
            **{name: summary(v) for name, v in values.items()}}


def subcommand_starts(root, work):
    """Per subcommand, wall seconds of fresh ``python -m wignerlab.cli``
    processes on its fixed config.  The starts go round-robin over the
    subcommands, so a burst of host load lands on one start of several
    subcommands rather than on every start of one; the first, untimed, round
    is dropped."""
    argvs = {}
    for sub, config in SUBCOMMANDS.items():
        cfg = work / f"{sub}.json"
        cfg.write_text(json.dumps(config))
        argvs[sub] = [sys.executable, "-m", "wignerlab.cli", sub, "--config", str(cfg),
                      "--seed", "5", "--out", str(work / sub)]
    times = {sub: [] for sub in SUBCOMMANDS}
    for _ in range(STARTS + 1):
        for sub, argv in argvs.items():
            t0 = time.perf_counter()
            subprocess.run(argv, env=src_env(root), capture_output=True, check=True, timeout=300)
            times[sub].append(time.perf_counter() - t0)
    return {sub: summary(t[1:]) for sub, t in times.items()}


def kernel_runs(root):
    """Each ``KERNELS`` measurement over STARTS fresh interpreters."""
    values = {}
    for _ in range(STARTS):
        proc = subprocess.run([sys.executable, "-c", KERNELS], env=src_env(root),
                              capture_output=True, text=True, check=True, timeout=300)
        for name, value in json.loads(proc.stdout).items():
            values.setdefault(name, []).append(value)
    return {name: summary(v) for name, v in values.items()}


def tier1(root, work):
    """Wall time, outcome counts and per-test durations of the Tier-1 suite."""
    xml = work / "tier1.xml"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                    "-p", "no:cacheprovider", f"--junitxml={xml}"],
                   cwd=root, env=src_env(root), capture_output=True, timeout=3600)
    wall = time.perf_counter() - t0
    cases = ET.parse(xml).getroot().iter("testcase")
    durations, outcomes = {}, {"passed": 0, "failed": 0, "skipped": 0, "error": 0}
    for case in cases:
        name = f"{case.get('classname')}::{case.get('name')}"
        durations[name] = round(float(case.get("time")), 4)
        outcome = next((child.tag for child in case
                        if child.tag in ("failure", "error", "skipped")), "passed")
        outcomes[{"failure": "failed"}.get(outcome, outcome)] += 1
    return {"wall_s": wall, **outcomes, "durations_s": durations}


def src_lines(root):
    """Lines per ``src/wignerlab`` module, and their total."""
    lines = {path.name: len(path.read_text().splitlines())
             for path in sorted((root / "src" / "wignerlab").glob("*.py"))}
    return {**lines, "total": sum(lines.values())}


def calibration():
    """Median seconds of a fixed pure-Python loop."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        sum(i * i % 7 for i in range(2_000_000))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(out) -> int:
    record = {"env": {"python": ".".join(map(str, sys.version_info[:3])),
                      "numpy": np.__version__, "cpu_count": os.cpu_count(),
                      "dont_write_bytecode": sys.flags.dont_write_bytecode},
              "src_lines": src_lines(ROOT), "calibration_s": calibration()}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        record["subcommands"] = subcommand_starts(ROOT, work)
        record["kernels"] = kernel_runs(ROOT)
        record["workloads"] = {w: workload_runs(ROOT, w) for w in WORKLOADS}
        record["tier1"] = tier1(ROOT, work)
    record["calibration_end_s"] = calibration()
    Path(out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT.json")
    sys.exit(main(sys.argv[1]))
