"""wignerlab benchmark: fixed job mixes through the public CLI runner.

    python3 perfbench/run.py --workload enum-large --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One client runs the workload's jobs one after another through
``wignerlab.cli.main`` in this process (a closed loop), and repeats the whole
job list with the same seed until another pass as slow as the slowest so far
would end more than ``--seconds`` after the run started, set-up sampling
included (at least two passes, so that every pass after the first is a
determinism check).  Every job's output is checked (see
``jobs.check_job``).

``--trace 0`` reports the end-to-end metrics: median wall time of a pass over
the job list, median interpreter start-up to ``wignerlab.cli`` imported (fresh
interpreters), and the peak resident memory of this process.  ``--trace 1``
wraps every layer's public functions (see ``tracing.py``) and reports the
per-layer metrics as medians over passes instead.  The last line of standard
output is the JSON result; details, the environment and (traced) all spans go
to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import jobs as jobs_mod

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
REFS = Path(__file__).resolve().parent / "refs.json"
SETUP_SAMPLES = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def measure_setup(samples=SETUP_SAMPLES) -> list[float]:
    """Seconds from spawning a fresh interpreter to ``wignerlab.cli`` imported.

    CLOCK_MONOTONIC is system-wide, so the child's reading after the import is
    comparable with the parent's reading before the spawn.  One untimed start
    first writes the bytecode caches, which users pay only once.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    code = "import time, wignerlab.cli as c; print(time.monotonic(), c.__file__)"
    out = []
    for i in range(samples + 1):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        t1, where = proc.stdout.split()
        if not Path(where).resolve().is_relative_to(SRC):
            raise RuntimeError(f"fresh interpreter imported wignerlab from {where}")
        if i:
            out.append(float(t1) - t0)
    return out


def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    import ctypes
    try:
        libs = {line.split()[-1] for line in open("/proc/self/maps")
                if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_job(cli, subcommand, cfg_path, seed, out_dir):
    try:
        return cli.main([subcommand, "--config", str(cfg_path), "--seed", str(seed),
                         "--out", str(out_dir)])
    except SystemExit as exc:
        return exc.code
    except Exception:
        traceback.print_exc()
        return "uncaught exception"


class Pass:
    """One timed pass over a job list, then the checks of its outputs."""

    def __init__(self, job_list, work_dir: Path, seed: int):
        self.job_list = job_list
        self.seed = seed
        self.dirs = [work_dir / f"{i:02d}-{sub}" for i, (sub, _) in enumerate(job_list)]
        self.configs = []
        for d, (_, config) in zip(self.dirs, job_list):
            path = d.with_suffix(".json")
            path.write_text(json.dumps(config))
            self.configs.append(path)

    def run(self, cli):
        for d in self.dirs:
            shutil.rmtree(d, ignore_errors=True)
        self.codes, ends = [], []
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        for (sub, _), cfg, d in zip(self.job_list, self.configs, self.dirs):
            self.codes.append(run_job(cli, sub, cfg, self.seed, d))
            ends.append(time.perf_counter())
        self.wall_s = ends[-1] - t0
        self.cpu_s = cpu_seconds() - cpu0
        self.job_s = [b - a for a, b in zip([t0] + ends, ends)]
        return self

    def check(self, refs=None, digests=None) -> list[list[str]]:
        """Problems per job; ``digests`` from an earlier pass must match."""
        self.digests, self.csv_bytes, problems = [], 0, []
        for i, ((sub, config), d, code) in enumerate(zip(self.job_list, self.dirs,
                                                         self.codes)):
            found = jobs_mod.check_job(sub, config, d, code, (refs or {}).get(str(i)))
            digest, size = jobs_mod.csv_digest(d, sub, config)
            self.digests.append(digest)
            self.csv_bytes += size
            if digests is not None and digest != digests[i]:
                found.append("CSV bodies differ from the first pass with the same seed")
            problems.append(found)
        return problems


def load_refs(workload, seed):
    if not REFS.is_file():
        return None
    return json.loads(REFS.read_text())["refs"].get(workload, {}).get(str(seed))


def metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"e2e": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def _median(values):
    """Median; counts stay whole numbers."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(jobs_mod.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "wignerlab" / "cli.py").is_file():
        print(f"no wignerlab source tree under {SRC}", file=sys.stderr)
        return 2
    specs = metric_specs()
    setup = measure_setup() if not args.trace else []
    sys.path.insert(0, str(SRC))
    from wignerlab import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"imported wignerlab from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    job_list = jobs_mod.WORKLOADS[args.workload]
    refs = load_refs(args.workload, args.seed)
    env = environment()

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        missing = tracer.install()
        for name in missing:
            print(f"warning: trace target {name} not found; its metrics read 0")
        tracer.calibrate()

    runner = Pass(job_list, work, args.seed)
    passes, layer_rows, attempted, failed, first = [], [], 0, 0, None
    try:
        while True:
            mark = len(tracer) if tracer else 0
            p = runner.run(cli)
            spans_end = len(tracer) if tracer else 0
            problems = p.check(refs, first)
            first = first or p.digests
            for (sub, _), found in zip(job_list, problems):
                for msg in found:
                    print(f"FAIL pass {len(passes)} {sub}: {msg}")
            attempted += len(job_list)
            failed += sum(1 for f in problems if f)
            passes.append({"wall_s": p.wall_s, "job_s": p.job_s, "cpu_s": p.cpu_s,
                           "codes": p.codes, "csv_bytes": p.csv_bytes, "problems": problems})
            if tracer:
                layer_rows.append(tracer.layer_metrics(mark, spans_end, p.wall_s, p.cpu_s,
                                                       p.csv_bytes))
            walls = [q["wall_s"] for q in passes]
            elapsed = time.perf_counter() - started
            if len(passes) >= 2 and elapsed + max(walls) > args.seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()

    if tracer:
        tracer.write_spans(work / "spans.csv")
        metrics = {name: {"value": _median([r[name] for r in layer_rows]), "unit": unit}
                   for name, unit in specs["layer"].items()}
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setup),
                  "peak_rss_mb": rss_mb}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in specs["e2e"].items()}

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (work / "result.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "references": refs is not None, "environment": env, "setup_samples_s": setup,
        "passes": passes, "layer_passes": layer_rows, "result": result}, indent=1))

    print(f"environment: {json.dumps(env)}")
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes of "
          f"{len(job_list)} jobs; ln Z references "
          f"{'checked' if refs is not None else 'absent for this seed (invariants only)'}")
    print(f"fail_frac = {failed}/{attempted} = {failed / attempted:g}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
