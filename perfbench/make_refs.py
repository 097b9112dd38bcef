"""Regenerate ``refs.json``: stored ln Z references for the documented seeds.

    python3 perfbench/make_refs.py

Runs each enumeration workload once per seed in ``SEEDS`` with the code in
``src/`` and keeps, for every job that enumerates, up to ``jobs.REF_ROWS`` rows
of its ln Z column and the column mean.  The benchmark then requires every later run on
those seeds to match them to ``jobs.LNZ_TOL`` in ln Z.  Only regenerate from a
commit whose results are known to be right.
"""

from __future__ import annotations

import json
import shutil
import sys

import jobs as jobs_mod
import run

REF_WORKLOADS = ("enum-large", "replicates-small")
SEEDS = range(32)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from wignerlab import cli

    out = {"tolerance_lnz": jobs_mod.LNZ_TOL, "seeds": f"{SEEDS[0]}-{SEEDS[-1]}", "refs": {}}
    for workload in REF_WORKLOADS:
        job_list = jobs_mod.WORKLOADS[workload]
        per_seed = out["refs"][workload] = {}
        for seed in SEEDS:
            work = run.OUT / "refs" / f"{workload}-seed{seed}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            p = run.Pass(job_list, work, seed).run(cli)
            problems = p.check()
            if any(problems):
                raise SystemExit(f"{workload} seed {seed} fails its checks: {problems}")
            per_seed[str(seed)] = {
                str(i): refs for i, ((sub, config), d) in enumerate(zip(job_list, p.dirs))
                if (refs := jobs_mod.make_refs(sub, config, d))}
            print(f"{workload} seed {seed}: {p.wall_s:.2f} s", flush=True)
    run.REFS.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
