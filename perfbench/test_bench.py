"""Self-tests of the benchmark: its checks catch bad output, and the traced
run's spans nest inside the jobs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import sys

import jobs
import run
from tracing import Tracer

sys.path.insert(0, str(run.SRC))
from wignerlab import cli  # noqa: E402

SIMULATE = ("simulate", {"prior": "rademacher", "N": 4, "M": 1, "lambda": 1.0,
                         "replicates": 5, "posterior": True})
REDUCE = ("reduce", {"prior": {"kind": "sparse_rademacher", "p": 0.3}, "M": 2,
                     "lambda_grid": [2.0], "n_sigma": 4})


def _pass(job_list, name, seed=5):
    work = run.OUT / "selftest" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return run.Pass(job_list, work, seed).run(cli)


def _edit_cell(path, row, column, new):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    fields = lines[row + 1].split(",")
    fields[header.index(column)] = new(fields[header.index(column)])
    lines[row + 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def test_checks_catch_nan_perturbed_lnz_and_nondeterminism():
    p = _pass([SIMULATE], "simulate")
    sub, config = SIMULATE
    refs = {"0": jobs.make_refs(sub, config, p.dirs[0])}
    assert p.check(refs) == [[]]
    clean_digests = p.digests
    path = p.dirs[0] / "simulate.csv"
    clean = path.read_text()

    _edit_cell(path, 2, "matrix_mmse", lambda _: "nan")
    assert any("non-finite" in m for m in p.check(refs)[0])

    path.write_text(clean)
    # ln Z = N M * free_entropy moves by 1e-9, far above the 1e-12 tolerance
    _edit_cell(path, 3, "free_entropy", lambda v: repr(float(v) + 1e-9 / 4))
    assert any("reference" in m for m in p.check(refs)[0])
    # without references only the invariants apply, and they hold...
    assert p.check() == [[]]
    # ...but a changed CSV body against an earlier pass with the same seed fails
    assert any("differ" in m for m in p.check(None, clean_digests)[0])

    path.write_text(clean)
    (p.dirs[0] / jobs.manifest_name(sub)).write_text(json.dumps({"partial": True}))
    assert p.check(refs) == [["partial manifest"]]
    p.codes = [2]
    assert p.check(refs) == [["exit code 2"]]


def test_checks_catch_failed_gates_and_negative_residuals():
    p = _pass([REDUCE], "reduce")
    assert p.check() == [[]]
    reduction = p.dirs[0] / "reduction.csv"
    clean = reduction.read_text()
    _edit_cell(reduction, 0, "pass_gap", lambda _: "false")
    assert any("pass_gap" in m for m in p.check()[0])
    reduction.write_text(clean)
    _edit_cell(p.dirs[0] / "noise_checks.csv", 1, "trace_residual", lambda _: "-1e-3")
    assert any("noise residual" in m for m in p.check()[0])


def test_spans_nest_inside_jobs():
    job_list = [
        SIMULATE,
        ("simulate", {"prior": "rademacher", "N": 3, "M": 1, "replicates": 4}),
        ("concentration", {"prior": "rademacher", "N_grid": [4], "n_eps": 2,
                           "replicates": 3}),
        ("cavity", {"prior": "rademacher", "gamma": 0.5, "N_max": 4, "replicates": 3}),
        REDUCE,
        ("phase-scan", {"prior": "rademacher",
                        "lambda_grid": {"start": 0.5, "stop": 2.0, "count": 8}}),
    ]
    tracer = Tracer()
    assert tracer.install() == []
    try:
        tracer.calibrate()
        p = _pass(job_list, "trace")
    finally:
        tracer.uninstall()
    assert p.check() == [[]] * len(job_list)
    assert not hasattr(cli.main, "__wrapped__")

    m = tracer.layer_metrics(0, len(tracer), p.wall_s, p.cpu_s, p.csv_bytes)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(m) == {x["name"] for x in spec["per_layer"]}
    assert m["cli.jobs"] == len(job_list)
    for name in ("simulator.calls", "rng.stream.calls", "cavity.entries",
                 "replica.fm_sup.calls", "channel.logsumexp_matmul.calls",
                 "channel.mi_vector.calls", "reduction.residuals"):
        assert m[name] > 0, name
    # with every span inside a job, all self times together are exactly the
    # jobs' time; this checks where spans sit, not how much tracing costs
    assert min(tracer.job) == 0
    self_total = sum(s[2] for s in tracer.span_stats().values())
    assert abs(self_total - m["cli.busy_s"]) <= 1e-9 * m["cli.busy_s"]
    assert m["trace.overhead_s"] > len(tracer) * tracer.span_cost_s
