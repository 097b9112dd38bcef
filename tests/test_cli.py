import contextlib
import csv
import io
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from wignerlab import channel, cli, reduction, replica
from wignerlab.channel import gauss_hermite
from wignerlab.priors import make_prior, make_rademacher, make_sparse_rademacher


def run(tmp_path, subcommand, config, name, seed=None):
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / name
    argv = [subcommand, "--config", str(cfg), "--out", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    code = cli.main(argv)
    return code, out


def fresh(*args):
    """``python *args`` in a fresh interpreter that imports wignerlab from
    this source tree."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


class TestSubcommands:
    def test_prior(self, tmp_path):
        code, out = run(tmp_path, "prior",
                        {"prior": {"kind": "sparse_rademacher", "p": 0.3},
                         "sample_count": 1000}, "prior", seed=1)
        assert code == 0
        body = (out / "prior.csv").read_text().splitlines()
        assert body[0].startswith("label,")
        assert len(body) == 2

    def test_mi_sweep(self, tmp_path):
        code, out = run(tmp_path, "mi",
                        {"prior": "rademacher",
                         "s_grid": {"start": 0.0, "stop": 2.0, "count": 5}}, "mi")
        assert code == 0
        assert len((out / "mi.csv").read_text().splitlines()) == 6

    def test_mi_one_call_per_column(self, tmp_path, monkeypatch):
        """The information and the MMSE each take the whole grid in one call."""
        calls = []
        for name in ("mi_scalar_signal", "mmse_scalar"):
            def counting(prior, s, quad, name=name, func=getattr(channel, name)):
                calls.append((name, len(s)))
                return func(prior, s, quad)
            monkeypatch.setattr(channel, name, counting)
        code, _ = run(tmp_path, "mi", {"prior": "rademacher",
                                       "s_grid": {"start": 0.0, "stop": 2.0, "count": 9}}, "mi")
        assert code == 0
        assert sorted(calls) == [("mi_scalar_signal", 9), ("mmse_scalar", 9)]

    def test_potential(self, tmp_path):
        code, out = run(tmp_path, "potential",
                        {"prior": "rademacher", "lambda": 2.0, "M": 2,
                         "tau_grid": [0.0, 0.5, 1.0]}, "pot")
        assert code == 0
        header = (out / "potential.csv").read_text().splitlines()[0]
        assert "fm_logz" in header and "fm_mi_form" in header

    def test_fixed_point(self, tmp_path):
        code, out = run(tmp_path, "fixed-point",
                        {"prior": "rademacher", "lambda_grid": [0.5, 1.5],
                         "q0": 1.0}, "fp")
        assert code == 0
        lines = (out / "fixed_point.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_phase_scan(self, tmp_path):
        code, out = run(tmp_path, "phase-scan",
                        {"prior": "rademacher",
                         "lambda_grid": {"start": 0.5, "stop": 1.5, "count": 11}},
                        "scan")
        assert code == 0
        body = (out / "phase_scan.csv").read_text()
        assert "in_jump_cell" in body

    def test_simulate(self, tmp_path):
        code, out = run(tmp_path, "simulate",
                        {"prior": "rademacher", "N": 4, "M": 1, "lambda": 1.0,
                         "replicates": 10, "posterior": True,
                         "dump_instance": True}, "sim", seed=4)
        assert code == 0
        assert (out / "simulate.csv").exists()
        assert (out / "instance.json").exists()

    def test_concentration(self, tmp_path):
        code, out = run(tmp_path, "concentration",
                        {"prior": "rademacher", "N_grid": [4, 6], "M": 1,
                         "lambda": 1.0, "replicates": 10, "n_eps": 2}, "conc",
                        seed=5)
        assert code == 0
        assert len((out / "concentration.csv").read_text().splitlines()) == 3

    def test_cavity(self, tmp_path):
        code, out = run(tmp_path, "cavity",
                        {"prior": "rademacher", "lambda": 1.0, "alpha": 1.0,
                         "gamma": 0.5, "N_max": 5, "replicates": 6}, "cav", seed=6)
        assert code == 0
        for name in ("cavity_table.csv", "cavity_increments.csv",
                     "cavity_report.csv"):
            assert (out / name).exists()

    def test_reduce(self, tmp_path):
        code, out = run(tmp_path, "reduce",
                        {"prior": "rademacher", "M": 2, "lambda_grid": [0.5],
                         "n_sigma": 3}, "red", seed=7)
        assert code == 0
        assert (out / "reduction.csv").exists()
        assert (out / "noise_checks.csv").exists()


class TestQuadOrder:
    """An explicit quad_order applies to every potential of the run; unset,
    each potential takes its default order."""

    def test_applies_at_rank_m(self, tmp_path):
        base = {"prior": "rademacher", "lambda": 2.0, "M": 2, "tau_grid": [0.3, 0.7]}
        rows = {}
        for name, order in [("default", None), ("q20", 20), ("q8", 8)]:
            config = base if order is None else {**base, "quad_order": order}
            code, out = run(tmp_path, "potential", config, name)
            assert code == 0
            with open(out / "potential.csv", newline="") as fh:
                rows[name] = list(csv.DictReader(fh))
        prior, quad = make_rademacher(), gauss_hermite(8)
        for default, q20, q8 in zip(rows["default"], rows["q20"], rows["q8"]):
            tau = float(q8["tau"])
            # 20 is the default order at M = 2 (64 at M = 1)
            assert q20["fm_logz"] == default["fm_logz"] != q8["fm_logz"]
            assert q20["f1"] != default["f1"]
            ev = replica.fm_rs(prior, 2, tau * np.eye(2), 2.0, quad)
            assert float(q8["fm_logz"]) == ev.value_logz
            assert float(q8["fm_mi_form"]) == ev.value_mi
            assert float(q8["f1"]) == replica.f1_rs(prior, tau, 2.0, quad)

    def test_applies_to_matrix_fixed_point(self, tmp_path):
        config = {"prior": "rademacher", "M": 2, "lambda_grid": [1.5], "quad_order": 8}
        code, out = run(tmp_path, "fixed-point", config, "fp8")
        assert code == 0
        with open(out / "fixed_point.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        res = replica.fm_fixed_point(make_rademacher(), 2, 1.5, np.eye(2),
                                     quad=gauss_hermite(8))
        assert float(row["q_star"]) == float(np.trace(res.overlap)) / 2
        assert int(row["iterations"]) == res.iterations

    def test_temporary_bound(self):
        """blocks k^M max(k^M, n) may reach 2^24 elements but not pass it, with
        n the nodes the workspace keeps: half the grid for a sign-symmetric
        prior.  One row block for the potential, M + 1 for the fused pass of
        the fixed point; a refused order states the size counted."""
        asymmetric = make_prior([(-1.0, 2.0 / 3.0), (2.0, 1.0 / 3.0)])
        for prior, blocks, last, refused_size in [
                (make_rademacher(), 1, 161, 17_006_112),
                (make_rademacher(), 4, 101, 16_979_328),
                (make_sparse_rademacher(0.3), 1, 107, 17_006_112),
                (make_sparse_rademacher(0.3), 4, 67, 16_979_328),
                (asymmetric, 1, 128, 17_173_512),
                (asymmetric, 4, 80, 17_006_112)]:
            cfg = {"prior": prior, "quad_order": last}
            assert cli._quad(cfg, 3, blocks).order == last
            with pytest.raises(cli.ConfigError, match=f"temporary of {refused_size} "):
                cli._quad({**cfg, "quad_order": last + 1}, 3, blocks)
        assert cli._quad({**cfg, "quad_order": None}, 3) is \
            gauss_hermite(replica.DEFAULT_ORDER[3])

    def test_unset_order_is_checked(self):
        """An unset quad_order is the default order, and its pass is checked:
        2 k max(k, 32) for the 64-node scalar pass of phase-scan and mi."""
        for n, refused in [(2896, False), (2897, True)]:
            prior = make_prior([((2 * j - n + 1) / (n - 1), 1.0 / n) for j in range(n)])
            cfg = {"prior": prior, "quad_order": None}
            if refused:
                with pytest.raises(cli.ConfigError, match="temporary of 16785218 "):
                    cli._quad(cfg, 1, 2)
            else:
                assert cli._quad(cfg, 1, 2) is gauss_hermite(replica.DEFAULT_ORDER[1])

    @pytest.mark.parametrize("prior,M,refused", [
        ({"kind": "uniform", "n_nodes": 12}, 3, False),
        # the fused pass at DEFAULT_ORDER[3]: 4 (13^3)^2 elements
        ({"kind": "uniform", "n_nodes": 13}, 3, True),
        ({"kind": "uniform", "n_nodes": 48}, 2, False),
        ({"kind": "uniform", "n_nodes": 49}, 2, True),
        # fm_sup's polish at order 24: 11^3 x 24^3 elements on the full grid
        ({"kind": "atoms", "atoms": [[j * j - 35.0, 1.0 / 11.0] for j in range(11)]}, 3, True),
    ])
    def test_reduce_checks_its_passes(self, tmp_path, monkeypatch, capsys, prior, M, refused):
        """reduce refuses an oversized pass before any computation starts."""
        def sweep(*args):
            raise RuntimeError("computation started")
        monkeypatch.setattr(reduction, "reduction_sweep", sweep)
        code, _ = run(tmp_path, "reduce", {"prior": prior, "M": M, "lambda_grid": [1.0]}, "big")
        detail = json.loads(capsys.readouterr().err)["detail"]
        if refused:
            assert code == 2 and "needs a temporary of" in detail
        else:
            assert code == 5 and "computation started" in detail


class TestDeterminism:
    def test_byte_identical_csv(self, tmp_path):
        config = {"prior": "rademacher", "N": 5, "M": 1, "lambda": 2.0,
                  "replicates": 15, "posterior": True}
        _, out1 = run(tmp_path, "simulate", config, "d1", seed=9)
        _, out2 = run(tmp_path, "simulate", config, "d2", seed=9)
        assert (out1 / "simulate.csv").read_bytes() == \
            (out2 / "simulate.csv").read_bytes()

    def test_manifest_written(self, tmp_path):
        config = {"prior": "rademacher",
                  "s_grid": {"start": 0.0, "stop": 1.0, "count": 3}}
        _, out = run(tmp_path, "mi", config, "m1", seed=3)
        meta = json.loads((out / "mi_manifest.json").read_text())
        assert meta["seed"] == 3
        assert meta["outputs"] == ["mi.csv"]
        assert meta["partial"] is False
        assert len(meta["config_sha256"]) == 64

    def test_manifest_records_environment(self, tmp_path):
        _, out = run(tmp_path, "prior", {"prior": "rademacher"}, "e1", seed=3)
        env = json.loads((out / "prior_manifest.json").read_text())["env"]
        assert env == {"python": platform.python_version(), "numpy": np.__version__,
                       "cpu_count": os.cpu_count()}

    def test_cli_imports_no_scipy(self):
        """NumPy is the only runtime dependency: a fresh interpreter that
        imports the CLI has loaded no SciPy module."""
        code = ("import sys, wignerlab.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = fresh("-c", code)
        assert proc.returncode == 0 and proc.stdout.strip() == "[]"


class TestStartup:
    """``import wignerlab.cli`` is the console script's whole import phase:
    it loads NumPy, priors and rng, and each subcommand imports the compute
    modules it runs."""

    def test_cli_imports_no_compute_module(self):
        code = ("import sys, wignerlab.cli; print(sorted(sys.modules.keys() & {"
                "'numpy.polynomial', 'wignerlab.replica', 'wignerlab.channel', "
                "'wignerlab.reduction', 'wignerlab.cavity', 'wignerlab.simulator'}))")
        proc = fresh("-c", code)
        assert proc.returncode == 0 and proc.stdout.strip() == "[]"

    def test_package_import_loads_no_submodule(self):
        code = "import sys, wignerlab; print(sorted(m for m in sys.modules if 'wignerlab.' in m))"
        proc = fresh("-c", code)
        assert proc.returncode == 0 and proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("sub, config, module", [
        ("mi", {"prior": "rademacher", "s_grid": [0.5, 1.0]}, "wignerlab.replica"),
        ("simulate", {"prior": "rademacher", "N": 2, "replicates": 2}, "wignerlab.channel"),
    ])
    def test_run_skips_unused_module(self, tmp_path, sub, config, module):
        """``mi`` computes with the channel alone, and ``simulate`` needs no
        channel: a fresh run of either loads no module it does not use."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = ("import sys, wignerlab.cli; code = wignerlab.cli.main(sys.argv[1:]); "
                f"print(code, {module!r} in sys.modules)")
        proc = fresh("-c", code, sub, "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert proc.returncode == 0 and proc.stdout.strip().splitlines()[-1] == "0 False"

    def test_budget_exit(self, tmp_path):
        """The budget overflow keeps exit 3 where only the failing handler
        loaded the simulator (in-process, a test has always loaded it)."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"prior": "rademacher", "N": 40, "M": 2, "replicates": 2}))
        out = tmp_path / "out"
        proc = fresh("-m", "wignerlab.cli", "simulate", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 3
        records = proc.stderr.strip().splitlines()
        assert len(records) == 1
        assert json.loads(records[0])["error"] == "budget"
        assert json.loads((out / "simulate_manifest.json").read_text())["partial"] is True


SCAN_GRID = [0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25]
SPARSE = {"kind": "sparse_rademacher", "p": 0.3}
# centred but not sign-symmetric
ASYMMETRIC = {"kind": "atoms", "atoms": [[-1.0, 2.0 / 3.0], [2.0, 1.0 / 3.0]]}
PROVENANCE = ["seed", "config_sha256"]


# cells csv must quote, and some it must leave bare; a "\r" is refused by the
# config check (a label), so no table holds one
LABELS = ['a,b "q"', "x\ny", "", " lead", "\x00", "\u00e9", "'"]
WEIRD_ATOMS = {"kind": "atoms", "atoms": [[-1.0, 0.5], [1.0, 0.5]], "label": 'a,"b"\nc'}


def assert_matches_csv_module(path, columns, seed, config_sha256):
    """``cli._write_csv``'s bytes equal those of csv.writer over the same
    cells, formatted here, plus the provenance columns."""
    path.mkdir(parents=True)
    cli._write_csv(path / "cli.csv", columns, seed, config_sha256)

    def cells(column):
        a = np.asarray(column)
        if a.dtype == bool:
            return ["true" if v else "false" for v in a.tolist()]
        return [str(v) for v in (column if a.dtype.kind == "U" else a.tolist())]

    with open(path / "oracle.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([*columns, "seed", "config_sha256"])
        for row in zip(*map(cells, columns.values())):
            writer.writerow([*row, seed, config_sha256])
    assert (path / "cli.csv").read_bytes() == (path / "oracle.csv").read_bytes()


class TestOutputFormat:
    """The header of every file and the cell format are fixed: both are part
    of the byte-identity contract."""

    @pytest.mark.parametrize("subcommand,config,headers", [
        ("prior", {"prior": "uniform", "sample_count": 3},
         {"prior.csv": ["label", "n_atoms", "mean", "rho", "D", "sample_count",
                        "sample_mean", "sample_second_moment"]}),
        ("mi", {"prior": "rademacher", "s_grid": [0.5], "quad_order": 8},
         {"mi.csv": ["s", "mi", "mmse"]}),
        ("potential", {"prior": "rademacher", "tau_grid": [0.5]},
         {"potential.csv": ["tau", "lambda", "f1"]}),
        ("potential", {"prior": "rademacher", "M": 2, "tau_grid": [0.5], "quad_order": 8},
         {"potential.csv": ["tau", "lambda", "f1", "fm_logz", "fm_mi_form"]}),
        ("fixed-point", {"prior": "rademacher", "lambda_grid": [1.5], "quad_order": 8},
         {"fixed_point.csv": ["lambda", "q_star", "iterations", "residual", "converged",
                              "potential"]}),
        ("phase-scan", {"prior": "rademacher", "lambda_grid": SCAN_GRID, "quad_order": 8},
         {"phase_scan.csv": ["lambda", "q_star", "value", "dq_dlambda", "mmse_prediction",
                             "in_jump_cell"]}),
        ("reduce", {"prior": "rademacher", "M": 2, "lambda_grid": [0.5], "n_sigma": 2},
         {"reduction.csv": ["prior", "M", "lambda", "fm_sup", "f1_sup", "gap", "isotropy",
                            "near_critical", "pass_gap", "pass_isotropy"],
          "noise_checks.csv": ["sample", "trim_residual", "trace_residual"]}),
        ("simulate", {"prior": "rademacher", "N": 2, "replicates": 2},
         {"simulate.csv": ["replicate", "free_entropy"]}),
        ("simulate", {"prior": "rademacher", "N": 2, "replicates": 2, "posterior": True},
         {"simulate.csv": ["replicate", "free_entropy", "matrix_mmse", "overlap_fluct"]}),
        ("concentration", {"prior": "rademacher", "N_grid": [2], "replicates": 2, "n_eps": 2},
         {"concentration.csv": ["N", "s_N", "estimate", "std_err", "gamma", "ratio"]}),
        ("cavity", {"prior": "rademacher", "N_max": 3, "replicates": 2},
         {"cavity_table.csv": ["n", "m", "L", "std_err", "replicates"],
          "cavity_increments.csv": ["n", "delta_N", "delta_M", "delta_N_norm",
                                    "delta_M_norm", "rank_step"],
          "cavity_report.csv": ["f1_sup", "w_N", "w_M", "combined", "combined_se",
                                "table_free_entropy", "table_free_entropy_se", "diff",
                                "diff_se", "plain_combined", "plain_diff",
                                "telescoping_residual"]}),
    ])
    def test_headers(self, tmp_path, subcommand, config, headers):
        code, out = run(tmp_path, subcommand, config, "hdr", seed=1)
        assert code == 0
        assert sorted(p.name for p in out.glob("*.csv")) == sorted(headers)
        for name, header in headers.items():
            with open(out / name, newline="") as fh:
                assert next(csv.reader(fh)) == header + PROVENANCE

    def test_cells(self, tmp_path):
        """Bools as true/false, integers as written, floats as their shortest
        round-trip repr, minimal quoting."""
        path = tmp_path / "t.csv"
        cli._write_csv(path, {
            "flag": np.array([True, False, True]),
            "count": np.array([3, -1, 0], dtype=np.int64),
            "lambda": [2, 2, 2],
            "big": [10**20] * 3,
            "x": np.array([-0.0, 5e-324, 0.1]),
            "label": ['a,b "q"', "uniform(D=1,n=16)", "plain"],
        }, 7, "abc")
        assert path.read_bytes() == (
            b'flag,count,lambda,big,x,label,seed,config_sha256\n'
            b'true,3,2,100000000000000000000,-0.0,"a,b ""q""",7,abc\n'
            b'false,-1,2,100000000000000000000,5e-324,"uniform(D=1,n=16)",7,abc\n'
            b'true,0,2,100000000000000000000,0.1,plain,7,abc\n')

    @pytest.mark.parametrize("columns", [
        {"label": LABELS, "flag": [True, False] * 3 + [True],
         "count": np.array([3, -1, 0, 2**63 - 1, -2**63, 7, 1], dtype=np.int64),
         "big": [10**20] * 7, "x": np.array([-0.0, 5e-324, 1e16, 0.1, 1.5, -2.0, 1e-7]),
         'we,"ird"\nname': LABELS[::-1]},
        {"only": LABELS},
        {"x": np.array([]), "a,b": []},
    ], ids=["mixed", "one-column", "no-rows"])
    def test_quoting_matches_csv_module(self, tmp_path, columns):
        """Header names and text are quoted as csv.writer's minimal quoting
        would, byte for byte; numbers and bools are never quoted."""
        assert_matches_csv_module(tmp_path / "t", columns, 7, "abc")

    @pytest.mark.parametrize("subcommand,config", [
        ("prior", {"prior": WEIRD_ATOMS, "sample_count": 3}),
        ("prior", {"prior": "uniform"}),
        ("mi", {"prior": "rademacher", "s_grid": [0.0, 0.5], "quad_order": 8}),
        ("potential", {"prior": "rademacher", "M": 2, "tau_grid": [0.5], "quad_order": 8}),
        ("fixed-point", {"prior": "rademacher", "lambda_grid": [1.5], "quad_order": 8}),
        ("phase-scan", {"prior": "rademacher", "lambda_grid": SCAN_GRID, "quad_order": 8}),
        ("reduce", {"prior": WEIRD_ATOMS, "M": 2, "lambda_grid": [0.5], "n_sigma": 2}),
        ("simulate", {"prior": WEIRD_ATOMS, "N": 2, "M": 2, "replicates": 3,
                      "posterior": True, "dump_instance": True}),
        ("concentration", {"prior": "rademacher", "N_grid": [2], "replicates": 2, "n_eps": 2}),
        ("cavity", {"prior": "rademacher", "N_max": 3, "replicates": 2}),
    ])
    def test_handler_tables_match_csv_module(self, tmp_path, subcommand, config):
        cfg = cli._fields(cli.SCHEMAS[subcommand], config, "config")
        tables = [(name, columns) for name, columns in cli.HANDLERS[subcommand](cfg, 4)
                  if not isinstance(columns, str)]
        assert tables
        for name, columns in tables:
            assert_matches_csv_module(tmp_path / name, columns, 4, "f" * 64)

    def test_first_non_finite_in_row_major_order(self):
        """The earliest row wins over the earlier column, and the value prints
        as a Python float, not as np.float64(...)."""
        outputs = [("ok.csv", {"x": [1.0]}), ("raw.json", "nan"),
                   ("t.csv", {"a": np.array([1.0, 2.0, math.nan]),
                              "b": np.array([1.0, -math.inf, math.nan]),
                              "c": [0.0, math.nan, 1.0]})]
        with pytest.raises(cli.NonFiniteResultError, match=r"^t\.csv: column b is -inf in row 1$"):
            cli._check_finite(outputs)

    def test_int_and_text_never_flagged(self):
        cli._check_finite([("t.csv", {"n": np.array([1, 2]), "big": [10**400, 1],
                                      "label": ["nan", "inf"], "flag": [True, False]})])


class TestStages:
    """The manifest times each stage reached: the handler with the finiteness
    check, then the writing of its outputs."""

    def stages(self, out, subcommand):
        meta = json.loads((out / f"{subcommand}_manifest.json").read_text())
        assert all(t >= 0 for t in meta["stages"].values())
        return sorted(meta["stages"])

    def test_success(self, tmp_path):
        code, out = run(tmp_path, "prior", {"prior": "rademacher"}, "ok")
        assert code == 0
        assert self.stages(out, "prior") == ["compute_s", "write_s"]

    def test_failure_while_writing(self, tmp_path, capsys):
        (tmp_path / "busy" / "prior.csv").mkdir(parents=True)   # a directory in the way
        code, out = run(tmp_path, "prior", {"prior": "rademacher"}, "busy")
        assert code == 5
        assert json.loads(capsys.readouterr().err)["error"] == "internal"
        assert self.stages(out, "prior") == ["compute_s", "write_s"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("config,exit_code,reached", [
        ({"prior": "rademacher", "sample_count": -1}, 2, []),
        ({"prior": {"kind": "atoms", "atoms": [[-1e308, 0.5], [1e308, 0.5]]}}, 5, ["compute_s"]),
    ], ids=["validation", "non-finite"])
    def test_failure_records_stages_reached(self, tmp_path, config, exit_code, reached):
        code, out = run(tmp_path, "prior", config, "early")
        assert code == exit_code
        assert self.stages(out, "prior") == reached


class TestExitCodes:
    def test_validation_error(self, tmp_path):
        code, out = run(tmp_path, "phase-scan",
                        {"prior": "rademacher", "lambda_grid": [1.0, 2.0]}, "bad")
        assert code == 2
        meta = json.loads((out / "phase_scan_manifest.json").read_text())
        assert meta["partial"] is True

    def test_unknown_prior(self, tmp_path):
        code, _ = run(tmp_path, "mi", {"prior": "gaussian", "s_grid": [1.0]}, "bad2")
        assert code == 2

    def test_budget_overflow(self, tmp_path):
        code, _ = run(tmp_path, "simulate",
                      {"prior": "rademacher", "N": 40, "M": 2, "lambda": 1.0,
                       "replicates": 2}, "bad3")
        assert code == 3

    @pytest.mark.parametrize("config", [
        {"prior": "rademacher", "N_max": 10**15, "replicates": 2},
        # rank 2^50 at N_max = 2: refused by the budget, not by allocating 2^50 entries
        {"prior": "rademacher", "gamma": 50, "N_max": 2, "replicates": 2},
    ])
    def test_cavity_budget_overflow(self, tmp_path, config):
        code, _ = run(tmp_path, "cavity", config, "bad3c")
        assert code == 3

    def test_fatal_nonconvergence(self, tmp_path):
        code, _ = run(tmp_path, "fixed-point",
                      {"prior": "rademacher", "lambda_grid": [1.001], "q0": 1.0,
                       "fatal_nonconvergence": True}, "bad4")
        assert code == 4

    def test_nonconvergence_not_fatal_by_default(self, tmp_path):
        code, out = run(tmp_path, "fixed-point",
                        {"prior": "rademacher", "lambda_grid": [1.001],
                         "q0": 1.0}, "ok4")
        assert code == 0
        assert "false" in (out / "fixed_point.csv").read_text()

    def test_single_replicate_standard_error(self, tmp_path, capsys):
        """One replicate has no standard error: a validation error, no CSV."""
        code, out = run(tmp_path, "concentration",
                        {"prior": "rademacher", "N_grid": [4], "M": 1,
                         "lambda": 1.0, "replicates": 1, "n_eps": 2}, "one", seed=5)
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "validation"
        meta = json.loads((out / "concentration_manifest.json").read_text())
        assert meta["partial"] is True
        assert not (out / "concentration.csv").exists()

    def test_cavity_single_replicate(self, tmp_path, capsys):
        """The cavity table's standard errors need 2 replicates, too."""
        code, out = run(tmp_path, "cavity",
                        {"prior": "rademacher", "N_max": 4, "replicates": 1},
                        "cav1", seed=3)
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "validation"
        meta = json.loads((out / "cavity_manifest.json").read_text())
        assert meta["partial"] is True
        assert meta["outputs"] == []
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("subcommand,config,where", [
        ("cavity", {"prior": "rademacher", "lambda": 1e308, "N_max": 4,
                    "replicates": 2}, "cavity_table.csv: column L"),
        ("prior", {"prior": {"kind": "atoms", "atoms": [[-1e308, 0.5], [1e308, 0.5]]}},
         "prior.csv: column rho"),
        ("mi", {"prior": {"kind": "atoms", "atoms": [[-1e200, 0.5], [1e200, 0.5]]},
                "s_grid": [1.0]}, "mi.csv: column mi"),
    ])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_result(self, tmp_path, capsys, subcommand, config, where):
        """A finite but extreme input whose result is NaN or inf writes no CSV."""
        code, out = run(tmp_path, subcommand, config, "inf")
        assert code == 5
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "non-finite"
        assert record["detail"].startswith(where)
        meta = json.loads((out / f"{subcommand}_manifest.json").read_text())
        assert meta["partial"] is True
        assert meta["outputs"] == []
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("atom", [1e150, 1e200])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_huge_prior_scan_is_non_finite(self, tmp_path, capsys, atom):
        """A valid prior whose potential is NaN off zero overlap (rho = 1e300,
        whose square overflows, or rho = inf) fails closed as non-finite, not
        as an internal or validation error."""
        code, out = run(tmp_path, "phase-scan",
                        {"prior": {"kind": "atoms", "atoms": [[-atom, 0.5], [atom, 0.5]]},
                         "lambda_grid": [0.2 * k for k in range(1, 9)]}, "huge")
        assert code == 5
        assert json.loads(capsys.readouterr().err)["error"] == "non-finite"
        meta = json.loads((out / "phase_scan_manifest.json").read_text())
        assert meta["partial"] is True
        assert meta["outputs"] == []
        assert not list(out.glob("*.csv"))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_concentration_scale_past_float_range(self, tmp_path, capsys):
        """s_N = 2^1023 is finite, but N s_N is not: Gamma = 0 makes the ratio
        non-finite, which is reported as such, not as a ZeroDivisionError."""
        code, _ = run(tmp_path, "concentration",
                      {"prior": "rademacher", "N_grid": [2], "replicates": 2, "n_eps": 2,
                       "s_exponent": -1023}, "huge")
        assert code == 5
        assert json.loads(capsys.readouterr().err)["error"] == "non-finite"

    def test_unexpected_exception(self, tmp_path, capsys, monkeypatch):
        """A bug surfaces as exit 5 with a record and a partial manifest."""
        def broken(cfg, seed):
            raise KeyError("boom")
        monkeypatch.setitem(cli.HANDLERS, "prior", broken)
        code, out = run(tmp_path, "prior", {"prior": "rademacher"}, "bug")
        assert code == 5
        assert json.loads(capsys.readouterr().err) == {"error": "internal",
                                                       "detail": "KeyError: 'boom'"}
        meta = json.loads((out / "prior_manifest.json").read_text())
        assert meta["partial"] is True
        assert "KeyError" in meta["traceback"]

    def test_missing_config_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)         # the manifest goes to the default --out
        code = cli.main(["mi", "--config", str(tmp_path / "nope.json")])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestMalformedInput:
    """Malformed input exits 2 with one validation record and a partial
    manifest, never a traceback, a NaN row or a silently defaulted value."""

    @pytest.mark.parametrize("subcommand,config", [
        ("reduce", {"prior": "rademacher", "M": 2, "lambda_grid": [math.nan]}),
        ("reduce", {"prior": "rademacher", "M": 2, "lambda_grid": [math.inf]}),
        ("reduce", {"prior": "rademacher", "M": 2.0, "lambda_grid": [0.5]}),
        ("reduce", {"prior": "rademacher", "M": 2, "lambda_grid": 0.5}),
        ("reduce", {"prior": "rademacher", "M": 2,
                    "lambda_grid": {"start": 0.5, "count": 2}}),
        ("phase-scan", {"prior": "rademacher",
                        "lambda_grid": {"start": 0.5, "stop": 1, "count": 2.5}}),
        ("phase-scan", {"prior": "rademacher", "lambda_grid": SCAN_GRID[:-1] + [math.nan]}),
        ("phase-scan", {"prior": "rademacher", "lambda_grid": SCAN_GRID[:-1] + [math.inf]}),
        ("phase-scan", {"prior": "rademacher", "quad_order": 64.0,
                        "lambda_grid": SCAN_GRID}),
        ("simulate", {"prior": "rademacher", "N": 8.0, "replicates": 2}),
        ("simulate", {"prior": "rademacher", "N": "8", "replicates": 2}),
        ("potential", {"prior": "rademacher", "M": 2.0, "tau_grid": [0.5]}),
        ("fixed-point", {"prior": "rademacher", "M": 2.0, "lambda_grid": [0.5]}),
        ("cavity", {"prior": "rademacher", "N_max": 4.0, "replicates": 2}),
        ("prior", {"prior": {"kind": "sparse_rademacher", "p": "0.3"}}),
        ("prior", {"prior": "rademacher", "sample_count": 2.5}),
        ("reduce", {"prior": "rademacher", "lambda_grid": [0.5], "n_sigma": 1.5}),
        ("prior", {"prior": "rademacher", "seed": "x"}),
        ("prior", ["rademacher"]),
        ("simulate", {"prior": "rademacher", "N": 3, "lambda": math.nan,
                      "replicates": 2}),
        ("concentration", {"prior": "rademacher", "N_grid": [4], "lambda": math.nan,
                           "replicates": 2, "n_eps": 2}),
        ("cavity", {"prior": "rademacher", "N_max": 4, "replicates": 2,
                    "epsilon": math.nan}),
        ("concentration", {"prior": "rademacher", "N_grid": [4.5], "replicates": 2,
                           "n_eps": 2}),
        ("simulate", {"prior": "rademacher", "N": 3, "replicats": 3}),
        ("simulate", {"prior": "rademacher", "N": 3, "replicates": 2,
                      "posterior": "yes"}),
        ("prior", {"prior": {"kind": "rademacher", "p": 0.3}}),
        # the first refused orders at M = 3: 2^3 atoms x 162^3 / 2 halved nodes
        # per temporary, and 4 row blocks x 2^3 atoms x 102^3 / 2 halved nodes
        # for the fused pass of the fixed point, are above 2^24
        ("potential", {"prior": "rademacher", "M": 3, "quad_order": 162,
                       "tau_grid": [0.5]}),
        ("fixed-point", {"prior": "rademacher", "M": 3, "quad_order": 102,
                         "lambda_grid": [0.5]}),
        ("concentration", {"prior": "rademacher", "N_grid": [2], "s_exponent": -1e300}),
        # csv would leave the "\r" unquoted and the row would read back as two
        ("prior", {"prior": {"kind": "atoms", "atoms": [[1, 0.5], [-1, 0.5]],
                             "label": "a\rb"}}),
        ("potential", {"prior": SPARSE, "M": 3, "quad_order": 108, "tau_grid": [0.1]}),
        ("fixed-point", {"prior": SPARSE, "M": 3, "quad_order": 68, "lambda_grid": [0.5]}),
        # no sign symmetry: the full grid, 2^3 atoms x 129^3 nodes
        ("potential", {"prior": ASYMMETRIC, "M": 3, "quad_order": 129,
                       "tau_grid": [0.5]}),
        ("fixed-point", {"prior": ASYMMETRIC, "M": 3, "quad_order": 81,
                         "lambda_grid": [0.5]}),
        # the rank-one polish's fused pass: 2 row blocks x 2897^2 atom pairs
        ("phase-scan", {"prior": {"kind": "uniform", "n_nodes": 2897}, "quad_order": 64,
                        "lambda_grid": SCAN_GRID}),
        # replicate streams are keyed by indices below 2^32
        ("simulate", {"prior": "rademacher", "N": 1, "replicates": 2 ** 32 + 1}),
        ("concentration", {"prior": "rademacher", "N_grid": [2], "replicates": 2 ** 32 + 1}),
        ("cavity", {"prior": "rademacher", "N_max": 2, "replicates": 2 ** 32 + 1}),
    ])
    def test_validation_exit(self, tmp_path, capsys, subcommand, config):
        code, out = run(tmp_path, subcommand, config, "bad")
        assert code == 2
        records = capsys.readouterr().err.strip().splitlines()
        assert len(records) == 1
        assert json.loads(records[0])["error"] == "validation"
        manifest = out / f"{subcommand.replace('-', '_')}_manifest.json"
        meta = json.loads(manifest.read_text())
        assert meta["partial"] is True
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("subcommand,config,seed,phrase", [
        # no exact integer rank past 2^53; past 2^63 the int64 cast would wrap
        pytest.param("cavity", {"prior": "rademacher", "gamma": 50, "N_max": 3}, None,
                     "above 2^53", id="cavity-config0-above 2^53"),
        pytest.param("cavity", {"prior": "rademacher", "alpha": 1e300}, None,
                     "above 2^53", id="cavity-config1-above 2^53"),
        pytest.param("concentration", {"prior": "rademacher", "N_grid": [2],
                                       "s_exponent": -1e300}, None,
                     "s_exponent", id="concentration-config2-s_exponent"),
        # --seed goes through the config seed's parser, before any handler runs
        pytest.param("prior", {"prior": "rademacher"}, -1, "--seed",
                     id="prior-no-draws-seed-1"),
        pytest.param("prior", {"prior": "rademacher", "sample_count": 3}, -1, "--seed",
                     id="prior-draws-seed-1"),
        pytest.param("simulate", {"prior": "rademacher", "N": 3, "replicates": 2}, -1,
                     "--seed", id="simulate-seed-1"),
    ])
    def test_validation_detail(self, tmp_path, capsys, subcommand, config, seed, phrase):
        code, out = run(tmp_path, subcommand, config, "bad", seed=seed)
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "validation"
        assert phrase in record["detail"]
        manifest = out / f"{subcommand.replace('-', '_')}_manifest.json"
        assert json.loads(manifest.read_text())["partial"] is True
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("text", [None, '{"prior": '])
    def test_unreadable_config_file(self, tmp_path, capsys, text):
        """A missing or non-JSON config file still writes a partial manifest,
        with a null config."""
        cfg = tmp_path / "cfg.json"
        if text is not None:
            cfg.write_text(text)
        out = tmp_path / "out"
        code = cli.main(["mi", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        records = capsys.readouterr().err.strip().splitlines()
        assert len(records) == 1
        assert json.loads(records[0])["error"] == "config"
        meta = json.loads((out / "mi_manifest.json").read_text())
        assert meta["partial"] is True
        assert meta["config"] is None and meta["config_sha256"] is None
        assert meta["outputs"] == []


def test_runtime_warnings_counted_not_printed(tmp_path):
    """Stderr holds exactly one JSON record: the overflow warnings of an
    extreme SNR are counted in the manifest instead of printed.  Run as a
    fresh process, where no test harness captures warnings."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"prior": "rademacher", "lambda": 1e308, "N_max": 4,
                               "replicates": 2}))
    out = tmp_path / "out"
    proc = fresh("-m", "wignerlab.cli", "cavity", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 5
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "non-finite"
    meta = json.loads((out / "cavity_manifest.json").read_text())
    assert meta["runtime_warnings"]["count"] >= 1
    assert any("overflow" in m for m in meta["runtime_warnings"]["messages"])


# JSON values of every type; integers stay small so that no generated config
# asks for a large enumeration, grid or sample
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 4) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
# finite numbers whose powers overflow, or fall far past a float's exact integers
EXTREME = st.sampled_from([50, 1e300, -1e300])
# per key, values that are often valid, so that the fuzz reaches the computations
VALID = {
    "prior": st.sampled_from([
        "rademacher", "uniform", {"kind": "sparse_rademacher", "p": 0.3},
        {"kind": "uniform", "D": 2.0, "n_nodes": 2},
        {"kind": "atoms", "atoms": [[-1.0, 0.5], [1.0, 0.5]], "label": "pm1"}]),
    "seed": st.integers(0, 4),
    "sample_count": st.integers(0, 4),
    "quad_order": st.integers(1, 8),
    "s_grid": st.lists(st.floats(0.0, 3.0), min_size=1, max_size=3),
    "N": st.integers(1, 4),
    "M": st.integers(1, 2),
    "lambda": st.integers(0, 3) | st.floats(0.0, 3.0),
    "epsilon": st.floats(0.0, 1.0),
    "replicates": st.integers(1, 4),
    "posterior": st.booleans(),
    "dump_instance": st.booleans(),
    "alpha": st.floats(0.5, 2.0) | EXTREME,
    "gamma": st.floats(0.0, 1.0) | EXTREME,
    "s_exponent": st.floats(-0.5, 0.5) | EXTREME,
    "N_max": st.integers(1, 4),
    "T": st.integers(0, 3),
    "N_grid": st.lists(st.integers(1, 4), min_size=1, max_size=2),
    "n_eps": st.integers(2, 3),
}
# subcommand -> (a valid config, every key it accepts)
FUZZ_CASES = {
    "prior": ({"prior": "rademacher", "sample_count": 3},
              ["prior", "seed", "sample_count"]),
    "mi": ({"prior": "rademacher", "s_grid": [0.5, 1.0], "quad_order": 8},
           ["prior", "seed", "quad_order", "s_grid"]),
    "simulate": ({"prior": "rademacher", "N": 2, "replicates": 2},
                 ["prior", "seed", "N", "M", "lambda", "epsilon", "replicates",
                  "posterior", "dump_instance"]),
    "concentration": ({"prior": "rademacher", "N_grid": [2, 3], "replicates": 2, "n_eps": 2},
                      ["prior", "seed", "N_grid", "M", "lambda", "s_exponent", "n_eps",
                       "replicates"]),
    "cavity": ({"prior": "rademacher", "N_max": 2, "replicates": 2},
               ["prior", "seed", "lambda", "alpha", "gamma", "N_max", "T", "replicates",
                "epsilon"]),
}


@st.composite
def fuzzed_configs(draw):
    """A subcommand and a config: a valid config with a key dropped, or keys,
    known or not, set to other JSON values; now and then not an object at all."""
    sub = draw(st.sampled_from(sorted(FUZZ_CASES)))
    base, known = FUZZ_CASES[sub]
    config = dict(base)
    if draw(st.integers(0, 9)) == 0:
        del config[draw(st.sampled_from(sorted(config)))]
    keys = st.sampled_from(known + ["replicats", "kind"])
    for key in draw(st.lists(keys, max_size=3, unique=True)):
        config[key] = draw(VALID.get(key, JSON_VALUES) | JSON_VALUES)
    if draw(st.integers(0, 19)) == 0:
        config = draw(JSON_VALUES)
    return sub, config


class TestFuzz:
    @settings(max_examples=500, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(fuzzed_configs())
    # extreme but finite inputs, always run: a schedule of rank 2^50, whose
    # inverse cannot be built, and s_N = 2^(1e300), past the float range
    @example(("cavity", {"prior": "rademacher", "N_max": 2, "replicates": 2, "gamma": 50}))
    @example(("concentration", {"prior": "rademacher", "N_grid": [2], "replicates": 2,
                                "n_eps": 2, "s_exponent": -1e300}))
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_fails_closed(self, case):
        """Never a traceback; always a manifest; a failure is exactly one JSON
        error record and a partial manifest; no CSV holds a non-finite value."""
        sub, config = case
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = Path(tmp) / "config.json", Path(tmp) / "out"
            cfg.write_text(json.dumps(config))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main([sub, "--config", str(cfg), "--out", str(out)])
            records = [json.loads(line) for line in err.getvalue().splitlines()]
            meta = json.loads((out / f"{sub}_manifest.json").read_text())
            assert meta["partial"] is (code != 0)
            if code == 0:
                assert records == []
            else:
                assert code in (2, 3, 5)
                assert len(records) == 1 and set(records[0]) == {"error", "detail"}
                assert records[0]["error"] != "internal", records[0]   # a config reached a bug
            for path in out.glob("*.csv"):
                with open(path, newline="") as fh:
                    for row in csv.DictReader(fh):
                        for column, text in row.items():
                            try:
                                value = float(text)
                            except ValueError:
                                continue                # booleans, labels, hashes
                            # a label is free text from the config, "nan" included
                            assert column == "label" or math.isfinite(value), \
                                (path.name, column, text)
