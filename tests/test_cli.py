import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wignerlab import cli


def run(tmp_path, subcommand, config, name, seed=None):
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / name
    argv = [subcommand, "--config", str(cfg), "--out", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    code = cli.main(argv)
    return code, out


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

    def test_missing_config_file(self, tmp_path, capsys):
        code = cli.main(["mi", "--config", str(tmp_path / "nope.json")])
        assert code == 2
        assert "error" in capsys.readouterr().err


SCAN_GRID = [0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25]


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


# JSON values of every type; integers stay small so that no generated config
# asks for a large enumeration, grid or sample
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 4) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
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
    keys = st.sampled_from(known) | st.sampled_from(["replicats", "kind"])
    for key in draw(st.lists(keys, max_size=3, unique=True)):
        config[key] = draw(VALID.get(key, JSON_VALUES) | JSON_VALUES)
    if draw(st.integers(0, 19)) == 0:
        config = draw(JSON_VALUES)
    return sub, config


class TestFuzz:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(fuzzed_configs())
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
