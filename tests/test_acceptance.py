"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each.  Run with ``pytest tests/test_acceptance.py -v -s``.

The heavy statistical checks use fixed seeds and the replicate counts stated
alongside each tolerance, so the suite is deterministic end to end.
"""

import json
import math

import numpy as np
import pytest

from wignerlab import (
    cavity,
    channel,
    cli,
    priors,
    reduction,
    replica,
    simulator,
)

QUAD64 = channel.gauss_hermite(64)
QUAD24 = channel.gauss_hermite(24)
RADEMACHER = priors.make_rademacher()
SPARSE03 = priors.make_sparse_rademacher(0.3)
PRIORS = {"rademacher": RADEMACHER, "sparse(0.3)": SPARSE03}


def report(criterion, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_01_offdiagonal_trimming_suite():
    """Vector information dominates the sum of per-coordinate informations;
    equality for diagonal noise covariance."""
    worst = np.inf
    worst_diag = 0.0
    for label, prior in PRIORS.items():
        for M in (2, 3):
            rng = np.random.default_rng(101)
            for _ in range(200):
                sigma = reduction.random_psd(M, rng)
                worst = min(worst,
                            reduction.diagonal_trim_residual(prior, sigma, QUAD24))
            for _ in range(20):
                t = 0.3 + 2.0 * rng.random(M)
                res = reduction.diagonal_trim_residual(prior, np.diag(t), QUAD24)
                worst_diag = max(worst_diag, abs(res))
    ok = worst >= -1e-6 and worst_diag <= 1e-8
    report("criterion 1 (off-diagonal trimming, 200 draws x {M,prior})", ok,
           f"min residual {worst:.3e} (tol -1e-6), "
           f"max |diagonal residual| {worst_diag:.3e} (tol 1e-8)")


def test_criterion_02_worst_trace_noise_suite():
    """Isotropic noise at fixed trace is worst; scalar information convex in
    the noise level above the squared support bound."""
    worst = np.inf
    worst_iso = 0.0
    min_second = np.inf
    for label, prior in PRIORS.items():
        d_sq = prior.support_bound**2
        for M in (2, 3):
            rng = np.random.default_rng(202)
            for _ in range(200):
                sigma = reduction.random_psd(M, rng, diag_min=d_sq)
                worst = min(worst,
                            reduction.trace_noise_residual(prior, sigma, QUAD24))
            for scale in (1.0, 1.7, 3.2):
                res = reduction.trace_noise_residual(
                    prior, scale * d_sq * np.eye(M), QUAD24)
                worst_iso = max(worst_iso, abs(res))
        grid = np.linspace(d_sq, 5 * d_sq, 41)
        min_second = min(min_second,
                         channel.check_mi_convexity(prior, grid, QUAD64))
    ok = worst >= -1e-6 and worst_iso <= 1e-8 and min_second >= -1e-7
    report("criterion 2 (worst trace noise + convexity)", ok,
           f"min residual {worst:.3e} (tol -1e-6), max |isotropic| "
           f"{worst_iso:.3e} (tol 1e-8), min 2nd diff {min_second:.3e} (tol -1e-7)")


def test_criterion_03_potential_form_identity():
    """Log-partition and information forms of the rank-M potential agree."""
    worst = 0.0
    for label, prior in PRIORS.items():
        for M in (2, 3):
            rng = np.random.default_rng(303)
            for _ in range(100):
                Q = reduction.random_psd(M, rng, shift_scale=0.05) * (prior.rho / 2)
                lam = 8.0 * rng.random()
                worst = max(worst, replica.fm_rs(prior, M, Q, lam).form_gap)
    ok = worst <= 1e-6
    report("criterion 3 (two-form identity, 100 random (Q, lam) per M, prior)",
           ok, f"max |logZ-form - MI-form| {worst:.3e} (tol 1e-6)")


def test_criterion_04_rank_one_reduction():
    """sup of the rank-M potential equals the scalar sup, with an isotropic
    maximizer away from the critical cell."""
    jump_cells = {}
    for label, prior in PRIORS.items():
        scan = replica.phase_scan(prior, np.linspace(0.25, 4.25, 17), QUAD64)
        jump_cells[label] = scan.jump_cell
    details, ok = [], True
    for label, prior in PRIORS.items():
        for M in (2, 3):
            for lam in (0.5, 2.0, 4.0):
                v1, q1 = replica.f1_sup(prior, lam, QUAD64)
                vm, Q = replica.fm_sup(prior, M, lam)
                gap = abs(vm - v1)
                iso = float(np.linalg.norm(Q - q1 * np.eye(M), "fro"))
                cell = jump_cells[label]
                near_c = cell is not None and cell[0] <= lam <= cell[1]
                good = gap <= 1e-3 and (near_c or iso <= 1e-2)
                ok = ok and good
                details.append(f"{label} M={M} lam={lam}: gap={gap:.1e} iso={iso:.1e}")
    report("criterion 4 (rank-one reduction at lam in {0.5,2,4}, M in {2,3})",
           ok, "; ".join(details))


def test_criterion_05_matrix_fixed_point():
    res = replica.fm_fixed_point(RADEMACHER, 2, 4.0, RADEMACHER.rho * np.eye(2))
    _, q_star = replica.f1_sup(RADEMACHER, 4.0, QUAD64)
    dist = float(np.linalg.norm(res.overlap - q_star * np.eye(2), "fro"))
    ok = res.converged and res.residual <= 1e-8 and dist <= 1e-4
    report("criterion 5 (matrix fixed point at lam=4 from rho*I)", ok,
           f"residual {res.residual:.2e} (tol 1e-8), |Q - q*I|_F {dist:.2e} "
           f"(tol 1e-4), {res.iterations} iterations")


def test_criterion_06_phase_transition():
    """Binary prior: zero overlap below the critical SNR, positive above, and
    the scan brackets the transition.  Oracle: dense grid search of the
    closed-form potential."""
    def oracle_argmax(lam):
        grid = np.linspace(0, 1, 8193)
        m = lam * grid
        lncosh = np.log(np.cosh(m[:, None] + np.sqrt(m)[:, None] * QUAD64.nodes[None, :]))
        vals = lncosh @ QUAD64.weights - m / 2 - lam * grid**2 / 4
        return grid[int(np.argmax(vals))]

    q05 = replica.f1_sup(RADEMACHER, 0.5, QUAD64)[1]
    q09 = replica.f1_sup(RADEMACHER, 0.9, QUAD64)[1]
    q15 = replica.f1_sup(RADEMACHER, 1.5, QUAD64)[1]
    scan = replica.phase_scan(RADEMACHER, np.linspace(0.2, 3.0, 57), QUAD64)
    cell_ok = scan.jump_cell is not None and \
        scan.jump_cell[0] <= 1.0 <= scan.jump_cell[1]
    oracle_ok = (oracle_argmax(0.5) == 0.0 and oracle_argmax(0.9) == 0.0
                 and abs(oracle_argmax(1.5) - q15) <= 1e-3)
    ok = q05 <= 1e-8 and q09 <= 1e-8 and q15 >= 0.1 and cell_ok and oracle_ok
    report("criterion 6 (phase transition location)", ok,
           f"q*(0.5)={q05:.1e}, q*(0.9)={q09:.1e} (tol 1e-8), q*(1.5)={q15:.4f} "
           f"(>=0.1), jump cell {scan.jump_cell} contains 1.0, oracle agrees")


def test_criterion_07_i_mmse_identity():
    worst = 0.0
    h = 1e-3
    for prior in (RADEMACHER, SPARSE03):
        for s in (0.5, 1.0, 2.0, 4.0):
            deriv = (channel.mi_scalar_signal(prior, s + h, QUAD64)
                     - channel.mi_scalar_signal(prior, s - h, QUAD64)) / (2 * h)
            worst = max(worst,
                        abs(deriv - channel.mmse_scalar(prior, s, QUAD64) / 2))
    ok = worst <= 1e-5
    report("criterion 7 (I-MMSE, central differences h=1e-3)", ok,
           f"max |dI/ds - mmse/2| = {worst:.2e} (tol 1e-5)")


def test_criterion_08_hand_computed_free_entropy():
    details, ok = [], True
    for lam in (1.0, 4.0):
        mean, se = simulator.free_entropy_mc(RADEMACHER, 1, 1, lam, 0.0,
                                             10_000, seed=808)
        good = abs(mean - lam / 4) <= 3 * se
        ok = ok and good
        details.append(f"lam={lam}: {mean:.4f}±{se:.4f} vs {lam / 4}")
    report("criterion 8 (N=M=1 free entropy = lam/4, 10^4 replicates)", ok,
           "; ".join(details))


def test_criterion_09_finite_size_lower_bound():
    details, ok = [], True
    for (N, M) in ((4, 1), (8, 1), (12, 1), (8, 2)):
        for lam in (1.0, 2.0):
            mean, se = simulator.free_entropy_mc(RADEMACHER, N, M, lam, 0.0,
                                                 300, seed=909)
            bound, _ = replica.f1_sup(RADEMACHER, lam, QUAD64)
            good = mean >= bound - 3 * se
            ok = ok and good
            details.append(f"(N={N},M={M},lam={lam}): "
                           f"{mean:.4f}±{se:.4f} >= {bound:.4f}")
    report("criterion 9 (finite-size free entropy lower bound)", ok,
           "; ".join(details))


def test_criterion_10_convergence_trend():
    """The free-entropy gap shrinks with N and the exact-posterior matrix MMSE
    approaches its limiting prediction (common random numbers across N)."""
    lam, Ns = 2.0, (4, 8, 12, 16)
    bound, _ = replica.f1_sup(RADEMACHER, lam, QUAD64)
    pred = replica.mmse_prediction(RADEMACHER, lam, QUAD64)
    gaps, mmses = {}, {}
    for N in Ns:
        summaries = simulator.posterior_replicates(
            RADEMACHER, N, 1, lam, replicates=300, seed=1010, master=(16, 1))
        gaps[N] = summaries.free_entropy - bound
        mmses[N] = summaries.matrix_mmse
    ok, details = True, []
    for a, b in zip(Ns[:-1], Ns[1:]):
        d = gaps[b] - gaps[a]
        se = d.std(ddof=1) / math.sqrt(d.size)
        good = d.mean() <= 3 * se
        ok = ok and good
        details.append(f"gap({b})-gap({a})={d.mean():.4f}±{se:.4f}")
    dist = {N: abs(mmses[N].mean() - pred) for N in Ns}
    se_end = (mmses[Ns[0]].std(ddof=1) + mmses[Ns[-1]].std(ddof=1)) / math.sqrt(300)
    trend_ok = dist[Ns[-1]] <= dist[Ns[0]] + 3 * se_end
    ok = ok and trend_ok
    details.append("mmse dist to rho^2-q*^2: "
                   + " -> ".join(f"{dist[N]:.4f}" for N in Ns))
    report("criterion 10 (finite-size convergence trend)", ok, "; ".join(details))


def test_criterion_11_telescoping_identity():
    """Telescoping is exact on every complete table.  Monte Carlo tables cover
    the budget-feasible sizes; deterministic synthetic tables cover the stated
    N_max = 12 for every gamma (where Monte Carlo fill would overflow the
    enumeration budget)."""
    details, ok = [], True
    for gamma, n_max in ((0.0, 12), (0.5, 8), (1.0, 4)):
        sch = cavity.dims_schedule(1.0, gamma, n_max)
        table = cavity.build_table(RADEMACHER, 2.0, sch,
                                   epsilon=float(n_max) ** -0.125,
                                   replicates=40, seed=1111)
        res = cavity.telescoping_check(table, sch, 0, n_max)
        ok = ok and res <= 1e-12
        details.append(f"MC gamma={gamma} N={n_max}: {res:.1e}")
    for gamma in (0.0, 0.5, 1.0):
        sch = cavity.dims_schedule(1.0, gamma, 12)
        entries = {key: (math.sin(3.0 * key[0] + 7.0 * key[1]) * key[0] * key[1],
                         0.0, 1)
                   for key in cavity.required_entries(sch, 0)}
        table = cavity.FreeEntropyTable(entries=entries)
        res = cavity.telescoping_check(table, sch, 0, 12)
        ok = ok and res <= 1e-12
        details.append(f"synthetic gamma={gamma} N=12: {res:.1e}")
    report("criterion 11 (telescoping residual <= 1e-12)", ok, "; ".join(details))


def test_criterion_12_cavity_weights():
    details, ok = [], True
    for gamma in (1 / 3, 1 / 2, 1.0):
        sch = cavity.dims_schedule(1.0, gamma, 100_000)
        w_n, w_m = cavity.cavity_weights(sch, 100_000, 10)
        dev_n = abs(w_n - 1 / (1 + gamma))
        dev_m = abs(w_m - gamma / (1 + gamma))
        good = dev_n <= 1e-2 and dev_m <= 1e-2
        ok = ok and good
        details.append(f"gamma={gamma:.3f}: dev_N={dev_n:.1e} dev_M={dev_m:.1e}")
    report("criterion 12 (cavity weights at N=1e5, T=10)", ok, "; ".join(details))


def test_criterion_13_combined_increments_sharpness():
    """The weights-combined increment average reconstructs the table's own
    free entropy (gamma=1/2, largest enumeration-budget-feasible N_max=8)."""
    sch = cavity.dims_schedule(1.0, 0.5, 8)
    table = cavity.build_table(RADEMACHER, 2.0, sch, epsilon=8.0 ** -0.125,
                               replicates=300, seed=1313)
    rep = cavity.cavity_report(RADEMACHER, 2.0, sch, table)
    tol = max(3 * rep.diff_se, 1e-12)
    ok = abs(rep.diff) <= tol
    report("criterion 13 (combined increments vs table free entropy)", ok,
           f"combined {rep.combined:.5f}, F~ {rep.table_free_entropy:.5f}, "
           f"diff {rep.diff:.2e} (tol {tol:.2e}); unweighted-mean diagnostic "
           f"diff {rep.plain_diff:.3f}")


def test_criterion_14_overlap_concentration_trend():
    lam, M = 2.0, 1
    rows = []
    for N in (6, 10, 14):
        s_n = float(N) ** -0.125
        est, se, gamma = simulator.overlap_concentration(
            RADEMACHER, N, M, lam, s_n, 4, 300, seed=1414)
        rows.append((N, est, se, gamma, est / gamma))
    ok = True
    for (N1, e1, s1, _, _), (N2, e2, s2, _, _) in zip(rows[:-1], rows[1:]):
        ok = ok and (e2 <= e1 + 3 * math.hypot(s1, s2))
    ok = ok and all(r[4] <= 1.0 for r in rows)
    report("criterion 14 (overlap concentration trend over N)", ok,
           "; ".join(f"N={r[0]}: fluct={r[1]:.4f}±{r[2]:.4f} ratio={r[4]:.3f}"
                     for r in rows))


def test_criterion_15_perturbation_negligibility():
    """The side-channel part of the free-entropy shift scales linearly in the
    schedule value, within a factor 3 of the slope set by the largest point.
    The constant N+1-normalizer offset (the s=0 gap) is measured and removed
    with common random numbers."""
    N, M, lam, reps = 10, 1, 2.0, 400
    base = simulator.perturbation_gap_replicates(RADEMACHER, N, M, lam, 0.0,
                                                 reps, seed=1515)
    d = {}
    for s in (0.05, 0.1, 0.2):
        g = simulator.perturbation_gap_replicates(RADEMACHER, N, M, lam, s,
                                                  reps, seed=1515)
        d[s] = float(np.mean(g - base))
    slope = abs(d[0.2]) / 0.2
    ok = all(abs(d[s]) <= 3 * slope * s for s in d)
    ok = ok and abs(d[0.05]) <= abs(d[0.1]) <= abs(d[0.2])
    report("criterion 15 (perturbation gap linear scaling)", ok,
           "; ".join(f"s={s}: {d[s]:.5f} (3x-linear cap {3 * slope * s:.5f})"
                     for s in d))


def test_criterion_16_determinism(tmp_path):
    """Identical config and seed reproduce CSV bodies byte for byte."""
    outputs = []
    config = {"prior": "rademacher", "N": 6, "M": 1, "lambda": 2.0,
              "replicates": 25, "posterior": True}
    scan_cfg = {"prior": "rademacher",
                "lambda_grid": {"start": 0.4, "stop": 1.6, "count": 13}}
    for tag in ("a", "b"):
        for sub, cfg, csv_name in (("simulate", config, "simulate.csv"),
                                   ("phase-scan", scan_cfg, "phase_scan.csv")):
            cfg_path = tmp_path / f"{sub}_{tag}.json"
            cfg_path.write_text(json.dumps(cfg))
            out = tmp_path / f"{sub}_{tag}"
            assert cli.main([sub, "--config", str(cfg_path), "--seed", "7",
                             "--out", str(out)]) == 0
            outputs.append((out / csv_name).read_bytes())
    ok = outputs[0] == outputs[2] and outputs[1] == outputs[3]
    report("criterion 16 (byte-identical reruns)", ok,
           f"{len(outputs[0])}+{len(outputs[1])} bytes compared equal")
