import itertools
import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from oracles import ascend_one, fm_rs_monte_carlo, logsumexp_matmul
from wignerlab import channel, replica
from wignerlab.priors import make_discretized_uniform, make_prior
from wignerlab.reduction import random_psd

# centred but not sign-symmetric
ASYMMETRIC = make_prior([(-1.0, 2.0 / 3.0), (2.0, 1.0 / 3.0)])
UNIFORM = make_discretized_uniform(1.0, 4)


def binary_potential_oracle(tau, lam, quad):
    """Two-atom closed form E ln cosh(m + sqrt(m) z) - m/2 - lam tau^2/4."""
    m = lam * tau
    lncosh = quad.weights @ np.log(np.cosh(m + math.sqrt(m) * quad.nodes)) \
        if m > 0 else 0.0
    return float(lncosh) - m / 2 - lam * tau**2 / 4


def binary_state_evolution(lam, quad, q0=1.0, damping=0.5, iters=20000):
    """Independent damped iteration of q = E tanh(lam q + sqrt(lam q) z)."""
    q = q0
    for _ in range(iters):
        m = lam * q
        g = float(quad.weights @ np.tanh(m + math.sqrt(m) * quad.nodes)) if m > 0 else 0.0
        q_new = (1 - damping) * q + damping * g
        if abs(q_new - q) < 1e-13:
            return q_new
        q = q_new
    return q


def scalar_exponents(prior, m, nodes):
    """Exponents arg[..., a, x, n] of the scalar replica measure at m = lam tau
    (a scalar, or a 1-d array that becomes the leading axis): the rank-one
    kernel that the M = 1 workspace replaced, kept as its oracle."""
    m = np.asarray(m)[..., None, None, None]
    v = prior.values
    logw = np.log(prior.weights)
    return (np.sqrt(m) * nodes[None, None, :] * v[None, :, None]
            + m * v[:, None, None] * v[None, :, None]
            - 0.5 * m * v[None, :, None] ** 2
            + logw[None, :, None])


def scalar_lse(arg):
    """log-sum-exp of ``arg`` over its atom axis x."""
    amax = arg.max(axis=-2, keepdims=True)
    return amax[..., 0, :] + np.log(np.exp(arg - amax).sum(axis=-2))


def scalar_potential(prior, taus, lam, quad):
    """F1 at each overlap of the 1-d sequence taus by the scalar kernel."""
    taus = np.asarray(taus, dtype=float)
    lse = scalar_lse(scalar_exponents(prior, lam * taus, quad.nodes))
    return np.einsum("a,tan,n->t", prior.weights, lse, quad.weights) - lam * taus**2 / 4.0


def scalar_update(prior, q, lam, quad):
    """The scalar overlap map q -> E <x x0> by the scalar kernel."""
    v = prior.values
    arg = scalar_exponents(prior, lam * q, quad.nodes)
    arg -= arg.max(axis=1, keepdims=True)
    p = np.exp(arg)
    mean_x = np.einsum("axn,x->an", p, v) / p.sum(axis=1)
    return float(prior.weights @ ((v[:, None] * mean_x) @ quad.weights))


def scalar_fixed_point(prior, lam, q0, quad, damping=0.5, tol=1e-10, max_iter=10_000):
    """The damped scalar iteration on the scalar kernel, clipped to [0, rho];
    returns (overlap, iterations, converged)."""
    q, iterations = q0, 0
    residual = abs(q - scalar_update(prior, q, lam, quad))
    while residual > tol and iterations < max_iter:
        q = min(max((1 - damping) * q + damping * scalar_update(prior, q, lam, quad), 0.0),
                prior.rho)
        residual = abs(q - scalar_update(prior, q, lam, quad))
        iterations += 1
    return q, iterations, residual <= tol


class TestRankOneOracle:
    """The rank-one potential runs on the M = 1 workspace; the scalar kernel
    it replaced is the oracle."""

    @pytest.mark.parametrize("lam", [0.0, 0.3, 1.0, 4.0, 290.0])
    @pytest.mark.parametrize("label", ["rademacher", "sparse03", "asymmetric"])
    def test_potential_and_moment(self, request, quad64, label, lam):
        prior = ASYMMETRIC if label == "asymmetric" else request.getfixturevalue(label)
        ws = replica._RankMWorkspace(prior, 1, quad64)
        taus, vals = replica._f1_grid(ws, lam)
        assert len(taus) == 512
        np.testing.assert_allclose(vals, scalar_potential(prior, taus, lam, quad64),
                                   rtol=0, atol=1e-12)
        for tau in np.linspace(0.0, prior.rho, 7):
            ref = scalar_potential(prior, [tau], lam, quad64)[0]
            assert abs(replica.f1_rs(prior, tau, lam, quad64) - ref) <= 1e-12
            cross = ws.value_and_moment(np.array([[tau]]), lam)[1]
            assert abs(cross[0, 0] - scalar_update(prior, tau, lam, quad64)) <= 1e-12

    @pytest.mark.parametrize("lam,q0,max_iter", [(3.0, 0.0, 10_000), (0.9, 1.0, 10_000),
                                                 (1.5, 1.0, 10_000), (1.001, 1.0, 50)])
    def test_fixed_point_iterations(self, rademacher, quad64, lam, q0, max_iter):
        res = replica.f1_fixed_point(rademacher, lam, q0, quad=quad64, max_iter=max_iter)
        q, iterations, converged = scalar_fixed_point(rademacher, lam, q0, quad64,
                                                      max_iter=max_iter)
        assert (res.iterations, res.converged) == (iterations, converged)
        assert abs(res.overlap - q) <= 1e-12

    def test_projection_of_a_scalar(self):
        """A 1x1 overlap is projected onto [0, hi] by clipping, with no eigh."""
        for s, hi in [(-0.3, 1.0), (0.4, 1.0), (1.7, 1.0), (2.5, math.inf)]:
            Q, root = replica._project(np.array([[s]]), hi)
            expected = min(max(s, 0.0), hi)
            assert Q[0, 0] == expected and root[0, 0] == math.sqrt(expected)

    @pytest.mark.parametrize("lam", [280.0, 290.0, 300.0])
    def test_fixed_point_iterations_sparse(self, quad64, lam):
        """The inner branch of the double well on which
        ``TestMmsePrediction.test_refuses_at_first_order_tie`` bisects."""
        from wignerlab.priors import make_sparse_rademacher
        p = make_sparse_rademacher(0.05)
        res = replica.f1_fixed_point(p, lam, 0.05, quad=quad64, max_iter=60_000)
        q, iterations, converged = scalar_fixed_point(p, lam, 0.05, quad64, max_iter=60_000)
        assert (res.iterations, res.converged) == (iterations, converged)
        assert abs(res.overlap - q) <= 1e-12


class TestScalarPotential:
    def test_zero_overlap(self, rademacher, quad64):
        assert replica.f1_rs(rademacher, 0.0, 3.0, quad64) == 0.0

    def test_zero_snr(self, sparse03, quad64):
        assert abs(replica.f1_rs(sparse03, 0.2, 0.0, quad64)) <= 1e-14

    @pytest.mark.parametrize("tau,lam", [(0.3, 1.0), (0.5, 2.0), (0.9, 4.0)])
    def test_binary_closed_form(self, rademacher, quad64, tau, lam):
        ours = replica.f1_rs(rademacher, tau, lam, quad64)
        assert abs(ours - binary_potential_oracle(tau, lam, quad64)) <= 1e-10

    def test_rejects_overlap_outside_range(self, sparse03, quad64):
        with pytest.raises(ValueError):
            replica.f1_rs(sparse03, 0.31, 1.0, quad64)
        with pytest.raises(ValueError):
            replica.f1_rs(sparse03, -0.01, 1.0, quad64)


class TestScalarSup:
    def test_zero_snr(self, rademacher, quad64):
        value, q_star = replica.f1_sup(rademacher, 0.0, quad64)
        assert value == 0.0 and q_star == 0.0

    def test_below_transition(self, rademacher, quad64):
        """Dense closed-form grid confirms the maximum sits at zero overlap."""
        grid = np.linspace(0, 1, 4001)
        oracle = max(binary_potential_oracle(t, 0.5, quad64) for t in grid)
        assert oracle <= 0.0
        value, q_star = replica.f1_sup(rademacher, 0.5, quad64)
        assert value == 0.0 and q_star == 0.0

    def test_above_transition(self, rademacher, quad64):
        value, q_star = replica.f1_sup(rademacher, 4.0, quad64)
        assert 0.85 < q_star < 1.0
        fp = binary_state_evolution(4.0, quad64)
        assert abs(q_star - fp) <= 1e-6
        grid = np.linspace(0, 1, 4001)
        oracle = max(binary_potential_oracle(t, 4.0, quad64) for t in grid)
        assert value >= oracle - 1e-9

    def test_matches_dense_grid_argmax(self, rademacher, quad64):
        lam = 2.0
        grid = np.linspace(0, 1, 20001)
        vals = [binary_potential_oracle(t, lam, quad64) for t in grid]
        t_oracle = grid[int(np.argmax(vals))]
        _, q_star = replica.f1_sup(rademacher, lam, quad64)
        assert abs(q_star - t_oracle) <= 1e-4

    @pytest.mark.parametrize("lam", [1.5, 2.0, 4.0])
    def test_polish_budget(self, rademacher, quad64, monkeypatch, lam):
        """Beyond the 512-point grid, one call polishes with at least one and
        at most 12 workspace evaluations, counting each overlap of a stack."""
        count = [0]
        ws_class = replica._RankMWorkspace

        def counted(name, batch):
            method = getattr(ws_class, name)

            def wrapper(self, Q, *args, **kwargs):
                count[0] += len(Q) if batch and np.ndim(Q) == 3 else 1
                return method(self, Q, *args, **kwargs)
            monkeypatch.setattr(ws_class, name, wrapper)

        counted("ln_partition", True)
        counted("value_and_moment", True)
        replica.f1_sup(rademacher, lam, quad64)
        assert replica.F1_GRID < count[0] <= replica.F1_GRID + 12

    @pytest.mark.parametrize("label,lam", [
        ("rademacher", 1.5), ("rademacher", 4.0), ("sparse03", 15.0), ("sparse03", 20.0),
        ("asymmetric", 0.5), ("asymmetric", 1.0),
        pytest.param("asymmetric", 4.0, marks=pytest.mark.xfail(
            strict=True, reason="near the flat top at q* = 1.99992707 the Armijo test of "
            "_ascend rejects the step that finishes the certificate, because the value's "
            "true rise is below the rounding of ln Z; it ends at 2.5e-8"))])
    def test_maximizer_is_critical(self, request, quad64, label, lam):
        """At an interior maximizer q* = clip(E<x x0>, 0, rho) on the same rule,
        and the polish never ends below the grid's best value."""
        prior = ASYMMETRIC if label == "asymmetric" else request.getfixturevalue(label)
        value, q_star = replica.f1_sup(prior, lam, quad64)
        assert 0.0 < q_star < prior.rho
        ws = replica._RankMWorkspace(prior, 1, quad64)
        cross = ws.value_and_moment(np.array([[q_star]]), lam)[1][0, 0]
        assert abs(q_star - min(max(cross, 0.0), prior.rho)) <= 1e-9
        assert value >= replica._f1_grid(ws, lam)[1].max()

    def test_starts_are_the_grid_maxima(self):
        """Every local maximum of a grid row starts an ascent: a point above
        its left neighbour and not below its right one, each end against
        -inf, a run of equal values by its leftmost index, and the row's first
        NaN; one mask over a stack of rows."""
        cases = [([0.0, 1.0, 1.0, 1.0, 0.0], [1]),             # a plateau top
                 ([0.0, 1.0, 1.0, 2.0, 0.0], [1, 3]),          # a plateau, then a rise
                 ([1.0, 0.0, 0.5, 0.0, 1.0], [0, 2, 4]),       # both ends
                 ([3.0, 2.0, 1.0, 0.0, -1.0], [0]),            # decreasing
                 ([0.5, 0.5, 0.5, 0.5, 0.5], [0]),             # flat, as at lam = 0
                 ([0.0, math.nan, math.nan, 0.0, 1.0], [1, 4])]  # the first NaN
        mask = replica._local_maxima(np.array([row for row, _ in cases]))
        for row_mask, (_, starts) in zip(mask, cases):
            assert np.flatnonzero(row_mask).tolist() == starts

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_potential_gives_nan(self):
        """With atoms +-1e150 the potential is NaN off zero overlap; the NaN
        carries into the supremum rather than a clean (0, 0)."""
        prior = make_prior([(-1e150, 0.5), (1e150, 0.5)])
        value, _ = replica.f1_sup(prior, 1.0)
        assert math.isnan(value)


class TestScalarFixedPoint:
    def test_zero_start_is_fixed(self, rademacher, quad64):
        res = replica.f1_fixed_point(rademacher, 3.0, q0=0.0, quad=quad64)
        assert res.overlap == 0.0
        assert res.iterations == 0
        assert res.residual == 0.0
        assert res.converged

    def test_below_transition_collapses(self, rademacher, quad64):
        res = replica.f1_fixed_point(rademacher, 0.9, q0=1.0, quad=quad64)
        assert res.converged and abs(res.overlap) <= 1e-6

    def test_above_transition_matches_sup(self, rademacher, quad64):
        res = replica.f1_fixed_point(rademacher, 1.5, q0=1.0, quad=quad64)
        _, q_star = replica.f1_sup(rademacher, 1.5, quad64)
        assert res.converged and res.overlap > 0.1
        assert abs(res.overlap - q_star) <= 1e-6

    def test_nonconvergence_flagged_not_raised(self, rademacher, quad64):
        res = replica.f1_fixed_point(rademacher, 1.001, q0=1.0, quad=quad64,
                                     max_iter=50)
        assert not res.converged

    def test_rejects_bad_damping(self, rademacher, quad64):
        with pytest.raises(ValueError):
            replica.f1_fixed_point(rademacher, 1.0, q0=0.5, damping=0.0, quad=quad64)


class TestMmsePrediction:
    def test_zero_snr(self, sparse03, quad64):
        assert abs(replica.mmse_prediction(sparse03, 0.0, quad64) - 0.09) <= 1e-12

    def test_high_snr(self, rademacher, quad64):
        assert replica.mmse_prediction(rademacher, 100.0, quad64) <= 1e-3

    def test_below_transition(self, rademacher, quad64):
        assert abs(replica.mmse_prediction(rademacher, 0.5, quad64) - 1.0) <= 1e-12

    @pytest.mark.parametrize("prior_name", ["rademacher", "sparse03"])
    def test_flat_potential_runs_few_searches(self, request, quad64, monkeypatch,
                                              prior_name):
        """At lam = 0 every grid value is equal; the grid's one run of equal
        values is one candidate, not one polishing ascent per point."""
        prior = request.getfixturevalue(prior_name)
        starts = []
        ascend = replica._ascend

        def counted(*args):
            starts.extend(args[2])
            return ascend(*args)

        monkeypatch.setattr(replica, "_ascend", counted)
        assert replica.mmse_prediction(prior, 0.0, quad64) == prior.rho**2
        assert len(starts) <= 4

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -1.0])
    def test_rejects_bad_snr(self, rademacher, quad64, lam):
        with pytest.raises(ValueError, match="SNR"):
            replica.mmse_prediction(rademacher, lam, quad64)

    def test_scan_rows_are_predictions(self, rademacher):
        """rho^2 - q*^2 of each ``phase_scan`` row, by Python's **, is
        ``mmse_prediction`` at its SNR, to the bit: one search gives both."""
        lams = np.linspace(0.2, 4.0, 12)
        for prior in (rademacher, ASYMMETRIC):
            scan = replica.phase_scan(prior, lams)
            for lam, q in zip(lams.tolist(), scan.q_star.tolist()):
                assert prior.rho**2 - q**2 == replica.mmse_prediction(prior, lam)

    def test_refuses_at_first_order_tie(self, quad64):
        """A strongly sparse prior has a double-well potential; where the two
        maxima tie in value the prediction must refuse rather than guess.
        The tie SNR is located by bisection on the inner-branch value."""
        from wignerlab.priors import make_sparse_rademacher
        p = make_sparse_rademacher(0.05)

        def inner_value(lam):
            fp = replica.f1_fixed_point(p, lam, q0=0.05, quad=quad64,
                                        max_iter=60000)
            if not fp.converged or fp.overlap < 1e-3:
                return None
            return fp.potential_value

        lo, hi = 285.0, 300.0
        for _ in range(45):
            mid = 0.5 * (lo + hi)
            v = inner_value(mid)
            if v is None or v < 0:
                lo = mid
            else:
                hi = mid
        with pytest.raises(replica.NonUniqueMaximizer):
            replica.mmse_prediction(p, hi, quad64)
        # far from the tie the prediction answers
        assert replica.mmse_prediction(p, 350.0, quad64) < p.rho**2

    def test_refuses_when_distant_well_wins_within_zero_tie(self, rademacher, quad64,
                                                            monkeypatch):
        """The zero-overlap near-tie rule (1e-10) picks q* = 0 but keeps the
        distant well among the candidates: a well at q = rho that leads the
        zero end by 5e-11, with a dip between, is still refused."""
        taus = np.linspace(0.0, rademacher.rho, replica.F1_GRID)
        monkeypatch.setattr(replica, "_f1_grid",
                            lambda ws, lams: (taus, np.tile(-taus * (rademacher.rho - taus),
                                                            (len(lams), 1))))

        def ascend(ws, lam, starts, hi, tol):
            return np.where(starts[:, 0, 0] > 0, 5e-11, 0.0), starts.copy()

        monkeypatch.setattr(replica, "_ascend", ascend)
        with pytest.raises(replica.NonUniqueMaximizer):
            replica.mmse_prediction(rademacher, 1.0, quad64)
        assert replica.f1_sup(rademacher, 1.0, quad64) == (0.0, 0.0)


class TestRankM:
    def test_zero_overlap_matrix(self, rademacher):
        ev = replica.fm_rs(rademacher, 2, np.zeros((2, 2)), 3.0)
        assert abs(ev.value_logz) <= 1e-12
        assert abs(ev.value_mi) <= 1e-12

    @pytest.mark.parametrize("M", [2, 3])
    def test_isotropic_decoupling(self, rademacher, M):
        """Product structure: the rank-M potential at tau*I equals the scalar
        potential on the same per-axis quadrature."""
        quad = channel.gauss_hermite(16)
        for tau in np.linspace(0.0, 1.0, 9):
            ev = replica.fm_rs(rademacher, M, tau * np.eye(M), 1.7, quad=quad)
            f1 = replica.f1_rs(rademacher, tau, 1.7, quad)
            assert abs(ev.value_logz - f1) <= 1e-8

    @pytest.mark.parametrize("M", [2, 3])
    def test_two_forms_agree(self, sparse03, M, rng):
        """Log-partition and information forms are one identity."""
        for _ in range(10):
            Q = random_psd(M, rng, shift_scale=0.1) * 0.3
            lam = 8.0 * rng.random()
            ev = replica.fm_rs(sparse03, M, Q, lam)
            assert ev.form_gap <= 1e-6

    def test_monte_carlo_path(self, rademacher, rng):
        """The Monte Carlo oracle at M=4 (``oracles.fm_rs_monte_carlo``); the
        isotropic value has the scalar decoupling as its oracle."""
        tau = 0.6
        ev = fm_rs_monte_carlo(rademacher, 4, tau * np.eye(4), 2.0, 200_000, rng)
        f1 = replica.f1_rs(rademacher, tau, 2.0, channel.gauss_hermite(64))
        assert abs(ev.value_logz - f1) <= 5e-3
        assert ev.form_gap <= 5e-3

    def test_rejects_non_psd(self, rademacher):
        with pytest.raises(ValueError):
            replica.fm_rs(rademacher, 2, np.array([[1.0, 2.0], [2.0, 1.0]]), 1.0)

    def test_rejects_large_dimension(self, rademacher):
        for M in (4, 7):
            with pytest.raises(ValueError, match="supports M in 1..3"):
                replica.fm_rs(rademacher, M, np.eye(M), 1.0)


class TestMatrixFixedPoint:
    def test_zero_is_fixed(self, rademacher):
        res = replica.fm_fixed_point(rademacher, 2, 2.0, np.zeros((2, 2)))
        assert res.converged
        np.testing.assert_allclose(res.overlap, 0.0, atol=1e-12)

    def test_converges_to_isotropic(self, rademacher, quad64):
        res = replica.fm_fixed_point(rademacher, 2, 4.0, np.eye(2))
        _, q_star = replica.f1_sup(rademacher, 4.0, quad64)
        assert res.converged and res.residual <= 1e-8
        assert np.linalg.norm(res.overlap - q_star * np.eye(2), "fro") <= 1e-4

    def test_below_transition_collapses(self, rademacher):
        res = replica.fm_fixed_point(rademacher, 2, 0.5, np.eye(2))
        assert res.converged
        assert np.linalg.norm(res.overlap, "fro") <= 1e-6

    def test_criticality_system_residual(self, rademacher):
        """At the converged point, each eigendirection satisfies
        q_i^(1/2) (O_i' E<x x0'> O_i - q_i) = 0 to tolerance."""
        res = replica.fm_fixed_point(rademacher, 2, 4.0, np.eye(2))
        Q = res.overlap
        cross = replica._RankMWorkspace(rademacher, 2).value_and_moment(Q, 4.0)[1]
        eigval, eigvec = np.linalg.eigh(Q)
        for i in range(2):
            e_i = float(eigvec[:, i] @ cross @ eigvec[:, i])
            assert abs(math.sqrt(max(eigval[i], 0.0)) * (e_i - eigval[i])) <= 1e-7


def separate_cross_moment(ws, Q, lam):
    """E <x x0'> by one exp-matmul per coordinate of x, normalized by its own
    denominator: the moment kernel the fused pass replaced, kept as its oracle."""
    A, B = ws._exponents(Q, lam)
    EB = np.exp(B - B.max(axis=1, keepdims=True))
    EA = np.exp(A - A.max(axis=0, keepdims=True))
    denom = EB @ EA
    mean_x = np.array([(EB * ws.values[None, :, m]) @ EA for m in range(ws.M)]) / denom
    return (mean_x @ ws.z_weights) @ (ws.values * ws.weights[:, None])


def potential_and_gradient(ws, Q, lam):
    """FM and its gradient (lam / 2M)(sym E<x x0'> - Q) from the fused pass."""
    M = ws.M
    ln_z, cross = ws.value_and_moment(Q, lam)
    return (ln_z / M - lam * np.sum(Q * Q) / (4 * M),
            lam / (2 * M) * ((cross + cross.T) / 2 - Q))


def certificate(prior, M, Q, lam):
    """Criticality residual |Q - P(sym E<x x0'>)|_F / M at the default order,
    P the projection onto {0 <= Q <= rho I}."""
    cross = replica._RankMWorkspace(prior, M).value_and_moment(Q, lam)[1]
    return np.linalg.norm(Q - replica._project(cross, prior.rho)[0]) / M


class TestFusedPass:
    """One exponent build and one exponential give ln Z and E <x x0'>."""

    @pytest.mark.parametrize("M", [2, 3])
    @pytest.mark.parametrize("label", ["rademacher", "sparse03", "asymmetric"])
    def test_matches_separate_kernels(self, request, label, M):
        prior = ASYMMETRIC if label == "asymmetric" else request.getfixturevalue(label)
        ws = replica._RankMWorkspace(prior, M)
        rng = np.random.default_rng(41 + M)
        for _ in range(3):
            Q = random_psd(M, rng, shift_scale=0.05) * (prior.rho / 2)
            ln_z, cross = ws.value_and_moment(Q, 1.7)
            assert abs(ln_z - ws.ln_partition(Q, 1.7)) <= 1e-12
            np.testing.assert_allclose(cross, separate_cross_moment(ws, Q, 1.7),
                                       rtol=0, atol=1e-12)

    def test_underflowed_entries(self, rademacher):
        """At a huge SNR every product of some (x0, z) entries underflows; the
        pairwise recomputation keeps ln Z and the moment finite and exact."""
        ws = replica._RankMWorkspace(rademacher, 2, channel.gauss_hermite(4))
        Q = np.array([[0.9, 0.4], [0.4, 0.3]])
        A, B = ws._exponents(Q, 1e5)
        EB = np.exp(B - B.max(axis=1, keepdims=True))
        EA = np.exp(A - A.max(axis=0, keepdims=True))
        assert np.any(EB @ EA < np.finfo(float).tiny)
        arg = B[:, :, None] + A[None, :, :]                      # (a, x, n)
        top = arg.max(axis=1, keepdims=True)
        p = np.exp(arg - top)
        lse = top[:, 0] + np.log(p.sum(axis=1))
        mean_x = np.einsum("axn,xm->man", p, ws.values) / p.sum(axis=1)
        ln_z, cross = ws.value_and_moment(Q, 1e5)
        assert abs(ln_z - ws.weights @ (lse @ ws.z_weights)) <= 1e-12 * abs(ln_z)
        ref = (mean_x @ ws.z_weights) @ (ws.values * ws.weights[:, None])
        np.testing.assert_allclose(cross, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("M", [2, 3])
    @pytest.mark.parametrize("label,tol", [("sparse03", 1e-11), ("rademacher", 5e-6),
                                           ("asymmetric", 1e-4)])
    def test_gradient_matches_central_differences(self, request, label, tol, M):
        """Nishimori: grad FM = (lam / 2M)(sym E<x x0'> - Q), exact up to the
        quadrature error of Gaussian integration by parts."""
        prior = ASYMMETRIC if label == "asymmetric" else request.getfixturevalue(label)
        ws = replica._RankMWorkspace(prior, M)
        rng = np.random.default_rng(7 + M)
        h = 1e-5
        for _ in range(2):
            Q = random_psd(M, rng, shift_scale=0.05) * (prior.rho / 2)
            _, grad = potential_and_gradient(ws, Q, 1.7)
            for i, j in itertools.combinations_with_replacement(range(M), 2):
                E = np.zeros((M, M))
                E[i, j] = E[j, i] = 1.0
                up = potential_and_gradient(ws, Q + h * E, 1.7)[0]
                down = potential_and_gradient(ws, Q - h * E, 1.7)[0]
                assert abs((up - down) / (2 * h) - np.sum(grad * E)) <= tol

    def test_batched_ln_partition(self, rademacher):
        ws = replica._RankMWorkspace(rademacher, 3, channel.gauss_hermite(8))
        rng = np.random.default_rng(5)
        Qs = np.array([random_psd(3, rng, shift_scale=0.05) / 2 for _ in range(4)])
        roots = np.array([channel.psd_sqrt(Q) for Q in Qs])
        np.testing.assert_allclose(ws.ln_partition(Qs, 1.7, roots),
                                   [ws.ln_partition(Q, 1.7) for Q in Qs], rtol=0, atol=1e-13)


def full_grid_workspace(prior, M, quad):
    """The rank-M workspace on the full tensor grid, whatever the prior."""
    ws = replica._RankMWorkspace(prior, M, quad)
    ws.z_nodes, ws.z_weights = channel.tensor_nodes(quad, M)
    return ws


class TestHalvedGrid:
    """A sign-symmetric prior integrates on the sign-halved grid, to the
    full grid's values."""

    @pytest.mark.parametrize("M", [1, 2, 3])
    @pytest.mark.parametrize("order", [7, 8])
    @pytest.mark.parametrize("label", ["rademacher", "sparse03", "uniform"])
    def test_matches_full_grid(self, request, label, order, M):
        prior = UNIFORM if label == "uniform" else request.getfixturevalue(label)
        quad = channel.gauss_hermite(order)
        ws, full = replica._RankMWorkspace(prior, M, quad), full_grid_workspace(prior, M, quad)
        assert len(ws.z_weights) == (order**M + 1) // 2
        rng = np.random.default_rng(13 * M + order)
        for _ in range(2):
            Q = random_psd(M, rng, shift_scale=0.05) * (prior.rho / 2)
            assert abs(ws.ln_partition(Q, 1.7) - full.ln_partition(Q, 1.7)) <= 1e-12
            ln_z, cross = ws.value_and_moment(Q, 1.7)
            ref_ln_z, ref_cross = full.value_and_moment(Q, 1.7)
            assert abs(ln_z - ref_ln_z) <= 1e-12
            np.testing.assert_allclose(cross, ref_cross, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("M", [1, 2, 3])
    def test_full_grid_without_symmetry(self, rademacher, M):
        """The asymmetric prior, and a rule that z -> -z does not map to
        itself, keep the full grid."""
        quad = channel.gauss_hermite(6)
        ws = replica._RankMWorkspace(ASYMMETRIC, M, quad)
        assert ws.z_nodes is channel.tensor_nodes(quad, M)[0]
        skewed = channel.GaussQuadrature(nodes=np.array([-1.2, 0.8]),
                                         weights=np.array([0.45, 0.55]), order=2)
        assert len(replica._RankMWorkspace(rademacher, M, skewed).z_weights) == 2**M


def logsumexp_ln_partition(ws, Q, lam, sqrt_Q=None):
    """E ln ZM through one stabilized exp-matmul per overlap, the maxima kept
    inside the log: the reduction the folded ln Z pass replaced, kept as its
    oracle."""
    A, B = ws._exponents(Q, lam, sqrt_Q)
    return (logsumexp_matmul(B, A) @ ws.z_weights) @ ws.weights


def overlap_stack(prior, M, count, seed):
    rng = np.random.default_rng(seed)
    Qs = np.array([random_psd(M, rng, shift_scale=0.05) * (prior.rho / 2)
                   for _ in range(count)])
    return Qs, np.array([channel.psd_sqrt(Q) for Q in Qs])


class TestFoldedLnPartition:
    """ln_partition and value_and_moment share one Gibbs pass: it sums the
    column maxima of A and the row maxima of B outside the log and recomputes
    pairwise only the entries whose every product underflows."""

    @pytest.mark.parametrize("M", [1, 2, 3])
    @pytest.mark.parametrize("label,full", [("rademacher", False), ("rademacher", True),
                                            ("sparse03", False), ("sparse03", True),
                                            ("asymmetric", True)])
    def test_matches_logsumexp_oracle(self, request, label, full, M):
        prior = ASYMMETRIC if label == "asymmetric" else request.getfixturevalue(label)
        quad = channel.gauss_hermite(replica.DEFAULT_ORDER[M])
        ws = (full_grid_workspace(prior, M, quad) if full
              else replica._RankMWorkspace(prior, M, quad))
        assert len(ws.z_weights) == (quad.order**M if full else (quad.order**M + 1) // 2)
        Qs, roots = overlap_stack(prior, M, 8, 3 * M)
        for lam in (0.3, 1.7, 6.0):
            np.testing.assert_allclose(ws.ln_partition(Qs, lam, roots),
                                       logsumexp_ln_partition(ws, Qs, lam, roots),
                                       rtol=0, atol=1e-12)
            assert abs(ws.ln_partition(Qs[0], lam)
                       - logsumexp_ln_partition(ws, Qs[0], lam)) <= 1e-12

    @pytest.mark.parametrize("M", [1, 2, 3])
    @pytest.mark.parametrize("label", ["rademacher", "sparse03", "asymmetric"])
    def test_fused_value_is_ln_partition(self, request, label, M):
        """The suprema rank their grids with ln_partition and _ascend's Armijo
        test reads value_and_moment, so both give one number, to the bit."""
        prior = ASYMMETRIC if label == "asymmetric" else request.getfixturevalue(label)
        Qs, _ = overlap_stack(prior, M, 10, 29 + M)
        for order in (8, replica.DEFAULT_ORDER[M]):
            ws = replica._RankMWorkspace(prior, M, channel.gauss_hermite(order))
            for Q, lam in itertools.product(Qs, (0.3, 1.7, 6.0)):
                assert ws.value_and_moment(Q, lam)[0] == ws.ln_partition(Q, lam)

    def test_underflow_guard_in_a_mixed_stack(self, rademacher):
        """The exponents depend on lam Q and sqrt(lam) sqrt(Q) only, so a slice
        scaled by 1e5 / lam is a lam = 1e5 slice.  Its products underflow,
        every slice keeps the oracle's value, and every slice equals its value
        alone, to the bit."""
        ws = replica._RankMWorkspace(rademacher, 2, channel.gauss_hermite(4))
        Qs, _ = overlap_stack(rademacher, 2, 4, 17)
        hot = np.array([[0.9, 0.4], [0.4, 0.3]]) * (1e5 / 1.7)
        Qs = np.concatenate([Qs[:2], hot[None], Qs[2:]])
        roots = np.array([channel.psd_sqrt(Q) for Q in Qs])
        A, B = ws._exponents(hot, 1.7)
        EB = np.exp(B - B.max(axis=1, keepdims=True))
        EA = np.exp(A - A.max(axis=0, keepdims=True))
        assert np.any(EB @ EA < np.finfo(float).tiny)
        got = ws.ln_partition(Qs, 1.7, roots)
        ref = logsumexp_ln_partition(ws, Qs, 1.7, roots)
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
        assert abs(ws.ln_partition(hot, 1.7) - ref[2]) <= 1e-12 * abs(ref[2])
        np.testing.assert_array_equal(
            got, [ws.ln_partition(Q, 1.7, root) for Q, root in zip(Qs, roots)])

    @pytest.mark.parametrize("M", [1, 2, 3])
    @pytest.mark.parametrize("label", ["rademacher", "sparse03", "asymmetric"])
    def test_slice_independent_of_stack(self, request, label, M):
        """fm_sup ranks grid overlaps evaluated in batches, so an overlap's
        value is the same to the bit alone and inside a 64-overlap stack."""
        prior = ASYMMETRIC if label == "asymmetric" else request.getfixturevalue(label)
        order = {1: 64, 2: 20, 3: 8}[M]          # the orders of the suprema's grids
        ws = replica._RankMWorkspace(prior, M, channel.gauss_hermite(order))
        Qs, roots = overlap_stack(prior, M, 64, 5 + M)
        stacked = ws.ln_partition(Qs, 1.7, roots)
        np.testing.assert_array_equal(
            stacked, [ws.ln_partition(Qs[i:i + 1], 1.7, roots[i:i + 1])[0] for i in range(64)])
        np.testing.assert_array_equal(
            stacked, [ws.ln_partition(Q, 1.7, root) for Q, root in zip(Qs, roots)])


class TestMatrixSup:
    def test_zero_snr(self, rademacher):
        value, Q = replica.fm_sup(rademacher, 2, 0.0)
        assert value == 0.0
        np.testing.assert_array_equal(Q, np.zeros((2, 2)))

    def test_below_transition(self, rademacher):
        value, Q = replica.fm_sup(rademacher, 2, 0.5)
        assert value == 0.0
        np.testing.assert_array_equal(Q, np.zeros((2, 2)))

    def test_matches_scalar_sup(self, rademacher, quad64):
        vm, Q = replica.fm_sup(rademacher, 2, 2.0)
        v1, q1 = replica.f1_sup(rademacher, 2.0, quad64)
        assert abs(vm - v1) <= 1e-3
        assert np.linalg.norm(Q - q1 * np.eye(2), "fro") <= 1e-2

    def test_maximizer_eigenvalues_in_range(self, rademacher):
        """Any maximizer has eigenvalues inside [0, rho]."""
        for lam in (0.5, 2.0, 4.0):
            _, Q = replica.fm_sup(rademacher, 2, lam)
            eig = np.linalg.eigvalsh(Q)
            assert eig.min() >= -1e-10
            assert eig.max() <= rademacher.rho + 1e-8


def group(M, flips):
    """Every coordinate permutation of R^M, times every sign flip if asked."""
    signs = itertools.product((1.0, -1.0), repeat=M) if flips else [(1.0,) * M]
    return [np.diag(d) @ np.eye(M)[list(p)]
            for d in signs for p in itertools.permutations(range(M))]


def in_domain(Q, flips):
    """Whether the overlaps Q[..., :, :] lie in ``replica._domain_mask``'s
    fundamental domain."""
    return replica._domain_mask(np.diagonal(Q, axis1=-2, axis2=-1), Q[..., 0, :], flips)


def canonical(Q, flips):
    """The image of Q with a non-increasing diagonal and, with flips, a
    nonnegative first row."""
    order = np.argsort(-Q.diagonal(), kind="stable")
    Q = Q[np.ix_(order, order)]
    if flips:
        d = np.where(Q[0] < 0, -1.0, 1.0)
        Q = Q * np.outer(d, d)
    return Q


def potential(prior, M, Q, lam):
    return replica.fm_rs(prior, M, Q, lam).value_logz


class TestGradientPolish:
    @pytest.mark.parametrize("M", [2, 3])
    @pytest.mark.parametrize("lam", [0.5, 2.0, 4.0])
    def test_maximizer_is_critical(self, rademacher, M, lam):
        """fm_sup's maximizer on criterion 4's rademacher cases is a fixed
        point of the projected map Q -> E<x x0'>."""
        _, Q = replica.fm_sup(rademacher, M, lam)
        assert certificate(rademacher, M, Q, lam) <= 2e-4

    def test_evaluation_count(self, rademacher, monkeypatch):
        """One M = 3 call evaluates the potential at more than the 515 distinct
        grid overlaps and fewer than 1,000 overlaps in all, counting each
        member of a batch, value-and-moment stacks included."""
        count = [0]
        ws_class = replica._RankMWorkspace

        def counted(name, batch):
            method = getattr(ws_class, name)

            def wrapper(self, Q, *args, **kwargs):
                count[0] += len(Q) if batch and np.ndim(Q) == 3 else 1
                return method(self, Q, *args, **kwargs)
            monkeypatch.setattr(ws_class, name, wrapper)

        counted("ln_partition", True)
        counted("value_and_moment", True)
        replica.fm_sup(rademacher, 3, 2.0)
        assert 515 < count[0] < 1_000

    def test_ascent_from_a_bad_start(self, rademacher):
        """From a generic anisotropic overlap the ascent climbs to the
        isotropic maximizer of criterion 5's case."""
        ws = replica._RankMWorkspace(rademacher, 2)
        start = np.array([[1.0, 0.3], [0.3, 0.2]])
        (value,), (Q,) = replica._ascend(ws, 4.0, start[None], rademacher.rho, 1e-9)
        _, q1 = replica.f1_sup(rademacher, 4.0, channel.gauss_hermite(64))
        assert value > potential_and_gradient(ws, start, 4.0)[0]
        assert np.linalg.norm(Q - q1 * np.eye(2), "fro") <= 1e-4


class TestLockstep:
    """The ascents of a stack run in lockstep, one stacked workspace pass per
    round, and each ends where it ends alone (``oracles.ascend_one``), to the
    bit."""

    LAMS = (0.5, 1.5, 2.0, 4.0)

    def starts(self, prior, M, seed):
        """Two random overlaps, a repeat of the first, rho I, and q* I with
        q* the scalar maximizer: per SNR of LAMS, with its SNR."""
        rng = np.random.default_rng(seed)
        base = [random_psd(M, rng, shift_scale=0.05) * (prior.rho / 2) for _ in range(2)]
        stack = [(Q, lam) for lam in self.LAMS
                 for Q in base + [base[0], prior.rho * np.eye(M),
                                  replica.f1_sup(prior, lam)[1] * np.eye(M)]]
        return np.array([Q for Q, _ in stack]), np.array([lam for _, lam in stack])

    @pytest.mark.parametrize("order", ["coarse", "default"])
    @pytest.mark.parametrize("M", [1, 2, 3])
    @pytest.mark.parametrize("label", ["rademacher", "sparse03", "asymmetric"])
    def test_matches_one_at_a_time(self, request, label, M, order):
        prior = ASYMMETRIC if label == "asymmetric" else request.getfixturevalue(label)
        coarse = order == "coarse"
        ws = replica._RankMWorkspace(prior, M, channel.gauss_hermite(
            replica.SUP_COARSE_ORDER if coarse else replica.DEFAULT_ORDER[M]))
        tol = replica.SUP_TOL[0 if coarse else 1]
        starts, lams = self.starts(prior, M, 3 + M)
        values, ends = replica._ascend(ws, lams, starts, prior.rho, tol)
        for Q0, lam, value, end in zip(starts, lams.tolist(), values, ends):
            ref_value, ref_Q = ascend_one(ws, lam, Q0, prior.rho, tol)
            assert value == ref_value
            np.testing.assert_array_equal(end, ref_Q)

    def test_a_start_exhausts_its_halvings(self):
        """At the asymmetric prior's flat top (lam = 4, M = 1) an ascent from
        the scalar maximizer ends with every halving rejected, its certificate
        above the tolerance; it stops in the middle of a stack whose other
        ascents keep climbing, and still ends as it does alone."""
        ws = replica._RankMWorkspace(ASYMMETRIC, 1)
        q1 = replica.f1_sup(ASYMMETRIC, 4.0)[1]
        starts = np.array([[[0.3]], [[q1]], [[1.0]], [[q1]]])
        passes = []
        value_and_moment = ws.value_and_moment

        def counted(Q, *args):
            passes.append(len(np.atleast_3d(Q)))
            return value_and_moment(Q, *args)

        ws.value_and_moment = counted
        ref = [ascend_one(ws, 4.0, Q0, ASYMMETRIC.rho, replica.SUP_TOL[1]) for Q0 in starts]
        # from q* it stopped before SUP_STEPS steps with its certificate unmet
        passes.clear()
        ascend_one(ws, 4.0, starts[1], ASYMMETRIC.rho, replica.SUP_TOL[1])
        assert 1 + replica._HALVINGS <= len(passes) < 1 + replica.SUP_STEPS
        cross = value_and_moment(ref[1][1], 4.0)[1]
        assert abs(ref[1][1][0, 0] - min(max(cross[0, 0], 0.0), ASYMMETRIC.rho)) > 1e-9
        passes.clear()
        values, ends = replica._ascend(ws, 4.0, starts, ASYMMETRIC.rho, replica.SUP_TOL[1])
        assert passes[-1] < len(starts) == passes[0]
        np.testing.assert_array_equal(values, [v for v, _ in ref])
        np.testing.assert_array_equal(ends, [Q for _, Q in ref])

    def test_scan_rows_are_scalar_suprema(self, request):
        """Each row of the lockstep scan is ``f1_sup`` at its SNR, to the bit."""
        for prior in (request.getfixturevalue("rademacher"), ASYMMETRIC):
            lams = np.linspace(0.2, 4.0, 12)
            scan = replica.phase_scan(prior, lams)
            for lam, value, q in zip(lams.tolist(), scan.value.tolist(), scan.q_star.tolist()):
                assert (value, q) == replica.f1_sup(prior, lam)

    def test_bounded_parts(self, rademacher, monkeypatch):
        """With parts of at most 2^10 elements per temporary, the searches give
        the same bits."""
        lams = np.linspace(0.2, 3.0, 9)
        ref = (replica.fm_sup(rademacher, 2, 2.0), replica.fm_sup(ASYMMETRIC, 3, 1.5),
               replica.phase_scan(rademacher, lams), replica.mmse_prediction(ASYMMETRIC, 1.5))
        monkeypatch.setattr(channel, "BATCH", 1 << 10)
        got = (replica.fm_sup(rademacher, 2, 2.0), replica.fm_sup(ASYMMETRIC, 3, 1.5),
               replica.phase_scan(rademacher, lams), replica.mmse_prediction(ASYMMETRIC, 1.5))
        for (v, Q), (v_ref, Q_ref) in zip(got[:2], ref[:2]):
            assert v == v_ref
            np.testing.assert_array_equal(Q, Q_ref)
        for name in ("value", "q_star", "dq_dlambda"):
            np.testing.assert_array_equal(getattr(got[2], name), getattr(ref[2], name))
        assert got[3] == ref[3]


class TestCoarseRule:
    """fm_sup's coarse stage, the grid ranking and the coarse ascents, runs on
    one rule of SUP_COARSE_ORDER nodes per axis at M = 2 as at M = 3."""

    @pytest.mark.parametrize("lam", [0.5, 1.5, 4.0])
    @pytest.mark.parametrize("label", ["rademacher", "sparse03", "asymmetric"])
    def test_same_basin_as_the_default_order(self, request, monkeypatch, label, lam):
        """At M = 2 the coarse rule leads to the maximizer that ranking and
        climbing at the default order reach; a wrong basin moves Q* by O(0.1)."""
        prior = ASYMMETRIC if label == "asymmetric" else request.getfixturevalue(label)
        value, Q = replica.fm_sup(prior, 2, lam)
        monkeypatch.setattr(replica, "SUP_COARSE_ORDER", replica.DEFAULT_ORDER[2])
        ref_value, ref_Q = replica.fm_sup(prior, 2, lam)
        assert abs(value - ref_value) <= 1e-6
        assert np.linalg.norm(Q - ref_Q, "fro") <= 2e-3

    def test_evaluation_rules(self, rademacher, monkeypatch):
        """One M = 2 call evaluates every grid overlap on the coarse rule and
        only the 65-point isotropic line at the default order."""
        counts = {}
        ln_partition = replica._RankMWorkspace.ln_partition

        def counted(self, Q, *args, **kwargs):
            order = self.quad.order
            counts[order] = counts.get(order, 0) + (len(Q) if np.ndim(Q) == 3 else 1)
            return ln_partition(self, Q, *args, **kwargs)
        monkeypatch.setattr(replica._RankMWorkspace, "ln_partition", counted)
        replica.fm_sup(rademacher, 2, 2.0)
        assert counts[replica.SUP_COARSE_ORDER] == 3_504
        assert counts[replica.DEFAULT_ORDER[2]] == 65


def redundant_sup_grid(M, rho, sign_symmetric):
    """fm_sup's coarse grid as built before duplicate overlaps were removed:
    every in-domain product-grid point, a degenerate spectrum at its first
    rotation only.  Kept as the oracle of ``_sup_grid``."""
    n_angle = replica.SUP_ANGLES[M]
    eig_levels = np.linspace(0.0, rho, replica.SUP_EIG_LEVELS[M])
    turn = np.linspace(0.0, 2 * math.pi, n_angle, endpoint=False)
    angle_grids = ([np.linspace(0.0, math.pi, n_angle, endpoint=False)] if M == 2
                   else [turn, np.linspace(0.0, math.pi, max(n_angle // 2, 3)), turn])
    eig_combos = np.array(list(itertools.combinations_with_replacement(eig_levels, M)))
    O = np.array([replica.rotation_matrix(a, M) for a in itertools.product(*angle_grids)])[None]
    q = eig_combos[:, None, None, :]
    grid_Q = (O * q) @ O.swapaxes(-1, -2)
    grid_sqrt = (O * np.sqrt(q)) @ O.swapaxes(-1, -2)
    keep = in_domain(grid_Q, sign_symmetric)
    keep[np.ptp(np.round(eig_combos, 12), axis=1) == 0, 1:] = False
    return grid_Q[keep], grid_sqrt[keep]


class TestSupGrid:
    """fm_sup's coarse grid holds each distinct overlap once and is built
    once per (M, rho, sign symmetry)."""

    @pytest.mark.parametrize("sign_symmetric", [True, False])
    @pytest.mark.parametrize("rho", [0.3, 1.0, 2.0])
    @pytest.mark.parametrize("M", [2, 3])
    def test_distinct_rows_of_the_redundant_grid(self, M, rho, sign_symmetric):
        grid_Q, grid_sqrt = redundant_sup_grid(M, rho, sign_symmetric)
        first = {}
        for i, row in enumerate(np.round(grid_Q.reshape(len(grid_Q), -1), 9)):
            first.setdefault(tuple(row), i)
        rows = sorted(first.values())
        Q, root = replica._sup_grid(M, rho, sign_symmetric)
        np.testing.assert_array_equal(Q, grid_Q[rows])
        np.testing.assert_array_equal(root, grid_sqrt[rows])
        assert not cKDTree(Q.reshape(len(Q), -1)).query_pairs(1e-9, p=np.inf)

    @pytest.mark.parametrize("M,sign_symmetric,size", [(2, True, 3_504), (2, False, 6_480),
                                                        (3, True, 515), (3, False, 1_408)])
    def test_cached_read_only(self, M, sign_symmetric, size):
        Q, root = replica._sup_grid(M, 1.0, sign_symmetric)
        assert len(Q) == size
        assert not Q.flags.writeable and not root.flags.writeable
        again = replica._sup_grid(M, 1.0, sign_symmetric)
        assert again[0] is Q and again[1] is root

    def test_candidates_are_distinct(self, rademacher, monkeypatch):
        """At rademacher M = 3, lam = 2 the coarse ascents start from
        pairwise distinct overlaps, the grid's best candidates first."""
        starts = []
        ascend = replica._ascend

        def recorded(ws, lam, stack, rho, tol):
            if tol == replica.SUP_TOL[0]:
                starts.extend(stack.reshape(len(stack), -1))
            return ascend(ws, lam, stack, rho, tol)
        monkeypatch.setattr(replica, "_ascend", recorded)
        replica.fm_sup(rademacher, 3, 2.0)
        assert len(starts) >= replica.SUP_CANDIDATES
        assert not cKDTree(np.array(starts)).query_pairs(1e-9, p=np.inf)


class TestSymmetryReduction:
    """FM is invariant under signed permutations for sign-symmetric priors
    and under permutations only otherwise; fm_sup searches one fundamental
    domain of that group."""

    def random_overlaps(self, prior, M, count, seed):
        rng = np.random.default_rng(seed)
        return [random_psd(M, rng, shift_scale=0.05) * (prior.rho / 2)
                for _ in range(count)]

    @pytest.mark.parametrize("M", [2, 3])
    @pytest.mark.parametrize("label", ["rademacher", "sparse03", "asymmetric"])
    def test_group_invariance(self, request, label, M):
        prior = ASYMMETRIC if label == "asymmetric" else request.getfixturevalue(label)
        flips = label != "asymmetric"
        assert prior.sign_symmetric == flips
        for Q in self.random_overlaps(prior, M, 3, 17 + M):
            ref = potential(prior, M, Q, 1.7)
            for g in group(M, flips):
                assert abs(potential(prior, M, g @ Q @ g.T, 1.7) - ref) <= 1e-13

    @pytest.mark.parametrize("M", [2, 3])
    def test_sign_flip_breaks_asymmetric_prior(self, M):
        """The gate on sign symmetry does work: for a prior without it, some
        sign flip changes the potential (through strongly correlated
        coordinates, where the odd moments of the prior enter)."""
        r = 0.8
        Q = ASYMMETRIC.rho / (1 + r * (M - 1)) * ((1 - r) * np.eye(M) + r * np.ones((M, M)))
        ref = potential(ASYMMETRIC, M, Q, 1.7)
        moved = max(abs(potential(ASYMMETRIC, M, g @ Q @ g.T, 1.7) - ref)
                    for g in group(M, True))
        assert moved > 1e-4

    @pytest.mark.parametrize("M", [2, 3])
    @pytest.mark.parametrize("label", ["rademacher", "asymmetric"])
    def test_canonical_image_in_domain(self, request, label, M):
        """Every orbit meets the domain: the canonical image lies in it with
        an equal potential, and it is the only image of a generic Q there."""
        prior = ASYMMETRIC if label == "asymmetric" else request.getfixturevalue(label)
        flips = prior.sign_symmetric
        for Q in self.random_overlaps(prior, M, 5, 29 + M):
            C = canonical(Q, flips)
            assert in_domain(C, flips)
            assert abs(potential(prior, M, C, 1.7) - potential(prior, M, Q, 1.7)) <= 1e-13
            images = {tuple(np.round(g @ Q @ g.T, 12).ravel()) for g in group(M, flips)}
            inside = [im for im in images
                      if in_domain(np.reshape(im, (M, M)), flips)]
            assert len(inside) == 1

    def test_domain_is_vectorized(self, rademacher):
        Qs = np.array(self.random_overlaps(rademacher, 3, 8, 3))
        np.testing.assert_array_equal(in_domain(Qs, True),
                                      [in_domain(Q, True) for Q in Qs])

    def test_asymmetric_rank_three_reduction(self, quad64):
        """Criterion 4's gates on a prior without sign symmetry at M = 3,
        where only permutations reduce the grid."""
        vm, Q = replica.fm_sup(ASYMMETRIC, 3, 1.5)
        v1, q1 = replica.f1_sup(ASYMMETRIC, 1.5, quad64)
        assert abs(vm - v1) <= 1e-3
        assert np.linalg.norm(Q - q1 * np.eye(3), "fro") <= 1e-2


class TestNonFiniteSnr:
    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_suprema_refuse(self, rademacher, quad64, lam):
        with pytest.raises(ValueError):
            replica.f1_sup(rademacher, lam, quad64)
        with pytest.raises(ValueError):
            replica.fm_sup(rademacher, 2, lam)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_phase_scan_refuses(self, rademacher, quad64, bad):
        lams = list(np.linspace(0.5, 2.0, 8)) + [bad]
        with pytest.raises(ValueError):
            replica.phase_scan(rademacher, lams, quad64)


class TestPhaseScan:
    def test_binary_transition_cell(self, rademacher, quad64):
        scan = replica.phase_scan(rademacher, np.linspace(0.2, 3.0, 57), quad64)
        assert scan.jump_cell is not None
        lo, hi = scan.jump_cell
        assert lo <= 1.0 <= hi
        assert np.all(np.diff(scan.q_star) >= -1e-9)

    def test_low_grid_flags_nothing(self, rademacher, quad64):
        scan = replica.phase_scan(rademacher, np.linspace(0.05, 0.5, 10), quad64)
        assert scan.jump_cell is None
        assert np.all(scan.q_star == 0.0)

    def test_matches_state_evolution(self, rademacher, quad64):
        lams = np.linspace(1.2, 3.0, 10)
        scan = replica.phase_scan(rademacher, lams, quad64)
        for lam, q in zip(lams, scan.q_star):
            assert abs(q - binary_state_evolution(lam, quad64)) <= 1e-5

    def test_rejects_short_grid(self, rademacher, quad64):
        with pytest.raises(ValueError):
            replica.phase_scan(rademacher, [0.5, 1.0, 1.5], quad64)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_rows_start_once(self, monkeypatch):
        """On atoms +-1e150 the potential is NaN off zero overlap: each NaN
        row of the grid starts one ascent besides its real maxima, and the
        scan's values stay NaN."""
        prior = make_prior([(-1e150, 0.5), (1e150, 0.5)])
        lams = np.linspace(0.2, 3.0, 57)
        starts = []
        ascend = replica._ascend

        def counting(ws, lam, Q, *args):
            starts.append(len(Q))
            return ascend(ws, lam, Q, *args)

        monkeypatch.setattr(replica, "_ascend", counting)
        scan = replica.phase_scan(prior, lams)
        vals = replica._f1_grid(replica._RankMWorkspace(prior, 1, None), lams)[1]
        padded = np.pad(vals, ((0, 0), (1, 1)), constant_values=-np.inf)
        real = (vals > padded[:, :-2]) & (vals >= padded[:, 2:])
        nan_rows = np.isnan(vals).any(axis=1).sum()
        assert nan_rows > 0
        assert sum(starts) <= nan_rows + real.sum()
        assert np.all(np.isnan(scan.value))


class TestSupremumInLambda:
    def test_shifted_curve_monotone_convex(self, rademacher, quad64):
        """sup F1 - lam rho^2/4 decreases and is convex in the SNR (checked on
        a uniform grid above the transition; below it the curve is exactly
        linear)."""
        lams = np.arange(1.2, 3.01, 0.3)
        vals = np.array([replica.f1_sup(rademacher, lam, quad64)[0]
                         - lam * rademacher.rho**2 / 4 for lam in lams])
        assert np.all(np.diff(vals) <= 1e-10)
        second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
        assert np.all(second >= -1e-9)

    def test_rank_two_curve_monotone_convex(self, rademacher):
        lams = np.arange(1.2, 3.01, 0.45)
        vals = np.array([replica.fm_sup(rademacher, 2, lam)[0]
                         - lam * rademacher.rho**2 / 4 for lam in lams])
        assert np.all(np.diff(vals) <= 1e-8)
        second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
        assert np.all(second >= -1e-6)
