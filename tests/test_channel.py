import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad
from scipy.linalg import eigh_tridiagonal
from scipy.special import logsumexp

from wignerlab import channel, make_discretized_uniform, make_prior
from wignerlab.reduction import random_psd

ASYMMETRIC = make_prior([(-1.0, 2.0 / 3.0), (2.0, 1.0 / 3.0)])
UNIFORM = make_discretized_uniform(1.0, 4)


def binary_mi_oracle(s):
    """I(s) = s - E ln cosh(s + sqrt(s) z) for the +-1 prior, by adaptive
    quadrature (independent of the Gauss-Hermite path under test)."""
    if s == 0:
        return 0.0

    def f(z):
        return math.log(math.cosh(s + math.sqrt(s) * z)) * \
            math.exp(-z * z / 2) / math.sqrt(2 * math.pi)

    val, _ = scipy_quad(f, -12, 12, limit=400)
    return s - val


def golub_welsch(order):
    """The Golub-Welsch rule, symmetrized and normalized: nodes are the
    eigenvalues of the probabilists' Hermite Jacobi matrix (off-diagonal
    sqrt(1..n-1)), weights the squared first eigenvector components."""
    if order == 1:
        return np.zeros(1), np.ones(1)
    # the default driver underflows the tiny edge weights to zero
    nodes, vecs = eigh_tridiagonal(np.zeros(order), np.sqrt(np.arange(1.0, order)),
                                   lapack_driver="stev")
    weights = vecs[0] ** 2
    nodes = (nodes - nodes[::-1]) / 2.0
    weights = (weights + weights[::-1]) / 2.0
    return nodes, weights / weights.sum()


ORDERS = [1, 2, 8, 14, 20, 24, 40, 64, 256]     # the orders in use and both ends


class TestGaussHermite:
    @pytest.mark.parametrize("order", ORDERS)
    def test_exact_even_moments(self, order):
        """E z^(2k) = (2k-1)!! for every 2k < min(2 order, 80)."""
        q = channel.gauss_hermite(order)
        for k in range(min(order, 40)):
            exact = math.prod(range(2 * k - 1, 0, -2))
            assert abs(q.weights @ q.nodes ** (2 * k) - exact) <= 1e-13 * exact, k

    @pytest.mark.parametrize("order", ORDERS + [128])
    def test_matches_golub_welsch(self, order):
        q = channel.gauss_hermite(order)
        nodes, weights = golub_welsch(order)
        np.testing.assert_allclose(q.nodes, nodes, rtol=0, atol=1e-13)
        np.testing.assert_allclose(q.weights, weights, rtol=5e-12, atol=0)

    def test_order_one(self):
        q = channel.gauss_hermite(1)
        np.testing.assert_array_equal(q.nodes, [0.0])
        np.testing.assert_array_equal(q.weights, [1.0])

    def test_moments(self):
        q = channel.gauss_hermite(20)
        assert abs(q.weights @ q.nodes**2 - 1.0) <= 1e-12
        assert abs(q.weights @ q.nodes**4 - 3.0) <= 1e-10
        assert abs(q.weights @ q.nodes) <= 1e-14
        assert abs(q.weights @ q.nodes**3) <= 1e-13

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            channel.gauss_hermite(0)
        with pytest.raises(ValueError):
            channel.gauss_hermite(257)

    @pytest.mark.parametrize("order", [2, 7, 64, 256])
    def test_normalized(self, order):
        q = channel.gauss_hermite(order)
        assert np.all(q.weights > 0)
        assert abs(q.weights.sum() - 1.0) <= 1e-12


def skewed_rule():
    """A valid two-node rule (weights sum to 1, E z^2 = 1) that z -> -z does
    not map to itself."""
    return channel.GaussQuadrature(nodes=np.array([-1.2, 0.8]),
                                   weights=np.array([0.45, 0.55]), order=2)


def fresh(quad):
    """A copy of the rule with no grid built yet."""
    return channel.GaussQuadrature(nodes=quad.nodes, weights=quad.weights, order=quad.order)


def full_grid_mi(prior, gain, quad):
    """I(x0; G x0 + z) by a direct logsumexp over every mixture component on
    the full tensor grid: -E ln sum_k W_k exp(e_k' z - |e_k|^2 / 2),
    e_k = G(v_k - x0)."""
    values, logw = channel.atom_grid(prior, len(gain))
    z, z_w = channel.tensor_nodes(quad, len(gain))
    E = values @ gain.T
    e = E[None, :, :] - E[:, None, :]                       # (x0, k, M)
    arg = e @ z.T - 0.5 * np.sum(e * e, axis=2)[:, :, None] + logw[None, :, None]
    return -float(np.exp(logw) @ (logsumexp(arg, axis=1) @ z_w))


class TestTensorGrid:
    @pytest.mark.parametrize("order", ORDERS + [7])
    def test_gauss_hermite_is_symmetric(self, order):
        assert channel.gauss_hermite(order).symmetric

    def test_skewed_rules_are_not_symmetric(self):
        assert not skewed_rule().symmetric
        lopsided = channel.GaussQuadrature(nodes=np.array([-1.0, 1.0]),
                                           weights=np.array([0.4, 0.6]), order=2)
        assert not lopsided.symmetric

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_full_grid(self, dim):
        quad = channel.gauss_hermite(5)
        nodes, weights = channel.tensor_nodes(quad, dim)
        assert nodes.shape == (5**dim, dim)
        ref = np.array(list(itertools.product(quad.nodes, repeat=dim)))
        np.testing.assert_array_equal(nodes, ref)
        np.testing.assert_allclose(
            weights, [np.prod(w) for w in itertools.product(quad.weights, repeat=dim)],
            rtol=1e-15, atol=0)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("order", [1, 2, 7, 8])
    def test_halved_grid(self, order, dim):
        """One node of each +- pair, the one whose first nonzero coordinate is
        positive, with doubled weight; the all-zero node keeps its weight."""
        quad = channel.gauss_hermite(order)
        full, full_w = channel.tensor_nodes(quad, dim)
        half, half_w = channel.tensor_nodes(quad, dim, halved=True)
        assert len(half) == (order**dim + 1) // 2
        first = np.array([row[np.flatnonzero(row)[0]] if row.any() else 0.0 for row in half])
        assert np.all(first >= 0)
        assert np.count_nonzero(first == 0) == order % 2
        lookup = {tuple(n): w for n, w in zip(full, full_w)}
        for n, w in zip(half, half_w):
            assert w == (1 if not n.any() else 2) * lookup[tuple(n)]
            assert lookup[tuple(-n)] == lookup[tuple(n)]
        # every even function of z integrates as on the full grid
        for f in (lambda z: np.cosh(z @ np.arange(1.0, dim + 1)),
                  lambda z: (z[:, 0] * z[:, -1]) ** 2 + z[:, 0] * z[:, -1]):
            assert abs(half_w @ f(half) - full_w @ f(full)) <= 1e-12

    def test_skewed_rule_keeps_full_grid(self):
        skewed = skewed_rule()
        assert channel.tensor_nodes(skewed, 2, halved=True) is channel.tensor_nodes(skewed, 2)
        assert len(channel.tensor_nodes(skewed, 2)[1]) == 4

    @pytest.mark.parametrize("halved", [False, True])
    def test_cached_read_only(self, halved):
        quad = channel.gauss_hermite(6)
        nodes, weights = channel.tensor_nodes(quad, 2, halved)
        again = channel.tensor_nodes(quad, 2, halved)
        assert again[0] is nodes and again[1] is weights
        for arr in (nodes, weights):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_rules_of_one_order_do_not_share_a_grid(self):
        nodes, weights = channel.tensor_nodes(channel.gauss_hermite(2), 2)
        skewed = skewed_rule()
        own, own_w = channel.tensor_nodes(skewed, 2)
        assert not np.array_equal(own, nodes) and not np.array_equal(own_w, weights)
        np.testing.assert_array_equal(own[:, 1], np.tile(skewed.nodes, 2))


class TestLogsumexp:
    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_matches_scipy(self, rng, axis):
        a = rng.normal(scale=30.0, size=(7, 9))
        a[0] += 800.0
        a[1] -= 800.0
        a[2, :4] = 800.0 + rng.normal(size=4)
        a[3, :4] = -800.0 + rng.normal(size=4)
        np.testing.assert_allclose(channel._logsumexp(a, axis), logsumexp(a, axis=axis),
                                   rtol=1e-13, atol=0)


class TestLogsumexpMatmul:
    def test_matches_direct(self, rng):
        A = rng.normal(scale=5.0, size=(6, 9))
        B = rng.normal(scale=5.0, size=(9, 7))
        got = channel.logsumexp_matmul(A, B)
        ref = logsumexp(A[:, :, None] + B[None, :, :], axis=1)
        np.testing.assert_allclose(got, ref, atol=1e-13)

    def test_underflowed_entry(self):
        """Row and column maxima at different inner indices: every product
        underflows, and the entry is -800 + ln 2, not -inf."""
        got = channel.logsumexp_matmul(np.array([[0.0, -800.0]]),
                                       np.array([[-800.0], [0.0]]))
        assert abs(got[0, 0] - (-800.0 + math.log(2.0))) <= 1e-13

    def test_batched_matches_slices(self, rng):
        """A leading batch axis gives each slice's own result, the guard
        included: slice 1 holds an entry whose every product underflows."""
        A = rng.normal(scale=5.0, size=(3, 4, 6))
        B = rng.normal(scale=5.0, size=(3, 6, 5))
        A[1, 0, :2], B[1, :2, 0] = (0.0, -800.0), (-800.0, 0.0)
        A[1, 0, 2:], B[1, 2:, 0] = -900.0, -900.0
        got = channel.logsumexp_matmul(A, B)
        assert np.exp(A[1] - A[1].max(axis=1, keepdims=True))[0] @ \
            np.exp(B[1] - B[1].max(axis=0, keepdims=True))[:, 0] < np.finfo(float).tiny
        for k in range(3):
            np.testing.assert_allclose(got[k], channel.logsumexp_matmul(A[k], B[k]),
                                       rtol=0, atol=1e-13)
            ref = logsumexp(A[k][:, :, None] + B[k][None, :, :], axis=1)
            np.testing.assert_allclose(got[k], ref, rtol=0, atol=1e-13)
        assert abs(got[1, 0, 0] - (-800.0 + math.log(2.0))) <= 1e-13

    @pytest.mark.parametrize("prior_name", ["rademacher", "sparse03"])
    def test_ill_conditioned_vector_mi(self, request, prior_name, rng):
        """A randomly rotated gain Sigma^(-1/2) with noise eigenvalues
        (1e-3, 0.5, 2) against a direct logsumexp over every mixture
        component on the full grid (``full_grid_mi``)."""
        prior = request.getfixturevalue(prior_name)
        R, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        gain = channel.psd_inv_sqrt((R * [1e-3, 0.5, 2.0]) @ R.T)
        quad = channel.gauss_hermite(8)
        assert abs(channel.mi_vector_signal(prior, gain, quad)
                   - full_grid_mi(prior, gain, quad)) <= 1e-13


class TestScalarMi:
    def test_zero_snr(self, rademacher, quad64):
        assert channel.mi_scalar_signal(rademacher, 0.0, quad64) == 0.0

    def test_saturates_at_input_entropy(self, rademacher, quad64):
        assert abs(channel.mi_scalar_signal(rademacher, 25.0, quad64)
                   - math.log(2)) <= 1e-3

    def test_closed_form(self, rademacher, quad64):
        """Binary-input closed form, oracle via adaptive quadrature."""
        for s in (0.25, 0.5, 1.0, 2.0):
            ours = channel.mi_scalar_signal(rademacher, s, quad64)
            assert abs(ours - binary_mi_oracle(s)) <= 1e-8

    def test_closed_form_same_quadrature(self, rademacher, quad64):
        s = 1.0
        lncosh = quad64.weights @ np.log(np.cosh(s + math.sqrt(s) * quad64.nodes))
        assert abs(channel.mi_scalar_signal(rademacher, s, quad64)
                   - (s - lncosh)) <= 1e-13

    def test_nondecreasing(self, sparse03, quad64):
        grid = np.linspace(0.0, 6.0, 25)
        vals = [channel.mi_scalar_signal(sparse03, s, quad64) for s in grid]
        assert np.all(np.diff(vals) >= -1e-12)

    def test_noise_scaled_reparametrization(self, rademacher, quad64):
        assert channel.mi_scalar_noise(rademacher, 1.0, quad64) == \
            channel.mi_scalar_signal(rademacher, 1.0, quad64)

    def test_noise_scaled_small_snr(self, rademacher, quad64):
        assert channel.mi_scalar_noise(rademacher, 1e6, quad64) <= 2e-6

    def test_noise_scaled_entropy_bound(self, sparse03, quad64):
        assert channel.mi_scalar_noise(sparse03, 0.25, quad64) <= math.log(3)

    def test_rejects_nonpositive_noise(self, rademacher, quad64):
        with pytest.raises(ValueError):
            channel.mi_scalar_noise(rademacher, 0.0, quad64)


class TestMmse:
    def test_zero_snr_returns_rho(self, sparse03, quad64):
        assert abs(channel.mmse_scalar(sparse03, 0.0, quad64) - 0.3) <= 1e-14

    def test_high_snr_decay(self, rademacher, quad64):
        assert channel.mmse_scalar(rademacher, 100.0, quad64) <= 1e-3

    def test_range_and_monotone(self, rademacher, quad64):
        grid = np.linspace(0.0, 8.0, 33)
        vals = np.array([channel.mmse_scalar(rademacher, s, quad64) for s in grid])
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0 + 1e-12)
        assert np.all(np.diff(vals) <= 1e-12)

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 4.0])
    def test_i_mmse_identity(self, rademacher, quad64, s):
        """Central difference of the information rate equals half the MMSE."""
        h = 1e-3
        deriv = (channel.mi_scalar_signal(rademacher, s + h, quad64)
                 - channel.mi_scalar_signal(rademacher, s - h, quad64)) / (2 * h)
        assert abs(deriv - channel.mmse_scalar(rademacher, s, quad64) / 2) <= 1e-5


class TestDenoiser:
    def test_odd_symmetry(self, sparse03):
        assert channel.denoiser_scalar(sparse03, 0.0, 3.0) == 0.0

    def test_binary_is_tanh(self, rademacher):
        ys = np.linspace(-4, 4, 17)
        got = channel.denoiser_scalar(rademacher, ys, 2.5)
        np.testing.assert_allclose(got, np.tanh(math.sqrt(2.5) * ys), atol=1e-14)

    def test_zero_snr_prior_mean(self, sparse03):
        for y in (-3.0, 0.7, 11.0):
            assert abs(channel.denoiser_scalar(sparse03, y, 0.0)) <= 1e-15

    def test_extreme_observation_stable(self, sparse03):
        val = channel.denoiser_scalar(sparse03, 500.0, 9.0)
        assert np.isfinite(val) and abs(val) <= 1.0


class TestVectorMi:
    @pytest.mark.parametrize("M", [2, 3])
    def test_diagonal_decouples(self, rademacher, quad24, M, rng):
        t = 0.5 + rng.random(M)
        vec, se = channel.mi_vector(rademacher, np.diag(t), quad24)
        scalar = sum(channel.mi_scalar_noise(rademacher, ti, quad24) for ti in t)
        assert se == 0.0
        assert abs(vec - scalar) <= 1e-8

    def test_isotropic_two_dim(self, sparse03, quad24):
        vec, _ = channel.mi_vector(sparse03, 0.8 * np.eye(2), quad24)
        assert abs(vec - 2 * channel.mi_scalar_noise(sparse03, 0.8, quad24)) <= 1e-8

    @pytest.mark.parametrize("M", [2, 3])
    def test_trimming_direction(self, sparse03, quad24, M, rng):
        """Correlated noise carries at least the sum of per-coordinate rates."""
        for _ in range(20):
            sigma = random_psd(M, rng)
            vec, _ = channel.mi_vector(sparse03, sigma, quad24)
            scalar = sum(channel.mi_scalar_noise(sparse03, t, quad24)
                         for t in sigma.diagonal())
            assert vec - scalar >= -1e-6

    def test_worst_trace_direction(self, rademacher, quad24, rng):
        for _ in range(20):
            sigma = random_psd(2, rng, diag_min=1.0)
            vec, _ = channel.mi_vector(rademacher, sigma, quad24)
            ref = 2 * channel.mi_scalar_noise(rademacher, np.trace(sigma) / 2, quad24)
            assert vec - ref >= -1e-6

    def test_monte_carlo_against_diagonal(self, rademacher, quad24, rng):
        """M=4 goes through the Monte Carlo path; diagonal covariance gives an
        exact scalar-sum oracle."""
        t = np.array([1.0, 1.5, 2.0, 2.5])
        vec, se = channel.mi_vector(rademacher, np.diag(t), quad24,
                                    mc_budget=200_000, rng=rng)
        scalar = sum(channel.mi_scalar_noise(rademacher, ti, quad24) for ti in t)
        assert se > 0.0
        assert abs(vec - scalar) <= 4 * se

    def test_rejects_dimension_mismatch(self, rademacher, quad24):
        with pytest.raises(ValueError):
            channel.mi_vector(rademacher, np.eye(3)[:2], quad24)

    def test_rejects_non_psd(self, rademacher, quad24):
        with pytest.raises(ValueError):
            channel.mi_vector(rademacher, np.array([[1.0, 2.0], [2.0, 1.0]]), quad24)

    def test_noise_covariance_validation(self, rademacher, quad24):
        with pytest.raises(ValueError, match="symmetric"):
            channel.mi_vector(rademacher, np.array([[1.0, 0.5], [0.4, 1.0]]), quad24)

    @pytest.mark.parametrize("M", [1, 2, 3])
    @pytest.mark.parametrize("order", [7, 8])
    @pytest.mark.parametrize("label", ["rademacher", "sparse03", "uniform"])
    def test_halved_grid_matches_full(self, request, label, order, M):
        """Sign-symmetric priors integrate on the halved grid; the full-grid
        logsumexp agrees to 1e-12."""
        prior = UNIFORM if label == "uniform" else request.getfixturevalue(label)
        quad = fresh(channel.gauss_hermite(order))
        rng = np.random.default_rng(11 * M + order)
        gains = [channel.psd_sqrt(random_psd(M, rng, shift_scale=0.05)) * 1.3 for _ in range(2)]
        values = [channel.mi_vector_signal(prior, gain, quad) for gain in gains]
        assert list(quad._grids) == [(M, True)]
        for gain, value in zip(gains, values):
            assert abs(value - full_grid_mi(prior, gain, quad)) <= 1e-12

    @pytest.mark.parametrize("label", ["asymmetric", "skewed_rule"])
    def test_full_grid_without_symmetry(self, rademacher, label):
        """Without a sign-symmetric prior or a symmetric rule the MI runs on
        the full grid."""
        prior, quad = ((ASYMMETRIC, fresh(channel.gauss_hermite(8))) if label == "asymmetric"
                       else (rademacher, skewed_rule()))
        rng = np.random.default_rng(3)
        gain = channel.psd_sqrt(random_psd(2, rng, shift_scale=0.05))
        value = channel.mi_vector_signal(prior, gain, quad)
        assert list(quad._grids) == [(2, False)]
        assert abs(value - full_grid_mi(prior, gain, quad)) <= 1e-13

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (), (0, 0), (4, 4)])
    def test_signal_gain_shape_checked_before_any_grid(self, rademacher, shape):
        quad = fresh(channel.gauss_hermite(2))
        with pytest.raises(ValueError):
            channel.mi_vector_signal(rademacher, np.ones(shape), quad)
        assert quad._grids == {}


class TestConvexity:
    def test_binary_grid(self, rademacher, quad64):
        grid = np.arange(1.0, 5.0001, 0.1)
        assert channel.check_mi_convexity(rademacher, grid, quad64) >= -1e-7

    def test_sparse_grid(self, quad64):
        from wignerlab import make_sparse_rademacher
        p = make_sparse_rademacher(0.5)
        grid = np.linspace(1.0, 10.0, 46)
        assert channel.check_mi_convexity(p, grid, quad64) >= -1e-7

    def test_three_point_grid(self, rademacher, quad64):
        grid = np.array([1.0, 1.5, 2.0])
        val = channel.check_mi_convexity(rademacher, grid, quad64)
        assert np.isscalar(val)

    def test_rejects_grid_below_support_bound(self, rademacher, quad64):
        with pytest.raises(ValueError):
            channel.check_mi_convexity(rademacher, np.linspace(0.5, 2.0, 16), quad64)

    def test_rejects_nonuniform_grid(self, rademacher, quad64):
        with pytest.raises(ValueError):
            channel.check_mi_convexity(rademacher, np.array([1.0, 1.1, 1.3]), quad64)
