import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad
from scipy.linalg import eigh_tridiagonal
from scipy.special import logsumexp

from oracles import (
    _logsumexp,
    denoiser_scalar,
    full_grid_mi,
    logsumexp_matmul,
    mi_scalar_lse,
    mi_signal_point,
    mi_vector_lse,
    mi_vector_mc,
    mmse_denoiser,
    mmse_point,
)
from wignerlab import _budget, channel
from wignerlab.priors import make_discretized_uniform, make_prior
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
        np.testing.assert_allclose(_logsumexp(a, axis), logsumexp(a, axis=axis),
                                   rtol=1e-13, atol=0)


class TestLogsumexpMatmul:
    def test_matches_direct(self, rng):
        A = rng.normal(scale=5.0, size=(6, 9))
        B = rng.normal(scale=5.0, size=(9, 7))
        got = logsumexp_matmul(A, B)
        ref = logsumexp(A[:, :, None] + B[None, :, :], axis=1)
        np.testing.assert_allclose(got, ref, atol=1e-13)

    def test_underflowed_entry(self):
        """Row and column maxima at different inner indices: every product
        underflows, and the entry is -800 + ln 2, not -inf."""
        got = logsumexp_matmul(np.array([[0.0, -800.0]]), np.array([[-800.0], [0.0]]))
        assert abs(got[0, 0] - (-800.0 + math.log(2.0))) <= 1e-13

    def test_batched_matches_slices(self, rng):
        """A leading batch axis gives each slice's own result, the guard
        included: slice 1 holds an entry whose every product underflows."""
        A = rng.normal(scale=5.0, size=(3, 4, 6))
        B = rng.normal(scale=5.0, size=(3, 6, 5))
        A[1, 0, :2], B[1, :2, 0] = (0.0, -800.0), (-800.0, 0.0)
        A[1, 0, 2:], B[1, 2:, 0] = -900.0, -900.0
        got = logsumexp_matmul(A, B)
        assert np.exp(A[1] - A[1].max(axis=1, keepdims=True))[0] @ \
            np.exp(B[1] - B[1].max(axis=0, keepdims=True))[:, 0] < np.finfo(float).tiny
        for k in range(3):
            np.testing.assert_allclose(got[k], logsumexp_matmul(A[k], B[k]),
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


class TestGibbsPass:
    def test_underflowed_entry(self):
        """The row maximum of B and the column maximum of A sit at different
        configurations: every product underflows, and the entry is recomputed
        pairwise to -800 + ln 2, with the Gibbs mean of a row through the same
        guard."""
        calls = []

        def exponents():
            calls.append(1)
            return np.array([[-800.0], [0.0]]), np.array([[0.0, -800.0]])

        rows = np.array([[1.0, 1.0], [3.0, 5.0]])[:, None, :]
        ln_z, mean_x = channel.gibbs_pass(exponents, rows, np.ones(1), np.ones(1))
        assert abs(ln_z - (-800.0 + math.log(2.0))) <= 1e-13
        assert abs(mean_x[0, 0, 0] - 4.0) <= 1e-13
        assert len(calls) == 2


PRIORS = ["rademacher", "sparse03", "asymmetric", "uniform"]


def named_prior(request, label):
    own = {"asymmetric": ASYMMETRIC, "uniform": UNIFORM}
    return own[label] if label in own else request.getfixturevalue(label)


class TestAgainstReplacedKernels:
    """mi_vector_signal, mi_scalar_signal and mmse_scalar run on one
    ``gibbs_pass``; the kernels they replaced (``oracles``) agree to 1e-12."""

    @pytest.mark.parametrize("M", [1, 2, 3])
    @pytest.mark.parametrize("label", PRIORS)
    def test_vector_mi(self, request, label, M):
        prior = named_prior(request, label)
        quad = channel.gauss_hermite({1: 64, 2: 20, 3: 8}[M])
        R, _ = np.linalg.qr(np.random.default_rng(7 * M).standard_normal((M, M)))
        ill = channel.psd_inv_sqrt((R * [1e-3, 0.5, 2.0][:M]) @ R.T)
        for gain in (np.zeros((M, M)), ill, 30.0 * np.eye(M)):
            assert abs(channel.mi_vector_signal(prior, gain, quad)
                       - mi_vector_lse(prior, gain, quad)) <= 1e-12

    @pytest.mark.parametrize("label", PRIORS)
    def test_scalar_mi_and_mmse(self, request, label, quad64):
        prior = named_prior(request, label)
        for s in (0.0, 1e-3, 0.5, 2.0, 30.0, 1e3, 1e4):
            assert abs(channel.mi_scalar_signal(prior, s, quad64)
                       - mi_scalar_lse(prior, s, quad64)) <= 1e-12, s
            assert abs(channel.mmse_scalar(prior, s, quad64)
                       - mmse_denoiser(prior, s, quad64)) <= 1e-12, s

    @pytest.mark.parametrize("label", PRIORS)
    def test_guard_recomputes_at_high_snr(self, request, label, quad64, monkeypatch):
        """At s = 1e4 the pass loses entries far out in z and rebuilds its
        exponents for them; the values still agree."""
        prior = named_prior(request, label)
        calls = []

        def counting(exponents, *args):
            def counted():
                calls.append(1)
                return exponents()
            return gibbs_pass(counted, *args)

        gibbs_pass = channel.gibbs_pass
        monkeypatch.setattr(channel, "gibbs_pass", counting)
        for ours, ref in [(channel.mi_scalar_signal, mi_scalar_lse),
                          (channel.mmse_scalar, mmse_denoiser)]:
            calls.clear()
            assert abs(ours(prior, 1e4, quad64) - ref(prior, 1e4, quad64)) <= 1e-12
            assert len(calls) == 2


STACK_PRIORS = {"rademacher": None, "sparse03": None, "asymmetric": ASYMMETRIC,
                "uniform5": make_discretized_uniform(1.0, 5)}
S_GRID = np.r_[0.0, np.logspace(-3, 4, 200)]


def stack_prior(request, label):
    return STACK_PRIORS[label] or request.getfixturevalue(label)


class TestStacks:
    """A grid or a stack of gains gives, bit for bit, what one call per point
    gives on the channel pass at one gain (``oracles.channel_pass_point``)."""

    @pytest.mark.parametrize("label", list(STACK_PRIORS))
    def test_scalar_grid_matches_points(self, request, label, quad64, monkeypatch):
        """s in {0} and logspace(-3, 4), where the guard fires at the top; a
        tiled copy of the grid is longer than one part of every pass, and
        each part keeps its temporaries within BATCH."""
        prior = stack_prior(request, label)
        mi = [mi_signal_point(prior, np.array([[math.sqrt(s)]]), quad64) for s in S_GRID]
        mmse = [mmse_point(prior, s, quad64) for s in S_GRID]
        t = 1.0 / S_GRID[1:]
        noise = [mi_signal_point(prior, np.array([[math.sqrt(1.0 / ti)]]), quad64) for ti in t]
        assert np.array_equal(channel.mi_scalar_signal(prior, S_GRID, quad64), mi)
        assert np.array_equal(channel.mmse_scalar(prior, S_GRID, quad64), mmse)
        assert np.array_equal(channel.mi_scalar_noise(prior, t, quad64), noise)

        parts = []

        def recording(exponents, rows, *args):
            A, B = exponents()
            parts.append((len(A), len(rows) * max(A.size, B.size)))
            return gibbs_pass(exponents, rows, *args)

        gibbs_pass = channel.gibbs_pass
        monkeypatch.setattr(channel, "gibbs_pass", recording)
        tiles = 11
        for func, ref in [(channel.mi_scalar_signal, mi), (channel.mmse_scalar, mmse)]:
            parts.clear()
            assert np.array_equal(func(prior, np.tile(S_GRID, tiles), quad64),
                                  np.tile(ref, tiles))
            assert len(parts) > 1 and sum(n for n, _ in parts) == tiles * len(S_GRID)
            assert max(size for _, size in parts) <= _budget.BATCH

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("label", list(STACK_PRIORS))
    def test_vector_stack_matches_gains(self, request, label, d):
        prior = stack_prior(request, label)
        quad = channel.gauss_hermite({2: 20, 3: 8}[d])
        rng = np.random.default_rng(5 * d)
        gains = np.array([scale * channel.psd_sqrt(random_psd(d, rng, shift_scale=0.05))
                          for scale in (0.0, 0.3, 1.0, 3.0, 30.0, 1e3)]).reshape(2, 3, d, d)
        got = channel.mi_vector_signal(prior, gains, quad)
        assert got.shape == (2, 3)
        assert np.array_equal(got, [[mi_signal_point(prior, g, quad) for g in row]
                                    for row in gains])

    @pytest.mark.parametrize("M", [1, 2, 3])
    def test_roots_of_a_stack(self, M):
        """The stacked square root and inverse square root equal the
        per-matrix eigendecomposition formulas, to the bit, on 500 draws."""
        rng = np.random.default_rng(40 + M)
        mats = np.array([random_psd(M, rng) for _ in range(500)])
        roots, inv_roots = channel.psd_sqrt(mats), channel.psd_inv_sqrt(mats)
        for mat, root, inv_root in zip(mats, roots, inv_roots):
            eigval, eigvec = np.linalg.eigh(mat)
            assert np.array_equal(root, (eigvec * np.sqrt(eigval)) @ eigvec.T)
            assert np.array_equal(inv_root, (eigvec / np.sqrt(eigval)) @ eigvec.T)
            assert np.array_equal(inv_root, channel.psd_inv_sqrt(mat))

    @pytest.mark.parametrize("M", [2, 3])
    def test_covariance_stack(self, sparse03, quad24, M):
        """``mi_vector`` over a stack of covariances gives each one's value,
        and a non-symmetric, indefinite or singular covariance anywhere in the
        stack, the last included, fails with its own message."""
        rng = np.random.default_rng(M)
        sigmas = np.array([random_psd(M, rng) for _ in range(6)]).reshape(2, 3, M, M)
        got = channel.mi_vector(sparse03, sigmas, quad24)
        assert got.shape == (2, 3)
        assert np.array_equal(got, [[channel.mi_vector(sparse03, m, quad24) for m in row]
                                    for row in sigmas])
        bad = {"symmetric": np.eye(M) + np.triu(np.full((M, M), 0.3), 1),
               "positive semidefinite": np.eye(M) - 1.5 * np.ones((M, M)) / M,
               "singular": np.ones((M, M))}
        for match, mat in bad.items():
            for where in [(0, 0), (1, 2)]:
                stack = sigmas.copy()
                stack[where] = mat
                with pytest.raises(ValueError, match=match):
                    channel.mi_vector(sparse03, stack, quad24)

    def test_scalar_in_float_out(self, rademacher, quad64):
        for value in (channel.mi_scalar_signal(rademacher, 1.0, quad64),
                      channel.mi_scalar_noise(rademacher, np.float64(2.0), quad64),
                      channel.mmse_scalar(rademacher, np.array(1.0), quad64),
                      channel.mi_vector_signal(rademacher, np.eye(2), quad64)):
            assert type(value) is float

    def test_convexity_makes_one_call(self, rademacher, quad64, monkeypatch):
        grid = np.arange(1.0, 5.0001, 0.1)
        expected = channel.check_mi_convexity(rademacher, grid, quad64)
        calls = []

        def counting(*args):
            calls.append(1)
            return mi_scalar_noise(*args)

        mi_scalar_noise = channel.mi_scalar_noise
        monkeypatch.setattr(channel, "mi_scalar_noise", counting)
        assert channel.check_mi_convexity(rademacher, grid, quad64) == expected
        assert len(calls) == 1


class TestHighSnr:
    """The information's exponents differ by e_a - e_k, so its rounding grows
    like eps |e_a| |z|, about eps sqrt(s), not like eps s."""

    @pytest.mark.parametrize("label", PRIORS)
    def test_scalar_against_exact_lse(self, request, label, quad64):
        prior = named_prior(request, label)
        entropy = -float(prior.weights @ np.log(prior.weights))
        for s in (1e6, 1e8, 1e10, 1e12, 1e14, 1e16):
            ours = channel.mi_scalar_signal(prior, s, quad64)
            assert abs(ours - mi_scalar_lse(prior, s, quad64)) <= 1e-15 * math.sqrt(s), s
            assert ours <= entropy + 1e-15 * math.sqrt(s), s
            assert abs(channel.mmse_scalar(prior, s, quad64)
                       - mmse_denoiser(prior, s, quad64)) <= 1e-12, s

    @pytest.mark.parametrize("M", [2, 3])
    @pytest.mark.parametrize("label", PRIORS)
    def test_vector_against_full_grid(self, request, label, M):
        prior = named_prior(request, label)
        quad = channel.gauss_hermite({2: 20, 3: 8}[M])
        R, _ = np.linalg.qr(np.random.default_rng(M).standard_normal((M, M)))
        ill = channel.psd_inv_sqrt((R * [1e-3, 0.5, 2.0][:M]) @ R.T)
        for scale in (1.0, 1e3, 1e5):
            gain = scale * ill
            assert abs(channel.mi_vector_signal(prior, gain, quad)
                       - full_grid_mi(prior, gain, quad)) <= 1e-15 * np.linalg.norm(gain, 2)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowed_distance_is_nan(self, quad64):
        """Atoms at +-1e200 put |e_a - e_k|^2 past the float range: NaN, never
        a value read off infinite exponents."""
        huge = make_prior([(-1e200, 0.5), (1e200, 0.5)])
        assert math.isnan(channel.mi_scalar_signal(huge, 1.0, quad64))
        assert math.isnan(channel.mmse_scalar(huge, 1.0, quad64))
        assert math.isnan(channel.mi_vector_signal(huge, np.eye(2), channel.gauss_hermite(8)))


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
        """A nonpositive level, alone or as the last point of a grid."""
        for t in (0.0, -1.0, [1.0, 2.0, 0.0], np.array([0.5, 2.0, -3.0])):
            with pytest.raises(ValueError, match="noise level t must be positive"):
                channel.mi_scalar_noise(rademacher, t, quad64)

    @pytest.mark.parametrize("func", [channel.mi_scalar_signal, channel.mmse_scalar])
    @pytest.mark.parametrize("s", [-1.0, [0.0, 2.0, -1e-3]])
    def test_rejects_negative_scale(self, rademacher, quad64, func, s):
        with pytest.raises(ValueError, match="signal scale s must be nonnegative"):
            func(rademacher, s, quad64)


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
        assert denoiser_scalar(sparse03, 0.0, 3.0) == 0.0

    def test_binary_is_tanh(self, rademacher):
        ys = np.linspace(-4, 4, 17)
        got = denoiser_scalar(rademacher, ys, 2.5)
        np.testing.assert_allclose(got, np.tanh(math.sqrt(2.5) * ys), atol=1e-14)

    def test_zero_snr_prior_mean(self, sparse03):
        for y in (-3.0, 0.7, 11.0):
            assert abs(denoiser_scalar(sparse03, y, 0.0)) <= 1e-15

    def test_extreme_observation_stable(self, sparse03):
        val = denoiser_scalar(sparse03, 500.0, 9.0)
        assert np.isfinite(val) and abs(val) <= 1.0


class TestVectorMi:
    @pytest.mark.parametrize("M", [2, 3])
    def test_diagonal_decouples(self, rademacher, quad24, M, rng):
        t = 0.5 + rng.random(M)
        vec = channel.mi_vector(rademacher, np.diag(t), quad24)
        scalar = sum(channel.mi_scalar_noise(rademacher, ti, quad24) for ti in t)
        assert isinstance(vec, float)
        assert abs(vec - scalar) <= 1e-8

    def test_isotropic_two_dim(self, sparse03, quad24):
        vec = channel.mi_vector(sparse03, 0.8 * np.eye(2), quad24)
        assert abs(vec - 2 * channel.mi_scalar_noise(sparse03, 0.8, quad24)) <= 1e-8

    @pytest.mark.parametrize("M", [2, 3])
    def test_trimming_direction(self, sparse03, quad24, M, rng):
        """Correlated noise carries at least the sum of per-coordinate rates."""
        for _ in range(20):
            sigma = random_psd(M, rng)
            vec = channel.mi_vector(sparse03, sigma, quad24)
            scalar = sum(channel.mi_scalar_noise(sparse03, t, quad24)
                         for t in sigma.diagonal())
            assert vec - scalar >= -1e-6

    def test_worst_trace_direction(self, rademacher, quad24, rng):
        for _ in range(20):
            sigma = random_psd(2, rng, diag_min=1.0)
            vec = channel.mi_vector(rademacher, sigma, quad24)
            ref = 2 * channel.mi_scalar_noise(rademacher, np.trace(sigma) / 2, quad24)
            assert vec - ref >= -1e-6

    def test_monte_carlo_against_diagonal(self, rademacher, quad24, rng):
        """The Monte Carlo oracle at M=4 (``oracles.mi_vector_mc``); diagonal
        covariance gives an exact scalar-sum oracle."""
        t = np.array([1.0, 1.5, 2.0, 2.5])
        vec, se = mi_vector_mc(rademacher, channel.psd_inv_sqrt(np.diag(t)), 200_000, rng)
        scalar = sum(channel.mi_scalar_noise(rademacher, ti, quad24) for ti in t)
        assert se > 0.0
        assert abs(vec - scalar) <= 4 * se

    def test_rejects_dimension_above_three(self, rademacher, quad24):
        with pytest.raises(ValueError, match="dimension must be 1..3"):
            channel.mi_vector(rademacher, np.eye(4), quad24)

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
        from wignerlab.priors import make_sparse_rademacher
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
