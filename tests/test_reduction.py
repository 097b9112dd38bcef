import numpy as np
import pytest

from oracles import full_grid_mi, noise_batch_loop
from wignerlab import _budget, channel, reduction, replica
from wignerlab.priors import make_prior


class TestRandomCovariance:
    def test_positive_definite(self, rng):
        for M in (2, 3):
            for _ in range(25):
                sigma = reduction.random_psd(M, rng)
                assert np.linalg.eigvalsh(sigma).min() > 0

    def test_diagonal_floor(self, rng):
        for _ in range(25):
            sigma = reduction.random_psd(3, rng, diag_min=1.0)
            assert sigma.diagonal().min() >= 1.0


class TestTrimResidual:
    def test_diagonal_equality(self, rademacher, quad24, rng):
        for M in (2, 3):
            t = 0.5 + rng.random(M)
            res = reduction.diagonal_trim_residual(rademacher, np.diag(t), quad24)
            assert abs(res) <= 1e-8

    def test_correlated_direction(self, rademacher, quad24):
        sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert reduction.diagonal_trim_residual(rademacher, sigma, quad24) >= -1e-6

    def test_three_dim_random(self, rademacher, quad24, rng):
        for _ in range(10):
            sigma = reduction.random_psd(3, rng)
            assert reduction.diagonal_trim_residual(rademacher, sigma, quad24) >= -1e-6

    def test_one_scalar_call_per_suite(self, rademacher, quad24, monkeypatch):
        """The scalar informations of the diagonal come from one call, and a
        noise batch makes one scalar call over every diagonal entry and trace
        level and one vector call over every covariance of both suites."""
        calls = []

        def counting(prior, t, quad):
            calls.append(np.shape(t))
            return mi_scalar_noise(prior, t, quad)

        def counting_vector(prior, sigma, quad):
            calls.append(np.shape(sigma))
            return mi_vector(prior, sigma, quad)

        mi_scalar_noise, mi_vector = reduction.mi_scalar_noise, reduction.mi_vector
        monkeypatch.setattr(reduction, "mi_scalar_noise", counting)
        monkeypatch.setattr(reduction, "mi_vector", counting_vector)
        reduction.diagonal_trim_residual(rademacher, np.diag([0.5, 1.0, 2.0]), quad24)
        assert calls == [(3, 3), (3,)]
        calls.clear()
        reduction.noise_inequality_batch(rademacher, 3, 4, seed=1)
        assert calls == [(4, 2, 3, 3), (4 * 3 + 4,)]


class TestUnderflowSeeds:
    """Seeds whose covariance, with a smallest eigenvalue of 1e-3 to 3e-3,
    once gave an infinite trim residual: every product of some (x0, z) entries
    of the information's exp-matmul underflowed."""

    @pytest.mark.parametrize("label,M,seed,sample", [("rademacher", 3, 4, 21),
                                                     ("sparse03", 2, 31, 33),
                                                     ("sparse03", 2, 979246067, 33)])
    def test_finite_residuals(self, request, quad24, label, M, seed, sample):
        prior = request.getfixturevalue(label)
        trim, trace = reduction.noise_inequality_batch(prior, M, sample + 1, seed)
        assert np.all(np.isfinite(trim)) and np.all(np.isfinite(trace))
        assert min(trim.min(), trace.min()) >= -1e-6
        # the covariances of the last sample, drawn as the batch draws them
        rng = np.random.default_rng(seed)
        for _ in range(sample + 1):
            sigmas = (reduction.random_psd(M, rng),
                      reduction.random_psd(M, rng, diag_min=prior.support_bound**2))
        assert np.linalg.eigvalsh(sigmas[0]).min() < 3e-3
        for sigma in sigmas:
            gain = channel.psd_inv_sqrt(sigma)
            assert abs(channel.mi_vector(prior, sigma, quad24)
                       - full_grid_mi(prior, gain, quad24)) <= 1e-12


class TestLargestPasses:
    """``largest_passes`` names the largest Gibbs pass that the sweep and the
    noise checks run, so the CLI's size check reads what actually runs."""

    @pytest.mark.parametrize("label,M", [("rademacher", 2), ("asymmetric", 2),
                                         ("rademacher", 3)])
    def test_bounds_every_pass(self, request, monkeypatch, label, M):
        prior = (make_prior([(-1.0, 2.0 / 3.0), (2.0, 1.0 / 3.0)]) if label == "asymmetric"
                 else request.getfixturevalue(label))
        sizes = []

        def recording(exponents, rows, weights, z_weights):
            # per slice: rows x K_a x max(K_x, nodes)
            sizes.append(len(rows) * len(weights) * max(rows.shape[-1], len(z_weights)))
            return gibbs_pass(exponents, rows, weights, z_weights)

        gibbs_pass = channel.gibbs_pass
        monkeypatch.setattr(channel, "gibbs_pass", recording)
        monkeypatch.setattr(replica, "gibbs_pass", recording)
        reduction.reduction_sweep(prior, M, [0.5, 2.0])
        reduction.noise_inequality_batch(prior, M, 2, 0)

        def size(dim, order, blocks):
            k = prior.n_atoms ** dim
            nodes = (order**dim + 1) // 2 if prior.sign_symmetric else order**dim
            return blocks * k * max(k, nodes)

        listed = [size(*p) for p in reduction.largest_passes(M)]
        assert max(sizes) == max(listed)


class TestTraceResidual:
    def test_isotropic_equality(self, sparse03, quad24):
        res = reduction.trace_noise_residual(sparse03, 1.7 * np.eye(2), quad24)
        assert abs(res) <= 1e-8

    def test_random_direction(self, rademacher, quad24, rng):
        for _ in range(10):
            sigma = reduction.random_psd(2, rng, diag_min=1.0)
            assert reduction.trace_noise_residual(rademacher, sigma, quad24) >= -1e-6

    def test_rejects_diagonal_below_support_bound(self, rademacher, quad24):
        sigma = np.array([[0.5, 0.0], [0.0, 2.0]])
        with pytest.raises(ValueError, match="D\\^2"):
            reduction.trace_noise_residual(rademacher, sigma, quad24)


class TestBatch:
    def test_residual_suites(self, sparse03):
        trim, trace = reduction.noise_inequality_batch(sparse03, 2, 15, seed=5)
        assert trim.min() >= -1e-6
        assert trace.min() >= -1e-6

    def test_no_samples(self, sparse03):
        for residuals in reduction.noise_inequality_batch(sparse03, 2, 0, seed=5):
            assert residuals.shape == (0,)

    @pytest.mark.parametrize("label,M,n,seed", [("rademacher", 3, 20, 4), ("sparse03", 2, 30, 7),
                                                ("asymmetric", 2, 30, 11),
                                                ("rademacher", 3, 22, 4), ("sparse03", 2, 34, 31),
                                                ("sparse03", 2, 34, 979246067)])
    def test_matches_one_covariance_at_a_time(self, request, label, M, n, seed):
        """The stacked suites equal the per-sample loop, to the bit; the last
        three cases are the seeds of ``TestUnderflowSeeds``."""
        prior = (make_prior([(-1.0, 2.0 / 3.0), (2.0, 1.0 / 3.0)]) if label == "asymmetric"
                 else request.getfixturevalue(label))
        for got, ref in zip(reduction.noise_inequality_batch(prior, M, n, seed),
                            noise_batch_loop(prior, M, n, seed)):
            np.testing.assert_array_equal(got, ref)

    def test_stacked_residuals(self, rademacher, quad24, rng):
        """Both residuals take a stack of covariances, each residual as it is
        alone."""
        trims = np.array([reduction.random_psd(3, rng) for _ in range(5)])
        traces = np.array([reduction.random_psd(3, rng, diag_min=1.0) for _ in range(5)])
        np.testing.assert_array_equal(
            reduction.diagonal_trim_residual(rademacher, trims, quad24),
            [reduction.diagonal_trim_residual(rademacher, m, quad24) for m in trims])
        np.testing.assert_array_equal(
            reduction.trace_noise_residual(rademacher, traces, quad24),
            [reduction.trace_noise_residual(rademacher, m, quad24) for m in traces])

    @pytest.mark.parametrize("where", [0, 3])
    def test_rejects_a_bad_covariance_anywhere(self, rademacher, quad24, rng, where):
        """A non-symmetric, singular or (for the trace) low-diagonal covariance
        at any place of a stack, the last included, fails as it fails alone."""
        good = np.array([reduction.random_psd(2, rng, diag_min=1.0) for _ in range(4)])
        for bad, match in [([[1.0, 0.5], [0.4, 1.0]], "symmetric"),
                           ([[1.0, 1.0], [1.0, 1.0]], "singular"),
                           ([[0.5, 0.0], [0.0, 2.0]], "D\\^2")]:
            stack = good.copy()
            stack[where] = bad
            residuals = [reduction.trace_noise_residual]
            if match != "D\\^2":
                residuals.append(reduction.diagonal_trim_residual)
            for residual in residuals:
                with pytest.raises(ValueError, match=match):
                    residual(rademacher, stack, quad24)
                with pytest.raises(ValueError, match=match):
                    residual(rademacher, np.asarray(bad), quad24)

    def test_rejects_a_low_diagonal_in_the_trace_suite(self, rademacher, monkeypatch):
        """A trace-suite covariance whose diagonal falls below D^2, here the
        last one drawn, stops the batch."""
        draws, random_psd = [], reduction.random_psd

        def drawn(M, rng, diag_min=None, shift_scale=0.5):
            sigma = random_psd(M, rng, diag_min, shift_scale)
            draws.append(diag_min)
            if len(draws) == 8:
                sigma[1, 1] = 0.5
            return sigma
        monkeypatch.setattr(reduction, "random_psd", drawn)
        with pytest.raises(ValueError, match="D\\^2"):
            reduction.noise_inequality_batch(rademacher, 2, 4, seed=3)
        assert draws[-1] == 1.0

    def test_bounded_parts(self, sparse03, monkeypatch):
        """With parts of at most 2^10 elements per temporary, the suites give
        the same bits."""
        ref = reduction.noise_inequality_batch(sparse03, 2, 12, seed=2)
        monkeypatch.setattr(_budget, "BATCH", 1 << 10)
        for got, want in zip(reduction.noise_inequality_batch(sparse03, 2, 12, seed=2), ref):
            np.testing.assert_array_equal(got, want)


class TestReductionSweep:
    def test_zero_snr_gap(self, rademacher):
        (report,) = reduction.reduction_sweep(rademacher, 2, [0.0])
        assert report.gap == 0.0
        assert report.passes["gap"]

    def test_binary_two_dim(self, rademacher):
        reports = reduction.reduction_sweep(rademacher, 2, [0.5, 2.0])
        for r in reports:
            assert r.gap <= 1e-3, (r.lam, r.gap)
            assert r.passes["isotropy"]

    def test_sparse_half(self):
        from wignerlab.priors import make_sparse_rademacher
        (report,) = reduction.reduction_sweep(make_sparse_rademacher(0.5), 2, [4.0])
        assert report.gap <= 1e-3

    def test_scan_suprema_reused(self, rademacher, monkeypatch):
        """With 8 or more SNRs the phase scan's suprema fill the rows: one
        rank-one ascent start per SNR, and every row holds the value f1_sup
        gives at its SNR."""
        ascend, starts = replica._ascend, []

        def counted(ws, lam, stack, rho, tol):
            if ws.M == 1:
                starts.extend(stack)
            return ascend(ws, lam, stack, rho, tol)
        monkeypatch.setattr(replica, "_ascend", counted)
        lams = np.linspace(0.5, 2.25, 8)
        reports = reduction.reduction_sweep(rademacher, 2, lams)
        assert len(starts) == 8
        for r, lam in zip(reports, lams.tolist()):
            assert r.f1_sup_value == replica.f1_sup(rademacher, lam)[0]

    def test_rejects_large_rank(self, rademacher):
        with pytest.raises(ValueError):
            reduction.reduction_sweep(rademacher, 4, [1.0])
