import numpy as np
import pytest

from oracles import full_grid_mi
from wignerlab import channel, make_prior, reduction, replica


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
            assert abs(channel.mi_vector(prior, sigma, quad24)[0]
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
        from wignerlab import make_sparse_rademacher
        (report,) = reduction.reduction_sweep(make_sparse_rademacher(0.5), 2, [4.0])
        assert report.gap <= 1e-3

    def test_scan_suprema_reused(self, rademacher, monkeypatch):
        """With 8 or more SNRs the phase scan's suprema fill the rows: one
        f1_sup call per SNR, and every row holds that call's own value."""
        f1_sup, calls = replica.f1_sup, []

        def counted(prior, lam, quad=None):
            calls.append(lam)
            return f1_sup(prior, lam, quad)
        monkeypatch.setattr(replica, "f1_sup", counted)
        monkeypatch.setattr(reduction, "f1_sup", counted)
        lams = np.linspace(0.5, 2.25, 8)
        reports = reduction.reduction_sweep(rademacher, 2, lams)
        assert len(calls) == 8
        for r, lam in zip(reports, lams.tolist()):
            assert r.f1_sup_value == f1_sup(rademacher, lam)[0]

    def test_rejects_large_rank(self, rademacher):
        with pytest.raises(ValueError):
            reduction.reduction_sweep(rademacher, 4, [1.0])
