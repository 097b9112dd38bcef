import numpy as np
import pytest

from wignerlab import reduction, replica


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
