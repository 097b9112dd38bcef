"""Batch verification of the information inequalities behind the rank-one
reduction, and of the reduction itself.

Three checks, each returning a signed residual that must be >= -tol:

* ``diagonal_trim_residual``: replacing the noise covariance by its diagonal
  cannot increase the vector-channel information,
  I(x0; x0 + Sigma^(1/2) z) - sum_i I(x0; x0 + sqrt(Sigma_ii) z) >= 0,
  with equality for diagonal Sigma.
* ``trace_noise_residual``: among covariances with fixed trace and diagonal
  entries >= D^2, the isotropic one is the worst,
  I(x0; x0 + Sigma^(1/2) z) - M I(x0; x0 + sqrt(tr Sigma / M) z) >= 0,
  with equality at Sigma = sigma I.
* ``reduction_sweep``: the supremum of the rank-M potential coincides with the
  scalar one, and its maximizer is (away from the critical SNR) isotropic.

The two residuals take a covariance or a stack of them.  A suite of
``noise_inequality_batch`` draws all its covariances first, in the order a
sample-by-sample loop draws them, then makes one ``mi_vector`` call over every
covariance and one ``mi_scalar_noise`` call over every diagonal entry and
trace level; each residual is the one its covariance gives alone, to the bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import DEFAULT_ORDER, GaussQuadrature, gauss_hermite, mi_scalar_noise, mi_vector
from .priors import Prior
from .replica import SUP_POLISH_ORDER, f1_sup, fm_sup, phase_scan

__all__ = [
    "ReductionReport",
    "random_psd",
    "diagonal_trim_residual",
    "trace_noise_residual",
    "noise_inequality_batch",
    "reduction_sweep",
    "largest_passes",
]

GAP_TOL = 1e-3
ISOTROPY_TOL = 1e-2
NOISE_ORDER = 24    # the rule of the noise checks


@dataclass
class ReductionReport:
    """Per-SNR comparison of the rank-M and scalar suprema."""

    prior_label: str
    M: int
    lam: float
    fm_sup_value: float
    f1_sup_value: float
    gap: float
    maximizer_isotropy: float     # |Q* - q* I|_F
    near_critical: bool = False   # inside the detected jump cell
    passes: dict = field(default_factory=dict)


def random_psd(M: int, rng: np.random.Generator, diag_min: float | None = None,
               shift_scale: float = 0.5) -> np.ndarray:
    """Random PSD covariance A A'/M plus a diagonal shift.

    With ``diag_min`` the diagonal is raised above that level (plus a random
    margin), as the trace-average comparison requires.
    """
    A = rng.standard_normal((M, M))
    sigma = A @ A.T / M
    sigma += (shift_scale * rng.random() + 1e-3) * np.eye(M)
    if diag_min is not None:
        lift = diag_min - sigma.diagonal().min()
        sigma += (max(lift, 0.0) + rng.random()) * np.eye(M)
    return sigma


def _trim(info, diagonal_info):
    """The trim residuals: each information less its coordinates' scalar
    informations (..., M), summed in coordinate order as Python's ``sum``
    would (NumPy's pairwise order can differ in the last ulp)."""
    return info - np.cumsum(diagonal_info, axis=-1)[..., -1]


def _trace_levels(prior: Prior, mat):
    """The trace-average noise levels tr Sigma / M of a stack of covariances
    (..., M, M), each of whose diagonal entries must be >= D^2."""
    if mat.diagonal(axis1=-2, axis2=-1).min() < prior.support_bound**2 - 1e-12:
        raise ValueError("trace-average comparison needs diagonal entries >= D^2 "
                         "(the scalar information is only convex there)")
    return np.trace(mat, axis1=-2, axis2=-1) / mat.shape[-1]


def diagonal_trim_residual(prior: Prior, sigma, quad: GaussQuadrature):
    """mi_vector(Sigma) minus the sum of per-coordinate scalar informations,
    for a covariance or a stack (..., M, M) of them, from one ``mi_vector``
    and one ``mi_scalar_noise`` call."""
    mat = np.asarray(sigma, dtype=float)
    return _trim(mi_vector(prior, mat, quad),
                 mi_scalar_noise(prior, mat.diagonal(axis1=-2, axis2=-1), quad))


def trace_noise_residual(prior: Prior, sigma, quad: GaussQuadrature):
    """mi_vector(Sigma) minus M times the scalar information at the
    trace-average noise level, for a covariance or a stack (..., M, M) of
    them; requires every diagonal entry >= D^2."""
    mat = np.asarray(sigma, dtype=float)
    levels = _trace_levels(prior, mat)
    return mi_vector(prior, mat, quad) - mat.shape[-1] * mi_scalar_noise(prior, levels, quad)


def noise_inequality_batch(prior: Prior, M: int, n_samples: int, seed: int):
    """Residual suites over random covariances.

    Returns (trim residuals, trace residuals) as arrays of length n_samples;
    the trace suite draws its own covariances with diagonal >= D^2.  Each
    sample draws its trim covariance, then its trace one; the suites then
    make one ``mi_vector`` call over every covariance and one
    ``mi_scalar_noise`` call over every diagonal entry and trace level.
    """
    if not n_samples:
        return np.empty(0), np.empty(0)
    quad = gauss_hermite(NOISE_ORDER)
    rng = np.random.default_rng(seed)
    d_sq = prior.support_bound**2
    sigmas = np.array([(random_psd(M, rng), random_psd(M, rng, diag_min=d_sq))
                       for _ in range(n_samples)]).reshape(n_samples, 2, M, M)
    levels = np.concatenate([sigmas[:, 0].diagonal(axis1=-2, axis2=-1).ravel(),
                             _trace_levels(prior, sigmas[:, 1])])
    info = mi_vector(prior, sigmas, quad)
    scalar = mi_scalar_noise(prior, levels, quad)
    return (_trim(info[:, 0], scalar[:n_samples * M].reshape(n_samples, M)),
            info[:, 1] - M * scalar[n_samples * M:])


def reduction_sweep(prior: Prior, M: int, lambda_grid) -> list[ReductionReport]:
    """Compare sup FM against sup F1 across an SNR grid.

    The isotropy distance |Q* - q* I|_F is reported for every row but only
    gated outside the detected critical cell, where the maximizer may be
    non-unique.
    """
    if M not in (2, 3):
        raise ValueError("the reduction sweep covers M in {2, 3}")
    lams = np.asarray(lambda_grid, dtype=float)
    if lams.size >= 8:          # the scan's suprema serve the rows too
        scan = phase_scan(prior, lams)
        jump_cell, f1 = scan.jump_cell, zip(scan.value.tolist(), scan.q_star.tolist())
    else:
        jump_cell, f1 = None, (f1_sup(prior, float(lam)) for lam in lams)
    reports = []
    for lam, (f1_value, q_star) in zip(lams, f1):
        fm_value, Q_star = fm_sup(prior, M, float(lam))
        gap = abs(fm_value - f1_value)
        iso = float(np.linalg.norm(Q_star - q_star * np.eye(M), "fro"))
        near_c = bool(jump_cell is not None
                      and jump_cell[0] <= lam <= jump_cell[1])
        reports.append(ReductionReport(
            prior_label=prior.label, M=M, lam=float(lam),
            fm_sup_value=fm_value, f1_sup_value=f1_value, gap=gap,
            maximizer_isotropy=iso, near_critical=near_c,
            passes={
                "gap": gap <= GAP_TOL,
                "isotropy": near_c or iso <= ISOTROPY_TOL,
            },
        ))
    return reports


def largest_passes(M: int) -> list[tuple[int, int, int]]:
    """(dimension, order, row blocks) of the largest Gibbs passes that
    ``reduction_sweep`` and ``noise_inequality_batch`` run at rank M."""
    return [(1, DEFAULT_ORDER[1], 2), (M, DEFAULT_ORDER[M], M + 1),
            (M, SUP_POLISH_ORDER[M], 1), (M, NOISE_ORDER, 1)]
