"""Mutual information, MMSE and posterior means for Gaussian channels with
discrete inputs.

Two parametrizations are used throughout, related by s = 1/t:

* signal-scaled:  y = sqrt(s) x0 + z          (``mi_scalar_signal``)
* noise-scaled:   y = x0 + sqrt(t) z          (``mi_scalar_noise``)

and their M-dimensional analogues with product input P_X^(x)M:

* signal-scaled:  y = S x0 + z, S symmetric PSD   (``mi_vector_signal``)
* noise-scaled:   y = x0 + Sigma^(1/2) z          (``mi_vector``)

All expectations over the input are exact atom sums; expectations over the
Gaussian use NumPy's Gauss-Hermite_e rule (tensorized up to dimension 3) or
Monte Carlo above that.  Likelihood ratios are always formed in log space.
One ``gibbs_pass``, the only guarded exp-GEMM, integrates every Gibbs measure
sum_x W_x exp(x' G y - |G x|^2/2) on a grid: the information up to dimension 3,
the MMSE, and ln Z and the moments of ``replica``'s rank-M workspace.

Tensor grids are built once per (rule, dimension, halved) and kept on the rule.
When the prior is sign-symmetric and the rule is symmetric (nodes = -nodes
reversed, palindromic weights; every ``gauss_hermite`` rule is), the integrand
at (-x0, -z) equals the one at (x0, z), so after the exact sum over x0 it is an
even function of z.  The halved grid then keeps each tensor node whose first
nonzero coordinate is positive, with doubled weight (the all-zero node of an
odd order keeps its weight): about half the nodes, the same quadrature sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .priors import Prior, quantile

__all__ = [
    "GaussQuadrature",
    "gauss_hermite",
    "tensor_nodes",
    "atom_grid",
    "gibbs_pass",
    "mi_scalar_signal",
    "mi_scalar_noise",
    "mmse_scalar",
    "mi_vector_signal",
    "mi_vector",
    "check_mi_convexity",
    "psd_sqrt",
    "psd_inv_sqrt",
]

_PSD_EIG_FLOOR = -1e-10
_TINY = np.finfo(float).tiny      # exp-GEMM entries below this lost their precision


@dataclass(frozen=True)
class GaussQuadrature:
    """Nodes/weights for expectations of f(z) with z ~ N(0, 1)."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int
    symmetric: bool = field(init=False, repr=False, compare=False)  # z -> -z maps it to itself
    # tensor grids of this rule, by (dim, halved); see ``tensor_nodes``
    _grids: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        n = np.asarray(self.nodes, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if np.any(w <= 0):
            raise ValueError("quadrature weights must be positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("quadrature weights must sum to 1")
        if self.order > 1 and abs(w @ n**2 - 1.0) > 1e-10:
            raise ValueError("quadrature must integrate z^2 to 1")
        n.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "nodes", n)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "symmetric", bool(np.array_equal(n, -n[::-1])
                                                   and np.array_equal(w, w[::-1])))


@lru_cache(maxsize=32)
def gauss_hermite(order: int) -> GaussQuadrature:
    """Gauss-Hermite rule for the unit-variance Gaussian weight.

    NumPy's rule for the probabilists' Hermite polynomials (``hermegauss``,
    weight exp(-z^2/2)), with the nodes symmetrized so that odd moments
    vanish identically and the weights normalized to sum to 1.
    """
    if not 1 <= order <= 256:
        raise ValueError(f"order must be in [1, 256], got {order}")
    nodes, weights = hermegauss(order)
    nodes = (nodes - nodes[::-1]) / 2.0
    weights = (weights + weights[::-1]) / 2.0
    return GaussQuadrature(nodes=nodes, weights=weights / weights.sum(), order=order)


def tensor_nodes(quad: GaussQuadrature, dim: int, halved: bool = False):
    """Tensorized grid: nodes (order^dim, dim) and product weights (order^dim,),
    built once per (rule, dim, halved) and returned read-only.  ``halved``
    allows one node of each +- pair, with doubled weight, for an integrand even
    in z; a rule that is not ``symmetric`` keeps the full grid."""
    key = (dim, halved and quad.symmetric)
    if key not in quad._grids:
        grids = np.meshgrid(*([quad.nodes] * dim), indexing="ij")
        nodes = np.stack([g.ravel() for g in grids], axis=1)
        wgrids = np.meshgrid(*([quad.weights] * dim), indexing="ij")
        weights = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)
        if key[1]:
            # the grid is lexicographic in ascending nodes, so negation reverses
            # it: the upper half holds the nodes with a positive first nonzero
            # coordinate, preceded by the all-zero node when the order is odd
            start = len(weights) // 2
            nodes, weights = nodes[start:].copy(), 2.0 * weights[start:]
            if quad.order % 2:
                weights[0] /= 2.0
        nodes.setflags(write=False)
        weights.setflags(write=False)
        quad._grids[key] = nodes, weights
    return quad._grids[key]


def atom_grid(prior: Prior, dim: int):
    """All k^dim product-prior configurations: values (k^dim, dim), log-weights."""
    k = prior.n_atoms
    idx = np.indices((k,) * dim).reshape(dim, -1).T
    values = prior.values[idx]
    logw = np.log(prior.weights)[idx].sum(axis=1)
    return values, logw


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """ln sum exp(a) along ``axis``, with the maximum factored out."""
    top = a.max(axis=axis, keepdims=True)
    return np.log(np.exp(a - top).sum(axis=axis)) + np.squeeze(top, axis)


def gibbs_pass(exponents, rows, weights, z_weights):
    """E ln Z over (x0, z) for Z[a, n] = sum_x exp(A[x, n] + B[a, x]), and the
    Gibbs means (..., R-1, K_a, Nz) of the rows (R, 1, K_x) after the first
    (all ones), from one GEMM [EB; EB r_1; ...] @ EA per slice of a stack.

    ``exponents()`` returns fresh A (..., K_x, Nz) and B (..., K_a, K_x) with
    the same stack axes; they are overwritten, and built again only when an
    entry underflows.  ln Z is weighted by ``weights`` over a and ``z_weights``
    over n.  The column maxima of A and row maxima of B are summed outside the
    log, each slice's sums as its own vector products, so a value does not
    depend on its stack.  Entries whose every product underflows are recomputed
    pairwise.
    """
    A, B = exponents()
    a_max = A.max(axis=-2, keepdims=True)                   # (..., 1, Nz)
    b_max = B.max(axis=-1, keepdims=True)                   # (..., K_a, 1)
    A -= a_max
    B -= b_max
    stack = np.exp(B, out=B)[..., None, :, :] * rows        # (..., R, K_a, K_x)
    sums = stack.reshape(*stack.shape[:-3], -1, stack.shape[-1]) @ np.exp(A, out=A)
    sums = sums.reshape(*stack.shape[:-1], -1)              # (..., R, K_a, Nz)
    denom = sums[..., 0, :, :]
    lost = denom < _TINY
    denom[lost] = 1.0
    mean_x = sums[..., 1:, :, :] / denom[..., None, :, :]
    ln_denom = np.log(denom, out=denom)
    if lost.any():
        A, B = exponents()
        *at, a, n = np.nonzero(lost)
        arg = B[(*at, a)] + A.swapaxes(-1, -2)[(*at, n)]     # (lost, K_x)
        top = arg.max(axis=1, keepdims=True)
        p = np.exp(arg - top)
        total = p.sum(axis=1)
        ln_denom[lost] = top[:, 0] + np.log(total) - (b_max[(*at, a, 0)] + a_max[(*at, 0, n)])
        np.moveaxis(mean_x, -3, -1)[lost] = (p @ rows[1:, 0].T) / total[:, None]
    ln_s = ln_denom @ z_weights                             # (..., K_a)
    ln_z = (ln_s[..., None, :] @ weights + weights @ b_max + a_max @ z_weights)[..., 0]
    return ln_z, mean_x


def _channel_pass(prior, gain, quad, rows):
    """One ``gibbs_pass`` of y = G x0 + z at x0 = v_a, e_k = G v_k, on A[k, n] =
    e_k' z_n and B[a, k] = ln W_k - |e_a - e_k|^2 / 2: the information
    E[e_a' z] - E ln Z (rounded to about eps |e_a| |z|), the means of ``rows``
    and the node weights.  A distance past the float range makes B NaN."""
    values, logw = atom_grid(prior, len(gain))                  # (K, M), (K,)
    z_nodes, z_w = tensor_nodes(quad, len(gain), halved=prior.sign_symmetric)
    E = values @ gain.T                                         # rows: G v_k
    D = E[:, None, :] - E[None, :, :]                           # e_a - e_k
    B = logw - 0.5 * (D * D).sum(axis=2)
    B[~np.isfinite(B)] = np.nan
    weights = np.exp(logw)
    ln_z, mean_x = gibbs_pass(lambda: (E @ z_nodes.T, B.copy()), rows, weights, z_w)
    return weights @ (E @ (z_w @ z_nodes)) - ln_z, mean_x, z_w


def mi_scalar_signal(prior: Prior, s: float, quad: GaussQuadrature) -> float:
    """I(x0; sqrt(s) x0 + z) in nats: ``mi_vector_signal`` at the 1 x 1 gain."""
    if s < 0:
        raise ValueError("signal scale s must be nonnegative")
    return mi_vector_signal(prior, np.array([[np.sqrt(s)]]), quad)


def mi_scalar_noise(prior: Prior, t: float, quad: GaussQuadrature) -> float:
    """I(x0; x0 + sqrt(t) z); identical to the signal-scaled form at s = 1/t."""
    if t <= 0:
        raise ValueError("noise level t must be positive (use the signal-scaled "
                         "form for the zero-noise limit)")
    return mi_scalar_signal(prior, 1.0 / t, quad)


def mmse_scalar(prior: Prior, s: float, quad: GaussQuadrature) -> float:
    """E (x0 - E[x0|y])^2 for y = sqrt(s) x0 + z; lies in [0, rho].  The
    posterior mean is the x row of the dimension-1 channel pass; the squared
    error is unchanged by (x0, z) -> (-x0, -z), so the grid may be halved."""
    if s < 0:
        raise ValueError("signal scale s must be nonnegative")
    v = prior.values
    _, mean_x, z_w = _channel_pass(prior, np.array([[np.sqrt(s)]]), quad,
                                   np.stack([np.ones_like(v), v])[:, None, :])
    return float(prior.weights @ ((v[:, None] - mean_x[0]) ** 2 @ z_w))


def psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Symmetric square root; eigenvalues in [-1e-10, 0) are clipped to 0."""
    eigval, eigvec = np.linalg.eigh(mat)
    if eigval.min() < _PSD_EIG_FLOOR:
        raise ValueError("matrix is not positive semidefinite")
    eigval = np.clip(eigval, 0.0, None)
    return (eigvec * np.sqrt(eigval)) @ eigvec.T


def psd_inv_sqrt(mat: np.ndarray) -> np.ndarray:
    """Symmetric inverse square root of a positive definite matrix."""
    eigval, eigvec = np.linalg.eigh(mat)
    if eigval.min() < _PSD_EIG_FLOOR:
        raise ValueError("matrix is not positive semidefinite")
    if eigval.min() <= 1e-12 * max(eigval.max(), 1.0):
        raise ValueError("matrix is numerically singular; the noise-scaled "
                         "channel needs an invertible covariance")
    return (eigvec / np.sqrt(eigval)) @ eigvec.T


def mi_vector_signal(prior: Prior, gain: np.ndarray, quad: GaussQuadrature) -> float:
    """I(x0; G x0 + z) for a symmetric PSD gain G, via tensorized quadrature.

    Works for any PSD gain including singular ones.  The log likelihood
    ratio is integrated over (x0, z) by one ``gibbs_pass`` (``_channel_pass``),
    on exponents built from the gain alone.  For a sign-symmetric prior the
    ratio at (-x0, -z) equals the one at (x0, z), so the grid may be halved.
    """
    gain = np.asarray(gain, dtype=float)
    if gain.ndim != 2 or gain.shape[0] != gain.shape[1] or not 1 <= len(gain) <= 3:
        raise ValueError(f"gain must be a square matrix of dimension 1..3, "
                         f"got shape {gain.shape}")
    ones = np.ones((1, 1, prior.n_atoms ** len(gain)))
    value = float(_channel_pass(prior, gain, quad, ones)[0])
    return max(value, 0.0) if value > -1e-12 else value


def _mi_vector_mc(prior, inv_sqrt, n_samples, rng):
    """Monte Carlo over (x0, z) with the exact atom mixture for p(y)."""
    M = inv_sqrt.shape[0]
    values, logw = atom_grid(prior, M)
    E = values @ inv_sqrt.T                       # (K, M)
    half_norms = 0.5 * np.sum(E * E, axis=1)
    samples = []
    chunk = max(1, min(n_samples, (1 << 22) // max(E.shape[0], 1)))
    done = 0
    while done < n_samples:
        b = min(chunk, n_samples - done)
        x0 = quantile(prior, rng.random((b, M)))
        z = rng.standard_normal((b, M))
        U = x0 @ inv_sqrt.T                       # rows: S x0
        arg = (E @ z.T) + (E @ U.T) - half_norms[:, None] + logw[:, None]
        lse = _logsumexp(arg, axis=0)
        own = np.sum(U * z, axis=1) + 0.5 * np.sum(U * U, axis=1)
        samples.append(own - lse)
        done += b
    vals = np.concatenate(samples)
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(vals.size))


def mi_vector(prior: Prior, sigma, quad: GaussQuadrature, mc_budget: int = 200_000,
              rng: np.random.Generator | None = None):
    """I(x0; x0 + Sigma^(1/2) z) with product input.

    Dimension <= 3 uses tensorized quadrature and reports std_err = 0
    (quadrature-limited); above that a Monte Carlo estimate over (x0, z) with
    the exact k^M-atom mixture density is returned with its standard error.
    Requires an invertible covariance.
    """
    mat = np.asarray(sigma, dtype=float)
    M = mat.shape[0]
    if mat.shape != (M, M):
        raise ValueError("covariance shape does not match its dimension")
    if np.max(np.abs(mat - mat.T)) > 1e-12:
        raise ValueError("covariance must be symmetric")
    if prior.n_atoms ** M > 1 << 20:
        raise ValueError("atom mixture k^M exceeds the 2^20 budget")
    inv_sqrt = psd_inv_sqrt(mat)
    if M <= 3:
        return mi_vector_signal(prior, inv_sqrt, quad), 0.0
    if rng is None:
        raise ValueError("dimension > 3 needs an rng for the Monte Carlo path")
    return _mi_vector_mc(prior, inv_sqrt, int(mc_budget), rng)


def check_mi_convexity(prior: Prior, t_grid, quad: GaussQuadrature) -> float:
    """Minimum central second difference of t -> I(x0; x0 + sqrt(t) z).

    The grid must be uniform and stay in t >= D^2, where that map is convex.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.size < 3:
        raise ValueError("need at least 3 grid points")
    steps = np.diff(t)
    if np.any(steps <= 0):
        raise ValueError("grid must be strictly increasing")
    if np.max(np.abs(steps - steps[0])) > 1e-9 * max(steps[0], 1.0):
        raise ValueError("grid must be uniformly spaced")
    if t[0] < prior.support_bound**2 - 1e-12:
        raise ValueError("grid enters t < D^2 where convexity is not guaranteed")
    vals = np.array([mi_scalar_noise(prior, ti, quad) for ti in t])
    second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
    return float(second.min())
