"""Mutual information, MMSE and posterior means for Gaussian channels with
discrete inputs.

Two parametrizations are used throughout, related by s = 1/t:

* signal-scaled:  y = sqrt(s) x0 + z          (``mi_scalar_signal``)
* noise-scaled:   y = x0 + sqrt(t) z          (``mi_scalar_noise``)

and their M-dimensional analogues with product input P_X^(x)M:

* signal-scaled:  y = S x0 + z, S symmetric PSD   (``mi_vector_signal``)
* noise-scaled:   y = x0 + Sigma^(1/2) z          (``mi_vector``)

All expectations over the input are exact atom sums; expectations over the
Gaussian use NumPy's Gauss-Hermite_e rule, tensorized up to dimension 3, the
largest dimension the channel takes.  Likelihood ratios are always formed in
log space.  One ``gibbs_pass``, the only guarded exp-GEMM, integrates every
Gibbs measure sum_x W_x exp(x' G y - |G x|^2/2) on a grid: the information,
the MMSE, and ln Z and the moments of ``replica``'s rank-M workspace.  The
information and the MMSE take a stack of gains or a grid of scales and run
it in parts of at most ``_budget.BATCH`` elements per temporary, the bound
every stacked pass of the package keeps, each value as it would be alone.

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

from ._budget import batched, parts
from .priors import Prior

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
# Gauss-Hermite nodes per axis of a potential's default rule, by dimension M
DEFAULT_ORDER = {1: 64, 2: 20, 3: 14}


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


def _channel_pass(prior, gains, quad, rows, value):
    """One ``gibbs_pass`` of y = G x0 + z per gain G of the stack (..., d, d),
    at x0 = v_a, e_k = G v_k, on A[k, n] = e_k' z_n and B[a, k] = ln W_k -
    |e_a - e_k|^2 / 2.  ``value(info, mean_x, z_w)`` maps a part's
    informations E[e_a' z] - E ln Z (rounded to about eps |e_a| |z|), the means
    (part, R-1, K, Nz) of ``rows`` and the node weights to one value per gain:
    a float for one gain, an array in the stack's shape otherwise.  A distance
    past the float range makes B NaN."""
    d = gains.shape[-1]
    stack = gains.reshape(-1, d, d)
    values, logw = atom_grid(prior, d)                          # (K, d), (K,)
    z_nodes, z_w = tensor_nodes(quad, d, halved=prior.sign_symmetric)
    weights = np.exp(logw)
    z_mean = z_w @ z_nodes

    def run(part):
        E = values @ stack[part].swapaxes(-1, -2)               # rows: G v_k
        D = E[:, :, None, :] - E[:, None, :, :]                 # e_a - e_k
        B = logw - 0.5 * (D * D).sum(axis=-1)
        B[~np.isfinite(B)] = np.nan
        ln_z, mean_x = gibbs_pass(lambda: (E @ z_nodes.T, B.copy()), rows, weights, z_w)
        own = ((E @ z_mean)[:, None, :] @ weights)[:, 0]       # per gain the dot of one gain
        return value(own - ln_z, mean_x, z_w)

    K = len(weights)
    out = batched(run, parts(len(stack), max(len(rows), d) * K * max(K, len(z_w))))
    return float(out[0]) if gains.ndim == 2 else out.reshape(gains.shape[:-2])


def _scalar_gains(s):
    """The 1 x 1 gains sqrt(s) of a signal scale s or of a grid of them."""
    s = np.asarray(s, dtype=float)
    if (s < 0).any():
        raise ValueError("signal scale s must be nonnegative")
    return np.sqrt(s)[..., None, None]


def mi_scalar_signal(prior: Prior, s, quad: GaussQuadrature):
    """I(x0; sqrt(s) x0 + z) in nats: ``mi_vector_signal`` at the 1 x 1 gain.
    A float for a scale s, an array for a 1-d grid of them."""
    return mi_vector_signal(prior, _scalar_gains(s), quad)


def mi_scalar_noise(prior: Prior, t, quad: GaussQuadrature):
    """I(x0; x0 + sqrt(t) z); identical to the signal-scaled form at s = 1/t.
    A float for a level t, an array for a 1-d grid of them."""
    t = np.asarray(t, dtype=float)
    if (t <= 0).any():
        raise ValueError("noise level t must be positive (use the signal-scaled "
                         "form for the zero-noise limit)")
    return mi_scalar_signal(prior, 1.0 / t, quad)


def mmse_scalar(prior: Prior, s, quad: GaussQuadrature):
    """E (x0 - E[x0|y])^2 for y = sqrt(s) x0 + z; lies in [0, rho].  A float
    for a scale s, an array for a 1-d grid of them.  The posterior mean is
    the x row of the dimension-1 channel pass; the squared error is unchanged
    by (x0, z) -> (-x0, -z), so the grid may be halved."""
    v = prior.values

    def mmse(info, mean_x, z_w):
        return (((v[:, None] - mean_x[:, 0]) ** 2 @ z_w)[:, None, :] @ prior.weights)[:, 0]

    return _channel_pass(prior, _scalar_gains(s), quad,
                         np.stack([np.ones_like(v), v])[:, None, :], mmse)


def psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Symmetric square root of each matrix of a stack (..., M, M);
    eigenvalues in [-1e-10, 0) are clipped to 0."""
    eigval, eigvec = np.linalg.eigh(mat)
    if eigval.min() < _PSD_EIG_FLOOR:
        raise ValueError("matrix is not positive semidefinite")
    eigval = np.clip(eigval, 0.0, None)
    return (eigvec * np.sqrt(eigval)[..., None, :]) @ eigvec.swapaxes(-1, -2)


def psd_inv_sqrt(mat: np.ndarray) -> np.ndarray:
    """Symmetric inverse square root of each positive definite matrix of a
    stack (..., M, M), each as it would be alone."""
    eigval, eigvec = np.linalg.eigh(mat)
    if eigval.min() < _PSD_EIG_FLOOR:
        raise ValueError("matrix is not positive semidefinite")
    if np.any(eigval.min(axis=-1) <= 1e-12 * np.maximum(eigval.max(axis=-1), 1.0)):
        raise ValueError("matrix is numerically singular; the noise-scaled "
                         "channel needs an invertible covariance")
    return (eigvec / np.sqrt(eigval)[..., None, :]) @ eigvec.swapaxes(-1, -2)


def mi_vector_signal(prior: Prior, gain, quad: GaussQuadrature):
    """I(x0; G x0 + z) for a symmetric PSD gain G of dimension 1..3, via
    tensorized quadrature; a float for one gain, an array over the leading
    axes of a stack (..., d, d) of them.

    Works for any PSD gain including singular ones.  The log likelihood
    ratio is integrated over (x0, z) by one ``gibbs_pass`` (``_channel_pass``),
    on exponents built from the gain alone.  For a sign-symmetric prior the
    ratio at (-x0, -z) equals the one at (x0, z), so the grid may be halved.
    """
    gain = np.asarray(gain, dtype=float)
    if gain.ndim < 2 or gain.shape[-1] != gain.shape[-2] or not 1 <= gain.shape[-1] <= 3:
        raise ValueError(f"gain must be a square matrix of dimension 1..3, "
                         f"got shape {gain.shape}")

    def clamped(info, mean_x, z_w):     # within 1e-12 below zero is rounding
        info[(info > -1e-12) & (info < 0.0)] = 0.0
        return info

    ones = np.ones((1, 1, prior.n_atoms ** gain.shape[-1]))
    return _channel_pass(prior, gain, quad, ones, clamped)


def mi_vector(prior: Prior, sigma, quad: GaussQuadrature):
    """I(x0; x0 + Sigma^(1/2) z) with product input, for a covariance of
    dimension 1..3: ``mi_vector_signal`` at the gain Sigma^(-1/2), on
    tensorized quadrature.  Requires invertible covariances; a float for one
    covariance, an array over the leading axes of a stack (..., M, M).
    """
    mat = np.asarray(sigma, dtype=float)
    if mat.ndim < 2 or mat.shape[-2] != mat.shape[-1]:
        raise ValueError("covariance shape does not match its dimension")
    M = mat.shape[-1]
    if M > 3:
        raise ValueError(f"covariance dimension must be 1..3, got {M}")
    if np.max(np.abs(mat - mat.swapaxes(-1, -2))) > 1e-12:
        raise ValueError("covariance must be symmetric")
    if prior.n_atoms ** M > 1 << 20:
        raise ValueError("atom mixture k^M exceeds the 2^20 budget")
    return mi_vector_signal(prior, psd_inv_sqrt(mat), quad)


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
    vals = mi_scalar_noise(prior, t, quad)
    second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
    return float(second.min())
