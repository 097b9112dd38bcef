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

from .priors import Prior

__all__ = [
    "GaussQuadrature",
    "NoiseCovariance",
    "gauss_hermite",
    "tensor_nodes",
    "atom_grid",
    "logsumexp_matmul",
    "mi_scalar_signal",
    "mi_scalar_noise",
    "mmse_scalar",
    "denoiser_scalar",
    "mi_vector_signal",
    "mi_vector",
    "check_mi_convexity",
    "psd_sqrt",
    "psd_inv_sqrt",
]

_PSD_EIG_FLOOR = -1e-10
_TINY = np.finfo(float).tiny      # exp-matmul entries below this lost their precision


@dataclass(frozen=True)
class GaussQuadrature:
    """Nodes/weights for expectations of f(z) with z ~ N(0, 1)."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int
    # tensor grids of this rule, by (dim, halved); see ``tensor_nodes``
    _grids: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def symmetric(self) -> bool:
        """Whether z -> -z maps the rule to itself, node for node."""
        return bool(np.array_equal(self.nodes, -self.nodes[::-1])
                    and np.array_equal(self.weights, self.weights[::-1]))

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


@dataclass(frozen=True)
class NoiseCovariance:
    """Symmetric PSD noise covariance of an M-dimensional Gaussian channel."""

    sigma: np.ndarray
    dimension: int

    def __post_init__(self):
        s = np.asarray(self.sigma, dtype=float)
        if s.shape != (self.dimension, self.dimension):
            raise ValueError("covariance shape does not match dimension")
        if np.max(np.abs(s - s.T)) > 1e-12:
            raise ValueError("covariance must be symmetric")
        if np.linalg.eigvalsh(s).min() < _PSD_EIG_FLOOR:
            raise ValueError("covariance must be positive semidefinite")
        s.setflags(write=False)
        object.__setattr__(self, "sigma", s)


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


def logsumexp_matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Stable ln(exp(A) @ exp(B)) for A (..., p, q) and B (..., q, r), with
    leading batch axes broadcast as in ``@``.

    Row maxima of A and column maxima of B are factored out so the matrix
    product runs on values in (0, 1]; this replaces a q-fold logsumexp per
    output entry with one BLAS product.  Where a row maximum and a column
    maximum sit at different inner indices every product can underflow; those
    entries alone are recomputed by a pairwise logsumexp.
    """
    a_max = A.max(axis=-1, keepdims=True)
    b_max = B.max(axis=-2, keepdims=True)
    inner = np.exp(A - a_max) @ np.exp(B - b_max)
    if inner.min() >= _TINY:
        return a_max + b_max + np.log(inner)
    lost = inner < _TINY
    inner[lost] = 1.0
    out = a_max + b_max + np.log(inner)
    rows, cols = np.broadcast_arrays(A[..., :, None, :], B.swapaxes(-1, -2)[..., None, :, :])
    out[lost] = _logsumexp(rows[lost] + cols[lost], axis=-1)
    return out


def mi_scalar_signal(prior: Prior, s: float, quad: GaussQuadrature) -> float:
    """I(x0; sqrt(s) x0 + z) in nats.

    Averages the log likelihood ratio ln p(y|x0)/p(y) with the exact atom
    mixture for p(y); expectation over x0 is an atom sum, over z quadrature.
    """
    if s < 0:
        raise ValueError("signal scale s must be nonnegative")
    v = prior.values
    logw = np.log(prior.weights)
    z = quad.nodes
    # arg[a, i, n] = (s v_a + sqrt(s) z_n)(v_i - v_a) - s (v_i^2 - v_a^2)/2
    d = v[None, :] - v[:, None]
    drift = s * v[:, None, None] + np.sqrt(s) * z[None, None, :]
    arg = drift * d[:, :, None] - 0.5 * s * (v[None, :, None] ** 2 - v[:, None, None] ** 2)
    lse = _logsumexp(arg + logw[None, :, None], axis=1)
    value = -float(prior.weights @ (lse @ quad.weights))
    return max(value, 0.0) if value > -1e-12 else value


def mi_scalar_noise(prior: Prior, t: float, quad: GaussQuadrature) -> float:
    """I(x0; x0 + sqrt(t) z); identical to the signal-scaled form at s = 1/t."""
    if t <= 0:
        raise ValueError("noise level t must be positive (use the signal-scaled "
                         "form for the zero-noise limit)")
    return mi_scalar_signal(prior, 1.0 / t, quad)


def denoiser_scalar(prior: Prior, y, s: float):
    """Posterior mean E[x0 | sqrt(s) x0 + z = y]; accepts scalar or array y."""
    if s < 0:
        raise ValueError("signal scale s must be nonnegative")
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    v = prior.values
    logp = np.log(prior.weights)[None, :] + np.sqrt(s) * y_arr[:, None] * v[None, :] \
        - 0.5 * s * v[None, :] ** 2
    logp -= logp.max(axis=1, keepdims=True)
    p = np.exp(logp)
    m = (p @ v) / p.sum(axis=1)
    return float(m[0]) if np.isscalar(y) or np.asarray(y).ndim == 0 else m


def mmse_scalar(prior: Prior, s: float, quad: GaussQuadrature) -> float:
    """E (x0 - E[x0|y])^2 for y = sqrt(s) x0 + z; lies in [0, rho]."""
    if s < 0:
        raise ValueError("signal scale s must be nonnegative")
    v = prior.values
    y = np.sqrt(s) * v[:, None] + quad.nodes[None, :]          # (k, n)
    m = denoiser_scalar(prior, y.ravel(), s).reshape(y.shape)
    err = (v[:, None] - m) ** 2
    return float(prior.weights @ (err @ quad.weights))


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

    Works for any PSD gain including singular ones.  The log likelihood ratio
    reduces to -ln sum_k W_k exp(e_k' z - |e_k|^2/2) with e_k = G(v_k - x0),
    which is evaluated for all (x0, z) pairs through one stabilized
    exp-matmul per input configuration.  For a sign-symmetric prior the ratio
    at (-x0, -z) equals the one at (x0, z), so the grid may be halved.
    """
    gain = np.asarray(gain, dtype=float)
    if gain.ndim != 2 or gain.shape[0] != gain.shape[1] or not 1 <= len(gain) <= 3:
        raise ValueError(f"gain must be a square matrix of dimension 1..3, "
                         f"got shape {gain.shape}")
    M = len(gain)
    values, logw = atom_grid(prior, M)            # (K, M), (K,)
    z_nodes, z_w = tensor_nodes(quad, M, halved=prior.sign_symmetric)
    E = values @ gain.T                           # rows: G v_k
    Ez = E @ z_nodes.T                            # (G v_k)' z_n
    half_norms = 0.5 * np.sum(E * E, axis=1)[:, None]
    # G[k, n] = (G v_k)' z_n - |G v_k|^2 / 2 + ln W_k   (x0-independent part)
    G_part = Ez - half_norms + logw[:, None]
    # cross term between mixture component k and input configuration a
    C = E @ E.T                                   # (K, K)
    lse = logsumexp_matmul(C, G_part)             # (K_a, Nz): row a fixes x0
    own = Ez + half_norms
    integrand = lse - own                         # ln p(y)/p(y|x0) at (a, n)
    value = -float(np.exp(logw) @ (integrand @ z_w))
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
        x0 = prior.values[rng.choice(prior.n_atoms, size=(b, M), p=prior.weights)]
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
    if isinstance(sigma, NoiseCovariance):
        mat, M = sigma.sigma, sigma.dimension
    else:
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
