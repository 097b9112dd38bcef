"""Reference implementations that the tests compare the package against.

These are the kernels that ``channel.gibbs_pass`` replaced, kept as written:
a stabilized exp-matmul with its own underflow guard, the scalar information
as a logsumexp over a k x k x n array, the vector information through one
exp-matmul per input configuration, and the MMSE through the explicit
posterior-mean denoiser; and the vector information by a direct logsumexp
over every mixture component on the full tensor grid.
"""

import numpy as np
from scipy.special import logsumexp

from wignerlab import channel

_TINY = np.finfo(float).tiny


def logsumexp_matmul(A, B):
    """Stable ln(exp(A) @ exp(B)) for A (..., p, q) and B (..., q, r), with
    leading batch axes broadcast as in ``@``.

    Row maxima of A and column maxima of B are factored out so the matrix
    product runs on values in (0, 1].  Where a row maximum and a column
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
    out[lost] = channel._logsumexp(rows[lost] + cols[lost], axis=-1)
    return out


def denoiser_scalar(prior, y, s):
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


def _clamp(value):
    return max(value, 0.0) if value > -1e-12 else value


def mi_scalar_lse(prior, s, quad):
    """I(x0; sqrt(s) x0 + z): ln p(y|x0)/p(y) with the atom mixture for p(y),
    one logsumexp over a k x k x n array on the full rule."""
    v = prior.values
    logw = np.log(prior.weights)
    z = quad.nodes
    # arg[a, i, n] = (s v_a + sqrt(s) z_n)(v_i - v_a) - s (v_i^2 - v_a^2)/2
    d = v[None, :] - v[:, None]
    drift = s * v[:, None, None] + np.sqrt(s) * z[None, None, :]
    arg = drift * d[:, :, None] - 0.5 * s * (v[None, :, None] ** 2 - v[:, None, None] ** 2)
    lse = channel._logsumexp(arg + logw[None, :, None], axis=1)
    return _clamp(-float(prior.weights @ (lse @ quad.weights)))


def mi_vector_lse(prior, gain, quad):
    """I(x0; G x0 + z): -ln sum_k W_k exp(e_k' z - |e_k|^2/2), e_k = G(v_k - x0),
    through one ``logsumexp_matmul`` over every (x0, z) pair."""
    gain = np.asarray(gain, dtype=float)
    M = len(gain)
    values, logw = channel.atom_grid(prior, M)
    z_nodes, z_w = channel.tensor_nodes(quad, M, halved=prior.sign_symmetric)
    E = values @ gain.T
    Ez = E @ z_nodes.T
    half_norms = 0.5 * np.sum(E * E, axis=1)[:, None]
    lse = logsumexp_matmul(E @ E.T, Ez - half_norms + logw[:, None])
    integrand = lse - (Ez + half_norms)
    return _clamp(-float(np.exp(logw) @ (integrand @ z_w)))


def mmse_denoiser(prior, s, quad):
    """E (x0 - E[x0|y])^2 through ``denoiser_scalar`` on the full rule."""
    v = prior.values
    y = np.sqrt(s) * v[:, None] + quad.nodes[None, :]
    m = denoiser_scalar(prior, y.ravel(), s).reshape(y.shape)
    return float(prior.weights @ ((v[:, None] - m) ** 2 @ quad.weights))


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
