"""Reference implementations that the tests compare the package against.

These are the kernels that ``channel.gibbs_pass`` replaced, kept as written:
a stabilized exp-matmul with its own underflow guard, the scalar information
as a logsumexp over a k x k x n array, the vector information through one
exp-matmul per input configuration, and the MMSE through the explicit
posterior-mean denoiser; the vector information by a direct logsumexp over
every mixture component on the full tensor grid; the channel pass at one gain,
as it ran before the channel took stacks; the Monte Carlo estimates of the
information and of the rank-M potential above dimension 3; the projected
gradient ascent from one start, as it ran before the ascents ran in lockstep;
and the noise-inequality suites with one channel call per covariance.
"""

import math

import numpy as np
from scipy.special import logsumexp

from wignerlab import channel, reduction, replica
from wignerlab.priors import quantile

_TINY = np.finfo(float).tiny


def _logsumexp(a, axis):
    """ln sum exp(a) along ``axis``, with the maximum factored out."""
    top = a.max(axis=axis, keepdims=True)
    return np.log(np.exp(a - top).sum(axis=axis)) + np.squeeze(top, axis)


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
    out[lost] = _logsumexp(rows[lost] + cols[lost], axis=-1)
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
    lse = _logsumexp(arg + logw[None, :, None], axis=1)
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


def channel_pass_point(prior, gain, quad, rows):
    """One ``channel.gibbs_pass`` of y = G x0 + z at one gain (d, d), at
    x0 = v_a, e_k = G v_k, on A[k, n] = e_k' z_n and B[a, k] = ln W_k -
    |e_a - e_k|^2 / 2: the information E[e_a' z] - E ln Z, the means of
    ``rows`` and the node weights."""
    values, logw = channel.atom_grid(prior, len(gain))
    z_nodes, z_w = channel.tensor_nodes(quad, len(gain), halved=prior.sign_symmetric)
    E = values @ gain.T
    D = E[:, None, :] - E[None, :, :]
    B = logw - 0.5 * (D * D).sum(axis=2)
    B[~np.isfinite(B)] = np.nan
    weights = np.exp(logw)
    ln_z, mean_x = channel.gibbs_pass(lambda: (E @ z_nodes.T, B.copy()), rows, weights, z_w)
    return weights @ (E @ (z_w @ z_nodes)) - ln_z, mean_x, z_w


def mi_signal_point(prior, gain, quad):
    """I(x0; G x0 + z) at one gain through ``channel_pass_point``."""
    gain = np.asarray(gain, dtype=float)
    ones = np.ones((1, 1, prior.n_atoms ** len(gain)))
    return _clamp(float(channel_pass_point(prior, gain, quad, ones)[0]))


def mmse_point(prior, s, quad):
    """E (x0 - E[x0|y])^2 at one scale s through ``channel_pass_point``."""
    v = prior.values
    _, mean_x, z_w = channel_pass_point(prior, np.array([[np.sqrt(s)]]), quad,
                                        np.stack([np.ones_like(v), v])[:, None, :])
    return float(prior.weights @ ((v[:, None] - mean_x[0]) ** 2 @ z_w))


def mi_vector_mc(prior, inv_sqrt, n_samples, rng):
    """I(x0; x0 + Sigma^(1/2) z) at the gain inv_sqrt = Sigma^(-1/2), by Monte
    Carlo over (x0, z) with the exact atom mixture for p(y): (mean, standard
    error).  Each sample forms own = U'z + |U|^2/2 - lse, whose terms of size
    |U|^2 cancel, so its rounding grows like eps |U|^2; harmless at the gains
    the tests use, unlike the channel's exponents built from distances."""
    M = inv_sqrt.shape[0]
    values, logw = channel.atom_grid(prior, M)
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


def fm_rs_monte_carlo(prior, M, Q, lam, budget, rng):
    """Rank-M potential at overlap Q through both forms, E ln ZM and the
    channel information estimated on shared Monte Carlo draws; the forms
    agree to Monte Carlo error.  The information has ``mi_vector_mc``'s
    cancellation."""
    Q = np.asarray(Q, dtype=float)
    values, logw = channel.atom_grid(prior, M)
    sqrt_Q = channel.psd_sqrt(Q)
    S = math.sqrt(lam) * sqrt_Q
    VQ = values @ Q
    quad_term = 0.5 * lam * np.sum(VQ * values, axis=1)
    ln_z_samples = np.empty(budget)
    mi_samples = np.empty(budget)
    E = values @ S.T
    half_norms = 0.5 * np.sum(E * E, axis=1)
    chunk = max(1, (1 << 22) // values.shape[0])
    done = 0
    while done < budget:
        b = min(chunk, budget - done)
        x0 = quantile(prior, rng.random((b, M)))
        z = rng.standard_normal((b, M))
        # log partition: coupling lam x0' Q x + sqrt(lam) x' sqrt(Q) z
        arg = (values @ (lam * (x0 @ Q).T + math.sqrt(lam) * (z @ sqrt_Q).T)
               - quad_term[:, None] + logw[:, None])
        ln_z_samples[done:done + b] = _logsumexp(arg, axis=0)
        # channel information with the same draws
        U = x0 @ S.T
        arg_mi = (E @ z.T) + (E @ U.T) - half_norms[:, None] + logw[:, None]
        lse = _logsumexp(arg_mi, axis=0)
        mi_samples[done:done + b] = np.sum(U * z, axis=1) + 0.5 * np.sum(U * U, axis=1) - lse
        done += b
    ln_z, mi = float(ln_z_samples.mean()), float(mi_samples.mean())
    rho = prior.rho
    value_logz = ln_z / M - lam * float(np.trace(Q @ Q)) / (4.0 * M)
    value_mi = (-mi / M
                - lam * float(np.sum((Q - rho * np.eye(M)) ** 2)) / (4.0 * M)
                + lam * rho**2 / 4.0)
    return replica.PotentialEvaluation(value_logz=value_logz, value_mi=value_mi,
                                       lam=lam, overlap=Q)


def ascend_one(ws, lam, Q, rho, tol):
    """Projected gradient ascent of FM over {0 <= Q <= rho I} from one overlap
    Q (M, M), one workspace pass per trial step: the sequential form of
    ``replica._ascend``, kept as its oracle.  Returns ``(value, Q)``."""
    M = ws.M

    def probe(Q, sqrt_Q):
        ln_z, cross = ws.value_and_moment(Q, lam, sqrt_Q)
        return (ln_z / M - lam * float(np.sum(Q * Q)) / (4.0 * M),
                (cross + cross.T) / 2.0 - Q)

    Q, sqrt_Q = replica._project(np.asarray(Q, dtype=float), rho)
    value, D = probe(Q, sqrt_Q)
    step = 1.0
    for _ in range(replica.SUP_STEPS):
        if np.linalg.norm(Q - replica._project(Q + D, rho)[0]) / M <= tol:
            break
        for _ in range(replica._HALVINGS):
            Q_new, sqrt_new = replica._project(Q + step * D, rho)
            value_new, D_new = probe(Q_new, sqrt_new)
            if value_new >= value + replica._ARMIJO * lam / (2.0 * M) * np.sum(D * (Q_new - Q)):
                break
            step /= 2.0
        else:
            break
        s, y = Q_new - Q, D - D_new
        sy = float(np.sum(s * y))
        step = float(np.sum(s * s)) / sy if sy > 0 else 1.0
        Q, value, D = Q_new, value_new, D_new
    return value, Q


def noise_batch_loop(prior, M, n_samples, seed):
    """``reduction.noise_inequality_batch`` one covariance at a time: per
    sample, its trim covariance's information less the sum of its diagonal's
    scalar informations, then its trace covariance's information less M times
    the scalar information at its trace-average level."""
    quad = channel.gauss_hermite(reduction.NOISE_ORDER)
    rng = np.random.default_rng(seed)
    trim, trace = np.empty(n_samples), np.empty(n_samples)
    for i in range(n_samples):
        mat = reduction.random_psd(M, rng)
        trim[i] = (channel.mi_vector(prior, mat, quad)
                   - sum(channel.mi_scalar_noise(prior, mat.diagonal(), quad).tolist()))
        mat = reduction.random_psd(M, rng, diag_min=prior.support_bound**2)
        trace[i] = (channel.mi_vector(prior, mat, quad)
                    - M * channel.mi_scalar_noise(prior, float(np.trace(mat)) / M, quad))
    return trim, trace
