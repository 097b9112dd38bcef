"""Replica-symmetric potentials for low-rank matrix estimation.

Scalar case (overlap tau in [0, rho], SNR lam >= 0):

    F1(tau) = E ln Z1 - lam tau^2 / 4,
    Z1(z, x0) = sum_x w_x exp(sqrt(lam tau) z x + lam tau x0 x - lam tau x^2 / 2)

Rank-M case (overlap matrix Q in the PSD cone):

    FM(Q) = (1/M) E ln ZM - lam Tr Q^2 / (4M),
    ZM(z, x0) = sum_x W_x exp(sqrt(lam) x' sqrt(Q) z + lam x0' Q x - lam x' Q x / 2)

Both admit an equivalent mutual-information form

    FM(Q) = -(1/M) I(x0; sqrt(lam Q) x0 + z) - lam |Q - rho I|_F^2 / (4M)
            + lam rho^2 / 4,

which ``fm_rs`` evaluates alongside the log-partition form on the same
quadrature grid.  Expectations over the signal are exact atom sums; the
Gaussian expectation uses (tensorized) Gauss-Hermite quadrature.

The criticality condition Q = E <x x0'> drives the damped fixed-point
iterations, and the suprema are located by grid search over an
eigendecomposition parametrization followed by coordinate-wise golden-section
refinement.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    GaussQuadrature,
    atom_grid,
    gauss_hermite,
    logsumexp_matmul,
    mi_vector_signal,
    psd_sqrt,
    tensor_nodes,
)
from .priors import Prior

__all__ = [
    "FixedPointResult",
    "PotentialEvaluation",
    "PhaseScan",
    "NonUniqueMaximizer",
    "f1_rs",
    "f1_update",
    "f1_fixed_point",
    "f1_sup",
    "mmse_prediction",
    "fm_rs",
    "fm_fixed_point",
    "fm_sup",
    "phase_scan",
    "rotation_matrix",
]

DEFAULT_SCALAR_ORDER = 64
DEFAULT_TENSOR_ORDER = {1: 64, 2: 20, 3: 14}
# fm_sup: coarse-grid quadrature order, eigenvalue levels and angles per
# rotation axis, candidates refined, sweeps, final-evaluation quadrature order
SUP_COARSE_ORDER = {2: 20, 3: 8}
SUP_EIG_LEVELS = {2: 32, 3: 10}
SUP_ANGLES = {2: 24, 3: 8}
SUP_CANDIDATES = 20
SUP_SWEEPS = 4
SUP_POLISH_ORDER = {2: 40, 3: 24}
_DOMAIN_TOL = 1e-12     # keeps grid points on a domain boundary despite rounding


class NonUniqueMaximizer(ValueError):
    """Raised when the potential has distant near-tied maximizers."""


@dataclass
class FixedPointResult:
    overlap: object            # float for the scalar map, (M, M) array otherwise
    iterations: int
    residual: float
    converged: bool
    potential_value: float


@dataclass
class PotentialEvaluation:
    """Rank-M potential evaluated through both equivalent forms."""

    value_logz: float
    value_mi: float
    lam: float
    overlap: np.ndarray

    @property
    def form_gap(self) -> float:
        return abs(self.value_logz - self.value_mi)


@dataclass
class PhaseScan:
    lambdas: np.ndarray
    q_star: np.ndarray
    value: np.ndarray
    dq_dlambda: np.ndarray
    jump_cell: tuple | None    # (lam_left, lam_right) bracketing the largest jump
    jump_size: float


def _golden_max(f, lo, hi, xtol):
    """Golden-section maximization; ties keep the left subinterval."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > xtol:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    return (x1, f1) if f1 >= f2 else (x2, f2)


# ---------------------------------------------------------------------------
# scalar potential
# ---------------------------------------------------------------------------

def _check_snr(lam):
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"SNR must be finite and nonnegative, got {lam!r}")


def _check_scalar_args(prior, tau, lam):
    if not 0.0 <= tau <= prior.rho + 1e-12:
        raise ValueError(f"overlap tau={tau!r} outside [0, rho={prior.rho!r}]")
    _check_snr(lam)


def _scalar_exponents(prior, m, nodes):
    """Exponents arg[..., a, x, n] of the scalar replica measure at
    m = lam tau (a scalar, or a 1-d array that becomes the leading axis)."""
    m = np.asarray(m)[..., None, None, None]
    v = prior.values
    logw = np.log(prior.weights)
    return (np.sqrt(m) * nodes[None, None, :] * v[None, :, None]
            + m * v[:, None, None] * v[None, :, None]
            - 0.5 * m * v[None, :, None] ** 2
            + logw[None, :, None])


def _scalar_lse(arg):
    """log-sum-exp of ``arg`` over its atom axis x."""
    amax = arg.max(axis=-2, keepdims=True)
    return amax[..., 0, :] + np.log(np.exp(arg - amax).sum(axis=-2))


def f1_rs(prior: Prior, tau: float, lam: float, quad: GaussQuadrature) -> float:
    """Rank-one replica-symmetric potential F1(tau, lam) in nats."""
    _check_scalar_args(prior, tau, lam)
    lse = _scalar_lse(_scalar_exponents(prior, lam * tau, quad.nodes))
    return float(prior.weights @ (lse @ quad.weights)) - lam * tau**2 / 4.0


def f1_update(prior: Prior, q: float, lam: float, quad: GaussQuadrature) -> float:
    """One application of the scalar overlap map q -> E <x x0> at overlap q."""
    _check_scalar_args(prior, q, lam)
    v = prior.values
    arg = _scalar_exponents(prior, lam * q, quad.nodes)
    arg -= arg.max(axis=1, keepdims=True)
    p = np.exp(arg)
    mean_x = np.einsum("axn,x->an", p, v) / p.sum(axis=1)
    return float(prior.weights @ ((v[:, None] * mean_x) @ quad.weights))


def f1_fixed_point(prior: Prior, lam: float, q0: float, damping: float = 0.5,
                   quad: GaussQuadrature | None = None, tol: float = 1e-10,
                   max_iter: int = 10_000) -> FixedPointResult:
    """Damped iteration of the scalar overlap map from q0.

    Non-convergence is reported through the ``converged`` flag, never raised.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must be in (0, 1]")
    if quad is None:
        quad = gauss_hermite(DEFAULT_SCALAR_ORDER)
    _check_scalar_args(prior, q0, lam)
    q = float(q0)
    target = f1_update(prior, q, lam, quad)
    residual = abs(q - target)
    iterations = 0
    while residual > tol and iterations < max_iter:
        q = (1.0 - damping) * q + damping * target
        q = min(max(q, 0.0), prior.rho)
        target = f1_update(prior, q, lam, quad)
        residual = abs(q - target)
        iterations += 1
    return FixedPointResult(
        overlap=q,
        iterations=iterations,
        residual=residual,
        converged=residual <= tol,
        potential_value=f1_rs(prior, q, lam, quad),
    )


def _f1_grid(prior, lam, quad, n_grid):
    """Potential on a uniform overlap grid, vectorized over the grid."""
    taus = np.linspace(0.0, prior.rho, n_grid)
    lse = _scalar_lse(_scalar_exponents(prior, lam * taus, quad.nodes))
    vals = np.einsum("a,tan,n->t", prior.weights, lse, quad.weights) - lam * taus**2 / 4.0
    return taus, vals


def f1_sup(prior: Prior, lam: float, quad: GaussQuadrature | None = None,
           n_grid: int = 512, xtol: float = 1e-10):
    """Global maximum of the scalar potential over [0, rho].

    Grid search followed by golden-section refinement around the best grid
    point; near-ties (within 1e-10 in value) resolve to the smallest overlap.
    Returns ``(value, q_star)``.
    """
    _check_snr(lam)
    if quad is None:
        quad = gauss_hermite(DEFAULT_SCALAR_ORDER)
    taus, vals = _f1_grid(prior, lam, quad, n_grid)
    best = vals.max()
    idx = int(np.nonzero(vals >= best - 1e-10)[0][0])
    lo = taus[max(idx - 1, 0)]
    hi = taus[min(idx + 1, n_grid - 1)]
    q_star, value = _golden_max(lambda t: f1_rs(prior, t, lam, quad), lo, hi, xtol)
    if vals[idx] > value:
        q_star, value = taus[idx], vals[idx]
    # near-ties resolve to the smallest overlap; in particular the potential's
    # noise floor around zero must not produce a spurious positive maximizer
    zero_value = f1_rs(prior, 0.0, lam, quad)
    if zero_value >= value - 1e-10:
        return float(zero_value), 0.0
    if q_star < 1e-10:
        q_star = 0.0
        value = zero_value
    return float(value), float(q_star)


def _local_maxima(taus, vals):
    idx = [0, len(vals) - 1]
    interior = np.nonzero((vals[1:-1] >= vals[:-2]) & (vals[1:-1] >= vals[2:]))[0] + 1
    return sorted(set(idx) | set(int(i) for i in interior))


def mmse_prediction(prior: Prior, lam: float, quad: GaussQuadrature | None = None,
                    n_grid: int = 512) -> float:
    """Limiting matrix MMSE prediction rho^2 - q*(lam)^2.

    Refuses to answer (raises NonUniqueMaximizer) when two maximizers at
    distant overlaps agree in value to 1e-8, as happens at the critical SNR.
    """
    if quad is None:
        quad = gauss_hermite(DEFAULT_SCALAR_ORDER)
    taus, vals = _f1_grid(prior, lam, quad, n_grid)
    candidates = []
    for i in _local_maxima(taus, vals):
        lo = taus[max(i - 1, 0)]
        hi = taus[min(i + 1, n_grid - 1)]
        t, val = _golden_max(lambda t: f1_rs(prior, t, lam, quad), lo, hi, 1e-10)
        candidates.append((val, t))
    candidates.sort(reverse=True)
    best_val, best_t = candidates[0]
    zero_value = f1_rs(prior, 0.0, lam, quad)
    if zero_value >= best_val - 1e-10:
        best_val, best_t = zero_value, 0.0
    loc_tol = 1e-2 * prior.rho
    for val, t in candidates:
        if best_val - val <= 1e-8 and abs(t - best_t) > loc_tol:
            # tied values at distant overlaps: refuse only for a genuine
            # double well (a dip between them); a flat plateau tie-breaks
            # to the smaller overlap
            lo, hi = sorted((t, best_t))
            between = vals[(taus > lo) & (taus < hi)]
            if between.size and between.min() < best_val - 1e-8:
                raise NonUniqueMaximizer(
                    f"near-tied maximizers at overlaps {best_t:.6g} and {t:.6g} "
                    f"(values differ by {best_val - val:.3g})")
    q_star = 0.0 if best_t < 1e-10 else best_t
    return prior.rho**2 - q_star**2


# ---------------------------------------------------------------------------
# rank-M potential
# ---------------------------------------------------------------------------

def _check_overlap_matrix(Q, M):
    Q = np.asarray(Q, dtype=float)
    if Q.shape != (M, M):
        raise ValueError(f"overlap matrix must be {M}x{M}")
    if np.max(np.abs(Q - Q.T)) > 1e-12:
        raise ValueError("overlap matrix must be symmetric")
    if np.linalg.eigvalsh(Q).min() < -1e-10:
        raise ValueError("overlap matrix must be positive semidefinite")
    return Q


class _RankMWorkspace:
    """Precomputed atom/quadrature grids for repeated rank-M evaluations."""

    def __init__(self, prior, M, order):
        self.prior = prior
        self.M = M
        self.quad = gauss_hermite(order)
        self.z_nodes, self.z_weights = tensor_nodes(self.quad, M)
        self.values, self.logw = atom_grid(prior, M)
        self.weights = np.exp(self.logw)

    def _exponents(self, Q, lam, sqrt_Q=None):
        """The exponent matrices A and B of the replica measure at overlap Q,
        shared by ``ln_partition`` and ``gibbs_cross_moment``."""
        if sqrt_Q is None:
            sqrt_Q = psd_sqrt(Q)
        V = self.values
        A = math.sqrt(lam) * (V @ sqrt_Q) @ self.z_nodes.T      # (K_x, Nz)
        VQ = V @ Q
        B = lam * (V @ VQ.T) - 0.5 * lam * np.sum(VQ * V, axis=1)[None, :] \
            + self.logw[None, :]                                # (K_a, K_x)
        return A, B

    def ln_partition(self, Q, lam, sqrt_Q=None):
        """E_{z,x0} ln ZM(Q) on the tensor grid."""
        A, B = self._exponents(Q, lam, sqrt_Q)
        lse = logsumexp_matmul(B, A)
        return float(self.weights @ (lse @ self.z_weights))

    def gibbs_cross_moment(self, Q, lam):
        """E_{z,x0} <x x0'> under the rank-M replica measure at overlap Q."""
        V = self.values
        A, B = self._exponents(Q, lam)
        a_max = B.max(axis=1, keepdims=True)
        x_max = A.max(axis=0, keepdims=True)
        EB = np.exp(B - a_max)                                  # (K_a, K_x)
        EA = np.exp(A - x_max)                                  # (K_x, Nz)
        denom = EB @ EA                                         # (K_a, Nz)
        mean_x = np.empty((self.M, EB.shape[0], EA.shape[1]))
        for m in range(self.M):
            mean_x[m] = (EB * V[None, :, m]) @ EA
        mean_x /= denom[None, :, :]
        R = mean_x @ self.z_weights                             # (M, K_a)
        return R @ (V * self.weights[:, None])                  # (M, M)


def _workspace(prior, M, order=None):
    if order is None:
        order = DEFAULT_TENSOR_ORDER[M]
    return _RankMWorkspace(prior, M, order)


def fm_rs(prior: Prior, M: int, Q, lam: float,
          order: int | None = None, mc_budget: int | None = None,
          rng: np.random.Generator | None = None) -> PotentialEvaluation:
    """Rank-M potential at overlap Q, through both equivalent forms.

    Dimensions up to 3 use tensorized quadrature; 4..6 require a Monte Carlo
    budget and generator.  The two stored values agree to machine precision on
    the quadrature path and to Monte Carlo error otherwise.
    """
    _check_snr(lam)
    Q = _check_overlap_matrix(Q, M)
    rho = prior.rho
    if M <= 3:
        ws = _workspace(prior, M, order)
        ln_z = ws.ln_partition(Q, lam)
        mi = mi_vector_signal(prior, math.sqrt(lam) * psd_sqrt(Q), ws.quad)
    elif M <= 6:
        if mc_budget is None or rng is None:
            raise ValueError("dimensions above 3 need mc_budget and rng")
        ln_z, mi = _fm_monte_carlo(prior, M, Q, lam, mc_budget, rng)
    else:
        raise ValueError("rank-M evaluation supports M <= 6")
    value_logz = ln_z / M - lam * float(np.trace(Q @ Q)) / (4.0 * M)
    value_mi = (-mi / M
                - lam * float(np.sum((Q - rho * np.eye(M)) ** 2)) / (4.0 * M)
                + lam * rho**2 / 4.0)
    return PotentialEvaluation(value_logz=value_logz, value_mi=value_mi,
                               lam=lam, overlap=Q)


def _fm_monte_carlo(prior, M, Q, lam, budget, rng):
    """Shared-draw MC estimates of E ln ZM and the channel information."""
    values, logw = atom_grid(prior, M)
    sqrt_Q = psd_sqrt(Q)
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
        x0 = prior.values[rng.choice(prior.n_atoms, size=(b, M), p=prior.weights)]
        z = rng.standard_normal((b, M))
        # log partition: coupling lam x0' Q x + sqrt(lam) x' sqrt(Q) z
        arg = (values @ (lam * (x0 @ Q).T + math.sqrt(lam) * (z @ sqrt_Q).T)
               - quad_term[:, None] + logw[:, None])
        amax = arg.max(axis=0)
        ln_z_samples[done:done + b] = amax + np.log(np.exp(arg - amax).sum(axis=0))
        # channel information with the same draws
        U = x0 @ S.T
        arg_mi = (E @ z.T) + (E @ U.T) - half_norms[:, None] + logw[:, None]
        amax = arg_mi.max(axis=0)
        lse = amax + np.log(np.exp(arg_mi - amax).sum(axis=0))
        mi_samples[done:done + b] = np.sum(U * z, axis=1) + 0.5 * np.sum(U * U, axis=1) - lse
        done += b
    return float(ln_z_samples.mean()), float(mi_samples.mean())


def fm_fixed_point(prior: Prior, M: int, lam: float, Q0,
                   damping: float = 0.5, order: int | None = None,
                   tol: float = 1e-8, max_iter: int = 2_000) -> FixedPointResult:
    """Damped matrix fixed-point iteration from Q0 (symmetrize + PSD-project
    each step).  Convergence is Frobenius residual / M <= tol."""
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must be in (0, 1]")
    if M > 3:
        raise ValueError("matrix fixed point supports M <= 3")
    Q = _check_overlap_matrix(Q0, M)
    ws = _workspace(prior, M, order)

    def project(S):
        eigval, eigvec = np.linalg.eigh((S + S.T) / 2.0)
        return (eigvec * np.clip(eigval, 0.0, None)) @ eigvec.T

    target = project(ws.gibbs_cross_moment(Q, lam))
    residual = float(np.linalg.norm(Q - target, "fro")) / M
    iterations = 0
    while residual > tol and iterations < max_iter:
        Q = project((1.0 - damping) * Q + damping * target)
        target = project(ws.gibbs_cross_moment(Q, lam))
        residual = float(np.linalg.norm(Q - target, "fro")) / M
        iterations += 1
    value = fm_rs(prior, M, Q, lam, order=ws.quad.order).value_logz
    return FixedPointResult(overlap=Q, iterations=iterations, residual=residual,
                            converged=residual <= tol, potential_value=value)


def rotation_matrix(angles, M: int) -> np.ndarray:
    """Rotation from its angle coordinates: one angle for M=2, ZYZ Euler
    angles for M=3."""
    if M == 1:
        return np.eye(1)
    if M == 2:
        (t,) = angles
        c, s = math.cos(t), math.sin(t)
        return np.array([[c, -s], [s, c]])
    if M == 3:
        a, b, c = angles

        def rz(t):
            return np.array([[math.cos(t), -math.sin(t), 0.0],
                             [math.sin(t), math.cos(t), 0.0],
                             [0.0, 0.0, 1.0]])

        def ry(t):
            return np.array([[math.cos(t), 0.0, math.sin(t)],
                             [0.0, 1.0, 0.0],
                             [-math.sin(t), 0.0, math.cos(t)]])

        return rz(a) @ ry(b) @ rz(c)
    raise ValueError("rotation parametrization supports M <= 3")


def _assemble(eigs, angles, M):
    """Q = O diag(q) O' and its square root O diag(sqrt q) O'."""
    O = rotation_matrix(angles, M)
    q = np.asarray(eigs)
    return (O * q) @ O.T, (O * np.sqrt(q)) @ O.T


def _sign_symmetric(prior):
    """Whether x -> -x maps the prior to itself (sorted atoms are negated by
    reversal, and their weights are palindromic)."""
    return bool(np.array_equal(prior.values, -prior.values[::-1])
                and np.array_equal(prior.weights, prior.weights[::-1]))


def _in_domain(Q, sign_symmetric):
    """Whether the overlap matrices Q[..., :, :] lie in one fundamental domain
    of the symmetry group of FM.

    A product prior makes FM(P Q P') = FM(Q) for every coordinate permutation
    P, which a non-increasing diagonal breaks.  A sign-symmetric prior adds the
    sign flips D Q D; these keep the diagonal and are broken by a nonnegative
    first row off the diagonal.  Every orbit meets the domain: sort the
    diagonal, then flip each coordinate j > 0 with Q[0, j] < 0.
    """
    d = np.diagonal(Q, axis1=-2, axis2=-1)
    inside = np.all(d[..., :-1] >= d[..., 1:] - _DOMAIN_TOL, axis=-1)
    if sign_symmetric:
        inside &= np.all(Q[..., 0, 1:] >= -_DOMAIN_TOL, axis=-1)
    return inside


def fm_sup(prior: Prior, M: int, lam: float):
    """Supremum of the rank-M potential over PSD matrices with eigenvalues
    in [0, rho].

    The search runs over the eigendecomposition Q = O diag(q) O', which
    enforces the eigenvalue restriction by construction: a product grid over
    eigenvalues and rotation angles, restricted to one fundamental domain of
    the potential's symmetry group (``_in_domain``), seeded additionally with
    the isotropic line and damped fixed-point limits, followed by
    coordinate-wise golden-section refinement of the best candidates.
    Returns ``(value, Q_star)``.
    """
    if M not in (2, 3):
        raise ValueError("the matrix supremum is implemented for M in {2, 3}")
    _check_snr(lam)
    rho = prior.rho
    ws = _workspace(prior, M)
    coarse_ws = _workspace(prior, M, SUP_COARSE_ORDER[M])

    def value_at(w, Q, sqrt_Q=None):
        return w.ln_partition(Q, lam, sqrt_Q) / M - lam * float(np.sum(Q * Q)) / (4.0 * M)

    n_angle = SUP_ANGLES[M]
    eig_levels = np.linspace(0.0, rho, SUP_EIG_LEVELS[M])
    if M == 2:
        angle_grids = [np.linspace(0.0, math.pi, n_angle, endpoint=False)]
    else:
        angle_grids = [
            np.linspace(0.0, 2 * math.pi, n_angle, endpoint=False),
            np.linspace(0.0, math.pi, max(n_angle // 2, 3)),
            np.linspace(0.0, 2 * math.pi, n_angle, endpoint=False),
        ]
    eig_combos = np.array(list(itertools.combinations_with_replacement(eig_levels, M)))
    angle_combos = list(itertools.product(*angle_grids))
    O = np.array([rotation_matrix(a, M) for a in angle_combos])[None]    # (1, R, M, M)
    q = eig_combos[:, None, None, :]                                     # (E, 1, 1, M)
    grid_Q = (O * q) @ O.swapaxes(-1, -2)                                # (E, R, M, M)
    grid_sqrt = (O * np.sqrt(q)) @ O.swapaxes(-1, -2)
    keep = _in_domain(grid_Q, _sign_symmetric(prior))
    # rotations are redundant for degenerate eigenvalues
    keep[np.ptp(np.round(eig_combos, 12), axis=1) == 0, 1:] = False
    candidates = [(value_at(coarse_ws, grid_Q[e, r], grid_sqrt[e, r]),
                   tuple(eig_combos[e]), angle_combos[r])
                  for e, r in zip(*np.nonzero(keep))]

    # isotropic seeds (exactly decoupled; cheap at full accuracy)
    for tau in np.linspace(0.0, rho, 65):
        candidates.append((value_at(ws, tau * np.eye(M)), (tau,) * M, angle_combos[0]))

    # fixed-point seeds
    for q0 in (rho, rho / 2):
        fp = fm_fixed_point(prior, M, lam, q0 * np.eye(M), order=ws.quad.order,
                            tol=1e-9, max_iter=400)
        eigval, eigvec = np.linalg.eigh(fp.overlap)
        angles = _angles_of(eigvec, M)
        candidates.append((value_at(ws, fp.overlap),
                           tuple(np.clip(eigval, 0.0, rho)), angles))

    candidates.sort(key=lambda c: c[0], reverse=True)
    seen, top = set(), []
    for val, eigs, angles in candidates:
        key = tuple(np.round(eigs, 6)) + tuple(np.round(angles, 4))
        if key not in seen:
            seen.add(key)
            top.append((eigs, angles))
        if len(top) >= SUP_CANDIDATES:
            break

    eig_span = eig_levels[1] - eig_levels[0]
    angle_spans = [g[1] - g[0] for g in angle_grids]

    def refine(x, w, xtol, n_sweeps):
        val = value_at(w, *_assemble(x[:M], x[M:], M))
        for _ in range(n_sweeps):
            for i in range(len(x)):
                if i < M:
                    lo = max(0.0, x[i] - eig_span)
                    hi = min(rho, x[i] + eig_span)
                else:
                    span = angle_spans[i - M]
                    lo, hi = x[i] - span, x[i] + span

                def f(c, i=i):
                    y = list(x)
                    y[i] = c
                    return value_at(w, *_assemble(y[:M], y[M:], M))

                xi, vi = _golden_max(f, lo, hi, xtol)
                if vi >= val:
                    x[i], val = xi, vi
        return x, val

    # coarse refinement of every candidate, then fine refinement of the best few
    refined = []
    for eigs, angles in top:
        x, val = refine(list(eigs) + list(angles), coarse_ws, 1e-5, SUP_SWEEPS - 1)
        refined.append((val, x))
    refined.sort(key=lambda c: c[0], reverse=True)

    best_val, best_x = -np.inf, None
    for _, x in refined[:3]:
        x, val = refine(list(x), ws, 1e-8, SUP_SWEEPS)
        if val > best_val:
            best_val, best_x = val, list(x)

    Q_star, _ = _assemble(np.clip(best_x[:M], 0.0, rho), best_x[M:], M)
    # one evaluation at a finer grid removes most of the search quadrature bias
    best_val = value_at(_workspace(prior, M, SUP_POLISH_ORDER[M]), Q_star)
    # near-ties resolve to the zero matrix (noise floor around the origin)
    if 0.0 >= best_val - 1e-10:
        return 0.0, np.zeros((M, M))
    return float(best_val), Q_star


def _angles_of(eigvec, M):
    """Angle coordinates of an orthogonal matrix (inverse of rotation_matrix)."""
    O = eigvec if np.linalg.det(eigvec) > 0 else eigvec @ np.diag([1.0] * (M - 1) + [-1.0])
    if M == 2:
        return (math.atan2(O[1, 0], O[0, 0]),)
    b = math.acos(min(max(O[2, 2], -1.0), 1.0))
    if abs(math.sin(b)) < 1e-12:
        return (math.atan2(O[1, 0], O[0, 0]), b, 0.0)
    a = math.atan2(O[1, 2], O[0, 2])
    c = math.atan2(O[2, 1], -O[2, 0])
    return (a, b, c)


def phase_scan(prior: Prior, lambda_grid, quad: GaussQuadrature | None = None,
               n_grid: int = 512, jump_tol: float = 1e-3) -> PhaseScan:
    """Sweep the scalar supremum over a sorted SNR grid.

    The critical-point estimate is the grid cell with the largest jump of the
    maximizing overlap, reported as an interval and only when the jump exceeds
    ``jump_tol``; below that the curve is treated as transition-free.
    """
    lams = np.asarray(lambda_grid, dtype=float)
    if lams.size < 8:
        raise ValueError("need at least 8 SNR grid points")
    if not np.all(np.isfinite(lams)):
        raise ValueError("SNR grid must be finite")
    if np.any(np.diff(lams) <= 0):
        raise ValueError("SNR grid must be sorted increasing")
    if quad is None:
        quad = gauss_hermite(DEFAULT_SCALAR_ORDER)
    values = np.empty(lams.size)
    q_stars = np.empty(lams.size)
    for i, lam in enumerate(lams):
        values[i], q_stars[i] = f1_sup(prior, lam, quad, n_grid=n_grid)
    dq = np.gradient(q_stars, lams)
    jumps = np.abs(np.diff(q_stars))
    cell = int(np.argmax(jumps))
    jump_size = float(jumps[cell])
    jump_cell = (float(lams[cell]), float(lams[cell + 1])) if jump_size > jump_tol else None
    return PhaseScan(lambdas=lams, q_star=q_stars, value=values, dq_dlambda=dq,
                     jump_cell=jump_cell, jump_size=jump_size)
