"""Replica-symmetric potentials for low-rank matrix estimation.

Rank-M potential (overlap matrix Q in the PSD cone, SNR lam >= 0):

    FM(Q) = (1/M) E ln ZM - lam Tr Q^2 / (4M),
    ZM(z, x0) = sum_x W_x exp(sqrt(lam) x' sqrt(Q) z + lam x0' Q x - lam x' Q x / 2)

The rank-one potential F1(tau) for an overlap tau in [0, rho] is its M = 1
case, F1(tau) = FM([[tau]]).  One workspace (``_RankMWorkspace``) evaluates
M = 1, 2 and 3 on a tensor Gauss-Hermite grid with ``DEFAULT_ORDER[M]`` nodes
per axis unless a rule is given, ln ZM and its Gibbs moments in one pass.
FM admits an equivalent mutual-information form

    FM(Q) = -(1/M) I(x0; sqrt(lam Q) x0 + z) - lam |Q - rho I|_F^2 / (4M)
            + lam rho^2 / 4,

which ``fm_rs`` evaluates alongside the log-partition form on the same
quadrature grid.  Expectations over the signal are exact atom sums.

The criticality condition Q = E <x x0'> drives the damped fixed-point
iterations.  By the Nishimori identity it also gives the gradient
grad FM = (lam / 2M)(sym E <x x0'> - Q), computed in one pass with E ln ZM.
Every supremum is a grid search polished by projected gradient ascent on
{0 <= Q <= rho I} (``_ascend``): over a uniform overlap grid at M = 1, over a
symmetry-reduced eigendecomposition parametrization at M = 2 and 3.  The
ascents of one search run in lockstep, one stacked workspace pass per round
for all of them, each ending where it ends alone.  One rank-one search,
``_f1_sups``, serves ``f1_sup``, ``phase_scan`` and ``mmse_prediction``: every
local maximum of every SNR's grid ascends in one such search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._budget import batched, parts, pass_elements
from .channel import (
    DEFAULT_ORDER,
    GaussQuadrature,
    atom_grid,
    gauss_hermite,
    gibbs_pass,
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
    "f1_fixed_point",
    "f1_sup",
    "mmse_prediction",
    "fm_rs",
    "fm_fixed_point",
    "fm_sup",
    "phase_scan",
    "rotation_matrix",
]

# fm_sup: quadrature order of the coarse stage (grid ranking and SUP_TOL[0]
# ascents) at every M, eigenvalue levels and angles per rotation axis,
# candidates polished, ascent steps per candidate, certificates at which the
# ascent stops (coarse, then default order), final-evaluation quadrature order
SUP_COARSE_ORDER = 8
SUP_EIG_LEVELS = {2: 32, 3: 10}
SUP_ANGLES = {2: 24, 3: 8}
SUP_CANDIDATES = 20
SUP_STEPS = 50
SUP_TOL = (1e-5, 1e-9)
SUP_POLISH_ORDER = {2: 40, 3: 24}
# the rank-one search: overlap grid points, polished at SUP_TOL[1];
# phase_scan: smallest jump of the maximizing overlap reported as a transition
F1_GRID = 512
PHASE_JUMP_TOL = 1e-3
_DOMAIN_TOL = 1e-12     # keeps grid points on a domain boundary despite rounding
_ARMIJO = 1e-4          # fraction of the first-order rise an ascent step must reach
_HALVINGS = 4           # step halvings before the ascent gives up


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


# ---------------------------------------------------------------------------
# rank-one potential: the M = 1 case of the rank-M workspace below
# ---------------------------------------------------------------------------

def _check_snr(lam):
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"SNR must be finite and nonnegative, got {lam!r}")


def _check_scalar_args(prior, tau, lam):
    if not 0.0 <= tau <= prior.rho + 1e-12:
        raise ValueError(f"overlap tau={tau!r} outside [0, rho={prior.rho!r}]")
    _check_snr(lam)


def _f1_values(ws, taus, lam):
    """F1 at each overlap of the 1-d sequence taus, on the M = 1 workspace, at
    the SNR lam or at each of a 1-d array of them (one row per SNR)."""
    taus = np.asarray(taus, dtype=float)[:, None, None]
    return ws.potential(taus, lam, np.sqrt(taus))


def f1_rs(prior: Prior, tau: float, lam: float, quad: GaussQuadrature | None = None) -> float:
    """Rank-one replica-symmetric potential F1(tau, lam) in nats."""
    _check_scalar_args(prior, tau, lam)
    return float(_f1_values(_RankMWorkspace(prior, 1, quad), [tau], lam)[0])


def f1_fixed_point(prior: Prior, lam: float, q0: float, damping: float = 0.5,
                   quad: GaussQuadrature | None = None,
                   max_iter: int = 10_000) -> FixedPointResult:
    """Damped iteration of the scalar overlap map q -> E <x x0> from q0, the
    M = 1 case of ``fm_fixed_point``.

    Non-convergence is reported through the ``converged`` flag, never raised.
    """
    _check_scalar_args(prior, q0, lam)
    res = fm_fixed_point(prior, 1, lam, [[q0]], damping, quad, tol=1e-10, max_iter=max_iter)
    res.overlap = float(res.overlap[0, 0])
    return res


def _f1_grid(ws, lams):
    """The potential on a uniform overlap grid at each SNR of the 1-d array
    lams, as one stack: the grid and the values (len(lams), F1_GRID)."""
    taus = np.linspace(0.0, ws.prior.rho, F1_GRID)
    return taus, _f1_values(ws, taus, lams)


def _at_zero(zero_value, value, q):
    """Whether the best end point (value, q) gives way to zero overlap: within
    1e-10 of the zero-overlap value, or below 1e-10 in overlap, so that the
    potential's noise floor around zero does not produce a spurious positive
    maximizer."""
    return (zero_value >= value - 1e-10) | (q < 1e-10)


def _local_maxima(vals):
    """Mask of the local maxima of each row of vals: above the left neighbour
    and not below the right one, each end against -inf.  A run of equal values
    counts by its leftmost index (one for a flat row, lam = 0); a row's first
    NaN counts, so it carries into its row's supremum; a row not all -inf has
    one."""
    padded = np.full((len(vals), vals.shape[1] + 2), -np.inf)
    padded[:, 1:-1] = vals
    nan = np.isnan(vals)
    return (vals > padded[:, :-2]) & (vals >= padded[:, 2:]) | nan & (nan.cumsum(axis=1) == 1)


def _f1_sups(ws, lams):
    """sup F1 at each SNR of the 1-d array lams, the one rank-one search: every
    grid local maximum ascends (``_ascend`` at M = 1), all in lockstep; each SNR
    takes its best end point, the larger overlap among equal values, or zero
    overlap (``_at_zero``).  Returns the values and maximizers per SNR, and the
    grid, its values (len(lams), F1_GRID) and every end point's value and q."""
    taus, vals = _f1_grid(ws, lams)
    row, start = np.nonzero(_local_maxima(vals))
    ends, end_Q = _ascend(ws, lams[row], taus[start, None, None], ws.prior.rho, SUP_TOL[1])
    q = end_Q[:, 0, 0]
    # np.nonzero gives row sorted: by SNR, value and overlap, each SNR's best is last
    best = np.lexsort((q, ends, row))[np.r_[row[1:] != row[:-1], True]]
    zero = _at_zero(vals[:, 0], ends[best], q[best])
    return (np.where(zero, vals[:, 0], ends[best]), np.where(zero, 0.0, q[best]),
            (taus, vals, ends, q))


def f1_sup(prior: Prior, lam: float, quad: GaussQuadrature | None = None):
    """Global maximum of the scalar potential over [0, rho].

    Grid search, then projected gradient ascent (``_ascend`` at M = 1) from
    every grid local maximum; the best end point wins (``_f1_sups``), and a NaN
    potential gives a NaN value.  The one-SNR case of ``phase_scan``'s search.
    Returns ``(value, q_star)``.
    """
    _check_snr(lam)
    values, q, _ = _f1_sups(_RankMWorkspace(prior, 1, quad), np.array([lam], dtype=float))
    return float(values[0]), float(q[0])


def mmse_prediction(prior: Prior, lam: float, quad: GaussQuadrature | None = None) -> float:
    """Limiting matrix MMSE prediction rho^2 - q*(lam)^2, with q* the maximizer
    of ``f1_sup``'s search, so ``phase_scan``'s q* at the same SNR.

    Refuses to answer (raises NonUniqueMaximizer) when an end point of that
    search at a distant overlap agrees with the maximum in value to 1e-8 and
    the grid dips between them, as happens at the critical SNR.
    """
    _check_snr(lam)
    (best_val,), (best_t,), (taus, (vals,), ends, qs) = _f1_sups(
        _RankMWorkspace(prior, 1, quad), np.array([lam], dtype=float))
    loc_tol = 1e-2 * prior.rho
    for val, t in zip(ends.tolist(), qs.tolist()):
        if best_val - val <= 1e-8 and abs(t - best_t) > loc_tol:
            # tied values at distant overlaps: refuse only for a genuine
            # double well (a dip between them), not for a flat plateau
            lo, hi = sorted((t, best_t))
            between = vals[(taus > lo) & (taus < hi)]
            if between.size and between.min() < best_val - 1e-8:
                raise NonUniqueMaximizer(
                    f"near-tied maximizers at overlaps {best_t:.6g} and {t:.6g} "
                    f"(values differ by {best_val - val:.3g})")
    return prior.rho**2 - float(best_t)**2


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
    """Precomputed atom/quadrature grids for repeated rank-M evaluations, on
    the rule ``quad`` (DEFAULT_ORDER[M] nodes by default) in every axis; every
    output comes from one ``gibbs_pass`` on the exponents of ``_exponents``.
    ln ZM and x0' <x> are unchanged by (z, x0) -> (-z, -x0) for a
    sign-symmetric prior and every output sums over x0 before z, so such a
    prior runs on the halved grid of ``tensor_nodes``."""

    def __init__(self, prior, M, quad=None):
        self.prior = prior
        self.M = M
        self.quad = gauss_hermite(DEFAULT_ORDER[M]) if quad is None else quad
        self.z_nodes, self.z_weights = tensor_nodes(self.quad, M, halved=prior.sign_symmetric)
        self.values, self.logw = atom_grid(prior, M)
        self.weights = np.exp(self.logw)
        self.weighted_values = self.values * self.weights[:, None]
        # the rows 1, x_1, ..., x_M that weigh the Gibbs sums of value_and_moment
        self.moments = np.vstack([np.ones(len(self.values)), self.values.T])[:, None, :]

    def _exponents(self, Q, lam, sqrt_Q=None):
        """The exponent matrices A (..., K_x, Nz) and B (..., K_a, K_x) of the
        replica measure at the overlaps Q (..., M, M), at the SNR lam or one
        per overlap (np.sqrt gives math.sqrt's bits)."""
        if sqrt_Q is None:
            sqrt_Q = psd_sqrt(Q)
        V = self.values
        lam = np.asarray(lam)[..., None, None]
        A = (V @ (np.sqrt(lam) * sqrt_Q)) @ self.z_nodes.T
        G = V @ (lam * Q) @ V.T                                 # lam x0' Q x
        B = G - 0.5 * np.diagonal(G, axis1=-2, axis2=-1)[..., None, :] + self.logw
        return A, B

    def ln_partition(self, Q, lam, sqrt_Q=None):
        """E_{z,x0} ln ZM(Q) on the tensor grid; a float for one overlap, an
        array over the leading axes of a stack of them (which needs sqrt_Q)."""
        ln_z = gibbs_pass(lambda: self._exponents(Q, lam, sqrt_Q), self.moments[:1],
                          self.weights, self.z_weights)[0]
        return float(ln_z) if ln_z.ndim == 0 else ln_z

    def potential(self, Q, lam, sqrt_Q):
        """FM at each overlap of the stack Q (n, M, M) with roots sqrt_Q, at the
        SNR lam, or at each of a 1-d array of SNRs ((len(lam), n) out).  The
        (SNR, overlap) pairs run in parts of at most ``_budget.BATCH``
        elements per temporary, each part's slices gathered by index."""
        lams = np.reshape(lam, -1)
        n = len(Q)

        def run(part):
            i, j = np.divmod(np.arange(*part.indices(lams.size * n)), n)
            return self.ln_partition(Q[j], lams[i], sqrt_Q[j])

        size = pass_elements(len(self.weights), len(self.z_weights), 1)
        ln_z = batched(run, parts(lams.size * n, size)).reshape(lams.size, n)
        values = ln_z / self.M - lams[:, None] * np.sum(Q * Q, axis=(1, 2)) / (4.0 * self.M)
        return values if np.ndim(lam) else values[0]

    def _moments(self, Q, lam, sqrt_Q):
        """ln Z and E <x x0'> from one ``gibbs_pass`` on all M + 1 rows."""
        ln_z, mean_x = gibbs_pass(lambda: self._exponents(Q, lam, sqrt_Q), self.moments,
                                  self.weights, self.z_weights)
        return ln_z, (mean_x @ self.z_weights) @ self.weighted_values

    def value_and_moment(self, Q, lam, sqrt_Q=None):
        """E ln ZM(Q), bit-equal to ``ln_partition``, and E <x x0'> (M, M)
        from the same ``gibbs_pass`` on all M + 1 moment rows: a float and a
        matrix for one overlap; arrays (n,) and (n, M, M) for a stack of them
        with their roots sqrt_Q and SNRs lam (n,), in parts of at most BATCH
        elements per temporary."""
        if np.ndim(Q) == 2:
            ln_z, cross = self._moments(Q, lam, sqrt_Q)
            return float(ln_z), cross
        size = pass_elements(len(self.weights), len(self.z_weights), self.M + 1)
        return batched(lambda p: self._moments(Q[p], lam[p], sqrt_Q[p]), parts(len(Q), size))


def fm_rs(prior: Prior, M: int, Q, lam: float,
          quad: GaussQuadrature | None = None) -> PotentialEvaluation:
    """Rank-M potential at overlap Q, through both equivalent forms.

    Dimensions 1..3 on tensorized quadrature on ``quad`` (DEFAULT_ORDER[M]
    nodes per axis by default); the two stored values agree to machine
    precision.
    """
    _check_snr(lam)
    if not 1 <= M <= 3:
        raise ValueError("rank-M evaluation supports M in 1..3")
    Q = _check_overlap_matrix(Q, M)
    rho = prior.rho
    ws = _RankMWorkspace(prior, M, quad)
    sqrt_Q = psd_sqrt(Q)
    ln_z = ws.ln_partition(Q, lam, sqrt_Q)
    mi = mi_vector_signal(prior, math.sqrt(lam) * sqrt_Q, ws.quad)
    value_logz = ln_z / M - lam * float(np.trace(Q @ Q)) / (4.0 * M)
    value_mi = (-mi / M
                - lam * float(np.sum((Q - rho * np.eye(M)) ** 2)) / (4.0 * M)
                + lam * rho**2 / 4.0)
    return PotentialEvaluation(value_logz=value_logz, value_mi=value_mi,
                               lam=lam, overlap=Q)


def _project(S, hi=math.inf):
    """Euclidean projection of sym(S) onto {0 <= Q <= hi I}, for each matrix
    of a stack (..., M, M): clip the eigenvalues (Lewis 1996).  Returns the
    projections and their square roots."""
    if S.shape[-1] == 1:                # a 1x1 matrix is its own eigenvalue
        Q = np.minimum(np.maximum(S, 0.0), hi)
        return Q, np.sqrt(Q)
    eigval, eigvec = np.linalg.eigh((S + S.swapaxes(-1, -2)) / 2.0)
    eigval = np.minimum(np.maximum(eigval, 0.0), hi)[..., None, :]
    eigvec_t = eigvec.swapaxes(-1, -2)
    return (eigvec * eigval) @ eigvec_t, (eigvec * np.sqrt(eigval)) @ eigvec_t


def fm_fixed_point(prior: Prior, M: int, lam: float, Q0,
                   damping: float = 0.5, quad: GaussQuadrature | None = None,
                   tol: float = 1e-8, max_iter: int = 2_000) -> FixedPointResult:
    """Damped matrix fixed-point iteration from Q0 (symmetrize + PSD-project
    each step) on the workspace rule ``quad``.  Convergence is Frobenius
    residual / M <= tol."""
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must be in (0, 1]")
    if M > 3:
        raise ValueError("matrix fixed point supports M <= 3")
    Q, sqrt_Q = _check_overlap_matrix(Q0, M), None
    ws = _RankMWorkspace(prior, M, quad)
    iterations = 0
    while True:
        ln_z, cross = ws.value_and_moment(Q, lam, sqrt_Q)
        target = _project(cross)[0]
        residual = float(np.linalg.norm(Q - target, "fro")) / M
        if residual <= tol or iterations >= max_iter:
            break
        Q, sqrt_Q = _project((1.0 - damping) * Q + damping * target)
        iterations += 1
    value = ln_z / M - lam * float(np.sum(Q * Q)) / (4.0 * M)
    return FixedPointResult(overlap=Q, iterations=iterations, residual=residual,
                            converged=residual <= tol, potential_value=value)


def rotation_matrix(angles, M: int) -> np.ndarray:
    """Rotation from its angle coordinates: one angle for M=2, ZYZ Euler
    angles for M=3."""
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


def _domain_mask(d, row, sign_symmetric):
    """Whether the overlap matrices Q with diagonals d (..., M) and first rows
    row (..., M) lie in one fundamental domain of the symmetry group of FM.

    A product prior makes FM(P Q P') = FM(Q) for every coordinate permutation
    P, which a non-increasing diagonal breaks.  A sign-symmetric prior adds the
    sign flips D Q D; these keep the diagonal and are broken by a nonnegative
    first row off the diagonal.  Every orbit meets the domain: sort the
    diagonal, then flip each coordinate j > 0 with Q[0, j] < 0.
    """
    inside = np.all(d[..., :-1] >= d[..., 1:] - _DOMAIN_TOL, axis=-1)
    if sign_symmetric:
        inside &= np.all(row[..., 1:] >= -_DOMAIN_TOL, axis=-1)
    return inside


def _sums(X):
    """The sum of each matrix of a stack (n, M, M), as np.sum of it alone."""
    return np.add.reduce(X, axis=(-2, -1))


def _ascend(ws, lam, starts, rho, tol):
    """Projected gradient ascents of FM over {0 <= Q <= rho I} from each
    overlap of the stack starts (n, M, M), at the SNR lam or one per start.

    By the Nishimori identity the gradient is (lam / 2M) D with
    D = sym E<x x0'> - Q, so steps are measured in units of 2M / lam, at which
    a step is the fixed-point map Q -> E<x x0'>.  Each ascent starts at that
    unit step; later steps are Barzilai-Borwein, halved until FM rises
    (Armijo).  An ascent stops when the criticality certificate
    |Q - P(sym E<x x0'>)|_F / M is at most ``tol``, after SUP_STEPS steps, or
    when no halving raises FM.

    The ascents run in lockstep: in each round every running ascent makes one
    move, a certificate check and then a trial step or a halving, and all the
    trials of a round share one stacked ``value_and_moment``.  Each ascent's
    arithmetic is the one it makes alone, to the bit.  Returns the values
    (n,) and the end points (n, M, M).
    """
    M, n = ws.M, len(starts)
    lam = np.full(n, lam, dtype=float)

    def probe(lam, Q, sqrt_Q):
        ln_z, cross = ws.value_and_moment(Q, lam, sqrt_Q)
        return (ln_z / M - lam * _sums(Q * Q) / (4.0 * M),
                (cross + cross.swapaxes(-1, -2)) / 2.0 - Q)

    Q, sqrt_Q = _project(np.asarray(starts, dtype=float), rho)
    value, D = probe(lam, Q, sqrt_Q)
    end_value, end_Q = np.empty(n), np.empty_like(Q)
    # per running ascent: its start, step, steps taken and trials rejected
    # since its last move
    run, step, taken, fails = np.arange(n), np.ones(n), np.zeros(n, int), np.zeros(n, int)
    while True:
        # the fixed-point map's projection for the certificate, with the trial
        # step's; an ascent that has not moved since its last check keeps its
        # certificate, so only a move can meet it
        P, sqrt_P = _project(np.concatenate([Q + D, Q + step[:, None, None] * D]), rho)
        gap = (Q - P[:len(run)]).reshape(len(run), 1, M * M)
        cert = np.sqrt(gap @ gap.swapaxes(-1, -2))[:, 0, 0] / M
        done = (taken == SUP_STEPS) | (cert <= tol) | (fails == _HALVINGS)
        Q_new, sqrt_new = P[len(run):], sqrt_P[len(run):]
        if done.any():
            end_value[run[done]], end_Q[run[done]] = value[done], Q[done]
            keep = ~done
            run, lam, Q, D, value, step, taken, fails, Q_new, sqrt_new = (
                a[keep] for a in (run, lam, Q, D, value, step, taken, fails, Q_new, sqrt_new))
            if not run.size:
                return end_value, end_Q
        # one trial step each, halved after each rejection (Armijo); a move
        # takes the Barzilai-Borwein step next
        value_new, D_new = probe(lam, Q_new, sqrt_new)
        s, y = Q_new - Q, D - D_new
        moved = value_new >= value + _ARMIJO * lam / (2.0 * M) * _sums(D * s)
        sy = _sums(s * y)
        bb = sy > 0
        step = np.where(moved, np.where(bb, _sums(s * s), 1.0) / np.where(bb, sy, 1.0),
                        step / 2.0)
        taken, fails = taken + moved, np.where(moved, 0, fails + 1)
        value = np.where(moved, value_new, value)
        moved = moved[:, None, None]
        Q, D = np.where(moved, Q_new, Q), np.where(moved, D_new, D)


@lru_cache(maxsize=32)
def _sup_grid(M, rho, sign_symmetric):
    """fm_sup's coarse grid: the overlaps Q = O diag(q) O' of a product grid
    over eigenvalues and rotation angles that lie in one fundamental domain
    (``_domain_mask``), each distinct overlap once (rows equal to 9 decimals,
    first occurrence kept, in grid order).  Returns read-only (Q, sqrt Q)."""
    n_angle = SUP_ANGLES[M]
    eig_levels = np.linspace(0.0, rho, SUP_EIG_LEVELS[M])
    turn = np.linspace(0.0, 2 * math.pi, n_angle, endpoint=False)
    angle_grids = ([np.linspace(0.0, math.pi, n_angle, endpoint=False)] if M == 2
                   else [turn, np.linspace(0.0, math.pi, max(n_angle // 2, 3)), turn])
    eig_combos = np.array(list(itertools.combinations_with_replacement(eig_levels, M)))
    O = np.array([rotation_matrix(a, M) for a in itertools.product(*angle_grids)])
    # Q_ii = sum_m O_im^2 q_m and Q_0j = sum_m O_0m O_jm q_m decide the domain;
    # the full product O diag(q) O' is formed for the kept points only
    diag = np.einsum("rim,em->eri", O * O, eig_combos)                  # (E, R, M)
    row = np.einsum("rjm,em->erj", O[:, :1] * O, eig_combos)            # (E, R, M)
    e, r = np.nonzero(_domain_mask(diag, row, sign_symmetric))
    O = O[r]
    grid_Q = (O * eig_combos[e][:, None, :]) @ O.swapaxes(-1, -2)
    grid_sqrt = (O * np.sqrt(eig_combos[e])[:, None, :]) @ O.swapaxes(-1, -2)
    first = np.sort(np.unique(np.round(grid_Q.reshape(len(grid_Q), -1), 9), axis=0,
                              return_index=True)[1])
    grid_Q, grid_sqrt = grid_Q[first], grid_sqrt[first]
    grid_Q.setflags(write=False)
    grid_sqrt.setflags(write=False)
    return grid_Q, grid_sqrt


def fm_sup(prior: Prior, M: int, lam: float):
    """Supremum of the rank-M potential over PSD matrices with eigenvalues
    in [0, rho].

    Global coverage comes from a product grid over eigenvalues and rotation
    angles of Q = O diag(q) O', restricted to one fundamental domain of the
    potential's symmetry group (``_domain_mask``), plus the isotropic line.  The
    grid is built once per (M, rho, sign symmetry) and holds each distinct
    overlap once (``_sup_grid``); it is evaluated in batches, on a ln Z pass
    that sums its maxima outside the log, on one coarse rule of SUP_COARSE_ORDER
    nodes per axis at every M.  The best candidates, with rho I and rho/2 I,
    climb on that rule by projected gradient ascent (``_ascend``); the
    isotropic line and the best three climbs run at the default order.
    Returns ``(value, Q_star)``.
    """
    if M not in (2, 3):
        raise ValueError("the matrix supremum is implemented for M in {2, 3}")
    _check_snr(lam)
    rho = prior.rho
    ws = _RankMWorkspace(prior, M)
    coarse_ws = _RankMWorkspace(prior, M, gauss_hermite(SUP_COARSE_ORDER))
    grid_Q, grid_sqrt = _sup_grid(M, rho, prior.sign_symmetric)
    # the isotropic line (exactly decoupled; cheap at full accuracy)
    taus = np.linspace(0.0, rho, 65)[:, None, None]
    overlaps = np.concatenate([grid_Q, taus * np.eye(M)])
    vals = np.concatenate([coarse_ws.potential(grid_Q, lam, grid_sqrt),
                           ws.potential(taus * np.eye(M), lam, np.sqrt(taus) * np.eye(M))])
    # rho I and rho/2 I always ascend, since the ascent's first step is the
    # fixed-point map; a start that repeats an earlier one ascends once
    top = np.concatenate([overlaps[np.argsort(-vals, kind="stable")[:SUP_CANDIDATES]],
                          [rho * np.eye(M), rho / 2 * np.eye(M)]])
    first = np.unique(top.reshape(len(top), -1), axis=0, return_index=True)[1]
    values, ends = _ascend(coarse_ws, lam, top[np.sort(first)], rho, SUP_TOL[0])
    best = ends[np.argsort(-values, kind="stable")[:3]]
    values, ends = _ascend(ws, lam, best, rho, SUP_TOL[1])
    Q_star = ends[np.argmax(values)]
    # one evaluation at a finer grid removes most of the search quadrature bias
    polish_ws = _RankMWorkspace(prior, M, gauss_hermite(SUP_POLISH_ORDER[M]))
    best_val = float(polish_ws.potential(Q_star[None], lam, psd_sqrt(Q_star)[None])[0])
    # near-ties resolve to the zero matrix (noise floor around the origin)
    if 0.0 >= best_val - 1e-10:
        return 0.0, np.zeros((M, M))
    return best_val, Q_star


def phase_scan(prior: Prior, lambda_grid, quad: GaussQuadrature | None = None) -> PhaseScan:
    """Sweep the scalar supremum over a sorted SNR grid, in one rank-one
    search whose row at each SNR is ``f1_sup`` there, to the bit.

    The critical-point estimate is the grid cell with the largest jump of the
    maximizing overlap, reported as an interval and only when the jump exceeds
    ``PHASE_JUMP_TOL``; below that the curve is treated as transition-free.
    """
    lams = np.asarray(lambda_grid, dtype=float)
    if lams.size < 8:
        raise ValueError("need at least 8 SNR grid points")
    if not np.all(np.isfinite(lams)):
        raise ValueError("SNR grid must be finite")
    if np.any(np.diff(lams) <= 0):
        raise ValueError("SNR grid must be sorted increasing")
    _check_snr(lams[0])                 # the smallest SNR of the sorted grid
    values, q_stars, _ = _f1_sups(_RankMWorkspace(prior, 1, quad), lams)
    dq = np.gradient(q_stars, lams)
    jumps = np.abs(np.diff(q_stars))
    cell = int(np.argmax(jumps))
    jump_size = float(jumps[cell])
    jump_cell = (float(lams[cell]), float(lams[cell + 1])) if jump_size > PHASE_JUMP_TOL else None
    return PhaseScan(lambdas=lams, q_star=q_stars, value=values, dq_dlambda=dq,
                     jump_cell=jump_cell)
