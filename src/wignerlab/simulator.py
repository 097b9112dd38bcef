"""Finite-size spiked matrix instances and exact Bayes posteriors.

An instance observes Y = sqrt(lam/N) X0 X0' + Z with X0 (N x M) drawn i.i.d.
from a discrete prior and Z a symmetric Gaussian noise matrix (variance 2 on
the diagonal, 1 off it).  The log-likelihood of a candidate signal X is

    H_N(X) = (1/2) Tr( sqrt(lam/N) Z X X' + (lam/N) X0 X0' X X'
                       - (lam/2N) X X' X X' ),

optionally augmented by a side Gaussian channel of strength eps acting
entrywise on the signal,

    H^eps(X) = H_{N+1}(X) + Tr( sqrt(eps) X' Zt + eps X' X0 - (eps/2) X' X ),

where H_{N+1} evaluates the base Hamiltonian with coupling normalizer N+1 on
the same N x M spins.  For discrete priors all posterior quantities are
computed exactly by enumerating the k^(N M) configurations in one pass.  H is
quadratic in the rows, so splitting them into two blocks A and B makes
H(a, b) = h_A(a) + h_B(b) + u_A(a).v_B(b): per-block configuration tables are
built once per (prior, block shape) and reused, and the Gibbs weights come
from one stacked matrix product per A-chunk, visited in a fixed order
(log-sum-exp rescaled to each replicate's running maximum).

Disorder averages are Monte Carlo over (X0, Z, Zt) draws, in chunks sized by
the master draw; the kernel sizes its parts of replicates by its own
temporaries (both by ``_budget.parts``).  Replicate r draws from its own
stream (seed, tag, r), re-keyed from a chunk of hashed keys (``rng.streams``),
and every product is the replicate's own (a stacked matmul multiplies each
item on its own), so its value is bit-identical however replicates are chunked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import rng as rngmod
from ._budget import batched, parts
from .priors import Prior, quantile

__all__ = [
    "BudgetError",
    "ModelInstance",
    "PerturbationParams",
    "PosteriorSummary",
    "sample_instance",
    "replicate_cuts",
    "free_entropy_mc",
    "free_entropy_replicates",
    "posterior_replicates",
    "overlap_concentration",
    "instance_to_json",
    "instance_from_json",
]

ENUM_BUDGET_BITS = 24          # enumeration cap: k^(N M) <= 2^24

TAG_INSTANCE = rngmod.tag("instance")
TAG_SIM = rngmod.tag("simulate")
TAG_PERT = rngmod.tag("perturbation")


class BudgetError(ValueError):
    """Enumeration budget k^(N M) <= 2^24 would be exceeded."""


@dataclass(frozen=True)
class ModelInstance:
    N: int
    M: int
    lam: float
    X0: np.ndarray
    Z: np.ndarray
    Y: np.ndarray
    seed: int


@dataclass(frozen=True)
class PerturbationParams:
    """Side-channel strength and its Gaussian coupling matrix (N x M, or a
    (b, N, M) stack for a batch of replicates)."""

    epsilon: float
    Ztilde: np.ndarray

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("perturbation strength must be nonnegative")


@dataclass(frozen=True)
class PosteriorSummary:
    log_partition: float
    free_entropy: float           # log_partition / (N M)
    mean_overlap: np.ndarray      # <R10>, M x M
    overlap_fluct: float          # <|R10 - <R10>|_F^2>
    matrix_mmse: float            # |X0 X0' - <X X'>|_F^2 / (N^2 M)
    config_count: int


def _symmetric(G: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Wigner noise from the strict upper triangle of G (..., n, n) and the
    diagonal sqrt(2) d (..., n)."""
    upper = np.triu(G, 1)
    Z = upper + upper.swapaxes(-1, -2)
    i = np.arange(G.shape[-1])
    Z[..., i, i] = math.sqrt(2.0) * d
    return Z


def _draw_wigner(rng: np.random.Generator, n: int) -> np.ndarray:
    G = rng.standard_normal((n, n))
    return _symmetric(G, rng.standard_normal(n))


def _draw_signal(prior: Prior, rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    return quantile(prior, rng.random((n, m)))


def sample_instance(prior: Prior, N: int, M: int, lam: float, seed: int) -> ModelInstance:
    """Draw one instance; bit-identical on repeat for a fixed seed."""
    if N < 1 or M < 1:
        raise ValueError("dimensions must be positive")
    if lam < 0:
        raise ValueError("SNR must be nonnegative")
    rng = rngmod.stream(seed, TAG_INSTANCE)
    X0 = _draw_signal(prior, rng, N, M)
    Z = _draw_wigner(rng, N)
    Y = math.sqrt(lam / N) * (X0 @ X0.T) + Z
    return ModelInstance(N=N, M=M, lam=lam, X0=X0, Z=Z, Y=Y, seed=seed)


# ---------------------------------------------------------------------------
# exact posterior by enumeration
# ---------------------------------------------------------------------------

def _check_budget(prior: Prior, shapes):
    """Raise BudgetError naming every (n, m) of ``shapes`` whose k^(n m)
    configurations exceed 2^ENUM_BUDGET_BITS."""
    over = sorted({(n, m) for n, m in shapes
                   if n * m * math.log2(prior.n_atoms) > ENUM_BUDGET_BITS + 1e-9})
    if over:
        raise BudgetError(f"enumeration of {prior.n_atoms}^(n m) configurations exceeds "
                          f"the 2^{ENUM_BUDGET_BITS} budget at (n, m) = {over}")


@dataclass(frozen=True)
class _BlockTable:
    """Every configuration of an n x M block with its instance-free features;
    n = 0 has one configuration, the empty block, with phi = [0, 0]."""

    X: np.ndarray        # (C, n M) entries, row-major; first entry varies slowest
    G: np.ndarray        # (C, M^2) vec(X' X)
    phi: np.ndarray      # (C, n^2 + n M + 2): [vec(X X'), vec(X), ln W, |X' X|_F^2]


@lru_cache(maxsize=32)
def _block_table(values: bytes, weights: bytes, n: int, M: int) -> _BlockTable:
    v, w = np.frombuffer(values), np.frombuffer(weights)
    d = n * M
    idx = np.indices((v.size,) * d).reshape(d, v.size ** d).T
    X = v[idx]
    Xr = X.reshape(len(X), n, M)
    XX = np.matmul(Xr, Xr.transpose(0, 2, 1)).reshape(len(X), n * n)
    G = np.matmul(Xr.transpose(0, 2, 1), Xr).reshape(len(X), M * M)
    phi = np.column_stack([XX, X, np.log(w)[idx].sum(axis=1), np.sum(G * G, axis=1)])
    for a in (X, G, phi):
        a.setflags(write=False)
    return _BlockTable(X=X, G=G, phi=phi)


def _coefficients(lam: float, X0, Z, pert: PerturbationParams | None):
    """The Hamiltonians of the disorders (X0, Z) (b, N, M) and (b, N, N) as
    (Zeff, X0, t, C) in the form of ``_split_block``; the side channel's
    -eps |X|^2 / 2 joins Zeff."""
    N = X0.shape[1]
    d = N if pert is None else N + 1
    Zeff = math.sqrt(lam / d) * Z
    if pert is None:
        return Zeff, X0, lam / d, np.zeros(X0.shape)
    eps = pert.epsilon
    return (Zeff - eps * np.eye(N), X0, lam / d, math.sqrt(eps) * pert.Ztilde + eps * X0)


def _each(v, A):
    """Row i of v (b, n) times A (n, p), each as its own vector product, so
    that a row's value does not depend on the batch it is evaluated in."""
    return (v[:, None, :] @ A)[:, 0]


def _split_block(prior: Prior, Zeff, X0, t: float, C, moments: bool = False):
    """ln Z = ln sum_X W(X) exp H(X) over all k^(N M) configurations of

        H(X) = Tr(X' Zeff X) / 2 + t |X' X0|_F^2 / 2 - t |X' X|_F^2 / 4 + <X, C>,

    for each of b replicates: Zeff is (b, N, N), X0 and C are (b, N, M), and
    ln Z is (b,).  With ``moments`` also the Gibbs averages <X> (b, N, M) and
    <X X'> (b, N, N).

    The rows split into A (the first ceil(N/2)) and B (the rest, possibly
    none), and H(a, b) = h_A(a) + h_B(b) + u_A(a).v_B(b) with features
    [Zeff_BA X_A, X_A' X0_A, X_A' X_A] against [X_B, t X_B' X0_B,
    -t X_B' X_B / 2].  Each A-chunk of at most BATCH Gibbs weights E, in a
    fixed order, is one stacked product U @ V and one exp-sum, rescaled to each
    replicate's running maximum.  The replicates run in parts sized by E, U
    and V, in buffers taken once per call.  Every product is per replicate, so
    a replicate's value does not depend on b.
    """
    b, N, M = X0.shape
    if N == 1 and M > 1:
        # x' x0 and x' x have rank one, so H depends on x only through |x|^2
        # and <x, C>: the same form for the M x 1 matrix x' without a signal
        z_diag = Zeff[:, 0, 0] + t * np.einsum("bm,bm->b", X0[:, 0], X0[:, 0])
        out = _split_block(prior, z_diag[:, None, None] * np.eye(M), np.zeros((b, M, 1)), t,
                           C.transpose(0, 2, 1), moments)
        if not moments:
            return out
        log_z, mean_x, mean_xxt = out
        return (log_z, mean_x.transpose(0, 2, 1),
                np.trace(mean_xxt, axis1=1, axis2=2)[:, None, None])
    nA, nB = (N + 1) // 2, N // 2
    key = (prior.values.tobytes(), prior.weights.tobytes())
    ta, tb = _block_table(*key, nA, M), _block_table(*key, nB, M)
    ca, cb = len(ta.X), len(tb.X)
    chunks = parts(ca, cb)
    rows = chunks[0].stop
    # U = [u_A | X_A' X_A, h_A, 1] against V = [v_B | -t X_B' X_B / 2, 1, h_B]
    f, width = nB * M + M * M, nB * M + 2 * M * M + 2
    split = parts(b, max(rows * cb, max(rows, cb) * width))     # E, U and V per replicate
    U, V, E = (np.empty((split[0].stop, *s)) for s in ((rows, width), (cb, width), (rows, cb)))
    U[..., -1] = 1.0
    V[..., :nB * M], V[..., f:-2], V[..., -2] = tb.X, (-0.5 * t) * tb.G, 1.0
    eye = np.eye(M)

    def run(Zeff, X0, C):
        b = len(X0)
        K = 0.5 * Zeff + (0.5 * t) * (X0 @ X0.transpose(0, 2, 1))
        tail = np.broadcast_to([1.0, -0.25 * t], (b, 2))
        h_a, h_b = (_each(np.concatenate([K[:, s, s].reshape(b, -1), C[:, s].reshape(b, -1), tail],
                                         axis=1), table.phi.T)
                    for s, table in ((slice(nA), ta), (slice(nA, N), tb)))
        Q = (X0[:, :, None, None, :] * eye[:, :, None]).reshape(b, N * M, M * M)  # X Q = vec(X' X0)
        kron = (Zeff[:, :nA, None, nA:, None] * eye[:, None, :]).reshape(b, nA * M, nB * M)
        L_a = np.concatenate([kron, Q[:, :nA * M]], axis=2)
        v = V[:b]
        np.matmul(tb.X, Q[:, nA * M:], out=v[..., nB * M:f])
        v[..., nB * M:f] *= t
        v[..., -1] = h_b
        top, z = np.full(b, -np.inf), np.zeros(b)
        if moments:
            r_all, col, cross = np.empty((b, ca)), np.zeros((b, cb)), np.zeros((b, nA * M, nB * M))
        for a in chunks:
            Xa, e, u = ta.X[a], E[:b, :a.stop - a.start], U[:b, :a.stop - a.start]
            np.matmul(Xa, L_a, out=u[..., :f])
            u[..., f:-2], u[..., -2] = ta.G[a], h_a[:, a]
            np.matmul(u, v.transpose(0, 2, 1), out=e)  # H + ln W over this A-chunk x all of B
            m = e.max(axis=(1, 2))
            e -= m[:, None, None]
            np.exp(e, out=e)
            r = e.sum(axis=2)
            peak = np.maximum(top, m)
            top, old, new = peak, np.exp(top - peak), np.exp(m - peak)
            z = z * old + r.sum(axis=1) * new
            if moments:
                r_all[:, :a.start] *= old[:, None]
                r_all[:, a] = r * new[:, None]
                col = col * old[:, None] + e.sum(axis=1) * new[:, None]
                cross = cross * old[:, None, None] + (Xa.T @ (e @ tb.X)) * new[:, None, None]
        log_z = top + np.log(z)
        if not moments:
            return log_z
        mean_a = _each(r_all / z[:, None], ta.phi[:, :nA * nA + nA * M])   # [vec(X X'), vec(X)]
        mean_b = _each(col / z[:, None], tb.phi[:, :nB * nB + nB * M])
        mean_x = np.concatenate([mean_a[:, nA * nA:], mean_b[:, nB * nB:]], axis=1)
        ab = np.trace((cross / z[:, None, None]).reshape(b, nA, M, nB, M), axis1=2, axis2=4)
        mean_xxt = np.block([[mean_a[:, :nA * nA].reshape(b, nA, nA), ab],
                             [ab.transpose(0, 2, 1), mean_b[:, :nB * nB].reshape(b, nB, nB)]])
        return log_z, mean_x.reshape(b, N, M), mean_xxt

    return batched(lambda p: run(Zeff[p], X0[p], C[p]), split)


def _log_partition(prior: Prior, lam: float, X0, Z,
                   pert: PerturbationParams | None) -> np.ndarray:
    """ln Z of each replicate in the batch (X0, Z) (b, N, M) and (b, N, N)."""
    return _split_block(prior, *_coefficients(lam, X0, Z, pert))


def _posterior(prior: Prior, lam: float, X0, Z,
               pert: PerturbationParams | None) -> list[PosteriorSummary]:
    """Exact posterior summaries of each replicate in the batch (X0, Z).

    ``pert=None`` uses the base Hamiltonian H_N; otherwise the side-channel
    form with the N+1 coupling normalizer.  One split-block pass gives ln Z,
    <X> and <X X'>; the overlap moments follow from <R> = <X>' X0 / N and
    <|R|_F^2> = <X X', X0 X0'> / N^2.
    """
    _, N, M = X0.shape
    _check_budget(prior, [(N, M)])
    log_z, mean_x, mean_xxt = _split_block(prior, *_coefficients(lam, X0, Z, pert),
                                           moments=True)
    truth = X0 @ X0.transpose(0, 2, 1)
    mean_R = mean_x.transpose(0, 2, 1) @ X0 / N
    mean_R2 = (truth * mean_xxt).sum(axis=(1, 2)) / (N * N)
    fluct = np.maximum(mean_R2 - (mean_R * mean_R).sum(axis=(1, 2)), 0.0)
    mmse = ((truth - mean_xxt) ** 2).sum(axis=(1, 2)) / (N * N * M)
    return [PosteriorSummary(log_partition=lz, free_entropy=lz / (N * M), mean_overlap=R,
                             overlap_fluct=f, matrix_mmse=e, config_count=prior.n_atoms ** (N * M))
            for lz, R, f, e in zip(log_z.tolist(), mean_R, fluct.tolist(), mmse.tolist())]


# ---------------------------------------------------------------------------
# disorder averages
# ---------------------------------------------------------------------------

def _disorder(prior: Prior, shape, tag: int, seed: int, part: slice):
    """Replicate disorder (X0, Z, Ztilde) at the master ``shape`` (n, m) for
    the replicates of ``part``: arrays (b, n, m), (b, n, n) and (b, n, m).
    Replicate r is drawn from the counter-based stream (seed, tag, r), however
    it is chunked; callers evaluate top-left blocks, so every system size cut
    from one master shares its random numbers."""
    n, m = shape
    r = range(part.start, part.stop)
    U, W = np.empty((len(r), n, m)), np.empty((len(r), n * n + n + n * m))
    for i, rng in enumerate(rngmod.streams(seed, tag, r=r)):
        rng.random(out=U[i])
        rng.standard_normal(out=W[i])   # one call draws G, d and Ztilde in turn
    G, d, Zt = W[:, :n * n], W[:, n * n:n * n + n], W[:, n * n + n:]
    return quantile(prior, U), _symmetric(G.reshape(-1, n, n), d), Zt.reshape(-1, n, m)


def replicate_cuts(prior: Prior, lam: float, shape, cuts, tag: int, seed: int,
                   replicates: int, posterior: bool = False) -> list:
    """Evaluate every cut (n, m, eps) of each replicate's master disorder.

    Replicate r draws its master (X0, Z, Ztilde) of ``shape`` (None: the
    smallest holding every cut) once, from the stream (seed, tag, r), and each
    cut evaluates its top-left n x m block, so all cuts share their random
    numbers.  eps None is the base Hamiltonian H_n; a float, 0.0 included, is
    the side channel of that strength with the n+1 normalizer.  Returns one
    (replicates,) array of ln Z per cut, or with ``posterior`` one list of
    PosteriorSummary per cut.
    """
    _check_budget(prior, [(n, m) for n, m, _ in cuts])
    need = (max(n for n, _, _ in cuts), max(m for _, m, _ in cuts))
    shape = need if shape is None else shape
    if shape[0] < need[0] or shape[1] < need[1]:
        raise ValueError("master shape smaller than requested system")
    evaluate = _posterior if posterior else _log_partition
    out = [[] for _ in cuts]
    for part in parts(replicates, shape[0] * (shape[0] + 2 * shape[1])):   # X0, Z, Ztilde
        X0, Z, Zt = _disorder(prior, shape, tag, seed, part)
        for acc, (n, m, eps) in zip(out, cuts):
            pert = None if eps is None else PerturbationParams(epsilon=eps, Ztilde=Zt[:, :n, :m])
            acc.append(evaluate(prior, lam, X0[:, :n, :m], Z[:, :n, :n], pert))
    return [[s for chunk in acc for s in chunk] if posterior else np.concatenate(acc)
            for acc in out]


def free_entropy_replicates(prior: Prior, N: int, M: int, lam: float, *,
                            epsilon: float = 0.0, replicates: int, seed: int,
                            master=None) -> np.ndarray:
    """Per-replicate free entropies ln Z / (N M).

    epsilon = 0 evaluates the base Hamiltonian H_N; epsilon > 0 the
    side-channel form (N+1 normalizer).  Replicate r uses the counter-based
    stream (seed, simulate-tag, r) regardless of execution order; with
    ``master=(n_big, m_big)`` it evaluates the top-left N x M block of a
    master draw, giving common random numbers across system sizes.
    """
    cut = (N, M, None if epsilon == 0.0 else epsilon)
    return replicate_cuts(prior, lam, master, [cut], TAG_SIM, seed, replicates)[0] / (N * M)


def _need_two(replicates: int):
    if replicates < 2:
        raise ValueError("a standard error needs at least 2 replicates")


def free_entropy_mc(prior: Prior, N: int, M: int, lam: float, epsilon: float,
                    replicates: int, seed: int):
    """Disorder-averaged free entropy and its standard error."""
    _need_two(replicates)
    vals = free_entropy_replicates(prior, N, M, lam, epsilon=epsilon,
                                   replicates=replicates, seed=seed)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(replicates))


def posterior_replicates(prior: Prior, N: int, M: int, lam: float, *,
                         epsilon: float = 0.0, replicates: int, seed: int,
                         master=None) -> list[PosteriorSummary]:
    """Full posterior summaries over disorder replicates (common streams with
    free_entropy_replicates for identical parameters)."""
    cut = (N, M, None if epsilon == 0.0 else epsilon)
    return replicate_cuts(prior, lam, master, [cut], TAG_SIM, seed, replicates,
                          posterior=True)[0]


def overlap_concentration(prior: Prior, N: int, M: int, lam: float, s_N: float,
                          n_eps: int, replicates: int, seed: int):
    """Average posterior overlap fluctuation over eps in [s_N, 2 s_N].

    Midpoint rule on an n_eps grid, one common disorder draw per replicate
    across the grid.  Returns (estimate, std_err, Gamma) with the concentration
    scale Gamma = M^2 / sqrt(N s_N).
    """
    if n_eps < 2:
        raise ValueError("need at least 2 grid points for the eps average")
    if s_N <= 0:
        raise ValueError("schedule value s_N must be positive")
    _need_two(replicates)
    eps_grid = s_N * (1.0 + (np.arange(n_eps) + 0.5) / n_eps)
    runs = replicate_cuts(prior, lam, (N, M), [(N, M, float(e)) for e in eps_grid], TAG_PERT,
                          seed, replicates, posterior=True)
    vals = np.mean([[s.overlap_fluct for s in run] for run in runs], axis=0)
    gamma = M**2 / math.sqrt(N * s_N)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(replicates)), gamma


def perturbation_gap_replicates(prior: Prior, N: int, M: int, lam: float,
                                s_N: float, replicates: int, seed: int) -> np.ndarray:
    """Per-replicate perturbed-minus-base free entropy at eps = s_N.

    Replicate r always sees the same (X0, Z, Ztilde) for a given seed, so gaps
    at different s_N values pair up for common-random-number differences.
    """
    if s_N < 0:
        raise ValueError("schedule value must be nonnegative")
    side, base = replicate_cuts(prior, lam, (N, M), [(N, M, s_N), (N, M, None)], TAG_PERT,
                                seed, replicates)
    return side / (N * M) - base / (N * M)


# ---------------------------------------------------------------------------
# portable serialization: JSON header + CSV matrix blocks
# ---------------------------------------------------------------------------

def instance_to_json(instance: ModelInstance, prior_label: str = "") -> str:
    import json

    def csv_block(mat):
        return "\n".join(",".join(repr(float(x)) for x in row)
                         for row in np.atleast_2d(mat))

    return json.dumps({
        "header": {"N": instance.N, "M": instance.M, "lambda": instance.lam,
                   "seed": instance.seed, "prior": prior_label},
        "X0": csv_block(instance.X0),
        "Z": csv_block(instance.Z),
        "Y": csv_block(instance.Y),
    })


def instance_from_json(text: str) -> ModelInstance:
    import json

    obj = json.loads(text)
    h = obj["header"]

    def mat(block):
        return np.array([[float(x) for x in line.split(",")]
                         for line in block.splitlines()])

    return ModelInstance(N=h["N"], M=h["M"], lam=h["lambda"], X0=mat(obj["X0"]),
                         Z=mat(obj["Z"]), Y=mat(obj["Y"]), seed=h["seed"])
