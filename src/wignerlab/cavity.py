"""Multiscale cavity bookkeeping: growing both the spin and the rank index.

A dimension schedule couples the rank to the system size through
m_n = floor(alpha n^gamma).  The free-entropy table stores one Monte Carlo
estimate of E ln Z per (n, m) pair required by the schedule, each computed
once and reused in every difference, so the telescoping identity

    sum_{n=T}^{N-1} (dN(n) + dM(n)) = L(N, m_N) - L(T, m_T),
    dN(n) = L(n+1, m_{n+1}) - L(n, m_{n+1}),
    dM(n) = L(n, m_{n+1}) - L(n, m_n),

holds in floating arithmetic even though each entry is a noisy estimate.  The
normalized increments dN/m and dM/n both approach the scalar potential
supremum, and their convex combination with weights

    w_N = sum_n m_n / (N M),   w_M = sum_m n_m / (N M)
    (-> 1/(1+gamma) and gamma/(1+gamma))

reconstructs the table's own free entropy.

Disorder draws use common random numbers (``simulator.replicate_cuts``): each
replicate draws one master (X0, Z, Ztilde) at the largest size and every
(n, m) entry evaluates its top-left blocks, which makes the increments
differences of correlated estimates with small pooled errors.

The results are the CSV tables themselves: the fields of ``CavityIncrements``
are the columns of ``cavity_increments.csv``, one row per step, and those of
``CavityReport`` the one row of ``cavity_report.csv``, in order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import rng as rngmod
from .priors import Prior
from .replica import f1_sup
from .simulator import _mean_se, _need_two, replicate_cuts

__all__ = [
    "DimensionSchedule",
    "FreeEntropyTable",
    "CavityIncrements",
    "CavityReport",
    "dims_schedule",
    "cavity_weights",
    "required_entries",
    "build_table",
    "increments",
    "telescoping_check",
    "cavity_report",
]

TAG_CAVITY = rngmod.tag("cavity")


@dataclass(frozen=True)
class DimensionSchedule:
    """Rank-vs-size coupling m_n = floor(alpha n^gamma) with its inverse."""

    alpha: float
    gamma: float
    n_max: int
    m_of_n: np.ndarray                  # index n = 0..n_max

    def rank_at(self, n: int) -> int:
        return int(self.m_of_n[n])

    @cached_property
    def n_of_m(self) -> np.ndarray | None:
        """Index m = 0..m_of_n[n_max]; None if gamma = 0.  Built on first use,
        so a rank far past the enumeration budget costs nothing until then."""
        if self.gamma == 0:
            return None
        m = np.arange(self.m_of_n[-1] + 1, dtype=float)
        return np.floor(m ** (1.0 / self.gamma) / self.alpha + 1e-9).astype(np.int64)


def dims_schedule(alpha: float, gamma: float, n_max: int) -> DimensionSchedule:
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    n = np.arange(n_max + 1, dtype=float)
    # tolerance so that exact integer powers (e.g. 2 * 27^(1/3)) floor correctly
    with np.errstate(over="ignore"):
        ranks = alpha * n**gamma + 1e-9
    if not ranks[-1] <= 2.0**53:                # inf included
        raise ValueError(f"rank floor(alpha * n_max^gamma) = {ranks[-1]:g} at n_max = "
                         f"{n_max} is above 2^53, where floats stop being exact integers")
    m_of_n = np.floor(ranks).astype(np.int64)
    if np.any(np.diff(m_of_n) < 0):
        raise ValueError("rank schedule must be nondecreasing")
    return DimensionSchedule(alpha=alpha, gamma=gamma, n_max=n_max, m_of_n=m_of_n)


def _index_sums(schedule: DimensionSchedule, N: int, T: int):
    """sum_{n=T}^{N-1} m_n and sum_{m=m_T}^{m_(N-1)} n_m (0.0 at gamma = 0)."""
    if not 0 <= T < N <= schedule.n_max:
        raise ValueError("need 0 <= T < N <= n_max")
    if schedule.rank_at(N) < 1:
        raise ValueError("rank at N must be at least 1")
    sum_m = float(schedule.m_of_n[T:N].sum())
    if schedule.gamma == 0:
        return sum_m, 0.0
    return sum_m, float(schedule.n_of_m[schedule.rank_at(T):schedule.rank_at(N - 1) + 1].sum())


def cavity_weights(schedule: DimensionSchedule, N: int, T: int):
    """The two normalized index sums (w_N, w_M); they approach
    1/(1+gamma) and gamma/(1+gamma) as N grows."""
    return tuple(s / (N * schedule.rank_at(N)) for s in _index_sums(schedule, N, T))


@dataclass
class FreeEntropyTable:
    """Single-evaluation store of E ln Z estimates keyed by (n, m)."""

    entries: dict                         # (n, m) -> (L, std_err, replicates)
    replicate_values: dict = field(default_factory=dict)   # (n, m) -> array (R,)

    def value(self, n: int, m: int) -> float:
        if n == 0 or m == 0:
            return 0.0                    # empty spin system: ln Z = 1's log
        if (n, m) not in self.entries:
            raise KeyError(f"free-entropy table is missing entry {(n, m)}")
        return self.entries[(n, m)][0]

    def replicate(self, n: int, m: int) -> np.ndarray:
        """Per-replicate ln Z of entry (n, m); zeros for an empty system."""
        some = next(iter(self.replicate_values.values()), None)
        empty = n == 0 or m == 0
        if some is None or not empty and (n, m) not in self.replicate_values:
            raise ValueError("report statistics need per-replicate table values")
        return np.zeros_like(some) if empty else self.replicate_values[(n, m)]


class CavityIncrements(NamedTuple):
    """The columns of cavity_increments.csv, one row per step n = T .. N-1."""

    n: np.ndarray
    delta_N: np.ndarray
    delta_M: np.ndarray
    delta_N_norm: np.ndarray              # dN(n) / m_{n+1}; its gap is this - f1_sup
    delta_M_norm: np.ndarray              # dM(n) / n at rank steps with n > 0, else 0
    rank_step: np.ndarray                 # bool: m_{n+1} > m_n


class CavityReport(NamedTuple):
    """The one row of cavity_report.csv."""

    f1_sup: float
    w_N: float
    w_M: float
    combined: float                       # w_N * avg(dN/m) + w_M * avg(dM/n)
    combined_se: float
    table_free_entropy: float             # L(N, m_N) / (N m_N)
    table_free_entropy_se: float
    diff: float                           # combined - table free entropy
    diff_se: float
    plain_combined: float                 # same with unweighted per-step means
    plain_diff: float
    telescoping_residual: float


def _steps(value, schedule: DimensionSchedule, T: int, N: int):
    """The increments dN(n) = L(n+1, m_(n+1)) - L(n, m_(n+1)) and dM(n) =
    L(n, m_(n+1)) - L(n, m_n) for n = T .. N-1, read from the entries
    value(n, m), one row per step, and the mask of rank steps m_(n+1) > m_n;
    dM is +0.0 where the rank holds."""
    m = schedule.m_of_n
    d_n, d_m, rank_step = [], [], []
    for n in range(T, N):
        m_next, m_here = int(m[n + 1]), int(m[n])
        base = value(n, m_next)
        d_n.append(value(n + 1, m_next) - base)
        rank_step.append(m_next > m_here)
        d_m.append(base - value(n, m_here) if rank_step[-1] else np.zeros_like(base))
    return np.array(d_n), np.array(d_m), np.array(rank_step, dtype=bool)


def required_entries(schedule: DimensionSchedule, T: int = 0) -> list:
    """All (n, m) pairs the increments on [T, n_max-1] read (nonzero sizes):
    (T, m_T) and each step's (n, m_(n+1)) and (n+1, m_(n+1)), its (n, m_n) among them."""
    m = schedule.m_of_n.tolist()
    need = {(T, m[T])}.union(*({(n, m[n + 1]), (n + 1, m[n + 1])}
                               for n in range(T, schedule.n_max)))
    return sorted((n, k) for n, k in need if n > 0 and k > 0)


def build_table(prior: Prior, lam: float, schedule: DimensionSchedule,
                epsilon: float | None, replicates: int, seed: int,
                T: int = 0) -> FreeEntropyTable:
    """Monte Carlo free-entropy table over the schedule's required entries.

    ``epsilon=None`` evaluates the base Hamiltonian; a float, 0.0 included,
    evaluates the side-channel form at that strength (N+1 normalizer).  Every
    entry is estimated once, from the same master disorder per replicate, and
    carries a standard error, so at least 2 replicates are needed.
    """
    _need_two(replicates)
    need = required_entries(schedule, T)
    acc = dict(zip(need, replicate_cuts(prior, lam, None, [(n, m, epsilon) for n, m in need],
                                        TAG_CAVITY, seed, replicates)))
    entries = {key: (*_mean_se(vals), replicates) for key, vals in acc.items()}
    return FreeEntropyTable(entries=entries, replicate_values=acc)


def increments(table: FreeEntropyTable, schedule: DimensionSchedule,
               T: int = 0) -> CavityIncrements:
    """Both increment sequences, assembled from stored values only."""
    m = schedule.m_of_n
    ns = np.arange(T, schedule.n_max)
    d_n, d_m, steps = _steps(table.value, schedule, T, schedule.n_max)
    norm_n = np.where(m[ns + 1] > 0, d_n / np.maximum(m[ns + 1], 1), 0.0)
    norm_m = np.where(steps & (ns > 0), d_m / np.maximum(ns, 1), 0.0)
    return CavityIncrements(ns, d_n, d_m, norm_n, norm_m, steps)


def telescoping_check(table: FreeEntropyTable, schedule: DimensionSchedule,
                      T: int, N: int) -> float:
    """|sum of increments - (L(N, m_N) - L(T, m_T))|; machine-zero on any
    complete table."""
    if not 0 <= T <= N <= schedule.n_max:
        raise ValueError("need 0 <= T <= N <= n_max")
    if T == N:
        return 0.0
    d_n, d_m, _ = _steps(table.value, schedule, T, N)
    total = 0.0
    for a, b in zip(d_n.tolist(), d_m.tolist()):
        total = total + a + b           # left to right: sum() of floats is compensated
    direct = table.value(N, schedule.rank_at(N)) - table.value(T, schedule.rank_at(T))
    return abs(total - direct)


def cavity_report(prior: Prior, lam: float, schedule: DimensionSchedule,
                  table: FreeEntropyTable, T: int = 0) -> CavityReport:
    """Compare normalized increments against the scalar supremum and the
    weighted increment combination against the table's own free entropy.

    The combined statistic is w_N * avg_N + w_M * avg_M where the averages are
    normalized by the same index sums that define the weights (sum m_n and
    sum n_m), the finite-N form in which the convex-combination identity is
    sharp.  The unweighted per-step means are reported alongside as
    ``plain_combined``; at desk scale they carry the spread of the early
    increments and are diagnostic only.  All statistics are evaluated per
    replicate (common random numbers), so differences carry pooled errors.

    The identity holds by algebra: w_N * avg_N = sum dN / (N m_N) and
    w_M * avg_M = sum dM / (N m_N), so by telescoping ``combined`` is
    (L(N, m_N) - L(T, m_T)) / (N m_N) per replicate whatever the table holds,
    and ``diff`` is -L(T, m_T) / (N m_N): rounding at T = 0, a fixed offset at
    T > 0.  It checks the bookkeeping, not the estimates in the table.
    """
    m = schedule.m_of_n
    N = schedule.n_max
    M = int(m[N])
    ns = np.arange(T, N)
    w_n, w_m = cavity_weights(schedule, N, T)
    sum_m, sum_nm = _index_sums(schedule, N, T)

    f_tilde = table.replicate(N, M) / (N * M)
    # per-replicate increments, one row per step; dM/n only at rank steps with n > 0
    d_n, d_m, rank_step = _steps(table.replicate, schedule, T, N)
    ranked = rank_step & (ns > 0)
    comb = w_n * (np.sum(d_n, axis=0) / sum_m)
    plain = w_n * np.mean(d_n / np.maximum(m[ns + 1], 1)[:, None], axis=0)
    if ranked.any():
        comb = comb + w_m * np.sum(d_m[ranked], axis=0) / sum_nm
        plain = plain + w_m * np.mean(d_m[ranked] / ns[ranked][:, None], axis=0)
    return CavityReport(f1_sup(prior, lam)[0], w_n, w_m, *_mean_se(comb), *_mean_se(f_tilde),
                        *_mean_se(comb - f_tilde), float(np.mean(plain)),
                        float(np.mean(plain - f_tilde)),
                        telescoping_check(table, schedule, T, N))
