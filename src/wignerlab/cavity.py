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

Disorder draws use common random numbers: each replicate draws one master
(X0, Z, Ztilde) at the largest size and every (n, m) entry evaluates its
top-left blocks, which makes the increments differences of correlated
estimates with small pooled errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng as rngmod
from .channel import GaussQuadrature
from .priors import Prior
from .replica import f1_sup
from .simulator import (
    BudgetError,
    ENUM_BUDGET_BITS,
    PerturbationParams,
    _disorder,
    _log_partition,
    _need_two,
)

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
    n_of_m: np.ndarray | None           # index m = 0..m_of_n[n_max]; None if gamma=0
    unit_steps: bool                    # whether m_of_n increments are in {0, 1}

    def rank_at(self, n: int) -> int:
        return int(self.m_of_n[n])


def dims_schedule(alpha: float, gamma: float, n_max: int) -> DimensionSchedule:
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    n = np.arange(n_max + 1, dtype=float)
    # tolerance so that exact integer powers (e.g. 2 * 27^(1/3)) floor correctly
    m_of_n = np.floor(alpha * n**gamma + 1e-9).astype(np.int64)
    if gamma == 0:
        n_of_m = None
    else:
        m = np.arange(m_of_n[-1] + 1, dtype=float)
        n_of_m = np.floor(m ** (1.0 / gamma) / alpha + 1e-9).astype(np.int64)
    steps = np.diff(m_of_n)
    unit_steps = bool(np.all((steps >= 0) & (steps <= 1)))
    if np.any(steps < 0):
        raise ValueError("rank schedule must be nondecreasing")
    return DimensionSchedule(alpha=alpha, gamma=gamma, n_max=n_max,
                             m_of_n=m_of_n, n_of_m=n_of_m, unit_steps=unit_steps)


def cavity_weights(schedule: DimensionSchedule, N: int, T: int):
    """The two normalized index sums (w_N, w_M); they approach
    1/(1+gamma) and gamma/(1+gamma) as N grows."""
    if not 0 <= T < N <= schedule.n_max:
        raise ValueError("need 0 <= T < N <= n_max")
    M = schedule.rank_at(N)
    if M < 1:
        raise ValueError("rank at N must be at least 1")
    w_n = float(schedule.m_of_n[T:N].sum()) / (N * M)
    if schedule.gamma == 0:
        return w_n, 0.0
    m_lo = schedule.rank_at(T)
    m_hi = schedule.rank_at(N - 1)
    w_m = float(schedule.n_of_m[m_lo:m_hi + 1].sum()) / (N * M)
    return w_n, w_m


@dataclass
class FreeEntropyTable:
    """Single-evaluation store of E ln Z estimates keyed by (n, m)."""

    entries: dict                         # (n, m) -> (L, std_err, replicates)
    lam: float
    prior_label: str
    epsilon_label: str
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


@dataclass
class CavityIncrements:
    n_values: np.ndarray
    delta_N: np.ndarray
    delta_M: np.ndarray
    delta_N_norm: np.ndarray              # dN(n) / m_{n+1}
    delta_M_norm: np.ndarray              # dM(n) / n at rank-increment steps, else 0
    increment_steps: np.ndarray           # bool mask where m_{n+1} > m_n


@dataclass
class CavityReport:
    f1_sup_value: float
    weights: tuple
    combined_mean: float                  # w_N * avg(dN/m) + w_M * avg(dM/n)
    combined_se: float
    table_free_entropy: float             # L(N, m_N) / (N m_N)
    table_free_entropy_se: float
    diff: float                           # combined - table free entropy
    diff_se: float
    plain_combined_mean: float            # same with unweighted per-step means
    plain_diff: float
    telescoping_residual: float
    delta_N_gaps: np.ndarray              # dN/m - sup F1 per n
    delta_M_gaps: np.ndarray              # dM/n - sup F1 at increment steps
    increments: CavityIncrements


def required_entries(schedule: DimensionSchedule, T: int = 0) -> list:
    """All (n, m) pairs the increments on [T, n_max-1] read (nonzero sizes)."""
    need = set()
    m = schedule.m_of_n
    for n in range(T, schedule.n_max):
        need.add((n + 1, int(m[n + 1])))
        need.add((n, int(m[n + 1])))
        need.add((n, int(m[n])))
    need.add((T, int(m[T])))
    return sorted((n, mm) for n, mm in need if n > 0 and mm > 0)


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
    k = prior.n_atoms
    over = [(n, m) for n, m in need
            if n * m * math.log2(k) > ENUM_BUDGET_BITS + 1e-9]
    if over:
        raise BudgetError(f"entries over the enumeration budget: {over}")
    master = (max(n for n, _ in need), max(m for _, m in need))
    chunks = {key: [] for key in need}
    for X0, Z, Zt in _disorder(prior, master, TAG_CAVITY, seed, replicates):
        for (n, m) in need:
            pert = None if epsilon is None else PerturbationParams(
                epsilon=float(epsilon), Ztilde=Zt[:, :n, :m])
            chunks[(n, m)].append(_log_partition(prior, lam, X0[:, :n, :m], Z[:, :n, :n], pert))
    acc = {key: np.concatenate(vals) for key, vals in chunks.items()}
    entries = {key: (float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(replicates)),
                     replicates)
               for key, vals in acc.items()}
    label = "base" if epsilon is None else f"eps={epsilon:g}"
    return FreeEntropyTable(entries=entries, lam=lam, prior_label=prior.label,
                            epsilon_label=label, replicate_values=acc)


def increments(table: FreeEntropyTable, schedule: DimensionSchedule,
               T: int = 0) -> CavityIncrements:
    """Both increment sequences, assembled from stored values only."""
    m = schedule.m_of_n
    ns = np.arange(T, schedule.n_max)
    d_n = np.empty(ns.size)
    d_m = np.empty(ns.size)
    steps = np.zeros(ns.size, dtype=bool)
    for i, n in enumerate(ns):
        m_next, m_here = int(m[n + 1]), int(m[n])
        d_n[i] = table.value(n + 1, m_next) - table.value(n, m_next)
        if m_next == m_here:
            d_m[i] = 0.0              # same stored value would be subtracted
        else:
            d_m[i] = table.value(n, m_next) - table.value(n, m_here)
            steps[i] = True
    with np.errstate(divide="ignore", invalid="ignore"):
        norm_n = np.where(m[ns + 1] > 0, d_n / np.maximum(m[ns + 1], 1), 0.0)
        norm_m = np.where(steps & (ns > 0), d_m / np.maximum(ns, 1), 0.0)
    return CavityIncrements(n_values=ns, delta_N=d_n, delta_M=d_m,
                            delta_N_norm=norm_n, delta_M_norm=norm_m,
                            increment_steps=steps)


def telescoping_check(table: FreeEntropyTable, schedule: DimensionSchedule,
                      T: int, N: int) -> float:
    """|sum of increments - (L(N, m_N) - L(T, m_T))|; machine-zero on any
    complete table."""
    if not 0 <= T <= N <= schedule.n_max:
        raise ValueError("need 0 <= T <= N <= n_max")
    if T == N:
        return 0.0
    m = schedule.m_of_n
    total = 0.0
    for n in range(T, N):
        m_next, m_here = int(m[n + 1]), int(m[n])
        total += table.value(n + 1, m_next) - table.value(n, m_next)
        if m_next != m_here:
            total += table.value(n, m_next) - table.value(n, m_here)
    direct = table.value(N, int(m[N])) - table.value(T, int(m[T]))
    return abs(total - direct)


def cavity_report(prior: Prior, lam: float, schedule: DimensionSchedule,
                  table: FreeEntropyTable, quad: GaussQuadrature | None = None,
                  T: int = 0) -> CavityReport:
    """Compare normalized increments against the scalar supremum and the
    weighted increment combination against the table's own free entropy.

    The combined statistic is w_N * avg_N + w_M * avg_M where the averages are
    normalized by the same index sums that define the weights (sum m_n and
    sum n_m), the finite-N form in which the convex-combination identity is
    sharp.  The unweighted per-step means are reported alongside as
    ``plain_combined_mean``; at desk scale they carry the spread of the early
    increments and are diagnostic only.  All statistics are evaluated per
    replicate (common random numbers), so differences carry pooled errors.
    """
    f1_value, _ = f1_sup(prior, lam, quad)
    inc = increments(table, schedule, T)
    w_n, w_m = cavity_weights(schedule, schedule.n_max, T)
    m = schedule.m_of_n
    N = schedule.n_max
    M = int(m[N])

    f_tilde = table.replicate(N, M) / (N * M)
    # per-replicate increments, raw and normalized
    dn_raw, dn_norm, dm_raw, dm_norm = [], [], [], []
    for i, n in enumerate(inc.n_values):
        m_next, m_here = int(m[n + 1]), int(m[n])
        up = table.replicate(n + 1, m_next)
        base = table.replicate(n, m_next)
        dn_raw.append(up - base)
        dn_norm.append((up - base) / max(m_next, 1))
        if inc.increment_steps[i] and n > 0:
            here = table.replicate(n, m_here)
            dm_raw.append(base - here)
            dm_norm.append((base - here) / n)
    sum_m = float(schedule.m_of_n[T:N].sum())
    avg_n = np.sum(dn_raw, axis=0) / sum_m
    comb = w_n * avg_n
    plain = w_n * np.mean(dn_norm, axis=0)
    if dm_raw:
        m_lo, m_hi = schedule.rank_at(T), schedule.rank_at(N - 1)
        sum_nm = float(schedule.n_of_m[m_lo:m_hi + 1].sum())
        comb = comb + w_m * np.sum(dm_raw, axis=0) / sum_nm
        plain = plain + w_m * np.mean(dm_norm, axis=0)
    diff = comb - f_tilde

    def mean_se(x):
        return float(np.mean(x)), float(np.std(x, ddof=1) / math.sqrt(x.size))

    comb_mean, comb_se = mean_se(comb)
    ft_mean, ft_se = mean_se(f_tilde)
    diff_mean, diff_se = mean_se(diff)
    return CavityReport(
        f1_sup_value=f1_value,
        weights=(w_n, w_m),
        combined_mean=comb_mean,
        combined_se=comb_se,
        table_free_entropy=ft_mean,
        table_free_entropy_se=ft_se,
        diff=diff_mean,
        diff_se=diff_se,
        plain_combined_mean=float(np.mean(plain)),
        plain_diff=float(np.mean(plain - f_tilde)),
        telescoping_residual=telescoping_check(table, schedule, T, N),
        delta_N_gaps=inc.delta_N_norm - f1_value,
        delta_M_gaps=inc.delta_M_norm[inc.increment_steps & (inc.n_values > 0)]
        - f1_value,
        increments=inc,
    )
