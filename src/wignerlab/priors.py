"""Centered, bounded-support signal priors represented as finite atom lists.

Every prior in the package is a discrete measure sum_i w_i * delta(v_i) with
strictly positive weights summing to one, zero mean, second moment ``rho`` and
support inside [-D, D].  Continuous bounded priors are discretized with
Gauss-Legendre nodes, which keeps expectations over the signal exact finite
sums and makes exact posterior enumeration well-defined downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Prior",
    "make_prior",
    "make_rademacher",
    "make_sparse_rademacher",
    "make_discretized_uniform",
    "quantile",
    "sample",
]

# Canonicalization and invariant tolerances.
_DEDUP_SPACING = 1e-14
_MOMENT_TOL = 1e-12


@dataclass(frozen=True)
class Prior:
    """Finite discrete prior: values, weights, second moment and support bound.

    values/weights are read-only float arrays sorted by value.  Instances are
    immutable and safe to share across threads.
    """

    values: np.ndarray
    weights: np.ndarray
    rho: float
    support_bound: float
    label: str = field(default="custom")

    @property
    def n_atoms(self) -> int:
        return self.values.size

    @property
    def sign_symmetric(self) -> bool:
        """Whether x -> -x maps the prior to itself (sorted atoms are negated by
        reversal, and their weights are palindromic)."""
        return bool(np.array_equal(self.values, -self.values[::-1])
                    and np.array_equal(self.weights, self.weights[::-1]))

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if v.ndim != 1 or w.shape != v.shape:
            raise ValueError("values and weights must be 1-d arrays of equal length")
        if np.any(w <= 0):
            raise ValueError("atom weights must be strictly positive")
        if abs(w.sum() - 1.0) > _MOMENT_TOL:
            raise ValueError(f"atom weights must sum to 1 (got {w.sum()!r})")
        if abs(float(w @ v)) > _MOMENT_TOL:
            raise ValueError(f"prior must be centered (mean {float(w @ v)!r})")
        if np.any(np.abs(v) > self.support_bound + 1e-15):
            raise ValueError("atom outside the declared support bound")
        if abs(float(w @ v**2) - self.rho) > _MOMENT_TOL:
            raise ValueError(
                f"declared second moment {self.rho!r} does not match atoms "
                f"({float(w @ v**2)!r})"
            )
        v.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "weights", w)


def make_prior(atoms, label="custom", support_bound=None) -> Prior:
    """Build a canonical Prior from (value, weight) pairs.

    Atoms are sorted by value and merged when closer than 1e-14; the second
    moment is computed from the atoms so the stored ``rho`` is exact.
    """
    arr = np.asarray(sorted(atoms), dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("atoms must be a sequence of (value, weight) pairs")
    values, weights = arr[:, 0], arr[:, 1]
    merged_v, merged_w = [], []
    for v, w in zip(values, weights):
        if merged_v and v - merged_v[-1] < _DEDUP_SPACING:
            merged_w[-1] += w
        else:
            merged_v.append(v)
            merged_w.append(w)
    v = np.array(merged_v)
    w = np.array(merged_w)
    rho = float(w @ v**2)
    bound = float(np.max(np.abs(v))) if support_bound is None else float(support_bound)
    return Prior(values=v, weights=w, rho=rho, support_bound=bound, label=label)


def make_rademacher() -> Prior:
    """Uniform +-1 prior: rho = 1, support bound 1."""
    return make_prior([(-1.0, 0.5), (1.0, 0.5)], label="rademacher")


def make_sparse_rademacher(p: float) -> Prior:
    """Three-atom prior {+1: p/2, 0: 1-p, -1: p/2} with rho = p.

    p = 1 degenerates to the plain Rademacher prior (the zero atom is dropped).
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"sparsity level must be in (0, 1], got {p!r}")
    atoms = [(-1.0, p / 2), (1.0, p / 2)]
    if p < 1.0:
        atoms.append((0.0, 1.0 - p))
    return make_prior(atoms, label=f"sparse_rademacher({p:g})")


def make_discretized_uniform(D: float, n_nodes: int) -> Prior:
    """Gauss-Legendre discretization of Uniform[-D, D].

    The quadrature is exact for polynomial moments up to degree 2*n_nodes - 1,
    so the stored second moment equals D^2/3 to machine precision for any
    n_nodes >= 2.
    """
    if D <= 0:
        raise ValueError(f"support bound must be positive, got {D!r}")
    if n_nodes < 2:
        raise ValueError(f"need at least 2 nodes, got {n_nodes}")
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    # Symmetrize so the centering invariant holds exactly, not just to roundoff.
    x = (x - x[::-1]) / 2.0
    w = (w + w[::-1]) / 2.0
    return make_prior(
        list(zip(D * x, w / 2.0)),
        label=f"uniform(D={D:g},n={n_nodes})",
        support_bound=D,
    )


def quantile(prior: Prior, U: np.ndarray) -> np.ndarray:
    """Prior atoms at uniforms U in [0, 1), by the inverse-CDF rule of
    ``Generator.choice(k, p=weights)``: ``quantile(prior, rng.random(shape))``
    is ``values[rng.choice(k, size=shape, p=weights)]`` draw for draw."""
    cdf = np.cumsum(prior.weights)
    cdf /= cdf[-1]
    return prior.values[cdf.searchsorted(U, side="right")]


def sample(prior: Prior, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` i.i.d. atoms; deterministic given the generator state."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    return quantile(prior, rng.random(count))
