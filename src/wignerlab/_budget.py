"""The package's budgets: the one bound on stacked temporaries, for the
channel stacks, the ``replica`` potentials, the disorder chunks and the
enumeration kernel; the size of a Gibbs pass and its cap; the enumeration cap."""

import math

import numpy as np

BATCH = 1 << 16                   # elements per temporary of a stacked pass
QUAD_TEMP_LIMIT = 1 << 24         # elements of the largest Gibbs pass an order may need
ENUM_BUDGET_BITS = 24             # enumeration cap: k^(N M) <= 2^24


class BudgetError(ValueError):
    """Enumeration budget k^(N M) <= 2^24 would be exceeded."""


def check_enumeration(prior, shapes):
    """Raise BudgetError naming every (n, m) of ``shapes`` whose k^(n m)
    configurations exceed 2^ENUM_BUDGET_BITS.  A one-atom prior counts as
    two atoms: it has one configuration, but each replicate's disorder still
    draws n^2 + n + 2 n m numbers."""
    k = max(prior.n_atoms, 2)
    over = sorted({(n, m) for n, m in shapes if n * m * math.log2(k) > ENUM_BUDGET_BITS + 1e-9})
    if over:
        raise BudgetError(f"enumeration of {k}^(n m) configurations exceeds "
                          f"the 2^{ENUM_BUDGET_BITS} budget at (n, m) = {over}")


def pass_elements(atoms, nodes, rows):
    """Elements of the largest temporary of a ``channel.gibbs_pass`` on ``rows`` rows."""
    return rows * atoms * max(atoms, nodes)


def parts(n, per_item):
    """Consecutive slices of range(n) (one empty slice for n = 0), each of
    BATCH // per_item items but the last, one at least: a stack whose item
    needs ``per_item`` elements per temporary keeps each within BATCH."""
    size = max(1, BATCH // per_item)
    return [slice(lo, min(lo + size, n)) for lo in range(0, max(n, 1), size)]


def join(out):
    """One result from its parts ``out``, in order: arrays concatenated, and
    each position of a tuple apart, into a tuple of the same type (a
    ``NamedTuple`` stays one)."""
    if isinstance(out[0], tuple):
        return tuple.__new__(type(out[0]), map(np.concatenate, zip(*out)))
    return np.concatenate(out)


def batched(run, slices):
    """``run(part)`` on each slice, joined."""
    return join([run(part) for part in slices])
