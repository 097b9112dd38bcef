"""The one bound on stacked temporaries, for the channel stacks, the
``replica`` potentials, the disorder chunks and the enumeration kernel."""

import numpy as np

BATCH = 1 << 16                   # elements per temporary of a stacked pass


def parts(n, per_item):
    """Consecutive slices of range(n) (one empty slice for n = 0), each of
    BATCH // per_item items but the last, one at least: a stack whose item
    needs ``per_item`` elements per temporary keeps each within BATCH."""
    size = max(1, BATCH // per_item)
    return [slice(lo, min(lo + size, n)) for lo in range(0, max(n, 1), size)]


def batched(run, slices):
    """``run(part)`` on each slice, concatenated (each array of a tuple apart)."""
    out = [run(part) for part in slices]
    if isinstance(out[0], tuple):
        return tuple(map(np.concatenate, zip(*out)))
    return np.concatenate(out)
