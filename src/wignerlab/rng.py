"""Counter-based random streams for reproducible Monte Carlo.

Every stochastic routine in the package receives a ``numpy.random.Generator``
built from a (master seed, path) key, where the path is a tuple of small
integers such as (subcommand tag, replicate index).  Streams with distinct
paths are statistically independent, and any single replicate can be
re-derived in isolation.

``stream`` builds one generator through ``np.random.SeedSequence``.  Disorder
replicates take the batched path instead: ``keys`` hashes (seed, *path, r)
for a whole range of r at once, in a bit-exact NumPy port of SeedSequence's
uint32 hash, and ``streams`` re-keys one reused Philox to each key in turn.
Both paths give the same numbers for the same key.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["keys", "stream", "streams", "tag"]

# SeedSequence's hash constants (NumPy's _bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def tag(name: str) -> int:
    """Stable 32-bit integer label for a subsystem name (e.g. ``"cavity"``)."""
    return zlib.crc32(name.encode("utf-8"))


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return the Philox generator keyed by ``(seed, *path)``.

    The same key always yields the same stream on every platform; different
    keys yield independent streams (SeedSequence hashing).
    """
    entropy = (int(seed),) + tuple(int(p) for p in path)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def _words(n) -> list[int]:
    """SeedSequence's uint32 words of a nonnegative integer, low word first."""
    n = int(n)
    if n < 0:
        raise ValueError("stream key entries must be nonnegative")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _constants(init: int, mult: int, n: int) -> np.ndarray:
    """init * mult^j mod 2^32 for j = 0 .. n, as a uint32 column."""
    h = [init]
    for _ in range(n):
        h.append(h[-1] * mult & _MASK32)
    return np.array(h, dtype=np.uint32)[:, None]


def _hash(values, h):
    """SeedSequence's hashmix of row i of ``values`` with the running hash
    constant at h[i] (xor) and h[i + 1] (multiply)."""
    v = (values ^ h[:-1]) * h[1:]
    return v ^ (v >> 16)


def _mix(x, y):
    v = _MIX_L * x - _MIX_R * y
    return v ^ (v >> 16)


def keys(seed: int, *path: int, r) -> np.ndarray:
    """Philox keys of the streams (seed, *path, r_i), shape (len(r), 2) uint64.

    Row i equals ``SeedSequence((seed, *path, r[i])).generate_state(2,
    np.uint64)``, which is the key ``stream(seed, *path, r[i])`` runs on.  Every
    r_i must fit one uint32 word: SeedSequence would spread a larger one over
    two words, which this port does not follow, so it raises ValueError.
    """
    r = np.asarray(r, dtype=np.int64).ravel()
    if r.size and (r.min() < 0 or r.max() > _MASK32):
        raise ValueError("replicate indices must lie in [0, 2^32)")
    words = [w for x in (seed, *path) for w in _words(x)]
    entropy = np.empty((len(words) + 1, r.size), dtype=np.uint32)
    entropy[:-1] = np.array(words, dtype=np.uint32)[:, None]
    entropy[-1] = r
    extra = entropy[_POOL:]
    # the hash constant runs through the pool fill, the all-pairs mix and
    # one pass over the pool per entropy word beyond the pool size
    h = _constants(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * len(extra))
    pool = np.zeros((_POOL, r.size), dtype=np.uint32)
    pool[:len(entropy)] = entropy[:_POOL]
    pool = _hash(pool, h[:_POOL + 1])
    j = _POOL
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], h[j:j + _POOL]))
        j += _POOL - 1
    for word in extra:
        pool = _mix(pool, _hash(word, h[j:j + _POOL + 1]))
        j += _POOL
    state = _hash(pool, _constants(_INIT_B, _MULT_B, _POOL))    # generate_state: 4 words
    return state.T.astype("<u4", order="C").view("<u8").astype(np.uint64)


def streams(seed: int, *path: int, r):
    """Yield a generator equal to ``stream(seed, *path, r_i)`` for each r_i.

    One generator is built per call (one disorder chunk), by ``stream`` for
    r[0], and its Philox is re-keyed in place (counter 0, empty buffer) to each
    key in turn, so a yielded generator is only valid until the next is drawn.
    """
    r = np.asarray(r, dtype=np.int64).ravel()
    key_list = keys(seed, *path, r=r).tolist()
    if not key_list:
        return
    gen = stream(seed, *path, int(r[0]))
    bits = gen.bit_generator
    inner = {"counter": (0, 0, 0, 0), "key": None}
    state = {"bit_generator": "Philox", "state": inner, "buffer": (0, 0, 0, 0),
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for key in key_list:
        inner["key"] = key
        bits.state = state
        yield gen
