"""Counter-based random streams for reproducible Monte Carlo.

Every stochastic routine in the package receives a ``numpy.random.Generator``
built from a (master seed, path) key, where the path is a tuple of small
integers such as (subcommand tag, replicate index).  Streams with distinct
paths are statistically independent, and any single replicate can be
re-derived in isolation.

Two readers of one stream give the same numbers for the same key:

- ``stream`` builds one generator through ``np.random.SeedSequence``;
- ``draws`` reads the first uniforms and normals of every stream of a chunk
  of replicates.  ``keys`` hashes (seed, *path, r) for a whole range of r at
  once, in a bit-exact NumPy port of SeedSequence's uint32 hash.  A chunk of
  many short rows is read in lockstep: a NumPy port of Philox4x64-10
  computes every row's words at once, and NumPy's ziggurat fast path turns
  them into normals, with NumPy itself finishing the rare row that leaves it.
  Any other chunk is read row by row, by one NumPy Philox re-keyed to each
  key in turn.
"""

from __future__ import annotations

import functools
import zlib

import numpy as np

__all__ = ["draws", "keys", "row_words", "stream", "tag"]

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


# Philox4x64-10 (Random123, as in NumPy's philox.h): round multipliers, key bumps
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_ROUNDS = 10
_LOW, _HALF = np.uint64(_MASK32), np.uint64(32)
_RABS = np.uint64((1 << 52) - 1)          # a normal draw's rabs: bits 9-60 of its word


def _mulhilo(a: int, b):
    """High and low 64-bit words of the 128-bit products a * b, for a
    constant a and a uint64 array b, from 32-bit halves."""
    a_lo, a_hi = np.uint64(a & _MASK32), np.uint64(a >> 32)
    b_lo, b_hi = b & _LOW, b >> _HALF
    u = a_hi * b_lo + ((a_lo * b_lo) >> _HALF)
    v = a_lo * b_hi + (u & _LOW)
    return a_hi * b_hi + (u >> _HALF) + (v >> _HALF), b * np.uint64(a)


def _philox(key, blocks: int) -> np.ndarray:
    """The first 4 ``blocks`` words of a fresh NumPy Philox on each key row
    (R, 2): Philox4x64-10 at counters 1 .. blocks, shape (R, 4 blocks)."""
    k0, k1 = key[:, :1].copy(), key[:, 1:].copy()
    zero = np.zeros((1, 1), dtype=np.uint64)
    c0, c1, c2, c3 = np.arange(1, blocks + 1, dtype=np.uint64)[None], zero, zero, zero
    for i in range(_ROUNDS):
        if i:
            k0 += _PHILOX_W[0]
            k1 += _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    out = np.empty((len(key), blocks, 4), dtype=np.uint64)
    out[..., 0], out[..., 1], out[..., 2], out[..., 3] = c0, c1, c2, c3
    return out.reshape(len(key), 4 * blocks)


def _rekeyed():
    """``seek(key, word=0, block)``: set one fresh NumPy Philox to the stream
    of ``key`` as NumPy leaves it after ``word`` words, and return its
    generator.  ``block`` is the 4-word block that holds word ``word``, which
    NumPy computes again where ``word`` is a multiple of 4."""
    gen = np.random.Generator(np.random.Philox(key=0))
    bits, state = gen.bit_generator, gen.bit_generator.state
    philox = state["state"]

    def seek(key, word=0, block=(0, 0, 0, 0)):
        philox["key"], philox["counter"] = key, (-(-word // 4), 0, 0, 0)
        state["buffer"], state["buffer_pos"] = block, (word - 1) % 4 + 1
        bits.state = state
        return gen
    return seek


# Lockstep pays off when a chunk is long and its rows short.  Fitted over
# chunks of 4 to 16,384 rows of 4 to 132 words (2-core Xeon, NumPy 2.4.6), a
# chunk of R rows of W words costs about 100 us + R (1.6-2.0 us + 17-40 ns W)
# row by row and 360-600 us + 78 ns R W in lockstep.  Lockstep also holds a
# few arrays of the chunk's words at once, which raised the peak memory of a
# run of (4, 1) x 2,000 chunks by 0.5-0.8 MB for no measurable time, so it is
# taken only where it at least halves the time: R (W_row - W) >= W_setup, with
# W_row 13-15 and W_setup 5,300-8,000 words from the two fits.
_ROW_WORDS = 14
_SETUP_WORDS = 6700


def _lockstep(rows: int, words: int) -> bool:
    """Whether a chunk of ``rows`` rows of ``words`` Philox words each is
    drawn in lockstep rather than row by row."""
    return rows * (_ROW_WORDS - words) >= _SETUP_WORDS


@functools.lru_cache(maxsize=None)
def _table():
    """NumPy's ziggurat layer widths wi (the edges are x_i = wi_i 2^52) and
    the fast-path thresholds ki that ``_ziggurat`` tests.  NumPy's own sampler
    returns wi[idx] for the word (1 << 9) | idx, of rabs 1: below ki[idx], or
    at idx 1, where ki is 0, the next word 0 passes the wedge test."""
    seek = _rekeyed()
    wi = np.array([seek((0, 0), 1, (0, (1 << 9) | idx, 0, 0)).standard_normal()
                   for idx in range(256)])
    # NumPy's ki_i is floor(2^52 x_(i-1) / x_i) (x_-1 = x_255, ki_1 = 0) or one
    # above it; one below that floor sends a draw near the edge to the NumPy
    # fallback instead of a misplaced fast-path answer
    ki = (np.floor(np.roll(wi, 1) / wi * 2.0 ** 52) - 1).astype(np.uint64)
    ki[1] = 0
    return wi, ki


def _ziggurat(w):
    """Each word of w taken as a NumPy normal draw on the ziggurat's fast
    path: the value +-rabs wi[idx] (idx the low 8 bits of the word, the sign
    bit 8, rabs bits 9-60), and whether rabs < ki[idx], where NumPy returns
    that value."""
    wi, ki = _table()
    idx = (w & np.uint64(0xFF)).astype(np.intp)
    rabs = (w >> np.uint64(9)) & _RABS
    x = rabs * wi[idx]
    x.view(np.uint64)[...] |= (w & np.uint64(0x100)) << np.uint64(55)   # x >= 0: set its sign
    return x, rabs < ki[idx]


def row_words(uniforms: int, normals: int) -> int:
    """Philox words that ``draws`` holds per row: whole 4-word blocks."""
    return 4 * -(-(uniforms + normals) // 4)


def draws(seed: int, *path: int, r, uniforms: int, normals: int):
    """Uniforms U (len(r), uniforms) and standard normals W (len(r), normals):
    row i is ``stream(seed, *path, r_i).random(uniforms)`` followed by
    ``.standard_normal(normals)``, bit for bit.

    One NumPy Philox per call serves every row that NumPy draws, re-keyed to
    the row's key (``keys``).  A chunk of many short rows is drawn in
    lockstep: every Philox block of every row at once (``_philox``), each
    uniform as NumPy's (w >> 11) 2^-53 of its word w, and each normal on the
    ziggurat's fast path (``_ziggurat``).  A row with a normal off that path
    (about 1.5 % of normals: the tail at idx 0 and the wedges) is finished by
    NumPy from that normal's word on, its Philox resumed there.  Any other
    chunk is drawn row by row by NumPy, each row's Philox at its word 0.
    """
    r = np.asarray(r, dtype=np.int64).ravel()
    key, seek = keys(seed, *path, r=r), _rekeyed()
    blocks = row_words(uniforms, normals) // 4
    if not _lockstep(r.size, 4 * blocks):
        U, W = np.empty((r.size, uniforms)), np.empty((r.size, normals))
        for k, u, w in zip(key.tolist(), U, W):
            gen = seek(k)
            gen.random(out=u)
            gen.standard_normal(out=w)
        return U, W
    words = _philox(key, blocks)
    W, fast = _ziggurat(words[:, uniforms:uniforms + normals])
    slow = np.flatnonzero(~fast.all(axis=1))
    first = fast[slow].argmin(axis=1)
    at = uniforms + first       # the word of each slow row's first normal off the fast path
    for i, j, a, k, buf in zip(slow.tolist(), first.tolist(), at.tolist(), key[slow].tolist(),
                               words.reshape(r.size, blocks, 4)[slow, at // 4].tolist()):
        seek(k, a, buf).standard_normal(out=W[i, j:])
    return (words[:, :uniforms] >> np.uint64(11)) * 2.0 ** -53, W
