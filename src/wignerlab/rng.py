"""Counter-based random streams for reproducible Monte Carlo.

Every stochastic routine in the package receives a ``numpy.random.Generator``
built from a (master seed, path) key, where the path is a tuple of small
integers such as (subcommand tag, replicate index).  Streams with distinct
paths are statistically independent, and any single replicate can be
re-derived in isolation.

Three readers of one stream give the same numbers for the same key:

- ``stream`` builds one generator through ``np.random.SeedSequence``;
- ``streams`` serves a chunk of replicates: ``keys`` hashes (seed, *path, r)
  for a whole range of r at once, in a bit-exact NumPy port of SeedSequence's
  uint32 hash, and one reused Philox is re-keyed to each key in turn;
- ``draws`` reads the first uniforms and normals of every stream of a chunk
  in lockstep: a NumPy port of Philox4x64-10 computes every row's words at
  once, and NumPy's ziggurat fast path turns them into normals, with NumPy
  itself finishing the rare row that leaves it.  It falls back to ``streams``
  for a chunk of few or long rows, where that is faster.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["draws", "keys", "row_words", "stream", "streams", "tag"]

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


def _state() -> dict:
    """A fresh Philox's state dict (counter 0, the buffer spent), for its
    callers to set the key, and the counter of the block in the buffer and
    the next word's place in it, before assigning it."""
    return {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": None},
            "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


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
    state = _state()
    for key in key_list:
        state["state"]["key"] = key
        bits.state = state
        yield gen


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
    drawn in lockstep rather than row by row (``streams``)."""
    return rows * (_ROW_WORDS - words) >= _SETUP_WORDS


def _ziggurat(w):
    """Each word of w taken as a NumPy normal draw on the ziggurat's fast
    path: the value +-rabs wi[idx] (idx the low 8 bits of the word, the sign
    bit 8, rabs bits 9-60), and whether rabs < ki[idx], where NumPy returns
    that value."""
    idx = (w & np.uint64(0xFF)).astype(np.intp)
    rabs = (w >> np.uint64(9)) & _RABS
    x = rabs * _WI[idx]
    x.view(np.uint64)[...] |= (w & np.uint64(0x100)) << np.uint64(55)   # x >= 0: set its sign
    return x, rabs < _KI[idx]


def row_words(uniforms: int, normals: int) -> int:
    """Philox words that ``draws`` holds per row: whole 4-word blocks."""
    return 4 * -(-(uniforms + normals) // 4)


def draws(seed: int, *path: int, r, uniforms: int, normals: int):
    """Uniforms U (len(r), uniforms) and standard normals W (len(r), normals):
    row i is ``stream(seed, *path, r_i).random(uniforms)`` followed by
    ``.standard_normal(normals)``, bit for bit.

    A chunk of many short rows is drawn in lockstep: every Philox block of
    every row at once (``_philox``), each uniform as NumPy's (w >> 11) 2^-53
    of its word w, and each normal on the ziggurat's fast path
    (``_ziggurat``).  A row with a normal off that path (about 1.5 % of
    normals: the tail at idx 0 and the wedges) is finished by NumPy from that
    normal's word on, its Philox resumed there.  Any other chunk is drawn row
    by row through ``streams``.
    """
    r = np.asarray(r, dtype=np.int64).ravel()
    blocks = row_words(uniforms, normals) // 4
    if not _lockstep(r.size, 4 * blocks):
        U, W = np.empty((r.size, uniforms)), np.empty((r.size, normals))
        for i, gen in enumerate(streams(seed, *path, r=r)):
            gen.random(out=U[i])
            gen.standard_normal(out=W[i])
        return U, W
    key = keys(seed, *path, r=r)
    words = _philox(key, blocks)
    W, fast = _ziggurat(words[:, uniforms:uniforms + normals])
    slow = np.flatnonzero(~fast.all(axis=1))
    first = fast[slow].argmin(axis=1)
    at = uniforms + first       # the word of each slow row's first normal off the fast path
    gen = np.random.Generator(np.random.Philox(key=0))
    bits, state = gen.bit_generator, _state()
    for i, j, a, k, buf in zip(slow.tolist(), first.tolist(), at.tolist(), key[slow].tolist(),
                               words.reshape(r.size, blocks, 4)[slow, at // 4].tolist()):
        state["state"]["key"], state["state"]["counter"] = k, (a // 4 + 1, 0, 0, 0)
        state["buffer"], state["buffer_pos"] = buf, a % 4
        bits.state = state
        gen.standard_normal(out=W[i, j:])
    return (words[:, :uniforms] >> np.uint64(11)) * 2.0 ** -53, W


# NumPy's ziggurat layer widths ``wi_double`` (its ziggurat_constants.h), as
# NumPy 2.4.6 ships them: the wi_double symbol of numpy/random/lib/
# libnpyrandom.a.  x_i = wi_i 2^52 are the layer edges.
_WI = np.array([
    8.683627060801306e-16, 4.779330175727737e-17, 6.354352417405262e-17, 7.454870481247696e-17,
    8.3293668157931e-17, 9.068060405059482e-17, 9.714860076567762e-17, 1.0294750314241019e-16,
    1.0823430288447684e-16, 1.131147019610903e-16, 1.176635945702292e-16, 1.2193617278714363e-16,
    1.2597439914637093e-16, 1.2981099886264032e-16, 1.3347203736824123e-16, 1.3697864842571203e-16,
    1.4034823001242382e-16, 1.4359529452056943e-16, 1.4673208742364422e-16, 1.4976904668391037e-16,
    1.5271515003596198e-16, 1.5557818169460764e-16, 1.5836494009290885e-16, 1.6108140175274928e-16,
    1.6373285203969853e-16, 1.6632399058420835e-16, 1.6885901708676596e-16, 1.713417017655966e-16,
    1.737754436586486e-16, 1.7616331923000996e-16, 1.7850812316976727e-16, 1.8081240285799152e-16,
    1.830784876482675e-16, 1.853085138861802e-16, 1.8750444639373882e-16, 1.896680970077476e-16,
    1.918011406483862e-16, 1.9390512930625104e-16, 1.9598150426628824e-16, 1.9803160683128174e-16,
    2.000566877627333e-16, 2.0205791562071654e-16, 2.0403638415480212e-16, 2.0599311887403706e-16,
    2.079290829041402e-16, 2.0984518222370352e-16, 2.1174227035760342e-16, 2.1362115259449868e-16,
    2.1548258978581458e-16, 2.1732730177564367e-16, 2.191559705042727e-16, 2.2096924282235318e-16,
    2.2276773304789553e-16, 2.2455202529414355e-16, 2.263226755928568e-16, 2.280802138345017e-16,
    2.2982514554424684e-16, 2.3155795351040804e-16, 2.3327909928004356e-16, 2.3498902453470955e-16,
    2.3668815235791604e-16, 2.3837688840454243e-16, 2.4005562198135063e-16, 2.4172472704675025e-16,
    2.433845631371103e-16, 2.4503547622614954e-16, 2.466777995232705e-16, 2.4831185421610877e-16,
    2.4993795016204524e-16, 2.515563865329658e-16, 2.5316745241713583e-16, 2.547714273816944e-16,
    2.563685819989397e-16, 2.579591783392867e-16, 2.5954347043351707e-16, 2.6112170470670194e-16,
    2.6269412038597256e-16, 2.6426094988411895e-16, 2.658224191608307e-16, 2.6737874806323633e-16,
    2.689301506472616e-16, 2.704768354811995e-16, 2.720190059327732e-16, 2.735568604408679e-16,
    2.7509059277301666e-16, 2.7662039226963903e-16, 2.781464440759544e-16, 2.79668929362423e-16,
    2.8118802553450207e-16, 2.827039064324479e-16, 2.842167425218406e-16, 2.8572670107546015e-16,
    2.87233946347098e-16, 2.887386397378482e-16, 2.9024093995538423e-16, 2.9174100316669455e-16,
    2.9323898314471816e-16, 2.947350314092935e-16, 2.9622929736280665e-16, 2.977219284209029e-16,
    2.992130701386013e-16, 3.007028663321331e-16, 3.0219145919680615e-16, 3.036789894211802e-16,
    3.051655962978219e-16, 3.0665141783089545e-16, 3.081365908408297e-16, 3.0962125106629225e-16,
    3.111055332636893e-16, 3.125895713043999e-16, 3.140734982699446e-16, 3.1555744654528006e-16,
    3.1704154791040285e-16, 3.1852593363044065e-16, 3.2001073454440114e-16, 3.214960811527447e-16,
    3.2298210370394156e-16, 3.244689322801698e-16, 3.2595669688230784e-16, 3.2744552751437067e-16,
    3.2893555426753697e-16, 3.3042690740391284e-16, 3.3191971744017523e-16, 3.3341411523123725e-16,
    3.3491023205407785e-16, 3.364081996918765e-16, 3.37908150518595e-16, 3.394102175841489e-16,
    3.409145347003126e-16, 3.424212365275018e-16, 3.4393045866258313e-16, 3.454423377278584e-16,
    3.4695701146137835e-16, 3.4847461880874137e-16, 3.499953000165381e-16, 3.5151919672760744e-16,
    3.53046452078274e-16, 3.5457721079774357e-16, 3.5611161930983884e-16, 3.5764982583726505e-16,
    3.59191980508603e-16, 3.6073823546823514e-16, 3.6228874498941915e-16, 3.6384366559073444e-16,
    3.65403156156137e-16, 3.669673780588701e-16, 3.685364952894914e-16, 3.7011067458828983e-16,
    3.716900855823823e-16, 3.7327490092779435e-16, 3.7486529645684887e-16, 3.7646145133120287e-16,
    3.7806354820089604e-16, 3.7967177336979443e-16, 3.8128631696783774e-16, 3.829073731305243e-16,
    3.8453514018609596e-16, 3.8616982085091493e-16, 3.878116224335587e-16, 3.894607570481926e-16,
    3.9111744183782054e-16, 3.9278189920805415e-16, 3.944543570720877e-16, 3.9613504910761354e-16,
    3.9782421502646826e-16, 3.995221008578565e-16, 4.012289592460629e-16, 4.029450497636328e-16,
    4.04670639241075e-16, 4.0640600211422504e-16, 4.0815142079049387e-16, 4.0990718603532664e-16,
    4.1167359738030257e-16, 4.134509635544236e-16, 4.1523960294026883e-16, 4.170398440568316e-16,
    4.1885202607101123e-16, 4.206764993399015e-16, 4.2251362598620494e-16, 4.243637805093078e-16,
    4.262273504347798e-16, 4.2810473700531167e-16, 4.2999635591638323e-16, 4.3190263810026294e-16,
    4.338240305622791e-16, 4.357609972736849e-16, 4.3771402012585875e-16, 4.3968359995105214e-16,
    4.4167025761542035e-16, 4.4367453519065673e-16, 4.456969972112043e-16, 4.477382320247534e-16,
    4.49798853244555e-16, 4.518795013130059e-16, 4.539808451870034e-16, 4.561035841567422e-16,
    4.582484498109567e-16, 4.604162081631153e-16, 4.626076619547846e-16, 4.648236531543207e-16,
    4.670650656712631e-16, 4.693328283093329e-16, 4.716279179838351e-16, 4.739513632325867e-16,
    4.763042480533137e-16, 4.786877161048723e-16, 4.811029753147417e-16, 4.835513029411525e-16,
    4.860340511450812e-16, 4.885526531353603e-16, 4.91108629959527e-16, 4.937035980240335e-16,
    4.963392774403987e-16, 4.990175013091822e-16, 5.017402260718089e-16, 5.045095430818727e-16,
    5.073276915733542e-16, 5.101970732341562e-16, 5.131202686306784e-16, 5.161000557743228e-16,
    5.191394311757699e-16, 5.222416338000234e-16, 5.254101724177597e-16, 5.286488569504945e-16,
    5.3196183453384e-16, 5.353536311816497e-16, 5.388292001334053e-16, 5.423939782201712e-16,
    5.46053951907478e-16, 5.498157350892814e-16, 5.536866612467876e-16, 5.576748932926576e-16,
    5.617895553555417e-16, 5.660408920082422e-16, 5.704404621291389e-16, 5.750013768919895e-16,
    5.797385945724594e-16, 5.846692893455479e-16, 5.898133176477899e-16, 5.951938149641444e-16,
    6.008379696271908e-16, 6.067780409333449e-16, 6.130527208725282e-16, 6.197089894581626e-16,
    6.268046963301284e-16, 6.344122407127506e-16, 6.426239659548055e-16, 6.515603317344994e-16,
    6.613827885097664e-16, 6.723150462505587e-16, 6.846803417564259e-16, 6.98971833638762e-16,
    7.159994934830664e-16, 7.372424301798799e-16, 7.658936370805573e-16, 8.113849337656484e-16,
])
_RABS = np.uint64((1 << 52) - 1)
# NumPy's fast-path threshold ki_i is floor(2^52 x_(i-1) / x_i) (x_-1 = x_255,
# ki_1 = 0) or one above it; one below that floor sends a draw near the edge to
# the NumPy fallback instead of a misplaced fast-path answer
_KI = (np.floor(np.roll(_WI, 1) / _WI * 2.0 ** 52) - 1).astype(np.uint64)
_KI[1] = 0
