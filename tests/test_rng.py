import math

import numpy as np
import pytest

from wignerlab import rng, simulator
from wignerlab.priors import make_prior, make_rademacher, make_sparse_rademacher, quantile

TAGS = ["simulate", "perturbation", "cavity"]


class TestKeys:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5])
    def test_match_seed_sequence(self, seed):
        """The vectorized hash equals SeedSequence's; 2^64 + 5 spreads over
        three words, so with the tag and r the entropy overflows the pool."""
        for name in TAGS:
            t = rng.tag(name)
            want = np.array([np.random.SeedSequence((seed, t, r)).generate_state(2, np.uint64)
                             for r in range(1001)])
            np.testing.assert_array_equal(rng.keys(seed, t, r=range(1001)), want)

    def test_any_path_length(self):
        for path in [(), (7,), (3, 1, 4, 1, 5)]:
            want = np.array([np.random.SeedSequence((11, *path, r)).generate_state(2, np.uint64)
                             for r in range(5)])
            np.testing.assert_array_equal(rng.keys(11, *path, r=range(5)), want)

    @pytest.mark.parametrize("r", [[2**32], [-1], [0, 2**40]])
    def test_refuses_index_outside_one_word(self, r):
        with pytest.raises(ValueError):
            rng.keys(0, 1, r=r)

    def test_refuses_negative_seed(self):
        with pytest.raises(ValueError):
            rng.keys(-1, 1, r=[0])


class TestStreams:
    """``rng.draws`` on its row-by-row path: one Philox re-keyed per row."""

    def test_rekeyed_draws_match_stream(self):
        t = rng.tag("simulate")
        assert not rng._lockstep(40, rng.row_words(6, 15))
        U, W = rng.draws(5, t, r=range(40), uniforms=6, normals=15)
        for r in range(40):
            ref = rng.stream(5, t, r)
            np.testing.assert_array_equal(U[r], ref.random(6))
            np.testing.assert_array_equal(W[r, :9], ref.standard_normal(9))
            np.testing.assert_array_equal(W[r, 9:].reshape(2, 3), ref.standard_normal((2, 3)))

    def test_indices_need_not_start_at_zero(self):
        assert not rng._lockstep(2, rng.row_words(1, 0))
        U, _ = rng.draws(2**64 + 5, 9, r=[700, 3], uniforms=1, normals=0)
        for r, u in zip([700, 3], U[:, 0]):
            assert u == rng.stream(2**64 + 5, 9, r).random()


@pytest.mark.parametrize("prior", [make_rademacher(), make_sparse_rademacher(0.3),
                                   make_prior([(-1.0, 2.0 / 3.0), (2.0, 1.0 / 3.0)])],
                         ids=["rademacher", "sparse03", "asymmetric"])
def test_draw_signal_matches_choice(prior):
    """A signal drawn as ``priors.quantile`` on uniforms is the atoms
    ``Generator.choice`` picks, draw for draw."""
    for s in range(200):
        got = quantile(prior, rng.stream(s, 1).random((4, 3)))
        idx = rng.stream(s, 1).choice(prior.n_atoms, size=(4, 3), p=prior.weights)
        np.testing.assert_array_equal(got, prior.values[idx])


def test_draw_wigner_matches_triangle_form():
    """The Wigner noise of ``simulator._disorder`` is the triangle form of each
    replicate's stream, drawn after its signal's uniforms."""
    _, Z, _ = simulator._disorder(make_rademacher(), (5, 2), 2, 7, slice(0, 50))
    for r in range(50):
        ref = rng.stream(7, 2, r)
        ref.random((5, 2))
        upper = np.triu(ref.standard_normal((5, 5)), 1)
        want = upper + upper.T + np.diag(math.sqrt(2.0) * ref.standard_normal(5))
        np.testing.assert_array_equal(Z[r], want)


def words_read(gen):
    """Words a fresh Philox generator has handed out (counter c and buffer
    place p: 4 (c - 1) + p)."""
    state = gen.bit_generator.state
    return 4 * (int(state["state"]["counter"][0]) - 1) + state["buffer_pos"]


def stream_rows(seed, path, r, uniforms, normals):
    """Per-replicate draws from ``rng.stream``, one normal at a time, and the
    kinds of normal draw met, by the words each took from its first word w:
    "tail" (w's idx 0, more than one word), "accept" (a wedge test passed:
    two words) and "reject" (a wedge test failed: more), and "fast" for a row
    whose every normal took one word."""
    U, W, kinds = [], [], set()
    for ri in r:
        gen = rng.stream(seed, *path, ri)
        raw = rng.stream(seed, *path, ri).bit_generator.random_raw(4 * (uniforms + normals) + 64)
        U.append(gen.random(uniforms))
        row, slow = [], set()
        for _ in range(normals):
            start = words_read(gen)
            row.append(gen.standard_normal())
            took = words_read(gen) - start
            if took > 1:
                slow.add("tail" if raw[start] & 0xFF == 0 else "accept" if took == 2 else "reject")
        kinds |= slow or {"fast"}
        W.append(row)
    return np.array(U), np.array(W), kinds


class TestDraws:
    # every (seed, path) meets every row shape, over indices from r0
    SWEEP = [(0, (7,), 1000), (5, (3, 1), 7), (2**64 + 5, (2, 7, 1), 250)]
    SHAPES = [(1, 3), (2, 5), (3, 10), (4, 24), (5, 61), (6, 130)]

    def test_lockstep_matches_stream(self, monkeypatch):
        """Lockstep rows equal ``rng.stream`` draws bit for bit, over fast-only
        rows and rows with a wedge acceptance, a wedge rejection or a tail
        draw (all four met in the sweep), with the routing rule set aside."""
        monkeypatch.setattr(rng, "_lockstep", lambda rows, words: True)
        seen = set()
        for seed, path, r0 in self.SWEEP:
            for uniforms, normals in self.SHAPES:
                r = range(r0, r0 + 3000 // normals)
                U, W = rng.draws(seed, *path, r=r, uniforms=uniforms, normals=normals)
                want_U, want_W, kinds = stream_rows(seed, path, r, uniforms, normals)
                np.testing.assert_array_equal(U.view(np.uint64), want_U.view(np.uint64))
                np.testing.assert_array_equal(W.view(np.uint64), want_W.view(np.uint64))
                seen |= kinds
        assert seen == {"fast", "tail", "accept", "reject"}

    def test_fast_path_edges_match_numpy(self):
        """Words fed to NumPy's own sampler through its Philox buffer: for
        every idx and sign, rabs = 0, 1 and the largest rabs that
        ``_ziggurat`` takes as fast (ki - 1) are one-word draws in NumPy too,
        with the same value.  A ki above NumPy's, or a wi off by one ulp,
        fails here."""
        gen = np.random.Generator(np.random.Philox(key=0))
        state = gen.bit_generator.state
        ki = rng._table()[1]
        words = [(rabs << 9) | (sign << 8) | idx
                 for idx in range(256) for sign in (0, 1)
                 for rabs in {0, 1, int(ki[idx]) - 1} if rabs >= 0]
        x, fast = rng._ziggurat(np.array(words, dtype=np.uint64))
        assert fast.sum() > 0.99 * len(words)
        for w, value in zip(np.array(words)[fast], x[fast]):
            state["buffer"], state["buffer_pos"] = [int(w), 0, 0, 0], 0
            gen.bit_generator.state = state
            got = gen.standard_normal()
            assert gen.bit_generator.state["buffer_pos"] == 1, hex(w)
            assert np.float64(got).view(np.uint64) == value.view(np.uint64), hex(w)

    @pytest.mark.parametrize("shape, few, many", [((1, 1), 1, 10_000), ((1, 1), 669, 670),
                                                  ((2, 1), 20, 5000)])
    def test_same_replicates_across_the_routing_rule(self, shape, few, many):
        """A chunk of ``few`` replicates is drawn row by row and one of
        ``many`` in lockstep; their common replicates are the same disorder."""
        uniforms, normals = simulator._counts(shape)
        words = rng.row_words(uniforms, normals)
        assert not rng._lockstep(few, words) and rng._lockstep(many, words)
        small = simulator._disorder(make_rademacher(), shape, 5, 11, slice(0, few))
        large = simulator._disorder(make_rademacher(), shape, 5, 11, slice(0, many))
        for a, b in zip(small, large):
            np.testing.assert_array_equal(a.view(np.uint64), b[:few].view(np.uint64))
