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
    def test_rekeyed_draws_match_stream(self):
        t = rng.tag("simulate")
        for r, gen in zip(range(40), rng.streams(5, t, r=range(40))):
            ref = rng.stream(5, t, r)
            np.testing.assert_array_equal(gen.random(6), ref.random(6))
            np.testing.assert_array_equal(gen.standard_normal(9), ref.standard_normal(9))
            out = np.empty((2, 3))
            gen.standard_normal(out=out)
            np.testing.assert_array_equal(out, ref.standard_normal((2, 3)))

    def test_indices_need_not_start_at_zero(self):
        gens = rng.streams(2**64 + 5, 9, r=[700, 3])
        for r, gen in zip([700, 3], gens):
            assert gen.random() == rng.stream(2**64 + 5, 9, r).random()


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
