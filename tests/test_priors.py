import json

import numpy as np
import pytest

from wignerlab import cli, priors
from wignerlab.rng import stream


def check_invariants(p):
    assert np.all(p.weights > 0)
    assert abs(p.weights.sum() - 1.0) <= 1e-12
    assert abs(p.weights @ p.values) <= 1e-12
    assert np.all(np.abs(p.values) <= p.support_bound + 1e-15)
    assert abs(p.weights @ p.values**2 - p.rho) <= 1e-12


class TestRademacher:
    def test_atoms(self):
        p = priors.make_rademacher()
        np.testing.assert_array_equal(p.values, [-1.0, 1.0])
        np.testing.assert_array_equal(p.weights, [0.5, 0.5])
        assert p.rho == 1.0
        assert p.support_bound == 1.0
        check_invariants(p)

    def test_sample_mean_clt(self):
        """Empirical mean of 10^6 draws stays within the 3-sigma CLT band."""
        p = priors.make_rademacher()
        draws = priors.sample(p, 10**6, stream(7, 1))
        assert abs(draws.mean()) <= 3e-3
        assert abs((draws**2).mean() - 1.0) <= 3e-3


class TestSparseRademacher:
    def test_degenerates_to_rademacher(self):
        p = priors.make_sparse_rademacher(1.0)
        q = priors.make_rademacher()
        np.testing.assert_array_equal(p.values, q.values)
        np.testing.assert_array_equal(p.weights, q.weights)

    def test_second_moment(self):
        p = priors.make_sparse_rademacher(0.3)
        assert abs(p.rho - 0.3) <= 1e-15
        assert abs(p.weights @ p.values) <= 1e-12
        check_invariants(p)

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.5])
    def test_rejects_bad_sparsity(self, bad):
        with pytest.raises(ValueError):
            priors.make_sparse_rademacher(bad)


class TestDiscretizedUniform:
    def test_second_moment_exact(self):
        p = priors.make_discretized_uniform(1.0, 16)
        assert abs(p.rho - 1.0 / 3.0) <= 1e-12
        check_invariants(p)

    def test_two_nodes(self):
        """2-point Gauss-Legendre puts mass 1/2 at +-1/sqrt(3)."""
        p = priors.make_discretized_uniform(1.0, 2)
        np.testing.assert_allclose(p.values, [-1 / np.sqrt(3), 1 / np.sqrt(3)],
                                   atol=1e-15)
        np.testing.assert_allclose(p.weights, [0.5, 0.5], atol=1e-15)

    @pytest.mark.parametrize("n", [2, 5, 16, 33])
    def test_centered(self, n):
        p = priors.make_discretized_uniform(2.0, n)
        assert abs(p.weights @ p.values) <= 1e-12
        assert abs(p.rho - 4.0 / 3.0) <= 1e-12

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            priors.make_discretized_uniform(-1.0, 8)
        with pytest.raises(ValueError):
            priors.make_discretized_uniform(1.0, 1)


class TestSample:
    def test_empty(self):
        p = priors.make_rademacher()
        assert priors.sample(p, 0, stream(1, 2)).size == 0

    def test_deterministic(self):
        p = priors.make_sparse_rademacher(0.4)
        a = priors.sample(p, 1000, stream(5, 3))
        b = priors.sample(p, 1000, stream(5, 3))
        np.testing.assert_array_equal(a, b)

    def test_sparse_empirical_moments(self):
        p = priors.make_sparse_rademacher(0.3)
        draws = priors.sample(p, 10**6, stream(11, 4))
        assert abs(draws.mean()) <= 3e-3
        assert abs((draws**2).mean() - 0.3) <= 3 * np.sqrt(0.3 / 1e6) * 1.5


class TestConstruction:
    def test_dedup(self):
        p = priors.make_prior([(1.0, 0.25), (1.0 + 1e-16, 0.25), (-1.0, 0.5)])
        assert p.n_atoms == 2
        np.testing.assert_allclose(p.weights, [0.5, 0.5])

    def test_rejects_uncentered(self):
        with pytest.raises(ValueError, match="centered"):
            priors.Prior(values=np.array([0.0, 1.0]),
                         weights=np.array([0.5, 0.5]),
                         rho=0.5, support_bound=1.0)

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            priors.Prior(values=np.array([-1.0, 1.0]),
                         weights=np.array([1.5, -0.5]),
                         rho=1.0, support_bound=1.0)

    def test_rejects_wrong_rho(self):
        with pytest.raises(ValueError, match="second moment"):
            priors.Prior(values=np.array([-1.0, 1.0]),
                         weights=np.array([0.5, 0.5]),
                         rho=0.7, support_bound=1.0)

    def test_immutable(self):
        p = priors.make_rademacher()
        with pytest.raises(ValueError):
            p.values[0] = 3.0


class TestSignSymmetry:
    def test_symmetric_priors(self):
        for p in (priors.make_rademacher(), priors.make_sparse_rademacher(0.3),
                  priors.make_discretized_uniform(1.0, 5)):
            assert p.sign_symmetric

    def test_asymmetric_priors(self):
        assert not priors.make_prior([(-1.0, 2.0 / 3.0), (2.0, 1.0 / 3.0)]).sign_symmetric
        # mirrored atoms with weights that are not
        p = priors.make_prior([(-2.0, 0.3), (-1.0, 0.15), (1.0, 0.35), (2.0, 0.2)])
        assert not p.sign_symmetric


def atoms_spec(p):
    """A prior as the CLI's JSON ``atoms`` spec."""
    return json.dumps({"kind": "atoms", "label": p.label,
                       "atoms": [[float(v), float(w)] for v, w in zip(p.values, p.weights)]})


class TestJson:
    """A prior travels as JSON through the CLI's ``atoms`` spec."""

    def test_round_trip(self):
        p = priors.make_sparse_rademacher(0.3)
        q = cli._prior(json.loads(atoms_spec(p)), "prior")
        np.testing.assert_array_equal(p.values, q.values)
        np.testing.assert_array_equal(p.weights, q.weights)
        assert p.rho == q.rho
        assert p.support_bound == q.support_bound
        assert p.label == q.label

    def test_schema_fields(self):
        """The spec holds the atoms and a label; rho and D follow from the
        atoms, so a spec that states them is refused."""
        assert set(cli.PRIOR_KINDS["atoms"][0]) == {"atoms", "label"}
        obj = json.loads(atoms_spec(priors.make_rademacher()))
        for key in ("rho", "D"):
            with pytest.raises(cli.ConfigError, match="unknown key"):
                cli._prior({**obj, key: 1.0}, "prior")
