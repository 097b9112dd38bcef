import functools
import math

import numpy as np
import pytest
from scipy.special import logsumexp

from wignerlab import _budget, cavity, replica, simulator
from wignerlab.priors import make_prior, make_rademacher
from wignerlab.simulator import BudgetError, ModelInstance, PerturbationParams


def hamiltonian_terms(X, X0, Z):
    """Batched trace terms for configurations X of shape (C, N, M)."""
    C, N, M = X.shape
    flat = X.transpose(1, 0, 2).reshape(N, C * M)
    ZX = (Z @ flat).reshape(N, C, M).transpose(1, 0, 2)
    t_noise = np.einsum("cim,cim->c", ZX, X)
    cross = X.transpose(0, 2, 1).reshape(C * M, N) @ X0        # rows: (X' X0)
    t_signal = np.einsum("cm,cm->c", cross.reshape(C, -1), cross.reshape(C, -1))
    gram = np.matmul(X.transpose(0, 2, 1), X)                  # X' X, (C, M, M)
    t_quartic = np.einsum("cmn,cmn->c", gram, gram)
    return t_noise, t_signal, t_quartic


def hamiltonian_batch(X, X0, Z, lam, denom, pert):
    """H of the ``simulator`` docstring with coupling normalizer ``denom``,
    plus the side channel when ``pert`` is given, for configurations X
    (C, N, M): the specification the enumeration kernel is checked against."""
    t_noise, t_signal, t_quartic = hamiltonian_terms(X, X0, Z)
    H = 0.5 * (math.sqrt(lam / denom) * t_noise
               + (lam / denom) * t_signal
               - (lam / (2.0 * denom)) * t_quartic)
    if pert is not None:
        eps = pert.epsilon
        s_side = np.einsum("cim,im->c", X, pert.Ztilde)
        s_align = np.einsum("cim,im->c", X, X0)
        s_norm = np.einsum("cim,cim->c", X, X)
        H = H + math.sqrt(eps) * s_side + eps * s_align - 0.5 * eps * s_norm
    return H


def hamiltonian(inst, X):
    """Base log-likelihood H_N(X)."""
    X = np.asarray(X, dtype=float).reshape(1, inst.N, inst.M)
    return float(hamiltonian_batch(X, inst.X0, inst.Z, inst.lam, inst.N, None)[0])


def perturbed_hamiltonian(inst, pert, X):
    """H_{N+1}(X) plus the side-channel trace term of strength eps."""
    X = np.asarray(X, dtype=float).reshape(1, inst.N, inst.M)
    return float(hamiltonian_batch(X, inst.X0, inst.Z, inst.lam, inst.N + 1, pert)[0])


def perturbation_response(inst, pert, X):
    """Auxiliary statistic -(1/N) d/d(eps) H^eps(X); needs eps > 0."""
    if pert.epsilon <= 0:
        raise ValueError("the eps-derivative is singular at eps = 0")
    X = np.asarray(X, dtype=float).reshape(inst.N, inst.M)
    trace = (np.sum(X * pert.Ztilde) / (2.0 * math.sqrt(pert.epsilon))
             + np.sum(X * inst.X0)
             - 0.5 * np.sum(X * X))
    return -trace / inst.N


def exact_posterior(inst, pert, prior):
    """The enumeration kernel's posterior summary of one instance."""
    return simulator._posterior(prior, inst.lam, inst.X0[None], inst.Z[None], pert)[0]


def brute_force_terms(inst, pert, prior, chunk=1 << 15):
    """Yield (X, H(X) + ln W(X)) over every configuration, from the
    single-configuration Hamiltonian, in base-k index order."""
    N, M = inst.N, inst.M
    k = prior.n_atoms
    denom = N if pert is None else N + 1
    powers = k ** np.arange(N * M, dtype=np.int64)
    for start in range(0, k ** (N * M), chunk):
        idx = np.arange(start, min(start + chunk, k ** (N * M)), dtype=np.int64)
        digits = (idx[:, None] // powers) % k
        X = prior.values[digits].reshape(-1, N, M)
        yield X, (hamiltonian_batch(X, inst.X0, inst.Z, inst.lam, denom, pert)
                  + np.log(prior.weights)[digits].sum(axis=1))


def brute_force_posterior(inst, pert, prior):
    """(ln Z, <R>, overlap fluctuation, matrix mmse) by two passes over every
    configuration."""
    N, M = inst.N, inst.M
    log_z = logsumexp(np.concatenate([g for _, g in brute_force_terms(inst, pert, prior)]))
    mean_R, mean_R2, mean_xxt = np.zeros((M, M)), 0.0, np.zeros((N, N))
    for X, g in brute_force_terms(inst, pert, prior):
        p = np.exp(g - log_z)
        R = np.einsum("cim,in->cmn", X, inst.X0) / N
        mean_R += np.einsum("c,cmn->mn", p, R)
        mean_R2 += p @ np.einsum("cmn,cmn->c", R, R)
        mean_xxt += np.einsum("c,cim,cjm->ij", p, X, X)
    truth = inst.X0 @ inst.X0.T
    return (log_z, mean_R, max(mean_R2 - np.sum(mean_R**2), 0.0),
            np.sum((truth - mean_xxt) ** 2) / (N * N * M))


class TestInstance:
    def test_deterministic(self, rademacher):
        a = simulator.sample_instance(rademacher, 6, 2, 1.5, seed=42)
        b = simulator.sample_instance(rademacher, 6, 2, 1.5, seed=42)
        np.testing.assert_array_equal(a.X0, b.X0)
        np.testing.assert_array_equal(a.Z, b.Z)
        np.testing.assert_array_equal(a.Y, b.Y)

    def test_assembly_identity(self, sparse03):
        inst = simulator.sample_instance(sparse03, 7, 2, 2.5, seed=1)
        expected = math.sqrt(2.5 / 7) * (inst.X0 @ inst.X0.T) + inst.Z
        np.testing.assert_array_equal(inst.Y, expected)

    def test_zero_snr_observation_is_noise(self, rademacher):
        inst = simulator.sample_instance(rademacher, 5, 1, 0.0, seed=2)
        np.testing.assert_array_equal(inst.Y, inst.Z)

    def test_entries_are_atoms(self, sparse03):
        inst = simulator.sample_instance(sparse03, 20, 3, 1.0, seed=3)
        assert np.all(np.isin(inst.X0, sparse03.values))

    def test_noise_statistics(self, rademacher):
        """Diagonal variance 2, off-diagonal 1, symmetric."""
        inst = simulator.sample_instance(rademacher, 2000, 1, 1.0, seed=4)
        np.testing.assert_array_equal(inst.Z, inst.Z.T)
        diag_var = np.var(np.diag(inst.Z))
        assert abs(diag_var - 2.0) <= 0.2
        off = inst.Z[np.triu_indices(2000, 1)]
        assert abs(np.var(off) - 1.0) <= 0.1


class TestHamiltonian:
    def test_zero_configuration(self, rademacher):
        inst = simulator.sample_instance(rademacher, 4, 2, 3.0, seed=5)
        assert hamiltonian(inst, np.zeros((4, 2))) == 0.0

    def test_zero_snr(self, rademacher):
        inst = simulator.sample_instance(rademacher, 4, 2, 0.0, seed=6)
        assert hamiltonian(inst, np.ones((4, 2))) == 0.0

    def test_single_spin_hand_value(self, rademacher):
        """N=M=1 binary: H = (sqrt(lam) Z11 + lam x0^2 - lam/2)/2, independent
        of the spin sign."""
        inst = simulator.sample_instance(rademacher, 1, 1, 2.0, seed=7)
        ref = 0.5 * (math.sqrt(2.0) * inst.Z[0, 0] + 2.0 * inst.X0[0, 0] ** 2 - 1.0)
        for x in (1.0, -1.0):
            assert abs(hamiltonian(inst, [[x]]) - ref) <= 1e-14


class TestPerturbedHamiltonian:
    def test_zero_strength_is_shifted_normalizer(self, rademacher):
        inst = simulator.sample_instance(rademacher, 5, 2, 1.0, seed=8)
        X = np.arange(10.0).reshape(5, 2) / 10
        pert = PerturbationParams(epsilon=0.0, Ztilde=np.zeros((5, 2)))
        ref = hamiltonian_batch(X.reshape(1, 5, 2), inst.X0, inst.Z, 1.0, 6, None)[0]
        assert abs(perturbed_hamiltonian(inst, pert, X) - ref) <= 1e-14

    def test_zero_configuration(self, rademacher):
        inst = simulator.sample_instance(rademacher, 3, 1, 2.0, seed=9)
        pert = PerturbationParams(epsilon=0.4, Ztilde=np.ones((3, 1)))
        assert perturbed_hamiltonian(inst, pert, np.zeros((3, 1))) == 0.0

    def test_aligned_with_truth(self, rademacher):
        """X = X0 with silent side channel adds eps |X0|_F^2 / 2."""
        inst = simulator.sample_instance(rademacher, 5, 2, 1.0, seed=10)
        pert = PerturbationParams(epsilon=0.3, Ztilde=np.zeros((5, 2)))
        base = hamiltonian_batch(inst.X0.reshape(1, 5, 2), inst.X0, inst.Z,
                                 1.0, 6, None)[0]
        got = perturbed_hamiltonian(inst, pert, inst.X0)
        assert abs(got - (base + 0.15 * np.sum(inst.X0**2))) <= 1e-12

    def test_rejects_negative_strength(self):
        with pytest.raises(ValueError):
            PerturbationParams(epsilon=-0.1, Ztilde=np.zeros((2, 1)))


class TestPerturbationResponse:
    def test_zero_configuration(self, rademacher):
        inst = simulator.sample_instance(rademacher, 4, 1, 1.0, seed=11)
        pert = PerturbationParams(epsilon=0.2, Ztilde=np.ones((4, 1)))
        assert perturbation_response(inst, pert, np.zeros((4, 1))) == 0.0

    def test_truth_with_silent_channel(self, rademacher):
        inst = simulator.sample_instance(rademacher, 4, 1, 1.0, seed=12)
        pert = PerturbationParams(epsilon=0.2, Ztilde=np.zeros((4, 1)))
        got = perturbation_response(inst, pert, inst.X0)
        assert abs(got - (-np.sum(inst.X0**2) / 8.0)) <= 1e-14

    def test_matches_strength_derivative(self, rademacher):
        """-N * response equals the central difference of the perturbed
        log-likelihood in the side-channel strength."""
        inst = simulator.sample_instance(rademacher, 5, 2, 1.5, seed=13)
        Zt = simulator.rngmod.stream(13, 99).standard_normal((5, 2))
        X = 0.3 * np.ones((5, 2))
        eps, h = 0.01, 1e-5
        up = perturbed_hamiltonian(
            inst, PerturbationParams(epsilon=eps + h, Ztilde=Zt), X)
        dn = perturbed_hamiltonian(
            inst, PerturbationParams(epsilon=eps - h, Ztilde=Zt), X)
        fd = (up - dn) / (2 * h)
        resp = perturbation_response(
            inst, PerturbationParams(epsilon=eps, Ztilde=Zt), X)
        assert abs(fd - (-5 * resp)) / abs(fd) <= 1e-6

    def test_rejects_zero_strength(self, rademacher):
        inst = simulator.sample_instance(rademacher, 3, 1, 1.0, seed=14)
        pert = PerturbationParams(epsilon=0.0, Ztilde=np.zeros((3, 1)))
        with pytest.raises(ValueError):
            perturbation_response(inst, pert, np.zeros((3, 1)))


class TestExactPosterior:
    def test_prior_recovered_at_zero_snr(self, rademacher):
        inst = simulator.sample_instance(rademacher, 6, 1, 0.0, seed=15)
        ps = exact_posterior(inst, None, rademacher)
        assert np.abs(ps.mean_overlap).max() <= 1e-12
        assert abs(ps.overlap_fluct - 1.0 / 6.0) <= 1e-12
        assert ps.config_count == 2**6

    def test_fluctuation_nonnegative(self, sparse03):
        inst = simulator.sample_instance(sparse03, 4, 2, 2.0, seed=16)
        ps = exact_posterior(inst, None, sparse03)
        assert ps.overlap_fluct >= 0.0
        assert ps.matrix_mmse >= 0.0

    def test_budget_enforced(self, rademacher):
        inst = ModelInstance(N=30, M=2, lam=1.0, X0=np.zeros((30, 2)),
                             Z=np.zeros((30, 30)), Y=np.zeros((30, 30)), seed=0)
        with pytest.raises(BudgetError):
            exact_posterior(inst, None, rademacher)

    def test_enumeration_order_invariance(self, rademacher):
        """Reversed configuration order reproduces ln Z to 1e-12."""
        inst = simulator.sample_instance(rademacher, 5, 2, 1.5, seed=17)
        ps = exact_posterior(inst, None, rademacher)
        terms = np.concatenate([g for _, g in brute_force_terms(inst, None, rademacher)])
        reversed_lnz = logsumexp(terms[::-1])
        assert abs(ps.log_partition - reversed_lnz) <= 1e-12

    def test_matrix_mmse_decreases_with_snr(self, rademacher):
        """Disorder-averaged reconstruction error stays in [0, rho^2 (1+slack)]
        and falls as the SNR grows (data-processing direction)."""
        means = []
        for lam in (0.5, 1.5, 3.0, 5.0):
            vals = [s.matrix_mmse for s in simulator.posterior_replicates(
                rademacher, 6, 1, lam, replicates=60, seed=200)]
            means.append(np.mean(vals))
        assert all(0.0 <= m <= 1.1 * rademacher.rho**2 for m in means)
        assert all(b < a + 1e-3 for a, b in zip(means[:-1], means[1:]))

    def test_sign_symmetry(self, rademacher):
        """Jointly flipping the truth and the side coupling leaves posterior
        quantities unchanged for a symmetric prior."""
        inst = simulator.sample_instance(rademacher, 4, 2, 1.5, seed=18)
        Zt = simulator.rngmod.stream(18, 5).standard_normal((4, 2))
        pert = PerturbationParams(epsilon=0.2, Ztilde=Zt)
        flipped = ModelInstance(N=4, M=2, lam=1.5, X0=-inst.X0, Z=inst.Z,
                                Y=inst.Y, seed=inst.seed)
        pert_f = PerturbationParams(epsilon=0.2, Ztilde=-Zt)
        a = exact_posterior(inst, pert, rademacher)
        b = exact_posterior(flipped, pert_f, rademacher)
        assert abs(a.log_partition - b.log_partition) <= 1e-12
        np.testing.assert_allclose(a.mean_overlap, b.mean_overlap, atol=1e-12)
        assert abs(a.overlap_fluct - b.overlap_fluct) <= 1e-12


ASYMMETRIC = make_prior([(-1.0, 2.0 / 3.0), (2.0, 1.0 / 3.0)])


class TestSplitBlockKernel:
    """ln Z, <R>, overlap fluctuation and mmse of the enumeration kernel
    against brute force over every configuration."""

    @pytest.mark.parametrize("prior_name, N, M, lam, eps", [
        ("rademacher", 1, 1, 1.0, 0.0),     # block B empty
        ("sparse03", 1, 1, 2.0, 0.3),
        ("asymmetric", 1, 4, 1.5, 0.2),     # one row, M > 1
        ("rademacher", 1, 12, 1.0, 0.2),    # one row, split as a column
        ("rademacher", 4, 2, 1.0, 0.2),     # even N, M = 2
        ("rademacher", 11, 1, 1.5, 0.0),    # odd N, split
        ("rademacher", 6, 2, 2.0, 0.0),     # M = 2, split
        ("sparse03", 7, 1, 2.0, 0.0),       # k = 3, odd N, split
        ("sparse03", 4, 2, 1.5, 0.1),
        ("asymmetric", 5, 2, 1.0, 0.0),
        ("rademacher", 11, 1, 1.5, 0.2),    # side channel, split
        ("rademacher", 12, 1, 0.0, 0.0),    # zero SNR
        ("rademacher", 20, 1, 1.5, 0.0),    # several A-chunks
    ])
    def test_matches_brute_force(self, request, prior_name, N, M, lam, eps):
        prior = (ASYMMETRIC if prior_name == "asymmetric"
                 else request.getfixturevalue(prior_name))
        inst = simulator.sample_instance(prior, N, M, lam, seed=100 + 7 * N + M)
        Zt = simulator.rngmod.stream(N, M).standard_normal((N, M))
        pert = None if eps == 0.0 else PerturbationParams(epsilon=eps, Ztilde=Zt)
        log_z, mean_R, fluct, mmse = brute_force_posterior(inst, pert, prior)
        ps = exact_posterior(inst, pert, prior)
        assert abs(ps.log_partition - log_z) <= 1e-12
        ln_z = simulator._log_partition(prior, lam, inst.X0[None], inst.Z[None], pert)[0]
        assert abs(ln_z - log_z) <= 1e-12
        assert np.abs(ps.mean_overlap - mean_R).max() <= 1e-12
        assert abs(ps.overlap_fluct - fluct) <= 1e-12
        assert abs(ps.matrix_mmse - mmse) <= 1e-12

    def test_several_chunks(self):
        """The N = 20 case above holds 2^10 x 2^10 Gibbs weights, so its
        A-loop runs more than one chunk; ``TestBatchedKernel``'s 260
        replicates at rademacher (6, 2) hold 2^6 x 2^6 weights each, so they
        run in more than one part of replicates, each part more than one."""
        assert 2 * 2 ** 12 <= _budget.BATCH < 2 ** 20


def side(eps, Zt):
    """eps = 0 is the base H_N; eps > 0 the side channel on Zt."""
    return None if eps == 0.0 else PerturbationParams(epsilon=eps, Ztilde=Zt)


def whole_rows_oracle(prior, Zeff, X0, t, C):
    """One replicate's ln Z, <X> and <X X'> from the whole-row table, one
    exp-sum over every configuration: the split kernel's reference."""
    N, M = X0.shape
    ta = simulator._block_table(prior.values.tobytes(), prior.weights.tobytes(), N, M)
    K = 0.5 * Zeff + (0.5 * t) * (X0 @ X0.T)
    h = ta.phi @ np.concatenate([K.ravel(), C.ravel(), [1.0, -0.25 * t]])
    top = float(h.max())
    w = np.exp(h - top)
    z = float(w.sum())
    p = w / z
    return top + math.log(z), (p @ ta.X).reshape(N, M), (p @ ta.phi[:, :N * N]).reshape(N, N)


# the whole-row oracle table at sparse(0.3), N = 6, M = 2 would hold 3^12 rows
BATCHED_CASES = [(name, N, M, eps) for name in ("rademacher", "sparse03")
                 for N in (1, 4, 6) for M in (1, 2) for eps in (0.0, 0.3)
                 if (2 if name == "rademacher" else 3) ** (N * M) <= 1 << 13]


def batch_of(prior, N, M, eps, R=260):
    """The kernel arguments (Zeff, X0, t, C) of R replicates at lambda = 1.3."""
    X0, Z, Zt = simulator._disorder(prior, (N, M), 1, 5, slice(0, R))
    return simulator._coefficients(1.3, X0, Z, side(eps, Zt))


class TestBatchedKernel:
    @pytest.mark.parametrize("prior_name, N, M, eps", BATCHED_CASES)
    def test_matches_per_replicate_oracle(self, request, prior_name, N, M, eps):
        """260 replicates in one call, so more than one part of replicates,
        against the per-replicate whole-row enumeration."""
        prior = request.getfixturevalue(prior_name)
        Zeff, X0, t, C = batch_of(prior, N, M, eps)
        log_z = simulator._split_block(prior, Zeff, X0, t, C)
        got = simulator._split_block(prior, Zeff, X0, t, C, moments=True)
        np.testing.assert_array_equal(got[0], log_z)
        for i in range(len(X0)):
            want = whole_rows_oracle(prior, Zeff[i], X0[i], t, C[i])
            assert abs(got[0][i] - want[0]) <= 1e-12
            assert np.abs(got[1][i] - want[1]).max() <= 1e-12
            assert np.abs(got[2][i] - want[2]).max() <= 1e-12

    # rademacher (11, 1) adds blocks of unequal size, 6 and 5 rows
    @pytest.mark.parametrize("prior_name, N, M, eps", BATCHED_CASES + [
        ("rademacher", 11, 1, 0.0), ("rademacher", 11, 1, 0.3)])
    def test_value_does_not_depend_on_batch(self, request, prior_name, N, M, eps):
        """Each replicate's ln Z, <X> and <X X'> evaluated alone (b = 1) equal
        its row of the 260-replicate call bit for bit."""
        prior = request.getfixturevalue(prior_name)
        Zeff, X0, t, C = batch_of(prior, N, M, eps)
        batch = simulator._split_block(prior, Zeff, X0, t, C, moments=True)
        for i in range(len(X0)):
            one = simulator._split_block(prior, Zeff[i:i + 1], X0[i:i + 1], t, C[i:i + 1],
                                         moments=True)
            for a, b in zip(one, batch):
                np.testing.assert_array_equal(a[0], b[i])


class TestFreeEntropy:
    def test_zero_snr_is_exactly_zero(self, rademacher):
        mean, se = simulator.free_entropy_mc(rademacher, 5, 1, 0.0, 0.0, 20, seed=19)
        assert abs(mean) <= 1e-14

    def test_single_spin_hand_average(self, rademacher):
        """N=M=1 binary: ln Z = (sqrt(lam) Z11 + lam/2)/2 with disorder mean
        lam/4."""
        lam = 1.0
        mean, se = simulator.free_entropy_mc(rademacher, 1, 1, lam, 0.0, 2000, seed=20)
        assert abs(mean - lam / 4) <= 3 * se

    def test_lower_bound_direction(self, rademacher, quad64):
        mean, se = simulator.free_entropy_mc(rademacher, 8, 1, 2.0, 0.0, 100, seed=21)
        v1, _ = replica.f1_sup(rademacher, 2.0, quad64)
        assert mean >= v1 - 3 * se

    def test_replicates_deterministic(self, rademacher):
        a = simulator.free_entropy_replicates(rademacher, 4, 1, 1.0,
                                              replicates=10, seed=22)
        b = simulator.free_entropy_replicates(rademacher, 4, 1, 1.0,
                                              replicates=10, seed=22)
        np.testing.assert_array_equal(a, b)

    def test_master_blocks_give_common_randomness(self, rademacher):
        """Replicates drawn through a master shape agree on the shared block."""
        small = simulator.free_entropy_replicates(rademacher, 4, 1, 1.0,
                                                  replicates=5, seed=23,
                                                  master=(8, 1))
        again = simulator.free_entropy_replicates(rademacher, 4, 1, 1.0,
                                                  replicates=5, seed=23,
                                                  master=(8, 1))
        np.testing.assert_array_equal(small, again)


class TestConcentration:
    def test_prior_variance_at_zero_snr(self, rademacher):
        est, se, gamma = simulator.overlap_concentration(
            rademacher, 8, 1, 0.0, 1e-6, 2, 40, seed=24)
        assert abs(est - 1.0 / 8.0) <= 0.1 / 8.0
        assert gamma == 1.0 / math.sqrt(8 * 1e-6)

    def test_deterministic(self, rademacher):
        a = simulator.overlap_concentration(rademacher, 6, 1, 2.0, 0.5, 3, 10, seed=25)
        b = simulator.overlap_concentration(rademacher, 6, 1, 2.0, 0.5, 3, 10, seed=25)
        assert a == b

    def test_rejects_short_grid(self, rademacher):
        with pytest.raises(ValueError):
            simulator.overlap_concentration(rademacher, 6, 1, 2.0, 0.5, 1, 10, seed=26)


class TestPerturbationGap:
    def test_zero_everything_is_exact_zero(self, rademacher):
        gap = simulator.perturbation_gap_replicates(rademacher, 6, 1, 0.0, 0.0, 10,
                                                    seed=27).mean()
        assert gap == 0.0

    def test_normalizer_effect_is_small(self, rademacher):
        """At zero side-channel strength only the N+1 coupling remains; the
        gap is O(1/N)."""
        gap = simulator.perturbation_gap_replicates(rademacher, 10, 1, 2.0, 0.0, 100,
                                                    seed=28).mean()
        assert abs(gap) <= 0.1

    def test_replicates_pair_across_strengths(self, rademacher):
        a = simulator.perturbation_gap_replicates(rademacher, 6, 1, 2.0, 0.05,
                                                  20, seed=29)
        b = simulator.perturbation_gap_replicates(rademacher, 6, 1, 2.0, 0.10,
                                                  20, seed=29)
        d = b - a
        assert d.std() < np.concatenate([a, b]).std()


def chunk_of(shape):
    """Replicates per disorder chunk at the master ``shape`` (n, m): as many
    as keep their draws (X0, Z, Ztilde), n^2 + 2 n m numbers each, within
    BATCH, one at least."""
    n, m = shape
    return max(1, _budget.BATCH // (n * n + 2 * n * m))


def one_by_one(prior, shape, tag, seed, R):
    """Each replicate's disorder alone, as a chunk of one: the oracles below
    share no chunking with the engine."""
    return (simulator._disorder(prior, shape, tag, seed, slice(r, r + 1)) for r in range(R))


def loop_free_entropy(prior, N, M, lam, eps, R, seed, master):
    """The replicate loops the engine replaced, as its oracle."""
    return np.concatenate([
        simulator._log_partition(prior, lam, X0[:, :N, :M], Z[:, :N, :N], side(eps, Zt[:, :N, :M]))
        for X0, Z, Zt in one_by_one(prior, master, simulator.TAG_SIM, seed, R)]) / (N * M)


def loop_posterior(prior, N, M, lam, eps, R, seed):
    return [s for X0, Z, Zt in one_by_one(prior, (N, M), simulator.TAG_SIM, seed, R)
            for s in simulator._posterior(prior, lam, X0, Z, side(eps, Zt))]


def loop_concentration(prior, N, M, lam, s_N, n_eps, R, seed):
    eps_grid = s_N * (1.0 + (np.arange(n_eps) + 0.5) / n_eps)
    vals = np.concatenate([
        np.mean([[s.overlap_fluct for s in simulator._posterior(
            prior, lam, X0, Z, PerturbationParams(epsilon=float(e), Ztilde=Zt))]
            for e in eps_grid], axis=0)
        for X0, Z, Zt in one_by_one(prior, (N, M), simulator.TAG_PERT, seed, R)])
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(R)), M**2 / math.sqrt(N * s_N)


def loop_gap(prior, N, M, lam, s_N, R, seed):
    return np.concatenate([
        simulator._log_partition(prior, lam, X0, Z, PerturbationParams(epsilon=s_N, Ztilde=Zt))
        / (N * M) - simulator._log_partition(prior, lam, X0, Z, None) / (N * M)
        for X0, Z, Zt in one_by_one(prior, (N, M), simulator.TAG_PERT, seed, R)])


def loop_table(prior, lam, schedule, eps, R, seed, T):
    """Per-replicate ln Z of every entry the increments on [T, n_max - 1] read."""
    m = schedule.m_of_n
    need = {(T, int(m[T]))}
    for n in range(T, schedule.n_max):
        need |= {(n + 1, int(m[n + 1])), (n, int(m[n + 1])), (n, int(m[n]))}
    need = sorted((n, k) for n, k in need if n > 0 and k > 0)
    master = (max(n for n, _ in need), max(k for _, k in need))
    chunks = {key: [] for key in need}
    for X0, Z, Zt in one_by_one(prior, master, cavity.TAG_CAVITY, seed, R):
        for n, k in need:
            pert = None if eps is None else PerturbationParams(epsilon=float(eps),
                                                               Ztilde=Zt[:, :n, :k])
            chunks[(n, k)].append(
                simulator._log_partition(prior, lam, X0[:, :n, :k], Z[:, :n, :n], pert))
    return {key: np.concatenate(vals) for key, vals in chunks.items()}


class TestReplicateEngine:
    """Every consumer of ``simulator.replicate_cuts`` reproduces, to the bit,
    the replicate loop it replaced."""

    @pytest.mark.parametrize("eps", [0.0, 0.2])
    def test_free_entropy(self, sparse03, eps):
        """One replicate more than a chunk holds, so two chunks, on the (4, 2)
        cut of a (6, 3) master."""
        R = chunk_of((6, 3)) + 1
        got = simulator.free_entropy_replicates(sparse03, 4, 2, 1.3, epsilon=eps,
                                                replicates=R, seed=41, master=(6, 3))
        np.testing.assert_array_equal(got, loop_free_entropy(sparse03, 4, 2, 1.3, eps, R,
                                                             41, (6, 3)))

    @pytest.mark.parametrize("eps", [0.0, 0.3])
    def test_posterior(self, sparse03, eps):
        got = simulator.posterior_replicates(sparse03, 3, 2, 1.1, epsilon=eps,
                                             replicates=260, seed=42)
        want = loop_posterior(sparse03, 3, 2, 1.1, eps, 260, 42)
        assert len(got) == len(want) == 260
        for a, b in zip(got, want):
            for name in ("log_partition", "free_entropy", "overlap_fluct", "matrix_mmse",
                         "config_count"):
                assert getattr(a, name) == getattr(b, name), name
            np.testing.assert_array_equal(a.mean_overlap, b.mean_overlap)

    @pytest.mark.parametrize("N, M", [(6, 1), (3, 2)])
    def test_overlap_concentration(self, rademacher, N, M):
        got = simulator.overlap_concentration(rademacher, N, M, 1.7, 0.4, 3, 12, seed=43)
        assert got == loop_concentration(rademacher, N, M, 1.7, 0.4, 3, 12, 43)

    @pytest.mark.parametrize("s", [0.0, 0.25])
    def test_perturbation_gap(self, rademacher, s):
        got = simulator.perturbation_gap_replicates(rademacher, 5, 2, 1.2, s, 20, seed=44)
        np.testing.assert_array_equal(got, loop_gap(rademacher, 5, 2, 1.2, s, 20, 44))

    @pytest.mark.parametrize("eps", [None, 0.0, 0.3])
    @pytest.mark.parametrize("T", [0, 2])
    def test_cavity_table(self, rademacher, eps, T):
        """Entries reach (6, 2): block B runs from no row to three."""
        sch = cavity.dims_schedule(1.0, 0.5, 6)
        table = cavity.build_table(rademacher, 1.4, sch, eps, 4, seed=45, T=T)
        want = loop_table(rademacher, 1.4, sch, eps, 4, 45, T)
        assert list(table.replicate_values) == list(want)
        for key, vals in want.items():
            np.testing.assert_array_equal(table.replicate_values[key], vals)
            assert table.entries[key] == (float(vals.mean()),
                                          float(vals.std(ddof=1) / math.sqrt(4)), 4)

    # (1, 1) and (12, 1) run one full chunk and a rest; the other masters
    # draw fewer numbers, so their replicates fit one chunk (the kernel bounds
    # its own temporaries, ``test_kernel_parts_fit_the_budget``)
    @pytest.mark.parametrize("prior_name, master, cuts, R", [
        ("rademacher", (1, 1), [(1, 1, None)], 21_846),
        ("rademacher", (12, 1), [(12, 1, None), (6, 1, 0.2)], 400),
        ("sparse03", (4, 2), [(4, 2, None), (2, 2, 0.1)], 810),
        ("rademacher", (3, 8), [(3, 8, None)], 2),
        ("rademacher", (1, 17), [(1, 17, None)], 130),
    ])
    def test_chunks_fit_the_budget(self, request, monkeypatch, prior_name, master, cuts, R):
        """Every chunk the engine draws holds b >= 1 replicates, as many as
        keep b master draws (X0, Z, Ztilde), n^2 + 2 n m numbers each, within
        BATCH."""
        prior = request.getfixturevalue(prior_name)
        sizes, real = [], simulator._disorder

        def spy(*args):
            chunk = real(*args)
            sizes.append(len(chunk[0]))
            return chunk
        monkeypatch.setattr(simulator, "_disorder", spy)
        simulator.replicate_cuts(prior, 1.0, master, cuts, simulator.TAG_SIM, 3, R)
        n, m = master
        size = n * n + 2 * n * m
        b = sizes[0]
        assert sum(sizes) == R and set(sizes[:-1]) <= {b} and 1 <= sizes[-1] <= b
        assert b == 1 or b * size <= _budget.BATCH
        assert len(sizes) == 1 or (b + 1) * size > _budget.BATCH

    @pytest.mark.parametrize("prior_name, N, M, R", [
        ("rademacher", 2, 7, 512),     # many parts of a few replicates
        ("rademacher", 20, 1, 3),      # parts of one, each of several A-chunks
        ("rademacher", 1, 17, 130),    # runs as (17, 1): parts of one
        ("sparse03", 4, 2, 810),
    ])
    def test_kernel_parts_fit_the_budget(self, request, monkeypatch, prior_name, N, M, R):
        """The kernel runs its replicates in parts of b >= 1, as many as keep
        b times its largest temporary per replicate within BATCH: the Gibbs
        weights E (rows x cB), U (rows x w) or V (cB x w), where B has cB
        configurations, an A-chunk holds rows = min(cA, BATCH // cB) of A's cA
        and w = nB m + 2 m^2 + 2 features; a (1, m) cut runs as (m, 1)."""
        prior = request.getfixturevalue(prior_name)
        calls, real = [], simulator.batched

        def spy(run, slices):
            calls.append([s.stop - s.start for s in slices])
            return real(run, slices)
        monkeypatch.setattr(simulator, "batched", spy)
        simulator.free_entropy_replicates(prior, N, M, 1.0, replicates=R, seed=3)
        n, m = (M, 1) if N == 1 else (N, M)
        ca, cb = prior.n_atoms ** ((n + 1) // 2 * m), prior.n_atoms ** (n // 2 * m)
        rows = min(ca, max(1, _budget.BATCH // cb))
        width = n // 2 * m + 2 * m * m + 2
        size = max(rows * cb, rows * width, cb * width)
        assert sum(map(sum, calls)) == R
        for sizes in calls:
            b = sizes[0]
            assert set(sizes[:-1]) <= {b} and 1 <= sizes[-1] <= b
            assert b == 1 or b * size <= _budget.BATCH
            assert len(sizes) == 1 or (b + 1) * size > _budget.BATCH

    @pytest.mark.parametrize("prior_name, N, M, R, master, posterior", [
        ("rademacher", 1, 1, 10_000, None, False),
        ("rademacher", 4, 1, 2_000, None, True),
        ("sparse03", 4, 2, 300, (6, 3), False),
    ])
    def test_one_pass(self, request, monkeypatch, prior_name, N, M, R, master, posterior):
        """The ``replicates-small`` simulate jobs, and a master larger than its
        cut, enumerate every replicate in one kernel call."""
        prior = request.getfixturevalue(prior_name)
        calls, real = [], simulator._split_block
        monkeypatch.setattr(simulator, "_split_block",
                            lambda *a, **kw: calls.append(len(a[2])) or real(*a, **kw))
        run = simulator.posterior_replicates if posterior else simulator.free_entropy_replicates
        assert len(run(prior, N, M, 1.0, replicates=R, seed=5, master=master)) == R
        assert calls == [R]

    def test_budget_names_every_offender(self, rademacher):
        with pytest.raises(BudgetError, match=r"\(13, 2\), \(25, 1\)"):
            simulator.replicate_cuts(rademacher, 1.0, None,
                                     [(25, 1, None), (4, 1, 0.1), (13, 2, None)],
                                     simulator.TAG_SIM, 1, 2)


class TestStandardErrors:
    def test_need_two_replicates(self, rademacher):
        with pytest.raises(ValueError):
            simulator.free_entropy_mc(rademacher, 2, 1, 1.0, 0.0, 1, seed=31)
        with pytest.raises(ValueError):
            simulator.overlap_concentration(rademacher, 4, 1, 1.0, 0.5, 2, 1, seed=31)


@functools.lru_cache(maxsize=None)
def replicate_runs(R):
    """Per-replicate values of every replicate engine caller at R replicates
    (the cavity table at no fewer than 2, its minimum); cavity entries reach
    (6, 2), so block B runs from no row to three."""
    prior = make_rademacher()
    table = cavity.build_table(prior, 1.0, cavity.dims_schedule(1.0, 0.5, 6), 0.3, max(R, 2),
                               seed=3)
    return {
        "fe": simulator.free_entropy_replicates(prior, 4, 1, 1.0, epsilon=0.1, replicates=R,
                                                seed=3, master=(6, 2)),
        "post": [s.overlap_fluct for s in simulator.posterior_replicates(
            prior, 4, 1, 1.0, replicates=R, seed=3)],
        "gap": simulator.perturbation_gap_replicates(prior, 4, 1, 1.0, 0.2, R, seed=3),
        "cavity": table.replicate_values,
    }


def engine_batches(run, *args):
    """Every chunk size ``replicate_cuts`` picks while ``run(*args)`` runs:
    the chunk of each master shape it draws."""
    seen, real = [], simulator._disorder

    def spy(prior, shape, *rest):
        seen.append(chunk_of(shape))
        return real(prior, shape, *rest)
    simulator._disorder = spy
    try:
        run(*args)
    finally:
        simulator._disorder = real
    return seen


# the last replicate of each caller's first chunk in ``replicate_runs``, and the next
RUN_EDGES = sorted({b + d for b in engine_batches(replicate_runs.__wrapped__, 2) for d in (-1, 0)})


class TestReplicateStreams:
    """Replicate values pinned to their streams: a swapped stream tag, a
    reordered draw or a wrong master cut moves them."""

    def test_free_entropy_with_master(self, sparse03):
        vals = simulator.free_entropy_replicates(sparse03, 5, 1, 1.5, epsilon=0.2,
                                                 replicates=3, seed=7, master=(8, 2))
        np.testing.assert_allclose(
            vals, [0.004883649695167902, -0.0444126160189597, 0.0583528679931347],
            rtol=0, atol=1e-12)

    def test_base_free_entropy_with_master(self, rademacher):
        vals = simulator.free_entropy_replicates(rademacher, 4, 2, 1.0, replicates=3,
                                                 seed=8, master=(6, 3))
        np.testing.assert_allclose(
            vals, [0.12950339804172317, 0.6898243807601283, 0.3317631346543512],
            rtol=0, atol=1e-12)

    def test_posterior_with_side_channel(self, sparse03):
        out = simulator.posterior_replicates(sparse03, 4, 2, 1.5, epsilon=0.3,
                                             replicates=3, seed=11)
        got = [(s.free_entropy, s.overlap_fluct, s.matrix_mmse) for s in out]
        np.testing.assert_allclose(got, [
            (0.13691462791190612, 0.3231372644692831, 0.4790658214909873),
            (-0.036037993404604785, 0.03968905538297019, 0.026784547408790424),
            (-0.010131367291950244, 0.1275116212227703, 0.22681112123659927),
        ], rtol=0, atol=1e-12)

    def test_overlap_concentration(self, rademacher):
        est, se, gamma = simulator.overlap_concentration(rademacher, 6, 1, 1.0, 0.5,
                                                         3, 3, seed=13)
        assert abs(est - 0.20203247691291995) <= 1e-12
        assert abs(se - 0.13515047797146998) <= 1e-12
        assert abs(gamma - 0.5773502691896258) <= 1e-12

    def test_perturbation_gap(self, rademacher):
        gaps = simulator.perturbation_gap_replicates(rademacher, 5, 2, 1.2, 0.4, 3,
                                                     seed=17)
        np.testing.assert_allclose(
            gaps, [0.105506691979612, -0.07004205909682497, 0.0021217998253347803],
            rtol=0, atol=1e-12)

    # fixed indices (the edges of earlier chunk rules among them) and the current edges
    @pytest.mark.parametrize("r", [0, 3, 9, 255, 256, 300, 1023, 1024] + RUN_EDGES)
    def test_prefix_stability(self, r):
        """Replicate r is the same whether r + 1 or twice the largest chunk
        of replicates run, on both sides of every caller's chunk boundary."""
        short, long = replicate_runs(r + 1), replicate_runs(2 * max(RUN_EDGES))
        for name in ("fe", "post", "gap"):
            assert short[name][r] == long[name][r], name
        for key, vals in short["cavity"].items():
            assert vals[r] == long["cavity"][key][r], key

    def test_chunks_match_streams(self, sparse03):
        """Chunked disorder equals per-replicate draws from ``rng.stream``
        through ``Generator.choice`` and the triangle form of the noise; two
        replicates past the engine's chunk, so the draw crosses a boundary."""
        tag = simulator.TAG_SIM
        b = chunk_of((5, 2))
        R = b + 2
        assert b < R
        chunks = [simulator._disorder(sparse03, (5, 2), tag, 4, part)
                  for part in _budget.parts(R, 5 * 5 + 2 * 5 * 2)]
        X0, Z, Zt = (np.concatenate(a) for a in zip(*chunks))
        for r in (0, 1, b - 1, b, R - 1):
            g = simulator.rngmod.stream(4, tag, r)
            idx = g.choice(sparse03.n_atoms, size=(5, 2), p=sparse03.weights)
            upper = np.triu(g.standard_normal((5, 5)), 1)
            want_Z = upper + upper.T + np.diag(math.sqrt(2.0) * g.standard_normal(5))
            np.testing.assert_array_equal(X0[r], sparse03.values[idx])
            np.testing.assert_array_equal(Z[r], want_Z)
            np.testing.assert_array_equal(Zt[r], g.standard_normal((5, 2)))

    def test_master_must_cover_system(self, rademacher):
        with pytest.raises(ValueError):
            simulator.free_entropy_replicates(rademacher, 4, 2, 1.0, replicates=2,
                                              seed=1, master=(6, 1))


class TestSerialization:
    def test_round_trip_exact(self, sparse03):
        inst = simulator.sample_instance(sparse03, 5, 2, 1.25, seed=30)
        text = simulator.instance_to_json(inst, sparse03.label)
        back = simulator.instance_from_json(text)
        np.testing.assert_array_equal(inst.X0, back.X0)
        np.testing.assert_array_equal(inst.Z, back.Z)
        np.testing.assert_array_equal(inst.Y, back.Y)
        assert (back.N, back.M, back.lam, back.seed) == (5, 2, 1.25, 30)
