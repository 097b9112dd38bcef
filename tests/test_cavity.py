import math

import numpy as np
import pytest

from wignerlab import cavity, replica
from wignerlab._budget import BudgetError


def synthetic_table(schedule, fill, T=0):
    """Table with deterministic synthetic entries; exercises the bookkeeping
    identities independently of any Monte Carlo cost."""
    entries = {}
    for n, m in cavity.required_entries(schedule, T):
        entries[(n, m)] = (fill(n, m), 0.0, 1)
    return cavity.FreeEntropyTable(entries=entries)


class TestSchedule:
    def test_constant_rank(self):
        sch = cavity.dims_schedule(1.0, 0.0, 20)
        assert np.all(sch.m_of_n == 1)
        assert sch.n_of_m is None

    def test_square_root(self):
        sch = cavity.dims_schedule(1.0, 0.5, 100)
        assert sch.rank_at(100) == 10
        assert sch.rank_at(8) == 2

    def test_cube_root_scaled(self):
        assert cavity.dims_schedule(2.0, 1 / 3, 27).rank_at(27) == 6

    def test_rejects_negative_gamma(self):
        with pytest.raises(ValueError):
            cavity.dims_schedule(1.0, -0.5, 10)

    def test_monotone(self):
        sch = cavity.dims_schedule(0.7, 0.8, 200)
        assert np.all(np.diff(sch.m_of_n) >= 0)

    @pytest.mark.parametrize("alpha,gamma,n_max", [(1.0, 50, 3), (1e300, 0.5, 8),
                                                   (1e300, 0.0, 1), (2.0**53 + 2, 0.0, 1)])
    def test_rejects_rank_past_exact_integers(self, alpha, gamma, n_max):
        """Past 2^53 floor(alpha n^gamma) is no exact rank, and past 2^63 the
        int64 cast would wrap it negative."""
        with pytest.raises(ValueError, match=r"above 2\^53"):
            cavity.dims_schedule(alpha, gamma, n_max)

    def test_inverse_built_on_first_use(self):
        """A rank of 2^50 is a valid schedule; only its inverse, 2^50 + 1
        entries, could not be built."""
        sch = cavity.dims_schedule(1.0, 50, 2)
        assert sch.rank_at(2) == 2**50
        small = cavity.dims_schedule(1.0, 0.5, 16)
        assert small.n_of_m.tolist() == [0, 1, 4, 9, 16]


def walked_entries(schedule, T):
    """The entries a recording walk of the increments reads, (T, m_T) with
    them: the oracle of ``required_entries``."""
    need = {(T, schedule.rank_at(T))}

    def read(n, m):
        need.add((n, m))
        return 0.0

    cavity._steps(read, schedule, T, schedule.n_max)
    return sorted((n, m) for n, m in need if n > 0 and m > 0)


class TestRequiredEntries:
    @pytest.mark.parametrize("gamma", [0.0, 1 / 3, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("alpha", [0.3, 1.0, 2.5])
    def test_matches_recorded_walk(self, gamma, alpha):
        for n_max in (1, 2, 5, 9, 16):
            sch = cavity.dims_schedule(alpha, gamma, n_max)
            for T in range(n_max):
                need = cavity.required_entries(sch, T)
                assert need == walked_entries(sch, T), (n_max, T)
                assert all(type(n) is int and type(m) is int for n, m in need)


class TestWeights:
    @pytest.mark.parametrize("gamma", [1 / 3, 0.5, 1.0])
    def test_limits(self, gamma):
        """The index sums approach 1/(1+gamma) and gamma/(1+gamma)."""
        sch = cavity.dims_schedule(1.0, gamma, 100_000)
        w_n, w_m = cavity.cavity_weights(sch, 100_000, 10)
        assert abs(w_n - 1 / (1 + gamma)) <= 1e-2
        assert abs(w_m - gamma / (1 + gamma)) <= 1e-2
        assert abs(w_n + w_m - 1.0) <= 2e-2

    def test_constant_rank_has_no_rank_weight(self):
        sch = cavity.dims_schedule(1.0, 0.0, 50)
        w_n, w_m = cavity.cavity_weights(sch, 50, 0)
        assert w_m == 0.0
        assert w_n == 1.0

    def test_superlinear_rank_growth(self):
        """gamma > 1 works through the same index sums (rank grows faster
        than the size)."""
        sch = cavity.dims_schedule(1.0, 2.0, 3000)
        w_n, w_m = cavity.cavity_weights(sch, 3000, 5)
        assert abs(w_n - 1 / 3) <= 1e-2
        assert abs(w_m - 2 / 3) <= 1e-2

    def test_rejects_bad_truncation(self):
        sch = cavity.dims_schedule(1.0, 0.5, 20)
        with pytest.raises(ValueError):
            cavity.cavity_weights(sch, 20, 20)


class TestBuildTable:
    def test_minimal(self, rademacher):
        sch = cavity.dims_schedule(1.0, 0.5, 1)
        table = cavity.build_table(rademacher, 1.0, sch, epsilon=None,
                                   replicates=5, seed=1)
        assert (1, 1) in table.entries
        assert table.value(0, 1) == 0.0

    def test_deterministic(self, rademacher):
        sch = cavity.dims_schedule(1.0, 0.5, 6)
        a = cavity.build_table(rademacher, 2.0, sch, epsilon=0.3, replicates=8, seed=2)
        b = cavity.build_table(rademacher, 2.0, sch, epsilon=0.3, replicates=8, seed=2)
        assert a.entries == b.entries

    def test_budget_overflow_lists_offenders(self, rademacher):
        sch = cavity.dims_schedule(1.0, 0.5, 12)
        with pytest.raises(BudgetError, match=r"\(12, 3\)"):
            cavity.build_table(rademacher, 2.0, sch, epsilon=None,
                               replicates=2, seed=3)


    def test_needs_two_replicates(self, rademacher):
        """One replicate has no standard error."""
        sch = cavity.dims_schedule(1.0, 0.5, 4)
        with pytest.raises(ValueError, match="2 replicates"):
            cavity.build_table(rademacher, 1.0, sch, epsilon=None, replicates=1, seed=3)

    @pytest.mark.parametrize("epsilon, pinned", [
        (None, {(3, 1): (0.3283984432988576, 0.143592122091059),
                (4, 2): (1.7498447308222602, 1.7998343095120142)}),
        (0.0, {(3, 1): (0.10400837303472303, 0.15499175442240423),
               (4, 2): (1.273382570366322, 1.5918100066874539)}),
        (0.2, {(3, 1): (0.2746554870877836, 0.27144872949493676),
               (4, 2): (1.5857650601927027, 1.7758617261586604)}),
    ])
    def test_entries_pinned_to_streams(self, rademacher, epsilon, pinned):
        """``None`` is the base H_N and 0.0 the N+1 normalizer; a swapped
        stream tag, a reordered draw or a wrong cut moves these values."""
        sch = cavity.dims_schedule(1.0, 0.5, 4)
        table = cavity.build_table(rademacher, 1.5, sch, epsilon, 3, seed=19)
        for key, (mean, se) in pinned.items():
            assert abs(table.entries[key][0] - mean) <= 1e-12
            assert abs(table.entries[key][1] - se) <= 1e-12

    def test_prefix_stability(self, rademacher):
        """Replicate r's entries are the same whether 2 or 10 replicates run."""
        sch = cavity.dims_schedule(1.0, 0.5, 5)
        short = cavity.build_table(rademacher, 1.0, sch, 0.3, 2, seed=4)
        long = cavity.build_table(rademacher, 1.0, sch, 0.3, 10, seed=4)
        for key, vals in short.replicate_values.items():
            np.testing.assert_array_equal(vals, long.replicate_values[key][:2])


class TestIncrements:
    def test_sum_identity(self, rademacher):
        """dN(n) + dM(n) telescopes the stored values exactly."""
        sch = cavity.dims_schedule(1.0, 0.5, 8)
        table = cavity.build_table(rademacher, 2.0, sch, epsilon=0.4,
                                   replicates=6, seed=4)
        inc = cavity.increments(table, sch)
        for i, n in enumerate(inc.n):
            lhs = inc.delta_N[i] + inc.delta_M[i]
            rhs = table.value(n + 1, sch.rank_at(n + 1)) - table.value(n, sch.rank_at(n))
            assert lhs == rhs

    def test_zero_at_constant_rank_steps(self, rademacher):
        sch = cavity.dims_schedule(1.0, 0.5, 8)
        table = cavity.build_table(rademacher, 2.0, sch, epsilon=None,
                                   replicates=4, seed=5)
        inc = cavity.increments(table, sch)
        assert np.all(inc.delta_M[~inc.rank_step] == 0.0)

    def test_constant_rank_has_no_rank_increments(self, rademacher):
        sch = cavity.dims_schedule(1.0, 0.0, 10)
        table = cavity.build_table(rademacher, 1.0, sch, epsilon=None,
                                   replicates=4, seed=6)
        inc = cavity.increments(table, sch)
        assert np.all(inc.delta_M == 0.0)


class TestTelescoping:
    @pytest.mark.parametrize("gamma,n_max", [(0.0, 12), (0.5, 8), (1.0, 4)])
    def test_monte_carlo_tables(self, rademacher, gamma, n_max):
        sch = cavity.dims_schedule(1.0, gamma, n_max)
        table = cavity.build_table(rademacher, 2.0, sch,
                                   epsilon=float(n_max) ** -0.125,
                                   replicates=10, seed=7)
        assert cavity.telescoping_check(table, sch, 0, n_max) <= 1e-12

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_synthetic_tables_at_stated_size(self, gamma):
        """The identity is pure bookkeeping, so it must hold on any complete
        table, including sizes whose Monte Carlo fill would exceed the
        enumeration budget."""
        sch = cavity.dims_schedule(1.0, gamma, 12)
        table = synthetic_table(sch, lambda n, m: math.sin(3.0 * n + 7.0 * m) * n * m)
        assert cavity.telescoping_check(table, sch, 0, 12) <= 1e-12

    def test_single_step(self):
        sch = cavity.dims_schedule(1.0, 0.5, 5)
        table = synthetic_table(sch, lambda n, m: float(n * n - m))
        assert cavity.telescoping_check(table, sch, 4, 5) == 0.0

    def test_truncated_start(self):
        sch = cavity.dims_schedule(1.0, 0.5, 9)
        table = synthetic_table(sch, lambda n, m: float(n) / (m + 1), T=2)
        assert cavity.telescoping_check(table, sch, 2, 9) <= 1e-12


class TestReport:
    def test_zero_snr_all_zero(self, rademacher):
        """Without coupling and side channel every increment vanishes and the
        gaps equal minus the (zero) scalar supremum."""
        sch = cavity.dims_schedule(1.0, 0.5, 6)
        table = cavity.build_table(rademacher, 0.0, sch, epsilon=None,
                                   replicates=4, seed=8)
        rep = cavity.cavity_report(rademacher, 0.0, sch, table)
        inc = cavity.increments(table, sch)
        assert np.abs(inc.delta_N).max() <= 1e-13
        assert np.abs(inc.delta_N_norm - rep.f1_sup).max() <= 1e-13
        assert rep.f1_sup == 0.0

    def test_combined_reconstructs_table_value(self, rademacher):
        sch = cavity.dims_schedule(1.0, 0.5, 8)
        table = cavity.build_table(rademacher, 2.0, sch, epsilon=0.77,
                                   replicates=12, seed=9)
        rep = cavity.cavity_report(rademacher, 2.0, sch, table)
        assert abs(rep.diff) <= max(3 * rep.diff_se, 1e-12)
        assert rep.telescoping_residual <= 1e-12

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    @pytest.mark.parametrize("T", [0, 2])
    def test_combined_telescopes_on_any_table(self, rademacher, gamma, T):
        """w_N avg_N = sum dN / (N m_N) and w_M avg_M = sum dM / (N m_N), so per
        replicate the combined statistic is (L(N, m_N) - L(T, m_T)) / (N m_N)
        and diff is -L(T, m_T) / (N m_N), whatever the table holds: criterion
        13 holds by algebra."""
        sch = cavity.dims_schedule(1.0, gamma, 8)
        rng = np.random.default_rng(13)
        values = {key: rng.standard_normal(5) * key[0] * key[1]
                  for key in cavity.required_entries(sch, T)}
        entries = {key: (float(v.mean()), 0.0, 5) for key, v in values.items()}
        table = cavity.FreeEntropyTable(entries=entries, replicate_values=values)
        rep = cavity.cavity_report(rademacher, 2.0, sch, table, T=T)
        size = 8 * sch.rank_at(8)
        start = table.replicate(T, sch.rank_at(T)) / size
        assert abs(rep.combined - np.mean(table.replicate(8, sch.rank_at(8)) / size
                                          - start)) <= 1e-12
        assert abs(rep.diff + np.mean(start)) <= 1e-12

    def test_classical_single_index_direction(self, rademacher, quad64):
        """Constant rank reduces to the usual one-index cavity: the normalized
        increments drift down toward the scalar supremum."""
        sch = cavity.dims_schedule(1.0, 0.0, 12)
        table = cavity.build_table(rademacher, 2.0, sch, epsilon=None,
                                   replicates=150, seed=10)
        rep = cavity.cavity_report(rademacher, 2.0, sch, table)
        gaps = cavity.increments(table, sch).delta_N_norm - rep.f1_sup
        first = gaps[:4].mean()
        last = gaps[-4:].mean()
        assert last <= first
