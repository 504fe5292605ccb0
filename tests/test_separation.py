"""Query separation: interference solver vs collision search, and the reduction demo."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from trapqip import cli
from trapqip.core import CapacityError, hadamard_power, qubit_cap
from trapqip.oracles import query_table
from trapqip.separation import (
    GeneralizedSimonOracle,
    RsrLanguage,
    build_simon_oracle,
    classical_collision_count,
    gf2_null_vector,
    gf2_reduce,
    quantum_reduction_demo,
    simon_solve,
)


def _parity(v):
    return bin(v).count("1") % 2


def _simon_reference(oracle, i, seed):
    """The interference solver rebuilding its outcome distribution every round."""
    n = oracle.n
    size = 1 << n
    query = query_table(oracle.tables[i])
    had = hadamard_power(n)
    rng = np.random.default_rng(seed)
    rows, measurements = [], []
    start = np.zeros(size * size, dtype=np.complex128)
    start[::size] = 1.0 / math.sqrt(size)
    for _ in range(20 * n):
        shuffled = start[query].reshape(size, size)
        oracle.count_quantum_query(i)
        marginal = (np.abs(had @ shuffled) ** 2).sum(axis=1)
        w = int(rng.choice(size, p=marginal / marginal.sum()))
        measurements.append(w)
        rows.append(w)
        if len(gf2_reduce(rows)) >= n - 1:
            secret = gf2_null_vector(rows, n)
            if secret is not None:
                return secret, len(measurements), tuple(measurements)
    raise AssertionError("reference exhausted its budget")


def _null_vector_reference(rows, n):
    """Enumerate every nonzero n-bit vector; the answer only if exactly one is orthogonal."""
    basis = list(gf2_reduce(rows).values())
    candidates = [v for v in range(1, 1 << n) if all(_parity(row & v) == 0 for row in basis)]
    return candidates[0] if len(candidates) == 1 else None


class TestOracleConstruction:
    def test_tables_are_two_to_one_along_secrets(self):
        orc = build_simon_oracle(4, 5, seed=0)
        assert orc.instance_count == 5
        for i in range(5):
            s = orc.secrets[i]
            table = orc.tables[i]
            assert s != 0
            assert len(set(table)) == 8
            for x in range(16):
                assert table[x] == table[x ^ s]
        assert orc.tables.shape == (5, 16) and orc.tables.dtype == np.int64

    def test_tables_are_a_read_only_copy(self):
        table = np.array([[0, 1, 1, 0]])
        orc = GeneralizedSimonOracle(2, (3,), table)
        table[0, 0] = 5
        assert orc.tables.tolist() == [[0, 1, 1, 0]]
        with pytest.raises(ValueError):
            orc.tables[0, 0] = 1

    def test_build_is_seed_deterministic(self):
        a = build_simon_oracle(5, 3, seed=7)
        b = build_simon_oracle(5, 3, seed=7)
        assert a.secrets == b.secrets
        assert np.array_equal(a.tables, b.tables)
        c = build_simon_oracle(5, 3, seed=8)
        assert a.secrets != c.secrets or not np.array_equal(a.tables, c.tables)

    def test_zero_secret_rejected(self):
        with pytest.raises(ValueError):
            GeneralizedSimonOracle(2, (0,), (tuple(range(4)),))

    def test_non_colliding_table_rejected(self):
        with pytest.raises(ValueError):
            GeneralizedSimonOracle(2, (3,), ((0, 1, 2, 3),))

    def test_constant_table_rejected(self):
        with pytest.raises(ValueError):
            GeneralizedSimonOracle(2, (3,), ((0, 0, 0, 0),))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_two_to_one_check_matches_distinct_count(self, data):
        # tables colliding along s by construction; labels are a permutation or
        # free draws, so that some pairs share a label
        n = data.draw(st.integers(1, 5))
        size = 1 << n
        s = data.draw(st.integers(1, size - 1))
        if data.draw(st.booleans()):
            labels = data.draw(st.permutations(range(size // 2)))
        else:
            labels = data.draw(st.lists(st.integers(0, size // 2), min_size=size // 2, max_size=size // 2))
        table = [0] * size
        for x, label in zip([x for x in range(size) if x < x ^ s], labels):
            table[x] = table[x ^ s] = label
        if len(set(table)) == size // 2:
            assert GeneralizedSimonOracle(n, (s,), (table,)).tables.tolist() == [table]
        else:
            with pytest.raises(ValueError, match="2-to-1"):
                GeneralizedSimonOracle(n, (s,), (table,))

    def test_width_and_instance_caps(self, tmp_path, capsys):
        # n + ceil(log2 count) counts the tables; a solve holds no more than one
        for n, count in [(qubit_cap() + 1, 1), (4, (1 << 14) + 1)]:
            tracemalloc.start()
            try:
                with pytest.raises(CapacityError):
                    build_simon_oracle(n, count, seed=0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20
        cfg = tmp_path / "sep.cfg"
        cfg.write_text("[separation]\nn = 19\n")
        assert cli.main(["separation-demo", "--config", str(cfg)]) == cli.EXIT_CAP
        assert capsys.readouterr().err.startswith("resource cap: a width-19 oracle")

    def test_build_and_solve_hold_a_few_words_per_entry(self):
        # one small build and solve first, so lazy imports are not counted
        simon_solve(build_simon_oracle(4, 1, seed=0), 0, seed=0)
        size = 1 << 16
        tracemalloc.start()
        try:
            orc = build_simon_oracle(16, 1, seed=0)
            alive, build_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            res = simon_solve(orc, 0, seed=0)
            solve_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert res.secret == orc.secrets[0]
        # the table is one int64 array: 8 bytes per entry alive, a few words at the peak
        assert alive <= 16 * size
        assert build_peak < 64 * size
        assert solve_peak < 128 * size

    @pytest.mark.parametrize("n, count", [(0, 1), (-1, 1), (4, 0)])
    def test_empty_width_or_count_is_a_cap_refusal(self, n, count, tmp_path, capsys):
        with pytest.raises(CapacityError):
            build_simon_oracle(n, count, seed=0)
        if count:
            cfg = tmp_path / "sep.cfg"
            cfg.write_text(f"[separation]\nn = {n}\n")
            assert cli.main(["separation-demo", "--config", str(cfg)]) == cli.EXIT_CAP
            assert capsys.readouterr().err == f"resource cap: width {n} must be >= 1\n"

    def test_counters_are_not_init_arguments(self):
        with pytest.raises(TypeError):
            GeneralizedSimonOracle(2, (3,), ((0, 1, 1, 0),), np.ones(1, dtype=np.int64))

    def test_query_counters(self):
        orc = build_simon_oracle(3, 2, seed=1)
        assert type(orc.classical_query(0, 5)) is int
        orc.classical_query(0, 2)
        orc.count_quantum_query(1)
        assert orc.classical_counts[0] == 2
        assert orc.quantum_counts[1] == 1
        orc.reset_counters()
        assert orc.classical_counts[0] == 0
        assert orc.quantum_counts[1] == 0


class TestGf2:
    def test_reduce_and_rank(self):
        rows = [0b110, 0b011, 0b101]
        assert len(gf2_reduce(rows)) == 2

    def test_null_vector_is_orthogonal_complement(self):
        rows = [0b110, 0b011]
        v = gf2_null_vector(rows, 3)
        assert v is not None and v != 0
        for r in rows:
            assert _parity(v & r) == 0

    def test_full_rank_has_no_null_vector(self):
        assert gf2_null_vector([0b001, 0b010, 0b100], 3) is None

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_null_vector_matches_enumeration(self, data):
        # free rows often reach rank n; rows folded into a secret's complement stop
        # at n-1; short lists stay lower (about 15%, 38% and 47% of draws)
        n = data.draw(st.integers(1, 8))
        rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=2 * n))
        secret = data.draw(st.integers(1, (1 << n) - 1))
        if data.draw(st.booleans()):
            rows = [r ^ (1 << (secret.bit_length() - 1)) if _parity(r & secret) else r for r in rows]
        assert gf2_null_vector(rows, n) == _null_vector_reference(rows, n)


class TestInterferenceSolver:
    def test_recovers_secrets_within_budget(self):
        for n in (3, 4, 6, 8, 12, 16):
            orc = build_simon_oracle(n, 2, seed=n)
            for i in range(2):
                res = simon_solve(orc, i, seed=10 * n + i)
                assert res.secret == orc.secrets[i]
                assert res.queries <= 20 * n
                assert orc.quantum_counts[i] == res.queries

    def test_measurements_orthogonal_to_secret(self):
        for n in (6, 12, 16):
            orc = build_simon_oracle(n, 1, seed=3)
            s = orc.secrets[0]
            for seed in range(20):
                res = simon_solve(orc, 0, seed=seed)
                assert all(_parity(y & s) == 0 for y in res.measurements)

    def test_single_bit_edge_case(self):
        # n=1 forces secret 1; rank 0 suffices and one round resolves it
        orc = build_simon_oracle(1, 1, seed=0)
        res = simon_solve(orc, 0, seed=0)
        assert res.secret == 1
        assert res.queries == 1
        assert res.measurements == (0,)

    @pytest.mark.parametrize("n", [3, 4, 6, 8])
    def test_matches_per_round_reference(self, n):
        orc = build_simon_oracle(n, 2, seed=40 + n)
        ref = build_simon_oracle(n, 2, seed=40 + n)
        for seed in range(10):
            for i in range(2):
                res = simon_solve(orc, i, seed=seed)
                assert (res.secret, res.queries, res.measurements) == _simon_reference(ref, i, seed)
                assert orc.quantum_counts.tolist() == ref.quantum_counts.tolist()

    def test_first_round_measurement_uniform_on_complement(self):
        # the interference round samples the orthogonal subspace evenly
        orc = build_simon_oracle(3, 1, seed=5)
        s = orc.secrets[0]
        counts = {y: 0 for y in range(8) if _parity(y & s) == 0}
        for seed in range(1000):
            counts[simon_solve(orc, 0, seed=seed).measurements[0]] += 1
        assert stats.chisquare(list(counts.values())).pvalue > 0.01


class TestCollisionSearch:
    def test_birthday_recovers_secret(self):
        orc = build_simon_oracle(5, 1, seed=4)
        secret, count = classical_collision_count(orc, 0, seed=3)
        assert secret == orc.secrets[0]
        assert orc.classical_counts[0] == count
        assert count >= 2

    def test_scaling_gap(self):
        # the median collision cost sits well above the interference cost and
        # grows with n: an ordering and growth check, not a fitted constant
        medians = []
        for n in (8, 12, 16):
            orc = build_simon_oracle(n, 1, seed=6)
            classical = []
            for seed in range(15):
                orc.reset_counters()
                _, count = classical_collision_count(orc, 0, seed=seed)
                classical.append(count)
            orc.reset_counters()
            quantum = simon_solve(orc, 0, seed=0).queries
            medians.append(float(np.median(classical)))
            assert medians[-1] >= 2 * quantum
        assert medians[0] < medians[1] < medians[2]


class TestRsrLanguage:
    def test_membership_is_linear(self):
        lang = RsrLanguage(4, 0b1011)
        for x in range(16):
            for r in range(16):
                assert lang.member(x) ^ lang.member(r) == lang.member(x ^ r)

    def test_shift_query_blinds_by_xor(self):
        lang = RsrLanguage(3, 5)
        assert lang.shift_query(0b110, 0b011) == 0b101

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            RsrLanguage(2, 4)
        with pytest.raises(ValueError):
            RsrLanguage(3, 5).member(8)


class TestReductionDemo:
    def test_every_input_decided_correctly(self):
        lang = RsrLanguage(3, 5)
        orc = build_simon_oracle(3, 6, seed=1)
        for x in range(8):
            orc.reset_counters()
            res = quantum_reduction_demo(lang, orc, x, seed=x)
            assert res.decision == res.expected == lang.member(x)
            assert not res.aborted
            assert len(res.pair_bits) == 3
            assert sum(res.quantum_queries) >= 6

    def test_needs_two_instances_per_pair(self):
        lang = RsrLanguage(3, 5)
        orc = build_simon_oracle(3, 2, seed=1)
        with pytest.raises(ValueError):
            quantum_reduction_demo(lang, orc, 2, seed=0)

    def test_classical_budget_starves_the_solver(self):
        # guessing a 255-way secret 16 times per call almost never lands
        lang = RsrLanguage(8, 0b10110101)
        orc = build_simon_oracle(8, 6, seed=2)
        res = quantum_reduction_demo(lang, orc, 77, seed=3, classical_budget=16)
        assert res.aborted
        assert res.decision is None
        assert res.solver_rejections == 16
        assert sum(res.quantum_queries) == 0
