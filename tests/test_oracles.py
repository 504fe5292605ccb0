"""Permutations and the XOR-query tables of their oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapqip.core import (
    StateVector,
    UnitaryOperator,
    apply_basis_permutation,
    apply_on_registers,
    basis_state,
    layout,
    measure_probability,
)
from trapqip.oracles import (
    CorruptionSet,
    Permutation,
    inversion_table,
    query_table,
    random_permutation,
    xor_shift_permutation,
)


def _dense_query(answers) -> np.ndarray:
    """Reference 0/1 matrix of |q, y> -> |q, y XOR answers[q]>, entry by entry."""
    size = len(answers)
    mat = np.zeros((size * size, size * size))
    for q in range(size):
        for y in range(size):
            mat[q * size + (y ^ int(answers[q])), q * size + y] = 1.0
    return mat


def _query(table, q, y=0, m=2):
    st = basis_state(layout(("query", m), ("answer", m)), {"query": q, "answer": y})
    return apply_basis_permutation(st, table, ["query", "answer"])


class TestPermutation:
    def test_xor_shift_is_involution(self):
        f = xor_shift_permutation(3, 5)
        for x in range(8):
            assert f(x) == x ^ 5
            assert f.inverse_of(f(x)) == x

    def test_random_permutation_bijective_and_seeded(self):
        f = random_permutation(3, seed=9)
        g = random_permutation(3, seed=9)
        assert [f(x) for x in range(8)] == [g(x) for x in range(8)]
        assert sorted(f(x) for x in range(8)) == list(range(8))

    def test_non_bijective_table_rejected(self):
        with pytest.raises(ValueError):
            Permutation(2, (0, 0, 1, 2))


class TestOracles:
    def test_inversion_oracle_xors_preimage(self):
        f = random_permutation(2, seed=1)
        table = inversion_table(f)
        for q in range(4):
            out = _query(table, q)
            assert measure_probability(out, {"query": q, "answer": f.inverse_of(q)}) == pytest.approx(1.0)

    def test_inversion_oracle_is_self_inverse_on_answers(self):
        # answer register updates by xor, so applying twice returns the input
        f = random_permutation(2, seed=2)
        table = inversion_table(f)
        np.testing.assert_array_equal(table[table], np.arange(16))
        twice = apply_basis_permutation(_query(table, 3, 1), table, ["query", "answer"])
        assert measure_probability(twice, {"query": 3, "answer": 1}) == pytest.approx(1.0)

    def test_inversion_table_matches_dense_oracle(self):
        for seed in range(5):
            f = random_permutation(2, seed=seed)
            dense = _dense_query([f.inverse_of(q) for q in range(4)])
            np.testing.assert_array_equal(np.eye(16)[:, inversion_table(f)], dense)

    def test_forward_query_table_direction(self):
        f = xor_shift_permutation(2, 3)
        out = _query(query_table(f.table), 1)
        assert measure_probability(out, {"query": 1, "answer": f(1)}) == pytest.approx(1.0)

    def test_query_table_rejects_malformed_answers(self):
        for answers in ([0, 1, 2], [0, 4, 1, 2], [0, -1]):
            with pytest.raises(ValueError):
                query_table(answers)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_query_table_property(self, data):
        # any answer array, permutation or not, gives an involutive basis map
        # that agrees with the dense reference
        m = data.draw(st.integers(1, 4), label="m")
        size = 1 << m
        answers = data.draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size), label="answers")
        table = query_table(answers)
        np.testing.assert_array_equal(np.sort(table), np.arange(size * size))
        np.testing.assert_array_equal(table[table], np.arange(size * size))
        lay = layout(("answer", m), ("spare", 1), ("query", m))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        amps = rng.normal(size=lay.dim) + 1j * rng.normal(size=lay.dim)
        state = StateVector(lay, amps / np.linalg.norm(amps))
        dense = UnitaryOperator(layout(("block", 2 * m)), _dense_query(answers))
        np.testing.assert_array_equal(
            apply_basis_permutation(state, table, ["query", "answer"]).amplitudes,
            apply_on_registers(state, dense, ["query", "answer"]).amplitudes,
        )


class TestCorruption:
    def test_corrupted_oracle_flips_members_only(self):
        f = xor_shift_permutation(2, 1)
        table = inversion_table(f, CorruptionSet(2, frozenset({2})))
        for q in range(4):
            want = f.inverse_of(q) ^ (1 if q == 2 else 0)
            assert measure_probability(_query(table, q), {"query": q, "answer": want}) == pytest.approx(1.0)

    def test_corrupted_table_agrees(self):
        f = random_permutation(2, seed=7)
        bad = CorruptionSet(2, frozenset({0, 3}))
        dense = _dense_query([f.inverse_of(q) ^ (q in bad.members) for q in range(4)])
        np.testing.assert_array_equal(np.eye(16)[:, inversion_table(f, lying=bad)], dense)

    def test_member_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            CorruptionSet(2, frozenset({4}))
