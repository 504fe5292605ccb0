"""Query-state builders, noise, and majority amplification."""

import dataclasses
import math
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from trapqip.core import (
    CapacityError,
    StateVector,
    UnitaryOperator,
    apply_basis_permutation,
    apply_on_registers,
    basis_state,
    layout,
    measure_probability,
    tensor_product,
)
from trapqip.oracles import random_permutation, xor_shift_permutation
from trapqip.reductions import (
    DistributionTable,
    Reduction,
    add_noise,
    amplify,
    apply_decider,
    apply_generator,
    build_known_smooth_reduction,
    build_smooth_xor_reduction,
    build_xor_reduction,
    generate_query_state,
    honest_answer_state,
    load_distribution,
    majority_error,
    majority_vote_table,
    response_support,
)


class TestDistributionTable:
    def test_uniform_is_smooth_with_unit_certificate(self):
        t = DistributionTable.uniform(3)
        assert t.is_smooth
        assert t.is_uniform
        assert t.c == pytest.approx(1.0)

    def test_sum_checked(self):
        with pytest.raises(ValueError):
            DistributionTable(2, np.array([0.5, 0.5, 0.5, 0.5]))

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            DistributionTable(1, np.array([1.5, -0.5]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            DistributionTable(2, [bad, 0.5, 0.25, 0.25])

    def test_zero_entry_breaks_smoothness(self):
        t = DistributionTable(1, np.array([1.0, 0.0]))
        assert not t.is_smooth

    def test_default_certificate_is_tightest(self):
        t = DistributionTable(2, np.array([0.5, 0.25, 0.125, 0.125]))
        assert t.c == pytest.approx(2.0)

    def test_certificate_is_derived_not_declared(self):
        with pytest.raises(TypeError):
            DistributionTable(2, np.array([0.5, 0.25, 0.125, 0.125]), c=4.0)
        assert DistributionTable(2, np.array([0.4, 0.3, 0.3, 0.0])).c == math.inf

    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "dist.txt"
        path.write_text("00 0.5\n01 0.25\n10 0.125\n11 0.125\n")
        back = load_distribution(path)
        np.testing.assert_allclose(back.probs, [0.5, 0.25, 0.125, 0.125])
        assert back.m == 2

    @pytest.mark.parametrize("lines", [("00", "01", "10", "-1"), ("00", "01", "10", "+1"), ("000", "1_0")])
    def test_load_rejects_non_binary_query(self, lines, tmp_path):
        path = tmp_path / "dist.txt"
        m = len(lines[0])
        # pad to 2^m lines with the binary queries the test does not name
        rest = [format(q, f"0{m}b") for q in range(1 << m)][len(lines) :]
        path.write_text("".join(f"{q} {1 / (1 << m)}\n" for q in (*lines, *rest)))
        with pytest.raises(ValueError, match=f"line {len(lines)}: expected"):
            load_distribution(path)

    def test_load_rejects_non_finite_entry(self, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("00 nan\n01 0.5\n10 0.25\n11 0.25\n")
        with pytest.raises(ValueError, match="finite"):
            load_distribution(path)

    def test_load_rejects_wrong_line_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("00 0.5\n01 0.5\n")
        with pytest.raises(ValueError):
            load_distribution(path)


class TestBuilders:
    def test_language_reads_shifted_bit(self):
        r = build_xor_reduction(3, 0b101, 1)
        for x in range(8):
            assert r.language(x) == ((x ^ 0b101) >> 1) & 1

    def test_smooth_builder_rejects_rough_table(self):
        rough = DistributionTable(2, np.array([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            build_smooth_xor_reduction(2, 1, 0, rough)

    def test_known_smooth_needs_odd_table_count(self):
        t = DistributionTable.uniform(2)
        with pytest.raises(ValueError):
            build_known_smooth_reduction(2, 1, 0, [t, t])


class TestCopyIsItsTable:
    """A copy is its DistributionTable; everything else about it is derived."""

    def test_fields(self):
        names = [f.name for f in dataclasses.fields(Reduction)]
        assert names == ["m", "base_epsilon", "s", "bit", "distributions", "noise"]

    def test_epsilon_is_the_majority_tail(self):
        for eps in (0.0, 0.1, 0.25, 1 / 3):
            base = build_xor_reduction(2, 1, 0)
            base = add_noise(base, eps) if eps else base
            for t in (1, 3, 5, 7):
                r = amplify(base, t)
                assert r.copies == t
                assert r.epsilon == majority_error(r.base_epsilon, r.copies)
            assert base.epsilon == base.base_epsilon

    def test_prep_built_once_with_sqrt_first_column(self):
        t = DistributionTable(2, np.array([0.5, 0.25, 0.125, 0.125]))
        assert t.prep is t.prep
        np.testing.assert_allclose(t.prep.matrix[:, 0], np.sqrt(t.probs), atol=1e-15)

    def test_cdf_built_once_read_only(self):
        t = DistributionTable(2, np.array([0.5, 0.25, 0.125, 0.125]))
        assert t.cdf is t.cdf
        assert t.cdf.tolist() == [0.5, 0.75, 0.875, 1.0]
        with pytest.raises(ValueError, match="read-only"):
            t.cdf[0] = 0.0

    def test_amplify_repeats_one_table(self):
        base = build_smooth_xor_reduction(2, 1, 0, DistributionTable(2, np.array([0.4, 0.3, 0.2, 0.1])))
        r = amplify(base, 5)
        assert all(t is base.distributions[0] for t in r.distributions)

    def test_wide_uniform_refused_before_its_table(self):
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                build_xor_reduction(20, 1, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_uniform_built_once_per_width_and_capped_on_every_call(self):
        for m in (1, 2, 3):
            assert DistributionTable.uniform(m) is DistributionTable.uniform(m)
            assert DistributionTable.uniform(m).prep is build_xor_reduction(m, 1, 0).distributions[0].prep
        with mock.patch.dict(os.environ, {"TRAPQIP_MAX_QUBITS": "2"}):
            with pytest.raises(CapacityError):
                DistributionTable.uniform(3)

    def test_every_builder_checks_the_cap(self):
        with pytest.raises(CapacityError):
            build_known_smooth_reduction(5, 1, 0, [DistributionTable.uniform(5)])


class TestQueryStates:
    @pytest.mark.parametrize("m, t", [(1, 1), (2, 1), (3, 1), (4, 1), (1, 3), (2, 3)])
    def test_support_entries_share_no_row_or_column(self, m, t):
        # the search's gradient scatters into the support's rows and columns,
        # which needs each to hold one entry at most
        raw = np.linspace(1.0, 2.0, 1 << m)
        preps = [DistributionTable(m, raw / raw.sum()).prep.matrix[:, 0]] * t
        for seed in range(3):
            f = random_permutation(m, seed)
            for x in (None, 0, (1 << m) - 1):
                rows, cols, amps = response_support(m, f, x, preps)
                assert rows.size == cols.size == amps.size == 1 << (m * t)
                assert np.unique(rows).size == rows.size
                assert np.unique(cols).size == cols.size

    def test_single_query_amplitudes(self):
        r = build_xor_reduction(2, 1, 0)
        st = generate_query_state(r, x=2)
        # work carries q xor x; copy mirrors q so both branches share one shape
        for q in range(4):
            p = measure_probability(st, {"query": q, "answer": 0, "work": q ^ 2, "copy": q})
            assert p == pytest.approx(0.25)

    def test_non_uniform_amplitudes_follow_table(self):
        t = DistributionTable(2, np.array([0.5, 0.25, 0.125, 0.125]))
        r = build_smooth_xor_reduction(2, 1, 0, t)
        st = generate_query_state(r, x=0)
        for q in range(4):
            p = measure_probability(st, {"query": q, "answer": 0, "work": q, "copy": q})
            assert p == pytest.approx(t.probs[q])

    def test_honest_answers_fill_answer_register(self):
        r = build_xor_reduction(2, 3, 0)
        f = xor_shift_permutation(2, 3)
        st = honest_answer_state(r, f, x=1)
        for q in range(4):
            p = measure_probability(st, {"query": q, "answer": q ^ 3, "work": q ^ 1, "copy": q})
            assert p == pytest.approx(0.25)

    def test_multi_copy_layout_grouped_by_kind(self):
        r = amplify(build_xor_reduction(1, 1, 0), 3)
        st = generate_query_state(r, x=0)
        names = st.layout.names
        assert names[:3] == ("query0", "query1", "query2")
        assert names[3:6] == ("answer0", "answer1", "answer2")

    def test_multi_copy_dense_state_respects_cap(self):
        r = amplify(build_xor_reduction(2, 1, 0), 3)
        with pytest.raises(Exception) as err:
            generate_query_state(r, x=0)
        assert "cap" in str(err.value)

    def test_wide_builder_refused_before_allocation(self):
        # the m = 8 generator would need a gigabyte-scale kron otherwise
        with pytest.raises(CapacityError):
            build_xor_reduction(8, 1, 0)


class TestNoise:
    def test_noise_range_checked(self):
        r = build_xor_reduction(2, 1, 0)
        with pytest.raises(ValueError):
            add_noise(r, 1.0)
        with pytest.raises(ValueError):
            add_noise(r, -0.1)

    def test_noise_composes_epsilon(self):
        r = add_noise(build_xor_reduction(2, 1, 0), 0.2)
        assert r.epsilon == pytest.approx(0.2)
        assert r.base_epsilon == pytest.approx(0.2)

    def test_rotation_shared_per_eps(self):
        first = add_noise(build_xor_reduction(2, 1, 0), 0.1)
        # the second call builds and checks no operator
        with mock.patch.object(UnitaryOperator, "__post_init__", side_effect=AssertionError("rebuilt")):
            second = add_noise(build_xor_reduction(3, 2, 1), 0.1)
        assert second.noise is first.noise
        assert add_noise(first, 0.25).noise is not add_noise(first, 0.25).noise
        twice = add_noise(first, 0.1).noise.matrix
        np.testing.assert_allclose(twice, first.noise.matrix @ first.noise.matrix, atol=1e-15)


class TestMajority:
    def test_frozen_binomial_tails(self):
        np.testing.assert_allclose(majority_error(1 / 3, 3), 7 / 27, atol=1e-15)
        np.testing.assert_allclose(majority_error(1 / 3, 3), 0.25925925925925924, atol=1e-15)
        np.testing.assert_allclose(majority_error(1 / 3, 5), 0.20987654320987653, atol=1e-12)
        np.testing.assert_allclose(majority_error(1 / 3, 7), 0.17329675354366714, atol=1e-12)
        np.testing.assert_allclose(majority_error(1 / 3, 25), 0.04151367840778967, atol=1e-12)

    def test_error_decreases_in_t(self):
        errs = [majority_error(1 / 3, t) for t in (1, 3, 5, 7, 9)]
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_even_t_rejected(self):
        with pytest.raises(ValueError):
            majority_error(0.2, 4)
        with pytest.raises(ValueError):
            amplify(build_xor_reduction(2, 1, 0), 2)

    def test_amplify_updates_error_via_tail(self):
        r = amplify(add_noise(build_xor_reduction(2, 1, 0), 1 / 3), 3)
        assert r.epsilon == pytest.approx(7 / 27)
        assert r.base_epsilon == pytest.approx(1 / 3)
        assert r.copies == 3

    def test_vote_table_counts_majority(self):
        for t in (1, 3, 5, 7):
            table = majority_vote_table(t)
            for votes in range(1 << t):
                want = 1 if bin(votes).count("1") > t // 2 else 0
                st = basis_state(layout(("votes", t), ("target", 1)), {"votes": votes, "target": 0})
                out = apply_basis_permutation(st, table, ["votes", "target"])
                assert measure_probability(out, {"votes": votes, "target": want}) == pytest.approx(1.0)
                assert table[(votes << 1) | 1] == (votes << 1) | (1 ^ want)
        with pytest.raises(ValueError):
            majority_vote_table(4)


def _dense_generator(probs: np.ndarray, m: int) -> UnitaryOperator:
    """Reference G on (x, query, work): CNOT-style basis map after a dense prep."""
    size = 1 << m
    target = np.sqrt(probs)
    v = target - np.eye(size)[0]
    prep_q = np.eye(size) if v @ v < 1e-30 else np.eye(size) - 2.0 * np.outer(v, v) / (v @ v)
    prep = np.kron(np.eye(size), np.kron(prep_q, np.eye(size)))
    idx = np.arange(size**3)
    w, q, x = idx & (size - 1), (idx >> m) & (size - 1), idx >> (2 * m)
    cnots = np.zeros((size**3, size**3))
    cnots[(x << (2 * m)) | (q << m) | (w ^ q ^ x), idx] = 1.0
    return UnitaryOperator(layout(("x", m), ("query", m), ("work", m)), cnots @ prep)


def _dense_decider(m: int, bit: int, noise_levels) -> UnitaryOperator:
    """Reference R on (answer, work, out): language-bit permutation, then each rotation."""
    dim = (1 << (2 * m)) * 2
    idx = np.arange(dim)
    w, a = (idx >> 1) & ((1 << m) - 1), idx >> (m + 1)
    mat = np.zeros((dim, dim))
    mat[idx ^ (((a ^ w) >> (m - 1 - bit)) & 1), idx] = 1.0
    for eps in noise_levels:
        c, s = math.cos(math.asin(math.sqrt(eps))), math.sqrt(eps)
        mat = np.kron(np.eye(dim // 2), np.array([[c, -s], [s, c]])) @ mat
    return UnitaryOperator(layout(("answer", m), ("work", m), ("out", 1)), mat)


def _random_state(lay, rng) -> StateVector:
    amps = rng.normal(size=lay.dim) + 1j * rng.normal(size=lay.dim)
    return StateVector(lay, amps / np.linalg.norm(amps))


class TestTablesMatchDenseOperators:
    """The table-backed generator and decider against rebuilt dense matrices."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_generator(self, m):
        # x is a basis value: XORing it into work, then the generator, is the
        # x-slice of the dense G on (x, query, work), which leaves x intact
        rng = np.random.default_rng(m)
        raw = rng.uniform(0.5, 1.5, size=1 << m)
        smooth = DistributionTable(m, raw / raw.sum())
        lay = layout(("query", m), ("answer", m), ("work", m))
        for r in (build_xor_reduction(m, 1, 0), build_smooth_xor_reduction(m, 1, 0, smooth)):
            dense = _dense_generator(r.distributions[0].probs, m)
            for x in range(1 << m):
                for _ in range(3):
                    st = _random_state(lay, rng)
                    with_x = apply_on_registers(
                        tensor_product(basis_state(layout(("x", m)), x), st), dense, ["x", "query", "work"]
                    )
                    assert abs(measure_probability(with_x, {"x": x}) - 1.0) <= 1e-12
                    shifted = apply_basis_permutation(st, np.arange(1 << m) ^ x, ["work"])
                    np.testing.assert_allclose(
                        apply_generator(shifted, r, 0).amplitudes,
                        with_x.amplitudes.reshape(1 << m, -1)[x],
                        atol=1e-12,
                    )

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_decider_with_stacked_noise(self, m):
        rng = np.random.default_rng(10 + m)
        # an idle register between the targets checks the embedding
        lay = layout(("out", 1), ("answer", m), ("copy", 1), ("work", m))
        stacks = [()] + [(eps,) * n for eps in (0.0, 0.1, 0.25) for n in (1, 2)]
        for bit in range(m):
            for levels in stacks:
                r = build_xor_reduction(m, 1, bit)
                for level in levels:
                    r = add_noise(r, level)
                dense = _dense_decider(m, bit, levels)
                for _ in range(2):
                    st = _random_state(lay, rng)
                    np.testing.assert_allclose(
                        apply_decider(st, r, "answer", "work", "out").amplitudes,
                        apply_on_registers(st, dense, ["answer", "work", "out"]).amplitudes,
                        atol=1e-12,
                    )
