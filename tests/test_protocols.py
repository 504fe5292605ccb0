"""Protocol engine tests: completeness, trap checks, cheating ceilings."""

import numpy as np
import pytest

from trapqip.core import CapacityError, InvariantError, LayoutError
from trapqip.core import (
    apply_basis_permutation,
    apply_on_registers,
    basis_state,
    layout,
    measure_probability,
    overlap,
    partial_trace,
    tensor_product,
)
from trapqip.oracles import inversion_table, random_permutation, xor_shift_permutation
from trapqip.protocols import (
    ProtocolResult,
    Prover,
    branch_overlap_pair,
    cheat_upper_bound,
    prover_search,
    run_classical_query_protocol,
    run_multiquery_protocol,
    run_protocol,
    run_smooth_protocol,
    trap_answer_state,
    trap_state,
    trap_verifier,
)
from trapqip.reductions import (
    DistributionTable,
    add_noise,
    amplify,
    build_smooth_xor_reduction,
    build_xor_reduction,
    generate_query_state,
    honest_answer_state,
    majority_error,
)
from trapqip.sampling import haar_unitary


def _yes_instance(m, s, bit):
    # smallest x whose decision bit lands on the accepting side
    for x in range(1 << m):
        if ((x ^ s) >> (m - 1 - bit)) & 1 == 0:
            return x
    raise AssertionError("xor language is never all ones")


class TestCompleteness:
    def test_noiseless_honest_accepts(self):
        for m in (2, 3):
            r = build_xor_reduction(m, 1, 0)
            f = xor_shift_permutation(m, 1)
            res = run_protocol(r, f, _yes_instance(m, 1, 0), Prover.honest())
            np.testing.assert_allclose(res.accept_prob, 1.0, atol=1e-9)

    def test_noisy_honest_loses_half_epsilon(self):
        # one sided noise only hurts the computation branch
        for m in (2, 3):
            for eps in (0.1, 0.25):
                r = add_noise(build_xor_reduction(m, 1, 0), eps)
                f = xor_shift_permutation(m, 1)
                res = run_protocol(r, f, _yes_instance(m, 1, 0), Prover.honest())
                np.testing.assert_allclose(res.accept_prob, 1 - eps / 2, atol=1e-9)

    def test_no_instance_rides_on_trap_branch(self):
        r = add_noise(build_xor_reduction(2, 1, 0), 0.25)
        f = xor_shift_permutation(2, 1)
        res = run_protocol(r, f, 2, Prover.honest())
        np.testing.assert_allclose(res.p1, 1.0, atol=1e-9)
        np.testing.assert_allclose(res.accept_prob, (0.25 + 1) / 2, atol=1e-9)

    def test_accept_output_flips_roles(self):
        r = build_xor_reduction(2, 1, 0)
        f = xor_shift_permutation(2, 1)
        res = run_protocol(r, f, 2, Prover.honest(), accept_output=1)
        np.testing.assert_allclose(res.accept_prob, 1.0, atol=1e-9)


class TestTrapVerifier:
    def test_honest_trap_uncomputes_to_zero(self):
        # the verifier maps the honest trap response to the all zero string
        for m in (2, 3):
            r = build_xor_reduction(m, 1, 0)
            for seed in range(10):
                f = random_permutation(m, seed=seed)
                st = trap_answer_state(r, f)
                out = apply_on_registers(st, trap_verifier(f), ["query", "answer", "copy"])
                p = measure_probability(out, {"query": 0, "answer": 0, "work": 0, "copy": 0})
                np.testing.assert_allclose(p, 1.0, atol=1e-9)

    def test_wrong_permutation_leaks_amplitude(self):
        r = build_xor_reduction(2, 1, 0)
        f = random_permutation(2, seed=3)
        g = random_permutation(2, seed=4)
        st = trap_answer_state(r, f)
        out = apply_on_registers(st, trap_verifier(g), ["query", "answer", "copy"])
        p = measure_probability(out, {"query": 0, "answer": 0, "work": 0, "copy": 0})
        assert p < 1 - 1e-6


class TestBranchBalance:
    def test_any_prover_sees_identical_branches(self):
        # reduced prover views agree, so both overlaps must match exactly
        rng = np.random.default_rng(11)
        r = build_xor_reduction(2, 1, 0)
        f = xor_shift_permutation(2, 1)
        for i in range(10):
            p = i % 3
            u = haar_unitary(1 << (4 + p), rng)
            prover = Prover.unitary_cheat(u, prover_qubits=p)
            p0, p1 = branch_overlap_pair(r, f, i % 4, prover)
            assert abs(p0 - p1) <= 1e-9

    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_overlaps_match_partial_trace_reference(self, p):
        # reference: trace the private register out of the full post-prover
        # density, then take the overlap with the honest response
        rng = np.random.default_rng(20 + p)
        r = add_noise(build_xor_reduction(2, 1, 0), 0.25)
        f = random_permutation(2, 3)
        u = haar_unitary(1 << (4 + p), rng)
        prover = Prover.unitary_cheat(u, prover_qubits=p)
        for x in range(4):
            comp = (generate_query_state(r, x), honest_answer_state(r, f, x))
            trap = (trap_state(2), trap_answer_state(r, f))
            for value, (start, honest) in zip(branch_overlap_pair(r, f, x, prover), (comp, trap)):
                state = tensor_product(basis_state(layout(("prover", p))), start) if p else start
                state = apply_basis_permutation(state, inversion_table(f), ["query", "answer"])
                targets = (["prover"] if p else []) + ["query", "answer"]
                state = apply_on_registers(state, prover.unitary, targets)
                want = overlap(partial_trace(state, keep=honest.layout.names), honest)
                assert abs(value - want) <= 1e-12


class TestCheatBound:
    def test_frozen_bounds(self):
        r = build_xor_reduction(2, 1, 0)
        f = xor_shift_permutation(2, 1)
        for eps, want in ((0.0, 0.5), (0.1, 0.658113883008419), (0.25, 0.75)):
            rr = add_noise(r, eps) if eps else r
            b = cheat_upper_bound(rr, f, 2)
            np.testing.assert_allclose(b.bound, want, atol=1e-12)
            np.testing.assert_allclose(b.sin_sq, eps, atol=1e-12)
            assert abs(b.bound - b.eigen_bound) <= 1e-9

    def test_multi_copy_rejected(self):
        r = amplify(build_xor_reduction(2, 1, 0), 3)
        f = xor_shift_permutation(2, 1)
        with pytest.raises(ValueError):
            cheat_upper_bound(r, f, 2)

    def test_projector_width_capped(self):
        r = build_xor_reduction(3, 1, 0)
        f = xor_shift_permutation(3, 1)
        with pytest.raises(CapacityError):
            cheat_upper_bound(r, f, 2)


class TestProverSearch:
    def test_zero_iterations_is_honest_value(self):
        r = build_xor_reduction(2, 1, 0)
        f = xor_shift_permutation(2, 1)
        _, value = prover_search(r, f, 2, 0, 0, seed=9)
        np.testing.assert_allclose(value, 0.5, atol=1e-9)

    def test_value_monotone_in_iterations(self):
        r = add_noise(build_xor_reduction(2, 1, 0), 0.25)
        f = xor_shift_permutation(2, 1)
        values = [prover_search(r, f, 2, 1, it, seed=4)[1] for it in (0, 100, 300)]
        assert values[0] <= values[1] + 1e-12
        assert values[1] <= values[2] + 1e-12

    def test_ceiling_holds(self):
        f = xor_shift_permutation(2, 1)
        for eps in (0.0, 0.25):
            r = build_xor_reduction(2, 1, 0)
            if eps:
                r = add_noise(r, eps)
            bound = cheat_upper_bound(r, f, 2).bound
            for seed in range(4):
                prover, value = prover_search(r, f, 2, seed % 2, 120, seed=seed)
                assert prover.kind == "unitary-cheat"
                assert value <= bound + 1e-9

    def test_seeded_determinism(self):
        r = add_noise(build_xor_reduction(2, 1, 0), 0.25)
        f = xor_shift_permutation(2, 1)
        a = prover_search(r, f, 2, 0, 60, seed=5)
        b = prover_search(r, f, 2, 0, 60, seed=5)
        assert a[1] == b[1]
        np.testing.assert_allclose(a[0].unitary.matrix, b[0].unitary.matrix)

    def test_non_uniform_queries_rejected(self):
        table = DistributionTable(2, (0.5, 0.25, 0.125, 0.125))
        r = build_smooth_xor_reduction(2, 1, 0, table)
        f = xor_shift_permutation(2, 1)
        with pytest.raises(ValueError):
            prover_search(r, f, 2, 0, 5, seed=0)

    def test_multi_copy_rejected(self):
        r = amplify(build_xor_reduction(2, 1, 0), 3)
        f = xor_shift_permutation(2, 1)
        with pytest.raises(ValueError):
            prover_search(r, f, 2, 0, 5, seed=0)


class TestMultiQuery:
    """Repetition with majority decoding, honest product path vs dense path."""

    def test_majority_shrinks_noise(self):
        r = amplify(add_noise(build_xor_reduction(1, 1, 0), 1 / 3), 3)
        f = xor_shift_permutation(1, 1)
        res = run_multiquery_protocol(r, f, 1, Prover.honest())
        np.testing.assert_allclose(res.accept_prob, 1 - (7 / 27) / 2, atol=1e-9)

    def test_dense_identity_matches_product(self):
        r = amplify(add_noise(build_xor_reduction(1, 1, 0), 1 / 3), 3)
        f = xor_shift_permutation(1, 1)
        hon = run_multiquery_protocol(r, f, 1, Prover.honest())
        dense = run_multiquery_protocol(r, f, 1, Prover.unitary_cheat(np.eye(1 << 6)))
        np.testing.assert_allclose(dense.accept_prob, hon.accept_prob, atol=1e-9)

    @pytest.mark.parametrize("prover", [Prover.honest(), Prover.unitary_cheat(np.eye(1 << 6))])
    def test_run_protocol_takes_any_copy_count(self, prover):
        # language(x) = x XOR 1; each copy errs with 1/3, the vote with 7/27
        r = amplify(add_noise(build_xor_reduction(1, 1, 0), 1 / 3), 3)
        f = xor_shift_permutation(1, 1)
        err = majority_error(1 / 3, 3)
        for x, want in ((0, err), (1, 1 - err)):
            res = run_protocol(r, f, x, prover)
            assert abs(res.p0 - want) <= 1e-12
            assert abs(res.p1 - 1.0) <= 1e-12

    def test_dense_multi_copy_over_cap(self):
        # 4 registers * 2 qubits * 3 copies already exceeds the default cap
        r = amplify(build_xor_reduction(2, 1, 0), 3)
        f = xor_shift_permutation(2, 1)
        with pytest.raises(CapacityError):
            run_multiquery_protocol(r, f, 0, Prover.unitary_cheat(np.eye(1 << 12)))


class TestClassicalProtocol:
    def test_honest_accepts_at_base_correctness(self):
        r = add_noise(build_xor_reduction(2, 1, 0), 1 / 3)
        f = xor_shift_permutation(2, 1)
        res = run_classical_query_protocol(r, f, 0, Prover.honest(), seed=2)
        np.testing.assert_allclose(res.accept_prob, 2 / 3, atol=1e-9)

    def test_amplified_honest(self):
        r = amplify(add_noise(build_xor_reduction(2, 1, 0), 1 / 3), 3)
        f = xor_shift_permutation(2, 1)
        res = run_classical_query_protocol(r, f, 0, Prover.honest(), seed=2)
        np.testing.assert_allclose(res.accept_prob, 1 - 7 / 27, atol=1e-9)

    def test_single_lie_caught_when_queried(self):
        # every wrong answer to the forced query fails the inversion check
        r = build_xor_reduction(2, 1, 0)
        f = xor_shift_permutation(2, 1)
        honest = tuple(q ^ 1 for q in range(4))
        for q in range(4):
            for wrong in range(4):
                if wrong == honest[q]:
                    continue
                answers = list(honest)
                answers[q] = wrong
                res = run_classical_query_protocol(
                    r, f, 0, Prover.classical(tuple(answers)), queries=[q]
                )
                assert res.accept_prob == 0.0

    def test_answer_table_length_checked(self):
        r = build_xor_reduction(2, 1, 0)
        f = xor_shift_permutation(2, 1)
        with pytest.raises(ValueError):
            run_classical_query_protocol(r, f, 0, Prover.classical((0, 1)))

    def test_classical_prover_rejected_by_quantum_engine(self):
        r = build_xor_reduction(2, 1, 0)
        f = xor_shift_permutation(2, 1)
        with pytest.raises(ValueError):
            run_protocol(r, f, 0, Prover.classical((1, 0, 3, 2)))


class TestSmoothProtocol:
    def test_uniform_table_matches_plain_engine(self):
        uni = build_smooth_xor_reduction(2, 1, 0, DistributionTable.uniform(2))
        plain = build_xor_reduction(2, 1, 0)
        f = xor_shift_permutation(2, 1)
        for x in range(4):
            a = run_smooth_protocol(uni, f, x, Prover.honest(), seed=3)
            b = run_protocol(plain, f, x, Prover.honest())
            np.testing.assert_allclose(a.accept_prob, b.accept_prob, atol=1e-9)

    def test_skewed_table_keeps_completeness(self):
        table = DistributionTable(2, (0.5, 0.25, 0.125, 0.125))
        r = build_smooth_xor_reduction(2, 1, 0, table)
        f = xor_shift_permutation(2, 1)
        res = run_smooth_protocol(r, f, 0, Prover.honest(), seed=5)
        np.testing.assert_allclose(res.accept_prob, 1.0, atol=1e-9)

    def test_metadata_records_resampling(self):
        table = DistributionTable(2, (0.5, 0.25, 0.125, 0.125))
        r = build_smooth_xor_reduction(2, 1, 0, table)
        f = xor_shift_permutation(2, 1)
        res = run_smooth_protocol(r, f, 0, Prover.honest(), seed=5)
        for key in ("up_rounds", "down_rounds", "up_budgets", "down_budgets",
                    "budget_exceeded", "protocol", "seed"):
            assert key in res.metadata

    def test_classical_prover_rejected(self):
        uni = build_smooth_xor_reduction(2, 1, 0, DistributionTable.uniform(2))
        f = xor_shift_permutation(2, 1)
        with pytest.raises(ValueError):
            run_smooth_protocol(uni, f, 0, Prover.classical((1, 0, 3, 2)))

    def test_non_smooth_table_rejected_at_build(self):
        bad = DistributionTable(2, (0.9, 0.05, 0.03, 0.02), c=2.0)
        assert not bad.is_smooth
        with pytest.raises(ValueError):
            build_smooth_xor_reduction(2, 1, 0, bad)


class TestValidation:
    def test_unknown_prover_kind(self):
        with pytest.raises(ValueError):
            Prover("bogus")

    def test_cheat_matrix_must_be_square_power_of_two(self):
        with pytest.raises(LayoutError):
            Prover.unitary_cheat(np.eye(3))

    def test_result_probabilities_range_checked(self):
        with pytest.raises(InvariantError):
            ProtocolResult(1.5, 0.0)
        with pytest.raises(InvariantError):
            ProtocolResult(0.0, -0.5)
