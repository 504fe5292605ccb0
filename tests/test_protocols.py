"""Protocol engine tests: completeness, trap checks, cheating ceilings."""

import gc
import weakref
from dataclasses import replace
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapqip import protocols, rejection
from trapqip.core import CapacityError, InvariantError, LayoutError
from trapqip.core import (
    RegisterLayout,
    StateVector,
    UnitaryOperator,
    adjoin_register,
    apply_basis_permutation,
    apply_on_registers,
    basis_state,
    condition_on,
    layout,
    measure_probability,
    partial_trace,
    reorder_registers,
    tensor_product,
)
from trapqip.oracles import inversion_table, random_permutation, xor_shift_permutation
from trapqip.protocols import (
    ProtocolResult,
    Prover,
    _copy_slice,
    _majority_accept,
    _pre_copy_state,
    _trap_branch,
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
    QUERY_REGISTER_KINDS,
    DistributionTable,
    add_noise,
    amplify,
    answer_queries,
    apply_decider,
    apply_generator,
    build_known_smooth_reduction,
    build_smooth_xor_reduction,
    build_xor_reduction,
    copy_register_names,
    decider_table,
    generate_query_state,
    honest_answer_state,
    majority_error,
    majority_vote_table,
    register_xor_table,
    response_support,
)
from trapqip.sampling import haar_isometry, haar_unitary

# the dense trap verifier, built once per permutation for the references below
_dense_verifier = lru_cache(maxsize=16)(trap_verifier)


def _join_copies(parts):
    """Tensor per-copy states, in order, into one multi-copy state whose
    registers carry the copy index and are grouped by kind (all queries, then
    answers, works, copies) by an explicit qubit permutation; a single part
    is returned as it is."""
    if len(parts) == 1:
        return parts[0]
    names = copy_register_names(len(parts))
    state = None
    for regs, part in zip(names, parts):
        part = StateVector(RegisterLayout(tuple((regs[n], w) for n, w in part.layout.registers)), part.amplitudes)
        state = part if state is None else tensor_product(state, part)
    return reorder_registers(state, [regs[kind] for kind in QUERY_REGISTER_KINDS for regs in names])


def _kernel_query_state(r, x):
    """The verifier's pre-send state on the statevector kernels: each copy's
    generator, then q copied into its copy register, the copies joined; the
    reference for the scattered responses."""
    lay = layout(("query", r.m), ("answer", r.m), ("work", r.m), ("copy", r.m))
    parts = [apply_generator(basis_state(lay, {"work": x}), r, i) for i in range(r.copies)]
    return _join_copies([apply_basis_permutation(part, register_xor_table(r.m), ["query", "copy"]) for part in parts])


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
            comp = (_kernel_query_state(r, x), honest_answer_state(r, f, x))
            trap = (trap_state(2), trap_answer_state(r, f))
            for value, (start, honest) in zip(branch_overlap_pair(r, f, x, prover), (comp, trap)):
                state = tensor_product(basis_state(layout(("prover", p))), start) if p else start
                state = apply_basis_permutation(state, inversion_table(f), ["query", "answer"])
                targets = (["prover"] if p else []) + ["query", "answer"]
                state = apply_on_registers(state, UnitaryOperator(layout(("cheat", 4 + p)), u), targets)
                rho = partial_trace(state, keep=honest.layout.names).matrix
                want = np.vdot(honest.amplitudes, rho @ honest.amplitudes).real
                assert abs(value - want) <= 1e-12


def _dense_prover_stage(u, p, copies):
    """The prover stage through the full unitary u: adjoin a zero private
    register to the honest response, then apply u on (prover, queries, answers)."""
    names = copy_register_names(copies)
    targets = (["prover"] if p else []) + [regs[kind] for kind in ("query", "answer") for regs in names]
    cheat = UnitaryOperator(layout(("cheat", u.shape[0].bit_length() - 1)), u)

    def stage(state, prover):
        if p:
            state = tensor_product(basis_state(layout(("prover", p))), state)
        return apply_on_registers(state, cheat, targets)

    return stage


def _decide_reference(state, r, accept_output):
    """Adjoin an out qubit per copy, run each copy's decider, vote over
    several copies into a vote qubit, and measure it (or the one out)."""
    outs = ["out"] if r.copies == 1 else [f"out{i}" for i in range(r.copies)]
    for regs, out in zip(copy_register_names(r.copies), outs):
        state = adjoin_register(state, out, 1)
        state = apply_decider(state, r, regs["answer"], regs["work"], out)
    if r.copies == 1:
        return measure_probability(state, {"out": accept_output})
    state = adjoin_register(state, "vote", 1)
    state = apply_basis_permutation(state, majority_vote_table(r.copies), [*outs, "vote"])
    return measure_probability(state, {"vote": accept_output})


def _computation_branch(state, r, accept_output):
    """The computation branch on the statevector kernels: erase every copy
    register, then run the deciders and the vote."""
    for regs in copy_register_names(r.copies):
        state = apply_basis_permutation(state, register_xor_table(r.m), [regs["query"], regs["copy"]])
    return _decide_reference(state, r, accept_output)


def _cheat_reference(r, f, x, u, p):
    """A cheat's values on the statevector kernels through its dense unitary
    u: p0 at accept_output 0 and 1, p1, and the two branch overlaps.  The
    trap check runs the dense verifier on every copy, then reads every
    register but the private one at zero."""
    stage = _dense_prover_stage(u, p, r.copies)
    responses = (honest_answer_state(r, f, x), trap_answer_state(r, f))
    comp, trap = (stage(honest, None) for honest in responses)
    # the private register is the most significant, so each row is one of its values
    overlaps = [
        np.linalg.norm(out.amplitudes.reshape(-1, honest.dim) @ honest.amplitudes.conj()) ** 2
        for out, honest in zip((comp, trap), responses)
    ]
    names = copy_register_names(r.copies)
    for regs in names:
        trap = apply_on_registers(trap, _dense_verifier(f), [regs["query"], regs["answer"], regs["copy"]])
    p1 = measure_probability(trap, {name: 0 for regs in names for name in regs.values()})
    return [_computation_branch(comp, r, 0), _computation_branch(comp, r, 1), p1, *overlaps]


def _unitary_completion(v):
    """A unitary whose first columns are the isometry v, completed by an
    orthonormal basis of the complement of its range."""
    k = v.shape[1]
    vh = np.linalg.svd(v.conj().T)[2]
    return np.hstack([v, vh[k:].conj().T])


def _dense_cheat_values(r, f, x, v, accept_output):
    """A cheat's values from dense products on the square responses, rows
    (queries, answers) and columns (works, copies): p0 = sum w |v a0|^2 with
    the decider's weight on every index, then each branch's overlap sum
    |<response|v response>|^2 by an einsum, a0's and then t's (t's is p1)."""
    m, t = r.m, r.copies
    msg, low = 1 << (2 * m * t), (1 << m) - 1
    a0 = honest_answer_state(r, f, x).amplitudes.reshape(msg, msg)
    trap = trap_answer_state(r, f).amplitudes.reshape(msg, msg)
    block = protocols._normal_form(r, f, x, accept_output)[2]
    idx, bits = np.arange(msg * msg), 0
    for shift in range(m * (t - 1), -1, -m):
        answer_work = (((idx >> (2 * m * t + shift)) & low) << m) | ((idx >> (m * t + shift)) & low)
        bits = (bits << 1) | (decider_table(m, r.bit)[answer_work << 1] & 1)
    weights = block[bits, bits].real.reshape(msg, msg)
    p0 = np.sum(weights * np.abs((v @ a0).reshape(-1, msg, msg)) ** 2)
    amps = [np.einsum("kij,ij->k", (v @ resp).reshape(-1, msg, msg), resp.conj()) for resp in (a0, trap)]
    return [p0, *(np.vdot(amp, amp).real for amp in amps)]


class TestIsometryStage:
    """Every cheat value against the dense unitary route on the statevector kernels."""

    @pytest.mark.parametrize(
        "m, t, p",
        [(m, 1, p) for m in (1, 2) for p in range(4)] + [(3, 1, p) for p in range(3)] + [(1, 3, p) for p in range(3)],
    )
    def test_engines_match_dense_unitary_route(self, m, t, p):
        rng = np.random.default_rng(40 + 8 * m + p)
        perms = [xor_shift_permutation(m, 1), random_permutation(m, 5)]
        u = haar_unitary(1 << (p + 2 * m * t), rng)
        prover = Prover.unitary_cheat(u, prover_qubits=p)
        assert prover.isometry.shape == (1 << (p + 2 * m * t), 1 << (2 * m * t))
        worst = 0.0
        for eps in (0.0, 0.1, 0.25):
            base = build_xor_reduction(m, 1, 0)
            r = amplify(add_noise(base, eps) if eps else base, t)
            for f in perms:
                for x in range(1 << m):
                    want = _cheat_reference(r, f, x, u, p)
                    overlaps = branch_overlap_pair(r, f, x, prover)
                    for accept_output in (0, 1):
                        res = run_protocol(r, f, x, prover, accept_output=accept_output)
                        got = [res.p0, res.p1, *overlaps]
                        worst = max(worst, np.abs(np.subtract(got, [want[accept_output], *want[2:]])).max())
        assert worst <= 1e-12

    @pytest.mark.parametrize("p", [0, 2])
    def test_m4_matches_dense_products(self, p):
        # the statevector route cannot reach m = 4: its dense trap verifier
        # alone needs 24 qubits of budget, so dense products on the square
        # responses are the reference here
        m = 4
        rng = np.random.default_rng(70 + p)
        v = haar_isometry(1 << (p + 2 * m), 1 << (2 * m), rng)
        prover = Prover.unitary_cheat(v, p)
        r = add_noise(build_xor_reduction(m, 5, 1), 0.1)
        worst = 0.0
        for f in (xor_shift_permutation(m, 5), random_permutation(m, 8)):
            for x in (0, 6, 15):
                overlaps = branch_overlap_pair(r, f, x, prover)
                for accept_output in (0, 1):
                    p0, *want = _dense_cheat_values(r, f, x, prover.isometry, accept_output)
                    res = run_protocol(r, f, x, prover, accept_output=accept_output)
                    got = [res.p0, *overlaps]
                    worst = max(worst, abs(res.p1 - want[1]), np.abs(np.subtract(got, [p0, *want])).max())
        assert worst <= 1e-12

    @pytest.mark.parametrize("m, t", [(1, 1), (1, 3), (4, 1)])
    def test_identity_cheat_scores_honest_closed_form(self, m, t):
        f = xor_shift_permutation(m, 1)
        msg = 1 << (2 * m * t)
        for p in range(3):
            prover = Prover.unitary_cheat(np.eye(msg << p, msg), p)
            for eps in (0.0, 0.1, 0.25):
                base = build_xor_reduction(m, 1, 0)
                r = amplify(add_noise(base, eps) if eps else base, t)
                # one input per language side keeps m = 4 small
                for x in (0, (1 << m) - 1):
                    for accept_output in (0, 1):
                        res = run_protocol(r, f, x, prover, accept_output=accept_output)
                        want = 1.0 - r.epsilon if r.language(x) == accept_output else r.epsilon
                        assert abs(res.p0 - want) <= 1e-12
                        assert abs(res.p1 - 1.0) <= 1e-12


def _never(*args, **kwargs):
    raise AssertionError("a statevector was built where the responses' supports suffice")


class TestHonestResponsesBuiltOnce:
    """Every branch starts from the honest responses a0 and t, each built once as its support."""

    @pytest.mark.parametrize("p", [None, 0, 1, 2])
    def test_overlap_builds_each_response_once(self, p, monkeypatch):
        r = add_noise(build_xor_reduction(2, 1, 0), 0.25)
        f = random_permutation(2, 3)
        rng = np.random.default_rng(30 + (p or 0))
        prover = Prover.honest() if p is None else Prover.unitary_cheat(haar_unitary(1 << (4 + p), rng), p)
        for x in range(4):
            want = branch_overlap_pair(r, f, x, prover)
            supports = _counting(monkeypatch, protocols, "response_support")
            monkeypatch.setattr(StateVector, "__post_init__", _never)
            got = branch_overlap_pair(r, f, x, prover)
            monkeypatch.undo()
            assert got == want
            # a0's support at x, then t's (x None), and no statevector
            assert [args[2] for args in supports] == [x, None]

    @pytest.mark.parametrize("t, cheat", [(1, False), (3, False), (1, True), (3, True)])
    def test_engines_take_trap_acceptance_once(self, t, cheat, monkeypatch):
        m = 1
        f = xor_shift_permutation(m, 1)
        trap = amplify(add_noise(build_xor_reduction(m, 1, 0), 0.1), t)
        smooth = amplify(build_smooth_xor_reduction(m, 1, 0, _smooth_tables(m)[1]), t)
        u = haar_unitary(2 << (2 * m * t), np.random.default_rng(t))
        prover = Prover.unitary_cheat(u, 1) if cheat else Prover.honest()
        for r, engine in ((trap, run_protocol), (smooth, run_smooth_protocol)):
            want = engine(r, f, 0, prover)
            protocols._honest_trap_accept.cache_clear()
            accepts = _counting(monkeypatch, protocols, "_trap_accept")
            checks = _counting(monkeypatch, protocols, "_trap_branch")
            overlaps = _counting(monkeypatch, protocols, "_cheat_overlap")
            got = engine(r, f, 0, prover)
            monkeypatch.undo()
            assert (got.p0, got.p1, repr(got.metadata)) == (want.p0, want.p1, repr(want.metadata))
            # one call on the full reduction, and the trap branch is scored
            # once: an honest check on one copy through the cold memo, or a
            # cheat's overlap with t on the normal form
            assert [args[0] for args in accepts] == [r]
            assert (len(checks), len(overlaps)) == ((0, 1) if cheat else (1, 0))


class TestHonestTrapMemo:
    """An honest trap check runs once per permutation, with the uncached bytes."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_memo_equals_uncached_trap_check(self, m, monkeypatch):
        r = build_xor_reduction(m, 1, 0)
        perms = [xor_shift_permutation(m, s) for s in range(1 << m)]
        perms += [random_permutation(m, seed) for seed in range(3)]
        perms = list(dict.fromkeys(perms))  # equal tables share one memo entry
        protocols._honest_trap_accept.cache_clear()
        checks = _counting(monkeypatch, protocols, "_trap_branch")
        for f in perms:
            got = protocols._honest_trap_accept(f)
            # every honest check reads the same value, so also check what it ran on
            [(state, verifier)] = checks
            checks.clear()
            assert np.array_equal(state.amplitudes, trap_answer_state(r, f).amplitudes)
            assert state.layout == trap_answer_state(r, f).layout
            assert np.array_equal(verifier.matrix, _dense_verifier(f).matrix)
            assert got == _trap_branch(trap_answer_state(r, f), _dense_verifier(f))

    def test_honest_p1_matches_cold_runs(self):
        m = 2
        f = random_permutation(m, 5)
        table = _smooth_tables(m)[2]
        runs = []
        for eps in (0.0, 0.1, 0.25):
            for bit in range(m):
                for t in (1, 3, 5):
                    for base, engine in (
                        (build_xor_reduction(m, 2, bit), run_protocol),
                        (build_smooth_xor_reduction(m, 2, bit, table), run_smooth_protocol),
                    ):
                        r = amplify(add_noise(base, eps) if eps else base, t)
                        runs += [(engine, r, x) for x in range(1 << m)]

        def record(engine, r, x):
            res = engine(r, f, x, Prover.honest())
            return res.p0, res.p1, repr(res.metadata)

        cold = []
        for run in runs:
            protocols._honest_trap_accept.cache_clear()
            cold.append(record(*run))
        assert [record(*run) for run in runs] == cold

    def test_trap_check_once_per_permutation(self, monkeypatch):
        m = 2
        f = random_permutation(m, 6)
        r = add_noise(build_xor_reduction(m, 1, 0), 0.1)
        smooth = build_smooth_xor_reduction(m, 1, 0, _smooth_tables(m)[1])
        cheat = Prover.unitary_cheat(haar_unitary(1 << (2 * m), np.random.default_rng(6)))
        protocols._honest_trap_accept.cache_clear()
        checks = _counting(monkeypatch, protocols, "_trap_branch")
        built = _counting(monkeypatch, protocols, "trap_verifier")
        run_protocol(r, f, 0, Prover.honest())
        run_smooth_protocol(amplify(smooth, 3), f, 1, Prover.honest())
        assert len(checks) == len(built) == 1
        # a cheat is scored on the normal form: no dense check, no verifier
        for _ in range(3):
            run_protocol(r, f, 0, cheat)
            run_smooth_protocol(smooth, f, 1, cheat)
        assert len(checks) == len(built) == 1

    def test_wrapped_verifier_cache_stays_empty(self, monkeypatch):
        # whatever wraps trap_verifier, as a tracer does, an honest run keeps
        # no dense verifier once its memo has its value
        made = []

        def traced(f):
            verifier = trap_verifier(f)
            made.append(weakref.ref(verifier))
            return verifier

        monkeypatch.setattr(protocols, "trap_verifier", traced)
        protocols._honest_trap_accept.cache_clear()
        run_protocol(build_xor_reduction(2, 1, 0), random_permutation(2, 7), 0, Prover.honest())
        gc.collect()
        assert len(made) == 1 and made[0]() is None


def _dense_projector(r, accept_output):
    """Reference acceptance projector W^dag M W from dense matrices: W is the
    copy erasure, then the decider, then the noise rotation on out, over
    (query, answer, work, copy, out); M keeps out = accept_output."""
    m = r.m
    size = 1 << m
    dim = 1 << (4 * m + 1)
    idx = np.arange(dim)
    query = idx >> (3 * m + 1)
    answer = (idx >> (2 * m + 1)) & (size - 1)
    work = (idx >> (m + 1)) & (size - 1)
    erase = np.zeros((dim, dim))
    erase[idx ^ (query << 1), idx] = 1.0
    decide = np.zeros((dim, dim))
    decide[idx ^ (((answer ^ work) >> (m - 1 - r.bit)) & 1), idx] = 1.0
    rot = np.eye(2) if r.noise is None else r.noise.matrix
    w = np.kron(np.eye(dim // 2), rot) @ decide @ erase
    keep = np.kron(np.eye(dim // 2), np.diag([accept_output == 0, accept_output == 1]).astype(float))
    return w.conj().T @ keep @ w


def _compressed_bounds(r, f, accept_output):
    """Reference ceiling, per input x, for cheats whose private register
    starts at zero: half the top eigenvalue of the out = 0 block of the dense
    projector plus |phi><phi|, phi the honest response."""
    block = _dense_projector(r, accept_output)[0::2, 0::2]
    bounds = []
    for x in range(1 << r.m):
        phi = honest_answer_state(r, f, x).amplitudes
        bounds.append(np.linalg.eigvalsh(block + np.outer(phi, phi.conj()))[-1] / 2.0)
    return bounds


class TestStructuredProjector:
    """The normal form's projector, a bit table and one 2x2 block, and the
    compressed eigen oracle against the dense projector."""

    @pytest.mark.parametrize("m", [1, 2])
    def test_entries_and_ceiling_match_dense_projector(self, m):
        f = random_permutation(m, seed=7)
        for bit in range(m):
            for eps in (0.0, 0.1, 0.25):
                base = build_xor_reduction(m, 1, bit)
                r = add_noise(base, eps) if eps else base
                for accept_output in (0, 1):
                    dense = _dense_projector(r, accept_output)
                    (_, cols, _), bits, block = protocols._normal_form(r, f, 0, accept_output)
                    n, msg = 1 << (4 * m), len(bits)
                    # index (row i, column cols[k]) with out o meets itself with
                    # out o' through block[bits[i, k] ^ o, bits[i, k] ^ o']; bits
                    # holds every row and a0's columns, where a cheat's image of a0 lies
                    held = (np.arange(msg)[:, None] * msg + cols).ravel()
                    outs = bits.reshape(-1, 1) ^ np.array([0, 1])
                    want = block[outs[:, :, None], outs[:, None, :]]
                    per_index = dense.reshape(n, 2, n, 2)[np.arange(n), :, np.arange(n), :]
                    assert np.abs(per_index[held] - want).max() <= 1e-12
                    rest = dense.reshape(n, 2, n, 2).copy()
                    rest[np.arange(n), :, np.arange(n), :] = 0.0
                    assert np.abs(rest).max() <= 1e-12
                    # one input per language side keeps the dense eigvalsh count small
                    for x in (0, (1 << m) - 1):
                        cb = cheat_upper_bound(r, f, x, accept_output)
                        phi = np.kron(honest_answer_state(r, f, x).amplitudes, [1.0, 0.0])
                        assert abs(cb.sin_sq - np.vdot(phi, dense @ phi).real) <= 1e-12
                        top = np.linalg.eigvalsh(dense + np.outer(phi, phi.conj()))[-1]
                        assert abs(cb.eigen_bound - top / 2.0) <= 1e-12


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

    def test_ceiling_builds_no_trap_response(self):
        # a support's x is None for the trap response t alone
        r = add_noise(build_xor_reduction(2, 1, 0), 0.25)
        f = xor_shift_permutation(2, 1)
        with mock.patch.object(protocols, "response_support", wraps=response_support) as built:
            cheat_upper_bound(r, f, 2)
            assert [call.args[2] for call in built.call_args_list] == [2]
            prover_search(r, f, 2, 0, 10, seed=0)
            assert [call.args[2] for call in built.call_args_list] == [2, 2, None]

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

    def test_builds_the_normal_form_once(self):
        r = add_noise(build_xor_reduction(2, 1, 0), 0.25)
        f = xor_shift_permutation(2, 1)

        def counted(name):
            return mock.patch.object(protocols, name, wraps=getattr(protocols, name))

        with counted("_check_instance") as gate, counted("response_support") as built:
            prover_search(r, f, 2, 1, 100, seed=0)
        # a0's support at x = 2, then t's
        assert (gate.call_count, [call.args[2] for call in built.call_args_list]) == (1, [2, None])

    def test_seeded_determinism(self):
        r = add_noise(build_xor_reduction(2, 1, 0), 0.25)
        f = xor_shift_permutation(2, 1)
        a = prover_search(r, f, 2, 0, 60, seed=5)
        b = prover_search(r, f, 2, 0, 60, seed=5)
        assert a[1] == b[1]
        np.testing.assert_allclose(a[0].isometry, b[0].isometry)

    @pytest.mark.parametrize("m", [1, 2])
    def test_search_between_honest_and_compressed_bound(self, m):
        # 300 iterations run the identity climb and one Haar climb
        f = random_permutation(m, seed=3)
        for eps in (0.0, 0.1, 0.25):
            base = build_xor_reduction(m, 1, 0)
            r = add_noise(base, eps) if eps else base
            for accept_output in (0, 1):
                for x, compressed in enumerate(_compressed_bounds(r, f, accept_output)):
                    honest = run_protocol(r, f, x, Prover.honest(), accept_output=accept_output).accept_prob
                    ceiling = cheat_upper_bound(r, f, x, accept_output).bound
                    assert compressed <= ceiling + 1e-9
                    for p in (0, 1, 2):
                        _, value = prover_search(r, f, x, p, 300, seed=x + p, accept_output=accept_output)
                        assert honest - 1e-9 <= value <= compressed + 1e-9

    @pytest.mark.parametrize("m", [1, 2])
    def test_climbs_reach_compressed_bound(self, m):
        f = random_permutation(m, seed=3)
        rng = np.random.default_rng(m)
        msg = 1 << (2 * m)
        for eps in (0.1, 0.25):
            r = add_noise(build_xor_reduction(m, 1, 0), eps)
            bounds = [_compressed_bounds(r, f, accept_output) for accept_output in (0, 1)]
            for p in (0, 1, 2):
                x, accept_output = int(rng.integers(1 << m)), p % 2
                a0, bits, block = protocols._normal_form(r, f, x, accept_output)
                objective = protocols._search_context(a0, protocols._trap_support(m, 1, f), bits, block)
                start = haar_unitary(1 << (p + 2 * m), rng)[:, :msg]
                calls = []

                def counted(v):
                    calls.append(v)
                    return objective(v)

                v, score = protocols._climb(counted, start, protocols.RESTART_EVERY - 1)
                assert abs(score - bounds[accept_output][x]) <= 1e-6
                assert score == objective(v)[0]
                np.testing.assert_allclose(v.conj().T @ v, np.eye(msg), atol=1e-12)
                # the climb stopped after len(calls) - 1 steps; a run of k + 1
                # steps continues the run of k, so no prefix scores lower
                scores = [protocols._climb(objective, start, k)[1] for k in range(len(calls) + 1)]
                assert all(a <= b for a, b in zip(scores, scores[1:]))
                assert scores[-1] == score

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_value_matches_trap_engine(self, data):
        # the engine never sees the search's incremental scores, so this
        # catches drift between them and the unitary they describe
        m = data.draw(st.integers(1, 2))
        p = data.draw(st.integers(0, 2))
        eps = data.draw(st.sampled_from((0.0, 0.1, 0.25)))
        x = data.draw(st.integers(0, (1 << m) - 1))
        accept_output = data.draw(st.integers(0, 1))
        iters = data.draw(st.integers(0, 200))
        restart_every = data.draw(st.sampled_from((40, protocols.RESTART_EVERY)))
        seed = data.draw(st.integers(0, 2**32 - 1))
        base = build_xor_reduction(m, 1, 0)
        r = add_noise(base, eps) if eps else base
        f = random_permutation(m, seed=3)
        with mock.patch.object(protocols, "RESTART_EVERY", restart_every):
            prover, value = prover_search(r, f, x, p, iters, seed=seed, accept_output=accept_output)
        engine = run_protocol(r, f, x, prover, accept_output=accept_output)
        assert abs(value - engine.accept_prob) <= 1e-12
        # the search and the engine share one scorer, so both answer to the kernels
        want = _cheat_reference(r, f, x, _unitary_completion(prover.isometry), p)
        assert abs(value - (want[accept_output] + want[2]) / 2.0) <= 1e-12

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


def _per_copy_reference(r, f, x, accept_output):
    """The honest trap engine on the statevector kernels, every copy in full,
    in order: the generator, the copy and the inverse oracle build each
    response, and a single copy is decided at accept_output directly."""
    ones, trap_ok = [], 1.0
    for i in range(r.copies):
        single = _copy_slice(r, i)
        ones.append(_computation_branch(answer_queries(_kernel_query_state(single, x), f, 1), single, 1))
        trap_ok *= _trap_branch(answer_queries(trap_state(r.m), f, 1), _dense_verifier(f))
    if r.copies == 1:
        return _computation_branch(answer_queries(_kernel_query_state(r, x), f, 1), r, accept_output), trap_ok, ones
    return _majority_accept(ones, r.copies, accept_output), trap_ok, ones


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls; returns the count list."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _smooth_tables(m):
    raw = [np.linspace(1.0, 1.0 + 0.3 * i, 1 << m) for i in range(3)]
    return [DistributionTable(m, w / w.sum()) for w in raw]


class TestHonestCopySharing:
    """Honest multi-copy runs simulate each distinct copy once, with the old bytes."""

    @pytest.mark.parametrize("m, t", [(1, 3), (1, 5), (1, 7), (2, 3), (2, 5), (2, 7), (3, 3), (3, 5)])
    def test_trap_engine_matches_per_copy_loop(self, m, t):
        s, bit = (1 << m) - 1, m - 1
        f = xor_shift_permutation(m, s)
        for eps in (0.0, 0.1, 0.25):
            base = build_xor_reduction(m, s, bit)
            r = amplify(add_noise(base, eps) if eps else base, t)
            for x in range(1 << m):
                for accept_output in (0, 1):
                    res = run_protocol(r, f, x, Prover.honest(), accept_output=accept_output)
                    p0, p1, ones = _per_copy_reference(r, f, x, accept_output)
                    assert res.p0 == p0
                    assert res.p1 == p1
                    assert res.metadata["per_copy_one_probs"] == ones

    @pytest.mark.parametrize("m", [1, 2])
    def test_distinct_copies_never_merged(self, m, monkeypatch):
        f = xor_shift_permutation(m, 1)
        distinct = build_known_smooth_reduction(m, 1, 0, _smooth_tables(m))
        identical = amplify(build_xor_reduction(m, 1, 0), 5)
        shared = build_known_smooth_reduction(m, 1, 0, [_smooth_tables(m)[1]] * 3)
        for r, want_generated in ((distinct, 3), (identical, 1), (shared, 1)):
            for x in range(1 << m):
                p0, p1, ones = _per_copy_reference(r, f, x, 0)
                protocols._honest_trap_accept.cache_clear()
                generated = _counting(monkeypatch, protocols, "_honest_copy_prob")
                traps = _counting(monkeypatch, protocols, "_trap_branch")
                res = run_protocol(r, f, x, Prover.honest())
                monkeypatch.undo()
                assert (res.p0, res.p1, res.metadata["per_copy_one_probs"]) == (p0, p1, ones)
                assert len(generated) == want_generated
                assert len(traps) == 1


def _smooth_per_copy_reference(r, f, x, accept_output, seed):
    """The honest multi-copy smooth engine running the single-copy protocol per copy, in order."""
    rng = np.random.default_rng(seed)
    ones, trap_ok, parts = [], 1.0, []
    for i in range(r.copies):
        part = run_smooth_protocol(
            _copy_slice(r, i),
            f,
            x,
            Prover.honest(),
            accept_output=accept_output,
            seed=int(rng.integers(2**62)),
        )
        ones.append(part.p0 if accept_output == 1 else 1.0 - part.p0)
        trap_ok *= part.p1
        parts.append(part.metadata)
    metadata = {
        "protocol": "smooth",
        "prover_kind": "honest",
        "m": r.m,
        "copies": r.copies,
        "accept_output": accept_output,
        "seed": seed,
        "per_copy": parts,
        "budget_exceeded": any(p["budget_exceeded"] for p in parts),
    }
    return _majority_accept(ones, r.copies, accept_output), trap_ok, repr(metadata)


def _smooth_matches_reference(r, f, x, accept_output, seed):
    res = run_smooth_protocol(r, f, x, Prover.honest(), accept_output=accept_output, seed=seed)
    want = _smooth_per_copy_reference(r, f, x, accept_output, seed)
    assert (res.p0, res.p1, repr(res.metadata)) == want
    return res


class TestSmoothCopySharing:
    """Honest multi-copy smooth runs simulate each distinct copy once, with the old bytes."""

    @pytest.mark.parametrize("m, t", [(1, 3), (1, 5), (2, 3), (2, 5), (3, 3)])
    def test_matches_per_copy_recursion(self, m, t, monkeypatch):
        s, bit = (1 << m) - 1, m - 1
        f = xor_shift_permutation(m, s)
        exceeded = set()
        # a second pass with one-round budgets, which some draws overrun
        for one_round in (False, True):
            if one_round:
                monkeypatch.setattr(rejection, "copies_budget_to_uniform", lambda table: 1)
                monkeypatch.setattr(rejection, "copies_budget_from_uniform", lambda table: 1)
            for eps in (0.0, 0.1):
                base = build_smooth_xor_reduction(m, s, bit, _smooth_tables(m)[2])
                r = amplify(add_noise(base, eps) if eps else base, t)
                for x in range(1 << m):
                    for accept_output in (0, 1):
                        for seed in (0, 7):
                            res = _smooth_matches_reference(r, f, x, accept_output, seed)
                            exceeded.add(res.metadata["budget_exceeded"])
        assert exceeded == {False, True}

    @pytest.mark.parametrize("m", [1, 2])
    def test_impossible_down_step(self, m, monkeypatch):
        # fail the down step of the middle table only: that copy charges its
        # budget without a draw, while the copies around it still draw theirs
        tables = _smooth_tables(m)
        r = build_known_smooth_reduction(m, 1, 0, tables)
        f = xor_shift_permutation(m, 1)
        original = rejection.qrs_round

        def failing(state, plan, index_register):
            if plan.source.is_uniform and plan.target is tables[1]:
                return rejection.QrsRound(success_prob=0.0, accepted=None)
            return original(state, plan, index_register)

        monkeypatch.setattr(rejection, "qrs_round", failing)
        for x in range(1 << m):
            for accept_output in (0, 1):
                res = _smooth_matches_reference(r, f, x, accept_output, seed=x)
                impossible = [p["down_impossible"] for p in res.metadata["per_copy"]]
                assert impossible == [False, True, False]

    @pytest.mark.parametrize("m", [1, 2])
    def test_each_distinct_copy_simulated_once(self, m, monkeypatch):
        f = xor_shift_permutation(m, 1)
        distinct = build_known_smooth_reduction(m, 1, 0, _smooth_tables(m))
        identical = amplify(build_smooth_xor_reduction(m, 1, 0, _smooth_tables(m)[1]), 3)
        shared = build_known_smooth_reduction(m, 1, 0, [_smooth_tables(m)[1]] * 3)
        for r, want_built in ((distinct, 3), (identical, 1), (shared, 1)):
            for x in range(1 << m):
                want = _smooth_per_copy_reference(r, f, x, 0, seed=x)
                protocols._honest_trap_accept.cache_clear()
                built = _counting(monkeypatch, protocols, "_pre_copy_state")
                traps = _counting(monkeypatch, protocols, "_trap_branch")
                res = run_smooth_protocol(r, f, x, Prover.honest(), seed=x)
                monkeypatch.undo()
                assert (res.p0, res.p1, repr(res.metadata)) == want
                assert len(built) == want_built
                assert len(traps) == 1

    def test_copies_share_no_metadata_list(self):
        r = amplify(build_smooth_xor_reduction(2, 1, 0, _smooth_tables(2)[1]), 3)
        parts = run_smooth_protocol(r, xor_shift_permutation(2, 1), 0, Prover.honest(), seed=3).metadata["per_copy"]
        lists = [key for key, value in parts[0].items() if isinstance(value, list)]
        assert len(lists) == 6
        before = [repr(p) for p in parts[1:]]
        for key in lists:
            parts[0][key].append(-1)
        assert [repr(p) for p in parts[1:]] == before


def _smooth_cheat_reference(r, f, x, u, p, accept_output, seed):
    """The multi-copy smooth route on the statevector kernels through the
    dense unitary u: every copy resampled up and mirrored into its copy
    register, the honest answers, u on all copies' messages at once, then
    per copy the erasure and the down step, and last the deciders and the
    vote.  Returns p0 and the metadata, rounds drawn from seed."""
    uniform = DistributionTable.uniform(r.m)
    xor = register_xor_table(r.m)
    ups, parts = [], []
    for i, table in enumerate(r.distributions):
        step = rejection.qrs_round(_pre_copy_state(r, x, i), rejection.make_plan(table, uniform), "query")
        ups.append(step.success_prob)
        parts.append(apply_basis_permutation(adjoin_register(step.accepted, "copy", r.m), xor, ["query", "copy"]))
    comp = _dense_prover_stage(u, p, r.copies)(answer_queries(_join_copies(parts), f, r.copies), None)
    downs = []
    for regs, table in zip(copy_register_names(r.copies), r.distributions):
        comp = apply_basis_permutation(comp, xor, [regs["query"], regs["copy"]])
        step = rejection.qrs_round(comp, rejection.make_plan(uniform, table), regs["query"])
        downs.append(step.success_prob)
        if step.accepted is None:
            break
        comp = step.accepted
    impossible = step.accepted is None
    branch = protocols._SmoothBranch(
        0.0 if impossible else _decide_reference(comp, r, accept_output),
        tuple(ups),
        tuple(rejection.copies_budget_to_uniform(table) for table in r.distributions),
        tuple(downs),
        tuple(rejection.copies_budget_from_uniform(table) for table in r.distributions[: len(downs)]),
        impossible,
    )
    head = {"protocol": "smooth", "prover_kind": "unitary-cheat", "m": r.m, "copies": r.copies}
    head.update(accept_output=accept_output, seed=seed)
    return branch.p0, {**head, **protocols._smooth_rounds(np.random.default_rng(seed), branch)}


def _assert_smooth_cheat_matches(r, f, x, u, p, accept_output, seed, p1):
    """A smooth cheat's p0, p1 and success probabilities within 1e-12 of the
    statevector route (p1 that of _cheat_reference), and every other
    metadata value equal; returns the metadata."""
    res = run_smooth_protocol(r, f, x, Prover.unitary_cheat(u, p), accept_output=accept_output, seed=seed)
    p0, want = _smooth_cheat_reference(r, f, x, u, p, accept_output, seed)
    assert abs(res.p0 - p0) <= 1e-12
    assert abs(res.p1 - p1) <= 1e-12
    assert list(res.metadata) == list(want)
    for key, value in want.items():
        if key.endswith("_success_probs"):
            assert len(res.metadata[key]) == len(value)
            assert np.abs(np.subtract(res.metadata[key], value)).max(initial=0.0) <= 1e-12
        else:
            assert res.metadata[key] == value, key
    return res.metadata


class TestSmoothCheats:
    """A smooth cheat is scored on the uniform normal form; the multi-copy
    statevector route, with its dense prover stage, per-copy down steps and
    vote, is the reference."""

    @pytest.mark.parametrize(
        "m, t, p", [(m, 1, p) for m in (1, 2, 3) for p in range(3)] + [(1, 3, p) for p in range(3)]
    )
    def test_matches_multi_copy_route(self, m, t, p):
        rng = np.random.default_rng(60 + 8 * m + p)
        u = haar_unitary(1 << (p + 2 * m * t), rng)
        # three distinct non-uniform tables at t = 3 (see test_uniform_table_down_step_is_certain)
        tables = (_smooth_tables(m)[2],)
        if t == 3:
            tables = tuple(DistributionTable(1, (w, 1 - w)) for w in (0.3, 0.4, 0.45))
        for eps in (0.0, 0.1, 0.25):
            base = build_smooth_xor_reduction(m, 1, 0, tables[0])
            r = replace(add_noise(base, eps) if eps else base, distributions=tables)
            for f in (xor_shift_permutation(m, 1), random_permutation(m, 5)):
                p1 = _cheat_reference(r, f, 0, u, p)[2]
                for x in range(1 << m):
                    for accept_output in (0, 1):
                        _assert_smooth_cheat_matches(r, f, x, u, p, accept_output, x + 2 * accept_output, p1)

    def test_uniform_table_down_step_is_certain(self):
        # a uniform table's down step keeps every query's mass, so it reads
        # exactly 1 and draws no round; the statevector route reads the norm
        # of the cheat's image, which may fall an ulp short of 1 and then
        # spends a geometric draw on it, so only the values are compared
        r = build_known_smooth_reduction(1, 1, 0, _smooth_tables(1))
        assert r.distributions[0].is_uniform
        u = haar_unitary(1 << 7, np.random.default_rng(5))
        f = random_permutation(1, 5)
        for x in (0, 1):
            for accept_output in (0, 1):
                res = run_smooth_protocol(r, f, x, Prover.unitary_cheat(u, 1), accept_output=accept_output, seed=x)
                p0, want = _smooth_cheat_reference(r, f, x, u, 1, accept_output, seed=x)
                assert res.metadata["down_success_probs"][0] == 1.0
                assert res.metadata["down_rounds"][0] == 1
                assert abs(res.p0 - p0) <= 1e-12
                for key in ("up_success_probs", "down_success_probs"):
                    assert np.abs(np.subtract(res.metadata[key], want[key])).max() <= 1e-12

    def test_impossible_first_down_step(self):
        # the cheat swaps query 0 into its private qubit, so query 0 reads 0,
        # where copy 0's down step keeps a 6e-19 share, at most ATOL^2
        tables = [DistributionTable(1, (6e-19, 1.0)), DistributionTable(1, (0.3, 0.7)), DistributionTable.uniform(1)]
        r = build_known_smooth_reduction(1, 1, 0, tables)
        idx = np.arange(1 << 7)
        u = np.eye(1 << 7)[:, idx ^ ((((idx >> 6) ^ (idx >> 5)) & 1) * 0b1100000)]
        for f in (xor_shift_permutation(1, 1), random_permutation(1, 5)):
            p1 = _cheat_reference(r, f, 0, u, 1)[2]
            for x in (0, 1):
                for accept_output in (0, 1):
                    meta = _assert_smooth_cheat_matches(r, f, x, u, 1, accept_output, x, p1)
                    assert meta["down_impossible"]
                    assert meta["down_rounds"] == meta["down_budgets"] == [4]
                    assert len(meta["down_success_probs"]) == 1


def _classical_reference(r, f, x, prover, seed, accept_output=0):
    """The classical-query engine on the statevector kernels, building every
    copy's pre-query state afresh."""
    rng = np.random.default_rng(seed)
    size = 1 << r.m
    drawn, replies, checks, ones = [], [], [], []
    for i in range(r.copies):
        q = int(rng.choice(size, p=r.distributions[i].probs))
        _, state = condition_on(_pre_copy_state(r, x, i), {"query": q})
        a = f.inverse_of(q) if prover.kind == "honest" else prover.answers[q]
        state = apply_basis_permutation(state, np.arange(size) ^ a, ["answer"])
        state = adjoin_register(state, "out", 1)
        state = apply_decider(state, r, "answer", "work", "out")
        drawn.append(q)
        replies.append(a)
        checks.append(f(a) == q)
        ones.append(measure_probability(state, {"out": 1}))
    accept = _majority_accept(ones, r.copies, accept_output) if all(checks) else 0.0
    return drawn, replies, checks, ones, accept


class TestClassicalProtocol:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_per_copy_loop(self, m, monkeypatch):
        f = xor_shift_permutation(m, 1)
        # lies on query 0 only, so some seeds catch it and some do not
        liar = Prover.classical([f.inverse_of(q) ^ (q == 0) for q in range(1 << m)])
        cases = [
            amplify(add_noise(build_xor_reduction(m, 1, 0), 0.1), 3),
            build_known_smooth_reduction(m, 1, 0, _smooth_tables(m)),
        ]
        for r in cases:
            for prover in (Prover.honest(), liar):
                for seed in range(20):
                    x = seed % (1 << m)
                    want = _classical_reference(r, f, x, prover, seed)
                    # one evaluation per copy, on its drawn entry
                    evaluated = _counting(monkeypatch, protocols, "_classical_copy_prob")
                    res = run_classical_query_protocol(r, f, x, prover, seed=seed)
                    monkeypatch.undo()
                    meta = res.metadata
                    got = (meta["queries"], meta["answers"], meta["checks"], meta["per_copy_one_probs"], res.p0)
                    assert got == want
                    assert len(evaluated) == r.copies

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_draws_match_numpy_choice(self, m):
        # an honest p0 does not depend on q, so the prover lies on every even
        # query: p0 is 0 exactly when some copy draws one
        f = xor_shift_permutation(m, 1)
        liar = Prover.classical([f.inverse_of(q) ^ (q % 2 == 0) for q in range(1 << m)])
        tables = [DistributionTable.uniform(m), *_smooth_tables(m)[1:]]
        for table in tables:
            base = add_noise(build_smooth_xor_reduction(m, 1, 0, table), 0.1)
            for t in (1, 3, 5):
                r = amplify(base, t)
                for seed in range(300):
                    rng = np.random.default_rng(seed)
                    want = [int(rng.choice(1 << m, p=table.probs)) for _ in range(t)]
                    forced = run_classical_query_protocol(r, f, 0, liar, queries=want, seed=seed)
                    res = run_classical_query_protocol(r, f, 0, liar, seed=seed)
                    assert res.metadata["queries"] == want
                    assert res.p0.hex() == forced.p0.hex()
                    assert (res.p0 == 0) == any(q % 2 == 0 for q in want)

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

    @pytest.mark.parametrize("answers, bad", [((0, 1, 2, 99), 99), ((99, 99, 99, 99), 99), ((0, -1, 2, 3), -1)])
    def test_answer_range_checked(self, answers, bad):
        # refused whichever query is drawn, not only when the bad answer is read
        r = build_xor_reduction(2, 1, 0)
        f = xor_shift_permutation(2, 1)
        for q in range(4):
            with pytest.raises(ValueError, match=f"answer {bad} does not fit 2 bits"):
                run_classical_query_protocol(r, f, 0, Prover.classical(answers), queries=[q])

    def test_classical_prover_rejected_by_quantum_engine(self):
        r = build_xor_reduction(2, 1, 0)
        f = xor_shift_permutation(2, 1)
        with pytest.raises(ValueError):
            run_protocol(r, f, 0, Prover.classical((1, 0, 3, 2)))


def _draw_reduction(data, m, t):
    """A drawn honest instance: xor shift or random permutation, per-copy
    uniform or smooth tables, eps 0, 0.1 or 0.25 on the decider."""
    s = data.draw(st.integers(1, (1 << m) - 1))
    if data.draw(st.booleans()):
        f = xor_shift_permutation(m, s)
    else:
        f = random_permutation(m, data.draw(st.integers(0, 99)))
    pool = [DistributionTable.uniform(m), *_smooth_tables(m)]
    tables = tuple(data.draw(st.sampled_from(pool)) for _ in range(t))
    eps = data.draw(st.sampled_from((0.0, 0.1, 0.25)))
    base = build_smooth_xor_reduction(m, s, data.draw(st.integers(0, m - 1)), tables[0])
    return replace(add_noise(base, eps) if eps else base, distributions=tables), f


class TestHonestSupport:
    """Honest copies evaluated on their 2^m-entry support equal the
    statevector kernels bit for bit, and build no state."""

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_trap_engine_matches_kernel_path(self, data):
        m = data.draw(st.integers(1, 3))
        t = data.draw(st.sampled_from((1, 3, 5)))
        r, f = _draw_reduction(data, m, t)
        for x in range(1 << m):
            for accept_output in (0, 1):
                res = run_protocol(r, f, x, Prover.honest(), accept_output=accept_output)
                p0, p1, ones = _per_copy_reference(r, f, x, accept_output)
                assert (res.p0, res.p1) == (p0, p1)
                assert res.metadata.get("per_copy_one_probs") == (ones if t > 1 else None)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_classical_engine_matches_kernel_path(self, data):
        m = data.draw(st.integers(1, 3))
        t = data.draw(st.sampled_from((1, 3, 5)))
        r, f = _draw_reduction(data, m, t)
        provers = [
            Prover.honest(),
            Prover.classical([f.inverse_of(q) ^ (q == 0) for q in range(1 << m)]),
            Prover.classical([(f.inverse_of(q) + 1) % (1 << m) for q in range(1 << m)]),  # every answer wrong
        ]
        seed = data.draw(st.integers(0, 2**32 - 1))
        for x in range(1 << m):
            for accept_output in (0, 1):
                for prover in provers:
                    res = run_classical_query_protocol(r, f, x, prover, seed=seed, accept_output=accept_output)
                    drawn, replies, checks, ones, accept = _classical_reference(r, f, x, prover, seed, accept_output)
                    head = {"protocol": "classical", "prover_kind": prover.kind, "m": m, "copies": t}
                    head.update(accept_output=accept_output, seed=seed)
                    tail = {"queries": drawn, "answers": replies, "checks": checks, "per_copy_one_probs": ones}
                    assert (res.p0, res.p1, repr(res.metadata)) == (accept, accept, repr({**head, **tail}))

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_responses_match_kernel_path(self, data):
        m = data.draw(st.integers(1, 3))
        t = data.draw(st.sampled_from((1, 3) if m == 1 else (1,)))
        r, f = _draw_reduction(data, m, t)
        x = data.draw(st.integers(0, (1 << m) - 1))
        pairs = [
            (generate_query_state(r, x), _kernel_query_state(r, x)),
            (honest_answer_state(r, f, x), answer_queries(_kernel_query_state(r, x), f, t)),
            (trap_answer_state(r, f), answer_queries(trap_state(m, t), f, t)),
        ]
        for got, want in pairs:
            assert got.layout == want.layout
            assert got.amplitudes.tobytes() == want.amplitudes.tobytes()

    def test_warm_honest_runs_build_no_state(self, monkeypatch):
        m = 3
        f = random_permutation(m, 2)
        base = add_noise(build_xor_reduction(m, 5, 1), 0.1)
        runs = [(run_protocol, amplify(base, t)) for t in (1, 3, 5)]
        runs += [(run_classical_query_protocol, amplify(base, t)) for t in (1, 3)]
        for engine, r in runs:
            engine(r, f, 0, Prover.honest())  # warms the trap memo and the prep
        # a cheat is scored on the responses' supports, so it builds no state
        # either; the ceiling and the search are refused at m = 3, so they run at m = 2
        cheat = Prover.unitary_cheat(haar_isometry(1 << (2 * m + 1), 1 << (2 * m), np.random.default_rng(2)), 1)
        small, g = add_noise(build_xor_reduction(2, 1, 0), 0.1), random_permutation(2, 2)
        calls = [
            lambda x: run_protocol(base, f, x, cheat),
            lambda x: branch_overlap_pair(base, f, x, cheat),
            lambda x: cheat_upper_bound(small, g, x % 4),
            lambda x: prover_search(small, g, x % 4, 1, 20, seed=x),
        ]
        built = _counting(monkeypatch, StateVector, "__post_init__")
        for engine, r in runs:
            for x in range(1 << m):
                engine(r, f, x, Prover.honest())
        for call in calls:
            for x in range(1 << m):
                call(x)
        assert built == []
        # the positive control: a cold honest trap memo builds its dense check's state
        protocols._honest_trap_accept.cache_clear()
        run_protocol(base, f, 0, Prover.honest())
        assert built


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

    @pytest.mark.parametrize("m", [1, 2])
    def test_known_smooth_reduction_end_to_end(self, m):
        # t = 3 different per-query tables, one draw each, decided by the vote
        raw = [np.linspace(1.0, 1.0 + 0.3 * i, 1 << m) for i in range(3)]
        r = build_known_smooth_reduction(m, 1, 0, [DistributionTable(m, w / w.sum()) for w in raw])
        f = xor_shift_permutation(m, 1)
        provers = [Prover.honest()]
        if m == 1:
            # every copy at once, through the full-width vote
            provers.append(Prover.unitary_cheat(np.eye(1 << 6)))
        for x in range(1 << m):
            want = 1.0 - r.language(x)
            for prover in provers:
                res = run_smooth_protocol(r, f, x, prover, seed=7)
                assert abs(res.p0 - want) <= 1e-12
                assert abs(res.p1 - 1.0) <= 1e-12
                assert not res.metadata["budget_exceeded"]
                rounds = res.metadata["per_copy"] if prover.kind == "honest" else res.metadata["up_rounds"]
                assert len(rounds) == 3

    def test_classical_prover_rejected(self):
        uni = build_smooth_xor_reduction(2, 1, 0, DistributionTable.uniform(2))
        f = xor_shift_permutation(2, 1)
        with pytest.raises(ValueError):
            run_smooth_protocol(uni, f, 0, Prover.classical((1, 0, 3, 2)))

    def test_non_smooth_table_rejected_at_build(self):
        bad = DistributionTable(2, (0.9, 0.05, 0.05, 0.0))
        assert not bad.is_smooth
        with pytest.raises(ValueError):
            build_smooth_xor_reduction(2, 1, 0, bad)


def _no_state(self):
    raise AssertionError("a state was built before the argument gate")


def _accept_output_call(entry):
    f = xor_shift_permutation(2, 1)
    if entry == "smooth":
        r = build_smooth_xor_reduction(2, 1, 0, DistributionTable(2, (0.3, 0.2, 0.25, 0.25)))
        return lambda: run_smooth_protocol(r, f, 0, Prover.honest(), accept_output=2)
    r = add_noise(build_xor_reduction(2, 1, 0), 0.1)
    return {
        "trap": lambda: run_protocol(r, f, 0, Prover.honest(), accept_output=2),
        "classical": lambda: run_classical_query_protocol(r, f, 0, Prover.honest(), accept_output=2),
        "ceiling": lambda: cheat_upper_bound(r, f, 0, accept_output=2),
        "search": lambda: prover_search(r, f, 0, 0, 5, seed=0, accept_output=2),
    }[entry]


class TestValidation:
    # branch_overlap_pair takes no accept_output; every other entry point does
    @pytest.mark.parametrize("entry", ["trap", "smooth", "classical", "ceiling", "search"])
    def test_accept_output_refused(self, entry, monkeypatch):
        call = _accept_output_call(entry)
        monkeypatch.setattr(StateVector, "__post_init__", _no_state)
        with pytest.raises(ValueError, match="accept_output"):
            call()

    def test_ceiling_refuses_non_uniform_queries(self, monkeypatch):
        # on this table a p = 1 cheat scores 0.6446 at x = 0, above the 0.5 the
        # ceiling's formula gives, so the ceiling is no bound there
        r = build_smooth_xor_reduction(1, 1, 0, DistributionTable(1, (0.05, 0.95)))
        f = xor_shift_permutation(1, 1)
        monkeypatch.setattr(StateVector, "__post_init__", _no_state)
        with pytest.raises(ValueError, match="the ceiling needs uniform queries"):
            cheat_upper_bound(r, f, 0)

    def test_search_refuses_negative_iters(self, monkeypatch):
        r = build_xor_reduction(2, 1, 0)
        f = xor_shift_permutation(2, 1)
        monkeypatch.setattr(StateVector, "__post_init__", _no_state)
        with pytest.raises(ValueError, match="^iters = -5 must be >= 0$"):
            prover_search(r, f, 2, 1, -5, seed=0)

    def test_classical_prover_refused_by_overlap(self, monkeypatch):
        r = build_xor_reduction(2, 1, 0)
        f = xor_shift_permutation(2, 1)
        monkeypatch.setattr(StateVector, "__post_init__", _no_state)
        with pytest.raises(ValueError, match="classical provers"):
            branch_overlap_pair(r, f, 0, Prover.classical([0, 0, 0, 0]))

    @pytest.mark.parametrize("width", [1, 3])
    def test_responses_refuse_a_permutation_of_another_width(self, width):
        r = build_xor_reduction(2, 1, 0)
        f = xor_shift_permutation(width, 1)
        with pytest.raises(LayoutError, match=f"permutation width {width} does not match query width 2"):
            honest_answer_state(r, f, 0)
        with pytest.raises(LayoutError, match=f"permutation width {width} does not match query width 2"):
            trap_answer_state(r, f)

    def test_unknown_prover_kind(self):
        with pytest.raises(ValueError):
            Prover("bogus")

    def test_cheat_matrix_must_be_square_power_of_two(self):
        with pytest.raises(LayoutError):
            Prover.unitary_cheat(np.eye(3))

    @pytest.mark.parametrize(
        "shape, p",
        [((8, 8), 4), ((8, 4), 0), ((8, 4), 2), ((8, 3), 1), ((12, 3), 2), ((4, 8), 0)],
        ids=["8x8-p4", "8x4-p0", "8x4-p2", "8x3-p1", "12x3-p2", "4x8-p0"],
    )
    def test_cheat_shape_must_be_columns_of_a_unitary(self, shape, p):
        # 2^(p+n) rows and 2^n columns, or square with at least one column kept
        with pytest.raises(LayoutError):
            Prover.unitary_cheat(np.eye(*shape), p)

    def test_cheat_columns_must_be_orthonormal(self):
        v = np.eye(8, 4)
        Prover.unitary_cheat(v, 1)
        for bad in (2.0 * v, v + 1e-6 * np.ones((8, 4)), np.ones((8, 4)) / np.sqrt(8)):
            with pytest.raises(InvariantError):
                Prover.unitary_cheat(bad, 1)
        # a square input is checked for unitarity and keeps its first columns
        with pytest.raises(InvariantError):
            Prover.unitary_cheat(np.array([[1.0, 0.0], [1.0, 1.0]]))
        u = haar_unitary(8, np.random.default_rng(1))
        np.testing.assert_array_equal(Prover.unitary_cheat(u, 1).isometry, u[:, :4])

    @pytest.mark.parametrize("entry", ["trap", "smooth", "overlap"])
    @pytest.mark.parametrize("cheat", [(32, 32, 0), (16, 8, 1), (64, 8, 3)], ids=["32x32-p0", "16x8-p1", "64x8-p3"])
    def test_cheat_of_wrong_width_refused_before_states(self, entry, cheat, monkeypatch):
        # m = 2 messages span 4 qubits, so these isometries do not fit them
        rows, cols, p = cheat
        prover = Prover.unitary_cheat(np.eye(rows, cols), p)
        f = xor_shift_permutation(2, 1)
        smooth = build_smooth_xor_reduction(2, 1, 0, DistributionTable(2, (0.3, 0.2, 0.25, 0.25)))
        r = build_xor_reduction(2, 1, 0)
        call = {
            "trap": lambda: run_protocol(r, f, 0, prover),
            "smooth": lambda: run_smooth_protocol(smooth, f, 0, prover),
            "overlap": lambda: branch_overlap_pair(r, f, 0, prover),
        }[entry]
        monkeypatch.setattr(StateVector, "__post_init__", _no_state)
        with pytest.raises(LayoutError, match="cheat isometry"):
            call()

    def test_result_probabilities_range_checked(self):
        with pytest.raises(InvariantError):
            ProtocolResult(1.5, 0.0)
        with pytest.raises(InvariantError):
            ProtocolResult(0.0, -0.5)
