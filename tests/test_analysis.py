"""Identity checks: purification invariance, bisection bound, oracle-free EPR."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapqip import core
from trapqip.analysis import (
    LemmaReport,
    epr_trivialization,
    maxproj_closed_form,
    maxproj_eigen_oracle,
    maxproj_objective,
    maxproj_optimizer_state,
    maxproj_report,
    purification_invariance,
)
from trapqip.core import LayoutError, StateVector, adjoin_register, apply_on_registers, layout
from trapqip.oracles import random_permutation, xor_shift_permutation
from trapqip.sampling import purification_pair, random_channel, random_density


def _projector_and_vector(dim, rank, rng):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    pi = q[:, :rank] @ q[:, :rank].T
    phi = rng.standard_normal(dim)
    return pi, phi / np.linalg.norm(phi)


def _kraus_overlap(dilation, state):
    """<state| (Phi (x) I)(|state><state|) |state> from the explicit Kraus sum
    E_l = (I (x) <l|) U (I (x) |0>), with Phi acting on the leading `sys` qubits."""
    dim, env = 1 << dilation.layout.width("sys"), 1 << dilation.layout.width("env")
    blocks = dilation.matrix.reshape(dim, env, dim, env)
    rest = np.eye(state.dim // dim)
    vec = state.amplitudes
    rho = np.outer(vec, vec.conj())
    out = np.zeros_like(rho)
    for l in range(env):
        e = np.kron(blocks[:, l, :, 0], rest)
        out += e @ rho @ e.conj().T
    return float(np.vdot(vec, out @ vec).real)


def _dilation_overlap(dilation, state):
    """The same value on statevectors, the route the lemma took before its
    Kraus-block form: adjoin a fresh register, apply the dilation on the
    leading sys-wide registers and that register, then read
    sum_l |<state, l| U |state, 0>|^2."""
    width, env = dilation.layout.width("sys"), dilation.layout.width("env")
    names, total = [], 0
    for name, w in state.layout.registers:
        if total < width:
            names.append(name)
            total += w
    dilated = apply_on_registers(adjoin_register(state, "dilation", env), dilation, [*names, "dilation"])
    amps = dilated.amplitudes.reshape(state.dim, 1 << env)
    return float(np.linalg.norm(state.amplitudes.conj() @ amps) ** 2)


class TestPurificationInvariance:
    def test_equal_for_purification_pairs(self):
        rng = np.random.default_rng(8)
        for i in range(15):
            sys_q = 1 + i % 2
            rho = random_density(1 << sys_q, rng)
            phi, psi = purification_pair(rho, sys_q, rng)
            ch = random_channel(sys_q, 1 + i % 2, rng)
            rep = purification_invariance(ch, phi, psi)
            assert rep.passed
            assert abs(rep.left - rep.right) <= 1e-9
            assert rep.check_id == "purification-invariance"

    @settings(max_examples=40, deadline=None)
    @given(sys_q=st.integers(1, 2), env_q=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
    def test_each_side_matches_kraus_sum(self, sys_q, env_q, seed):
        rng = np.random.default_rng(seed)
        phi, psi = purification_pair(random_density(1 << sys_q, rng), sys_q, rng)
        ch = random_channel(sys_q, env_q, rng)
        rep = purification_invariance(ch, phi, psi)
        assert abs(rep.left - _kraus_overlap(ch, phi)) <= 1e-12
        assert abs(rep.right - _kraus_overlap(ch, psi)) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(sys_q=st.integers(1, 2), env_q=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
    def test_each_side_matches_the_dilated_statevector(self, sys_q, env_q, seed):
        rng = np.random.default_rng(seed)
        phi, psi = purification_pair(random_density(1 << sys_q, rng), sys_q, rng)
        ch = random_channel(sys_q, env_q, rng)
        rep = purification_invariance(ch, phi, psi)
        assert abs(rep.left - _dilation_overlap(ch, phi)) <= 1e-12
        assert abs(rep.right - _dilation_overlap(ch, psi)) <= 1e-12

    def test_system_spanning_two_registers(self, monkeypatch):
        rng = np.random.default_rng(10)
        phi, psi = purification_pair(random_density(4, rng), 2, rng)
        split = StateVector(layout(("a", 1), ("b", 1), ("env", 2)), phi.amplitudes)
        ch = random_channel(2, 1, rng)
        want = (_dilation_overlap(ch, split), _dilation_overlap(ch, psi))
        # the sides come from the Kraus blocks, never from a dilated statevector
        for name in ("adjoin_register", "apply_on_registers"):
            monkeypatch.setattr(core, name, None)
        rep = purification_invariance(ch, split, psi)
        assert rep.passed
        assert abs(rep.left - want[0]) <= 1e-12
        assert abs(rep.right - want[1]) <= 1e-12
        assert abs(rep.left - _kraus_overlap(ch, phi)) <= 1e-12

    def test_rejects_a_system_no_register_prefix_spans(self):
        rng = np.random.default_rng(11)
        phi, psi = purification_pair(random_density(4, rng), 2, rng)
        odd = StateVector(layout(("a", 1), ("b", 2), ("c", 1)), phi.amplitudes)
        with pytest.raises(LayoutError):
            purification_invariance(random_channel(2, 1, rng), odd, psi)

    def test_rejects_unrelated_states(self):
        rng = np.random.default_rng(9)
        phi, _ = purification_pair(random_density(2, rng), 1, rng)
        psi, _ = purification_pair(random_density(2, rng), 1, rng)
        ch = random_channel(1, 1, rng)
        with pytest.raises(ValueError):
            purification_invariance(ch, phi, psi)


class TestBisectionBound:
    def test_closed_form_matches_eigen_oracle(self):
        rng = np.random.default_rng(20)
        for i in range(25):
            dim = int(rng.integers(2, 17))
            rank = int(rng.integers(1, dim))
            pi, phi = _projector_and_vector(dim, rank, rng)
            a = maxproj_closed_form(pi, phi)
            b = maxproj_eigen_oracle(pi, phi)
            assert abs(a - b) <= 1e-9

    def test_bisecting_state_attains_the_maximum(self):
        rng = np.random.default_rng(21)
        for i in range(10):
            dim = int(rng.integers(3, 12))
            pi, phi = _projector_and_vector(dim, 1 + i % (dim - 1), rng)
            psi = maxproj_optimizer_state(pi, phi)
            np.testing.assert_allclose(np.linalg.norm(psi), 1.0, atol=1e-12)
            val = maxproj_objective(pi, phi, psi)
            np.testing.assert_allclose(val, maxproj_closed_form(pi, phi), atol=1e-9)

    def test_report(self):
        rng = np.random.default_rng(22)
        pi, phi = _projector_and_vector(7, 3, rng)
        rep = maxproj_report(pi, phi)
        assert rep.check_id == "bisection-bound"
        assert rep.passed
        # the verdict is derived from the two sides and the tolerance, never declared
        assert not LemmaReport("x", 1.0, 1.0 + 2 * rep.tolerance, rep.tolerance).passed
        with pytest.raises(TypeError):
            LemmaReport("x", 1.0, 1.0, rep.tolerance, True)

    def test_degenerate_angles_have_no_bisecting_state(self):
        rng = np.random.default_rng(23)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        pi = np.outer(q[:, 0], q[:, 0])
        with pytest.raises(ValueError):
            maxproj_optimizer_state(pi, q[:, 0])  # inside the range
        with pytest.raises(ValueError):
            maxproj_optimizer_state(pi, q[:, 1])  # orthogonal to it

    def test_non_projector_rejected(self):
        rng = np.random.default_rng(24)
        phi = rng.standard_normal(4)
        with pytest.raises(ValueError):
            maxproj_closed_form(np.eye(4) * 0.5, phi / np.linalg.norm(phi))


class TestEprTrivialization:
    """Shared entanglement buys nothing once the oracle is a known permutation."""

    def test_structured_permutations(self):
        for s in (0, 5):
            rep = epr_trivialization(xor_shift_permutation(3, s))
            assert rep.check_id == "oracle-free-epr"
            assert rep.passed
            np.testing.assert_allclose(rep.left, rep.right, atol=1e-9)
            np.testing.assert_allclose(rep.left, 1.0, atol=1e-9)

    def test_random_permutations(self):
        for seed in range(10):
            rep = epr_trivialization(random_permutation(3, seed=seed))
            assert rep.passed
            np.testing.assert_allclose(rep.left, 1.0, atol=1e-9)
