"""Identity checks: purification invariance, bisection bound, oracle-free EPR."""

import numpy as np
import pytest

from trapqip import core
from trapqip.analysis import (
    epr_trivialization,
    maxproj_closed_form,
    maxproj_eigen_oracle,
    maxproj_objective,
    maxproj_optimizer_state,
    maxproj_report,
    purification_invariance,
)
from trapqip.oracles import random_permutation, xor_shift_permutation
from trapqip.sampling import purification_pair, random_channel, random_density


def _projector_and_vector(dim, rank, rng):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    pi = q[:, :rank] @ q[:, :rank].T
    phi = rng.standard_normal(dim)
    return pi, phi / np.linalg.norm(phi)


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

    def test_state_vector_input(self):
        st = core.StateVector(core.layout(("a", 2)), np.full(4, 0.5))
        pi = np.diag([1.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(maxproj_closed_form(pi, st), 1.5, atol=1e-12)
        np.testing.assert_allclose(maxproj_eigen_oracle(pi, st), 1.5, atol=1e-12)

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
