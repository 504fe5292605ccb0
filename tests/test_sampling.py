import numpy as np
import pytest

from trapqip import core
from trapqip.sampling import haar_unitary, purification_pair, random_channel, random_density


class TestHaar:
    def test_unitary_and_seeded(self):
        rng = np.random.default_rng(3)
        u = haar_unitary(8, rng)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(8), atol=1e-12)
        again = haar_unitary(8, np.random.default_rng(3))
        np.testing.assert_allclose(u, again)


class TestRandomDensity:
    def test_valid_density(self):
        rng = np.random.default_rng(0)
        for dim in (2, 3, 5, 8):
            rho = random_density(dim, rng)
            np.testing.assert_allclose(np.trace(rho).real, 1.0, atol=1e-12)
            np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
            assert np.linalg.eigvalsh(rho).min() > -1e-12


class TestPurificationPair:
    def test_both_reduce_to_rho(self):
        rng = np.random.default_rng(2)
        rho = random_density(4, rng)
        phi, psi = purification_pair(rho, 2, rng)
        for st in (phi, psi):
            red = core.partial_trace(st, keep=["sys"])
            np.testing.assert_allclose(red.matrix, rho, atol=1e-9)
        # distinct purifications of the same operator
        assert core.fidelity(phi, psi) < 1 - 1e-6

    def test_environment_must_cover_rank(self):
        rng = np.random.default_rng(2)
        rho = random_density(4, rng)
        with pytest.raises(ValueError):
            purification_pair(rho, 1, rng)


class TestRandomChannel:
    def test_trace_preserving(self):
        rng = np.random.default_rng(4)
        for sys_q, env_q in ((1, 1), (1, 2), (2, 1)):
            ch = random_channel(sys_q, env_q, rng)
            assert ch.layout.registers == (("sys", sys_q), ("env", env_q))
            dim, env = 1 << sys_q, 1 << env_q
            # Kraus elements E_l = (I (x) <l|) U (I (x) |0>)
            blocks = ch.matrix.reshape(dim, env, dim, env)
            acc = np.zeros((dim, dim), dtype=complex)
            for l in range(env):
                k = blocks[:, l, :, 0]
                acc += k.conj().T @ k
            np.testing.assert_allclose(acc, np.eye(dim), atol=1e-9)
