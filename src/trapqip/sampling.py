"""Seeded random instances: Haar unitaries, densities, projectors, channels."""

from __future__ import annotations

import numpy as np

from .core import KrausChannel, StateVector, channel_from_environment, layout


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix.

    The R-diagonal phase fix makes the QR factorization unique, which is what
    turns the raw decomposition into the Haar measure.
    """
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Mixed state of the given rank (full rank by default)."""
    rank = dim if rank is None else rank
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_projector(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Rank-r orthogonal projector with a Haar-random range."""
    if not 0 <= rank <= dim:
        raise ValueError(f"rank {rank} out of range for dim {dim}")
    u = haar_unitary(dim, rng)
    basis = u[:, :rank]
    return basis @ basis.conj().T


def purification_pair(rho: np.ndarray, env_qubits: int, rng: np.random.Generator):
    """Two different purifications of rho over an environment of env_qubits.

    Returns StateVectors on registers (sys, env); both trace back to rho.
    """
    dim = rho.shape[0]
    env_dim = 1 << env_qubits
    w, v = np.linalg.eigh(rho)
    w = np.clip(w, 0.0, None)
    if env_dim < dim:
        raise ValueError("environment too small to purify a full-rank state")
    n = int(round(np.log2(dim)))
    lay = layout(("sys", n), ("env", env_qubits))
    states = []
    for _ in range(2):
        u = haar_unitary(env_dim, rng)
        psi = np.zeros(dim * env_dim, dtype=np.complex128)
        for i in range(dim):
            psi += np.sqrt(w[i]) * np.kron(v[:, i], u[:, i])
        states.append(StateVector(lay, psi))
    return states[0], states[1]


def random_channel(sys_qubits: int, env_qubits: int, rng: np.random.Generator) -> KrausChannel:
    """CPTP map from a Haar-random dilation unitary."""
    dim = 1 << (sys_qubits + env_qubits)
    return channel_from_environment(haar_unitary(dim, rng), 1 << sys_qubits)
