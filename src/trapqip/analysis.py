"""Standalone numerical checks behind the protocol guarantees.

Each check compares an independently computed pair of values and returns a
small report; nothing here depends on the protocol driver, so the checks stay
meaningful even if the driver is wrong.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import core
from .core import InvariantError, KrausChannel, StateVector, layout
from .oracles import Permutation, inversion_table
from .reductions import register_xor_table

PROJECTOR_TOL = 1e-9


@dataclass(frozen=True)
class LemmaReport:
    """One verified identity: two independently computed sides and a verdict."""

    check_id: str
    inputs_digest: str
    left: float
    right: float
    tolerance: float
    passed: bool

    def as_dict(self) -> dict:
        return asdict(self)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            h.update(part.encode())
        else:
            h.update(np.ascontiguousarray(np.asarray(part)).tobytes())
        h.update(b"|")
    return h.hexdigest()[:12]


def _report(check_id: str, digest: str, left: float, right: float, tolerance: float) -> LemmaReport:
    return LemmaReport(
        check_id=check_id,
        inputs_digest=digest,
        left=float(left),
        right=float(right),
        tolerance=float(tolerance),
        passed=bool(abs(left - right) <= tolerance),
    )


# ---------------------------------------------------------------------------
# purification invariance


def _leading_targets(state: StateVector, width: int) -> list[str]:
    names = []
    total = 0
    for name, w in state.layout.registers:
        if total == width:
            break
        names.append(name)
        total += w
    if total != width:
        raise core.LayoutError(f"no register prefix of {state.layout.names} spans {width} qubits")
    return names


def purification_invariance(
    channel: KrausChannel,
    phi: StateVector,
    psi: StateVector,
    targets: tuple[str, ...] | None = None,
) -> LemmaReport:
    """Overlap with the input is purification-independent under a local channel.

    Both states must reduce to the same operator on the channel's registers
    (checked entrywise within 1e-9, else ValueError).  The report compares
    <phi| (channel (x) I)(|phi><phi|) |phi> against the same value built from
    psi.  targets defaults to the leading registers spanning the channel.
    """
    width = channel.layout.total_qubits
    phi_targets = list(targets) if targets is not None else _leading_targets(phi, width)
    psi_targets = list(targets) if targets is not None else _leading_targets(psi, width)
    red_phi = core.partial_trace(phi, keep=phi_targets)
    red_psi = core.partial_trace(psi, keep=psi_targets)
    if not np.allclose(red_phi.matrix, red_psi.matrix, atol=PROJECTOR_TOL):
        raise ValueError("states are not purifications of the same reduced operator")
    sides = []
    for state, names in ((phi, phi_targets), (psi, psi_targets)):
        rho = core.apply_channel(core.density_from_state(state), channel, names)
        sides.append(core.overlap(rho, state))
    return _report(
        "purification-invariance",
        _digest(phi.amplitudes, psi.amplitudes, *channel.elements),
        sides[0],
        sides[1],
        PROJECTOR_TOL,
    )


# ---------------------------------------------------------------------------
# the projector-plus-dyad maximum


def _as_vector(phi) -> np.ndarray:
    if isinstance(phi, StateVector):
        return phi.amplitudes
    vec = np.asarray(phi, dtype=np.complex128).reshape(-1)
    norm = np.linalg.norm(vec)
    if abs(norm - 1.0) > core.ATOL:
        raise InvariantError(f"state norm {norm} deviates from 1")
    return vec


def _check_projector(pi_s: np.ndarray) -> np.ndarray:
    mat = np.asarray(pi_s, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("projector must be a square matrix")
    if not np.allclose(mat, mat.conj().T, atol=PROJECTOR_TOL):
        raise ValueError("projector is not Hermitian")
    if not np.allclose(mat @ mat, mat, atol=PROJECTOR_TOL):
        raise ValueError("matrix is not idempotent")
    return mat


def maxproj_eigen_oracle(pi_s, phi) -> float:
    """Brute-force maximum of Tr((Pi + |phi><phi|) rho): the top eigenvalue.

    Trusted reference for the closed form below; no projector structure
    assumed beyond Hermiticity.
    """
    mat = np.asarray(pi_s, dtype=np.complex128)
    vec = _as_vector(phi)
    return float(np.linalg.eigvalsh(mat + np.outer(vec, vec.conj()))[-1])


def maxproj_closed_form(pi_s, phi) -> float:
    """1 + sin(theta) where sin^2(theta) is the state's mass in the projector."""
    mat = _check_projector(pi_s)
    vec = _as_vector(phi)
    sin_sq = float(np.real(np.vdot(vec, mat @ vec)))
    sin_sq = min(max(sin_sq, 0.0), 1.0)
    return 1.0 + math.sqrt(sin_sq)


def maxproj_report(pi_s, phi) -> LemmaReport:
    """Closed form against the eigenvalue oracle, as a report."""
    return _report(
        "bisection-bound",
        _digest(pi_s, _as_vector(phi)),
        maxproj_closed_form(pi_s, phi),
        maxproj_eigen_oracle(pi_s, phi),
        PROJECTOR_TOL,
    )


def maxproj_optimizer_state(pi_s, phi):
    """The maximizing state: it bisects the projected direction and the rest.

    With v0 the normalized projection of phi and vk its in-plane complement,
    the optimum sits at the angle halfway between v0 and the projector's
    kernel component; evaluating the objective there returns 1 + sin(theta).
    Degenerate angles (phi inside or orthogonal to the subspace) have no
    defined bisection and raise.
    """
    mat = _check_projector(pi_s)
    vec = _as_vector(phi)
    proj = mat @ vec
    sin_theta = float(np.linalg.norm(proj))
    if sin_theta <= PROJECTOR_TOL or sin_theta >= 1.0 - PROJECTOR_TOL:
        raise ValueError(f"sin(theta) = {sin_theta} is degenerate; no bisecting state")
    cos_theta = math.sqrt(1.0 - sin_theta**2)
    v0 = proj / sin_theta
    vk = (vec - sin_theta * v0) / cos_theta
    theta0 = 0.5 * (math.pi / 2.0 - math.asin(sin_theta))
    out = math.cos(theta0) * v0 + math.sin(theta0) * vk
    if isinstance(phi, StateVector):
        return StateVector(phi.layout, out)
    return out


def maxproj_objective(pi_s, phi, psi) -> float:
    """Tr(Pi |psi><psi|) + |<phi|psi>|^2, the quantity the bound caps."""
    mat = np.asarray(pi_s, dtype=np.complex128)
    vec = _as_vector(phi)
    test = _as_vector(psi)
    return float(np.real(np.vdot(test, mat @ test)) + abs(np.vdot(vec, test)) ** 2)


# ---------------------------------------------------------------------------
# shared entanglement makes the inverse oracle free


def epr_trivialization(f: Permutation) -> LemmaReport:
    """Build the inverse-filled entangled state with and without the oracle.

    Oracle route: maximally entangled register pair, then the inversion oracle
    into a third register.  Oracle-free route: Hadamards, the forward oracle,
    a register copy, and a register swap.  The report compares their fidelity
    to 1.
    """
    m = f.m
    size = 1 << m
    lay = layout(("a", m), ("b", m), ("c", m))

    # maximally entangled (a, b) pair, then the inverse oracle fills c
    amps = np.zeros(lay.dim, dtype=np.complex128)
    scale = 1.0 / math.sqrt(size)
    for q in range(size):
        amps[lay.pack({"a": q, "b": q})] = scale
    with_oracle = core.apply_basis_permutation(StateVector(lay, amps), inversion_table(f), ["a", "c"])

    # Hadamards, the forward oracle, a register copy, and an a<->c swap
    f_of = np.array([f(v) for v in range(size)])
    idx = np.arange(size * size)
    forward = idx ^ f_of[idx >> m]

    oracle_free = core.basis_state(lay)
    oracle_free = core.apply_on_registers(
        oracle_free, core.UnitaryOperator(layout(("reg", m)), core.hadamard_power(m)), ["a"]
    )
    oracle_free = core.apply_basis_permutation(oracle_free, forward, ["a", "b"])
    oracle_free = core.apply_basis_permutation(oracle_free, register_xor_table(m), ["b", "c"])
    swapped = core.reorder_registers(oracle_free, ["c", "b", "a"])
    oracle_free = StateVector(lay, swapped.amplitudes)

    fid = core.fidelity(with_oracle, oracle_free)
    return _report("oracle-free-epr", _digest(np.array(f.table)), fid, 1.0, PROJECTOR_TOL)
