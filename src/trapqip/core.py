"""Dense linear algebra for small multi-register qubit systems.

Everything here works on explicit statevectors and density matrices, sized for
desk-scale experiments (a build-time qubit cap, default 18, guards against
accidental blowups).  Register bookkeeping uses named registers; qubit 0 is the
most significant position of the first-declared register, so the basis index of
a computational state is the concatenated register values read left to right.
All container types are immutable after construction and every operation
returns a fresh value.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

ATOL = 1e-9
DEFAULT_QUBIT_CAP = 18
QUBIT_CAP_ENV = "TRAPQIP_MAX_QUBITS"


class LayoutError(ValueError):
    """Register layout is malformed or registers don't line up."""


class CapacityError(RuntimeError):
    """A requested object would exceed the qubit cap."""


class InvariantError(RuntimeError):
    """A quantity that is guaranteed by construction came out wrong."""


def qubit_cap() -> int:
    """Maximum total qubits per layout; overridable via the environment."""
    raw = os.environ.get(QUBIT_CAP_ENV)
    if raw is None:
        return DEFAULT_QUBIT_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise CapacityError(f"{QUBIT_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise CapacityError(f"{QUBIT_CAP_ENV} must be positive, got {cap}")
    return cap


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.complex128, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered named registers; fixes the global qubit numbering.

    registers: tuple of (name, width) pairs.  Register widths are in qubits.
    """

    registers: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        regs = tuple((str(n), int(w)) for n, w in self.registers)
        object.__setattr__(self, "registers", regs)
        names = [n for n, _ in regs]
        if len(set(names)) != len(names):
            raise LayoutError(f"duplicate register names in {names}")
        if any(w < 1 for _, w in regs):
            raise LayoutError("register widths must be >= 1")
        total = sum(w for _, w in regs)
        cap = qubit_cap()
        if total > cap:
            raise CapacityError(f"layout needs {total} qubits, cap is {cap}")
        offsets = {}
        pos = 0
        for name, width in regs:
            offsets[name] = pos
            pos += width
        object.__setattr__(self, "_offsets", offsets)
        object.__setattr__(self, "_widths", dict(regs))

    @property
    def total_qubits(self) -> int:
        return sum(w for _, w in self.registers)

    @property
    def dim(self) -> int:
        return 1 << self.total_qubits

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.registers)

    def width(self, name: str) -> int:
        try:
            return self._widths[name]
        except KeyError:
            raise LayoutError(f"no register named {name!r}") from None

    def offset(self, name: str) -> int:
        self.width(name)
        return self._offsets[name]

    def positions(self, *names: str) -> list[int]:
        """Global qubit positions covered by the named registers, in order."""
        out: list[int] = []
        for name in names:
            off = self.offset(name)
            out.extend(range(off, off + self.width(name)))
        return out

    def pack(self, values: Mapping[str, int]) -> int:
        """Basis index with the given register values (others zero)."""
        idx = 0
        for name, value in values.items():
            width = self.width(name)
            if not 0 <= value < (1 << width):
                raise LayoutError(f"value {value} does not fit register {name!r} ({width} qubits)")
            idx |= value << (self.total_qubits - self.offset(name) - width)
        return idx

    def unpack(self, index: int) -> dict[str, int]:
        """Register values of a basis index."""
        if not 0 <= index < self.dim:
            raise LayoutError(f"basis index {index} out of range")
        out = {}
        for name, width in self.registers:
            shift = self.total_qubits - self.offset(name) - width
            out[name] = (index >> shift) & ((1 << width) - 1)
        return out

    def extended(self, name: str, width: int) -> "RegisterLayout":
        """New layout with one register appended at the least significant end."""
        return RegisterLayout(self.registers + ((name, width),))

    def without(self, name: str) -> "RegisterLayout":
        self.width(name)
        return RegisterLayout(tuple(r for r in self.registers if r[0] != name))

    def subset(self, names: Sequence[str]) -> "RegisterLayout":
        """Layout of the named registers, kept in this layout's order."""
        keep = set(names)
        for n in names:
            self.width(n)
        return RegisterLayout(tuple(r for r in self.registers if r[0] in keep))


def layout(*registers: tuple[str, int]) -> RegisterLayout:
    return RegisterLayout(tuple(registers))


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state over a register layout."""

    layout: RegisterLayout
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = _readonly(np.asarray(self.amplitudes).reshape(-1))
        if amps.size != self.layout.dim:
            raise LayoutError(f"{amps.size} amplitudes for a dim-{self.layout.dim} layout")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > ATOL:
            raise InvariantError(f"statevector norm {norm} deviates from 1 beyond {ATOL}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.layout.dim

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def basis_state(lay: RegisterLayout, values: Mapping[str, int] | int = 0) -> StateVector:
    """Computational basis state; values maps register names to integers."""
    idx = values if isinstance(values, int) else lay.pack(values)
    amps = np.zeros(lay.dim, dtype=np.complex128)
    amps[idx] = 1.0
    return StateVector(lay, amps)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, unit-trace, positive-semidefinite matrix over a layout."""

    layout: RegisterLayout
    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = _readonly(np.asarray(self.matrix))
        dim = self.layout.dim
        if mat.shape != (dim, dim):
            raise LayoutError(f"density matrix shape {mat.shape} for dim {dim}")
        if not np.allclose(mat, mat.conj().T, atol=ATOL):
            raise InvariantError("density matrix is not Hermitian within tolerance")
        tr = np.trace(mat).real
        if abs(tr - 1.0) > ATOL:
            raise InvariantError(f"density matrix trace {tr} deviates from 1")
        if np.linalg.eigvalsh((mat + mat.conj().T) / 2).min() < -ATOL:
            raise InvariantError("density matrix has a negative eigenvalue beyond tolerance")
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.layout.dim


def density_from_state(state: StateVector) -> DensityOperator:
    return DensityOperator(state.layout, np.outer(state.amplitudes, state.amplitudes.conj()))


@dataclass(frozen=True, eq=False)
class UnitaryOperator:
    """Unitary matrix together with the sub-layout it acts on."""

    layout: RegisterLayout
    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = _readonly(np.asarray(self.matrix))
        dim = self.layout.dim
        if mat.shape != (dim, dim):
            raise LayoutError(f"unitary shape {mat.shape} for dim {dim}")
        if not np.allclose(mat.conj().T @ mat, np.eye(dim), atol=1e-9):
            raise InvariantError("matrix is not unitary within tolerance")
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.layout.dim

    def dagger(self) -> "UnitaryOperator":
        return UnitaryOperator(self.layout, self.matrix.conj().T)


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Completely positive trace-preserving map given by Kraus elements."""

    layout: RegisterLayout
    elements: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        dim = self.layout.dim
        elems = tuple(_readonly(np.asarray(e)) for e in self.elements)
        if not elems:
            raise LayoutError("channel needs at least one Kraus element")
        for e in elems:
            if e.shape != (dim, dim):
                raise LayoutError(f"Kraus element shape {e.shape} for dim {dim}")
        total = sum(e.conj().T @ e for e in elems)
        if not np.allclose(total, np.eye(dim), atol=ATOL):
            raise InvariantError("Kraus elements do not sum to identity (not trace preserving)")
        object.__setattr__(self, "elements", elems)


def channel_from_environment(u: np.ndarray, sys_dim: int) -> KrausChannel:
    """Stinespring dilation: unitary on system (x) environment, environment starts at |0>.

    u has shape (sys_dim*env_dim, sys_dim*env_dim) with the system as the most
    significant factor.  Kraus elements are E_l = (I (x) <l|) u (I (x) |0>).
    """
    total = u.shape[0]
    if total % sys_dim:
        raise LayoutError("environment dimension is not an integer")
    env_dim = total // sys_dim
    blocks = u.reshape(sys_dim, env_dim, sys_dim, env_dim)
    elems = tuple(np.ascontiguousarray(blocks[:, l, :, 0]) for l in range(env_dim))
    n = int(round(np.log2(sys_dim)))
    return KrausChannel(layout(("sys", n)), elems)


# ---------------------------------------------------------------------------
# operations


def tensor_product(a, b):
    """Kronecker product of two states, densities, or unitaries.

    The first argument's registers become the most significant block, matching
    the project-wide qubit ordering.
    """
    lay = RegisterLayout(a.layout.registers + b.layout.registers)
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(lay, np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, DensityOperator) and isinstance(b, DensityOperator):
        return DensityOperator(lay, np.kron(a.matrix, b.matrix))
    if isinstance(a, UnitaryOperator) and isinstance(b, UnitaryOperator):
        return UnitaryOperator(lay, np.kron(a.matrix, b.matrix))
    raise TypeError(f"cannot tensor {type(a).__name__} with {type(b).__name__}")


def _target_axes(lay: RegisterLayout, targets: Sequence[str]) -> list[int]:
    axes = lay.positions(*targets)
    if len(set(axes)) != len(axes):
        raise LayoutError(f"repeated target registers in {targets}")
    return axes


def apply_on_registers(state: StateVector, u: UnitaryOperator, targets: Sequence[str]) -> StateVector:
    """Apply a unitary to the named registers of a state.

    The unitary's index space is the concatenation of the targets in the order
    given, most significant first.
    """
    axes = _target_axes(state.layout, targets)
    k = len(axes)
    if u.dim != (1 << k):
        raise LayoutError(f"unitary dim {u.dim} does not cover {k} target qubits")
    n = state.layout.total_qubits
    psi = state.amplitudes.reshape([2] * n)
    op = u.matrix.reshape([2] * (2 * k))
    out = np.tensordot(op, psi, axes=(list(range(k, 2 * k)), axes))
    out = np.moveaxis(out, list(range(k)), axes)
    return StateVector(state.layout, out.reshape(-1))


def apply_basis_permutation(state: StateVector, table: np.ndarray, targets: Sequence[str]) -> StateVector:
    """Apply the basis map |b> -> |table[b]> on the packed target-block index.

    Equivalent to apply_on_registers with the permutation matrix but linear in
    the state dimension, which matters once the block spans 10+ qubits.
    """
    axes = _target_axes(state.layout, targets)
    k = len(axes)
    table = np.asarray(table)
    if table.shape != (1 << k,):
        raise LayoutError(f"table of length {table.size} for a {k}-qubit block")
    if np.any(np.sort(table) != np.arange(1 << k)):
        raise InvariantError("basis map is not a permutation")
    n = state.layout.total_qubits
    psi = np.moveaxis(state.amplitudes.reshape([2] * n), axes, list(range(k)))
    flat = np.ascontiguousarray(psi).reshape(1 << k, -1)
    out = np.empty_like(flat)
    out[table] = flat
    out = np.moveaxis(out.reshape([2] * n), list(range(k)), axes)
    return StateVector(state.layout, np.ascontiguousarray(out).reshape(-1))


def apply_channel(rho: DensityOperator, channel: KrausChannel, targets: Sequence[str]) -> DensityOperator:
    """Apply a Kraus channel to the named registers of a density operator."""
    axes = _target_axes(rho.layout, targets)
    k = len(axes)
    dim = 1 << k
    if channel.layout.dim != dim:
        raise LayoutError(f"channel dim {channel.layout.dim} does not cover {k} target qubits")
    n = rho.layout.total_qubits
    acc = np.zeros((rho.dim, rho.dim), dtype=np.complex128)
    mat = rho.matrix.reshape([2] * (2 * n))
    col_axes = [n + a for a in axes]
    for e in channel.elements:
        op = e.reshape([2] * (2 * k))
        out = np.tensordot(op, mat, axes=(list(range(k, 2 * k)), axes))
        out = np.moveaxis(out, list(range(k)), axes)
        out = np.tensordot(out, op.conj(), axes=(col_axes, list(range(k, 2 * k))))
        out = np.moveaxis(out, list(range(2 * n - k, 2 * n)), col_axes)
        acc += out.reshape(rho.dim, rho.dim)
    return DensityOperator(rho.layout, acc)


def partial_trace(rho: DensityOperator | StateVector, keep: Sequence[str]) -> DensityOperator:
    """Trace out every register not named in keep.

    The result's registers appear in the original layout order regardless of
    the order of keep.
    """
    lay = rho.layout
    keep_axes = lay.positions(*keep)
    new_lay = lay.subset(keep)
    n = lay.total_qubits
    drop_axes = [a for a in range(n) if a not in set(keep_axes)]
    # order kept axes as they appear in the layout
    kept_sorted = sorted(keep_axes)
    if isinstance(rho, StateVector):
        psi = rho.amplitudes.reshape([2] * n)
        out = np.tensordot(psi, psi.conj(), axes=(drop_axes, drop_axes))
        # remaining axes are the kept ones in layout order, rows then columns
        k = len(kept_sorted)
        out = out.reshape(1 << k, 1 << k)
        return DensityOperator(new_lay, out)
    mat = rho.matrix.reshape([2] * (2 * n))
    for row in sorted(drop_axes, reverse=True):
        mat = np.trace(mat, axis1=row, axis2=row + mat.ndim // 2)
    k = len(kept_sorted)
    return DensityOperator(new_lay, mat.reshape(1 << k, 1 << k))


def _sqrt_psd(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(mat)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity(a, b) -> float:
    """Root fidelity; for pure states this is |<a|b>|."""
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return float(abs(np.vdot(a.amplitudes, b.amplitudes)))
    rho = density_from_state(a).matrix if isinstance(a, StateVector) else a.matrix
    sigma = density_from_state(b).matrix if isinstance(b, StateVector) else b.matrix
    root = _sqrt_psd(rho)
    inner = root @ sigma @ root
    vals = np.clip(np.linalg.eigvalsh((inner + inner.conj().T) / 2), 0.0, None)
    return float(np.sqrt(vals).sum())


def trace_distance(a, b) -> float:
    rho = density_from_state(a).matrix if isinstance(a, StateVector) else a.matrix
    sigma = density_from_state(b).matrix if isinstance(b, StateVector) else b.matrix
    vals = np.linalg.eigvalsh(rho - sigma)
    return float(0.5 * np.abs(vals).sum())


def overlap(rho: DensityOperator | StateVector, phi: StateVector) -> float:
    """<phi| rho |phi>, checked to be real."""
    if isinstance(rho, StateVector):
        return float(abs(np.vdot(phi.amplitudes, rho.amplitudes)) ** 2)
    val = complex(phi.amplitudes.conj() @ (rho.matrix @ phi.amplitudes))
    if abs(val.imag) > ATOL:
        raise InvariantError(f"overlap has imaginary part {val.imag}")
    return float(val.real)


def _assignment_index(lay: RegisterLayout, assignments: Mapping[str, int]) -> tuple:
    """Index into the [2]*n amplitude tensor fixing the named registers' bits."""
    idx: list = [slice(None)] * lay.total_qubits
    for name, value in assignments.items():
        width = lay.width(name)
        off = lay.offset(name)
        if not 0 <= value < (1 << width):
            raise LayoutError(f"value {value} does not fit register {name!r}")
        for b in range(width):
            idx[off + b] = (value >> (width - 1 - b)) & 1
    return tuple(idx)


def measure_probability(state: StateVector, assignments: Mapping[str, int]) -> float:
    """Probability that measuring the named registers yields the given values."""
    psi = state.amplitudes.reshape([2] * state.layout.total_qubits)
    sub = psi[_assignment_index(state.layout, assignments)]
    return float(np.sum(np.abs(sub) ** 2))


def condition_on(state: StateVector, assignments: Mapping[str, int], drop: bool = True):
    """Post-measurement state given the named registers read the given values.

    Returns (probability, state); the state is None when the probability
    vanishes.  With drop=True the measured registers are removed.
    """
    lay = state.layout
    psi = state.amplitudes.reshape([2] * lay.total_qubits)
    idx = _assignment_index(lay, assignments)
    sub = np.asarray(psi[idx])
    prob = float(np.sum(np.abs(sub) ** 2))
    if prob <= ATOL**2:
        return 0.0, None
    if drop:
        new_lay = lay
        for name in assignments:
            new_lay = new_lay.without(name)
        return prob, StateVector(new_lay, (sub / np.sqrt(prob)).reshape(-1))
    full = np.zeros_like(psi)
    full[idx] = sub / np.sqrt(prob)
    return prob, StateVector(lay, full.reshape(-1))


def adjoin_register(state: StateVector, name: str, width: int, value: int = 0) -> StateVector:
    """Tensor a fresh basis register onto the least significant end."""
    new_lay = state.layout.extended(name, width)
    fresh = basis_state(layout((name, width)), value)
    return StateVector(new_lay, np.kron(state.amplitudes, fresh.amplitudes))


def reorder_registers(state: StateVector, order: Sequence[str]) -> StateVector:
    """Permute whole registers into the given order (explicit qubit permutation)."""
    lay = state.layout
    if sorted(order) != sorted(lay.names):
        raise LayoutError(f"order {order} is not a permutation of {lay.names}")
    n = lay.total_qubits
    perm = lay.positions(*order)
    psi = state.amplitudes.reshape([2] * n).transpose(perm)
    new_lay = RegisterLayout(tuple((name, lay.width(name)) for name in order))
    return StateVector(new_lay, np.ascontiguousarray(psi).reshape(-1))



@lru_cache(maxsize=16)
def hadamard_power(n: int) -> np.ndarray:
    """Read-only real matrix of H on each of n qubits, first qubit most significant."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    full = h
    for _ in range(n - 1):
        full = np.kron(full, h)
    full.setflags(write=False)
    return full
