"""Dense linear algebra for small multi-register qubit systems.

Everything here works on explicit statevectors and dense operators, sized for
desk-scale experiments (one qubit budget, default 18, guards against
accidental blowups).  Register bookkeeping uses named registers; qubit 0 is the
most significant position of the first-declared register, so the basis index of
a computational state is the concatenated register values read left to right.
All container types are immutable after construction and every operation
returns a fresh value.

The protocols run on statevectors, so every kernel takes `StateVector`s,
`partial_trace`, `fidelity` and `trace_distance` included.  A
`DensityOperator` is only ever the result of `partial_trace`.  A channel is
its Stinespring dilation: a `UnitaryOperator` on (system, environment) with
the environment starting at |0>; a lemma applies it through its Kraus blocks.
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
    """The qubit budget of within_cap; overridable via the environment."""
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


def within_cap(qubits: int) -> bool:
    """The one budget rule: no object holds over 2^qubit_cap() entries, so a
    state on n qubits counts n and a dense operator on n qubits counts 2n."""
    return qubits <= qubit_cap()


def require_cap(qubits: int, what: str) -> None:
    if not within_cap(qubits):
        raise CapacityError(f"{what} needs {qubits} qubits of budget, cap is {qubit_cap()}")


def close(a, b, atol: float) -> bool:
    """np.allclose(a, b, rtol=1e-5, atol=atol)'s verdict, without its overhead or warnings.

    Entrywise |a - b| <= atol + 1e-5 |b| where b is finite, or a == b (equal
    infinities); NaN is never close.  b may be a scalar, as in broadcasting.
    """
    with np.errstate(all="ignore"):
        return bool(((abs(a - b) <= atol + 1e-5 * abs(b)) & np.isfinite(b) | (a == b)).all())


def _orthonormal_columns(mat: np.ndarray) -> bool:
    """close(mat.conj().T @ mat, np.eye(cols), 1e-9)'s verdict, computed one block
    of Gram rows at a time, so at most about 2^14 Gram entries are live at once."""
    cols = mat.shape[1]
    step = max(1, (1 << 14) // cols)
    for i in range(0, cols, step):
        gram = mat[:, i : i + step].conj().T @ mat
        if not close(gram, np.eye(len(gram), cols, i), 1e-9):
            return False
    return True


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.complex128, copy=True, order="C")  # reshapes stay views
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
        require_cap(sum(w for _, w in regs), "layout")
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
        require_cap(2 * self.layout.total_qubits, "density matrix")
        mat = _readonly(np.asarray(self.matrix))
        dim = self.layout.dim
        if mat.shape != (dim, dim):
            raise LayoutError(f"density matrix shape {mat.shape} for dim {dim}")
        if not close(mat, mat.conj().T, ATOL):
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


@dataclass(frozen=True, eq=False)
class UnitaryOperator:
    """Unitary matrix together with the sub-layout it acts on; its unitarity
    check holds one Gram block at a time, so a build costs its complex copy."""

    layout: RegisterLayout
    matrix: np.ndarray

    def __post_init__(self) -> None:
        require_cap(2 * self.layout.total_qubits, "dense operator")
        mat = _readonly(np.asarray(self.matrix))
        dim = self.layout.dim
        if mat.shape != (dim, dim):
            raise LayoutError(f"unitary shape {mat.shape} for dim {dim}")
        if not _orthonormal_columns(mat):
            raise InvariantError("matrix is not unitary within tolerance")
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.layout.dim


# ---------------------------------------------------------------------------
# operations


def tensor_product(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product of two states.

    The first argument's registers become the most significant block, matching
    the project-wide qubit ordering.
    """
    lay = RegisterLayout(a.layout.registers + b.layout.registers)
    return StateVector(lay, np.kron(a.amplitudes, b.amplitudes))


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


def partial_trace(state: StateVector, keep: Sequence[str]) -> DensityOperator:
    """Trace out every register not named in keep: the Gram product M M^dag of
    the amplitude matrix M whose rows are the kept qubits, columns the rest.

    The result's registers appear in the original layout order regardless of
    the order of keep.
    """
    lay = state.layout
    keep_axes = sorted(_target_axes(lay, keep))
    k = len(keep_axes)
    psi = np.moveaxis(state.amplitudes.reshape([2] * lay.total_qubits), keep_axes, list(range(k)))
    mat = psi.reshape(1 << k, -1)
    return DensityOperator(lay.subset(keep), mat @ mat.conj().T)


def fidelity(a: StateVector, b: StateVector) -> float:
    """Root fidelity of two pure states, |<a|b>|."""
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)))


def trace_distance(a: StateVector, b: StateVector) -> float:
    """Half the trace norm of |a><a| - |b><b|, from the eigenvalues of the difference."""
    require_cap(2 * max(a.layout.total_qubits, b.layout.total_qubits), "trace distance")
    va, vb = a.amplitudes, b.amplitudes
    vals = np.linalg.eigvalsh(np.outer(va, va.conj()) - np.outer(vb, vb.conj()))
    return float(0.5 * np.abs(vals).sum())


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


def condition_on(state: StateVector, assignments: Mapping[str, int]):
    """Post-measurement state given the named registers read the given values.

    Returns (probability, state) with the measured registers removed; the
    state is None when the probability vanishes.
    """
    lay = state.layout
    psi = state.amplitudes.reshape([2] * lay.total_qubits)
    sub = np.asarray(psi[_assignment_index(lay, assignments)])
    prob = float(np.sum(np.abs(sub) ** 2))
    if prob <= ATOL**2:
        return 0.0, None
    # _assignment_index has checked every measured name
    new_lay = RegisterLayout(tuple(reg for reg in lay.registers if reg[0] not in assignments))
    return prob, StateVector(new_lay, (sub / np.sqrt(prob)).reshape(-1))


def adjoin_register(state: StateVector, name: str, width: int) -> StateVector:
    """Tensor a fresh all-zero register onto the least significant end."""
    return tensor_product(state, basis_state(layout((name, width))))


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
