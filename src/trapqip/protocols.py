"""Two-message trap-superposition verification protocols, evaluated exactly.

The verifier prepares an equal superposition of a computation branch (the
reduction's query state) and a trap branch (uniform queries mirrored into a
private copy register) over a branch qubit, sends the message registers, and
verifies each branch separately: the computation branch through the decider,
the trap branch by uncomputing back to the all-zero state.  The branch
measurement commutes with everything the prover can do, so the simulator
propagates both branches separately and reports p0, p1, and their mean.

Provers follow the normal form: the honest inverse oracle is always applied,
then an arbitrary unitary on the prover's private register plus the message
registers.  By default the verifier accepts a decider output of 0, which
decides the complement language; accept_output=1 flips the convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import core, rejection
from .core import (
    ATOL,
    CapacityError,
    InvariantError,
    LayoutError,
    RegisterLayout,
    StateVector,
    UnitaryOperator,
    basis_state,
    layout,
)
from .oracles import Permutation, inversion_table
from .reductions import (
    DistributionTable,
    Reduction,
    _relabel,
    apply_decider,
    apply_generator,
    copy_register_names,
    decider_table,
    generate_query_state,
    grouped_register_order,
    honest_answer_state,
    majority_vote_unitary,
    register_xor_table,
)
from .sampling import haar_unitary

PROVER_HONEST = "honest"
PROVER_UNITARY = "unitary-cheat"
PROVER_CLASSICAL = "classical"

# Dense acceptance projectors get diagonalized; 12 qubits keeps that under a
# second and covers every width the verification suite exercises.
_PROJECTOR_QUBIT_CAP = 12


@dataclass(frozen=True, eq=False)
class Prover:
    """Prover model: honest, a unitary cheat after the oracle, or classical.

    A unitary cheat acts on (private register, all query registers, all answer
    registers), in that order, after the honest inverse oracle.  A classical
    prover is an answer table indexed by the query value.
    """

    kind: str
    unitary: UnitaryOperator | None = None
    prover_qubits: int = 0
    answers: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in (PROVER_HONEST, PROVER_UNITARY, PROVER_CLASSICAL):
            raise ValueError(f"unknown prover kind {self.kind!r}")
        if self.kind == PROVER_UNITARY:
            if self.unitary is None:
                raise ValueError("unitary-cheat prover needs a unitary")
            if self.prover_qubits < 0:
                raise ValueError("private register width must be >= 0")
        if self.kind == PROVER_CLASSICAL and self.answers is None:
            raise ValueError("classical prover needs an answer table")

    @staticmethod
    def honest() -> "Prover":
        return Prover(kind=PROVER_HONEST)

    @staticmethod
    def unitary_cheat(matrix, prover_qubits: int = 0) -> "Prover":
        if isinstance(matrix, UnitaryOperator):
            op = matrix
        else:
            mat = np.asarray(matrix)
            n = int(round(math.log2(mat.shape[0])))
            op = UnitaryOperator(layout(("cheat", n)), mat)
        return Prover(kind=PROVER_UNITARY, unitary=op, prover_qubits=prover_qubits)

    @staticmethod
    def classical(answers) -> "Prover":
        return Prover(kind=PROVER_CLASSICAL, answers=tuple(int(a) for a in answers))


@dataclass(frozen=True, eq=False)
class ProtocolResult:
    """Exact per-branch acceptance probabilities plus run metadata."""

    p0: float
    p1: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, value in (("p0", self.p0), ("p1", self.p1)):
            if not -1e-9 <= value <= 1.0 + 1e-9:
                raise InvariantError(f"{name} = {value} outside [0, 1]")

    @property
    def accept_prob(self) -> float:
        return (self.p0 + self.p1) / 2.0


# ---------------------------------------------------------------------------
# verifier-side states and circuits


def trap_state(m: int, copies: int = 1) -> StateVector:
    """Uniform query superposition mirrored into the copy register, work zero.

    Equals the generator output with the work buffer forced to zero, which is
    exactly what makes the two branches indistinguishable to the prover.
    """
    if m < 1:
        raise ValueError("query width must be >= 1")
    lay = layout(("query", m), ("answer", m), ("work", m), ("copy", m))
    amps = np.zeros(lay.dim, dtype=np.complex128)
    scale = 1.0 / math.sqrt(1 << m)
    for q in range(1 << m):
        amps[lay.pack({"query": q, "copy": q})] = scale
    single = StateVector(lay, amps)
    if copies == 1:
        return single
    names = copy_register_names(copies)
    state = _relabel(single, names[0])
    for i in range(1, copies):
        state = core.tensor_product(state, _relabel(single, names[i]))
    return core.reorder_registers(state, grouped_register_order(copies))


@lru_cache(maxsize=64)
def trap_verifier(f: Permutation) -> UnitaryOperator:
    """Uncompute the honest trap response to all-zero on (query, answer, copy).

    Chain: XOR the query into the copy, XOR f(answer) into the query, then
    Hadamard the answer register.  The work register is untouched; the full
    trap check additionally requires it to read zero.
    """
    m = f.m
    size = 1 << m
    dim = size**3
    idx = np.arange(dim)
    c = idx & (size - 1)
    a = (idx >> m) & (size - 1)
    q = idx >> (2 * m)
    f_of = np.array([f(v) for v in range(size)])
    rows = ((q ^ f_of[a]) << (2 * m)) | (a << m) | (c ^ q)
    perm = np.zeros((dim, dim))
    perm[rows, idx] = 1.0
    full = np.kron(np.eye(size), np.kron(core.hadamard_power(m), np.eye(size)))
    lay = layout(("query", m), ("answer", m), ("copy", m))
    return UnitaryOperator(lay, full @ perm)


def trap_answer_state(r: Reduction, f: Permutation) -> StateVector:
    """Trap state after the honest inverse oracle filled the answer registers."""
    state = trap_state(r.m, r.k)
    table = inversion_table(f)
    for regs in copy_register_names(r.k):
        state = core.apply_basis_permutation(state, table, [regs["query"], regs["answer"]])
    return state


# ---------------------------------------------------------------------------
# the protocol engine


def _apply_prover_stage(state: StateVector, r: Reduction, f: Permutation, prover: Prover) -> StateVector:
    width = prover.prover_qubits if prover.kind == PROVER_UNITARY else 0
    if width:
        state = core.tensor_product(basis_state(layout(("prover", width))), state)
    names = copy_register_names(r.k)
    table = inversion_table(f)
    for regs in names:
        state = core.apply_basis_permutation(state, table, [regs["query"], regs["answer"]])
    if prover.kind == PROVER_UNITARY:
        targets = ["prover"] if width else []
        targets += [regs["query"] for regs in names]
        targets += [regs["answer"] for regs in names]
        needed = 1 << (width + 2 * r.m * r.k)
        if prover.unitary.dim != needed:
            raise LayoutError(
                f"cheat unitary dim {prover.unitary.dim}, need {needed} for "
                f"{width} private qubits and {r.k} message pairs"
            )
        state = core.apply_on_registers(state, prover.unitary, targets)
    return state


def _decide(state: StateVector, r: Reduction, accept_output: int) -> float:
    """Adjoin an out qubit per copy, run the decider, vote over several copies, measure."""
    outs = ["out"] if r.k == 1 else [f"out{i}" for i in range(r.k)]
    for regs, out in zip(copy_register_names(r.k), outs):
        state = core.adjoin_register(state, out, 1)
        state = apply_decider(state, r, regs["answer"], regs["work"], out)
    final = outs[0]
    if r.copies > 1:
        state = core.adjoin_register(state, "vote", 1)
        state = core.apply_on_registers(state, majority_vote_unitary(r.copies), [*outs, "vote"])
        final = "vote"
    return core.measure_probability(state, {final: accept_output})


def _computation_branch(state: StateVector, r: Reduction, accept_output: int) -> float:
    xor = register_xor_table(r.m)
    for regs in copy_register_names(r.k):
        state = core.apply_basis_permutation(state, xor, [regs["query"], regs["copy"]])
    return _decide(state, r, accept_output)


def _trap_branch(state: StateVector, r: Reduction, f: Permutation) -> float:
    names = copy_register_names(r.k)
    verifier = trap_verifier(f)
    for regs in names:
        state = core.apply_on_registers(state, verifier, [regs["query"], regs["answer"], regs["copy"]])
    zeros = {name: 0 for regs in names for name in regs.values()}
    return core.measure_probability(state, zeros)


def _majority_accept(one_probs, copies: int, accept_output: int) -> float:
    """Exact majority-vote acceptance from independent per-copy P(out=1)."""
    if copies == 1:
        p_one = one_probs[0]
    else:
        poly = np.array([1.0])
        for e in one_probs:
            poly = np.convolve(poly, [1.0 - e, e])
        p_one = float(poly[copies // 2 + 1 :].sum())
    return p_one if accept_output == 1 else 1.0 - p_one


def _copy_slice(r: Reduction, i: int) -> Reduction:
    return replace(
        r,
        k=1,
        copies=1,
        epsilon=r.base_epsilon,
        distributions=(r.distributions[i],),
        preps=(r.preps[i],),
    )


def _check_instance(r: Reduction, f: Permutation, x: int) -> None:
    if f.m != r.m:
        raise LayoutError(f"permutation width {f.m} does not match query width {r.m}")
    r.language(x)


def run_protocol(r: Reduction, f: Permutation, x: int, prover: Prover, accept_output: int = 0) -> ProtocolResult:
    """Trap protocol for any odd copy count; exact p0, p1 from the statevector.

    Several copies run over grouped per-copy registers with a majority
    decider.  Honest provers are evaluated per copy and combined exactly;
    entangling cheats run on the full grouped state, within the qubit cap.
    """
    _check_instance(r, f, x)
    if prover.kind == PROVER_CLASSICAL:
        raise ValueError("classical provers answer basis queries; use run_classical_query_protocol")
    if accept_output not in (0, 1):
        raise ValueError("accept_output must be 0 or 1")
    metadata: dict = {
        "protocol": "trap",
        "prover_kind": prover.kind,
        "m": r.m,
        "copies": r.copies,
        "accept_output": accept_output,
    }
    if prover.kind == PROVER_HONEST and r.copies > 1:
        # Honest runs stay in product form across copies, so per-copy exact
        # simulation plus the majority law avoids the full-width state.
        ones = []
        trap_ok = 1.0
        for i in range(r.copies):
            single = _copy_slice(r, i)
            comp = _apply_prover_stage(generate_query_state(single, x), single, f, prover)
            ones.append(_computation_branch(comp, single, 1))
            trap = _apply_prover_stage(trap_state(single.m), single, f, prover)
            trap_ok *= _trap_branch(trap, single, f)
        p0 = _majority_accept(ones, r.copies, accept_output)
        p1 = trap_ok
        metadata["per_copy_one_probs"] = ones
    else:
        comp = _apply_prover_stage(generate_query_state(r, x), r, f, prover)
        p0 = _computation_branch(comp, r, accept_output)
        trap = _apply_prover_stage(trap_state(r.m, r.k), r, f, prover)
        p1 = _trap_branch(trap, r, f)
    return ProtocolResult(p0=float(p0), p1=float(p1), metadata=metadata)


# the same engine under the name multi-copy callers import
run_multiquery_protocol = run_protocol


# ---------------------------------------------------------------------------
# smooth-distribution protocol


def _pre_copy_state(r: Reduction, x: int, i: int) -> StateVector:
    lay = layout(("x", r.m), ("query", r.m), ("answer", r.m), ("work", r.m))
    state = apply_generator(basis_state(lay, {"x": x}), r, i)
    prob, state = core.condition_on(state, {"x": x})
    if abs(prob - 1.0) > ATOL:
        raise InvariantError("generator failed to leave the input register intact")
    return state


def _geometric_rounds(rng, success_prob: float) -> int:
    if success_prob >= 1.0:
        return 1
    return int(rng.geometric(success_prob))


def run_smooth_protocol(
    r: Reduction,
    f: Permutation,
    x: int,
    prover: Prover,
    gamma: int | None = None,
    gamma_prime: int | None = None,
    accept_output: int = 0,
    seed: int = 0,
) -> ProtocolResult:
    """Trap protocol for a smooth non-uniform query distribution.

    The verifier resamples each query register up to uniform before sending
    and back down to the target distribution before deciding, so the prover
    only ever sees uniform queries.  Reported probabilities condition on all
    rejection-sampling flags succeeding; the seeded round counts drawn against
    the copy budgets land in metadata, including any budget overrun.
    """
    _check_instance(r, f, x)
    if not r.is_smooth:
        raise ValueError("query distribution carries no smoothness certificate")
    if prover.kind == PROVER_CLASSICAL:
        raise ValueError("classical provers answer basis queries; use run_classical_query_protocol")
    rng = np.random.default_rng(seed)
    metadata: dict = {
        "protocol": "smooth",
        "prover_kind": prover.kind,
        "m": r.m,
        "copies": r.copies,
        "accept_output": accept_output,
        "seed": seed,
    }

    if prover.kind == PROVER_HONEST and r.copies > 1:
        ones = []
        trap_ok = 1.0
        parts = []
        for i in range(r.copies):
            part = run_smooth_protocol(
                _copy_slice(r, i),
                f,
                x,
                prover,
                gamma=gamma,
                gamma_prime=gamma_prime,
                accept_output=accept_output,
                seed=int(rng.integers(2**62)),
            )
            ones.append(part.p0 if accept_output == 1 else 1.0 - part.p0)
            trap_ok *= part.p1
            parts.append(part.metadata)
        p0 = _majority_accept(ones, r.copies, accept_output)
        metadata["per_copy"] = parts
        metadata["budget_exceeded"] = any(p["budget_exceeded"] for p in parts)
        return ProtocolResult(p0=float(p0), p1=float(trap_ok), metadata=metadata)

    uniform = DistributionTable.uniform(r.m)
    names = copy_register_names(r.k)
    up_rounds, up_probs, up_budgets = [], [], []
    parts = []
    for i in range(r.k):
        plan = rejection.make_plan(r.distributions[i], uniform)
        state = _pre_copy_state(r, x, i)
        step = rejection.qrs_round(state, plan, "query")
        if abs(step.success_prob - plan.success_probability) > 1e-9:
            raise InvariantError("pre-send resampling success deviates from 1/beta")
        budget = rejection.copies_budget_to_uniform(r.distributions[i]) if gamma is None else gamma
        up_rounds.append(_geometric_rounds(rng, step.success_prob))
        up_probs.append(step.success_prob)
        up_budgets.append(budget)
        state = core.adjoin_register(step.accepted, "copy", r.m)
        state = core.apply_basis_permutation(state, register_xor_table(r.m), ["query", "copy"])
        parts.append(_relabel(state, names[i]))
    sent = parts[0]
    for part in parts[1:]:
        sent = core.tensor_product(sent, part)
    if r.k > 1:
        sent = core.reorder_registers(sent, grouped_register_order(r.k))

    comp = _apply_prover_stage(sent, r, f, prover)
    down_rounds, down_probs, down_budgets = [], [], []
    down_impossible = False
    xor = register_xor_table(r.m)
    for i, regs in enumerate(names):
        comp = core.apply_basis_permutation(comp, xor, [regs["query"], regs["copy"]])
        plan = rejection.make_plan(uniform, r.distributions[i])
        step = rejection.qrs_round(comp, plan, regs["query"])
        budget = rejection.copies_budget_from_uniform(r.distributions[i]) if gamma_prime is None else gamma_prime
        down_probs.append(step.success_prob)
        down_budgets.append(budget)
        if step.accepted is None:
            down_impossible = True
            down_rounds.append(budget)
            break
        down_rounds.append(_geometric_rounds(rng, step.success_prob))
        comp = step.accepted
    p0 = 0.0 if down_impossible else _decide(comp, r, accept_output)
    trap = _apply_prover_stage(trap_state(r.m, r.k), r, f, prover)
    p1 = _trap_branch(trap, r, f)

    metadata.update(
        up_rounds=up_rounds,
        up_success_probs=up_probs,
        up_budgets=up_budgets,
        down_rounds=down_rounds,
        down_success_probs=down_probs,
        down_budgets=down_budgets,
        down_impossible=down_impossible,
        budget_exceeded=any(u > b for u, b in zip(up_rounds, up_budgets))
        or any(d > b for d, b in zip(down_rounds, down_budgets)),
    )
    return ProtocolResult(p0=float(p0), p1=float(p1), metadata=metadata)


# ---------------------------------------------------------------------------
# classical-query protocol


def run_classical_query_protocol(
    r: Reduction,
    f: Permutation,
    x: int,
    prover: Prover,
    queries=None,
    seed: int = 0,
    accept_output: int = 0,
) -> ProtocolResult:
    """Measure the queries to basis values and verify answers by recomputing f.

    Any answer a with f(a) != q rejects with certainty; honest answers are
    decided by the reduction.  The single-phase acceptance is reported as both
    p0 and p1, so accept_prob equals it.
    """
    _check_instance(r, f, x)
    if prover.kind == PROVER_UNITARY:
        raise ValueError("unitary cheats act on quantum messages; use run_protocol")
    rng = np.random.default_rng(seed)
    size = 1 << r.m
    if queries is not None and len(queries) != r.k:
        raise ValueError(f"need one forced query per copy, got {len(queries)}")
    if prover.kind == PROVER_CLASSICAL and len(prover.answers) != size:
        raise ValueError(f"answer table has {len(prover.answers)} entries, need {size}")

    drawn, replies, checks, ones = [], [], [], []
    for i in range(r.k):
        probs = r.distributions[i].probs
        q = int(queries[i]) if queries is not None else int(rng.choice(size, p=probs))
        if not 0 <= q < size:
            raise ValueError(f"query {q} does not fit {r.m} bits")
        if probs[q] <= 0:
            raise ValueError(f"query {q} is outside the distribution's support")
        lay = layout(("x", r.m), ("query", r.m), ("answer", r.m), ("work", r.m))
        state = apply_generator(basis_state(lay, {"x": x}), r, i)
        prob, state = core.condition_on(state, {"x": x, "query": q})
        if prob <= 0:
            raise InvariantError("conditioning on a supported query failed")
        a = f.inverse_of(q) if prover.kind == PROVER_HONEST else prover.answers[q]
        state = core.apply_basis_permutation(state, np.arange(size) ^ a, ["answer"])
        state = core.adjoin_register(state, "out", 1)
        state = apply_decider(state, r, "answer", "work", "out")
        drawn.append(q)
        replies.append(a)
        checks.append(f(a) == q)
        ones.append(core.measure_probability(state, {"out": 1}))

    accept = _majority_accept(ones, r.copies, accept_output) if all(checks) else 0.0
    metadata = {
        "protocol": "classical",
        "prover_kind": prover.kind,
        "m": r.m,
        "copies": r.copies,
        "accept_output": accept_output,
        "seed": seed,
        "queries": drawn,
        "answers": replies,
        "checks": checks,
        "per_copy_one_probs": ones,
    }
    return ProtocolResult(p0=float(accept), p1=float(accept), metadata=metadata)


# ---------------------------------------------------------------------------
# cheating analysis


@dataclass(frozen=True, eq=False)
class CheatBound:
    """Closed-form cheating ceiling with its eigenvalue cross-check."""

    bound: float
    eigen_bound: float
    sin_theta: float
    sin_sq: float

    def __float__(self) -> float:
        return self.bound


def _acceptance_layout(m: int) -> RegisterLayout:
    return layout(("query", m), ("answer", m), ("work", m), ("copy", m), ("out", 1))


def _acceptance_projector(r: Reduction, accept_output: int) -> np.ndarray:
    """Projector onto accepting runs of the computation branch, with the copy
    erasure and the decider both embedded over (query, answer, work, copy, out).

    W = (noise on out) . (decider table) . (copy erasure).  The erasure only
    permutes (query, copy), which nothing after it reads, so it cancels in
    W^dag M W.  The table XORs the language bit into out, so index i pairs
    only with i ^ 1, through the 2x2 block rot^dag diag(mask) rot.
    """
    lay = _acceptance_layout(r.m)
    if lay.total_qubits > _PROJECTOR_QUBIT_CAP:
        raise CapacityError(
            f"dense acceptance projector needs {lay.total_qubits} qubits; "
            f"supported up to {_PROJECTOR_QUBIT_CAP}"
        )
    idx = np.arange(lay.dim)
    answer_work = (idx >> (r.m + 1)) & ((1 << (2 * r.m)) - 1)
    out = decider_table(r.m, r.bit)[(answer_work << 1) | (idx & 1)] & 1
    rot = np.eye(2) if r.noise is None else r.noise.matrix
    mask = np.array([accept_output == 0, accept_output == 1], dtype=float)
    block = rot.conj().T @ (mask[:, None] * rot)
    proj = np.zeros((lay.dim, lay.dim), dtype=np.complex128)
    proj[idx, idx] = block[out, out]
    proj[idx, idx ^ 1] = block[out, out ^ 1]
    return proj


def cheat_upper_bound(r: Reduction, f: Permutation, x: int, accept_output: int = 0) -> CheatBound:
    """Cheating ceiling (1 + sin theta)/2 with an eigenvalue-oracle cross-check.

    sin^2 theta is the honest response's mass in the acceptance projector; the
    oracle value is half the top eigenvalue of projector plus honest-response
    dyad.  Both must agree within 1e-9 or the call fails.  Meaningful as a
    soundness ceiling on inputs the verifier should reject.
    """
    _check_instance(r, f, x)
    if r.copies != 1:
        raise ValueError("cheating ceiling is defined per copy; slice the reduction first")
    proj = _acceptance_projector(r, accept_output)
    honest = honest_answer_state(r, f, x)
    phi = np.kron(honest.amplitudes, np.array([1.0, 0.0]))
    sin_sq = float(np.real(np.vdot(phi, proj @ phi)))
    sin_sq = min(max(sin_sq, 0.0), 1.0)
    sin_theta = math.sqrt(sin_sq)
    bound = (1.0 + sin_theta) / 2.0
    top = float(np.linalg.eigvalsh(proj + np.outer(phi, phi.conj()))[-1])
    eigen_bound = top / 2.0
    if abs(bound - eigen_bound) > 1e-9:
        raise InvariantError(
            f"closed-form ceiling {bound} and eigenvalue oracle {eigen_bound} disagree"
        )
    return CheatBound(bound=bound, eigen_bound=eigen_bound, sin_theta=sin_theta, sin_sq=sin_sq)


def branch_overlap_pair(r: Reduction, f: Permutation, x: int, prover: Prover) -> tuple[float, float]:
    """Overlap of each post-prover branch with its honest response.

    The two values agree for uniform-query reductions whatever the cheat does;
    their common deficit is what the trap branch charges the prover.
    """
    _check_instance(r, f, x)
    honest_comp = honest_answer_state(r, f, x)
    honest_trap = trap_answer_state(r, f)
    out = []
    for start, honest in ((generate_query_state(r, x), honest_comp), (trap_state(r.m, r.k), honest_trap)):
        amps = _apply_prover_stage(start, r, f, prover).amplitudes
        # <honest| on the message registers; the private register, if any,
        # is the most significant, so each row is one of its basis values
        out.append(float(np.linalg.norm(amps.reshape(-1, honest.dim) @ honest.amplitudes.conj()) ** 2))
    return out[0], out[1]


# ---------------------------------------------------------------------------
# numerical prover search


def _search_context(r: Reduction, f: Permutation, x: int, p_qubits: int, accept_output: int):
    m = r.m
    mv_dim = 1 << (4 * m)
    proj = _acceptance_projector(r, accept_output)
    accept_block = np.ascontiguousarray(proj[0::2, 0::2])

    mv_lay = layout(("query", m), ("answer", m), ("work", m), ("copy", m))
    zero = basis_state(mv_lay)
    accept_vec = core.apply_on_registers(zero, trap_verifier(f).dagger(), ["query", "answer", "copy"])

    prover0 = basis_state(layout(("prover", p_qubits))) if p_qubits else None

    def prepared(mv_state: StateVector) -> np.ndarray:
        state = core.tensor_product(prover0, mv_state) if prover0 is not None else mv_state
        return state.amplitudes.reshape(1 << (p_qubits + 2 * m), -1)

    a0 = prepared(honest_answer_state(r, f, x))
    a1 = prepared(trap_answer_state(r, f))
    v_conj = accept_vec.amplitudes.conj()

    def objective(u: np.ndarray) -> float:
        b0 = (u @ a0).reshape(1 << p_qubits, mv_dim)
        b1 = (u @ a1).reshape(1 << p_qubits, mv_dim)
        p0 = float(np.real(np.einsum("pi,ij,pj->", b0.conj(), accept_block, b0)))
        p1 = float(np.sum(np.abs(b1 @ v_conj) ** 2))
        return (p0 + p1) / 2.0

    return objective


def _givens_step(dim: int, rng) -> np.ndarray:
    i, j = rng.choice(dim, size=2, replace=False)
    theta = rng.normal(0.0, 0.3)
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    g = np.eye(dim, dtype=np.complex128)
    g[i, i] = math.cos(theta)
    g[j, j] = math.cos(theta)
    g[i, j] = -phase * math.sin(theta)
    g[j, i] = np.conj(phase) * math.sin(theta)
    return g


def prover_search(
    r: Reduction,
    f: Permutation,
    x: int,
    p_qubits: int,
    iters: int,
    seed: int,
    accept_output: int = 0,
    restart_every: int = 250,
) -> tuple[Prover, float]:
    """Hill-climb over cheat unitaries; returns the best prover and its value.

    Proposals compose small random two-coordinate rotations onto the current
    unitary, with periodic fresh Haar restarts.  The identity start makes the
    zero-iteration result the honest value, and for a fixed seed the best
    value is non-decreasing in the iteration count.  The result is checked
    against the closed-form ceiling.
    """
    _check_instance(r, f, x)
    if r.copies != 1:
        raise ValueError("search runs per copy; slice the reduction first")
    if p_qubits < 0:
        raise ValueError("private register width must be >= 0")
    if not r.distributions[0].is_uniform:
        raise ValueError("ceiling holds for uniform queries; search the resampled interface")
    objective = _search_context(r, f, x, p_qubits, accept_output)
    dim = 1 << (p_qubits + 2 * r.m)
    rng = np.random.default_rng(seed)

    current = np.eye(dim, dtype=np.complex128)
    current_score = objective(current)
    best, best_score = current, current_score
    for i in range(1, iters + 1):
        if restart_every and i % restart_every == 0:
            # unconditional restart; escapes local maxima, best is kept aside
            current = haar_unitary(dim, rng)
            current_score = objective(current)
        else:
            candidate = _givens_step(dim, rng) @ current
            score = objective(candidate)
            if score >= current_score:
                current, current_score = candidate, score
        if current_score > best_score:
            best, best_score = current, current_score

    ceiling = cheat_upper_bound(r, f, x, accept_output)
    if best_score > ceiling.bound + 1e-9:
        raise InvariantError(
            f"search value {best_score} exceeds the cheating ceiling {ceiling.bound}"
        )
    return Prover.unitary_cheat(best, p_qubits), float(best_score)
