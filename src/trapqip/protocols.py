"""Two-message trap-superposition verification protocols, evaluated exactly.

The verifier prepares an equal superposition of a computation branch (the
reduction's query state) and a trap branch (uniform queries mirrored into a
private copy register) over a branch qubit, sends the message registers, and
verifies each branch separately: the computation branch through the decider,
the trap branch by uncomputing back to the all-zero state.  The branch
measurement commutes with everything the prover can do, so the simulator
propagates both branches separately and reports p0, p1, and their mean.

Provers follow the normal form: the honest inverse oracle answers every
query, then a cheat acts on the private register plus the messages, so every
branch starts from an honest response (a0 or t) and the prover stage is the
cheat alone.  By default the verifier accepts a decider output of 0, which
decides the complement language; accept_output=1 flips the convention.

After a copy's prep every verifier step is a basis map, so an honest
response of t copies lives on 2^(mt) basis states, one per query tuple: its
support (response_support).  Honest trap and classical runs are evaluated on
it and build no statevector.  Every cheat is scored on the verifier normal
form (_normal_form), its image of a response the column gather of its
isometry on that support, so it builds no statevector outside the smooth
engine's up steps; the statevector kernels run the smooth engine's
resampling and honest copies, and the honest trap memo's check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache, reduce

import numpy as np

from . import core, rejection
from .core import (
    InvariantError,
    LayoutError,
    StateVector,
    UnitaryOperator,
    basis_state,
    layout,
)
from .oracles import Permutation, inverse_answers
from .reductions import (
    DistributionTable,
    Reduction,
    answer_queries,
    apply_decider,
    apply_generator,
    decider_table,
    majority_vote_table,
    register_xor_table,
    response_support,
    support_state,
)
from .sampling import haar_isometry

PROVER_HONEST = "honest"
PROVER_UNITARY = "unitary-cheat"
PROVER_CLASSICAL = "classical"


@dataclass(frozen=True, eq=False)
class Prover:
    """Prover model: honest, a unitary cheat after the oracle, or classical.

    A unitary cheat acts on (private register, all query registers, all answer
    registers), in that order, after the honest inverse oracle; the private
    register starts at |0>, so it is held as the isometry of its first 2^n
    columns, n the message width.  A classical prover is an answer table.
    """

    kind: str
    isometry: np.ndarray | None = None
    prover_qubits: int = 0
    answers: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in (PROVER_HONEST, PROVER_UNITARY, PROVER_CLASSICAL):
            raise ValueError(f"unknown prover kind {self.kind!r}")
        if self.kind == PROVER_UNITARY and self.isometry is None:
            raise ValueError("unitary-cheat prover needs an isometry")
        if self.kind == PROVER_CLASSICAL and self.answers is None:
            raise ValueError("classical prover needs an answer table")

    @staticmethod
    def honest() -> "Prover":
        return Prover(kind=PROVER_HONEST)

    @staticmethod
    def unitary_cheat(matrix, prover_qubits: int = 0) -> "Prover":
        """From a unitary, checked as such, or from its first 2^n columns alone."""
        if prover_qubits < 0:
            raise ValueError("private register width must be >= 0")
        mat = np.asarray(matrix)
        cols = mat.shape[0] >> prover_qubits
        if cols and mat.shape[0] == mat.shape[1]:
            mat = UnitaryOperator(layout(("cheat", int(round(math.log2(mat.shape[0]))))), mat).matrix[:, :cols]
        elif mat.shape != (cols << prover_qubits, cols) or cols & (cols - 1) or not cols:
            raise LayoutError(f"cheat of shape {mat.shape} is not 2^n columns on {prover_qubits} + n qubits")
        elif not core._orthonormal_columns(mat):
            raise InvariantError("cheat columns are not orthonormal within tolerance")
        return Prover(kind=PROVER_UNITARY, isometry=core._readonly(mat), prover_qubits=prover_qubits)

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


def trap_state(m: int, copies: int = 1, f: Permutation | None = None) -> StateVector:
    """Uniform query superposition mirrored into the copy register, work zero;
    given f, the honest inverse oracle's answers fill the answer registers.

    Equals the generator output with the work buffer forced to zero, which is
    exactly what makes the two branches indistinguishable to the prover.
    """
    if m < 1:
        raise ValueError("query width must be >= 1")
    return support_state(m, _trap_support(m, copies, f))


def _trap_support(m: int, copies: int, f: Permutation | None):
    """The trap response's support: 1/sqrt(2^m) at |q, f^-1(q), 0, q> of each copy."""
    # exactly 1.0 / sqrt(2^m): the honest memo's dense check reads it, and pinned p1 bytes come from that check
    return response_support(m, f, None, [np.full(1 << m, 1.0 / math.sqrt(1 << m))] * copies)


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
    # the Hadamards after the basis chain, as a float scatter of each column's
    # 2^m nonzeros; kept dense because the honest p1 bytes come from this dense contraction
    full = np.zeros((dim, dim))
    keep = rows & ~((size - 1) << m)
    full[keep | (np.arange(size)[:, None] << m), idx] = core.hadamard_power(m)[:, a]
    return UnitaryOperator(layout(("query", m), ("answer", m), ("copy", m)), full)


def trap_answer_state(r: Reduction, f: Permutation) -> StateVector:
    """Trap state after the honest inverse oracle filled the answer registers:
    1/sqrt(2^m) at |q, f^-1(q), 0, q> of each copy, scattered with no kernel,
    bit for bit answer_queries(trap_state(r.m, r.copies), f, r.copies)."""
    return trap_state(r.m, r.copies, f)


# ---------------------------------------------------------------------------
# the verifier normal form, on which every cheat is scored


def _normal_form(r: Reduction, f: Permutation, x: int, accept_output: int):
    """The verifier's side of r's t copies, fixed before the prover moves:
    (a0, bits, block), with a0 (and t) as response_support holds it.

    P0 is held as the decider holds it: bits[i, k] is the t-bit pattern (copy
    0 first) of each copy's language bit of answer ^ work on row i, column
    cols[k], block = R^dag diag(mask) R, R the noise rotation on every out
    and mask the outs whose majority is accept_output, and P0 joins an index
    with outs o to itself with outs o' by block[bits ^ o, bits ^ o'].  The
    copy erasure only permutes (query, copy), which nothing after it reads,
    so it cancels in P0, and every other entry of P0 is zero.  A cheat's
    image of a0 lies on a0's columns with every out = 0, so it meets only
    block[bits, bits], the majority-law weights.
    """
    m, t, low = r.m, r.copies, (1 << r.m) - 1
    a0 = response_support(m, f, x, [table.prep.matrix[:, 0] for table in r.distributions])
    rows, cols, bits = np.arange(1 << (2 * m * t))[:, None], a0[1], 0
    for shift in range(m * (t - 1), -1, -m):  # copy 0 first within each register group
        answer_work = (((rows >> shift) & low) << m) | ((cols >> (m * t + shift)) & low)
        bits = (bits << 1) | (decider_table(m, r.bit)[answer_work << 1] & 1)
    rot = reduce(np.kron, [_rotation(r)] * t)
    mask = ((majority_vote_table(t)[np.arange(1 << t) << 1] & 1) == accept_output).astype(float)
    return a0, bits, rot.conj().T @ (mask[:, None] * rot)


def _vdot(a: np.ndarray, b: np.ndarray) -> complex:
    """np.vdot in chunks of 8192 entries: OpenBLAS threads a longer one, which moves its last bits."""
    a, b = a.ravel(), b.ravel()
    return sum(np.vdot(a[i : i + 8192], b[i : i + 8192]) for i in range(0, a.size, 8192))


def _cheat_p0(v: np.ndarray, a0, weights: np.ndarray) -> tuple[float, np.ndarray]:
    """A cheat v's computation-branch acceptance, sum of w |v a0|^2 with w =
    block[bits, bits].real (see _normal_form), and w o v a0 for the gradient;
    a0 has one entry per column, so v a0 is the column gather v[:, rows] amps."""
    rows, _, amps = a0
    b0 = (v[:, rows] * amps).reshape(-1, *weights.shape)
    wb0 = weights * b0
    return float(_vdot(b0, wb0).real), wb0


def _cheat_overlap(v: np.ndarray, response) -> tuple[float, np.ndarray]:
    """Sum over private values of |<response|v response>|^2, and the overlaps:
    on t = V^dagger|0> the trap branch's acceptance, on a0 its overlap; one
    entry per row and column makes each v's diagonal on rows, weighted |amps|^2."""
    rows, _, amps = response
    amp = v.reshape(-1, v.shape[1], v.shape[1])[:, rows, rows] @ np.abs(amps) ** 2
    return float(_vdot(amp, amp).real), amp


# ---------------------------------------------------------------------------
# the protocol engine


def _rotation(r: Reduction) -> np.ndarray:
    """The decider's noise on out as a 2x2 matrix, the identity when there is none."""
    return np.eye(2) if r.noise is None else r.noise.matrix


def _honest_copy_prob(r: Reduction, f: Permutation, x: int, out: int) -> float:
    """P(out = out) of r's single honest copy, from its 2^m-entry support.

    Once the copy register is erased, query q's amplitude a_q = prep[q, 0]
    sits at |q, f^-1(q), q ^ x, 0>; the decider writes bit_q, the language
    bit of f^-1(q) ^ q ^ x, into out, so out = o has amplitude rot[o, bit_q]
    a_q.  The squares go to their statevector positions in a zero array of
    2^(4m) entries, so np.sum pairs them as measure_probability does on the
    decided honest_answer_state, and the value is the same bit for bit.
    """
    m = r.m
    q = np.arange(1 << m)
    answer_work = (inverse_answers(f) << m) | (q ^ x)
    bits = decider_table(m, r.bit)[answer_work << 1] & 1
    amps = _rotation(r)[out, bits] * r.distributions[0].prep.matrix[:, 0]
    probs = np.zeros(1 << (4 * m))
    probs[((q << (2 * m)) | answer_work) << m] = np.abs(amps) ** 2
    return float(np.sum(probs))


def _trap_branch(state: StateVector, verifier: UnitaryOperator) -> float:
    """The dense trap check of one copy: the verifier, then all registers zero."""
    state = core.apply_on_registers(state, verifier, ["query", "answer", "copy"])
    return core.measure_probability(state, {name: 0 for name in state.layout.names})


def _majority_accept(one_probs, copies: int, accept_output: int) -> float:
    """Exact majority-vote acceptance from independent per-copy P(out=1)."""
    poly = np.array([1.0])
    for e in one_probs:
        poly = np.convolve(poly, [1.0 - e, e])
    p_one = float(poly[copies // 2 + 1 :].sum())
    return p_one if accept_output == 1 else 1.0 - p_one


def _copy_slice(r: Reduction, i: int) -> Reduction:
    """Copy i of r alone: the same instance with one table."""
    return Reduction(r.m, r.base_epsilon, r.s, r.bit, (r.distributions[i],), r.noise)


def _per_distinct_copy(r: Reduction, simulate) -> list:
    """simulate(one-copy slice) once per distinct copy; one result per copy, in copy order.

    A copy is its table, which hashes by identity, so copies sharing a table
    (as amplify's do) share one simulation.
    """
    by_table: dict[DistributionTable, object] = {}
    for i, table in enumerate(r.distributions):
        if table not in by_table:
            by_table[table] = simulate(_copy_slice(r, i))
    return [by_table[table] for table in r.distributions]


@lru_cache(maxsize=64)
def _honest_trap_accept(f: Permutation) -> float:
    """One honest copy's trap acceptance under f: the dense trap check on the
    one-copy honest trap response, computed once per permutation."""
    return _trap_branch(trap_state(f.m, 1, f), trap_verifier(f))


def _trap_accept(r: Reduction, f: Permutation, prover: Prover) -> float:
    """Trap-branch acceptance over all of r's copies, which depends on m, f and the prover
    alone: an honest prover's copies multiply one copy's memo, a cheat's is _cheat_overlap on t."""
    if prover.kind == PROVER_HONEST:
        return math.prod([_honest_trap_accept(f)] * r.copies)
    return _cheat_overlap(prover.isometry, _trap_support(r.m, r.copies, f))[0]


def _header(protocol: str, prover: Prover, m: int, copies: int, accept_output: int, seed: int | None = None) -> dict:
    """The metadata every engine's result starts with; seeded engines add their seed."""
    head = {"protocol": protocol, "prover_kind": prover.kind, "m": m, "copies": copies, "accept_output": accept_output}
    if seed is not None:
        head["seed"] = seed
    return head


def footprint(entry: str, r: Reduction, cheat: int | None = None) -> int:
    """Budget of the widest object an entry point builds, as core.within_cap counts it.

    entry is "trap", "smooth", "classical", "overlap", "ceiling" or "search";
    cheat is the private width of the prover's isometry, None when it has none.
    Smaller objects (preps, flag rotations) are dominated.  Every cheat, the
    smooth engine's too, is scored on the normal form: it counts the isometry
    it is given, 2^(p + 4mk), since its image of a response is a column
    gather on the response's 2^(mk)-entry support, 2^(p + 3mk).
    """
    m, k, p = r.m, r.copies, cheat or 0
    if entry == "classical":
        widths = [3 * m]  # (query, answer, work) before the query is read
    elif entry in ("ceiling", "search"):
        # p + 4m states.  2(4m + 1) counts a dense projector that nothing
        # builds; it keeps the CLI's upper_bound at m <= 2, since the pinned
        # protocol-1 m = 3 records hold no ceiling, until a re-pin of them.
        widths = [2 * (4 * m + 1), p + 4 * m]
    elif cheat is None and entry != "overlap":
        # honest runs go once per distinct copy, with its out (or resampling
        # flag); the honest memo's trap verifier is dense on 3m
        widths = [4 * m + 1, 6 * m]
    else:
        widths = [p + 4 * m * k]  # the normal-form scorer
    return max(widths)


def _check_instance(
    entry: str,
    r: Reduction,
    f: Permutation,
    x: int,
    accept_output: int = 0,
    prover: Prover | None = None,
    cheat: int | None = None,
) -> None:
    """The one argument gate of the six entry points, passed before any state is built.

    It checks the permutation width, x, accept_output, the prover kind and
    answers, the copy count, uniformity (a cheat beats the ceiling without
    it) and smoothness, in that order, then the footprint, then the shape of
    a cheat's isometry against the messages.
    cheat is the private width of the search's isometries, or else of the
    prover's isometry, None when it has none.
    """
    if f.m != r.m:
        raise LayoutError(f"permutation width {f.m} does not match query width {r.m}")
    r.language(x)
    if accept_output not in (0, 1):
        raise ValueError(f"accept_output must be 0 or 1, got {accept_output!r}")
    if prover is not None:
        if prover.kind == PROVER_CLASSICAL and entry != "classical":
            raise ValueError("classical provers answer basis queries; use run_classical_query_protocol")
        if prover.kind == PROVER_UNITARY and entry == "classical":
            raise ValueError("unitary cheats act on quantum messages; use run_protocol")
        if prover.kind == PROVER_CLASSICAL and len(prover.answers) != 1 << r.m:
            raise ValueError(f"answer table has {len(prover.answers)} entries, need {1 << r.m}")
        bad = [a for a in prover.answers or () if not 0 <= a < 1 << r.m]
        if bad:
            raise ValueError(f"answer {bad[0]} does not fit {r.m} bits")
        cheat = prover.prover_qubits if prover.kind == PROVER_UNITARY else None
    if cheat is not None and cheat < 0:
        raise ValueError("private register width must be >= 0")
    if entry in ("ceiling", "search") and r.copies != 1:
        raise ValueError(f"the {entry} is defined per copy; slice the reduction first")
    if entry in ("ceiling", "search") and not r.distributions[0].is_uniform:
        raise ValueError(f"the {entry} needs uniform queries; use the resampled interface")
    if entry == "smooth" and not r.is_smooth:
        raise ValueError("query distribution carries no smoothness certificate")
    core.require_cap(footprint(entry, r, cheat), f"the {entry} run")
    msg = 1 << (2 * r.m * r.copies)
    if prover is not None and prover.kind == PROVER_UNITARY and prover.isometry.shape != (msg << cheat, msg):
        raise LayoutError(f"cheat isometry {prover.isometry.shape}, need {(msg << cheat, msg)} for {r.copies} copies")


def run_protocol(r: Reduction, f: Permutation, x: int, prover: Prover, accept_output: int = 0) -> ProtocolResult:
    """Trap protocol for any odd copy count; exact p0, p1.

    Several copies run over grouped per-copy registers with a majority
    decider.  An honest prover builds no state: each distinct copy (one per
    distinct table) is evaluated on its 2^m-entry support, the copies
    combine by the exact majority law, and the trap branch is the memoised
    honest value.  A cheat acts on all copies' messages at once and is
    scored on their normal form, p0 by _cheat_p0 and p1 by _trap_accept.
    """
    _check_instance("trap", r, f, x, accept_output, prover)
    metadata = _header("trap", prover, r.m, r.copies, accept_output)
    if prover.kind == PROVER_HONEST and r.copies > 1:
        # Honest runs stay in product form across copies, so per-copy exact
        # values plus the majority law avoid the full-width state.
        ones = _per_distinct_copy(r, lambda single: _honest_copy_prob(single, f, x, 1))
        p0 = _majority_accept(ones, r.copies, accept_output)
        metadata["per_copy_one_probs"] = ones
    elif prover.kind == PROVER_HONEST:
        p0 = _honest_copy_prob(r, f, x, accept_output)
    else:
        a0, bits, block = _normal_form(r, f, x, accept_output)
        p0 = _cheat_p0(prover.isometry, a0, block[bits, bits].real)[0]
    return ProtocolResult(p0=float(p0), p1=float(_trap_accept(r, f, prover)), metadata=metadata)


# the same engine under the name multi-copy callers import
run_multiquery_protocol = run_protocol


# ---------------------------------------------------------------------------
# smooth-distribution protocol


def _pre_copy_state(r: Reduction, x: int, i: int) -> StateVector:
    lay = layout(("query", r.m), ("answer", r.m), ("work", r.m))
    return apply_generator(basis_state(lay, {"work": x}), r, i)


@dataclass(frozen=True, eq=False)
class _SmoothBranch:
    """The smooth protocol's computation branch, exact and free of draws."""

    p0: float
    up_probs: tuple[float, ...]
    up_budgets: tuple[int, ...]
    down_probs: tuple[float, ...]
    down_budgets: tuple[int, ...]
    down_impossible: bool


def _cheat_resampled(r: Reduction, f: Permutation, x: int, v: np.ndarray, accept_output: int):
    """A cheat v's down steps and p0 on the normal form of the uniform
    reduction it is sent, as ([down successes], p0 or None).

    The mass |v a0|^2 (see _cheat_p0) sits on (private, query_0 .. query_{t-1}, the rest).
    Copy i's down step keeps flag_prob of its plan on query_i, and nothing
    else reads the queries, so its success is the ratio of the mass after
    and before it; the copy erasure only permutes (query, copy).  A step at
    or below ATOL^2 is impossible and ends the steps.  p0 is then the
    decider's weight (see _normal_form) over the mass that passed every flag.
    """
    m, t = r.m, r.copies
    uniform = DistributionTable.uniform(m)
    (rows, _, amps), bits, block = _normal_form(replace(r, distributions=(uniform,) * t), f, x, accept_output)
    mass = (np.abs(v[:, rows] * amps) ** 2).reshape(-1, *(1 << m,) * t, bits.size >> (m * t))
    probs = []
    for i, table in enumerate(r.distributions):
        kept = mass * rejection.make_plan(uniform, table).flag_prob.reshape(-1, *(1,) * (t - i))
        success = float(kept.sum() / mass.sum())
        if success <= core.ATOL**2:
            return [*probs, 0.0], None
        probs.append(success)
        mass = kept
    return probs, float(np.sum(block[bits, bits].real * mass.reshape(-1, *bits.shape)) / mass.sum())


def _smooth_branch(r: Reduction, f: Permutation, x: int, prover: Prover, accept_output: int) -> _SmoothBranch:
    """Resample every query up to uniform, run the prover, resample back down, decide.

    The up steps run on the statevector kernels, and so does an honest
    prover's copy (run_smooth_protocol slices honest runs into single
    copies); a cheat is scored on the uniform normal form (_cheat_resampled).
    """
    uniform = DistributionTable.uniform(r.m)
    ups = []
    for i, table in enumerate(r.distributions):
        plan = rejection.make_plan(table, uniform)
        ups.append(rejection.qrs_round(_pre_copy_state(r, x, i), plan, "query"))
        if ups[-1].accepted is None or abs(ups[-1].success_prob - plan.success_probability) > 1e-9:
            raise InvariantError("pre-send resampling success deviates from 1/beta")
    if prover.kind == PROVER_HONEST:
        xor = register_xor_table(r.m)
        state = core.apply_basis_permutation(core.adjoin_register(ups[0].accepted, "copy", r.m), xor, ["query", "copy"])
        state = core.apply_basis_permutation(answer_queries(state, f, 1), xor, ["query", "copy"])
        step = rejection.qrs_round(state, rejection.make_plan(uniform, r.distributions[0]), "query")
        down_probs, p0 = [step.success_prob], None
        if step.accepted is not None:
            state = apply_decider(core.adjoin_register(step.accepted, "out", 1), r, "answer", "work", "out")
            p0 = core.measure_probability(state, {"out": accept_output})
    else:
        down_probs, p0 = _cheat_resampled(r, f, x, prover.isometry, accept_output)
    return _SmoothBranch(
        0.0 if p0 is None else p0,
        tuple(step.success_prob for step in ups),
        tuple(rejection.copies_budget_to_uniform(table) for table in r.distributions),
        tuple(down_probs),
        tuple(rejection.copies_budget_from_uniform(table) for table in r.distributions[: len(down_probs)]),
        p0 is None,
    )


def _smooth_rounds(rng, branch: _SmoothBranch) -> dict:
    """Seeded round counts against the branch's budgets, as fresh metadata lists.

    One draw per up step, then one per down step that can succeed; an
    impossible down step charges its whole budget without a draw.
    """
    def rounds(probs):
        return [1 if p >= 1.0 else int(rng.geometric(p)) for p in probs]

    up_rounds = rounds(branch.up_probs)
    down_rounds = rounds(branch.down_probs[: len(branch.down_probs) - branch.down_impossible])
    if branch.down_impossible:
        down_rounds.append(branch.down_budgets[-1])
    return dict(
        up_rounds=up_rounds,
        up_success_probs=list(branch.up_probs),
        up_budgets=list(branch.up_budgets),
        down_rounds=down_rounds,
        down_success_probs=list(branch.down_probs),
        down_budgets=list(branch.down_budgets),
        down_impossible=branch.down_impossible,
        budget_exceeded=any(u > b for u, b in zip(up_rounds, branch.up_budgets))
        or any(d > b for d, b in zip(down_rounds, branch.down_budgets)),
    )


def run_smooth_protocol(
    r: Reduction,
    f: Permutation,
    x: int,
    prover: Prover,
    accept_output: int = 0,
    seed: int = 0,
) -> ProtocolResult:
    """Trap protocol for a smooth non-uniform query distribution.

    The verifier resamples each query register up to uniform before sending
    and back down to the target distribution before deciding, so the prover
    only ever sees uniform queries.  Reported probabilities condition on all
    rejection-sampling flags succeeding; the seeded round counts drawn against
    each copy's budgets (rejection.copies_budget_to_uniform and
    copies_budget_from_uniform of its table) land in metadata, including any
    budget overrun.  Honest provers are simulated once per distinct copy (one
    per distinct table), with each copy's rounds drawn from its own seed, and
    combined by the exact majority law.  A cheat acts on all copies' messages
    at once, and its down steps and vote weigh its image of the uniform
    normal form (_cheat_resampled).
    """
    _check_instance("smooth", r, f, x, accept_output, prover)
    rng = np.random.default_rng(seed)
    metadata = _header("smooth", prover, r.m, r.copies, accept_output, seed)
    if prover.kind == PROVER_HONEST and r.copies > 1:
        # Every copy draws its own child seed, in copy order, and its rounds
        # from that seed; simulation draws nothing, so the seeds come first.
        seeds = [int(rng.integers(2**62)) for _ in r.distributions]
        branches = _per_distinct_copy(r, lambda single: _smooth_branch(single, f, x, prover, accept_output))
        ones = [b.p0 if accept_output == 1 else 1.0 - b.p0 for b in branches]
        parts = [
            {**_header("smooth", prover, r.m, 1, accept_output, c), **_smooth_rounds(np.random.default_rng(c), b)}
            for c, b in zip(seeds, branches)
        ]
        p0 = _majority_accept(ones, r.copies, accept_output)
        metadata["per_copy"] = parts
        metadata["budget_exceeded"] = any(p["budget_exceeded"] for p in parts)
    else:
        branch = _smooth_branch(r, f, x, prover, accept_output)
        p0 = branch.p0
        metadata.update(_smooth_rounds(rng, branch))
    return ProtocolResult(p0=float(p0), p1=float(_trap_accept(r, f, prover)), metadata=metadata)


# ---------------------------------------------------------------------------
# classical-query protocol


def _classical_copy_prob(r: Reduction, table: DistributionTable, x: int, q: int, answer: int) -> float:
    """P(out = 1) of one copy whose query read q and was answered with answer.

    Conditioning the copy's pre-query state on q leaves prep[q, 0] alone on
    |answer, q ^ x> of (answer, work), renormalised as core.condition_on
    does, and the decider's bit there is a decider_table lookup.  Each float
    operation is the one the statevector path runs on that entry, so the
    value is the same bit for bit.
    """
    amp = table.prep.matrix[q : q + 1, 0]
    prob = float(np.sum(np.abs(amp) ** 2))
    if prob <= core.ATOL**2:
        raise InvariantError("conditioning on a supported query failed")
    bit = decider_table(r.m, r.bit)[((answer << r.m) | (q ^ x)) << 1] & 1
    return float(np.sum(np.abs(_rotation(r)[1, bit] * (amp / np.sqrt(prob))) ** 2))


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

    Unless queries forces them, copy i's query is drawn from its table by
    bisecting table.cdf at one rng.random() of the seeded generator, in copy
    order: numpy's own arithmetic in rng.choice(2^m, p=table.probs), so the
    draws are choice's, without re-checking p and summing it per copy.  Any
    answer a with f(a) != q rejects with certainty; otherwise the
    reduction decides.  No state is built: a copy conditioned on its drawn
    query q holds the single amplitude prep[q, 0], renormalised, so each
    copy's decision is read from that entry and a decider_table lookup (see
    _classical_copy_prob), for honest and classical provers alike.  The
    copies combine by the exact majority law.  The single-phase acceptance
    is reported as both p0 and p1, so accept_prob equals it.
    """
    _check_instance("classical", r, f, x, accept_output, prover)
    if queries is not None and len(queries) != r.copies:
        raise ValueError(f"need one forced query per copy, got {len(queries)}")
    rng = np.random.default_rng(seed)
    size = 1 << r.m
    drawn, replies, checks, ones = [], [], [], []
    for i, table in enumerate(r.distributions):
        probs = table.probs
        if queries is None:
            q = int(table.cdf.searchsorted(rng.random(), side="right"))
        else:
            q = int(queries[i])
        if not 0 <= q < size:
            raise ValueError(f"query {q} does not fit {r.m} bits")
        if probs[q] <= 0:
            raise ValueError(f"query {q} is outside the distribution's support")
        a = f.inverse_of(q) if prover.kind == PROVER_HONEST else prover.answers[q]
        drawn.append(q)
        replies.append(a)
        checks.append(f(a) == q)
        ones.append(_classical_copy_prob(r, table, x, q, a))

    accept = _majority_accept(ones, r.copies, accept_output) if all(checks) else 0.0
    metadata = {
        **_header("classical", prover, r.m, r.copies, accept_output, seed),
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
    sin_sq: float


def _ceiling(a0, bits: np.ndarray, block: np.ndarray) -> CheatBound:
    """(1 + sin theta)/2 from the normal form, with its eigen-oracle cross-check.

    sin^2 theta = <a0|P0|a0>; a0 has out = 0, so it meets only the weights
    block[bits, bits].  The oracle value is half the top eigenvalue of P0 +
    |a0><a0| on the span of both out values of each index in a0's support:
    that span holds a0 and is invariant under P0, so its top eigenvalue is at
    least 1, while P0 has none above 1 elsewhere.  It is at most
    2^(m+1)-dimensional.  Both values must agree within 1e-9.
    """
    rows, _, amps = a0
    own = bits[rows, np.arange(rows.size)]  # the pattern of each support entry
    sin_sq = float(np.sum(block[own, own].real * np.abs(amps) ** 2))
    sin_sq = min(max(sin_sq, 0.0), 1.0)
    bound = (1.0 + math.sqrt(sin_sq)) / 2.0
    # each support entry, then its out = 1 partner, so the partner of position k is k ^ 1
    phi = (amps[:, None] * np.array([1.0, 0.0])).ravel()
    out = (own[:, None] ^ np.array([0, 1])).ravel()
    k = np.arange(phi.size)
    restricted = np.outer(phi, phi.conj())
    restricted[k, k] += block[out, out]
    restricted[k, k ^ 1] += block[out, out ^ 1]
    eigen_bound = float(np.linalg.eigvalsh(restricted)[-1]) / 2.0
    if abs(bound - eigen_bound) > 1e-9:
        raise InvariantError(
            f"closed-form ceiling {bound} and eigenvalue oracle {eigen_bound} disagree"
        )
    return CheatBound(bound=bound, eigen_bound=eigen_bound, sin_sq=sin_sq)


def cheat_upper_bound(r: Reduction, f: Permutation, x: int, accept_output: int = 0) -> CheatBound:
    """Cheating ceiling (1 + sin theta)/2 of the normal form with its eigen-oracle
    cross-check (see _ceiling); a soundness ceiling on inputs the verifier
    should reject, for uniform queries."""
    _check_instance("ceiling", r, f, x, accept_output)
    return _ceiling(*_normal_form(r, f, x, accept_output))


def branch_overlap_pair(r: Reduction, f: Permutation, x: int, prover: Prover) -> tuple[float, float]:
    """Overlap of each branch's honest response (a0 or t, each built once)
    with the prover's image of it (see _cheat_overlap), the identity's if honest.

    The two values agree for uniform-query reductions whatever the cheat does;
    their common deficit is what the trap branch charges the prover.
    """
    _check_instance("overlap", r, f, x, prover=prover)
    a0 = response_support(r.m, f, x, [table.prep.matrix[:, 0] for table in r.distributions])
    t = _trap_support(r.m, r.copies, f)
    v = np.eye(1 << (2 * r.m * r.copies)) if prover.kind == PROVER_HONEST else prover.isometry
    return _cheat_overlap(v, a0)[0], _cheat_overlap(v, t)[0]


# ---------------------------------------------------------------------------
# numerical prover search

# prover_search starts a climb from a fresh Haar isometry every this many iterations
RESTART_EVERY = 250
# a climb stops once max|z|, its step size or its last gain falls to this
CLIMB_TOL = 1e-12


def _search_context(a0, t, bits: np.ndarray, block: np.ndarray):
    """The search objective on v = u[:, :2^(2m)], the columns of a cheat u that
    a zero private register reaches: v -> (score, G), the engine's (p0 + p1)/2
    (_cheat_p0, _cheat_overlap on t) and its gradient in conj(v),
    G = [(w o v a0) a0^dagger + (amp o t) t^dagger]/2, amp the overlaps with t.
    A response has one entry per row and column, so both terms are scatters
    into its rows: t t^dagger is diagonal, |t amps|^2 on t's rows.
    """
    (rows, _, amps), (t_rows, _, t_amps) = a0, t
    weights, t_weights = block[bits, bits].real, np.abs(t_amps) ** 2

    def objective(v: np.ndarray) -> tuple[float, np.ndarray]:
        p0, wb0 = _cheat_p0(v, a0, weights)
        p1, amp = _cheat_overlap(v, t)
        grad = np.zeros_like(v)
        grad[:, rows] = wb0.reshape(len(v), -1) * amps.conj()
        grad.reshape(-1, v.shape[1], v.shape[1])[:, t_rows, t_rows] += amp[:, None] * t_weights
        grad /= 2.0
        return (p0 + p1) / 2.0, grad

    return objective


def _climb(objective, v: np.ndarray, steps: int) -> tuple[np.ndarray, float]:
    """Riemannian gradient ascent over isometries from v, for at most steps steps.

    A step moves along z = G - v(v^dagger G + G^dagger v)/2, G projected on
    the tangent space, and retracts by QR with R's diagonal made positive
    (Edelman, Arias and Smith, SIAM J. Matrix Anal. Appl. 20(2), 1998).  A
    step that does not lower the score is taken and grows the step size by
    1.2; any other halves it and is retried, so the score never decreases.
    The climb stops once max|z|, the step size or the last gain falls to
    CLIMB_TOL.  Returns the last isometry and its score.
    """
    score, grad = objective(v)
    eta, gain = 1.0, math.inf
    for _ in range(steps):
        z = grad - v @ (v.conj().T @ grad + grad.conj().T @ v) / 2.0
        if min(np.abs(z).max(), eta, gain) <= CLIMB_TOL:
            break
        q, rr = np.linalg.qr(v + eta * z)
        d = np.diagonal(rr)
        q = q * (d / np.abs(d))
        new_score, new_grad = objective(q)
        if new_score >= score:
            gain = new_score - score
            v, score, grad = q, new_score, new_grad
            eta *= 1.2
        else:
            eta /= 2.0
    return v, score


def prover_search(
    r: Reduction,
    f: Permutation,
    x: int,
    p_qubits: int,
    iters: int,
    seed: int,
    accept_output: int = 0,
) -> tuple[Prover, float]:
    """Gradient ascent over cheat isometries; returns the best prover and its value.

    iters counts steps of climbs on v = u[:, :2^(2m)] (see _climb).  The
    first climb starts from the identity's columns, so zero iterations give
    the honest value; every RESTART_EVERY-th iteration starts a climb from a
    seeded Haar isometry.  The best changes only for a strictly greater
    score, so for a fixed seed it is non-decreasing in iters.  It is checked
    against the ceiling of the normal form it climbed on, built once, and
    returned as the prover's isometry.
    """
    if iters < 0:
        raise ValueError(f"iters = {iters} must be >= 0")
    _check_instance("search", r, f, x, accept_output, cheat=p_qubits)
    a0, bits, block = _normal_form(r, f, x, accept_output)
    dim, msg = 1 << (p_qubits + 2 * r.m), len(bits)
    objective = _search_context(a0, _trap_support(r.m, 1, f), bits, block)
    rng = np.random.default_rng(seed)
    best, best_score = _climb(objective, np.eye(dim, msg, dtype=np.complex128), min(iters, RESTART_EVERY - 1))
    for start in range(RESTART_EVERY, iters + 1, RESTART_EVERY):
        v, score = _climb(objective, haar_isometry(dim, msg, rng), min(iters - start, RESTART_EVERY - 1))
        if score > best_score:
            best, best_score = v, score

    ceiling = _ceiling(a0, bits, block)
    if best_score > ceiling.bound + 1e-9:
        raise InvariantError(
            f"search value {best_score} exceeds the cheating ceiling {ceiling.bound}"
        )
    return Prover.unitary_cheat(best, p_qubits), best_score
