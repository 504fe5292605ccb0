"""Quantum rejection sampling between query distributions.

Turns sum_q sqrt(d_q) |xi_q>|q> into sum_q sqrt(d'_q) |xi_q>|q> by rotating a
flag qubit conditioned on the index register and post-selecting the flag.  The
rotation is a 2x2 block per index, so on flag = 1 a round is the elementwise
scale of the amplitudes by sqrt(alpha_q / d_q) over the index register: the
flag is never built, and the dense `qrs_rotation` is kept only as the
reference the tests check rounds against (Ozols, Roetteler and Roland,
*Quantum rejection sampling*, ITCS 2012).  The per-round success probability
is 1/beta with 1/beta = min_q d_q/d'_q, and a budget of ceil(4 beta^2) rounds
keeps the overall failure probability (1 - 1/beta)^budget negligible at desk
scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import core
from .core import StateVector, UnitaryOperator, layout
from .reductions import DistributionTable

BUDGET_CONSTANT = 4


@dataclass(frozen=True, eq=False)
class QrsPlan:
    """Rotation amplitudes for resampling source -> target, derived from the two tables.

    1/beta = min_q source_q / target_q over the target's support, and
    alpha_q = target_q / beta is the amplitude mass the flag rotation carves
    out of each source amplitude, so alpha_q <= source_q.  flag_prob[q] =
    min(alpha_q / d_q, 1) is the chance the flag reads 1 at index q, and
    flag_amplitude = sqrt(flag_prob); both are 0 where d_q = 0.  All four are
    read-only.
    """

    source: DistributionTable
    target: DistributionTable
    beta: float = field(init=False)
    alpha: np.ndarray = field(init=False, repr=False)
    flag_prob: np.ndarray = field(init=False, repr=False)
    flag_amplitude: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.source.m != self.target.m:
            raise ValueError("source and target have different widths")
        src = self.source.probs
        tgt = self.target.probs
        live = tgt > 0
        if np.any(live & (src <= 0)):
            raise ValueError("target puts mass where the source has none; no finite beta")
        # a table sums to 1, so the target's support is never empty
        beta = 1.0 / float(np.min(src[live] / tgt[live]))
        alpha = tgt / beta
        live = src > 0
        prob = np.zeros(src.shape)
        prob[live] = np.minimum(alpha[live] / src[live], 1.0)
        amp = np.sqrt(prob)
        object.__setattr__(self, "beta", beta)
        for name, arr in (("alpha", alpha), ("flag_prob", prob), ("flag_amplitude", amp)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def m(self) -> int:
        return self.source.m

    @property
    def success_probability(self) -> float:
        return 1.0 / self.beta

    @property
    def round_budget(self) -> int:
        return math.ceil(BUDGET_CONSTANT * self.beta**2)


# the same plan under the name resampling callers import: make_plan(source, target)
make_plan = QrsPlan


def copies_budget_to_uniform(table: DistributionTable) -> int:
    """Copy budget for resampling the table up to uniform."""
    return math.ceil(1.0 / ((1 << table.m) * table.d_min)) ** 2


def copies_budget_from_uniform(table: DistributionTable) -> int:
    """Copy budget for resampling uniform down to the table."""
    return math.ceil((1 << table.m) * table.d_max) ** 2


def qrs_rotation(plan: QrsPlan) -> UnitaryOperator:
    """Dense flag rotation controlled on the index register: the reference.

    Per index q the flag rotates |0> -> (sqrt(d_q - alpha_q)|0> +
    sqrt(alpha_q)|1>) / sqrt(d_q); indices with no source mass keep an identity
    block (they never occur in a valid input).  The flag is the most
    significant factor.  `qrs_round` never builds it.
    """
    sin = np.diag(np.sqrt(plan.flag_prob))
    cos = np.diag(np.sqrt(np.maximum(1.0 - plan.flag_prob, 0.0)))
    mat = np.block([[cos, -sin], [sin, cos]])
    return UnitaryOperator(layout(("flag", 1), ("index", plan.m)), mat)


@dataclass(frozen=True, eq=False)
class QrsRound:
    """One flag measurement: its success probability and the post-selected state."""

    success_prob: float
    accepted: StateVector | None


def qrs_round(state: StateVector, plan: QrsPlan, index_register: str) -> QrsRound:
    """Rotate a flag by the index register and measure it; flag=1 is success.

    The flag is never built: its flag=1 branch is the state scaled by
    plan.flag_amplitude over the index register, the same products the dense
    `qrs_rotation` path gives, renormalised as `core.condition_on` does.
    """
    lay = state.layout
    if lay.width(index_register) != plan.m:
        raise ValueError(f"register {index_register!r} does not match the plan width")
    if "flag" in lay.names:
        raise ValueError("state already carries a register named 'flag'")
    off = lay.offset(index_register)
    rest = lay.total_qubits - off - plan.m
    psi = state.amplitudes.reshape(1 << off, 1 << plan.m, 1 << rest)
    scaled = psi * plan.flag_amplitude[:, None]
    p_succ = float(np.sum(np.abs(scaled) ** 2))
    if p_succ <= core.ATOL**2:
        return QrsRound(success_prob=0.0, accepted=None)
    # + 0.0 turns the -0.0 of a zero scale into the +0.0 the dense contraction sums to
    return QrsRound(success_prob=p_succ, accepted=StateVector(lay, scaled / np.sqrt(p_succ) + 0.0))


@dataclass(frozen=True, eq=False)
class QrsRunResult:
    """Outcome of repeated rounds on fresh copies; never a silent wrong state."""

    succeeded: bool
    state: StateVector | None
    rounds_used: int
    success_prob: float


def qrs_run(
    state: StateVector, plan: QrsPlan, index_register: str, max_rounds: int | None = None, seed: int = 0
) -> QrsRunResult:
    """Repeat prepare, rotate, measure until the flag succeeds or budget runs out.

    Every round starts from the same state, so its round is computed once; the
    seed drives the simulated flag outcomes, one draw per round.  Budget
    exhaustion returns an explicit failure with state=None.
    """
    budget = plan.round_budget if max_rounds is None else int(max_rounds)
    if budget < 1:
        raise ValueError("round budget must be >= 1")
    step = qrs_round(state, plan, index_register)
    rng = np.random.default_rng(seed)
    for used in range(1, budget + 1):
        if rng.random() < step.success_prob:
            return QrsRunResult(True, step.accepted, used, step.success_prob)
    return QrsRunResult(False, None, budget, step.success_prob)
