"""Quantum rejection sampling between query distributions.

Turns sum_q sqrt(d_q) |xi_q>|q> into sum_q sqrt(d'_q) |xi_q>|q> by rotating a
flag qubit conditioned on the index register and post-selecting the flag.  The
per-round success probability is 1/beta with 1/beta = min_q d_q/d'_q, and a
budget of ceil(4 beta^2) rounds keeps the overall failure probability
(1 - 1/beta)^budget negligible at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .core import StateVector, UnitaryOperator, layout
from .reductions import DistributionTable

BUDGET_CONSTANT = 4


@dataclass(frozen=True, eq=False)
class QrsPlan:
    """Rotation amplitudes for resampling source -> target.

    alpha_q = target_q / beta is the amplitude mass the flag rotation carves
    out of each source amplitude; alpha_q <= source_q always holds.
    """

    source: DistributionTable
    target: DistributionTable
    beta: float
    alpha: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(np.asarray(self.alpha, dtype=float), copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "alpha", arr)
        inv_beta = 1.0 / self.beta
        if not 0.0 < inv_beta <= 1.0 + 1e-12:
            raise ValueError(f"per-round success 1/beta = {inv_beta} outside (0, 1]")
        if np.any(arr > self.source.probs + 1e-12):
            raise ValueError("alpha exceeds the source mass somewhere; plan is invalid")

    @property
    def m(self) -> int:
        return self.source.m

    @property
    def success_probability(self) -> float:
        return 1.0 / self.beta

    @property
    def round_budget(self) -> int:
        return math.ceil(BUDGET_CONSTANT * self.beta**2)


def make_plan(source: DistributionTable, target: DistributionTable) -> QrsPlan:
    if source.m != target.m:
        raise ValueError("source and target have different widths")
    src = source.probs
    tgt = target.probs
    live = tgt > 0
    if np.any(live & (src <= 0)):
        raise ValueError("target puts mass where the source has none; no finite beta")
    ratios = src[live] / tgt[live]
    inv_beta = float(ratios.min()) if ratios.size else 1.0
    beta = 1.0 / inv_beta
    return QrsPlan(source=source, target=target, beta=beta, alpha=tgt / beta)


def copies_budget_to_uniform(table: DistributionTable) -> int:
    """Copy budget for resampling the table up to uniform."""
    return math.ceil(1.0 / ((1 << table.m) * table.d_min)) ** 2


def copies_budget_from_uniform(table: DistributionTable) -> int:
    """Copy budget for resampling uniform down to the table."""
    return math.ceil((1 << table.m) * table.d_max) ** 2


def qrs_rotation(plan: QrsPlan) -> UnitaryOperator:
    """Flag rotation controlled on the index register.

    Per index q the flag rotates |0> -> (sqrt(d_q - alpha_q)|0> +
    sqrt(alpha_q)|1>) / sqrt(d_q); indices with no source mass keep an identity
    block (they never occur in a valid input).
    """
    m = plan.m
    size = 1 << m
    dim = 2 * size
    mat = np.zeros((dim, dim))
    src = plan.source.probs
    for q in range(size):
        if src[q] <= 0:
            cos_part, sin_part = 1.0, 0.0
        else:
            frac = min(plan.alpha[q] / src[q], 1.0)
            sin_part = math.sqrt(frac)
            cos_part = math.sqrt(max(1.0 - frac, 0.0))
        # flag is the most significant factor: index = flag * size + q
        mat[q, q] = cos_part
        mat[size + q, q] = sin_part
        mat[q, size + q] = -sin_part
        mat[size + q, size + q] = cos_part
    return UnitaryOperator(layout(("flag", 1), ("index", m)), mat)


@dataclass(frozen=True, eq=False)
class QrsRound:
    """One flag measurement: its success probability and the post-selected state."""

    success_prob: float
    accepted: StateVector | None


def qrs_round(state: StateVector, plan: QrsPlan, index_register: str) -> QrsRound:
    """Adjoin a flag, rotate, and measure it; flag=1 is success."""
    if state.layout.width(index_register) != plan.m:
        raise ValueError(f"register {index_register!r} does not match the plan width")
    if "flag" in state.layout.names:
        raise ValueError("state already carries a register named 'flag'")
    work = core.adjoin_register(state, "flag", 1)
    work = core.apply_on_registers(work, qrs_rotation(plan), ["flag", index_register])
    p_succ, accepted = core.condition_on(work, {"flag": 1})
    return QrsRound(success_prob=p_succ, accepted=accepted)


@dataclass(frozen=True, eq=False)
class QrsRunResult:
    """Outcome of repeated rounds on fresh copies; never a silent wrong state."""

    succeeded: bool
    state: StateVector | None
    rounds_used: int
    success_prob: float


def qrs_run(prepare, plan: QrsPlan, index_register: str, max_rounds: int | None = None, seed: int = 0) -> QrsRunResult:
    """Repeat prepare, rotate, measure until the flag succeeds or budget runs out.

    prepare is either a fixed StateVector or a zero-argument factory producing
    a fresh copy per round; the seed drives the simulated flag outcomes.
    Budget exhaustion returns an explicit failure with state=None.
    """
    budget = plan.round_budget if max_rounds is None else int(max_rounds)
    if budget < 1:
        raise ValueError("round budget must be >= 1")
    make = prepare if callable(prepare) else (lambda: prepare)
    rng = np.random.default_rng(seed)
    step = None
    for used in range(1, budget + 1):
        step = qrs_round(make(), plan, index_register)
        if rng.random() < step.success_prob:
            return QrsRunResult(True, step.accepted, used, step.success_prob)
    return QrsRunResult(False, None, budget, step.success_prob)
