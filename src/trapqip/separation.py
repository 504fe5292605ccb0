"""Hidden-shift oracle family where quantum and classical query costs split.

Each oracle instance is a random 2-to-1 function whose collisions encode a
nonzero XOR secret.  A quantum solver recovers the secret in O(n) rounds of
the standard interference pattern; classically a birthday search over distinct
inputs is the sensible strategy and its query count grows like 2^(n/2).  The
demo reduction consumes recovered secrets to answer random-self-reduced
membership queries for a linear toy language.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import CapacityError, hadamard_power

MAX_WIDTH = 8
MAX_INSTANCES = 64
ROUND_BUDGET_PER_BIT = 20


def _parity(v: int) -> int:
    return v.bit_count() & 1


@dataclass(frozen=True, eq=False)
class GeneralizedSimonOracle:
    """Instance family f_i with f_i(x) = f_i(x') iff x' in {x, x XOR s_i}.

    Query counters are per-instance run state, split by caller class; reset
    them between experiments that share an oracle.
    """

    n: int
    secrets: tuple[int, ...]
    tables: tuple[tuple[int, ...], ...]
    quantum_counts: np.ndarray = field(default=None)
    classical_counts: np.ndarray = field(default=None)

    def __post_init__(self) -> None:
        size = 1 << self.n
        if len(self.secrets) != len(self.tables):
            raise ValueError("need one table per secret")
        for s, table in zip(self.secrets, self.tables):
            if not 0 < s < size:
                raise ValueError(f"secret {s} must be a nonzero {self.n}-bit value")
            if len(table) != size:
                raise ValueError("table width does not match n")
            for x in range(size):
                if table[x] != table[x ^ s]:
                    raise ValueError("table does not collide along its secret")
            if len(set(table)) != size // 2:
                raise ValueError("table is not 2-to-1")
        count = len(self.secrets)
        object.__setattr__(self, "quantum_counts", np.zeros(count, dtype=np.int64))
        object.__setattr__(self, "classical_counts", np.zeros(count, dtype=np.int64))

    @property
    def instance_count(self) -> int:
        return len(self.secrets)

    def classical_query(self, i: int, x: int) -> int:
        self.classical_counts[i] += 1
        return self.tables[i][x]

    def count_quantum_query(self, i: int) -> None:
        self.quantum_counts[i] += 1

    def reset_counters(self) -> None:
        self.quantum_counts[:] = 0
        self.classical_counts[:] = 0


def build_simon_oracle(n: int, instance_count: int, seed: int) -> GeneralizedSimonOracle:
    """Random nonzero secrets and 2-to-1 tables, deterministic in the seed."""
    if not 1 <= n <= MAX_WIDTH:
        raise CapacityError(f"width {n} outside 1..{MAX_WIDTH}")
    if not 1 <= instance_count <= MAX_INSTANCES:
        raise CapacityError(f"instance count {instance_count} outside 1..{MAX_INSTANCES}")
    rng = np.random.default_rng(seed)
    size = 1 << n
    secrets = []
    tables = []
    for _ in range(instance_count):
        s = int(rng.integers(1, size))
        labels = rng.permutation(size // 2)
        table = [0] * size
        rank: dict[int, int] = {}
        for x in range(size):
            rep = min(x, x ^ s)
            if rep not in rank:
                rank[rep] = len(rank)
            table[x] = int(labels[rank[rep]])
        secrets.append(s)
        tables.append(tuple(table))
    return GeneralizedSimonOracle(n=n, secrets=tuple(secrets), tables=tuple(tables))


# ---------------------------------------------------------------------------
# GF(2) linear algebra on bitmask rows


def gf2_reduce(rows) -> dict[int, int]:
    """Row-reduce bitmask vectors; returns pivot-bit -> reduced row."""
    basis: dict[int, int] = {}
    for row in rows:
        row = int(row)
        for pivot in sorted(basis, reverse=True):
            if row >> pivot & 1:
                row ^= basis[pivot]
        if row:
            basis[row.bit_length() - 1] = row
    return basis


def gf2_rank(rows) -> int:
    return len(gf2_reduce(rows))


def gf2_null_vector(rows, n: int) -> int | None:
    """The unique nonzero vector orthogonal to all rows, if the rank is n-1."""
    basis = list(gf2_reduce(rows).values())
    candidates = [v for v in range(1, 1 << n) if all(_parity(row & v) == 0 for row in basis)]
    if len(candidates) != 1:
        return None
    return candidates[0]


# ---------------------------------------------------------------------------
# quantum solver


@dataclass(frozen=True)
class SimonResult:
    """Recovered secret plus the query ledger; iterates as (secret, queries)."""

    secret: int
    queries: int
    measurements: tuple[int, ...]

    def __iter__(self):
        yield self.secret
        yield self.queries


def simon_solve(oracle: GeneralizedSimonOracle, i: int, seed: int) -> SimonResult:
    """Interference rounds until the orthogonal complement pins the secret.

    Each round prepares a uniform superposition, queries the oracle once, and
    measures after a second Hadamard layer; the outcome is always orthogonal
    to the secret over GF(2).  Rounds stop once the collected rows reach rank
    n-1 (at least one round always runs); the budget of 20n rounds failing is
    astronomically unlikely and raises rather than returning a wrong secret.
    """
    n = oracle.n
    size = 1 << n
    table = np.array(oracle.tables[i])
    had = hadamard_power(n)
    rng = np.random.default_rng(seed)
    rows: list[int] = []
    measurements: list[int] = []
    budget = ROUND_BUDGET_PER_BIT * n
    for _ in range(budget):
        # |0,0> -> H on x -> y ^= f(x) -> H on x, as a (x, y) matrix of amps
        state = np.zeros((size, size), dtype=np.complex128)
        state[:, 0] = 1.0 / math.sqrt(size)
        shuffled = np.empty_like(state)
        cols = np.arange(size)
        for x in range(size):
            shuffled[x, cols ^ table[x]] = state[x, cols]
        oracle.count_quantum_query(i)
        final = had @ shuffled.reshape(size, size)
        probs = np.abs(final) ** 2
        marginal = probs.sum(axis=1)
        w = int(rng.choice(size, p=marginal / marginal.sum()))
        measurements.append(w)
        rows.append(w)
        if gf2_rank(rows) >= n - 1:
            secret = gf2_null_vector(rows, n)
            if secret is None:
                continue
            return SimonResult(secret=secret, queries=len(measurements), measurements=tuple(measurements))
    raise RuntimeError(f"round budget {budget} exhausted without pinning the secret")


def classical_collision_count(
    oracle: GeneralizedSimonOracle, i: int, strategy: str = "exhaustive-pair", seed: int = 0
) -> tuple[int, int]:
    """Birthday search over distinct inputs; returns (secret, queries used)."""
    if strategy != "exhaustive-pair":
        raise ValueError(f"unknown strategy {strategy!r}")
    n = oracle.n
    rng = np.random.default_rng(seed)
    seen: dict[int, int] = {}
    count = 0
    for x in rng.permutation(1 << n):
        x = int(x)
        value = oracle.classical_query(i, x)
        count += 1
        if value in seen:
            return seen[value] ^ x, count
        seen[value] = x
    raise RuntimeError("scanned every input without a collision; table is not 2-to-1")


# ---------------------------------------------------------------------------
# the toy random-self-reducible language and the reduction demo


@dataclass(frozen=True)
class RsrLanguage:
    """Membership is a hidden parity: L(x) = a.x over GF(2).

    Linearity gives the self-reduction L(x) = L(x XOR r) XOR L(r) for every
    shift r, and x XOR r is uniform for uniform r.
    """

    n: int
    a: int

    def __post_init__(self) -> None:
        if not 0 <= self.a < (1 << self.n):
            raise ValueError(f"functional {self.a} does not fit {self.n} bits")

    def member(self, x: int) -> int:
        if not 0 <= x < (1 << self.n):
            raise ValueError(f"input {x} does not fit {self.n} bits")
        return _parity(self.a & x)

    def shift_query(self, x: int, r: int) -> int:
        return x ^ r


@dataclass(frozen=True)
class ReductionDemoResult:
    """Decision plus the audit trail of solver calls and oracle queries."""

    decision: int | None
    expected: int
    pair_bits: tuple[int, ...]
    quantum_queries: tuple[int, ...]
    solver_calls: int
    solver_rejections: int
    aborted: bool


def _solver_answer(lang: RsrLanguage, oracle: GeneralizedSimonOracle, i: int, s: int, query: int):
    """Average-case solver stand-in: refuses unless the claimed secret is real."""
    if s != oracle.secrets[i]:
        return None
    return lang.member(query)


def quantum_reduction_demo(
    lang: RsrLanguage,
    oracle: GeneralizedSimonOracle,
    x: int,
    seed: int,
    pairs: int = 3,
    classical_budget: int | None = None,
) -> ReductionDemoResult:
    """Decide membership via random shifts and freshly solved oracle secrets.

    Pair j sends (x XOR r_j) and (r_j) to the solver, each attached to its own
    oracle instance whose secret was just recovered; XOR of the two answers
    equals L(x) by linearity, and the majority over pairs decides.  With
    classical_budget set, the secret-recovery step degrades to budgeted
    guessing without any quantum queries; every solver refusal is recorded and
    an instance with no accepted guess aborts the decision.
    """
    if 2 * pairs > oracle.instance_count:
        raise ValueError(f"need {2 * pairs} oracle instances, have {oracle.instance_count}")
    if pairs % 2 == 0:
        raise ValueError("pair count must be odd for a majority")
    rng = np.random.default_rng(seed)
    size = 1 << lang.n
    pair_bits = []
    calls = 0
    rejections = 0
    aborted = False
    for j in range(pairs):
        r = int(rng.integers(size))
        queries = (lang.shift_query(x, r), r)
        answers = []
        for half, query in enumerate(queries):
            i = 2 * j + half
            if classical_budget is None:
                solved = simon_solve(oracle, i, seed=int(rng.integers(2**62)))
                claim = solved.secret
                answer = _solver_answer(lang, oracle, i, claim, query)
                calls += 1
                if answer is None:
                    rejections += 1
                    aborted = True
                    break
                answers.append(answer)
            else:
                answer = None
                for _ in range(classical_budget):
                    claim = int(rng.integers(1, size))
                    answer = _solver_answer(lang, oracle, i, claim, query)
                    calls += 1
                    if answer is None:
                        rejections += 1
                    else:
                        break
                if answer is None:
                    aborted = True
                    break
                answers.append(answer)
        if aborted:
            break
        pair_bits.append(answers[0] ^ answers[1])
    decision = None
    if not aborted:
        decision = int(sum(pair_bits) > pairs // 2)
    return ReductionDemoResult(
        decision=decision,
        expected=lang.member(x),
        pair_bits=tuple(pair_bits),
        quantum_queries=tuple(int(v) for v in oracle.quantum_counts),
        solver_calls=calls,
        solver_rejections=rejections,
        aborted=aborted,
    )
