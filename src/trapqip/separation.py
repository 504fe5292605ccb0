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

from .core import CapacityError, hadamard_power, require_cap
from .oracles import query_table

ROUND_BUDGET_PER_BIT = 20
DEMO_PAIRS = 3


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
    quantum_counts: np.ndarray = field(init=False)
    classical_counts: np.ndarray = field(init=False)

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
    """Random nonzero secrets and 2-to-1 tables, drawn in instance order from the seed.

    The budget rule counts 2n for the 4^n-entry gather, Hadamard matrix and
    amplitudes simon_solve builds, and n + log2(instance_count) for the
    tables of 2^n entries; both are checked before anything is drawn.
    """
    if n < 1:
        raise CapacityError(f"width {n} must be >= 1")
    if instance_count < 1:
        raise CapacityError(f"instance count {instance_count} must be >= 1")
    qubits = max(2 * n, n + (instance_count - 1).bit_length())
    require_cap(qubits, f"a width-{n} oracle with {instance_count} instances")
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
    """Recovered secret plus the query ledger."""

    secret: int
    queries: int
    measurements: tuple[int, ...]


def simon_solve(oracle: GeneralizedSimonOracle, i: int, seed: int) -> SimonResult:
    """Interference rounds until the orthogonal complement pins the secret.

    Each round prepares a uniform superposition, queries the oracle once, and
    measures after a second Hadamard layer; the outcome is always orthogonal
    to the secret over GF(2).  Every round sees the same start state, oracle
    and Hadamards, so the outcome distribution is computed once per solve;
    each round still counts one quantum query in the ledger and makes one
    seeded draw.  Rounds stop once the collected rows reach rank n-1 (at
    least one round always runs); the budget of 20n rounds failing is
    astronomically unlikely and raises rather than returning a wrong secret.
    """
    n = oracle.n
    size = 1 << n
    query = query_table(oracle.tables[i])
    rng = np.random.default_rng(seed)
    rows: list[int] = []
    measurements: list[int] = []
    budget = ROUND_BUDGET_PER_BIT * n
    # |0,0> -> H on x, as the packed (x, y) amplitudes
    start = np.zeros(size * size, dtype=np.complex128)
    start[::size] = 1.0 / math.sqrt(size)
    # y ^= f(x) is one gather (the query map is an involution), then H on x
    final = hadamard_power(n) @ start[query].reshape(size, size)
    marginal = (np.abs(final) ** 2).sum(axis=1)
    dist = marginal / marginal.sum()
    for _ in range(budget):
        oracle.count_quantum_query(i)
        w = int(rng.choice(size, p=dist))
        measurements.append(w)
        rows.append(w)
        if gf2_rank(rows) >= n - 1:
            secret = gf2_null_vector(rows, n)
            if secret is None:
                continue
            return SimonResult(secret=secret, queries=len(measurements), measurements=tuple(measurements))
    raise RuntimeError(f"round budget {budget} exhausted without pinning the secret")


def classical_collision_count(oracle: GeneralizedSimonOracle, i: int, seed: int = 0) -> tuple[int, int]:
    """Birthday search over distinct inputs; returns (secret, queries used)."""
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
    classical_budget: int | None = None,
) -> ReductionDemoResult:
    """Decide membership via random shifts and freshly solved oracle secrets.

    Pair j of DEMO_PAIRS sends (x XOR r_j) and (r_j) to the solver, each
    attached to its own oracle instance whose secret was just recovered; XOR
    of the two answers equals L(x) by linearity, and the majority over pairs
    decides.  With classical_budget set, the secret-recovery step degrades to
    that many guesses without any quantum queries.  Every solver refusal is
    recorded, and an instance with no accepted claim aborts the decision.
    """
    if 2 * DEMO_PAIRS > oracle.instance_count:
        raise ValueError(f"need {2 * DEMO_PAIRS} oracle instances, have {oracle.instance_count}")
    rng = np.random.default_rng(seed)
    size = 1 << lang.n
    attempts = 1 if classical_budget is None else classical_budget
    pair_bits = []
    calls = 0
    rejections = 0
    aborted = False
    for j in range(DEMO_PAIRS):
        r = int(rng.integers(size))
        queries = (lang.shift_query(x, r), r)
        answers = []
        for half, query in enumerate(queries):
            i = 2 * j + half
            answer = None
            for _ in range(attempts):
                if classical_budget is None:
                    claim = simon_solve(oracle, i, seed=int(rng.integers(2**62))).secret
                else:
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
        decision = int(sum(pair_bits) > DEMO_PAIRS // 2)
    return ReductionDemoResult(
        decision=decision,
        expected=lang.member(x),
        pair_bits=tuple(pair_bits),
        quantum_queries=tuple(int(v) for v in oracle.quantum_counts),
        solver_calls=calls,
        solver_rejections=rejections,
        aborted=aborted,
    )
