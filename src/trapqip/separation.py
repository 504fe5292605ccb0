"""Hidden-shift oracle family where quantum and classical query costs split.

Each oracle instance is a random 2-to-1 function, one row of an int array,
whose collisions encode a nonzero XOR secret.  A quantum solver recovers it
in O(n) interference rounds drawn from the Walsh-Hadamard transform of the
table's collision counts; a classical birthday search over distinct inputs
needs about 2^(n/2) queries.  The demo reduction consumes recovered secrets
to answer random-self-reduced membership queries for a linear toy language.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import CapacityError, require_cap

ROUND_BUDGET_PER_BIT = 20
DEMO_PAIRS = 3


def _parity(v: int) -> int:
    return v.bit_count() & 1


@dataclass(frozen=True, eq=False)
class GeneralizedSimonOracle:
    """Instance family f_i with f_i(x) = f_i(x') iff x' in {x, x XOR s_i}.

    tables is one read-only int64 array, row i holding f_i: 8 bytes per
    entry.  Query counters are per-instance run state, split by caller
    class; reset them between experiments that share an oracle.
    """

    n: int
    secrets: tuple[int, ...]
    tables: np.ndarray
    quantum_counts: np.ndarray = field(init=False)
    classical_counts: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        size = 1 << self.n
        tables = np.asarray(self.tables, dtype=np.int64)
        if tables.shape != (len(self.secrets), size):
            raise ValueError(f"need one {size}-entry table per secret, got shape {tables.shape}")
        for s, table in zip(self.secrets, tables):
            if not 0 < s < size:
                raise ValueError(f"secret {s} must be a nonzero {self.n}-bit value")
            if np.any(table != table[np.arange(size) ^ s]):
                raise ValueError("table does not collide along its secret")
            # colliding along s, its sorted values come in equal pairs; a pair equal to the next is 4-to-1
            if np.any(np.diff(np.sort(table))[1::2] == 0):
                raise ValueError("table is not 2-to-1")
        tables = tables.copy()  # the caller may still hold and write the checked array
        tables.setflags(write=False)
        object.__setattr__(self, "tables", tables)
        count = len(self.secrets)
        object.__setattr__(self, "quantum_counts", np.zeros(count, dtype=np.int64))
        object.__setattr__(self, "classical_counts", np.zeros(count, dtype=np.int64))

    @property
    def instance_count(self) -> int:
        return len(self.secrets)

    def classical_query(self, i: int, x: int) -> int:
        self.classical_counts[i] += 1
        return int(self.tables[i, x])

    def count_quantum_query(self, i: int) -> None:
        self.quantum_counts[i] += 1

    def reset_counters(self) -> None:
        self.quantum_counts[:] = 0
        self.classical_counts[:] = 0


def build_simon_oracle(n: int, instance_count: int, seed: int) -> GeneralizedSimonOracle:
    """Random nonzero secrets and 2-to-1 tables, drawn in instance order from the seed.

    The pair {x, x XOR s} takes the label whose rank is the position of its
    smaller member among all such representatives.  The budget rule counts
    n + ceil(log2 instance_count) for the tables of 2^n entries (a solve
    holds no more than 2^n), checked before anything is drawn.
    """
    if n < 1:
        raise CapacityError(f"width {n} must be >= 1")
    if instance_count < 1:
        raise CapacityError(f"instance count {instance_count} must be >= 1")
    require_cap(n + (instance_count - 1).bit_length(), f"a width-{n} oracle with {instance_count} instances")
    rng = np.random.default_rng(seed)
    size = 1 << n
    x = np.arange(size)
    secrets = []
    tables = np.empty((instance_count, size), dtype=np.int64)
    for table in tables:
        s = int(rng.integers(1, size))
        labels = rng.permutation(size // 2)
        rank = np.cumsum(x < x ^ s) - 1
        secrets.append(s)
        table[:] = labels[rank[np.minimum(x, x ^ s)]]
    return GeneralizedSimonOracle(n=n, secrets=tuple(secrets), tables=tables)


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


def gf2_null_vector(rows, n: int) -> int | None:
    """The unique nonzero vector orthogonal to all rows, if the rank is n-1."""
    basis = gf2_reduce(rows)
    if len(basis) != n - 1:
        return None
    # set the free column; each pivot, lowest first, cancels its row's lower bits
    (free,) = set(range(n)) - set(basis)
    v = 1 << free
    for pivot in sorted(basis):
        v |= _parity(basis[pivot] & v) << pivot
    return v


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

    Each round prepares a uniform superposition, queries the oracle once and
    measures after a second Hadamard layer, so the outcome w is orthogonal
    to the secret with P(w) = sum_d C(d) (-1)^{w.d} / N^2, where C(d) counts
    the x with f(x) = f(x XOR d): C(0) = N, and each colliding pair, adjacent
    in a stable sort of the table, adds 2 at its XOR.  One in-place integer
    Walsh-Hadamard transform gives the law, and its cumulative sum the CDF,
    once per solve in O(N) entries; each round counts one quantum query and
    bisects the CDF at one seeded uniform, as rng.choice(N, p=law) would.
    Rounds stop once the rows pin a unique null vector; the budget of 20n
    rounds failing is astronomically unlikely and raises.
    """
    n = oracle.n
    size = 1 << n
    rng = np.random.default_rng(seed)
    measurements: list[int] = []
    budget = ROUND_BUDGET_PER_BIT * n
    pairs = np.argsort(oracle.tables[i], kind="stable").reshape(-1, 2)
    law = 2 * np.bincount(pairs[:, 0] ^ pairs[:, 1], minlength=size)
    law[0] = size
    half = 1
    while half < size:
        low, high = law.reshape(-1, 2, half).transpose(1, 0, 2)
        low += high
        high *= -2
        high += low
        half *= 2
    cdf = np.cumsum(law / float(size * size))
    cdf /= cdf[-1]
    for _ in range(budget):
        oracle.count_quantum_query(i)
        measurements.append(int(cdf.searchsorted(rng.random(), side="right")))
        secret = gf2_null_vector(measurements, n)
        if secret is not None:
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
    """Decision plus the audit trail of solver refusals and oracle queries."""

    decision: int | None
    expected: int
    pair_bits: tuple[int, ...]
    quantum_queries: tuple[int, ...]
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
        solver_rejections=rejections,
        aborted=aborted,
    )
