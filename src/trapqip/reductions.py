"""Synthetic locally-quantum reductions for the XOR-shift language family.

The language is the `bit`-th bit (most significant bit first) of x XOR s, and
the hiding permutation is f(x) = x XOR s.  The query generator prepares
sum_q sqrt(d_q) |q, 0>_(query, answer) |q XOR x>_work, so an honest inverse
answer f^{-1}(q) XORed with the work value recovers x XOR s on every branch.
The input x is classical, so it is no register: work starts at x, and the
generator is a 2^m-dim prep unitary on `query` followed by the basis map
work ^= query on (query, work).  The decider is the basis map that
XORs the language bit of that recovery into a fresh output qubit, leaving
everything else untouched; noise is a fixed rotation on the output qubit
after it.  Both basis maps are index tables, applied in time linear in the
state size.  Amplification runs independent copies through a coherent
majority vote.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, reduce
from pathlib import Path

import numpy as np

from . import core
from .core import StateVector, UnitaryOperator, layout
from .oracles import Permutation, inverse_answers, inversion_table

DIST_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DistributionTable:
    """Query distribution d_q over m-bit strings.

    Its smoothness certificate c is the tightest constant bounding 2^m * d_q
    into [1/c, c]; a table with an empty slot (d_q = 0) has no finite
    certificate and is not smooth.  probs is read-only, and so are the two
    objects built from it once per table: prep, the query generator's gate,
    and cdf, which the classical protocol bisects to draw its queries.
    """

    m: int
    probs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(np.asarray(self.probs, dtype=float).reshape(-1), copy=True)
        if arr.size != (1 << self.m):
            raise ValueError(f"need {1 << self.m} probabilities, got {arr.size}")
        if not np.isfinite(arr).all():
            raise ValueError("probability entries must be finite")
        if arr.min() < -DIST_SUM_TOL:
            raise ValueError("negative probability entry")
        total = float(arr.sum())
        if abs(total - 1.0) > DIST_SUM_TOL:
            raise ValueError(f"probabilities sum to {total}, not 1 within {DIST_SUM_TOL}")
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @classmethod
    def uniform(cls, m: int) -> "DistributionTable":
        """The uniform table on m bits, checked against the cap on every call
        and built once per width, so every caller shares one table and its prep."""
        core.require_cap(m, "a distribution table")
        return _uniform_table(m)

    @property
    def d_min(self) -> float:
        return float(self.probs.min())

    @property
    def d_max(self) -> float:
        return float(self.probs.max())

    @property
    def c(self) -> float:
        scaled_min = (1 << self.m) * self.d_min
        return math.inf if scaled_min <= 0 else max((1 << self.m) * self.d_max, 1.0 / scaled_min)

    @property
    def is_smooth(self) -> bool:
        # the tightest certificate satisfies its own bounds whenever it is finite
        return math.isfinite(self.c)

    @property
    def is_uniform(self) -> bool:
        size = 1 << self.m
        return bool(np.allclose(self.probs, 1.0 / size, atol=DIST_SUM_TOL))

    @cached_property
    def cdf(self) -> np.ndarray:
        """Read-only cumulative law, normalised by its last entry as rng.choice(size, p=probs)
        normalises it, so bisecting it at one rng.random() draws the query that choice would."""
        cdf = self.probs.cumsum()
        cdf /= cdf[-1]
        cdf.setflags(write=False)
        return cdf

    @cached_property
    def prep(self) -> UnitaryOperator:
        """Real orthogonal unitary on `query` whose first column is sqrt(probs), built once per table."""
        target = np.sqrt(self.probs)
        v = target.copy()
        v[0] -= 1.0
        nv = v @ v
        eye = np.eye(target.size)
        return UnitaryOperator(layout(("query", self.m)), eye if nv < 1e-30 else eye - 2.0 * np.outer(v, v) / nv)


@lru_cache(maxsize=64)
def _uniform_table(m: int) -> DistributionTable:
    size = 1 << m
    return DistributionTable(m, np.full(size, 1.0 / size))


def load_distribution(path) -> DistributionTable:
    """Text format: one 'q d_q' line per entry, q in binary."""
    lines = [ln.strip() for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty distribution file")
    m = len(lines[0].split()[0])
    size = 1 << m
    if len(lines) != size:
        raise ValueError(f"{path}: expected {size} lines for m={m}, found {len(lines)}")
    probs = np.zeros(size)
    seen = set()
    for i, ln in enumerate(lines, start=1):
        parts = ln.split()
        if len(parts) != 2 or len(parts[0]) != m or not set(parts[0]) <= {"0", "1"}:
            raise ValueError(f"{path}: line {i}: expected '<{m}-bit q> <prob>'")
        q = int(parts[0], 2)
        try:
            d = float(parts[1])
        except ValueError:
            raise ValueError(f"{path}: line {i}: malformed entry {ln!r}") from None
        if q in seen:
            raise ValueError(f"{path}: line {i}: duplicate entry for q={parts[0]}")
        seen.add(q)
        probs[q] = d
    return DistributionTable(m, probs)


# ---------------------------------------------------------------------------
# circuit pieces


@lru_cache(maxsize=64)
def register_xor_table(m: int) -> np.ndarray:
    """Basis map |a, b> -> |a, b XOR a> on the packed (src, dst) index."""
    idx = np.arange(1 << (2 * m))
    table = idx ^ (idx >> m)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=64)
def decider_table(m: int, bit: int) -> np.ndarray:
    """Basis map XORing the language bit of answer^work into out, on (answer, work, out).

    Equal to compute(answer into work), copy bit to out, uncompute, collapsed
    into a single basis permutation.
    """
    idx = np.arange(1 << (2 * m + 1))
    w = (idx >> 1) & ((1 << m) - 1)
    a = idx >> (m + 1)
    table = idx ^ (((a ^ w) >> (m - 1 - bit)) & 1)
    table.setflags(write=False)
    return table


def majority_error(eps: float, t: int) -> float:
    """Probability that more than t/2 independent eps-noisy copies are wrong."""
    if t < 1 or t % 2 == 0:
        raise ValueError(f"copy count must be odd and positive, got {t}")
    return float(sum(math.comb(t, u) * eps**u * (1 - eps) ** (t - u) for u in range(t // 2 + 1, t + 1)))


@lru_cache(maxsize=16)
def majority_vote_table(t: int) -> np.ndarray:
    """Basis map |o_1..o_t, b> -> |o_1..o_t, b XOR majority(o)> on t vote bits plus a target."""
    if t < 1 or t % 2 == 0:
        raise ValueError(f"vote arity must be odd, got {t}")
    idx = np.arange(1 << (t + 1))
    ones = sum((idx >> (b + 1)) & 1 for b in range(t))
    table = idx ^ (ones > t // 2)
    table.setflags(write=False)
    return table


# ---------------------------------------------------------------------------
# the reduction container


@dataclass(frozen=True, eq=False)
class Reduction:
    """One worst-case-to-average-case reduction instance.

    Each copy is one query and is its DistributionTable: the copy's generator
    is table.prep on `query` followed by register_xor_table(m) on (query,
    work), with work holding x beforehand; its decider is decider_table(m,
    bit) followed by the rotation noise on `out`, if any (apply_generator and
    apply_decider run them).  The copies recombine by a majority vote, and
    epsilon is the closed-form error of the whole reduction on honest runs.
    """

    m: int
    base_epsilon: float
    s: int
    bit: int
    distributions: tuple[DistributionTable, ...]
    noise: UnitaryOperator | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.bit < self.m:
            raise ValueError(f"bit {self.bit} out of range for m={self.m}")

    @property
    def copies(self) -> int:
        return len(self.distributions)

    @property
    def epsilon(self) -> float:
        return majority_error(self.base_epsilon, self.copies)

    def language(self, x: int) -> int:
        if not 0 <= x < (1 << self.m):
            raise ValueError(f"input {x} does not fit {self.m} bits")
        return ((x ^ self.s) >> (self.m - 1 - self.bit)) & 1

    @property
    def is_smooth(self) -> bool:
        return all(t.is_smooth for t in self.distributions)


def build_known_smooth_reduction(m: int, s: int, bit: int, tables) -> Reduction:
    """Multi-query reduction whose queries draw from per-query smooth tables.

    The tables may all differ; answers recombine through a majority vote, so
    the table count must be odd.  Every builder checks its instance here.
    """
    core.require_cap(4 * m, "one copy")
    tables = tuple(tables)
    if len(tables) % 2 == 0:
        raise ValueError("need an odd number of per-query tables")
    for t in tables:
        if t.m != m:
            raise ValueError("distribution width does not match m")
        if not t.is_smooth:
            raise ValueError("distribution is not smooth (zero entry or certificate violated)")
    return Reduction(m=m, base_epsilon=0.0, s=s, bit=bit, distributions=tables)


def build_xor_reduction(m: int, s: int, bit: int) -> Reduction:
    """Exact reduction with uniform queries."""
    core.require_cap(4 * m, "one copy")  # before the 2^m-entry table exists
    return build_known_smooth_reduction(m, s, bit, [DistributionTable.uniform(m)])


def build_smooth_xor_reduction(m: int, s: int, bit: int, table: DistributionTable) -> Reduction:
    """Exact reduction querying from a smooth non-uniform distribution."""
    return build_known_smooth_reduction(m, s, bit, [table])


@lru_cache(maxsize=64)
def _noise_rotation(eps: float) -> UnitaryOperator:
    """The rotation on `out` that errs with probability eps, built and checked once per eps."""
    c, s_ = math.cos(math.asin(math.sqrt(eps))), math.sqrt(eps)
    return UnitaryOperator(layout(("out", 1)), np.array([[c, -s_], [s_, c]]))


def add_noise(r: Reduction, eps: float) -> Reduction:
    """Compose a fixed rotation on the output qubit so honest runs err with probability eps.

    Valid because the pre-noise decider writes a deterministic basis bit on
    honest inputs; rotation angles on the same axis add.  A noiseless base
    takes the rotation shared by every call with the same eps.
    """
    if not 0 <= eps < 1:
        raise ValueError(f"noise level {eps} outside [0, 1)")
    if r.copies != 1:
        raise ValueError("add noise before amplifying")
    angle = math.asin(math.sqrt(r.epsilon)) + math.asin(math.sqrt(eps))
    noise = _noise_rotation(eps)
    if r.noise is not None:
        noise = UnitaryOperator(noise.layout, noise.matrix @ r.noise.matrix)
    return replace(r, base_epsilon=float(math.sin(angle) ** 2), noise=noise)


def amplify(r: Reduction, t: int) -> Reduction:
    """t independent copies recombined by a coherent majority vote."""
    if t < 1 or t % 2 == 0:
        raise ValueError(f"copy count must be odd and positive, got {t}")
    if r.copies != 1:
        raise ValueError("amplify an unamplified base (nested votes break the error formula)")
    return replace(r, distributions=r.distributions * t)


# ---------------------------------------------------------------------------
# states

QUERY_REGISTER_KINDS = ("query", "answer", "work", "copy")


def copy_register_names(k: int) -> list[dict[str, str]]:
    """Register names of each copy; unsuffixed when there is a single copy."""
    if k == 1:
        return [{kind: kind for kind in QUERY_REGISTER_KINDS}]
    return [{kind: f"{kind}{i}" for kind in QUERY_REGISTER_KINDS} for i in range(k)]


def apply_generator(state: StateVector, r: Reduction, which: int) -> StateVector:
    """Run the which-th query generator on (query, work); work must hold x."""
    state = core.apply_on_registers(state, r.distributions[which].prep, ["query"])
    return core.apply_basis_permutation(state, register_xor_table(r.m), ["query", "work"])


def apply_decider(state: StateVector, r: Reduction, answer: str, work: str, out: str) -> StateVector:
    """Run the decider on the named (answer, work, out) registers."""
    state = core.apply_basis_permutation(state, decider_table(r.m, r.bit), [answer, work, out])
    if r.noise is not None:
        state = core.apply_on_registers(state, r.noise, [out])
    return state


def answer_queries(state: StateVector, f: Permutation, k: int) -> StateVector:
    """The honest inverse oracle on the (query, answer) pair of each of k copies."""
    table = inversion_table(f)
    for regs in copy_register_names(k):
        state = core.apply_basis_permutation(state, table, [regs["query"], regs["answer"]])
    return state


def generate_query_state(r: Reduction, x: int) -> StateVector:
    """The verifier's pre-send state, each copy's generator output plus a
    basis copy of q: honest_answer_state with the answers still zero."""
    return honest_answer_state(r, None, x)


def response_support(m: int, f: Permutation | None, x: int | None, preps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The honest response of t = len(preps) copies as its 2^(mt)-entry support (rows, cols, amps).

    Everything after the prep (or the trap's uniform superposition) is a
    basis map, so copy i holds preps[i][q] unchanged at |q, f^-1(q), q ^ x, q>
    of (query, answer, work, copy); x None gives the trap's zero work, f None
    zero answers.  Entry k is query tuple k; rows are (queries, answers),
    cols (works, copies), copy 0 first, and amps np.kron of the preps.  Rows
    and cols both hold the queries, so no two entries share either.
    """
    if f is not None and f.m != m:
        raise core.LayoutError(f"permutation width {f.m} does not match query width {m}")
    n, low = m * len(preps), (1 << m) - 1
    answer_of = np.zeros(1 << m, dtype=int) if f is None else inverse_answers(f)
    queries = np.arange(1 << n)
    answers = works = np.zeros_like(queries)
    for shift in range(n - m, -1, -m):
        q = (queries >> shift) & low
        answers = (answers << m) | answer_of[q]
        works = (works << m) | (0 if x is None else q ^ x)
    amps = reduce(np.kron, [np.asarray(prep, dtype=np.complex128) for prep in preps])
    return (queries << n) | answers, (works << n) | queries, amps


def support_state(m: int, support) -> StateVector:
    """A response's support scattered into its statevector, the registers of
    every copy grouped by kind: all queries, then answers, works, copies."""
    rows, cols, amps = support
    names = copy_register_names((rows.size.bit_length() - 1) // m)
    lay = layout(*((regs[kind], m) for kind in QUERY_REGISTER_KINDS for regs in names))
    amplitudes = np.zeros(lay.dim, dtype=np.complex128)
    amplitudes[(rows << (lay.total_qubits // 2)) | cols] = amps
    return StateVector(lay, amplitudes)


def honest_answer_state(r: Reduction, f: Permutation | None, x: int) -> StateVector:
    """Query state after an honest inverse oracle filled the answer registers:
    its support's scatter, the copy of table d holding d.prep's first column,
    bit for bit what the generator, the copy and the oracle's kernels make."""
    if not 0 <= x < (1 << r.m):
        raise ValueError(f"input {x} does not fit {r.m} bits")
    return support_state(r.m, response_support(r.m, f, x, [table.prep.matrix[:, 0] for table in r.distributions]))
