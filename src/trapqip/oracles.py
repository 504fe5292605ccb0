"""Permutations on m-bit strings and the query oracles built from them.

Every oracle is an XOR query |x, y> -> |x, y XOR a(x)>, kept as an index
table (query_table); the inversion oracle answers with a = f^{-1}.  A
corrupted oracle disagrees with the honest inverse on a declared corruption
set, modelling almost-correct answer functions.  A 2^m-entry table counts m
qubits under the one budget rule, `core.within_cap`, checked before it is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import require_cap


@dataclass(frozen=True)
class Permutation:
    """Bijection on {0,1}^m stored as a lookup table."""

    m: int
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        size = 1 << self.m
        tab = tuple(int(v) for v in self.table)
        if len(tab) != size or sorted(tab) != list(range(size)):
            raise ValueError(f"table is not a permutation of 0..{size - 1}")
        object.__setattr__(self, "table", tab)
        inv = [0] * size
        for x, y in enumerate(tab):
            inv[y] = x
        object.__setattr__(self, "_inverse_table", tuple(inv))

    def __call__(self, x: int) -> int:
        return self.table[x]

    def inverse_of(self, y: int) -> int:
        return self._inverse_table[y]


def xor_shift_permutation(m: int, s: int) -> Permutation:
    """f(x) = x XOR s; self-inverse."""
    if not 0 <= s < (1 << m):
        raise ValueError(f"shift {s} does not fit {m} bits")
    require_cap(m, "a permutation table")
    return Permutation(m, tuple(x ^ s for x in range(1 << m)))


def random_permutation(m: int, seed: int) -> Permutation:
    """Uniformly random permutation, deterministic in the seed."""
    require_cap(m, "a permutation table")
    rng = np.random.default_rng(seed)
    return Permutation(m, tuple(int(v) for v in rng.permutation(1 << m)))


@dataclass(frozen=True)
class CorruptionSet:
    """Queries on which an almost-correct oracle lies."""

    m: int
    members: frozenset[int]

    def __post_init__(self) -> None:
        mem = frozenset(int(q) for q in self.members)
        if any(not 0 <= q < (1 << self.m) for q in mem):
            raise ValueError("corruption set member out of range")
        object.__setattr__(self, "members", mem)


def query_table(answers) -> np.ndarray:
    """Basis map |q, y> -> |q, y XOR answers[q]> on the packed (query, answer) index.

    answers holds one m-bit answer per m-bit query; the map is an involution
    for any answers, applied with core.apply_basis_permutation.
    """
    answers = np.asarray(answers)
    m = answers.size.bit_length() - 1
    if answers.shape != (1 << m,) or answers.min() < 0 or answers.max() >= answers.size:
        raise ValueError(f"need one answer below {answers.size} per query, got shape {answers.shape}")
    idx = np.arange(answers.size**2)
    return idx ^ answers[idx >> m]


@lru_cache(maxsize=64)
def inverse_answers(p: Permutation) -> np.ndarray:
    """f^{-1} as a read-only array: the honest answer to every query."""
    answers = np.array([p.inverse_of(q) for q in range(1 << p.m)])
    answers.setflags(write=False)
    return answers


def inversion_table(p: Permutation, lying: "CorruptionSet | None" = None) -> np.ndarray:
    """The inversion oracle |q, y> -> |q, y XOR f^{-1}(q)> as a query_table.

    Given a corruption set, the oracle lies on its members: there the answer's
    lowest-order bit is flipped, so the reply fails the f(answer) == query
    check, and it agrees with the honest inverse elsewhere.
    """
    answers = inverse_answers(p).copy()
    if lying is not None:
        if lying.m != p.m:
            raise ValueError("corruption set and permutation have different widths")
        for q in lying.members:
            answers[q] ^= 1
    return query_table(answers)

