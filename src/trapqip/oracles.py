"""Permutations on m-bit strings and the unitary query oracles built from them.

The standard oracle convention throughout is |x, y> -> |x, y XOR f(x)>; the
inversion oracle answers with f^{-1}.  A corrupted oracle disagrees with the
honest inverse on a declared corruption set, modelling almost-correct answer
functions whose error weight is measured against a query distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .core import UnitaryOperator, layout


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
    return Permutation(m, tuple(x ^ s for x in range(1 << m)))


def random_permutation(m: int, seed: int) -> Permutation:
    """Uniformly random permutation, deterministic in the seed."""
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

    def weight(self, probs=None) -> float:
        """Total query-distribution mass on the set; uniform when probs is None."""
        if probs is None:
            return len(self.members) / (1 << self.m)
        arr = np.asarray(probs, dtype=float).reshape(-1)
        if arr.size != (1 << self.m):
            raise ValueError(f"need {1 << self.m} probabilities, got {arr.size}")
        return float(sum(arr[q] for q in self.members))


def _xor_query_matrix(m: int, answer_of) -> np.ndarray:
    """Permutation matrix of |x, y> -> |x, y XOR answer_of(x)> on 2m qubits."""
    size = 1 << m
    dim = size * size
    x = np.repeat(np.arange(size), size)
    y = np.tile(np.arange(size), size)
    ans = np.array([answer_of(v) for v in range(size)])
    rows = x * size + (y ^ ans[x])
    mat = np.zeros((dim, dim))
    mat[rows, np.arange(dim)] = 1.0
    return mat


def permutation_unitary(p: Permutation) -> UnitaryOperator:
    """Oracle U_f: |x, y> -> |x, y XOR f(x)> on registers (input, output)."""
    lay = layout(("input", p.m), ("output", p.m))
    return UnitaryOperator(lay, _xor_query_matrix(p.m, p))


@lru_cache(maxsize=128)
def inversion_oracle(p: Permutation) -> UnitaryOperator:
    """Oracle answering with f^{-1}: |q, y> -> |q, y XOR f^{-1}(q)>."""
    lay = layout(("query", p.m), ("answer", p.m))
    return UnitaryOperator(lay, _xor_query_matrix(p.m, p.inverse_of))


def inversion_table(p: Permutation, lying: "CorruptionSet | None" = None) -> np.ndarray:
    """Basis map of the inversion oracle on the packed (query, answer) index.

    Same action as inversion_oracle (or corrupted_inversion_oracle when a
    corruption set is given) but as an index table, cheap at any width.
    """
    size = 1 << p.m
    answers = np.array([p.inverse_of(q) for q in range(size)])
    if lying is not None:
        if lying.m != p.m:
            raise ValueError("corruption set and permutation have different widths")
        for q in lying.members:
            answers[q] ^= 1
    idx = np.arange(size * size)
    return idx ^ answers[idx >> p.m]


def corrupted_inversion_oracle(p: Permutation, bad: CorruptionSet) -> UnitaryOperator:
    """Inversion oracle that lies on the corruption set.

    On members the answer's lowest-order bit is flipped, so the reply fails the
    f(answer) == query check there and agrees with the honest inverse elsewhere.
    """
    if bad.m != p.m:
        raise ValueError("corruption set and permutation have different widths")

    def answer(q: int) -> int:
        a = p.inverse_of(q)
        return a ^ 1 if q in bad.members else a

    lay = layout(("query", p.m), ("answer", p.m))
    return UnitaryOperator(lay, _xor_query_matrix(p.m, answer))


def save_permutation(p: Permutation, path) -> None:
    """Text format: first line m=<int>, then one 'x f(x)' pair per line in binary."""
    lines = [f"m={p.m}"]
    for x in range(1 << p.m):
        lines.append(f"{x:0{p.m}b} {p.table[x]:0{p.m}b}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_permutation(path) -> Permutation:
    text = Path(path).read_text()
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("m="):
        raise ValueError(f"{path}: line 1: expected m=<int> header")
    try:
        m = int(lines[0][2:])
    except ValueError:
        raise ValueError(f"{path}: line 1: malformed width {lines[0]!r}") from None
    if m < 1:
        raise ValueError(f"{path}: line 1: width must be positive")
    size = 1 << m
    if len(lines) - 1 != size:
        raise ValueError(f"{path}: expected {size} pairs, found {len(lines) - 1}")
    table = [-1] * size
    for i, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 2 or len(parts[0]) != m or len(parts[1]) != m:
            raise ValueError(f"{path}: line {i}: expected two {m}-bit binary words")
        try:
            x, y = int(parts[0], 2), int(parts[1], 2)
        except ValueError:
            raise ValueError(f"{path}: line {i}: not binary: {ln!r}") from None
        if table[x] != -1:
            raise ValueError(f"{path}: line {i}: duplicate input {parts[0]}")
        table[x] = y
    return Permutation(m, tuple(table))
