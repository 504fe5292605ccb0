"""The benchmark's three workloads, each a seeded list of ops with output checks.

An op is one call a user would make: `trapqip run` through
`trapqip.cli.main`, or one public module function.  Calls look the function
up on its module at call time, so the tracer's wrappers see them.  Every op
carries a check of its output against a closed form computed here, without
trapqip; the runner counts a failed check as a failed op.

A pass is one list of ops.  Each kind of op is spread evenly over the pass,
so a run cut mid-pass still measures the pass's mix of kinds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from trapqip import analysis, cli, core, oracles, protocols, reductions, rejection, sampling, separation

TOL = 1e-9
DEFAULT_SEED = 0
GOLDEN = Path(__file__).resolve().parent / "golden" / f"sweep-honest-seed{DEFAULT_SEED}.jsonl"
SEARCH_ITERS = 100


@dataclass(frozen=True)
class Op:
    kind: str
    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]


@dataclass(frozen=True)
class Workload:
    ops: list[Op]
    warmup: list[Op]


# ---------------------------------------------------------------------------
# closed forms


def language(m: int, s: int, bit: int, x: int) -> int:
    """L(x): bit `bit` (most significant first) of x XOR s."""
    return ((x ^ s) >> (m - 1 - bit)) & 1


def majority_error(eps: float, t: int) -> float:
    """Chance that a majority of t independent eps-noisy copies is wrong."""
    return sum(math.comb(t, k) * eps**k * (1 - eps) ** (t - k) for k in range((t + 1) // 2, t + 1))


def honest_p0(m: int, s: int, bit: int, x: int, eps: float, t: int) -> float:
    """Honest computation-branch acceptance with the default accept_output = 0."""
    err = majority_error(eps, t)
    return 1.0 - err if language(m, s, bit, x) == 0 else err


def pure_trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """sqrt(1 - |<a|b>|^2), from the phase-aligned difference so it stays accurate near 0."""
    ov = np.vdot(b, a)
    phase = ov / abs(ov) if abs(ov) > 0 else 1.0
    d2 = float(np.sum(np.abs(a - phase * b) ** 2))
    return math.sqrt(max(d2 / 2 * (2 - d2 / 2), 0.0))


def haar(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar unitary from the QR of a complex Ginibre matrix, with the phase fix."""
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


# ---------------------------------------------------------------------------
# checks; each returns False rather than raising on a wrong value


def _record(out) -> dict | None:
    code, text = out
    return json.loads(text) if code == 0 else None


def check_honest_record(out, *, protocol: str, p0: float, err: float, golden: str | None) -> bool:
    rec = _record(out)
    if rec is None or (golden is not None and out[1] != golden):
        return False
    p1 = p0 if protocol == "classical" else 1.0
    return (
        abs(rec["p0"] - p0) <= TOL
        and abs(rec["p1"] - p1) <= TOL
        and abs(rec["amplified_error"] - err) <= TOL
        and rec["upper_bound"] is None
    )


def check_search_record(out, *, eps: float) -> bool:
    rec = _record(out)
    if rec is None:
        return False
    ceiling = (1 + math.sqrt(eps)) / 2
    return abs(rec["upper_bound"] - ceiling) <= TOL and rec["search_value"] <= ceiling + TOL


def check_overlap(pair) -> bool:
    return abs(pair[0] - pair[1]) <= TOL


def check_report(report) -> bool:
    return bool(report.passed)


def check_qrs(res, *, inv_beta: float, budget: int, target: np.ndarray) -> bool:
    if abs(res.success_prob - inv_beta) > TOL or not 1 <= res.rounds_used <= budget:
        return False
    if not res.succeeded:
        return res.state is None and res.rounds_used == budget
    return pure_trace_distance(res.state.amplitudes, target) <= TOL


def check_smooth(res, *, p0: float) -> bool:
    return abs(res.p0 - p0) <= TOL and abs(res.p1 - 1.0) <= TOL


def check_simon(res, *, table: tuple[int, ...], secret: int, n: int) -> bool:
    collides = all(table[x] == table[x ^ res.secret] for x in range(1 << n))
    return res.secret == secret and collides and res.queries <= SIMON_QUERIES_PER_BIT * n


# ---------------------------------------------------------------------------
# op calls; module attributes are read at call time


def cli_run(config: str) -> tuple[int, str]:
    """`trapqip run --config <config>`, returning the exit code and stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["run", "--config", config])
    return code, buf.getvalue()


def _run_config(**keys) -> str:
    return "[run]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())


def _interleave(groups: dict[str, list[Op]], rng: np.random.Generator) -> list[Op]:
    keyed = []
    for kind in sorted(groups):
        ops = groups[kind]
        for rank, j in enumerate(rng.permutation(len(ops))):
            keyed.append(((rank + rng.random()) / len(ops), ops[j]))
    keyed.sort(key=lambda pair: pair[0])
    return [op for _, op in keyed]


def _workload(ops: list[Op], rng: np.random.Generator) -> Workload:
    groups: dict[str, list[Op]] = {}
    for op in ops:
        groups.setdefault(op.kind, []).append(op)
    return Workload(ops=_interleave(groups, rng), warmup=[groups[kind][0] for kind in sorted(groups)])


def load_golden() -> dict[str, str]:
    """Golden record text per op label; empty when no golden file exists."""
    if not GOLDEN.exists():
        return {}
    with GOLDEN.open() as fh:
        return {row["label"]: row["record"] for row in map(json.loads, fh)}


# ---------------------------------------------------------------------------
# workloads

SWEEP_GRID = (("2", 3, (1, 3, 5)), ("2", 2, (3, 5, 7)), ("1", 3, (1,)), ("classical", 3, (1, 3)))
SWEEP_EPS = (0.0, 0.1, 0.25)


def sweep_honest(seed: int, work_dir: Path) -> Workload:
    """Honest `trapqip run` records over a fixed grid; the seed picks s, bit and order."""
    rng = np.random.default_rng(seed)
    golden = load_golden() if seed == DEFAULT_SEED else None
    ops = []
    for protocol, m, ts in SWEEP_GRID:
        for t in ts:
            kind = f"run-p{protocol}-m{m}-t{t}"
            for eps in SWEEP_EPS:
                for x in range(1 << m):
                    s = int(rng.integers(1, 1 << m))
                    bit = int(rng.integers(m))
                    label = f"{kind}-eps{eps}-x{x}"
                    path = work_dir / f"{label}.cfg"
                    path.write_text(
                        _run_config(
                            protocol=protocol, m=m, s=format(s, f"0{m}b"), bit=bit, eps=eps, t=t, x=x,
                            seed=int(rng.integers(2**31)),
                        )
                    )
                    check = partial(
                        check_honest_record,
                        protocol=protocol,
                        p0=honest_p0(m, s, bit, x, eps, t),
                        err=majority_error(eps, t),
                        golden=None if golden is None else golden.get(label, ""),
                    )
                    ops.append(Op(kind, label, partial(cli_run, str(path)), check))
    return _workload(ops, rng)


def _search_op(rng, work_dir: Path, eps: float, p: int, rep: int) -> Op:
    m = 2
    s = int(rng.integers(1, 1 << m))
    bit = int(rng.integers(m))
    rejecting = [x for x in range(1 << m) if language(m, s, bit, x) == 1]
    x = int(rng.choice(rejecting))
    label = f"search-p{p}-eps{eps}-{rep}"
    path = work_dir / f"{label}.cfg"
    path.write_text(
        _run_config(
            protocol=1, m=m, s=format(s, f"0{m}b"), bit=bit, eps=eps, x=x,
            prover="search", p_qubits=p, iters=SEARCH_ITERS, seed=int(rng.integers(2**31)),
        )
    )
    return Op(f"search-p{p}", label, partial(cli_run, str(path)), partial(check_search_record, eps=eps))


def _overlap_op(rng, eps: float, p: int, rep: int) -> Op:
    m = 2
    s = int(rng.integers(1, 1 << m))
    r = reductions.add_noise(reductions.build_xor_reduction(m, s, int(rng.integers(m))), eps)
    f = oracles.xor_shift_permutation(m, s)
    prover = protocols.Prover.unitary_cheat(haar(1 << (p + 2 * m), rng), prover_qubits=p)
    x = int(rng.integers(1 << m))

    def call():
        return protocols.branch_overlap_pair(r, f, x, prover)

    return Op(f"overlap-p{p}", f"overlap-p{p}-eps{eps}-{rep}", call, check_overlap)


# Each kind of lemma op has one fixed size, so that the seed changes input
# values but not the work, and each kind's latencies form one cluster.
PURIFICATION_QUBITS = 2
PURIFICATION_ENV_QUBITS = 1
MAXPROJ_DIM = 8


def _purification_op(op_seed: int, rep: int) -> Op:
    def call():
        rng = np.random.default_rng(op_seed)
        rho = sampling.random_density(1 << PURIFICATION_QUBITS, rng)
        phi, psi = sampling.purification_pair(rho, PURIFICATION_QUBITS, rng)
        channel = sampling.random_channel(PURIFICATION_QUBITS, PURIFICATION_ENV_QUBITS, rng)
        return analysis.purification_invariance(channel, phi, psi)

    return Op("lemma-purification", f"purification-{rep}", call, check_report)


def _maxproj_op(op_seed: int, rep: int) -> Op:
    def call():
        rng = np.random.default_rng(op_seed)
        pi_s = sampling.random_projector(MAXPROJ_DIM, int(rng.integers(1, MAXPROJ_DIM)), rng)
        return analysis.maxproj_report(pi_s, sampling.random_state(MAXPROJ_DIM, rng))

    return Op("lemma-maxproj", f"maxproj-{rep}", call, check_report)


def _epr_op(op_seed: int, rep: int) -> Op:
    def call():
        return analysis.epr_trivialization(oracles.random_permutation(3, op_seed))

    return Op("lemma-epr", f"epr-{rep}", call, check_report)


CHEAT_EPS = (0.0, 0.25)
SEARCH_REPS = 2
# Ops per pass.  Overlaps by private-qubit width: the 1024-dim density of
# p = 2 costs about a second.  The 75 ops of a pass put the median latency in
# the middle of the purification checks and the 90th percentile in the middle
# of the p = 1 searches, rather than on the edge between two kinds of op.
OVERLAP_REPS = {0: 8, 1: 4, 2: 1}
LEMMA_REPS = {"purification": 42, "maxproj": 4, "epr": 4}


def cheat_bounds(seed: int, work_dir: Path) -> Workload:
    """Soundness-side work at m = 2: searches with ceilings, overlaps, lemma checks."""
    rng = np.random.default_rng(seed)
    ops = []
    for p in (0, 1, 2):
        for eps in CHEAT_EPS:
            ops += [_search_op(rng, work_dir, eps, p, rep) for rep in range(SEARCH_REPS)]
        ops += [_overlap_op(rng, float(rng.choice(CHEAT_EPS)), p, rep) for rep in range(OVERLAP_REPS[p])]
    makers = {"purification": _purification_op, "maxproj": _maxproj_op, "epr": _epr_op}
    for name, reps in LEMMA_REPS.items():
        ops += [makers[name](int(rng.integers(2**31)), rep) for rep in range(reps)]
    return _workload(ops, rng)


QRS_AUX = (0, 3, 6)
QRS_REPS = 30
SIMON_N = 8
SIMON_OPS = 2
SIMON_QUERIES_PER_BIT = 20


def _smooth_table(m: int, rng: np.random.Generator) -> reductions.DistributionTable:
    """A fixed profile in seeded order: beta, and with it the expected number
    of rounds per qrs_run, is the same for every seed (2 up, 1.5 down)."""
    raw = rng.permutation(np.linspace(0.5, 1.5, 1 << m))
    return reductions.DistributionTable(m, raw / raw.sum())


def _qrs_ops(rng, m: int, table, aux: int) -> list[Op]:
    """qrs_run on sum_q sqrt(src_q)|xi_q>|q>, one round and with the full budget."""
    uniform = reductions.DistributionTable.uniform(m)
    xi = rng.normal(size=(1 << aux, 1 << m)) + 1j * rng.normal(size=(1 << aux, 1 << m))
    xi /= np.linalg.norm(xi, axis=0)
    lay = core.layout(("aux", aux), ("index", m)) if aux else core.layout(("index", m))
    ops = []
    for direction, src, tgt in (("up", table, uniform), ("down", uniform, table)):
        plan = rejection.make_plan(src, tgt)
        state = core.StateVector(lay, (xi * np.sqrt(src.probs)).reshape(-1))
        target = (xi * np.sqrt(tgt.probs)).reshape(-1)
        inv_beta = float(np.min(src.probs / tgt.probs))
        for mode in ("one", "full"):
            budget = 1 if mode == "one" else math.ceil(rejection.BUDGET_CONSTANT / inv_beta**2)
            for rep in range(QRS_REPS):
                run_seed = int(rng.integers(2**31))

                def call(state=state, plan=plan, mode=mode, run_seed=run_seed):
                    rounds = 1 if mode == "one" else None
                    return rejection.qrs_run(state, plan, "index", max_rounds=rounds, seed=run_seed)

                check = partial(check_qrs, inv_beta=inv_beta, budget=budget, target=target)
                label = f"qrs-m{m}-aux{aux}-{direction}-{mode}-{rep}"
                ops.append(Op(f"qrs-m{m}-aux{aux}-{mode}", label, call, check))
    return ops


def _smooth_ops(rng, m: int, s: int, bit: int, table, eps: float, t: int) -> list[Op]:
    r = reductions.build_smooth_xor_reduction(m, s, bit, table)
    r = reductions.amplify(reductions.add_noise(r, eps) if eps > 0 else r, t)
    f = oracles.xor_shift_permutation(m, s)
    honest = protocols.Prover.honest()
    ops = []
    for x in range(1 << m):
        run_seed = int(rng.integers(2**31))

        def call(x=x, run_seed=run_seed):
            return protocols.run_smooth_protocol(r, f, x, honest, seed=run_seed)

        check = partial(check_smooth, p0=honest_p0(m, s, bit, x, eps, t))
        ops.append(Op(f"smooth-m{m}-t{t}", f"smooth-m{m}-t{t}-eps{eps}-x{x}", call, check))
    return ops


def resample(seed: int, work_dir: Path) -> Workload:
    """Many small calls: qrs_run, honest smooth runs, and a few Simon solves."""
    rng = np.random.default_rng(seed)
    ops = []
    for m in (2, 3):
        tables = [_smooth_table(m, rng) for _ in range(2)]
        for table in tables:
            for aux in QRS_AUX:
                ops += _qrs_ops(rng, m, table, aux)
        # One hiding permutation per width: trap_verifier caches per
        # permutation value, so a seed-dependent number of distinct shifts
        # would make memory depend on the seed.
        s, bit = int(rng.integers(1, 1 << m)), int(rng.integers(m))
        for t in (1, 3):
            for eps in (0.0, 0.1):
                ops += _smooth_ops(rng, m, s, bit, tables[0], eps, t)
    oracle = separation.build_simon_oracle(SIMON_N, SIMON_OPS, int(rng.integers(2**31)))
    for i in range(SIMON_OPS):
        run_seed = int(rng.integers(2**31))

        def call(i=i, run_seed=run_seed):
            return separation.simon_solve(oracle, i, seed=run_seed)

        check = partial(check_simon, table=oracle.tables[i], secret=oracle.secrets[i], n=SIMON_N)
        ops.append(Op("simon", f"simon-{i}", call, check))
    return _workload(ops, rng)


WORKLOADS = {"sweep-honest": sweep_honest, "cheat-bounds": cheat_bounds, "resample": resample}
