"""Batch harness: config-driven runs, parameter sweeps, verification suites.

Config files are flat UTF-8 text, read line by line: a "[name]" line opens
a section (names are case-sensitive), a "key = value" line sets a key of
the open section (keys are case-folded, both sides stripped, the value
read literally), and blank lines and lines whose first non-blank
character is "#" or ";" are skipped.  A repeated section, a repeated key,
a key before any section, a line with no "=" and an indented line are
refused.  The [run] section drives both run and sweep (sweep adds range
lists in [sweep]); [qrs] and [separation] configure the demos, and a
section the command does not read is refused.  Every emitted record
embeds a digest of the raw config bytes, and identical config plus seed
gives byte-identical output.

Exit codes: 0 success, 1 invariant breach or suite failure, 2 usage or
config error, 3 resource cap.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import statistics
import sys
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import analysis, rejection, sampling, separation
from .core import CapacityError, InvariantError, StateVector, layout, require_cap, trace_distance, within_cap
from .oracles import CorruptionSet, Permutation, inversion_table, random_permutation, xor_shift_permutation
from .protocols import (
    Prover,
    branch_overlap_pair,
    cheat_upper_bound,
    footprint,
    prover_search,
    run_classical_query_protocol,
    run_protocol,
    run_smooth_protocol,
)
from .reductions import (
    DistributionTable,
    add_noise,
    amplify,
    build_smooth_xor_reduction,
    build_xor_reduction,
    load_distribution,
)

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_CAP = 3

# Column order for CSV; JSON records carry the same keys.
RECORD_FIELDS = (
    "protocol",
    "m",
    "k",
    "t",
    "eps",
    "x",
    "prover_kind",
    "p0",
    "p1",
    "accept_prob",
    "upper_bound",
    "search_value",
    "seed",
    "config_digest",
    "amplified_error",
)


class ConfigError(ValueError):
    pass


Config = dict[str, dict[str, str]]


def _read_sections(text: str, path: str) -> Config:
    """Section name -> key -> value of a config in the module docstring's grammar."""
    sections: Config = {}
    current = None
    for number, line in enumerate(text.split("\n"), 1):
        body = line.strip()
        if not body or body[0] in "#;":
            continue
        if line[0].isspace():
            problem = "indented line"
        elif body[0] == "[" and body[-1] == "]":
            name = body[1:-1]
            if name not in sections:
                current = sections[name] = {}
                continue
            problem = f"repeated section [{name}]"
        else:
            key, eq, value = body.partition("=")
            key = key.rstrip().lower()
            if not eq or not key:
                problem = "expected 'key = value' or '[section]'"
            elif current is None:
                problem = f"key {key} before any section"
            elif key in current:
                problem = f"repeated key {key}"
            else:
                current[key] = value.lstrip()
                continue
        raise ConfigError(f"malformed config {path}: line {number}: {problem}")
    return sections


def _load_config(path: str | None, sections: tuple[str, ...]) -> tuple[Config, str]:
    """The parsed config and its digest; a section the command does not read is refused."""
    if path is None:
        return {}, hashlib.sha256(b"").hexdigest()[:16]
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        text = raw.decode()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from None
    cfg = _read_sections(text, path)
    unread = [name for name in cfg if name not in sections]
    if unread:
        reads = ", ".join(f"[{name}]" for name in sections) or "no section"
        raise ConfigError(f"unknown section [{unread[0]}] in {path}; this command reads {reads}")
    return cfg, hashlib.sha256(raw).hexdigest()[:16]


def _section(cfg: Config, name: str, known: set[str]) -> dict[str, str]:
    items = cfg.get(name, {})
    unknown = sorted(set(items) - known)
    if unknown:
        raise ConfigError(f"unknown keys in [{name}]: {', '.join(unknown)}")
    return items


def _typed(section: dict[str, str], key: str, parse, default):
    if key not in section:
        return default
    try:
        return parse(section[key])
    except ValueError:
        raise ConfigError(f"bad value for {key}: {section[key]!r}") from None


@dataclass(frozen=True)
class RunConfig:
    """One protocol instance, fully determined together with the seed."""

    protocol: str = "1"
    m: int = 2
    s: int = 1
    bit: int = 0
    eps: float = 0.0
    t: int = 1
    x: int = 0
    prover: str = "honest"
    p_qubits: int = 0
    iters: int = 200
    seed: int = 0
    distribution: str | None = None
    accept_output: int = 0

    @property
    def cheat_width(self) -> int | None:
        """Private width of the cheat the prover kind makes; None for the honest and classical: provers."""
        return None if self.prover == "honest" or self.prover.startswith("classical:") else self.p_qubits


# [run] value parser per RunConfig field annotation; an empty optional string
# is unset.  The shift s is read as an m-bit string instead.
_PARSERS = {"str": str, "str | None": lambda raw: raw or None, "int": int, "float": float}
_RUN_FIELDS = fields(RunConfig)
_RUN_KEYS = {f.name for f in _RUN_FIELDS}


def _seed(seed: int) -> int:
    if seed < 0:
        raise ConfigError(f"seed = {seed} must be >= 0")
    return seed


def _parse_bits(raw: str, m: int) -> int:
    if len(raw) != m or any(ch not in "01" for ch in raw):
        raise ConfigError(f"expected an {m}-character binary string, got {raw!r}")
    return int(raw, 2)


def _run_config(cfg: Config, seed_override: int | None) -> RunConfig:
    sect = _section(cfg, "run", _RUN_KEYS)
    values = {f.name: _typed(sect, f.name, _PARSERS[f.type], f.default) for f in _RUN_FIELDS if f.name != "s"}
    m = values["m"]
    if m < 1:
        raise ConfigError(f"m = {m} must be >= 1")
    if seed_override is not None:
        values["seed"] = seed_override
    rc = RunConfig(**values, s=_parse_bits(sect["s"], m) if "s" in sect else RunConfig.s)
    _seed(rc.seed)
    if rc.protocol not in ("1", "2", "3", "classical"):
        raise ConfigError(f"unknown protocol {rc.protocol!r}")
    if not 0 <= rc.x < (1 << rc.m):
        raise ConfigError(f"x = {rc.x} does not fit {rc.m} bits")
    if not 0 <= rc.bit < rc.m:
        raise ConfigError(f"bit = {rc.bit} outside 0..{rc.m - 1}")
    if rc.accept_output not in (0, 1):
        raise ConfigError("accept_output must be 0 or 1")
    if rc.s == 0:
        raise ConfigError("the shift s must be nonzero")
    if rc.distribution is not None and rc.protocol != "3":
        raise ConfigError(f"distribution = {rc.distribution} needs protocol 3, not {rc.protocol}")
    if rc.protocol == "classical" and rc.cheat_width is not None:
        raise ConfigError(f"prover = {rc.prover} acts on quantum messages; protocol = classical sends basis queries")
    if rc.protocol != "classical" and rc.prover.startswith("classical:"):
        raise ConfigError(f"prover = {rc.prover} answers basis queries; protocol = {rc.protocol} sends quantum ones")
    if rc.p_qubits < 0:
        raise ConfigError(f"p_qubits = {rc.p_qubits} must be >= 0")
    if rc.p_qubits != 0 and rc.cheat_width is None:
        raise ConfigError(f"p_qubits = {rc.p_qubits} needs a prover with a private register, not {rc.prover}")
    if rc.prover != "search" and ("iters" in sect or "iters" in cfg.get("sweep", {})):
        raise ConfigError(f"iters needs prover = search, not {rc.prover}")
    return rc


def _build_reduction(rc: RunConfig):
    """The run's reduction and permutation.  A uniform instance is checked
    against the cap on every call, then built once per process; a
    distribution file is read and built on every call, as it may change."""
    if not 0 <= rc.eps < 1:  # NaN fails both comparisons
        raise ConfigError(f"eps = {rc.eps} outside [0, 1)")
    if rc.t != 1 and rc.protocol == "1":
        raise ConfigError("t > 1 needs protocol 2, 3, or classical")
    if rc.distribution is None:
        require_cap(4 * rc.m, "one copy")  # build_xor_reduction's rule, kept ahead of the cache
        return _uniform_instance(rc.m, rc.s, rc.bit, rc.eps, rc.t)
    base = build_smooth_xor_reduction(rc.m, rc.s, rc.bit, load_distribution(rc.distribution))
    return _noisy_amplified(base, rc.eps, rc.t), xor_shift_permutation(rc.m, rc.s)


def _noisy_amplified(base, eps: float, t: int):
    return amplify(add_noise(base, eps) if eps > 0 else base, t)


@lru_cache(maxsize=256)  # a benchmark pass makes 180 distinct records
def _uniform_instance(m: int, s: int, bit: int, eps: float, t: int):
    """The uniform-query reduction and its permutation, both frozen, built once per key."""
    return _noisy_amplified(build_xor_reduction(m, s, bit), eps, t), xor_shift_permutation(m, s)


def _build_prover(rc: RunConfig, r, f: Permutation):
    kind = rc.prover
    if kind == "honest":
        return Prover.honest(), None
    if kind.startswith("classical:"):
        answers = [int(tok) for tok in kind.split(":", 1)[1].split(",") if tok.strip()]
        return Prover.classical(answers), None
    msg = 1 << (2 * r.m * r.copies)
    if kind == "identity":
        return Prover.unitary_cheat(np.eye(msg << rc.p_qubits, msg), rc.p_qubits), None
    if kind == "search":
        return prover_search(r, f, rc.x, rc.p_qubits, rc.iters, seed=rc.seed, accept_output=rc.accept_output)
    if kind.startswith("corrupt:"):
        members = frozenset(int(tok) for tok in kind.split(":", 1)[1].split(";") if tok.strip())
        if r.copies != 1:
            raise ConfigError("corrupt prover kind supports a single copy only")
        # undo the honest oracle, then answer with the lying one
        perm = inversion_table(f, CorruptionSet(r.m, members))[inversion_table(f)]
        return Prover.unitary_cheat(np.eye(msg << rc.p_qubits, msg)[:, perm], rc.p_qubits), None
    raise ConfigError(f"unknown prover kind {kind!r}")


def _execute(rc: RunConfig, digest: str) -> dict:
    r, f = _build_reduction(rc)
    entry = {"3": "smooth", "classical": "classical"}.get(rc.protocol, "trap")
    require_cap(footprint(entry, r, rc.cheat_width), "this run")
    prover, achieved = _build_prover(rc, r, f)
    if rc.protocol == "classical":
        result = run_classical_query_protocol(r, f, rc.x, prover, seed=rc.seed, accept_output=rc.accept_output)
    elif rc.protocol == "3":
        result = run_smooth_protocol(r, f, rc.x, prover, accept_output=rc.accept_output, seed=rc.seed)
    else:
        result = run_protocol(r, f, rc.x, prover, accept_output=rc.accept_output)
    upper = None
    if rc.protocol in ("1", "2") and r.copies == 1 and within_cap(footprint("ceiling", r)):
        upper = float(cheat_upper_bound(r, f, rc.x, accept_output=rc.accept_output).bound)
    return {
        "protocol": rc.protocol,
        "m": r.m,
        "k": r.copies,
        "t": r.copies,
        "eps": rc.eps,
        "x": rc.x,
        "prover_kind": prover.kind,
        "p0": result.p0,
        "p1": result.p1,
        "accept_prob": result.accept_prob,
        "upper_bound": upper,
        "search_value": achieved,
        "seed": rc.seed,
        "config_digest": digest,
        "amplified_error": r.epsilon,
    }


def _json_bytes(payload) -> bytes:
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()


def _flat_json_bytes(record: dict) -> bytes:
    """_json_bytes of a non-empty flat dict of str, int, float and None, by the C encoder.

    json.dumps with an indent always runs the pure-Python encoder.  With no
    indent, the C encoder writes the same items, and a ",\n  " separator
    lays them out as indent=2 does: JSON escapes every newline inside a
    string, so the separator never occurs within a key or value.
    """
    body = json.dumps(record, sort_keys=True, separators=(",\n  ", ": "))
    return ("{\n  " + body[1:-1] + "\n}\n").encode()


def _csv_bytes(records) -> bytes:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(RECORD_FIELDS), lineterminator="\n")
    writer.writeheader()
    for rec in records:
        writer.writerow({k: "" if rec.get(k) is None else rec[k] for k in RECORD_FIELDS})
    return buf.getvalue().encode()


def _emit(data: bytes, out: str | None) -> None:
    if out is None:
        sys.stdout.write(data.decode())
    else:
        Path(out).write_bytes(data)


def cmd_run(args) -> int:
    cfg, digest = _load_config(args.config, ("run", "sweep"))
    rc = _run_config(cfg, args.seed)
    record = _execute(rc, digest)
    fmt = args.format or "json"
    _emit(_flat_json_bytes(record) if fmt == "json" else _csv_bytes([record]), args.out)
    return EXIT_OK


_SWEEP_KEYS = {"eps", "t", "x", "iters"}


def _parse_range(raw: str | None, parse, default: list) -> list:
    if raw is None:
        return default
    if not raw:
        return []
    return [parse(tok.strip()) for tok in raw.split(",")]


def cmd_sweep(args) -> int:
    cfg, digest = _load_config(args.config, ("run", "sweep"))
    rc = _run_config(cfg, args.seed)
    sect = _section(cfg, "sweep", _SWEEP_KEYS)
    try:
        eps_range = _parse_range(sect.get("eps"), float, [rc.eps])
        t_range = _parse_range(sect.get("t"), int, [rc.t])
        iters_range = _parse_range(sect.get("iters"), int, [rc.iters])
        raw_x = sect.get("x")
        if raw_x == "all":
            x_range = range(1 << rc.m)
        else:
            x_range = _parse_range(raw_x, int, [rc.x])
    except ValueError:
        raise ConfigError("malformed range list in [sweep]") from None
    records = []
    for eps in eps_range:
        for t in t_range:
            for iters in iters_range:
                for x in x_range:
                    point = replace(rc, eps=eps, t=t, iters=iters, x=x)
                    records.append(_execute(point, digest))
    fmt = args.format or "csv"
    _emit(_csv_bytes(records) if fmt == "csv" else _json_bytes(records), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suites; fixed sizes, exit 0 iff every check passes


def _suite_lemmas(seed: int) -> list[tuple[str, bool]]:
    rng = np.random.default_rng(seed)
    checks = []
    for i in range(40):
        w = int(rng.integers(1, 3))
        rho = sampling.random_density(1 << w, rng)
        phi, psi = sampling.purification_pair(rho, w, rng)
        channel = sampling.random_channel(w, int(rng.integers(1, 3)), rng)
        report = analysis.purification_invariance(channel, phi, psi)
        checks.append((f"purification-invariance-{i}", report.passed))
    for i in range(40):
        dim = int(rng.integers(2, 17))
        rank = int(rng.integers(1, dim))
        pi_s = sampling.random_projector(dim, rank, rng)
        phi = sampling.random_state(dim, rng)
        report = analysis.maxproj_report(pi_s, phi)
        ok = report.passed
        try:
            psi = analysis.maxproj_optimizer_state(pi_s, phi)
        except ValueError:
            psi = None
        if psi is not None:
            attained = analysis.maxproj_objective(pi_s, phi, psi)
            ok = ok and abs(attained - report.left) <= 1e-9
        checks.append((f"bisection-bound-{i}", ok))
    return checks


def _suite_claim1(seed: int) -> list[tuple[str, bool]]:
    rng = np.random.default_rng(seed)
    r = add_noise(build_xor_reduction(2, 1, 0), 0.25)
    f = xor_shift_permutation(2, 1)
    checks = []
    for i in range(30):
        p = i % 3
        u = sampling.haar_unitary(1 << (p + 4), rng)
        prover = Prover.unitary_cheat(u, prover_qubits=p)
        comp, trap = branch_overlap_pair(r, f, i % 4, prover)
        checks.append((f"query-trap-balance-{i}", abs(comp - trap) <= 1e-9))
    return checks


def _suite_epr(seed: int) -> list[tuple[str, bool]]:
    rng = np.random.default_rng(seed)
    perms = [xor_shift_permutation(3, 0), xor_shift_permutation(3, 5)]
    perms += [random_permutation(3, int(rng.integers(2**31))) for _ in range(10)]
    return [(f"oracle-free-epr-{i}", analysis.epr_trivialization(f).passed) for i, f in enumerate(perms)]


def _amplitude_state(table: DistributionTable) -> StateVector:
    return StateVector(layout(("index", table.m)), np.sqrt(table.probs))


def _suite_qrs(seed: int) -> list[tuple[str, bool]]:
    rng = np.random.default_rng(seed)
    tables = [DistributionTable(2, np.array([0.5, 0.25, 0.125, 0.125]))]
    for m in (2, 3):
        for _ in range(2):
            raw = rng.random(1 << m) + 0.2
            tables.append(DistributionTable(m, raw / raw.sum()))
    checks = []
    trials = 200
    for ti, table in enumerate(tables):
        uniform = DistributionTable.uniform(table.m)
        for label, src, tgt in (("up", table, uniform), ("down", uniform, table)):
            plan = rejection.make_plan(src, tgt)
            state = _amplitude_state(src)
            step = rejection.qrs_round(state, plan, "index")
            ok = abs(step.success_prob - plan.success_probability) <= 1e-9
            ok = ok and trace_distance(step.accepted, _amplitude_state(tgt)) <= 1e-9
            hit = 1.0 - (1.0 - plan.success_probability) ** plan.round_budget
            successes = sum(
                rejection.qrs_run(state, plan, "index", seed=seed + 7919 * ti + 97 * len(checks) + tr).succeeded
                for tr in range(trials)
            )
            sigma = math.sqrt(trials * hit * (1.0 - hit))
            ok = ok and abs(successes - trials * hit) <= 3.0 * sigma + 1e-9
            checks.append((f"qrs-{ti}-{label}", ok))
    return checks


def _suite_separation(seed: int) -> list[tuple[str, bool]]:
    checks = []
    oracle = separation.build_simon_oracle(6, 10, seed)
    for i in range(10):
        res = separation.simon_solve(oracle, i, seed=seed + 17 * i)
        checks.append((f"simon-{i}", res.secret == oracle.secrets[i] and res.queries <= 20 * 6))
    counts = [separation.classical_collision_count(oracle, 0, seed=seed + 1000 + j)[1] for j in range(15)]
    checks.append(("birthday-median", statistics.median(counts) >= 8))
    small = separation.build_simon_oracle(3, 6, seed + 5)
    lang = separation.RsrLanguage(3, 5)
    ok = all(
        separation.quantum_reduction_demo(lang, small, x, seed=seed + x).decision == lang.member(x)
        for x in range(8)
    )
    checks.append(("reduction-decisions", ok))
    big = separation.build_simon_oracle(8, 6, seed + 9)
    budget = separation.quantum_reduction_demo(
        separation.RsrLanguage(8, 0b10110001), big, 3, seed=seed + 11, classical_budget=16
    )
    checks.append(("classical-budget-abort", budget.aborted and budget.decision is None))
    return checks


_SUITES = {
    "lemmas": _suite_lemmas,
    "claim1": _suite_claim1,
    "epr": _suite_epr,
    "qrs": _suite_qrs,
    "separation": _suite_separation,
}


def cmd_verify(args) -> int:
    _, digest = _load_config(args.config, ())
    seed = _seed(args.seed if args.seed is not None else 0)
    checks = _SUITES[args.suite](seed)
    failed = [name for name, ok in checks if not ok]
    summary = {
        "suite": args.suite,
        "seed": seed,
        "total": len(checks),
        "failures": len(failed),
        "failed_checks": failed,
        "config_digest": digest,
    }
    _emit(_json_bytes(summary), args.out)
    return EXIT_OK if not failed else EXIT_INVARIANT


_QRS_KEYS = {"probs", "trials", "seed"}


def cmd_qrs_demo(args) -> int:
    cfg, digest = _load_config(args.config, ("qrs",))
    sect = _section(cfg, "qrs", _QRS_KEYS)
    default = np.array([0.5, 0.25, 0.125, 0.125])
    probs = _typed(sect, "probs", lambda raw: np.array([float(tok) for tok in raw.split(",")]), default)
    if probs.size < 2:
        raise ConfigError(f"probs = {sect['probs']} needs at least two entries")
    m = int(round(math.log2(probs.size)))
    if 1 << m != probs.size:
        raise ConfigError(f"need a power-of-two probability list, got {probs.size} entries")
    trials = _typed(sect, "trials", int, 2000)
    if trials < 0:
        raise ConfigError(f"trials = {trials} must be >= 0")
    seed = _seed(args.seed if args.seed is not None else _typed(sect, "seed", int, 0))
    table = DistributionTable(m, probs)
    plan = rejection.make_plan(table, DistributionTable.uniform(m))
    state = _amplitude_state(table)
    outcomes = [rejection.qrs_run(state, plan, "index", seed=seed + tr) for tr in range(trials)]
    successes = sum(res.succeeded for res in outcomes)
    payload = {
        "m": m,
        "beta": plan.beta,
        "success_prob": plan.success_probability,
        "alpha": [float(a) for a in plan.alpha],
        "round_budget": plan.round_budget,
        "gamma": rejection.copies_budget_to_uniform(table),
        "gamma_prime": rejection.copies_budget_from_uniform(table),
        "trials": trials,
        "successes": int(successes),
        "mean_rounds": float(np.mean([res.rounds_used for res in outcomes])) if outcomes else 0.0,
        "seed": seed,
        "config_digest": digest,
    }
    _emit(_json_bytes(payload), args.out)
    return EXIT_OK


_SEPARATION_KEYS = {"n", "instance", "classical_seeds", "seed"}


def cmd_separation_demo(args) -> int:
    cfg, digest = _load_config(args.config, ("separation",))
    sect = _section(cfg, "separation", _SEPARATION_KEYS)
    n = _typed(sect, "n", int, 8)
    instance = _typed(sect, "instance", int, 0)
    classical_seeds = _typed(sect, "classical_seeds", int, 25)
    seed = _seed(args.seed if args.seed is not None else _typed(sect, "seed", int, 0))
    if instance < 0:
        raise ConfigError(f"instance = {instance} must be >= 0")
    if classical_seeds < 1:
        raise ConfigError(f"classical_seeds = {classical_seeds} must be >= 1")
    oracle = separation.build_simon_oracle(n, instance + 1, seed)
    solved = separation.simon_solve(oracle, instance, seed=seed + 1)
    counts = [
        separation.classical_collision_count(oracle, instance, seed=seed + 100 + j)[1]
        for j in range(classical_seeds)
    ]
    payload = {
        "n": n,
        "instance": instance,
        "quantum_queries": solved.queries,
        "classical_queries_median": statistics.median(counts),
        "secret_recovered": bool(solved.secret == oracle.secrets[instance]),
        "secret": format(solved.secret, f"0{n}b"),
        "seed": seed,
        "config_digest": digest,
    }
    _emit(_json_bytes(payload), args.out)
    return EXIT_OK


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(prog="trapqip", description="Trap-protocol simulator batch harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None, help="flat key = value config file")
        p.add_argument("--seed", type=int, default=None, help="overrides any seed in the config")
        p.add_argument("--out", default=None, help="output path; stdout when absent")

    run = sub.add_parser("run", help="execute one protocol instance")
    sweep = sub.add_parser("sweep", help="cross-product of [sweep] ranges, one row per point")
    for record in (run, sweep):  # the record writers; every other command prints JSON
        common(record)
        record.add_argument("--format", choices=("json", "csv"), default=None)
    verify = sub.add_parser("verify-lemmas", help="run a fixed-seed property suite")
    verify.add_argument("suite", choices=sorted(_SUITES))
    common(verify)
    common(sub.add_parser("qrs-demo", help="rejection-sampling round statistics"))
    common(sub.add_parser("separation-demo", help="quantum vs classical oracle query ledger"))
    return parser


_HANDLERS = {
    "run": cmd_run,
    "sweep": cmd_sweep,
    "verify-lemmas": cmd_verify,
    "qrs-demo": cmd_qrs_demo,
    "separation-demo": cmd_separation_demo,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _HANDLERS[args.command](args)
    except CapacityError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except InvariantError as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
