"""Batch harness: configs in, deterministic records out, meaningful exit codes."""

import configparser
import csv
import dataclasses
import io
import json
import os
import string
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapqip import cli, protocols, reductions
from trapqip.sampling import haar_unitary


def _run(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def _write(tmp_path, text, name="job.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestRun:
    def test_default_record_to_stdout(self, tmp_path, capsys):
        cfg = _write(tmp_path, "[run]\nm = 2\ns = 01\nbit = 0\neps = 0.1\nx = 0\n")
        code, out = _run(["run", "--config", cfg], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["protocol"] == "1"
        assert rec["prover_kind"] == "honest"
        np.testing.assert_allclose(rec["accept_prob"], 0.95, atol=1e-9)
        # for an accepting input the honest overlap is already 1 - eps
        np.testing.assert_allclose(rec["upper_bound"], (1 + np.sqrt(0.9)) / 2, atol=1e-9)
        assert len(rec["config_digest"]) == 16

    def test_no_config_uses_defaults(self, capsys):
        code, out = _run(["run"], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["m"] == 2
        assert rec["eps"] == 0.0
        np.testing.assert_allclose(rec["accept_prob"], 1.0, atol=1e-9)

    def test_output_file_byte_identical_across_runs(self, tmp_path, capsys):
        cfg = _write(tmp_path, "[run]\nm = 2\ns = 01\nbit = 0\neps = 0.25\nx = 1\n")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(["run", "--config", cfg, "--out", str(a)]) == 0
        assert cli.main(["run", "--config", cfg, "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_csv_format(self, tmp_path, capsys):
        cfg = _write(tmp_path, "[run]\nm = 2\n")
        code, out = _run(["run", "--config", cfg, "--format", "csv"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert tuple(rows[0]) == cli.RECORD_FIELDS

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        cfg = _write(tmp_path, "[run]\nseed = 5\n")
        _, out = _run(["run", "--config", cfg, "--seed", "9"], capsys)
        assert json.loads(out)["seed"] == 9

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        cfg = _write(tmp_path, "[run]\nm = 2\nbogus = 1\n")
        dest = tmp_path / "never.json"
        code = cli.main(["run", "--config", cfg, "--out", str(dest)])
        capsys.readouterr()
        assert code == 2
        assert not dest.exists()

    def test_oversized_instance_hits_capacity_exit(self, tmp_path, capsys):
        cfg = _write(tmp_path, "[run]\nm = 8\ns = 00000001\n")
        code = cli.main(["run", "--config", cfg])
        capsys.readouterr()
        assert code == 3

    def test_over_budget_run_refused_before_allocation(self, tmp_path, capsys):
        # three entangled m = 2 copies need a 4096-dim identity cheat and a
        # 28-qubit state; the footprint refuses them before either is built
        cfg = _write(tmp_path, "[run]\nprotocol = 2\nm = 2\ns = 01\nt = 3\nprover = identity\n")
        tracemalloc.start()
        try:
            code = cli.main(["run", "--config", cfg])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "resource cap" in capsys.readouterr().err
        assert code == 3
        assert peak < 1 << 20

    def test_identity_cheat_private_width_is_budgeted(self, tmp_path, capsys):
        # p_qubits = 15 makes a 19-qubit isometry; the footprint refuses it
        # before the isometry is built
        cfg = _write(tmp_path, "[run]\nm = 1\ns = 1\nprover = identity\np_qubits = 15\n")
        tracemalloc.start()
        try:
            code = cli.main(["run", "--config", cfg])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "resource cap" in capsys.readouterr().err
        assert code == 3
        assert peak < 1 << 20

    def test_search_private_width_is_budgeted(self, tmp_path, capsys):
        # the searched cheat is an 11 + 8-qubit isometry, over the cap
        text = "[run]\nm = 2\ns = 01\neps = 0.25\nx = 2\nprover = search\np_qubits = 11\niters = 300\n"
        tracemalloc.start()
        try:
            code = cli.main(["run", "--config", _write(tmp_path, text)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "resource cap" in capsys.readouterr().err
        assert code == 3
        assert peak < 1 << 20

    def test_wide_identity_cheat_runs_as_its_isometry(self, tmp_path, capsys):
        # a 2^14 x 4 isometry where the dense unitary would need 28 qubits of budget
        records = []
        for p in (0, 12):
            text = f"[run]\nm = 1\ns = 1\neps = 0.25\nprover = identity\np_qubits = {p}\n"
            code, out = _run(["run", "--config", _write(tmp_path, text)], capsys)
            assert code == 0
            records.append(json.loads(out))
        assert (records[1]["p0"], records[1]["p1"]) == (records[0]["p0"], records[0]["p1"])

    @pytest.mark.parametrize(
        "command, text",
        [
            ("run", "protocol = 1\n"),
            ("run", "protocol = 3\n"),
            ("run", "protocol = classical\n"),
            ("sweep", "protocol = 2\n[sweep]\nx = all\n"),
        ],
        ids=["run-protocol-1", "run-protocol-3", "run-classical", "sweep-x-all"],
    )
    def test_wide_instance_refused_before_its_tables(self, command, text, tmp_path, capsys):
        # at m = 22 the permutation, the uniform table and the x range would
        # each hold 4M entries; the reduction builder's budget check comes first
        cfg = _write(tmp_path, f"[run]\nm = 22\ns = {1:022b}\n{text}")
        tracemalloc.start()
        try:
            code = cli.main([command, "--config", cfg])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "resource cap" in capsys.readouterr().err
        assert code == 3
        assert peak < 1 << 20

    @pytest.mark.parametrize("prover", ["identity", "corrupt:1;2"])
    def test_private_qubit_leaves_product_cheats_unchanged(self, prover, tmp_path, capsys):
        # identity and corrupt: act as the identity on the private register
        base = f"[run]\nm = 2\ns = 01\neps = 0.25\nx = 1\nprover = {prover}\n"
        records = []
        for text in (base, base + "p_qubits = 1\n"):
            code, out = _run(["run", "--config", _write(tmp_path, text)], capsys)
            assert code == 0
            records.append(json.loads(out))
        for key in ("p0", "p1"):
            np.testing.assert_allclose(records[1][key], records[0][key], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("protocol, code",[("1", 3), ("classical", 0)])
    def test_m4_refused_for_trap_runs_only(self, protocol, code, tmp_path, capsys):
        # the dense 12-qubit trap verifier is over budget; classical runs hold 12 qubits
        cfg = _write(tmp_path, f"[run]\nprotocol = {protocol}\nm = 4\ns = 0001\nx = 3\n")
        assert cli.main(["run", "--config", cfg]) == code
        capsys.readouterr()

    def test_classical_protocol_record(self, tmp_path, capsys):
        cfg = _write(tmp_path, "[run]\nprotocol = classical\nm = 2\neps = 0.3333333333333333\nt = 3\n")
        _, out = _run(["run", "--config", cfg], capsys)
        rec = json.loads(out)
        np.testing.assert_allclose(rec["accept_prob"], 1 - 7 / 27, atol=1e-9)
        assert rec["upper_bound"] is None

    def test_smooth_cheat_counts_its_normal_form(self, tmp_path, capsys):
        # three m = 1 copies with p_qubits = 6 fill the 18-qubit budget with
        # the isometry's image, p + 4mt; L(0) = 1, so p0 is the amplified error
        text = "[run]\nprotocol = 3\nm = 1\ns = 1\neps = 0.1\nt = 3\nprover = identity\np_qubits = 6\n"
        code, out = _run(["run", "--config", _write(tmp_path, text)], capsys)
        assert code == 0
        rec = json.loads(out)
        assert abs(rec["p0"] - rec["amplified_error"]) <= 1e-9
        assert abs(rec["p1"] - 1.0) <= 1e-9
        wider = _write(tmp_path, text.replace("p_qubits = 6", "p_qubits = 7"))
        assert cli.main(["run", "--config", wider]) == 3
        assert "resource cap" in capsys.readouterr().err


class TestRefusedConfigs:
    """A config that would run something other than what it asks for exits 2."""

    @pytest.mark.parametrize(
        "command, text, key",
        [
            ("run", "[run]\neps = -0.25\n", "eps"),
            ("run", "[run]\neps = nan\n", "eps"),
            ("sweep", "[run]\nm = 2\n[sweep]\neps = 0, -0.25\n", "eps"),
            ("sweep", "[run]\nm = 2\n[sweep]\neps = 0.1, nan\n", "eps"),
            ("separation-demo", "[separation]\nn = 6\ninstance = -1\n", "instance"),
            ("qrs-demo", "[qrs]\ntrials = -3\n", "trials"),
            ("qrs-demo", "[qrs]\nprobs = 1\n", "probs"),
            ("qrs-demo", "[qrs]\nprobs = 0.5, x\n", "bad value for probs: '0.5, x'"),
            ("qrs-demo", "[qrs]\nprobs =\n", "bad value for probs: ''"),
            ("run", "[run]\nprover = search\niters = -5\n", "iters"),
            ("sweep", "[run]\nm = 2\nprover = search\n[sweep]\niters = 10, -1\n", "iters"),
            ("separation-demo", "[separation]\nn = 6\nclassical_seeds = 0\n", "classical_seeds"),
            ("separation-demo", "[separation]\nn = 6\nclassical_seeds = -3\n", "classical_seeds"),
            ("run", "[run]\nprotocol = 1\ndistribution = nope.txt\n", "distribution"),
            ("sweep", "[run]\nprotocol = classical\ndistribution = nope.txt\n", "distribution"),
            ("run", "[run]\nprover = honest\np_qubits = 2\n", "p_qubits"),
            ("sweep", "[run]\nprotocol = classical\nprover = classical:0,1\np_qubits = 1\n", "p_qubits"),
            ("run", "[run]\niters = 5\n", "iters"),
            ("run", "[run]\nprover = identity\niters = 5\n", "iters"),
            ("sweep", "[run]\nm = 2\n[sweep]\niters = 10, 20\n", "iters"),
            ("run", "[run]\nprotocol = classical\nm = 2\nprover = classical:0,1,2,99\n", "answer 99"),
            ("run", "[run]\nprotocol = classical\nm = 2\nprover = classical:99,99,99,99\n", "answer 99"),
            ("sweep", "[run]\nprotocol = classical\nm = 2\nprover = classical:0,-1,2,3\n", "answer -1"),
            ("run", "[run]\nprotocol = classical\nm = 2\nprover = identity\n", "prover"),
            ("sweep", "[run]\nprotocol = classical\nm = 1\nprover = corrupt:0\n", "prover"),
            ("run", "[run]\nprotocol = 1\nm = 2\nprover = classical:1,0,3,2\n", "prover"),
            ("sweep", "[run]\nprotocol = 3\nm = 2\nprover = classical:1,0,3,2\n", "prover"),
            ("run", "[run]\nprover = identity\np_qubits = -1\n", "p_qubits"),
            ("sweep", "[run]\nprover = corrupt:1\np_qubits = -2\n", "p_qubits"),
            ("run", "[run]\nprotocol = 1\nseed = -1\n", "seed"),
            ("run", "[run]\nprotocol = 3\nseed = -1\n", "seed"),
            ("sweep", "[run]\nprotocol = classical\nseed = -1\n", "seed"),
            ("run", "[run]\nprover = search\nseed = -1\n", "seed"),
            ("qrs-demo", "[qrs]\nseed = -3\n", "seed"),
            ("separation-demo", "[separation]\nn = 6\nseed = -3\n", "seed"),
        ],
        ids=[
            "run-eps-negative", "run-eps-nan", "sweep-eps-negative", "sweep-eps-nan", "negative-instance",
            "negative-trials", "qrs-one-entry", "qrs-malformed-entry", "qrs-empty-probs", "run-iters-negative",
            "sweep-iters-negative", "zero-classical-seeds",
            "negative-classical-seeds", "run-distribution-protocol-1", "sweep-distribution-classical",
            "run-p-qubits-honest", "sweep-p-qubits-classical", "run-iters-honest", "run-iters-identity",
            "sweep-iters-honest", "run-answer-past-last-query", "run-answers-all-out-of-range",
            "sweep-answer-negative", "run-identity-classical", "sweep-corrupt-classical",
            "run-classical-prover-protocol-1", "sweep-classical-prover-protocol-3",
            "run-p-qubits-negative", "sweep-p-qubits-negative", "run-seed-negative-protocol-1",
            "run-seed-negative-protocol-3", "sweep-seed-negative-classical", "run-seed-negative-search",
            "qrs-seed-negative", "separation-seed-negative",
        ],
    )
    def test_usage_exit_without_output(self, command, text, key, tmp_path, capsys):
        dest = tmp_path / "never.out"
        code = cli.main([command, "--config", _write(tmp_path, text), "--out", str(dest)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {key}")
        assert not dest.exists()

    @pytest.mark.parametrize(
        "argv, text, section",
        [
            (["run"], "[Run]\nm = 3\nprotocol = 2\nt = 3\n", "[Run]"),
            (["run"], "[DEFAULT]\nm = 3\n", "[DEFAULT]"),
            (["sweep"], "[run]\nm = 2\n[swep]\nx = all\n", "[swep]"),
            (["verify-lemmas", "epr"], "[run]\nm = 2\nprotocol = 2\n", "[run]"),
            (["qrs-demo"], "[qrs]\ntrials = 5\n[run]\nm = 2\n", "[run]"),
            (["separation-demo"], "[seperation]\nn = 6\n", "[seperation]"),
        ],
        ids=["run", "run-default", "sweep", "verify-lemmas", "qrs-demo", "separation-demo"],
    )
    def test_unread_section_refused(self, argv, text, section, tmp_path, capsys):
        dest = tmp_path / "never.out"
        assert cli.main([*argv, "--config", _write(tmp_path, text), "--out", str(dest)]) == 2
        assert capsys.readouterr().err.startswith(f"error: unknown section {section} in ")
        assert not dest.exists()

    @pytest.mark.parametrize(
        "argv",
        [["run"], ["sweep"], ["verify-lemmas", "epr"], ["qrs-demo"], ["separation-demo"]],
        ids=["run", "sweep", "verify-lemmas", "qrs-demo", "separation-demo"],
    )
    def test_negative_seed_flag_refused(self, argv, tmp_path, capsys):
        dest = tmp_path / "never.out"
        assert cli.main([*argv, "--seed", "-3", "--out", str(dest)]) == 2
        assert capsys.readouterr().err == "error: seed = -3 must be >= 0\n"
        assert not dest.exists()

    def test_search_refused_before_it_runs_under_classical_protocol(self, tmp_path, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("the search ran for a protocol that refuses its cheat")

        monkeypatch.setattr(cli, "prover_search", never)
        text = "[run]\nprotocol = classical\nm = 2\nprover = search\np_qubits = 2\niters = 20000\n"
        assert cli.main(["run", "--config", _write(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: prover = search") and "protocol = classical" in err

    @pytest.mark.parametrize("field", ["-1", "+1"])
    def test_non_binary_distribution_query_refused(self, field, tmp_path, capsys):
        dist = tmp_path / "dist.txt"
        dist.write_text(f"00 0.25\n01 0.25\n10 0.25\n{field} 0.25\n")
        text = f"[run]\nprotocol = 3\nm = 2\ndistribution = {dist}\n"
        assert cli.main(["run", "--config", _write(tmp_path, text)]) == 2
        assert capsys.readouterr().err == f"error: {dist}: line 4: expected '<2-bit q> <prob>'\n"

    @pytest.mark.parametrize("command", ["run", "qrs-demo"])
    def test_vanishing_resampling_refused(self, command, tmp_path):
        # query 0 carries 1e-20, so resampling it up to uniform succeeds with
        # 2e-20 per round: the plan is refused as a usage error
        dist = tmp_path / "tiny.txt"
        dist.write_text("0 1e-20\n1 1\n")
        text = {
            "run": f"[run]\nprotocol = 3\nm = 1\ns = 1\ndistribution = {dist}\n",
            "qrs-demo": "[qrs]\nprobs = 1e-20, 1\n",
        }[command]
        argv = [sys.executable, "-m", "trapqip.cli", command, "--config", _write(tmp_path, text)]
        done = subprocess.run(argv, env=_blas_env(1), timeout=60, capture_output=True, text=True)
        assert done.returncode == 2
        assert done.stderr.startswith("error: a resampling round succeeds with probability 2e-20")
        assert "Traceback" not in done.stderr


class TestRemovedOptions:
    """Keys and flags that changed no output are refused as usage errors."""

    @pytest.mark.parametrize("key", ["gamma", "gamma_prime"])
    def test_budget_keys_are_unknown(self, key, tmp_path, capsys):
        cfg = _write(tmp_path, f"[run]\nprotocol = 3\n{key} = 3\n")
        assert cli.main(["run", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"error: unknown keys in [run]: {key}\n"

    def test_separation_instances_is_unknown(self, tmp_path, capsys):
        # instance i is drawn i-th whatever the count, so the count changed nothing
        cfg = _write(tmp_path, "[separation]\nn = 6\ninstances = 2\n")
        assert cli.main(["separation-demo", "--config", cfg]) == 2
        assert capsys.readouterr().err == "error: unknown keys in [separation]: instances\n"

    @pytest.mark.parametrize(
        "argv", [["verify-lemmas", "epr"], ["qrs-demo"], ["separation-demo"]], ids=lambda argv: argv[0]
    )
    def test_format_only_on_record_commands(self, argv, capsys):
        assert cli.main([*argv, "--format", "csv"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --format csv" in captured.err


class TestRunConfig:
    def test_every_run_key_parsed(self, tmp_path):
        # every [run] key set to a value other than its default
        raw = {
            "protocol": "3", "m": "3", "s": "101", "bit": "2", "eps": "0.25", "t": "5", "x": "6",
            "prover": "search", "p_qubits": "1", "iters": "7", "seed": "11", "distribution": "dist.txt",
            "accept_output": "1",
        }
        want = cli.RunConfig(
            protocol="3", m=3, s=0b101, bit=2, eps=0.25, t=5, x=6, prover="search", p_qubits=1, iters=7,
            seed=11, distribution="dist.txt", accept_output=1,
        )
        text = "[run]\n" + "".join(f"{k} = {v}\n" for k, v in raw.items())
        cfg, _ = cli._load_config(_write(tmp_path, text), ("run", "sweep"))
        rc = cli._run_config(cfg, None)
        fields = dataclasses.fields(cli.RunConfig)
        assert set(raw) == {f.name for f in fields}
        for f in fields:
            got, expected = getattr(rc, f.name), getattr(want, f.name)
            assert expected != f.default, f.name
            assert got == expected and type(got) is type(expected), f.name

    def test_empty_distribution_is_unset(self, tmp_path):
        cfg, _ = cli._load_config(_write(tmp_path, "[run]\ndistribution =\n"), ("run", "sweep"))
        assert cli._run_config(cfg, None) == cli.RunConfig()


_NAME_CHARS = string.ascii_letters + string.digits + "_-."
# printable one-line values; % is excluded because ConfigParser interpolates it
_VALUE_CHARS = "".join(ch for ch in string.printable if ch not in "%\n\r\x0b\x0c")


@st.composite
def _flat_configs(draw):
    """A config inside the grammar, rendered with varied spacing, case and comments."""
    names = draw(st.lists(st.text(_NAME_CHARS + " ", min_size=1, max_size=6), max_size=4, unique=True))
    lines, sections = [], {}
    for name in names:
        if name == "DEFAULT":  # ConfigParser's defaults, refused here as an unread section
            continue
        keys = st.text(_NAME_CHARS, min_size=1, max_size=6).map(str.lower)
        items = draw(st.dictionaries(keys, st.text(_VALUE_CHARS, max_size=10), max_size=4))
        sections[name] = {key: value.strip() for key, value in items.items()}
        lines.append(f"[{name}]")
        for key, value in items.items():
            spelled = "".join(draw(st.sampled_from([ch.lower(), ch.upper()])) for ch in key)
            lines.append(spelled + draw(st.sampled_from(["=", " = ", "  =", "= ", "\t=\t"])) + value)
            lines.append(draw(st.sampled_from(["", "   ", "# note", "; note", "  # indented note"])))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"])), sections


class TestConfigGrammar:
    """[section] headers and key = value lines, read literally."""

    @settings(max_examples=200, deadline=None)
    @given(config=_flat_configs())
    def test_matches_configparser_inside_the_grammar(self, config):
        text, sections = config
        reference = configparser.ConfigParser()
        reference.read_string(text)
        want = {name: dict(reference.items(name)) for name in reference.sections()}
        assert want == sections
        assert cli._read_sections(text, "job.cfg") == want

    @pytest.mark.parametrize(
        "text, line",
        [
            ("[run]\nm = 2\n[sweep]\nx = all\n[run]\nt = 3\n", 5),
            ("[run]\nm = 2\n# comment\nM = 3\n", 4),
            ("m = 2\n[run]\n", 1),
            ("[run]\nm : 2\n", 2),
            ("[run]\n= 2\n", 2),
            ("[run]\nprover = classical:0,\n  1,2,3\n", 3),
            ("[run]\n  m = 2\n", 2),
        ],
        ids=[
            "repeated-section", "repeated-key", "key-before-section", "colon-delimiter", "empty-key",
            "continuation-line", "indented-key",
        ],
    )
    def test_malformed_line_refused(self, text, line, tmp_path, capsys):
        dest = tmp_path / "never.out"
        cfg = _write(tmp_path, text)
        assert cli.main(["run", "--config", cfg, "--out", str(dest)]) == 2
        assert capsys.readouterr().err.startswith(f"error: malformed config {cfg}: line {line}: ")
        assert not dest.exists()

    @pytest.mark.parametrize("name", ["50%.txt", "100%%.txt"])
    def test_percent_in_value_is_literal(self, name, tmp_path, capsys):
        dist = tmp_path / name
        dist.write_text("00 0.125\n01 0.375\n10 0.25\n11 0.25\n")
        # L(x) = 0 at x = 0, so the honest p0 is 1 - amplified_error
        text = f"[run]\nprotocol = 3\nm = 2\ns = 01\nbit = 0\neps = 0.1\nx = 0\ndistribution = {dist}\n"
        code, out = _run(["run", "--config", _write(tmp_path, text)], capsys)
        assert code == 0
        rec = json.loads(out)
        assert abs(rec["p0"] - (1 - rec["amplified_error"])) <= 1e-9


class TestParserCache:
    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_cached_parser_keeps_no_state(self, tmp_path, capsys):
        # the classical engine draws its queries from the seed, so a seed left
        # behind by an earlier call would change the record, not just its field
        cfg = _write(tmp_path, "[run]\nprotocol = classical\nm = 2\neps = 0.1\nt = 3\nx = 1\nseed = 3\n")
        cli.build_parser.cache_clear()
        first = _run(["run", "--config", cfg], capsys)
        code, out = _run(["run", "--config", cfg, "--seed", "5", "--format", "csv"], capsys)
        assert code == 0
        assert next(csv.DictReader(io.StringIO(out)))["seed"] == "5"
        assert cli.main(["run", "--config", cfg, "--bogus"]) == 2
        capsys.readouterr()
        last = _run(["run", "--config", cfg], capsys)
        assert last == first
        assert json.loads(last[1])["seed"] == 3


def _blas_env(blas_threads: int) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)
    env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _record_in_subprocess(config: str, blas_threads: int, tmp_path) -> bytes:
    dest = tmp_path / f"rec-{blas_threads}.json"
    argv = [sys.executable, "-m", "trapqip.cli", "run", "--config", _write(tmp_path, config), "--out", str(dest)]
    subprocess.run(argv, env=_blas_env(blas_threads), check=True, timeout=120)
    return dest.read_bytes()


# Every value of m = 1, t = 3 cheats with p = 1 and 2, printed as bytes:
# run_protocol's p0 at both accept_output values and p1, and the two branch
# overlaps.  At p = 2 the p0 sum runs over 2^14 entries, more than OpenBLAS
# keeps on one thread.
CHEAT_VALUES = """
import sys
import numpy as np
from trapqip.oracles import xor_shift_permutation
from trapqip.protocols import Prover, branch_overlap_pair, run_protocol
from trapqip.reductions import add_noise, amplify, build_xor_reduction

r = amplify(add_noise(build_xor_reduction(1, 1, 0), 0.1), 3)
f = xor_shift_permutation(1, 1)
for p, path in enumerate(sys.argv[1:], start=1):
    prover = Prover.unitary_cheat(np.load(path), p)
    for x in (0, 1):
        values = [run_protocol(r, f, x, prover, accept_output=a) for a in (0, 1)]
        print(repr([values[0].p0, values[1].p0, values[0].p1, *branch_overlap_pair(r, f, x, prover)]))
"""


class TestBlasThreads:
    @pytest.mark.parametrize(
        "config",
        [
            "[run]\nprotocol = 2\nm = 3\ns = 011\nbit = 2\neps = 0.1\nt = 5\nx = 5\n",
            "[run]\nprotocol = classical\nm = 3\ns = 110\nbit = 0\neps = 0.25\nt = 3\nx = 2\nseed = 11\n",
            # 300 iterations run one climb from a Haar isometry
            "[run]\nprotocol = 1\nm = 2\neps = 0.25\nx = 2\nprover = search\np_qubits = 1\niters = 300\n",
            # its Haar start is a 2048 x 16 isometry
            "[run]\nprotocol = 1\nm = 2\neps = 0.25\nx = 2\nprover = search\np_qubits = 7\niters = 300\n",
            # the searched cheat scored by the smooth engine on the uniform normal form
            "[run]\nprotocol = 3\nm = 2\neps = 0.25\nx = 2\nprover = search\np_qubits = 7\niters = 300\n",
        ],
        ids=[
            "honest-trap-m3-t5", "classical-m3-t3", "search-m2-p1-haar-climb", "search-m2-p7-haar-climb",
            "smooth-search-m2-p7-haar-climb",
        ],
    )
    def test_record_bytes_independent_of_blas_threads(self, config, tmp_path):
        assert _record_in_subprocess(config, 1, tmp_path) == _record_in_subprocess(config, 2, tmp_path)

    def test_multi_copy_cheat_bytes_independent_of_blas_threads(self, tmp_path):
        # the isometries are drawn once and loaded by both runs, since a Haar
        # draw's QR itself depends on the thread count
        rng = np.random.default_rng(5)
        paths = [str(tmp_path / f"cheat{p}.npy") for p in (1, 2)]
        for p, path in zip((1, 2), paths):
            np.save(path, haar_unitary(64 << p, rng)[:, :64])

        def values(blas_threads):
            argv = [sys.executable, "-c", CHEAT_VALUES, *paths]
            done = subprocess.run(argv, env=_blas_env(blas_threads), check=True, timeout=120, capture_output=True)
            return done.stdout

        assert values(1) == values(2)


# Exact `trapqip run` output for fixed configs: any change to the arithmetic
# of the engines, the builders or the record format shows up here.
PINNED_RECORDS = [
    (
        "[run]\nprotocol = 2\nm = 3\ns = 101\nbit = 1\neps = 0.1\nt = 3\nx = 6\n",
        """{
  "accept_prob": 0.513999999999999,
  "amplified_error": 0.028000000000000008,
  "config_digest": "80f1b505c6e88ef7",
  "eps": 0.1,
  "k": 3,
  "m": 3,
  "p0": 0.028000000000000025,
  "p1": 0.999999999999998,
  "protocol": "2",
  "prover_kind": "honest",
  "search_value": null,
  "seed": 0,
  "t": 3,
  "upper_bound": null,
  "x": 6
}
""",
    ),
    (
        "[run]\nprotocol = 1\nm = 3\ns = 011\nbit = 2\neps = 0.25\nx = 5\n",
        """{
  "accept_prob": 0.8749999999999997,
  "amplified_error": 0.25,
  "config_digest": "31af57d4b5866b84",
  "eps": 0.25,
  "k": 1,
  "m": 3,
  "p0": 0.75,
  "p1": 0.9999999999999993,
  "protocol": "1",
  "prover_kind": "honest",
  "search_value": null,
  "seed": 0,
  "t": 1,
  "upper_bound": null,
  "x": 5
}
""",
    ),
    (
        "[run]\nprotocol = classical\nm = 3\ns = 110\nbit = 0\neps = 0.1\nt = 3\nx = 3\nseed = 4\n",
        """{
  "accept_prob": 0.028000000000000025,
  "amplified_error": 0.028000000000000008,
  "config_digest": "008f0daa21960a5a",
  "eps": 0.1,
  "k": 3,
  "m": 3,
  "p0": 0.028000000000000025,
  "p1": 0.028000000000000025,
  "protocol": "classical",
  "prover_kind": "honest",
  "search_value": null,
  "seed": 4,
  "t": 3,
  "upper_bound": null,
  "x": 3
}
""",
    ),
]


PINNED_SMOOTH_RECORD = """{
  "accept_prob": 0.9859999999999989,
  "amplified_error": 0.028000000000000008,
  "config_digest": "a54b3cc2506bc8f1",
  "eps": 0.1,
  "k": 3,
  "m": 3,
  "p0": 0.9719999999999999,
  "p1": 0.999999999999998,
  "protocol": "3",
  "prover_kind": "honest",
  "search_value": null,
  "seed": 0,
  "t": 3,
  "upper_bound": null,
  "x": 3
}
"""

# Default-config output of the two QRS commands: the seeded flag outcomes and
# every check of the qrs lemma suite.
PINNED_QRS_OUTPUTS = [
    (
        ["qrs-demo"],
        """{
  "alpha": [
    0.125,
    0.125,
    0.125,
    0.125
  ],
  "beta": 2.0,
  "config_digest": "e3b0c44298fc1c14",
  "gamma": 4,
  "gamma_prime": 4,
  "m": 2,
  "mean_rounds": 2.032,
  "round_budget": 16,
  "seed": 0,
  "success_prob": 0.5,
  "successes": 2000,
  "trials": 2000
}
""",
    ),
    (
        ["verify-lemmas", "qrs"],
        """{
  "config_digest": "e3b0c44298fc1c14",
  "failed_checks": [],
  "failures": 0,
  "seed": 0,
  "suite": "qrs",
  "total": 10
}
""",
    ),
]

# Default-config output of the two separation commands: the seeded Simon
# solve with its query ledger, and every check of the separation lemma suite.
PINNED_SEPARATION_OUTPUTS = [
    (
        ["separation-demo"],
        """{
  "classical_queries_median": 20,
  "config_digest": "e3b0c44298fc1c14",
  "instance": 0,
  "n": 8,
  "quantum_queries": 9,
  "secret": "11011001",
  "secret_recovered": true,
  "seed": 0
}
""",
    ),
    (
        ["verify-lemmas", "separation"],
        """{
  "config_digest": "e3b0c44298fc1c14",
  "failed_checks": [],
  "failures": 0,
  "seed": 0,
  "suite": "separation",
  "total": 13
}
""",
    ),
]


class TestInstanceCache:
    """A uniform instance is built once per process, and the cap is checked on every call."""

    CONFIG = "[run]\nprotocol = 2\nm = 3\ns = 101\nbit = 1\neps = 0.1\nt = 3\nx = 3\n"

    def test_cap_checked_after_a_cache_hit(self, tmp_path, monkeypatch, capsys):
        cfg = _write(tmp_path, self.CONFIG)
        assert cli.main(["run", "--config", cfg]) == 0
        capsys.readouterr()
        monkeypatch.setenv("TRAPQIP_MAX_QUBITS", "11")
        dest = tmp_path / "never.json"
        assert cli.main(["run", "--config", cfg, "--out", str(dest)]) == 3
        assert capsys.readouterr().err == "resource cap: one copy needs 12 qubits of budget, cap is 11\n"
        assert not dest.exists()

    def test_second_run_is_a_cache_hit_with_the_same_bytes(self, tmp_path, capsys):
        cfg = _write(tmp_path, self.CONFIG)
        cli._uniform_instance.cache_clear()
        first = _run(["run", "--config", cfg], capsys)
        hits = cli._uniform_instance.cache_info().hits
        assert _run(["run", "--config", cfg], capsys) == first
        assert cli._uniform_instance.cache_info().hits == hits + 1

    def test_distribution_runs_are_not_cached(self, tmp_path, monkeypatch, capsys):
        # the file is read on every run, so an edit between runs shows
        monkeypatch.chdir(tmp_path)
        (tmp_path / "dist.txt").write_text("0 0.25\n1 0.75\n")
        cfg = _write(tmp_path, "[run]\nprotocol = 3\nm = 1\ns = 1\ndistribution = dist.txt\n")
        _, first = _run(["run", "--config", cfg], capsys)
        (tmp_path / "dist.txt").write_text("0 0.5\n1 0.6\n")
        assert cli.main(["run", "--config", cfg]) == 2
        assert "sum to 1.1" in capsys.readouterr().err
        (tmp_path / "dist.txt").write_text("0 0.25\n1 0.75\n")
        assert _run(["run", "--config", cfg], capsys) == (0, first)


_FLAT_TEXT = st.text(st.sampled_from(['"', "\\", "\n", "\t", "a", "Z", "é", "∑", "\x00", "😀", " ", ":", ","]))


class TestFlatRecordWriter:
    @settings(max_examples=300, deadline=None)
    @given(
        st.dictionaries(
            st.text(),
            st.none() | st.booleans() | st.integers() | st.floats() | st.just(-0.0) | _FLAT_TEXT | st.text(),
            min_size=1,  # a record always has keys
        )
    )
    def test_matches_indent_2(self, record):
        assert cli._flat_json_bytes(record) == (json.dumps(record, sort_keys=True, indent=2) + "\n").encode()


class TestPinnedRecords:
    @pytest.mark.parametrize("config, record", PINNED_RECORDS, ids=["protocol2", "protocol1", "classical"])
    def test_record_bytes(self, config, record, tmp_path, capsys):
        dest = tmp_path / "rec.json"
        assert cli.main(["run", "--config", _write(tmp_path, config), "--out", str(dest)]) == 0
        capsys.readouterr()
        assert dest.read_bytes() == record.encode()

    def test_smooth_record_bytes(self, tmp_path, monkeypatch, capsys):
        # protocol 3 resamples every query up to uniform and back down
        probs = ["0.09375", "0.15625", "0.125", "0.09375", "0.15625", "0.125", "0.0625", "0.1875"]
        (tmp_path / "dist.txt").write_text("".join(f"{q:03b} {d}\n" for q, d in enumerate(probs)))
        monkeypatch.chdir(tmp_path)
        config = "[run]\nprotocol = 3\nm = 3\ns = 110\nbit = 1\neps = 0.1\nt = 3\nx = 3\ndistribution = dist.txt\n"
        assert cli.main(["run", "--config", _write(tmp_path, config), "--out", "rec.json"]) == 0
        capsys.readouterr()
        assert (tmp_path / "rec.json").read_bytes() == PINNED_SMOOTH_RECORD.encode()

    @pytest.mark.parametrize("argv, output", PINNED_QRS_OUTPUTS, ids=["qrs-demo", "verify-lemmas-qrs"])
    def test_qrs_output_bytes(self, argv, output, capsys):
        assert _run(argv, capsys) == (0, output)

    @pytest.mark.parametrize(
        "argv, output", PINNED_SEPARATION_OUTPUTS, ids=["separation-demo", "verify-lemmas-separation"]
    )
    def test_separation_output_bytes(self, argv, output, capsys):
        assert _run(argv, capsys) == (0, output)

class TestSweep:
    def test_eps_range_tracks_completeness(self, tmp_path, capsys):
        cfg = _write(tmp_path, "[run]\nm = 2\n[sweep]\neps = 0, 0.1, 0.25\n")
        code, out = _run(["sweep", "--config", cfg], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [float(r["eps"]) for r in rows] == [0.0, 0.1, 0.25]
        for r in rows:
            np.testing.assert_allclose(float(r["accept_prob"]), 1 - float(r["eps"]) / 2, atol=1e-9)

    def test_t_range_reports_amplified_error(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            "[run]\nprotocol = classical\nm = 2\neps = 0.3333333333333333\n[sweep]\nt = 1, 3\n",
        )
        _, out = _run(["sweep", "--config", cfg], capsys)
        rows = list(csv.DictReader(io.StringIO(out)))
        np.testing.assert_allclose(float(rows[0]["amplified_error"]), 1 / 3, atol=1e-9)
        np.testing.assert_allclose(float(rows[1]["amplified_error"]), 7 / 27, atol=1e-9)

    def test_x_all_expands_every_input(self, tmp_path, capsys):
        cfg = _write(tmp_path, "[run]\nm = 2\n[sweep]\nx = all\n")
        _, out = _run(["sweep", "--config", cfg], capsys)
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [int(r["x"]) for r in rows] == [0, 1, 2, 3]

    @pytest.mark.parametrize("protocol", ["2", "3", "classical"])
    def test_warm_sweep_matches_cold_runs(self, protocol, tmp_path, capsys):
        head = f"[run]\nprotocol = {protocol}\nm = 3\ns = 101\nbit = 1\neps = 0.1\n"
        cfg = _write(tmp_path, head + "[sweep]\nt = 1, 3, 5\nx = all\n")
        _run(["sweep", "--config", cfg], capsys)  # fills every cache the sweep reads
        _, out = _run(["sweep", "--config", cfg], capsys)
        warm = [(r["t"], r["x"], r["p0"], r["p1"]) for r in csv.DictReader(io.StringIO(out))]
        cold = []
        for t in (1, 3, 5):
            for x in range(8):
                point = _write(tmp_path, head + f"t = {t}\nx = {x}\n", name="point.cfg")
                protocols._honest_trap_accept.cache_clear()
                reductions._uniform_table.cache_clear()
                cli._uniform_instance.cache_clear()
                _, out = _run(["run", "--config", point, "--format", "csv"], capsys)
                (row,) = csv.DictReader(io.StringIO(out))
                cold.append((row["t"], row["x"], row["p0"], row["p1"]))
        assert warm == cold

    def test_empty_range_emits_header_only(self, tmp_path, capsys):
        cfg = _write(tmp_path, "[run]\nm = 2\n[sweep]\neps =\n")
        code, out = _run(["sweep", "--config", cfg], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert tuple(lines[0].split(",")) == cli.RECORD_FIELDS


class TestVerify:
    @pytest.mark.parametrize("suite", ["epr", "claim1", "lemmas"])
    def test_fast_suites_pass(self, suite, capsys):
        code, out = _run(["verify-lemmas", suite], capsys)
        assert code == 0
        summary = json.loads(out)
        assert summary["suite"] == suite
        assert summary["failures"] == 0
        assert summary["failed_checks"] == []
        assert summary["total"] > 0

    def test_unknown_suite_is_usage_error(self, capsys):
        code = cli.main(["verify-lemmas", "nonsense"])
        capsys.readouterr()
        assert code == 2


class TestDemos:
    def test_qrs_demo_statistics(self, tmp_path, capsys):
        cfg = _write(tmp_path, "[qrs]\ntrials = 300\n")
        code, out = _run(["qrs-demo", "--config", cfg], capsys)
        assert code == 0
        p = json.loads(out)
        np.testing.assert_allclose(p["beta"], 2.0)
        np.testing.assert_allclose(p["alpha"], [0.125] * 4)
        assert p["round_budget"] == 16
        assert p["gamma"] == 4 and p["gamma_prime"] == 4
        assert p["successes"] == 300
        assert 1.0 <= p["mean_rounds"] <= 4.0

    def test_non_finite_probability_refused(self, tmp_path, capsys):
        dist = tmp_path / "nan.txt"
        dist.write_text("000 nan\n001 0.5\n010 0.25\n011 0.25\n100 0\n101 0\n110 0\n111 0\n")
        configs = [
            ("qrs-demo", "[qrs]\nprobs = nan, 0.5, 0.25, 0.25\n"),
            ("run", f"[run]\nprotocol = 3\nm = 3\ns = 110\ndistribution = {dist}\n"),
        ]
        for command, text in configs:
            assert cli.main([command, "--config", _write(tmp_path, text)]) == cli.EXIT_USAGE
            assert capsys.readouterr().err == "error: probability entries must be finite\n"

    def test_separation_demo_ledger(self, tmp_path, capsys):
        cfg = _write(tmp_path, "[separation]\nn = 6\nclassical_seeds = 5\n")
        code, out = _run(["separation-demo", "--config", cfg], capsys)
        assert code == 0
        p = json.loads(out)
        assert p["n"] == 6
        assert p["secret_recovered"]
        assert p["quantum_queries"] <= 20 * 6
        assert p["classical_queries_median"] >= 2
        assert len(p["secret"]) == 6
