"""Amplitude resampling: plans, flag rotations, repeat-until-success runs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapqip import core, rejection
from trapqip.rejection import (
    QrsPlan,
    copies_budget_from_uniform,
    copies_budget_to_uniform,
    make_plan,
    qrs_rotation,
    qrs_round,
    qrs_run,
)
from trapqip.reductions import DistributionTable

EXAMPLE = DistributionTable(2, (0.5, 0.25, 0.125, 0.125))
UNIFORM = DistributionTable.uniform(2)


def _amplitude_state(table, name="idx"):
    lay = core.layout((name, table.m))
    return core.StateVector(lay, np.sqrt(table.probs))


def _dense_round(state, plan, index_register):
    """The reference round: adjoin the flag, apply the dense rotation, condition."""
    work = core.adjoin_register(state, "flag", 1)
    work = core.apply_on_registers(work, qrs_rotation(plan), ["flag", index_register])
    return core.condition_on(work, {"flag": 1})


def _dense_run(state, plan, index_register, max_rounds, seed):
    """qrs_run's loop on a fixed state, with the dense round recomputed every round."""
    budget = plan.round_budget if max_rounds is None else max_rounds
    rng = np.random.default_rng(seed)
    for used in range(1, budget + 1):
        p_succ, accepted = _dense_round(state, plan, index_register)
        if rng.random() < p_succ:
            return True, accepted, used, p_succ
    return False, None, budget, p_succ


class TestPlan:
    def test_example_plan_frozen_values(self):
        plan = make_plan(EXAMPLE, UNIFORM)
        np.testing.assert_allclose(plan.beta, 2.0)
        np.testing.assert_allclose(plan.alpha, [0.125] * 4)
        np.testing.assert_allclose(plan.success_probability, 0.5)
        assert plan.round_budget == 16

    def test_reverse_direction(self):
        plan = make_plan(UNIFORM, EXAMPLE)
        np.testing.assert_allclose(plan.beta, 2.0)
        np.testing.assert_allclose(plan.alpha, np.asarray(EXAMPLE.probs) / 2.0)

    def test_identity_plan_succeeds_immediately(self):
        plan = make_plan(UNIFORM, UNIFORM)
        np.testing.assert_allclose(plan.beta, 1.0)
        np.testing.assert_allclose(plan.success_probability, 1.0)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make_plan(EXAMPLE, DistributionTable.uniform(3))

    def test_target_mass_needs_source_support(self):
        holes = DistributionTable(1, (1.0, 0.0))
        with pytest.raises(ValueError):
            make_plan(holes, DistributionTable.uniform(1))

    def test_vanishing_success_refused(self):
        # 1/beta = 2 * d_0: 2e-20 is at most ATOL^2 = 1e-18, 1.2e-18 is above it
        uniform = DistributionTable.uniform(1)
        with pytest.raises(ValueError, match="succeeds with probability 2e-20, at most 1e-18"):
            make_plan(DistributionTable(1, (1e-20, 1.0)), uniform)
        assert make_plan(DistributionTable(1, (6e-19, 1.0)), uniform).success_probability > 1e-18

    def test_plan_takes_only_its_tables(self):
        assert make_plan is QrsPlan
        with pytest.raises(TypeError):
            QrsPlan(EXAMPLE, UNIFORM, beta=1.1, alpha=np.full(4, 1 / 1.1 / 4))
        plan = QrsPlan(EXAMPLE, UNIFORM)
        with pytest.raises(AttributeError):
            plan.beta = 3.0
        with pytest.raises(ValueError):
            plan.alpha[0] = 1.0

    def test_copy_budgets(self):
        assert copies_budget_to_uniform(EXAMPLE) == 4
        assert copies_budget_from_uniform(EXAMPLE) == 4
        assert copies_budget_to_uniform(UNIFORM) == 1

    def test_plan_holds_flag_amplitudes(self):
        plan = make_plan(EXAMPLE, UNIFORM)
        np.testing.assert_array_equal(plan.flag_prob, [0.25, 0.5, 1.0, 1.0])
        np.testing.assert_array_equal(plan.flag_amplitude, np.sqrt([0.25, 0.5, 1.0, 1.0]))
        with pytest.raises(ValueError):
            plan.flag_amplitude[0] = 1.0
        # no source mass: the identity block, which never raises the flag
        holes = make_plan(DistributionTable(1, (1.0, 0.0)), DistributionTable(1, (1.0, 0.0)))
        np.testing.assert_array_equal(holes.flag_amplitude, [1.0, 0.0])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_plan_invariants(self, data):
        # alpha <= source everywhere, and one round succeeds with exactly 1/beta
        m = data.draw(st.integers(1, 3), label="m")
        weights = st.lists(st.floats(0.05, 1.0), min_size=1 << m, max_size=1 << m)
        src = np.array(data.draw(weights, label="source"))
        tgt = np.array(data.draw(weights, label="target"))
        tgt[: data.draw(st.integers(0, (1 << m) - 1), label="holes")] = 0.0
        source = DistributionTable(m, src / src.sum())
        target = DistributionTable(m, tgt / tgt.sum())
        plan = make_plan(source, target)
        assert np.all(plan.alpha <= source.probs + 1e-12)
        assert plan.beta >= 1.0 - 1e-12
        assert plan.alpha.sum() == pytest.approx(plan.success_probability)
        step = qrs_round(_amplitude_state(source), plan, "idx")
        assert abs(step.success_prob - plan.success_probability) <= 1e-9


class TestRotation:
    def test_unitary(self):
        plan = make_plan(EXAMPLE, UNIFORM)
        u = qrs_rotation(plan).matrix
        np.testing.assert_allclose(u @ u.T, np.eye(8), atol=1e-12)

    def test_identity_target_leaves_flag_deterministic(self):
        plan = make_plan(UNIFORM, UNIFORM)
        step = qrs_round(_amplitude_state(UNIFORM), plan, "idx")
        np.testing.assert_allclose(step.success_prob, 1.0, atol=1e-12)


class TestRound:
    def test_success_prob_is_inverse_beta(self):
        plan = make_plan(EXAMPLE, UNIFORM)
        step = qrs_round(_amplitude_state(EXAMPLE), plan, "idx")
        np.testing.assert_allclose(step.success_prob, 0.5, atol=1e-9)

    def test_accepted_state_matches_target(self):
        # conditioning on flag=1 leaves exactly the target amplitudes
        for src, tgt in ((EXAMPLE, UNIFORM), (UNIFORM, EXAMPLE)):
            plan = make_plan(src, tgt)
            step = qrs_round(_amplitude_state(src), plan, "idx")
            want = _amplitude_state(tgt)
            assert core.trace_distance(step.accepted, want) <= 1e-9
            assert step.accepted.layout.names == ("idx",)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_round_equals_dense_path(self, data):
        # the scaled round gives exactly the dense rotation's flag=1 branch,
        # wherever the index register sits and with target holes
        m = data.draw(st.integers(1, 3), label="m")
        before = data.draw(st.integers(0, 3), label="before")
        after = data.draw(st.integers(0, 3), label="after")
        size = 1 << m
        weights = st.lists(st.floats(0.05, 1.0), min_size=size, max_size=size)
        src = np.array(data.draw(weights, label="source"))
        tgt = np.array(data.draw(weights, label="target"))
        holes = np.array(data.draw(st.lists(st.booleans(), min_size=size, max_size=size), label="holes"))
        holes[data.draw(st.integers(0, size - 1), label="kept")] = False
        tgt[holes] = 0.0
        if data.draw(st.booleans(), label="source holes"):
            src[holes] = 0.0
        plan = make_plan(DistributionTable(m, src / src.sum()), DistributionTable(m, tgt / tgt.sum()))
        regs = [("a", before)] if before else []
        regs += [("idx", m)] + ([("b", after)] if after else [])
        lay = core.layout(*regs)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        amps = rng.normal(size=lay.dim) + 1j * rng.normal(size=lay.dim)
        state = core.StateVector(lay, amps / np.linalg.norm(amps))
        step = qrs_round(state, plan, "idx")
        p_succ, accepted = _dense_round(state, plan, "idx")
        assert step.success_prob == p_succ
        assert step.accepted.layout == accepted.layout
        assert np.array_equal(step.accepted.amplitudes, accepted.amplitudes)

    def test_vanishing_success_returns_no_state(self):
        # the state lives where the target has a hole: the flag never reads 1
        plan = make_plan(DistributionTable(1, (0.5, 0.5)), DistributionTable(1, (1.0, 0.0)))
        step = qrs_round(core.basis_state(core.layout(("idx", 1)), 1), plan, "idx")
        assert step.success_prob == 0.0
        assert step.accepted is None

    def test_register_width_checked(self):
        plan = make_plan(EXAMPLE, UNIFORM)
        st = _amplitude_state(DistributionTable.uniform(3))
        with pytest.raises(ValueError):
            qrs_round(st, plan, "idx")

    def test_flag_name_collision_rejected(self):
        plan = make_plan(EXAMPLE, UNIFORM)
        st = _amplitude_state(EXAMPLE, name="flag")
        with pytest.raises(ValueError):
            qrs_round(st, plan, "flag")


class TestRun:
    def test_fixed_state_run(self):
        plan = make_plan(EXAMPLE, UNIFORM)
        res = qrs_run(_amplitude_state(EXAMPLE), plan, "idx", seed=1)
        assert res.succeeded
        assert 1 <= res.rounds_used <= plan.round_budget
        np.testing.assert_allclose(res.success_prob, 0.5, atol=1e-9)
        assert core.trace_distance(res.state, _amplitude_state(UNIFORM)) <= 1e-9

    @pytest.mark.parametrize("direction", ["up", "down"])
    def test_fixed_state_matches_dense_loop(self, direction):
        src, tgt = (EXAMPLE, UNIFORM) if direction == "up" else (UNIFORM, EXAMPLE)
        plan = make_plan(src, tgt)
        # sum_q sqrt(d_q) |xi_q>|q> with random complex unit vectors xi_q
        rng = np.random.default_rng(5)
        xi = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        xi /= np.linalg.norm(xi, axis=0)
        state = core.StateVector(core.layout(("aux", 2), ("index", 2)), (xi * np.sqrt(src.probs)).reshape(-1))
        for seed in range(50):
            for max_rounds in (None, 1):
                res = qrs_run(state, plan, "index", max_rounds=max_rounds, seed=seed)
                ok, accepted, used, p_succ = _dense_run(state, plan, "index", max_rounds, seed)
                assert (res.succeeded, res.rounds_used, res.success_prob) == (ok, used, p_succ)
                if ok:
                    assert res.state.amplitudes.tobytes() == accepted.amplitudes.tobytes()
                else:
                    assert res.state is None

    def test_fixed_state_round_computed_once(self, monkeypatch):
        plan = make_plan(EXAMPLE, UNIFORM)
        state = _amplitude_state(EXAMPLE)
        calls = []
        real_round = rejection.qrs_round

        def counting_round(*args):
            calls.append(None)
            return real_round(*args)

        monkeypatch.setattr(rejection, "qrs_round", counting_round)
        res = qrs_run(state, plan, "idx", max_rounds=8, seed=45)
        assert not res.succeeded and res.rounds_used == 8
        assert len(calls) == 1

    def test_budget_exhaustion_is_explicit_failure(self):
        plan = make_plan(EXAMPLE, UNIFORM)
        res = qrs_run(_amplitude_state(EXAMPLE), plan, "idx", max_rounds=1, seed=13)
        assert not res.succeeded
        assert res.state is None
        assert res.rounds_used == 1

    def test_bad_budget_rejected(self):
        plan = make_plan(EXAMPLE, UNIFORM)
        with pytest.raises(ValueError):
            qrs_run(_amplitude_state(EXAMPLE), plan, "idx", max_rounds=0)

    def test_seeded_round_counts_reproduce(self):
        plan = make_plan(EXAMPLE, UNIFORM)
        counts = [qrs_run(_amplitude_state(EXAMPLE), plan, "idx", seed=s).rounds_used
                  for s in range(8)]
        again = [qrs_run(_amplitude_state(EXAMPLE), plan, "idx", seed=s).rounds_used
                 for s in range(8)]
        assert counts == again

    def test_empirical_success_rate(self):
        # geometric with p = 1/2, mean 2; three sigma band over 2000 runs
        plan = make_plan(EXAMPLE, UNIFORM)
        rounds = [qrs_run(_amplitude_state(EXAMPLE), plan, "idx", seed=s).rounds_used
                  for s in range(2000)]
        mean = float(np.mean(rounds))
        assert abs(mean - 2.0) < 3 * np.sqrt(2.0 / 2000)
