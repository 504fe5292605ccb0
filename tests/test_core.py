"""Register layout and linear algebra kernel."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trapqip.core import (
    CapacityError,
    DensityOperator,
    InvariantError,
    LayoutError,
    StateVector,
    UnitaryOperator,
    _orthonormal_columns,
    adjoin_register,
    apply_basis_permutation,
    apply_on_registers,
    basis_state,
    close,
    condition_on,
    fidelity,
    layout,
    measure_probability,
    partial_trace,
    qubit_cap,
    reorder_registers,
    tensor_product,
    trace_distance,
)
from trapqip.protocols import Prover
from trapqip.sampling import haar_isometry

H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)

NON_FINITE = [math.nan, math.inf, -math.inf]


@st.composite
def _close_pairs(draw):
    """(a, b, atol) for close: b an array of shape 1-4 x 1-4 (real or complex)
    or a float scalar; a's entries sit at fractions of the tolerance from b's,
    one of them maybe just past it, and NaN or infinities may be drawn into both."""
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    size = shape[0] * shape[1]
    atol = draw(st.sampled_from([0.0, 1e-9, 1e-6]))
    specials = draw(st.booleans())
    entry = st.one_of(st.floats(-4, 4), st.sampled_from(NON_FINITE)) if specials else st.floats(-4, 4)
    inside = st.sampled_from([0.0, 0.5, 0.999999, -0.999999])

    def near(b):
        scale = atol + 1e-5 * np.abs(np.where(np.isfinite(b), b, 0.0))
        frac = np.array(draw(st.lists(inside, min_size=size, max_size=size))).reshape(shape)
        if draw(st.booleans()):
            frac.flat[draw(st.integers(0, size - 1))] = draw(st.sampled_from([1.000001, -1.000001, 2.0]))
        return b + frac * scale

    if draw(st.booleans()):
        b = draw(entry)
        a = near(np.full(shape, b))
    else:
        b = np.array(draw(st.lists(entry, min_size=size, max_size=size))).reshape(shape)
        a = near(b)
        if draw(st.booleans()):
            # set the parts one by one: 1j * inf would put a NaN in the real part
            im = np.array(draw(st.lists(entry, min_size=size, max_size=size))).reshape(shape)
            b, a = b.astype(complex), a.astype(complex)
            b.imag, a.imag = im, near(im)
    if specials:
        for i, v in draw(st.lists(st.tuples(st.integers(0, size - 1), st.sampled_from(NON_FINITE)), max_size=2)):
            a.flat[i] = v
    return a, b, atol


class TestLayout:
    def test_qubit_zero_is_most_significant(self):
        lay = layout(("a", 2), ("b", 1))
        # basis index packs registers in declaration order, MSB first
        assert lay.pack({"a": 2, "b": 1}) == 0b101
        assert lay.pack({"a": 0, "b": 1}) == 0b001

    def test_duplicate_names_rejected(self):
        with pytest.raises(LayoutError):
            layout(("a", 1), ("a", 2))

    def test_zero_width_rejected(self):
        with pytest.raises(LayoutError):
            layout(("a", 0))

    def test_cap_enforced(self):
        with pytest.raises(CapacityError):
            layout(("big", qubit_cap() + 1))

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("TRAPQIP_MAX_QUBITS", "4")
        with pytest.raises(CapacityError):
            layout(("big", 5))
        layout(("ok", 4))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_pack_unpack_round_trip(self, data):
        widths = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=4), label="widths")
        lay = layout(*((f"r{i}", w) for i, w in enumerate(widths)))
        values = {name: data.draw(st.integers(0, (1 << w) - 1), label=name) for name, w in lay.registers}
        index = lay.pack(values)
        assert self._fields(lay, index) == values
        # the registers split the index into disjoint bit fields
        assert index == sum(lay.pack({name: v}) for name, v in values.items())
        other = data.draw(st.integers(0, lay.dim - 1), label="index")
        assert lay.pack(self._fields(lay, other)) == other

    @staticmethod
    def _fields(lay, index):
        """Register values of a basis index, by shifts: the first register is most significant."""
        out, shift = {}, lay.total_qubits
        for name, width in lay.registers:
            shift -= width
            out[name] = (index >> shift) & ((1 << width) - 1)
        return out


class TestStates:
    def test_basis_state_amplitudes(self):
        lay = layout(("a", 2))
        st = basis_state(lay, {"a": 3})
        np.testing.assert_allclose(st.amplitudes, [0, 0, 0, 1])

    def test_norm_checked(self):
        lay = layout(("a", 1))
        with pytest.raises(InvariantError):
            StateVector(lay, np.array([1.0, 1.0]))

    def test_amplitudes_read_only(self):
        st = basis_state(layout(("a", 1)))
        with pytest.raises(ValueError):
            st.amplitudes[0] = 0.0

    def test_tensor_product_orders_first_factor_high(self):
        a = basis_state(layout(("a", 1)), {"a": 1})
        b = basis_state(layout(("b", 2)), {"b": 2})
        joint = tensor_product(a, b)
        assert joint.layout.names == ("a", "b")
        assert np.argmax(np.abs(joint.amplitudes)) == 0b110


class TestApply:
    def test_single_register_unitary(self):
        lay = layout(("a", 1), ("b", 1))
        st = basis_state(lay)
        h = UnitaryOperator(layout(("a", 1)), H)
        out = apply_on_registers(st, h, ["a"])
        np.testing.assert_allclose(out.amplitudes, [1 / np.sqrt(2), 0, 1 / np.sqrt(2), 0], atol=1e-12)

    def test_apply_respects_target_order(self):
        # CNOT written as (control, target) must act the same when the state
        # stores the registers in the opposite order
        cnot = np.eye(4)[[0, 1, 3, 2]]
        u = UnitaryOperator(layout(("c", 1), ("t", 1)), cnot)
        lay = layout(("t", 1), ("c", 1))
        st = basis_state(lay, {"c": 1, "t": 0})
        out = apply_on_registers(st, u, ["c", "t"])
        assert measure_probability(out, {"t": 1, "c": 1}) == pytest.approx(1.0)

    def test_basis_permutation_matches_dense(self):
        rng = np.random.default_rng(0)
        lay = layout(("a", 2), ("b", 1))
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        st = StateVector(lay, amps / np.linalg.norm(amps))
        table = np.array([(i * 3 + 1) % 8 for i in range(8)])
        if len(set(table.tolist())) != 8:
            table = rng.permutation(8)
        dense = np.zeros((8, 8))
        dense[table, np.arange(8)] = 1.0
        u = UnitaryOperator(lay, dense)
        np.testing.assert_allclose(
            apply_basis_permutation(st, table, ["a", "b"]).amplitudes,
            apply_on_registers(st, u, ["a", "b"]).amplitudes,
            atol=1e-12,
        )

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_basis_permutation_property(self, data):
        widths = data.draw(st.lists(st.integers(1, 2), min_size=1, max_size=4), label="widths")
        names = [f"r{i}" for i in range(len(widths))]
        lay = layout(*zip(names, widths))
        targets = data.draw(st.permutations(names), label="order")
        targets = targets[: data.draw(st.integers(1, len(names)), label="count")]
        k = sum(lay.width(n) for n in targets)
        table = np.array(data.draw(st.permutations(range(1 << k)), label="table"))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        amps = rng.normal(size=lay.dim) + 1j * rng.normal(size=lay.dim)
        state = StateVector(lay, amps / np.linalg.norm(amps))
        dense = np.zeros((1 << k, 1 << k))
        dense[table, np.arange(1 << k)] = 1.0
        u = UnitaryOperator(layout(("block", k)), dense)
        np.testing.assert_allclose(
            apply_basis_permutation(state, table, targets).amplitudes,
            apply_on_registers(state, u, targets).amplitudes,
            atol=1e-12,
        )

    def test_basis_permutation_rejects_non_permutation(self):
        st = basis_state(layout(("a", 1)))
        with pytest.raises(InvariantError):
            apply_basis_permutation(st, np.array([0, 0]), ["a"])

    def test_non_unitary_rejected(self):
        with pytest.raises(InvariantError):
            UnitaryOperator(layout(("a", 1)), np.array([[1.0, 0.0], [1.0, 1.0]]))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_blocked_orthonormality_matches_one_shot(self, data):
        # square and tall Haar isometries, cols 2^0-2^9 and rows up to 2^10, so
        # wide ones span several 2^14-entry Gram blocks; perturbed near the
        # tolerance, or with NaN or an infinity in some entries
        k = data.draw(st.integers(0, 9), label="col qubits")
        p = data.draw(st.integers(0, 10 - k), label="extra row qubits")
        rows, cols = 1 << (k + p), 1 << k
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        mat = haar_isometry(rows, cols, rng)
        scale = data.draw(st.sampled_from([0.0, 1e-11, 1e-10, 1e-9, 3e-9, 1e-8, 1e-7]), label="perturbation")
        if data.draw(st.booleans(), label="one entry"):
            mat[rng.integers(rows), rng.integers(cols)] += scale
        else:
            mat += scale * (rng.normal(size=mat.shape) + 1j * rng.normal(size=mat.shape))
        for _ in range(data.draw(st.integers(0, 2), label="non-finite entries")):
            mat[rng.integers(rows), rng.integers(cols)] = data.draw(st.sampled_from(NON_FINITE))
        with np.errstate(all="ignore"):  # a Gram product of non-finite entries warns
            want = close(mat.conj().T @ mat, np.eye(cols), 1e-9)
            assert _orthonormal_columns(mat) == want
            # the constructors keep their verdicts and messages
            if rows == cols and 1 <= k <= qubit_cap() // 2:
                try:
                    UnitaryOperator(layout(("a", k)), mat)
                    assert want
                except InvariantError as exc:
                    assert not want and str(exc) == "matrix is not unitary within tolerance"
            if p:
                try:
                    Prover.unitary_cheat(mat, p)
                    assert want
                except InvariantError as exc:
                    assert not want and str(exc) == "cheat columns are not orthonormal within tolerance"

    def test_stored_matrix_is_c_ordered(self):
        # a transpose is Fortran-ordered; stored in C order,
        # apply_on_registers reshapes it without a copy
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        for want in (q, q.conj().T):
            op = UnitaryOperator(layout(("a", 3)), want)
            assert op.matrix.flags.c_contiguous
            assert np.array_equal(op.matrix, want)

    def test_dense_operator_counts_twice_its_width(self, monkeypatch):
        # a dense operator on n qubits holds 4^n entries, a state 2^n
        monkeypatch.setenv("TRAPQIP_MAX_QUBITS", "4")
        basis_state(layout(("a", 4)))
        UnitaryOperator(layout(("a", 2)), np.eye(4))
        with pytest.raises(CapacityError):
            UnitaryOperator(layout(("a", 3)), np.eye(8))


class TestMeasurement:
    def test_condition_renormalizes_and_drops(self):
        lay = layout(("a", 1), ("b", 1))
        st = apply_on_registers(basis_state(lay), UnitaryOperator(layout(("a", 1)), H), ["a"])
        prob, rest = condition_on(st, {"a": 1})
        assert prob == pytest.approx(0.5)
        assert rest.layout.names == ("b",)
        np.testing.assert_allclose(rest.amplitudes, [1, 0])

    def test_condition_impossible_returns_none(self):
        st = basis_state(layout(("a", 1)), {"a": 0})
        prob, rest = condition_on(st, {"a": 1})
        assert prob == 0.0
        assert rest is None

    def test_measure_probability_partial_assignment(self):
        lay = layout(("a", 1), ("b", 1))
        st = apply_on_registers(basis_state(lay), UnitaryOperator(layout(("a", 1)), H), ["a"])
        assert measure_probability(st, {"b": 0}) == pytest.approx(1.0)
        assert measure_probability(st, {"a": 0}) == pytest.approx(0.5)

    def test_adjoin_register_appends_least_significant(self):
        st = basis_state(layout(("a", 1)), {"a": 1})
        wide = adjoin_register(st, "out", 1)
        assert wide.layout.names == ("a", "out")
        assert np.argmax(np.abs(wide.amplitudes)) == 0b10

    def test_reorder_registers_keeps_assignments(self):
        lay = layout(("a", 2), ("b", 1))
        st = basis_state(lay, {"a": 2, "b": 1})
        back = reorder_registers(st, ["b", "a"])
        assert back.layout.names == ("b", "a")
        assert measure_probability(back, {"a": 2, "b": 1}) == pytest.approx(1.0)


class TestDensity:
    def test_partial_trace_of_bell_pair(self):
        lay = layout(("a", 1), ("b", 1))
        amps = np.array([1, 0, 0, 1]) / np.sqrt(2)
        rho = partial_trace(StateVector(lay, amps), keep=["a"])
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)

    def test_partial_trace_keep_order_is_layout_order(self):
        lay = layout(("a", 1), ("b", 1), ("c", 1))
        st = basis_state(lay, {"a": 1, "b": 0, "c": 1})
        rho = partial_trace(st, keep=["c", "a"])
        assert rho.layout.names == ("a", "c")
        assert rho.matrix[0b11, 0b11] == pytest.approx(1.0)

    @settings(max_examples=40, deadline=None)
    @given(widths=st.lists(st.integers(1, 2), min_size=2, max_size=4), seed=st.integers(0, 2**32 - 1))
    @example(widths=[1, 2, 1], seed=0)
    def test_partial_trace_is_the_tensordot_contraction_bytewise(self, widths, seed):
        names = "abcd"[: len(widths)]
        lay = layout(*zip(names, widths))
        rng = np.random.default_rng(seed)
        amps = rng.standard_normal(lay.dim) + 1j * rng.standard_normal(lay.dim)
        state = StateVector(lay, amps / np.linalg.norm(amps))
        keeps = [list(keep) for k in range(len(names) + 1) for keep in itertools.permutations(names, k)]
        for keep in keeps:
            rho = partial_trace(state, keep)
            assert rho.layout.names == tuple(n for n in names if n in keep)
            assert rho.matrix.tobytes() == _tensordot_partial_trace(state, keep).tobytes()

    def test_partial_trace_rejects_a_repeated_register(self):
        with pytest.raises(LayoutError):
            partial_trace(basis_state(layout(("a", 1), ("b", 1))), keep=["a", "a"])

    def test_fidelity_and_trace_distance_extremes(self):
        a = basis_state(layout(("q", 1)), {"q": 0})
        b = basis_state(layout(("q", 1)), {"q": 1})
        assert fidelity(a, a) == pytest.approx(1.0)
        assert fidelity(a, b) == pytest.approx(0.0)
        assert trace_distance(a, b) == pytest.approx(1.0)
        assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-12)

    def test_density_validation(self):
        lay = layout(("q", 1))
        with pytest.raises(InvariantError):
            DensityOperator(lay, np.array([[0.9, 0.0], [0.0, 0.0]]))


class TestClose:
    @settings(max_examples=400, deadline=None)
    @given(pair=_close_pairs())
    @example(pair=(np.array([math.inf, -math.inf]), np.array([math.inf, -math.inf]), 1e-9))
    @example(pair=(np.array([1.0]), np.array([math.inf]), 1e-9))
    @example(pair=(np.array([math.nan]), np.array([math.nan]), 1e-9))
    @example(pair=(np.array([1.0 + 2e-5]), 1.0, 1e-9))
    def test_close_gives_allclose_verdict(self, pair):
        a, b, atol = pair
        with np.errstate(all="ignore"):
            expected = np.allclose(a, b, atol=atol)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert close(a, b, atol) is expected


def _tensordot_partial_trace(state, keep):
    """The reduced matrix as one tensordot over the dropped qubits, the form
    partial_trace had before the Gram product."""
    lay = state.layout
    keep_axes = lay.positions(*keep)
    n = lay.total_qubits
    drop_axes = [a for a in range(n) if a not in set(keep_axes)]
    psi = state.amplitudes.reshape([2] * n)
    out = np.tensordot(psi, psi.conj(), axes=(drop_axes, drop_axes))
    return out.reshape(1 << len(keep_axes), 1 << len(keep_axes))


class TestChannels:
    """A channel is its Stinespring dilation on (sys, env), env starting at |0>."""

    @staticmethod
    def _reduced_output(dilation, sys_state):
        wide = adjoin_register(sys_state, "env", dilation.layout.width("env"))
        return partial_trace(apply_on_registers(wide, dilation, ["sys", "env"]), keep=["sys"])

    def test_unitary_channel_matches_conjugation(self):
        rng = np.random.default_rng(1)
        mat = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        dilation = UnitaryOperator(layout(("sys", 1), ("env", 1)), np.kron(mat, np.eye(2)))
        out = self._reduced_output(dilation, basis_state(layout(("sys", 1))))
        rho = np.diag([1.0, 0.0])
        np.testing.assert_allclose(out.matrix, mat @ rho @ mat.conj().T, atol=1e-12)

    def test_environment_dilation_is_trace_preserving(self):
        rng = np.random.default_rng(2)
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        dilation = UnitaryOperator(layout(("sys", 1), ("env", 1)), np.linalg.qr(raw)[0])
        out = self._reduced_output(dilation, basis_state(layout(("sys", 1))))
        assert np.trace(out.matrix).real == pytest.approx(1.0)
        vals = np.linalg.eigvalsh(out.matrix)
        assert vals.min() >= -1e-12
