"""The one qubit-budget rule: footprints against what the engines build."""

import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapqip.core import (
    CapacityError,
    DensityOperator,
    basis_state,
    layout,
    qubit_cap,
    trace_distance,
)
from trapqip.oracles import random_permutation, xor_shift_permutation
from trapqip.protocols import (
    PROVER_UNITARY,
    Prover,
    _honest_trap_accept,
    branch_overlap_pair,
    cheat_upper_bound,
    footprint,
    prover_search,
    run_classical_query_protocol,
    run_protocol,
    run_smooth_protocol,
)
from trapqip.reductions import (
    DistributionTable,
    add_noise,
    amplify,
    build_smooth_xor_reduction,
    build_xor_reduction,
)
from trapqip.sampling import random_channel

ENTRIES = ("trap", "smooth", "classical", "overlap", "ceiling", "search")


def _cases(entry):
    """(m, t, cheat) per entry: cheat None is the honest prover, otherwise the
    private width of an identity cheat, or of the search's unitaries."""
    cheats = {"classical": (None,), "ceiling": (None,), "search": (0, 1, 2)}.get(entry, (None, 0, 1, 2))
    for m in (1, 2, 3, 4):
        for t in (1,) if entry in ("ceiling", "search") else (1, 3):
            for cheat in cheats:
                yield m, t, cheat


def _reduction(entry, m, t):
    if entry == "smooth":
        raw = np.linspace(0.5, 1.5, 1 << m)
        base = build_smooth_xor_reduction(m, 1, 0, DistributionTable(m, raw / raw.sum()))
    else:
        base = add_noise(build_xor_reduction(m, 1, 0), 0.1)
    return amplify(base, t)


def _call(entry, r, prover, cheat):
    f = xor_shift_permutation(r.m, 1)
    if entry == "trap":
        return run_protocol(r, f, 1, prover)
    if entry == "smooth":
        return run_smooth_protocol(r, f, 1, prover, seed=4)
    if entry == "classical":
        return run_classical_query_protocol(r, f, 1, prover, seed=4)
    if entry == "overlap":
        return branch_overlap_pair(r, f, 1, prover)
    if entry == "ceiling":
        return cheat_upper_bound(r, f, 1)
    return prover_search(r, f, 1, cheat, iters=3, seed=4)


def _check_footprint(entry, m, t, cheat, cap) -> bool:
    """Run one call under a cap of `cap` qubits; True when it ran.

    Under a cap of at least its footprint the call runs: any wider layout or
    dense operator raises CapacityError, cached builders are rebuilt under
    the cap, and raw arrays (projector entries, search products) are bounded
    through the peak.  Under a smaller cap the entry refuses the call before
    anything is allocated; a cheat that wide stands in as a placeholder the
    entry must refuse without touching.
    """
    r = _reduction(entry, m, t)
    need = footprint(entry, r, cheat)
    label = f"{entry} m={m} t={t} cheat={cheat} cap={cap}: footprint {need}"
    refused = None
    with mock.patch.dict(os.environ, {"TRAPQIP_MAX_QUBITS": str(cap)}):
        _honest_trap_accept.cache_clear()
        tracemalloc.start()
        try:
            prover = Prover.honest()
            if cheat is not None and entry != "search":
                if need > cap:
                    prover = Prover(PROVER_UNITARY, object(), cheat)
                else:
                    prover = Prover.unitary_cheat(np.eye(1 << (cheat + 2 * m * t), 1 << (2 * m * t)), cheat)
            _call(entry, r, prover, cheat)
        except CapacityError as exc:
            refused = exc
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            _honest_trap_accept.cache_clear()
    if need > cap:
        assert refused is not None, f"{label}: ran over the cap"
        assert peak < 1 << 20, f"{label}: refused after {peak} bytes"
        return False
    assert refused is None, f"{label}: refused late: {refused}"
    # sixteen complex128 copies of the widest object, plus bookkeeping
    assert peak <= (256 << need) + (1 << 20), f"{label}: peak {peak} bytes"
    return True


@pytest.mark.parametrize("entry", ENTRIES)
def test_footprint_matches_what_engines_build(entry):
    """Each config runs under a cap of exactly its footprint, or is refused
    at entry under the default cap before anything is allocated."""
    ran = refused = 0
    for m, t, cheat in _cases(entry):
        need = footprint(entry, _reduction(entry, m, t), cheat)
        if _check_footprint(entry, m, t, cheat, min(need, qubit_cap())):
            ran += 1
        else:
            refused += 1
    assert ran and (refused or entry == "classical")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_footprint_holds_for_caps_near_it(data):
    """The grid's claim at drawn instances and caps within two qubits of the
    footprint.  An instance over the default cap cannot be built, so its cap
    is drawn below the footprint only."""
    entry = data.draw(st.sampled_from(ENTRIES), label="entry")
    m, t, cheat = data.draw(st.sampled_from(list(_cases(entry))), label="m, t, cheat")
    need = footprint(entry, _reduction(entry, m, t), cheat)
    top = need + 2 if need <= qubit_cap() else need - 1
    _check_footprint(entry, m, t, cheat, data.draw(st.integers(max(1, need - 2), top), label="cap"))


def test_default_cap_limits():
    """At the default cap: ceiling m <= 2, honest trap runs m <= 3, cheats and
    classical runs m = 4."""
    assert qubit_cap() == 18

    def fits(entry, m, t=1, cheat=None):
        return footprint(entry, amplify(build_xor_reduction(m, 1, 0), t), cheat) <= 18

    assert fits("ceiling", 2) and not fits("ceiling", 3)
    assert fits("trap", 3) and fits("trap", 3, t=5) and not fits("trap", 4)
    assert fits("smooth", 3) and not fits("smooth", 4)
    assert fits("classical", 4)
    # an entangling cheat runs every copy at once
    assert fits("trap", 1, t=3, cheat=2) and not fits("trap", 2, t=3, cheat=0)
    # a smooth cheat is scored on the uniform normal form, so it counts p + 4mt too
    assert fits("smooth", 1, t=3, cheat=6) and not fits("smooth", 1, t=3, cheat=7)
    # a cheat is scored on the normal form: its isometry and its image, p + 4mt
    assert fits("search", 2, cheat=10) and not fits("search", 2, cheat=11)
    assert fits("trap", 2, cheat=10) and not fits("trap", 2, cheat=11)
    # the honest memo's trap verifier is dense on 6m qubits; a cheat builds none
    assert fits("trap", 4, cheat=2) and not fits("trap", 4)


@pytest.mark.parametrize("build", ["density", "trace_distance", "random_channel"])
def test_over_cap_density_and_channel_refused_before_allocation(build):
    """A density on n qubits, the difference of two in trace_distance, or a
    channel's dilation unitary on n system and environment qubits counts 2n:
    one qubit past half the cap is refused before its matrix is drawn,
    copied, built or checked."""
    lay = layout(("sys", qubit_cap() // 2 + 1))
    # a zero-stride view: no memory behind it, a full copy would be 16 MB
    hollow = np.broadcast_to(np.complex128(0), (lay.dim, lay.dim))
    state = basis_state(lay)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            if build == "density":
                DensityOperator(lay, hollow)
            elif build == "trace_distance":
                trace_distance(state, state)
            else:
                random_channel(lay.total_qubits - 1, 1, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"refused after {peak} bytes"


@pytest.mark.parametrize("build", ["xor_shift", "random", "uniform"])
def test_over_cap_table_refused_before_allocation(build):
    """A 2^m-entry permutation or distribution table counts m qubits, so
    m = 22 is refused before a 4M-entry table is drawn or built."""
    m = qubit_cap() + 4
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            if build == "xor_shift":
                xor_shift_permutation(m, 1)
            elif build == "random":
                random_permutation(m, 0)
            else:
                DistributionTable.uniform(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"refused after {peak} bytes"
