"""Per-layer trace of trapqip, recorded from outside the package.

`Tracer.install` replaces every public function of every `trapqip.*` module
with a timing wrapper, at every binding site: each module-level name that
holds it, because the modules import names from each other directly
(`from .core import basis_state`), and each entry of a module-level dict
that holds it, such as the CLI's `_HANDLERS` dispatch table.  It also wraps
`__post_init__` of `StateVector`, `DensityOperator` and `UnitaryOperator`,
which is where the constructors run their O(d^3) checks.  The wrappers are
built once; `install` and `uninstall` only swap them in and out, so a run
can switch the trace on and off between ops.

Each call becomes a span: function, start, end, parent span and op id, kept
in flat in-memory arrays and written out once at the end.  A span's self time
is its duration minus the time its direct child spans cover; a layer's self
time is the sum over its spans.  Nothing under `src/` is changed.
"""

from __future__ import annotations

import sys
import time
import types
from array import array
from collections import Counter

import numpy as np

KERNELS = frozenset(
    {
        "apply_on_registers",
        "apply_basis_permutation",
        "partial_trace",
        "condition_on",
        "measure_probability",
        "tensor_product",
        "adjoin_register",
        "reorder_registers",
    }
)
VALIDATED = {"StateVector": "state", "DensityOperator": "density", "UnitaryOperator": "unitary"}
PROTOCOL_GROUPS = {
    "cheat_upper_bound": "protocols.ceiling",
    "prover_search": "protocols.search",
    "branch_overlap_pair": "protocols.overlap",
}
MODULES = ("core", "oracles", "reductions", "protocols", "rejection", "analysis", "sampling", "separation", "cli")

# Layers whose metrics are `<layer>.calls` and `<layer>.self_s`, in report order.
LAYERS = (
    "core.validate.unitary",
    "core.validate.density",
    "core.validate.state",
    "core.kernel",
    "core.other",
    "reductions",
    "oracles",
    "protocols.engine",
    "protocols.ceiling",
    "protocols.search",
    "protocols.overlap",
    "rejection",
    "analysis",
    "sampling",
    "separation",
    "cli",
)
OP_SPAN = "op"
UNITS = {
    "calls": "calls/op",
    "self_s": "s/op",
    "state_bytes": "B/op",
    "matrix_bytes": "B/op",
    "max_qubits": "qubits",
    "iters_per_s": "iters/s",
    "rounds": "rounds/op",
    "success_ratio": "ratio",
    "rotation_builds": "builds/op",
    "quantum_queries": "queries/op",
    "overhead_s": "s/op",
}


def unit_of(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[1]]


def layer_of(span_name: str) -> str | None:
    """Layer of a span name such as `core.condition_on`; None for op spans."""
    if span_name == OP_SPAN:
        return None
    module, _, rest = span_name.partition(".")
    if module == "core":
        cls = rest.split(".")[0]
        if cls in VALIDATED:
            return f"core.validate.{VALIDATED[cls]}"
        return "core.kernel" if rest in KERNELS else "core.other"
    if module == "protocols":
        return PROTOCOL_GROUPS.get(rest, "protocols.engine")
    return module


def _public_functions(module: types.ModuleType):
    """Functions (plain or lru_cache-wrapped) that the module itself defines."""
    for name, value in vars(module).items():
        if name.startswith("_"):
            continue
        plain = isinstance(value, types.FunctionType)
        if not (plain or hasattr(value, "cache_info")):
            continue
        if getattr(value, "__module__", None) == module.__name__:
            yield name, value


def _assign(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    """Spans of one traced phase plus the counters the layers expose."""

    def __init__(self) -> None:
        self.names: list[str] = [OP_SPAN]
        self.fn = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.counts: Counter = Counter()
        # (owner, name or key, original, wrapper); owner is a module, a class or a dict
        self._bindings: list[tuple[object, object, object, object]] = []

    # -- spans --------------------------------------------------------------

    def _open(self, fn_id: int) -> int:
        idx = len(self.start)
        self.fn.append(fn_id)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def begin_op(self, op_id: int) -> int:
        self.op_id = op_id
        return self._open(0)

    def end_op(self, idx: int) -> None:
        self._close(idx)

    def _wrap(self, fn, span_name: str, after=None):
        fn_id = len(self.names)
        self.names.append(span_name)
        opn, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = opn(fn_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span_name)
        return traced

    # -- counters fed from call results ---------------------------------------

    def _after_state(self, args, kwargs, result) -> None:
        lay = args[0].layout
        self.counts["core.state_bytes"] += 16 * lay.dim
        self.counts["core.max_qubits"] = max(self.counts["core.max_qubits"], lay.total_qubits)

    def _after_matrix(self, args, kwargs, result) -> None:
        self.counts["core.matrix_bytes"] += 16 * args[0].layout.dim ** 2

    def _after_search(self, args, kwargs, result) -> None:
        self.counts["protocols.search.iters"] += kwargs["iters"] if "iters" in kwargs else args[4]

    def _after_qrs_run(self, args, kwargs, result) -> None:
        self.counts["rejection.rounds"] += result.rounds_used
        self.counts["rejection.successes"] += int(result.succeeded)

    def _after_simon(self, args, kwargs, result) -> None:
        self.counts["separation.quantum_queries"] += result.queries

    # -- installing -----------------------------------------------------------

    def _bind(self) -> None:
        """Build a wrapper for every public trapqip function and find where each is bound."""
        mods = {n: m for n, m in sys.modules.items() if n == "trapqip" or n.startswith("trapqip.")}
        after = {
            "protocols.prover_search": self._after_search,
            "rejection.qrs_run": self._after_qrs_run,
            "separation.simon_solve": self._after_simon,
        }
        # keyed by id: each wrapper holds its original alive, so the ids stay unique
        wrapped: dict[int, object] = {}
        for short in MODULES:
            for name, fn in _public_functions(mods[f"trapqip.{short}"]):
                span = f"{short}.{name}"
                wrapped[id(fn)] = self._wrap(fn, span, after.get(span))
        for module in mods.values():
            for name, value in vars(module).items():
                if id(value) in wrapped:
                    self._bindings.append((module, name, value, wrapped[id(value)]))
                elif isinstance(value, dict):
                    for key, entry in value.items():
                        if id(entry) in wrapped:
                            self._bindings.append((value, key, entry, wrapped[id(entry)]))
        core = mods["trapqip.core"]
        for cls_name in VALIDATED:
            cls = getattr(core, cls_name)
            hook = self._after_state if cls_name == "StateVector" else self._after_matrix
            original = cls.__dict__["__post_init__"]
            wrapper = self._wrap(original, f"core.{cls_name}.__post_init__", hook)
            self._bindings.append((cls, "__post_init__", original, wrapper))

    def install(self) -> None:
        """Put the wrappers in place of the originals."""
        if not self._bindings:
            self._bind()
        for owner, key, _, wrapper in self._bindings:
            _assign(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in reversed(self._bindings):
            _assign(owner, key, original)

    # -- results --------------------------------------------------------------

    def _arrays(self):
        fn = np.array(self.fn, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        dur = np.array(self.end) - np.array(self.start)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return fn, dur - covered

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-op calls and self time of every layer, plus the layer counters."""
        fn, self_s = self._arrays()
        n_fn = len(self.names)
        calls = np.bincount(fn, minlength=n_fn)
        self_by_fn = np.bincount(fn, weights=self_s, minlength=n_fn)
        by_layer = {layer: [0, 0.0] for layer in LAYERS}
        for i, name in enumerate(self.names):
            layer = layer_of(name)
            if layer is not None:
                by_layer[layer][0] += int(calls[i])
                by_layer[layer][1] += float(self_by_fn[i])
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = by_layer[layer][0] / ops
            out[f"{layer}.self_s"] = by_layer[layer][1] / ops
        c = self.counts
        out["core.state_bytes"] = c["core.state_bytes"] / ops
        out["core.matrix_bytes"] = c["core.matrix_bytes"] / ops
        out["core.max_qubits"] = c["core.max_qubits"]
        search_s = by_layer["protocols.search"][1]
        out["protocols.search.iters_per_s"] = c["protocols.search.iters"] / search_s if search_s else 0.0
        out["rejection.rounds"] = c["rejection.rounds"] / ops
        out["rejection.success_ratio"] = c["rejection.successes"] / c["rejection.rounds"] if c["rejection.rounds"] else 0.0
        rotation = self.names.index("rejection.qrs_rotation")
        out["rejection.rotation_builds"] = int(calls[rotation]) / ops
        out["separation.quantum_queries"] = c["separation.quantum_queries"] / ops
        return out

    def save(self, path) -> None:
        """Write every span: function name, start, end, parent span, op id."""
        np.savez(
            path,
            names=np.array(self.names),
            fn=np.array(self.fn, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int32),
            op=np.array(self.op, dtype=np.int32),
        )
