"""Outside-in tracer: spans and counters around calls into qct's public functions.

The tracer patches nothing inside ``src/qct``.  While installed it replaces
each target function in *every* module binding that holds it (qct imports
names into other modules and re-exports them from ``qct/__init__``), plus the
few dataclass validators and methods it wraps on their class.  On exit every
binding is restored to the original object.  Spans and counters stay in
memory until the caller reads them at the end of the run.  Standard library
only.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager

# Module namespaces searched for bindings of a target function.  qct modules
# call numpy and scipy through these public namespaces (``np.linalg.eigh``,
# ``optimize.minimize``), so patching them there is enough.
SEARCH_ROOTS = ("qct", "numpy.linalg", "scipy.optimize")

# (layer, owner, attribute).  ``owner`` is a module or a class; a class
# attribute is patched on that class only.  Several functions may share a
# layer; metrics aggregate by layer.
TARGETS = (
    ("states.validate", "qct.states.DensityOperator", "__post_init__"),
    ("states.validate", "qct.states.PureState", "__post_init__"),
    ("states.gate_apply", "qct.states", "apply_unitary_vec"),
    ("states.gate_apply", "qct.states", "apply_unitary_mat"),
    ("states.gate_apply", "qct.states", "left_apply_unitary"),
    ("states.partial_trace", "qct.states", "partial_trace_wires"),
    ("states.partial_trace", "qct.states", "partial_trace"),
    ("states.trace_norm", "qct.states", "trace_norm"),
    ("circuits.evaluate", "qct.circuits", "evaluate"),
    ("circuits.canonicalize", "qct.circuits", "canonicalize"),
    ("circuits.parse", "qct.circuits", "parse_circuit"),
    ("channels.to_channel", "qct.channels", "to_channel"),
    ("channels.validate", "qct.channels.QuantumChannel", "__post_init__"),
    ("channels.apply_choi", "qct.channels", "apply_choi"),
    ("channels.apply_choi", "qct.channels", "apply_choi_to_segment"),
    ("channels.apply_choi", "qct.channels", "apply_choi_adjoint_to_segment"),
    ("channels.diamond", "qct.channels", "diamond_distance"),
    ("channels.trace_distance", "qct.channels", "trace_distance_no_reference"),
    ("channels.key_average", "qct.channels", "key_average"),
    ("linalg.eigh", "numpy.linalg", "eigh"),
    ("linalg.eigh", "numpy.linalg", "eigvalsh"),
    ("verifier.max_accept", "qct.verifier", "max_accept_probability"),
    ("reduction.build_ct", "qct.reduction", "build_ct_circuit"),
    ("reduction.certify_yes", "qct.reduction", "certify_yes"),
    ("reduction.certify_no", "qct.reduction", "certify_no"),
    ("applications.optimizer", "scipy.optimize", "minimize"),
    ("applications.search", "qct.applications", "nonidentity_stat"),
    ("applications.search", "qct.applications", "nonisometry_stat"),
    ("applications.search", "qct.applications", "pure_fixed_point_search"),
    ("applications.search", "qct.applications", "min_output_entropy"),
    ("applications.search", "qct.applications", "bloch_grid_min_entropy"),
    ("protocol.observable", "qct.protocol", "protocol_observable"),
    ("protocol.swap_test", "qct.protocol", "build_swap_test"),
    ("protocol.swap_test", "qct.protocol.SwapTest", "symmetric_probability"),
    ("protocol.sampled", "qct.protocol", "run_protocol_sampled"),
    ("experiments.norms", "qct.experiments", "norms_experiment"),
    ("experiments.reduction", "qct.experiments", "reduction_experiment"),
    ("experiments.applications", "qct.experiments", "applications_experiment"),
    ("experiments.di-protocol", "qct.experiments", "di_protocol_experiment"),
)

DIAMOND = "qct.channels.diamond_distance"
SAMPLED = "qct.protocol.run_protocol_sampled"
APPLY_FORWARD = "qct.channels.apply_choi_to_segment"
APPLY_KEYS = (
    "qct.channels.apply_choi",
    APPLY_FORWARD,
    "qct.channels.apply_choi_adjoint_to_segment",
)


def _resolve(dotted: str):
    """Import a module path, or a module path followed by one class name."""
    try:
        return importlib.import_module(dotted)
    except ImportError:
        module, _, name = dotted.rpartition(".")
        return getattr(importlib.import_module(module), name)


def _nbytes(*arrays) -> int:
    return sum(int(getattr(a, "nbytes", 0)) for a in arrays)


def _peak_live_qubits(circuit, reference_qubits: int) -> int:
    live = peak = circuit.input_qubits + reference_qubits
    for op in circuit.ops:
        if op.kind == "ancilla":
            live += op.count
        elif op.kind == "traceout":
            live -= len(op.targets)
        peak = max(peak, live)
    return peak


# Observers turn a call's arguments and result into counters.  Byte counts are
# computed from array shapes (operands read plus result written), not measured.
def _observe_gate_apply(tr, args, kwargs, result):
    tr.counters["states.gate_apply.bytes"] += _nbytes(args[0], result)


def _observe_apply_choi(tr, args, kwargs, result):
    tr.counters["channels.apply_choi.bytes"] += _nbytes(args[0], args[3], result)


def _observe_evaluate(tr, args, kwargs, result):
    ref = args[2] if len(args) > 2 else kwargs.get("reference_qubits", 0)
    mb = 16 * 4 ** _peak_live_qubits(args[0], ref) / 1e6
    tr.maxima["circuits.evaluate.max_state_mb"] = max(
        tr.maxima.get("circuits.evaluate.max_state_mb", 0.0), mb
    )


def _observe_eigh(tr, args, kwargs, result):
    dim = int(args[0].shape[-1])
    tr.maxima["linalg.eigh.max_dim"] = max(tr.maxima.get("linalg.eigh.max_dim", 0), dim)


def _observe_diamond(tr, args, kwargs, result):
    per_restart = result.per_restart
    best = max(per_restart)
    tr.counters["channels.ascent.restarts"] += len(per_restart)
    tr.counters["channels.ascent.useful_restarts"] += sum(
        1 for v in per_restart if v >= best - 1e-9
    )


def _observe_minimize(tr, args, kwargs, result):
    tr.counters["applications.optimizer.nfev"] += int(result.nfev)


OBSERVERS = {
    "qct.states.apply_unitary_vec": _observe_gate_apply,
    "qct.states.apply_unitary_mat": _observe_gate_apply,
    "qct.states.left_apply_unitary": _observe_gate_apply,
    "qct.channels.apply_choi": _observe_apply_choi,
    APPLY_FORWARD: _observe_apply_choi,
    "qct.channels.apply_choi_adjoint_to_segment": _observe_apply_choi,
    "qct.circuits.evaluate": _observe_evaluate,
    "numpy.linalg.eigh": _observe_eigh,
    "numpy.linalg.eigvalsh": _observe_eigh,
    DIAMOND: _observe_diamond,
    "scipy.optimize.minimize": _observe_minimize,
}


# Spans kept for the detail file; counters and self times cover every call.
KEEP_SPANS = 50_000


class Tracer:
    """Span stack plus aggregates; ``installed()`` patches, its exit restores."""

    def __init__(self):
        self.layer_of: dict[str, str] = {f"{o}.{a}": layer for layer, o, a in TARGETS}
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.children: Counter = Counter()
        self.counters: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.covered_s = 0.0
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.dropped_spans = 0
        self.bindings: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self._next_id = 0

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, key: str) -> list:
        self._next_id += 1
        parent = self._stack[-1][1] if self._stack else 0
        frame = [key, self._next_id, parent, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        key, span_id, parent, start, child_s = frame
        dur = end - start
        self.calls[key] += 1
        self.self_s[key] += dur - child_s
        if self._stack:
            up = self._stack[-1]
            up[4] += dur
            self.children[(up[0], key)] += 1
        else:
            self.covered_s += dur
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((span_id, parent, key, start, end))
        else:
            self.dropped_spans += 1

    def _wrap(self, fn, key: str):
        observe = OBSERVERS.get(key)
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    # -- patching -----------------------------------------------------------

    def _plan(self) -> list[tuple[object, str, object, str]]:
        """Every (namespace, name, original, key) binding to replace."""
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None
            and any(name == r or name.startswith(r + ".") for r in SEARCH_ROOTS)
        ]
        plan = []
        for _, owner_path, attr in TARGETS:
            owner = _resolve(owner_path)
            key = f"{owner_path}.{attr}"
            if isinstance(owner, type):
                plan.append((owner, attr, owner.__dict__[attr], key))
                continue
            original = getattr(owner, attr)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        plan.append((module, name, original, key))
        return plan

    @contextmanager
    def installed(self):
        """Patch every binding for the duration of the block, then restore."""
        wrappers: dict[int, object] = {}
        self.bindings = []
        try:
            for owner, name, original, key in self._plan():
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(original, key)
                setattr(owner, name, wrappers[id(original)])
                self.bindings.append((owner, name, original))
            yield self
        finally:
            for owner, name, original in reversed(self.bindings):
                setattr(owner, name, original)

    # -- results ------------------------------------------------------------

    def layer_totals(self) -> tuple[Counter, Counter]:
        calls, self_s = Counter(), Counter()
        for key, n in self.calls.items():
            calls[self.layer_of[key]] += n
            self_s[self.layer_of[key]] += self.self_s[key]
        return calls, self_s

    def child_count(self, parent: str, children) -> int:
        return sum(self.children[(parent, c)] for c in children)
