"""In-memory spans around the public functions of each obliq layer.

A `Tracer` wraps names where the protocol code looks them up:

- `obliq.qsim` calls `kernels.<fn>` through the module, so the kernel
  functions are patched on `obliq.kernels`;
- `obliq.toqc` and `obliq.tgdmqc` import the layer, draw and derive
  functions by name, so those are patched in each module's namespace;
- register, server and channel methods are patched on their classes.

Wrappers exist only between `install()` and `remove()`. Each span records
its name, start, end, parent span and op id; self time is a span's duration
minus the part of it that child spans cover.
"""

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

KERNELS = ("apply_1q", "apply_diag1", "apply_diag2", "gather_pair", "gather_bit", "prob_bit1")

# Floating-point operations per amplitude of the state at the call, by kernel
# (a complex multiply is 6 flops, a complex add 2; copies are 0).
KERNEL_FLOPS_PER_AMP = {
    "apply_1q": 14.0,     # per pair: 4 complex multiplies + 2 complex adds
    "apply_diag1": 6.0,
    "apply_diag2": 6.0,
    "gather_pair": 0.0,
    "gather_bit": 0.0,
    "prob_bit1": 1.5,     # half the amplitudes: re^2 + im^2 + accumulate
}
# Computed traffic: every amplitude of the state read once and written once.
KERNEL_BYTES_PER_AMP = 2 * 16

_MARK = "__perfbench_wrapped__"


@dataclass(frozen=True, slots=True)
class Span:
    sid: int
    name: str
    start_ns: int
    end_ns: int
    parent: int
    op: int

    @property
    def duration_ns(self):
        return self.end_ns - self.start_ns


def patch_targets():
    """(owner, attribute, span name) for every wrapped public function."""
    from obliq import harness, kernels, qsim, tgdmqc, toqc

    reg = qsim.StateRegister
    targets = [(kernels, fn, f"kernels.{fn}") for fn in KERNELS]
    targets += [(reg, a, "qsim.alloc") for a in ("alloc_zero_qubits", "alloc_bell_pair", "alloc_state")]
    targets += [
        (reg, a, "qsim.gate")
        for a in ("apply_1q", "apply_diag1", "apply_cz", "apply_pair_phase", "apply_pair_diag")
    ]
    targets += [
        (reg, "bell_measure", "qsim.bell_measure"),
        (reg, "measure_z", "qsim.measure_z"),
        (reg, "density_on", "qsim.readout"),
        (reg, "probabilities_on", "qsim.readout"),
    ]
    targets += [
        (toqc, "apply_masked_t_layer", "layers.t"),
        (toqc, "apply_masked_cz_layer", "layers.cz"),
        (toqc, "apply_masked_h_layer", "layers.h"),
        (toqc, "apply_zx", "layers.pauli"),
        (toqc, "apply_xz", "layers.pauli"),
    ]
    for mod in (toqc, tgdmqc):
        targets += [(mod, f"draw_{g}_family", "control.draw") for g in ("t", "cz", "h")]
        targets += [(mod, f"derive_{g}_queries", "control.derive") for g in ("t", "cz", "h")]
    targets += [
        (toqc.ProtocolServer, "unitary_round", "protocol.unitary_round"),
        (toqc, "run_toqc", "protocol.run"),
        (tgdmqc, "run_tgdmqc", "protocol.run"),
        (harness.ChannelRegistry, "send", "harness.send"),
        (harness.ClassicalPart, "__post_init__", "harness.classical_part"),
    ]
    return targets


def is_pristine():
    """True when no patch target currently holds a tracer wrapper."""
    return not any(getattr(getattr(o, a), _MARK, False) for o, a, _ in patch_targets())


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.op = None
        self._stack = []
        self._saved = []

    # -- recording --------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = Span(sid, name, start, end, parent, self.op)
            if after is not None:
                after(args, result)
            return result

        setattr(wrapper, _MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    def _count_only(self, name, fn):
        counters = self.counters
        key = f"{name}.count"

        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, _MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    def _after_hook(self, name):
        c = self.counters
        if name.startswith("kernels."):
            flops = KERNEL_FLOPS_PER_AMP[name.split(".", 1)[1]]

            def after(args, _result):
                amps = args[0].size
                c["kernels.bytes_computed"] += KERNEL_BYTES_PER_AMP * amps
                c["kernels.flops_computed"] += flops * amps

            return after
        if name == "qsim.alloc":

            def after(args, _result):
                dim = args[0].dimension
                if dim > c["qsim.peak_dimension"]:
                    c["qsim.peak_dimension"] = dim

            return after
        if name == "harness.send":

            def after(args, _result):
                c["harness.send.bits"] += args[1].bits
                c["harness.send.qubits"] += args[1].qubits

            return after
        return None

    @contextmanager
    def span(self, name, op):
        """A span opened by the benchmark itself; spans recorded inside it
        get `op` as their op id."""
        self.op = op
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = Span(sid, name, start, end, parent, op)

    # -- patching ---------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        if not is_pristine():
            raise RuntimeError("another tracer's wrappers are installed")
        for owner, attr, name in patch_targets():
            original = owner.__dict__[attr]
            if name == "harness.classical_part":
                wrapped = self._count_only(name, original)
            else:
                wrapped = self._wrap(name, original, self._after_hook(name))
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def remove(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- output -----------------------------------------------------------

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name, "start_ns": s.start_ns,
                    "end_ns": s.end_ns, "parent": s.parent, "op": s.op,
                }) + "\n")


def self_times_ns(spans):
    """Self time of each span: duration minus the union of its children's
    intervals clipped to the span."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, reach = 0, s.start_ns
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start_ns):
            hi = min(c.end_ns, s.end_ns)
            covered += max(0, hi - max(c.start_ns, reach))
            reach = max(reach, hi)
        out[s.sid] = s.duration_ns - covered
    return out


def aggregate(spans):
    """Per span name: calls, total duration and total self time (ns)."""
    self_ns = self_times_ns(spans)
    agg = defaultdict(lambda: [0, 0, 0])
    for s in spans:
        a = agg[s.name]
        a[0] += 1
        a[1] += s.duration_ns
        a[2] += self_ns[s.sid]
    return {k: tuple(v) for k, v in agg.items()}
