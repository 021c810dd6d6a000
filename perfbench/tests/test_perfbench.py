"""Tests of the benchmark itself: span arithmetic, wrapper removal and the
correctness gate. Run with `python -m pytest perfbench/tests`."""

import json

import numpy as np
import pytest

import run
import tracing
from workloads import WORKLOADS, TgdmqcEnum, TgdmqcSampled, ToqcWide

from obliq import qsim


def _span(sid, start, end, parent=-1, name="x"):
    return tracing.Span(sid, name, start, end, parent, 0)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        _span(0, 0, 100, name="root"),
        _span(1, 10, 40, 0, name="a"),
        _span(2, 15, 25, 1, name="leaf"),
        _span(3, 50, 70, 0, name="b"),
        _span(4, 60, 80, 0, name="b"),     # overlaps its sibling
        _span(5, 90, 120, 0, name="c"),    # runs past its parent's end
    ]
    self_ns = tracing.self_times_ns(spans)
    # root is covered on [10, 40], [50, 80] and [90, 100]
    assert self_ns == {0: 30, 1: 20, 2: 10, 3: 20, 4: 20, 5: 30}
    agg = tracing.aggregate(spans)
    assert agg["root"] == (1, 100, 30)
    assert agg["b"] == (2, 40, 40)


def _targets():
    return {(owner, attr): owner.__dict__[attr] for owner, attr, _ in tracing.patch_targets()}


def test_untraced_pass_calls_the_original_functions():
    wl = WORKLOADS["tgdmqc-sampled"]
    pool = wl.inputs(3)[:1]
    refs = [wl.reference(pool[0])]
    originals = _targets()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert not tracing.is_pristine()
        assert all(_targets()[k] is not fn for k, fn in originals.items())
        run.closed_loop(wl, pool, refs, 3, 0.0, 0, tracer)
    finally:
        tracer.remove()
    recorded = len(tracer.spans)
    assert recorded > 0
    assert tracing.is_pristine()
    assert all(_targets()[k] is fn for k, fn in originals.items())

    stats, _ = run.closed_loop(wl, pool, refs, 3, 0.0, first_op=1)
    assert stats.attempted == 1 and stats.failed == 0
    assert len(tracer.spans) == recorded


def test_traced_pass_reports_every_per_layer_metric():
    wl = WORKLOADS["tgdmqc-sampled"]
    pool = wl.inputs(4)[:2]
    refs = [wl.reference(inp) for inp in pool]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, _ = run.closed_loop(wl, pool, refs, 4, 0.0, 0, tracer)
    finally:
        tracer.remove()
    out = run.layer_metrics(tracer, traced, untraced_op_ms_p50=traced.op_ms[0])
    assert set(out) == {name for name, _, _ in run.PER_LAYER}
    assert out["protocol.runs_per_op"] == 1
    assert out["protocol.bell_per_branch"] == 2 * wl.m * wl.n
    assert out["qsim.peak_dimension"] == 1 << 12
    assert out["harness.send.bits"] == 577
    assert out["kernels.bytes_computed"] > 0
    assert all(s.op == 0 for s in tracer.spans)


class _Corrupted:
    """A workload whose op result is altered after the call."""

    def __init__(self, base, corrupt):
        self.base, self.corrupt = base, corrupt

    def __getattr__(self, name):
        return getattr(self.base, name)

    def op(self, inp, op_seed):
        return self.corrupt(self.base.op(inp, op_seed))


def _perturb_density(res):
    res.output_density = res.output_density + 1e-6 * np.array([[1, 0], [0, -1]])
    return res


def _perturb_distribution(result):
    tv, dist, ideal = result
    return tv, dist + np.array([1e-7, -1e-7]), ideal


def _tamper_ledger(res):
    res.ledger.upload_bits += 1
    return res


def _raise(_res):
    raise RuntimeError("op blew up")


@pytest.mark.parametrize("base, corrupt", [
    (ToqcWide(), _perturb_density),
    (TgdmqcEnum(), _perturb_distribution),
    (TgdmqcSampled(), _tamper_ledger),
    (TgdmqcSampled(), _raise),
])
def test_corrupted_result_is_a_failure_not_a_success(base, corrupt):
    wl = _Corrupted(base, corrupt)
    inp = base.inputs(5)[0]
    stats = run.PassStats()
    stats.record(run.run_checked_op(wl, inp, base.reference(inp), (5, 0)))
    assert stats.attempted == 1 and stats.failed == 1
    assert stats.op_ms == [] and stats.last_result is None
    assert stats.errors


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_the_inputs(name):
    wl = WORKLOADS[name]
    assert wl.fingerprint(wl.inputs(7)) == wl.fingerprint(wl.inputs(7))
    assert wl.fingerprint(wl.inputs(7)) != wl.fingerprint(wl.inputs(8))


def test_peak_live_qubits_probe_finds_3n():
    wl = WORKLOADS["tgdmqc-sampled"]
    inp = wl.inputs(6)[0]
    peak, outcome = run.peak_live_qubits(wl, inp, wl.reference(inp), 6, qsim)
    assert peak == 3 * wl.n
    assert outcome.ok


def test_benchmark_json_names_match_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
