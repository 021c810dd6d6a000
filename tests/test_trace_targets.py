"""The benchmark tracer wraps functions by name where the code looks them
up; every name it reads must still exist, or a traced benchmark run stops
with a KeyError. A run must also still call the control-plane names through
those lookups, or the traced counts read low."""

import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from obliq.gates import random_program
from obliq.oracle import random_state
from obliq.toqc import run_toqc

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracing  # noqa: E402


@pytest.mark.parametrize("owner,attr,span", tracing.patch_targets(),
                         ids=lambda v: v if isinstance(v, str) else None)
def test_trace_target_resolves(owner, attr, span):
    assert attr in owner.__dict__, f"{span}: {owner.__name__}.{attr} is gone"


CONTROL_SPANS = ("control.draw", "control.derive", "harness.classical_part", "harness.send")


def test_a_run_calls_every_traced_control_name(monkeypatch):
    # n=6, m=2 (the toqc-wide shape): 3 draws and 3 derives per round, 40
    # wire parts and 10 messages per run
    calls = Counter()
    for owner, attr, span in tracing.patch_targets():
        if span in CONTROL_SPANS:
            def counting(*args, _fn=owner.__dict__[attr], _span=span, **kwargs):
                calls[_span] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counting)
    rng = np.random.default_rng(6)
    run_toqc(random_program(6, 2, rng), psi=random_state(6, rng), seed=7)
    assert calls == {"control.draw": 6, "control.derive": 6,
                     "harness.classical_part": 40, "harness.send": 10}
