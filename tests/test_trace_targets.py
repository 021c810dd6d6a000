"""The benchmark tracer wraps functions by name where the code looks them
up; every name it reads must still exist, or a traced benchmark run stops
with a KeyError."""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracing  # noqa: E402


@pytest.mark.parametrize("owner,attr,span", tracing.patch_targets(),
                         ids=lambda v: v if isinstance(v, str) else None)
def test_trace_target_resolves(owner, attr, span):
    assert attr in owner.__dict__, f"{span}: {owner.__name__}.{attr} is gone"
