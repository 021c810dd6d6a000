"""Single-qubit protocol: per-branch correctness, view audits, wire sizes."""

import hashlib

import numpy as np
import pytest

from obliq.gates import matrix_of
from obliq.harness import audit_bell_uniformity, audit_mask_average
from obliq.oracle import random_state
from obliq.qsim import trace_distance
from obliq.toy import rederive_queries, run_toy
from test_qsim import pure_density

PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)


def expected_output(y, psi):
    out = matrix_of("T", y) @ psi
    return pure_density(out)


def test_identity_phase_returns_input():
    psi = random_state(1, np.random.default_rng(0))
    res = run_toy(0, psi, seed=1)
    assert trace_distance(res.output_density, pure_density(psi)) < 1e-10


def test_y4_is_z_on_plus():
    res = run_toy(4, PLUS, seed=2)
    minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
    assert trace_distance(res.output_density, pure_density(minus)) < 1e-10


@pytest.mark.parametrize("y", range(8))
def test_all_phases_all_masks_all_branches_on_plus(y):
    for mask in range(4):
        masks = (mask & 1, mask >> 1)
        for a in (0, 1):
            for b in (0, 1):
                res = run_toy(y, PLUS, seed=(y, mask, a, b),
                              force_masks=masks, force_branch=(a, b))
                assert res.outcome == (a, b)
                dist = trace_distance(res.output_density, expected_output(y, PLUS))
                assert dist < 1e-10


def test_random_states_per_branch():
    rng = np.random.default_rng(3)
    for trial in range(20):
        psi = random_state(1, rng)
        y = int(rng.integers(0, 8))
        for branch in ((0, 0), (0, 1), (1, 0), (1, 1)):
            res = run_toy(y, psi, seed=(trial, *branch), force_branch=branch)
            assert trace_distance(res.output_density, expected_output(y, psi)) < 1e-10


def test_branch_probabilities_uniform():
    res = run_toy(3, PLUS, seed=4)
    assert audit_bell_uniformity(res.branch_records).ok
    assert len(res.branch_records) == 1
    assert all(abs(p - 0.25) < 1e-12 for p in res.branch_records[0].probs)


def test_transcript_sizes():
    res = run_toy(5, PLUS, seed=5)
    rows = [(r.step, r.sender, r.bits, r.qubits)
            for r in res.transcript.records]
    assert rows == [
        ("step-1", "user", 6, 1),
        ("step-2", "server-a", 2, 0),
        ("step-3", "user", 6, 0),
        ("step-4", "server-b", 0, 1),
    ]
    assert res.ledger.totals() == (12, 1, 2, 1)
    assert res.ledger.matches_transcript(res.transcript)


def test_server_a_mask_average_is_mixed():
    # the qubit server A receives, averaged over the four masks, carries
    # nothing about the input
    psi = random_state(1, np.random.default_rng(6))
    assert audit_mask_average(psi).ok


def test_rederived_queries_are_uniform_bijections():
    # enumerating the fresh draw at any fixed context hits every residue once
    for mask_x in (0, 1):
        for a1 in (0, 1):
            for fixed_other in (0, 3):
                seen = set()
                for q0 in range(8):
                    q = (q0, fixed_other) if mask_x == 0 else (fixed_other, q0)
                    qp = rederive_queries(q, mask_x, a1)
                    seen.add(qp[(mask_x + a1) % 2])
                assert seen == set(range(8))


def test_rederived_queries_equation():
    # spot value: masks 0, outcome 0: first entry is 1 - q0, second is -q1
    qp = rederive_queries((3, 5), 0, 0)
    assert qp == ((1 - 3) % 8, (-5) % 8)


# sha256 over rederive_queries on every (q0, q1, mask_x, outcome_x) in
# Z8 x Z8 x Z2 x Z2, as computed by the toy's own index formula
REDERIVED_QUERIES_DIGEST = "5f4054a4c6fe05cfd72afe55dd629463c8f54be7b5469e8f8eb6131a8987be3d"


def test_rederived_queries_pinned_on_every_input():
    h = hashlib.sha256()
    for q0 in range(8):
        for q1 in range(8):
            for mask_x in (0, 1):
                for a1 in (0, 1):
                    h.update(repr(rederive_queries((q0, q1), mask_x, a1)).encode())
    assert h.hexdigest() == REDERIVED_QUERIES_DIGEST


def test_no_server_to_server_channel():
    res = run_toy(1, PLUS, seed=7)
    for rec in res.transcript.records:
        sender = rec.sender
        for receiver in rec.receivers:
            assert not (sender.startswith("server") and receiver.startswith("server"))


def test_server_views_contain_only_queries_and_outcome_free_data():
    res = run_toy(6, PLUS, seed=8)
    a_parts = {name for _, name, _ in res.views["server-a"].received}
    b_parts = {name for _, name, _ in res.views["server-b"].received}
    assert a_parts == {"t-query"}
    assert b_parts == {"t-query-rederived"}
    assert res.views["server-b"].received_qubits == 0
    assert res.views["server-a"].received_qubits == 1
