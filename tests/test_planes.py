"""The seam between the planes: the schedule holds only classical state and
drives the data plane through its interface, in the order of the 4m+3
steps."""

import numpy as np
import pytest

from obliq import toqc
from obliq.gates import random_program
from obliq.harness import BELL_OUTCOMES, ChannelRegistry
from obliq.oracle import random_state
from obliq.tgdmqc import run_tgdmqc


@pytest.fixture
def calls(monkeypatch):
    """One log of every data-plane call and every message sent, in order."""
    log = []

    class RecordingFrame(toqc.PauliFrame):
        def load(self, psi=None):
            log.append(("load", psi is not None))
            super().load(psi)

        def paulis(self, xs, zs):
            log.append(("paulis", tuple(xs), tuple(zs)))
            super().paulis(xs, zs)

        def phase_layers(self, j, t, cz):
            log.append(("phase_layers", j))
            super().phase_layers(j, t, cz)

        def h_layer(self, j, h):
            log.append(("h_layer", j))
            super().h_layer(j, h)

        def hop(self, k, side, rng, forced):
            log.append(("hop", k, side, forced))
            return super().hop(k, side, rng, forced)

        def measure(self, count, rng):
            log.append(("measure", count))
            return super().measure(count, rng)

        def density(self, count, xs, zs):
            log.append(("density", count))
            return super().density(count, xs, zs)

    send = ChannelRegistry.send

    def recording_send(self, message):
        log.append(("send", message.step))
        send(self, message)

    monkeypatch.setattr(toqc, "PauliFrame", RecordingFrame)
    monkeypatch.setattr(ChannelRegistry, "send", recording_send)
    return log


def _plan(n, m, seed):
    rng = np.random.default_rng(seed)
    return [BELL_OUTCOMES[i] for i in rng.integers(0, 4, size=2 * n * m)]


def _hops(plan, n):
    return [tuple(plan[k * n:(k + 1) * n]) for k in range(len(plan) // n)]


def test_toqc_drives_the_plane_in_step_order(calls):
    n, m = 2, 2
    rng = np.random.default_rng(90)
    w = random_program(n, m, rng)
    plan = _plan(n, m, 91)
    f1, f2, f3, f4 = _hops(plan, n)
    res = toqc.run_toqc(w, psi=random_state(n, rng), n_circ=1, seed=92,
                        branch_plan=plan)
    # the masks are the first draws of the user's stream
    user_rng = toqc.make_streams(92).user
    mask_x, mask_z = (tuple(int(v) for v in user_rng.integers(0, 2, size=n))
                      for _ in "xz")
    assert calls == [
        ("load", True), ("paulis", mask_x, mask_z),
        ("send", "step-1"), ("phase_layers", 1),
        ("hop", 1, "a", f1), ("send", "step-2"),
        ("send", "step-3"), ("phase_layers", 1), ("h_layer", 1),
        ("hop", 2, "b", f2), ("send", "step-4"),
        ("send", "step-5"), ("h_layer", 1), ("phase_layers", 2),
        ("hop", 3, "a", f3), ("send", "step-6"),
        ("send", "step-7"), ("phase_layers", 2), ("h_layer", 2),
        ("hop", 4, "b", f4), ("send", "step-8"),
        ("send", "step-9"), ("h_layer", 2),
        ("send", "step-10"),
        # step 4m+3 is the user's local correction of the received qubit
        ("density", 1),
    ]
    assert res.steps_executed == [f"step-{i}" for i in range(1, 4 * m + 4)]


def test_toqc_basis_bits_load_as_two_pauli_passes(calls):
    w = random_program(3, 1, np.random.default_rng(93))
    toqc.run_toqc(w, basis_bits=(1, 0, 1), n_circ=1, seed=94)
    load, bits, masks = calls[:3]
    assert load == ("load", False)
    assert bits == ("paulis", (1, 0, 1), (0, 0, 0))
    assert masks[0] == "paulis"
    assert calls[3] == ("send", "step-1")


def test_tgdmqc_drives_the_plane_in_step_order(calls):
    n, m = 2, 2
    rng = np.random.default_rng(95)
    w = random_program(n, m, rng)
    rounds = random_program(n, m, rng).rounds
    plan = _plan(n, m, 96)
    f1, f2, f3, f4 = _hops(plan, n)
    run_tgdmqc(w, rounds, 2, seed=97, branch_plan=plan)
    assert calls == [
        ("load", False), ("send", "step-1"), ("phase_layers", 1),
        ("hop", 1, "a", f1), ("send", "step-2"),
        ("send", "step-3"), ("phase_layers", 1), ("h_layer", 1),
        ("hop", 2, "b", f2), ("send", "step-4"),
        # user 1's rotation queries and user 2's phase queries
        ("send", "step-5"), ("send", "step-5"), ("h_layer", 1), ("phase_layers", 2),
        ("hop", 3, "a", f3), ("send", "step-6"),
        ("send", "step-7"), ("phase_layers", 2), ("h_layer", 2),
        ("hop", 4, "b", f4), ("send", "step-8"),
        ("send", "step-9"), ("h_layer", 2),
        # server A measures, then sends the bits; step 4m+3 is the reader's XOR
        ("measure", 2), ("send", "step-10"),
    ]
