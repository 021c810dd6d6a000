"""Bad run input fails at the API boundary, before any message is sent."""

import numpy as np
import pytest

from obliq.gates import random_program, zero_program
from obliq.harness import ChannelRegistry
from obliq.oracle import basis_state
from obliq.tgdmqc import exhaustive_output_distribution, run_tgdmqc
from obliq.toqc import enumerate_branches, run_toqc
from obliq.toy import run_toy

N, M = 2, 1
OUTCOMES = 2 * M * N


def _toqc(plan, eager):
    w = random_program(N, M, np.random.default_rng(90))
    return run_toqc(w, psi=basis_state(N, (0, 1)), n_circ=1, seed=91,
                    branch_plan=plan, eager_bell=eager)


def _tgdmqc(plan, eager):
    w = random_program(N, M, np.random.default_rng(92))
    rounds = random_program(N, M, np.random.default_rng(93)).rounds
    return run_tgdmqc(w, rounds, 1, seed=94, branch_plan=plan, eager_bell=eager)


@pytest.fixture
def no_messages(monkeypatch):
    """Make any message send fail the test: the check must come first."""
    def send(self, message):
        raise AssertionError(f"{message.step} was sent before the input was checked")

    monkeypatch.setattr(ChannelRegistry, "send", send)


@pytest.mark.parametrize("eager", [False, True], ids=["frame", "physical"])
@pytest.mark.parametrize("run", [_toqc, _tgdmqc], ids=["toqc", "tgdmqc"])
@pytest.mark.parametrize("length", [OUTCOMES - 1, OUTCOMES + 1], ids=["short", "long"])
def test_wrong_length_plan_names_both_counts(no_messages, run, eager, length):
    plan = [(0, 0)] * length
    with pytest.raises(ValueError,
                       match=fr"has {length} outcomes, the run makes {OUTCOMES}$"):
        run(plan, eager)


@pytest.mark.parametrize("entry,shown", [((0, 2), r"\(0, 2\)"), (3, "3")],
                         ids=["pair", "int"])
@pytest.mark.parametrize("eager", [False, True], ids=["frame", "physical"])
@pytest.mark.parametrize("run", [_toqc, _tgdmqc], ids=["toqc", "tgdmqc"])
def test_non_bell_plan_entry_rejected(no_messages, run, eager, entry, shown):
    plan = [(0, 0)] * (OUTCOMES - 1) + [entry]
    with pytest.raises(ValueError, match=fr"entry {shown} is not a Bell outcome"):
        run(plan, eager)


def test_array_plan_entries_accepted():
    plan = [(0, 1), (1, 0), (1, 1), (0, 0)]
    for run in (_toqc, _tgdmqc):
        got = run([np.array(entry) for entry in plan], False)
        assert got.transcript.render() == run(plan, False).transcript.render()


def test_toy_non_bell_branch_rejected(no_messages):
    with pytest.raises(ValueError, match=r"entry \(2, 0\) is not a Bell outcome"):
        run_toy(1, basis_state(1, (0,)), seed=0, force_branch=(2, 0))


@pytest.mark.parametrize("coeffs,named", [
    ({2: 0}, r"\[2\]"),
    ({0: 1}, r"\[0\]"),
    ({1: 0, 2: 0, -1: 5}, r"\[2, -1\]"),
])
def test_unknown_tcz_delta_coeff_round_rejected(no_messages, coeffs, named):
    w = random_program(1, 1, np.random.default_rng(95))
    with pytest.raises(ValueError,
                       match=fr"tcz_delta_coeff rounds {named} are outside 1\.\.1"):
        run_toqc(w, psi=basis_state(1, (0,)), seed=96, tcz_delta_coeff=coeffs)


def _walk_toqc(plan):
    return list(enumerate_branches(zero_program(1, 1), psi=basis_state(1, (0,)),
                                   branch_plan=plan))


def _walk_tgdmqc(plan):
    w = zero_program(1, 1)
    return exhaustive_output_distribution(w, w.rounds, 1, seed=97, branch_plan=plan)


@pytest.mark.parametrize("walk", [_walk_toqc, _walk_tgdmqc], ids=["toqc", "tgdmqc"])
def test_branch_walk_rejects_a_plan(no_messages, walk):
    # a plan of the right length, so only the walk itself can refuse it
    with pytest.raises(ValueError, match="takes every plan, not a branch_plan"):
        walk([(0, 0), (0, 0)])


@pytest.mark.parametrize("bits,named", [
    ((0, 2), r"basis_bits\[1\] is 2,"),
    ((1, -1), r"basis_bits\[1\] is -1,"),
    ((0.5, 1), r"basis_bits\[0\] is 0.5,"),
], ids=["two", "minus-one", "half"])
def test_non_bit_basis_bits_rejected(no_messages, bits, named):
    w = random_program(N, M, np.random.default_rng(98))
    with pytest.raises(ValueError, match=fr"{named} not a bit"):
        run_toqc(w, basis_bits=bits, seed=1)
