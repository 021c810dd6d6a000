"""Bad run input fails at the API boundary, before any message is sent."""

import re

import numpy as np
import pytest

from obliq import oracle, tgdmqc
from obliq.gates import (
    as_seed,
    compile_parity,
    concat_programs,
    program_product,
    random_program,
    split_program,
    zero_program,
    zero_round,
)
from obliq.harness import ChannelRegistry, audit_mask_average, audit_transcript_file
from obliq.oracle import basis_state
from obliq.qsim import DEFAULT_MAX_QUBITS, MAX_QUBITS_ENV, StateRegister, default_max_qubits
from obliq.tgdmqc import (
    exhaustive_output_distribution,
    program_with_users,
    run_tgdmqc,
    verify_against_ideal,
)
from obliq.toqc import _ToqcRun, run_toqc
from obliq.toy import run_toy
from test_toqc import enumerate_branches

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


@pytest.mark.parametrize("plan", [5, 1.0], ids=["int", "float"])
@pytest.mark.parametrize("eager", [False, True], ids=["frame", "physical"])
@pytest.mark.parametrize("run", [_toqc, _tgdmqc], ids=["toqc", "tgdmqc"])
def test_non_sequence_plan_rejected(no_messages, run, eager, plan):
    with pytest.raises(ValueError, match=fr"^branch_plan is {plan}, not a sequence"):
        run(plan, eager)


def test_array_plan_entries_accepted():
    plan = [(0, 1), (1, 0), (1, 1), (0, 0)]
    for run in (_toqc, _tgdmqc):
        got = run([np.array(entry) for entry in plan], False)
        assert got.transcript.render() == run(plan, False).transcript.render()


def test_toy_non_bell_branch_rejected(no_messages):
    with pytest.raises(ValueError, match=r"entry \(2, 0\) is not a Bell outcome"):
        run_toy(1, basis_state(1, (0,)), seed=0, force_branch=(2, 0))


@pytest.mark.parametrize("call,named", [
    (lambda: run_toy(1, basis_state(1, (0,)), seed=0, force_masks=(0,)),
     r"force_masks is \(0,\), not a pair of bits"),
    (lambda: run_toy(1, basis_state(1, (0,)), seed=0, force_masks=5),
     r"force_masks is 5, not a pair of bits"),
    (lambda: run_tgdmqc(zero_program(1, 1), zero_round(1), seed=0),
     r"user_rounds is ProgramRound\(.*\), not a sequence of rounds"),
], ids=["masks-short", "masks-int", "bare-user-round"])
def test_run_argument_named(no_messages, call, named):
    with pytest.raises(ValueError, match=fr"^{named}$"):
        call()


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


@pytest.mark.parametrize("exhaustive", [False, 1, None])
def test_verify_takes_only_exhaustive(no_messages, exhaustive):
    w = zero_program(1, 1)
    with pytest.raises(ValueError, match=fr"^exhaustive is {exhaustive}; only True remains$"):
        verify_against_ideal(w, w.rounds, exhaustive=exhaustive)


@pytest.mark.parametrize("bits,named", [
    ((0, 2), r"basis_bits\[1\] is 2,"),
    ((1, -1), r"basis_bits\[1\] is -1,"),
    ((0.5, 1), r"basis_bits\[0\] is 0.5,"),
], ids=["two", "minus-one", "half"])
def test_non_bit_basis_bits_rejected(no_messages, bits, named):
    w = random_program(N, M, np.random.default_rng(98))
    with pytest.raises(ValueError, match=fr"{named} not a bit"):
        run_toqc(w, basis_bits=bits, seed=1)


@pytest.mark.parametrize("run", [
    lambda w: run_toqc(w, psi=basis_state(N, (0, 1)), n_circ=1.5, seed=1),
    lambda w: run_tgdmqc(w, w.rounds, n_circ=1.5, seed=1),
    lambda w: exhaustive_output_distribution(w, w.rounds, n_circ=1.5),
    lambda w: oracle.ideal_output(w, basis_state(N, (0, 1)), 1.5),
    lambda w: oracle.outcome_distribution(w, basis_state(N, (0, 1)), 1.5),
], ids=["toqc", "tgdmqc", "exhaustive", "ideal-output", "outcome-distribution"])
def test_non_integral_n_circ_rejected(no_messages, run):
    w = random_program(N, M, np.random.default_rng(99))
    with pytest.raises(ValueError, match=r"n_circ: value 1\.5 is not an integer"):
        run(w)


@pytest.mark.parametrize("kw,named", [
    ({"y": 1.7}, r"y: value 1\.7 is not an integer"),
    ({"y": "3"}, r"y: value '3' is not an integer"),
    ({"force_masks": (2, 0)}, r"mask_x is 2, not a bit"),
    ({"force_masks": (0, -1)}, r"mask_z is -1, not a bit"),
    ({"force_masks": (0.9, 1)}, r"mask_x: value 0\.9 is not an integer"),
], ids=["y-float", "y-str", "mask-two", "mask-minus-one", "mask-float"])
def test_toy_non_integral_input_rejected(no_messages, kw, named):
    args = {"y": 1, **kw}
    with pytest.raises(ValueError, match=named):
        run_toy(args.pop("y"), basis_state(1, (0,)), seed=0, **args)


def test_toy_takes_integers_not_their_float_twins():
    psi = basis_state(1, (1,))
    got = run_toy(np.int64(11), psi, seed=0, force_masks=(np.True_, 1))
    want = run_toy(3, psi, seed=0, force_masks=(1, 1))
    assert got.y == 3 and (got.mask_x, got.mask_z) == (1, 1)
    assert got.transcript.render() == want.transcript.render()
    for y, masks in ((11.0, (1, 1)), (11, (1.0, 1))):
        with pytest.raises(ValueError, match="is not an integer"):
            run_toy(y, psi, seed=0, force_masks=masks)


@pytest.mark.parametrize("bad,kind", [((0, 1), "tuple"), (None, "NoneType")],
                         ids=["tuple", "none"])
def test_tgdmqc_user_round_type_named(no_messages, bad, kind):
    w = random_program(N, M, np.random.default_rng(100))
    with pytest.raises(ValueError,
                       match=fr"user_rounds\[0\] is a {kind}, not a ProgramRound"):
        run_tgdmqc(w, [bad], 1, seed=1)


@pytest.mark.parametrize("raw", ["abc", "-3", "2.5"])
def test_bad_max_qubits_env_named(no_messages, monkeypatch, raw):
    monkeypatch.setenv(MAX_QUBITS_ENV, raw)
    with pytest.raises(ValueError, match=fr"{MAX_QUBITS_ENV} is '{raw}', not an integer"):
        run_toy(1, basis_state(1, (0,)), seed=0)


def test_max_qubits_env_takes_every_cap_from_1(monkeypatch):
    # the benchmark's peak probe sets each cap from 1 to the default
    for cap in range(1, DEFAULT_MAX_QUBITS + 1):
        monkeypatch.setenv(MAX_QUBITS_ENV, str(cap))
        assert default_max_qubits() == cap
    monkeypatch.setenv(MAX_QUBITS_ENV, "0")
    with pytest.raises(ValueError, match=f"{MAX_QUBITS_ENV} is '0'"):
        default_max_qubits()


# -- one bit rule and one state rule for every entry point ---------------------

@pytest.mark.parametrize("bits,named", [
    ((2, 1.7), r"bits\[0\] is 2,"),
    ((0, 1.0), r"bits\[1\] is 1\.0,"),
    ((np.float64(1), 0), r"bits\[0\] is np\.float64\(1\.0\),"),
], ids=["two", "float-twin", "numpy-float"])
def test_basis_state_rejects_non_bits(no_messages, bits, named):
    with pytest.raises(ValueError, match=fr"{named} not a bit"):
        basis_state(2, bits)


@pytest.mark.parametrize("inputs,shown", [([1.7], "1.7"), (["1"], "'1'")],
                         ids=["float", "str"])
def test_compile_parity_rejects_non_bits(no_messages, inputs, shown):
    with pytest.raises(ValueError, match=fr"inputs\[0\] is {re.escape(shown)}, not a bit"):
        compile_parity(inputs)


@pytest.mark.parametrize("entry", [(1.0, 0), (np.float64(1), 0)], ids=["float", "numpy-float"])
@pytest.mark.parametrize("eager", [False, True], ids=["frame", "physical"])
@pytest.mark.parametrize("run", [_toqc, _tgdmqc], ids=["toqc", "tgdmqc"])
def test_float_twin_plan_entry_rejected(no_messages, run, eager, entry):
    # the twin comes first, so a run that let it through would send step 1
    plan = [entry] + [(0, 0)] * (OUTCOMES - 1)
    with pytest.raises(ValueError,
                       match=fr"entry {re.escape(repr(entry))} is not a Bell outcome"):
        run(plan, eager)


@pytest.mark.parametrize("entry", [(1.0, 0), (np.float64(1), 0)], ids=["float", "numpy-float"])
def test_toy_float_twin_branch_rejected(no_messages, entry):
    with pytest.raises(ValueError,
                       match=fr"entry {re.escape(repr(entry))} is not a Bell outcome"):
        run_toy(1, basis_state(1, (0,)), seed=0, force_branch=entry)


def _toqc_text():
    w = random_program(1, 1, np.random.default_rng(102))
    return run_toqc(w, basis_bits=(1,), seed=103).transcript.render()


@pytest.mark.parametrize("n,m,named", [
    (1.5, 1, r"n: value 1\.5"),
    (1, 1.0, r"m: value 1\.0"),
    ("1", 1, r"n: value '1'"),
], ids=["n-half", "m-float-twin", "n-str"])
def test_audit_transcript_rejects_non_integral_shape(n, m, named):
    with pytest.raises(ValueError, match=fr"^{named} is not an integer"):
        audit_transcript_file(_toqc_text(), "toqc", n, m, 1)


def test_audit_transcript_takes_bools_and_numpy_ints():
    text = _toqc_text()
    want = audit_transcript_file(text, "toqc", 1, 1, 1)
    assert want.ok, want.details
    for n, m in ((True, np.int64(1)), (np.uint8(1), np.True_)):
        got = audit_transcript_file(text, "toqc", n, m, 1)
        assert (got.ok, got.details) == (want.ok, want.details)


@pytest.mark.parametrize("psi,named", [
    (np.full(8, 1 / np.sqrt(8)), r"psi has 8 amplitudes, expected 2\^2 = 4"),
    (np.ones(4), r"psi has norm 2\.0, not 1"),
    ("0110", "psi is a str, not a vector of amplitudes"),
    (["1", "0", "0", "0"], "psi is a list, not a vector of amplitudes"),
], ids=["count", "norm", "str", "str-entries"])
@pytest.mark.parametrize("call", [oracle.ideal_output, oracle.outcome_distribution],
                         ids=["ideal-output", "outcome-distribution"])
def test_oracle_state_checked(call, psi, named):
    with pytest.raises(ValueError, match=f"^{named}$"):
        call(random_program(N, M, np.random.default_rng(104)), psi, 1)


def test_audit_mask_average_rejects_unnormalized_psi():
    with pytest.raises(ValueError, match=r"^psi has norm 2\.0, not 1$"):
        audit_mask_average(np.ones(4))


@pytest.mark.parametrize("psi", [np.ones(2), [1, 0, 0, 0], "01"],
                         ids=["norm", "two-qubits", "str"])
def test_toy_state_checked(no_messages, psi):
    with pytest.raises(ValueError, match="^psi "):
        run_toy(1, psi, seed=0)


def _toqc_psi(psi):
    return run_toqc(random_program(N, M, np.random.default_rng(105)), psi=psi, seed=106)


def _ideal_output(psi):
    return oracle.ideal_output(random_program(N, M, np.random.default_rng(107)), psi, 1)


def _alloc_state(psi):
    return StateRegister().alloc_state(psi)


@pytest.mark.parametrize("psi,shape", [
    (np.array([[1, 0], [0, 0]]), r"\(2, 2\)"),
    (np.array([[1], [0]]), r"\(2, 1\)"),
    (np.array([[0.6, 0.8]]), r"\(1, 2\)"),
    (np.array(1.0), r"\(\)"),
], ids=["density-matrix", "column", "row", "scalar"])
@pytest.mark.parametrize("call", [_toqc_psi, _ideal_output, _alloc_state],
                         ids=["run-toqc", "ideal-output", "alloc-state"])
def test_state_that_is_not_one_vector_named(no_messages, call, psi, shape):
    # a one-qubit density matrix has the four entries and the norm of a
    # two-qubit state: it must not be read as one
    with pytest.raises(ValueError, match=fr"^psi has shape {shape}, not a vector of amplitudes$"):
        call(psi)


@pytest.mark.parametrize("n,named", [
    (0, "n is 0, not at least 1"),
    (-1, "n is -1, not at least 1"),
    (1.5, r"n: value 1\.5 is not an integer"),
], ids=["zero", "negative", "half"])
@pytest.mark.parametrize("call", [
    lambda n: oracle.random_state(n, np.random.default_rng(108)),
    lambda n: oracle.basis_state(n, ()),
], ids=["random-state", "basis-state"])
def test_oracle_state_qubit_count_checked(call, n, named):
    with pytest.raises(ValueError, match=f"^{named}$"):
        call(n)


@pytest.mark.parametrize("count,named", [
    (0, "count is 0, not at least 1"),
    (1.5, r"count: value 1\.5 is not an integer"),
], ids=["zero", "half"])
def test_alloc_zero_qubits_count_checked(count, named):
    with pytest.raises(ValueError, match=f"^{named}$"):
        StateRegister().alloc_zero_qubits(count)


@pytest.mark.parametrize("seed", [
    {1: 2}, {3, 1}, frozenset({2}), (v for v in (1, 2)), iter([1, 2]), b"\x01",
], ids=["dict", "set", "frozenset", "generator", "list-iterator", "bytes"])
def test_a_seed_that_is_not_a_sequence_is_refused(no_messages, seed):
    # an iterable that is not a sequence gives no order to rely on (a set)
    # or not the values it shows (a dict's keys): seeds are an integer, a
    # tuple, list or range, or an array of at most one dimension
    with pytest.raises(ValueError, match=r"^seed is .*, not None, a non-negative integer"):
        as_seed(seed)
    with pytest.raises(ValueError, match=r"^seed is "):
        run_toqc(zero_program(1, 1), basis_bits=(0,), seed=seed)


@pytest.mark.parametrize("seed,value", [
    (7, 7), (np.int64(7), 7), (np.array(7), 7), (True, 1), ((7, 3), (7, 3)), ([7, 3], (7, 3)),
    (range(2), (0, 1)), (np.array([7, 3]), (7, 3)), ((), ()), (None, None),
])
def test_a_seed_is_an_integer_or_a_sequence_of_them(seed, value):
    assert as_seed(seed) == value


W1 = zero_program(1, 1)


def _apply_on_one_qubit(program):
    reg = StateRegister()
    return oracle.apply_program(reg, reg.alloc_zero_qubits(1), program)


PROGRAM_ENTRY_POINTS = {
    "run_toqc": ("w", lambda bad: run_toqc(bad, basis_bits=(0,))),
    "run_tgdmqc": ("w", lambda bad: run_tgdmqc(bad, W1.rounds)),
    "exhaustive_output_distribution": ("w", lambda bad: exhaustive_output_distribution(
        bad, W1.rounds)),
    "verify_against_ideal": ("w", lambda bad: verify_against_ideal(bad, W1.rounds)),
    "program_with_users": ("w", lambda bad: program_with_users(bad, W1.rounds)),
    "apply_program": ("program", _apply_on_one_qubit),
    "ideal_output": ("program", lambda bad: oracle.ideal_output(bad, basis_state(1, (0,)), 1)),
    "outcome_distribution": ("program", lambda bad: oracle.outcome_distribution(
        bad, basis_state(1, (0,)), 1)),
    "ideal_outcome_distribution": ("program", lambda bad: oracle.ideal_outcome_distribution(
        bad, 1)),
    "program_product-w": ("w", lambda bad: program_product(bad, W1)),
    "program_product-w2": ("w2", lambda bad: program_product(W1, bad)),
    "split_program": ("w", lambda bad: split_program(bad, 1)),
    "concat_programs-w1": ("w1", lambda bad: concat_programs(bad, W1)),
    "concat_programs-w2": ("w2", lambda bad: concat_programs(W1, bad)),
}


@pytest.mark.parametrize("bad,kind", [(None, "NoneType"), (W1.rounds, "tuple"), ("x", "str")],
                         ids=["none", "rounds", "str"])
@pytest.mark.parametrize("entry", PROGRAM_ENTRY_POINTS)
def test_a_program_that_is_not_a_program_is_named(no_messages, entry, bad, kind):
    what, call = PROGRAM_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=fr"^{what} is a {kind}, not a Program$"):
        call(bad)


@pytest.mark.parametrize("n,m", [(3, 2), (2, 3), (11, 1)])
def test_a_branch_walk_over_the_cap_is_refused_before_step_1(no_messages, n, m):
    w = zero_program(n, m)
    outcomes = 2 * n * m
    named = (fr"^a branch walk at n={n}, m={m} takes 4\^{outcomes} = {4 ** outcomes} plans, "
             fr"over the cap of 4\^10 = 1048576$")
    with pytest.raises(ValueError, match=named):
        exhaustive_output_distribution(w, w.rounds)
    for run in (_ToqcRun(w, None, (0,) * n, 1), tgdmqc._Run(w, w.rounds, 1, 0)):
        with pytest.raises(ValueError, match=named):
            next(run.leaves())
        assert run.registry.transcript.records == [] and run.hops == []


def test_the_largest_tested_walk_stays_under_the_cap():
    # (n, m) = (2, 2): 4^8 plans, the walk of test_oqc_reduction_via_split[2]
    w = zero_program(2, 2)
    plan, run = next(tgdmqc._Run(w, w.rounds, 1, 0).leaves())
    assert plan == ((0, 0),) * 8 and len(run.hops) == 5
