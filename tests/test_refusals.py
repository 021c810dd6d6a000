"""Refusals that the other tests do not reach, one test each: every error
path of the package is run at least once."""

import numpy as np
import pytest

from obliq import cli, tgdmqc
from obliq.gates import (
    ProgramRound,
    concat_programs,
    parse_program,
    random_program,
    save_program,
    zero_program,
)
from obliq.harness import audit_mask_average, audit_transcript_file, parse_transcript
from obliq.oracle import apply_program, basis_state
from obliq.qsim import StateRegister, _sample_index, as_state, checked_1q
from obliq.tgdmqc import run_tgdmqc
from obliq.toqc import run_toqc

# -- cli ------------------------------------------------------------------------


def test_a_run_without_a_seed_prints_the_seed_it_drew(monkeypatch, capsys):
    monkeypatch.setattr(cli.secrets, "randbits", lambda bits: 2211)
    assert cli.main(["toy", "--y", "3"]) == 0
    drawn = capsys.readouterr().out
    assert drawn.splitlines()[0] == "seed=2211"
    # the printed seed reproduces the run
    assert cli.main(["toy", "--y", "3", "--seed", "2211"]) == 0
    assert capsys.readouterr().out == drawn


def test_demo_parity_with_the_wrong_bit_count_is_usage_error(capsys):
    assert cli.main(["demo-parity", "3", "1", "0", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert "error=expected 3 input bits, got 2" in captured.err
    assert "verdict=" not in captured.out


def test_tgdmqc_exhaustive_branches_over_the_walk_cap_is_usage_error(tmp_path, capsys):
    # n = 3, m = 2: a walk of 4^12 plans, refused before it starts
    rng = np.random.default_rng(15)
    w, users = tmp_path / "w.txt", tmp_path / "users.txt"
    save_program(random_program(3, 2, rng), w)
    save_program(random_program(3, 2, rng), users)
    assert cli.main(["tgdmqc", "--server-program", str(w), "--user-rounds", str(users),
                     "--seed", "16", "--exhaustive-branches"]) == 2
    captured = capsys.readouterr()
    assert "error=a branch walk at n=3, m=2 takes 4^12 = 16777216 plans" in captured.err
    assert "verdict=" not in captured.out
    # refused before the sampled run: the seed line alone, no output_bits= line
    assert captured.out == "seed=16\n"


def test_a_walk_over_the_cap_builds_no_reference(monkeypatch):
    # verify_against_ideal walks before it builds the oracle's reference
    def forbid(*_args, **_kwargs):
        raise AssertionError("the reference was built for a refused walk")

    monkeypatch.setattr(tgdmqc, "ideal_outcome_distribution", forbid)
    w = zero_program(3, 2)
    with pytest.raises(ValueError, match=r"^a branch walk at n=3, m=2 takes 4\^12"):
        tgdmqc.verify_against_ideal(w, w.rounds)


# -- gates ----------------------------------------------------------------------


def test_concat_programs_on_different_n_is_refused():
    with pytest.raises(ValueError, match="^programs must share n$"):
        concat_programs(zero_program(1, 1), zero_program(2, 1))


@pytest.mark.parametrize("text,named", [
    ("", "empty program text"),
    ("1 1 1\n0\n0\n\n", "header must be two integers: n m"),
    ("1 2\n0\n0\n\n", "expected 6 round lines after the header"),
], ids=["empty", "three-token-header", "too-few-round-lines"])
def test_parse_program_refusals(text, named):
    with pytest.raises(ValueError, match=f"^{named}$"):
        parse_program(text)


def test_round_with_the_wrong_z_length_is_refused():
    with pytest.raises(ValueError, match="^round z must have 1 entries$"):
        ProgramRound((0, 0), (0, 0), ()).check_shape(2)


# -- harness --------------------------------------------------------------------


@pytest.fixture
def tgdmqc_text():
    w = random_program(2, 1, np.random.default_rng(67))
    return run_tgdmqc(w, w.rounds, 1, seed=68).transcript.render()


def test_parse_transcript_skips_blank_lines(tgdmqc_text):
    spaced = tgdmqc_text.replace("\n", "\n\n", 2)
    assert parse_transcript(spaced) == parse_transcript(tgdmqc_text)


def test_parse_transcript_refuses_a_sequence_number_that_does_not_increase(tgdmqc_text):
    lines = tgdmqc_text.splitlines()
    lines[1] = "1" + lines[1][1:]
    with pytest.raises(ValueError, match="^sequence numbers not strictly increasing at 1$"):
        parse_transcript("\n".join(lines))


def test_a_step_outside_the_table_fails_the_audit(tgdmqc_text):
    # a record of no bits, so every total and every listed step still matches
    text = tgdmqc_text + "7 step-99 user-1 server-a classical 0 0 0000000000000000\n"
    verdict = audit_transcript_file(text, "tgdmqc", 2, 1, 1)
    assert not verdict.ok
    assert verdict.details == ["step-99: unexpected transcript step"]


def test_audit_mask_average_refuses_n_above_its_cap():
    with pytest.raises(ValueError, match=r"^mask enumeration capped at n <= 6$"):
        audit_mask_average(basis_state(7, (0,) * 7))


# -- oracle ---------------------------------------------------------------------


def test_apply_program_on_the_wrong_qubit_count_is_refused():
    reg = StateRegister()
    with pytest.raises(ValueError, match="^expected 2 qubits, got 1$"):
        apply_program(reg, reg.alloc_zero_qubits(1), zero_program(2, 1))


# -- qsim -----------------------------------------------------------------------


def test_as_state_without_n_refuses_a_size_that_is_no_power_of_two():
    with pytest.raises(ValueError, match="^psi has 3 amplitudes, not a power of two >= 2$"):
        as_state(np.ones(3) / np.sqrt(3))


def test_checked_1q_refuses_a_3x3_gate():
    with pytest.raises(ValueError, match="^gate must be 2x2$"):
        checked_1q(np.eye(3))


def test_sample_index_needs_an_rng():
    with pytest.raises(ValueError, match="^an rng is required when the outcome is not forced$"):
        _sample_index((0.5, 0.5), None)


def test_measure_z_refuses_to_force_a_zero_probability_outcome():
    reg = StateRegister()
    (q,) = reg.alloc_zero_qubits(1)
    with pytest.raises(ValueError, match="^cannot postselect zero-probability outcome 1$"):
        reg.measure_z(q, force=1)


# -- toqc -----------------------------------------------------------------------


@pytest.mark.parametrize("inputs", [
    {"psi": basis_state(1, (0,)), "basis_bits": (0,)}, {},
], ids=["both", "neither"])
def test_toqc_takes_exactly_one_input(inputs):
    with pytest.raises(ValueError, match="^give exactly one of psi or basis_bits$"):
        run_toqc(zero_program(1, 1), **inputs)
