"""Transcript audit: rendered transcripts re-checked under live-run rules."""

import numpy as np
import pytest

from obliq import cli
from obliq.gates import random_program
from obliq.harness import Transcript, audit_transcript_file, parse_transcript
from obliq.tgdmqc import run_tgdmqc
from obliq.toqc import run_toqc

FIELDS = {"sender": 2, "receiver": 3, "bits": 5}


@pytest.fixture
def tgdmqc_text():
    # n=2, m=1: step-1 carries 16 bits, step-3 24, step-4 goes to two users
    w = random_program(2, 1, np.random.default_rng(60))
    rounds = random_program(2, 1, np.random.default_rng(61)).rounds
    return run_tgdmqc(w, rounds, 1, seed=62).transcript.render()


def edit(text, step, **changes):
    """Replace fields of the record with the given step label."""
    lines = []
    for line in text.splitlines():
        fields = line.split()
        if fields[1] == step:
            for name, value in changes.items():
                fields[FIELDS[name]] = str(value)
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


def test_render_parse_audit_round_trip(tgdmqc_text):
    records = parse_transcript(tgdmqc_text)
    assert [r.step for r in records] == [f"step-{i}" for i in range(1, 7)]
    assert [r.bits for r in records] == [16, 4, 24, 4, 8, 1]
    assert records[3].receivers == ("user-1", "user-2")
    verdict = audit_transcript_file(tgdmqc_text, "tgdmqc", 2, 1, 1)
    assert verdict.ok, verdict.details


@pytest.mark.parametrize("run", [
    lambda w: run_toqc(w, psi=np.eye(4)[1], n_circ=2, seed=65),
    lambda w: run_toqc(w, basis_bits=(1, 0), n_circ=2, seed=65, classical_output=True),
    lambda w: run_tgdmqc(w, random_program(2, 2, np.random.default_rng(66)).rounds, 2, seed=65),
], ids=["toqc-quantum", "toqc-classical", "tgdmqc"])
def test_parsed_transcript_renders_to_its_text(run):
    # the transcript `audit_transcript_file` rebuilds from text renders back
    # to that text, record for record
    text = run(random_program(2, 2, np.random.default_rng(64))).transcript.render()
    parsed = Transcript()
    parsed.records = parse_transcript(text)
    assert parsed.render() == text


def test_toqc_round_trip_passes():
    w = random_program(2, 2, np.random.default_rng(63))
    res = run_toqc(w, basis_bits=(1, 0), seed=64)
    verdict = audit_transcript_file(res.transcript.render(), "toqc", 2, 2, 1)
    assert verdict.ok, verdict.details
    res = run_toqc(w, basis_bits=(1, 0), seed=64, classical_output=True)
    verdict = audit_transcript_file(res.transcript.render(), "toqc", 2, 2, 1,
                                    classical_output=True)
    assert verdict.ok, verdict.details


@pytest.mark.parametrize("step,changes,reason", [
    ("step-4", {"sender": "eve"}, "unknown party"),
    ("step-2", {"receiver": "server-b"}, "not a user-server channel"),
])
def test_tampered_parties_fail(tgdmqc_text, step, changes, reason):
    verdict = audit_transcript_file(edit(tgdmqc_text, step, **changes),
                                    "tgdmqc", 2, 1, 1)
    assert not verdict.ok
    assert any(reason in d for d in verdict.details), verdict.details


def test_tampered_step_sizes_with_equal_totals_fail(tgdmqc_text):
    text = edit(edit(tgdmqc_text, "step-1", bits=20), "step-3", bits=20)
    verdict = audit_transcript_file(text, "tgdmqc", 2, 1, 1)
    assert not verdict.ok
    assert any(d.startswith("step-1:") for d in verdict.details)
    assert any(d.startswith("step-3:") for d in verdict.details)


def test_an_m_above_the_record_count_fails_without_a_step_table(tgdmqc_text):
    # 4m + 2 steps at m = 10^5: one detail, not one per missing step
    first_line = tgdmqc_text.splitlines()[0] + "\n"
    verdict = audit_transcript_file(first_line, "tgdmqc", 2, 10 ** 5, 1)
    assert not verdict.ok
    assert len(verdict.details) <= 3, len(verdict.details)
    assert "m is 100000" in verdict.details[0]


def test_audit_rejects_unknown_protocol(tgdmqc_text):
    with pytest.raises(ValueError, match="unknown protocol"):
        audit_transcript_file(tgdmqc_text, "toy", 2, 1, 1)


def test_cli_audit_exit_codes(tmp_path, tgdmqc_text, capsys):
    honest, tampered = tmp_path / "honest.txt", tmp_path / "tampered.txt"
    honest.write_text(tgdmqc_text)
    tampered.write_text(edit(tgdmqc_text, "step-4", sender="eve"))
    args = ["audit", "--protocol", "tgdmqc", "--n", "2", "--m", "1", "--transcript"]
    assert cli.main(args + [str(honest)]) == 0
    assert "verdict=pass" in capsys.readouterr().out
    assert cli.main(args + [str(tampered)]) == 1
    assert "verdict=fail" in capsys.readouterr().out


def test_cli_audit_rejects_classical_output_for_tgdmqc(tmp_path, tgdmqc_text, capsys):
    # the flag only means something for toqc; a tgdmqc output is always measured
    path = tmp_path / "honest.txt"
    path.write_text(tgdmqc_text)
    args = ["audit", "--protocol", "tgdmqc", "--n", "2", "--m", "1",
            "--transcript", str(path)]
    assert cli.main(args) == 0
    capsys.readouterr()
    assert cli.main(args + ["--classical-output"]) == 2
    captured = capsys.readouterr()
    assert "error=--classical-output applies only to toqc" in captured.err
    assert "verdict=" not in captured.out


@pytest.mark.parametrize("line_edit,named", [
    (lambda fields: fields[:7], "expected 8 fields, got 7"),
    (lambda fields: fields[:5] + ["10x"] + fields[6:], "bits '10x' is not an integer"),
], ids=["seven-fields", "bits-not-an-integer"])
def test_cli_audit_names_the_malformed_line(tmp_path, tgdmqc_text, capsys,
                                            line_edit, named):
    lines = tgdmqc_text.splitlines()
    lines[2] = " ".join(line_edit(lines[2].split()))
    path = tmp_path / "bad.txt"
    path.write_text("\n".join(lines) + "\n")
    args = ["audit", "--protocol", "tgdmqc", "--n", "2", "--m", "1",
            "--transcript", str(path)]
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert f"error=transcript line 3: {named}" in err


def readout_first(text):
    """Move the last record (the step-6 readout) to the front, renumbered."""
    lines = text.splitlines()
    lines = lines[-1:] + lines[:-1]
    return "\n".join(f"{i} {line.split(' ', 1)[1]}"
                     for i, line in enumerate(lines, 1)) + "\n"


def relabel_kind(text, step, kind):
    lines = []
    for line in text.splitlines():
        fields = line.split()
        if fields[1] == step:
            fields[4] = kind
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("tamper,reason", [
    (readout_first, "steps out of order: step-6 step-1"),
    (lambda text: relabel_kind(text, "step-1", "quantum"),
     "step-1: kind quantum, expected classical"),
], ids=["reordered", "relabelled-kind"])
def test_tampered_order_or_kind_fails(tmp_path, capsys, tgdmqc_text, tamper, reason):
    text = tamper(tgdmqc_text)
    verdict = audit_transcript_file(text, "tgdmqc", 2, 1, 1)
    assert not verdict.ok
    assert [d for d in verdict.details if d.startswith(reason)] == verdict.details
    path = tmp_path / "tampered.txt"
    path.write_text(text)
    assert cli.main(["audit", "--protocol", "tgdmqc", "--n", "2", "--m", "1",
                     "--transcript", str(path)]) == 1
    assert "verdict=fail" in capsys.readouterr().out


def test_a_step_sent_against_its_direction_fails():
    # at (n, m) = (1, 1) the two 2-bit downloads at steps 2 and 4 sent up,
    # and the 4-bit upload at step 5 sent down, keep every total and every
    # step's size: only the direction of each step shows the swap
    w = random_program(1, 1, np.random.default_rng(67))
    text = run_toqc(w, basis_bits=(1,), seed=68).transcript.render()
    for step in ("step-2", "step-4"):
        text = edit(text, step, sender="user", receiver="server-a")
    text = edit(text, "step-5", sender="server-a", receiver="user")
    verdict = audit_transcript_file(text, "toqc", 1, 1, 1)
    assert not verdict.ok
    assert verdict.details == ["step-2: sent by user, but the step goes down",
                               "step-4: sent by user, but the step goes down",
                               "step-5: sent by server-a, but the step goes up"]
