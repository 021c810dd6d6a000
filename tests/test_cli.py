"""Command-line exit codes: 0 pass, 1 verification failure, 2 usage error."""

import numpy as np
import pytest

from obliq import cli, gates, oracle, toqc
from obliq.gates import random_program, save_program, zero_program
from obliq.qsim import MAX_QUBITS_ENV


@pytest.fixture
def program_path(tmp_path):
    path = tmp_path / "w.txt"
    save_program(random_program(2, 1, np.random.default_rng(1)), path)
    return str(path)


def test_toqc_passes(program_path, capsys):
    assert cli.main(["toqc", "--program", program_path, "--input", "01",
                     "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "verdict=pass" in out
    # the frame executor measures nothing, so no Bell-uniformity verdict
    assert "verdict_bell-uniformity" not in out


def test_toqc_eager_bell_audits_outcomes(program_path, capsys):
    assert cli.main(["toqc", "--program", program_path, "--input", "10",
                     "--seed", "3", "--eager-bell"]) == 0
    assert "verdict_bell-uniformity=pass" in capsys.readouterr().out


def test_toqc_wrong_length_bits_is_usage_error(program_path, capsys):
    assert cli.main(["toqc", "--program", program_path, "--input", "011",
                     "--seed", "3"]) == 2
    err = capsys.readouterr().err
    assert "error=" in err and "n=2" in err


def test_toqc_over_capacity_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(MAX_QUBITS_ENV, raising=False)
    path = tmp_path / "wide.txt"
    save_program(zero_program(23, 1), path)
    assert cli.main(["toqc", "--program", str(path), "--input", "0" * 23,
                     "--seed", "3"]) == 2
    assert "live-qubit limit of 22" in capsys.readouterr().err


def test_tgdmqc_passes(tmp_path, capsys):
    rng = np.random.default_rng(4)
    w, users = tmp_path / "w.txt", tmp_path / "users.txt"
    save_program(random_program(2, 1, rng), w)
    save_program(random_program(2, 1, rng), users)
    args = ["tgdmqc", "--server-program", str(w), "--user-rounds", str(users),
            "--seed", "5"]
    assert cli.main(args) == 0
    assert "verdict_bell-uniformity" not in capsys.readouterr().out
    assert cli.main(args + ["--eager-bell"]) == 0
    assert "verdict_bell-uniformity=pass" in capsys.readouterr().out


def test_tgdmqc_shape_mismatch_is_usage_error(tmp_path, capsys):
    rng = np.random.default_rng(6)
    w, users = tmp_path / "w.txt", tmp_path / "users.txt"
    save_program(random_program(2, 1, rng), w)
    save_program(random_program(2, 2, rng), users)
    assert cli.main(["tgdmqc", "--server-program", str(w), "--user-rounds",
                     str(users), "--seed", "7"]) == 2
    assert "error=" in capsys.readouterr().err


@pytest.mark.parametrize("bad_line", ["0.5", "0.5 abc"])
def test_toqc_malformed_state_file_is_usage_error(program_path, tmp_path, capsys,
                                                  bad_line):
    state = tmp_path / "state.txt"
    state.write_text(f"0.5 0\n{bad_line}\n0.5 0\n0.5 0\n")
    assert cli.main(["toqc", "--program", program_path, "--input", str(state),
                     "--seed", "3"]) == 2
    err = capsys.readouterr().err
    assert "error=state file line 2" in err and bad_line in err


def test_toqc_state_file_input_passes(program_path, tmp_path, capsys):
    state = tmp_path / "state.txt"
    state.write_text("0.5 0\n\n0 0.5\n-0.5 0\n0 -0.5\n")
    assert cli.main(["toqc", "--program", program_path, "--input", str(state),
                     "--seed", "3"]) == 0
    assert "verdict=pass" in capsys.readouterr().out


def _verdict_lines(out):
    return [line for line in out.splitlines() if line.startswith("verdict=")]


@pytest.mark.parametrize("argv,keys", [
    (["toy", "--y", "5", "--seed", "8"],
     ["branch_11_trace_distance=", "max_trace_distance=", "transcript_end=1",
      "verdict_oracle-output=pass"]),
    (["demo-parity", "3", "1", "0", "1", "--seed", "9"],
     ["parity=0", "expected=0", "output_probability=1.000000000000",
      "verdict_parity=pass"]),
    (["report", "--max-n", "2", "--max-m", "1", "--seed", "10"],
     ["toqc_n1_m1=up:20b+1q down:4b+1q", "toqc_n2_m1=",
      "verdict_toqc-complexity=pass", "verdict_oracle-output=pass"]),
], ids=["toy", "demo-parity", "report"])
def test_subcommand_passes(capsys, argv, keys):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    for key in keys:
        assert key in out
    assert _verdict_lines(out) == ["verdict=pass"]


def test_report_details_name_the_failing_shape(monkeypatch, capsys):
    # break the oracle reference and the ledger of the m = 2 shape only
    ideal_output, run_toqc = oracle.ideal_output, toqc.run_toqc

    def broken_ideal(w, psi, n_circ):
        return np.zeros((2, 2)) if w.m == 2 else ideal_output(w, psi, n_circ)

    def broken_run(w, **kw):
        res = run_toqc(w, **kw)
        res.ledger.upload_bits += w.m == 2
        return res

    monkeypatch.setattr(oracle, "ideal_output", broken_ideal)
    monkeypatch.setattr(toqc, "run_toqc", broken_run)
    assert cli.main(["report", "--max-n", "1", "--max-m", "2", "--seed", "1"]) == 1
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith(("verdict_", "detail_"))]
    m1, m2 = lines[:3], lines[3:]
    assert m1[0] == "verdict_oracle-output=pass"
    assert m1[1].startswith("detail_oracle-output=n1_m1: trace distance ")
    assert m1[2] == "verdict_toqc-complexity=pass"
    assert m2[0] == "verdict_oracle-output=fail"
    assert m2[1] == "detail_oracle-output=n1_m2: trace distance 5.000e-01"
    assert m2[2] == "verdict_toqc-complexity=fail"
    assert m2[3] == "detail_toqc-complexity=n1_m2: upload_bits: got 41, expected 40"
    assert all(line.startswith("detail_toqc-complexity=n1_m2: ") for line in m2[3:])


@pytest.mark.parametrize("text,named", [
    ("a 1\n0\n0\n\n", "program line 1: 'a' is not an integer"),
    ("1 1\n1.5\n0\n\n", "program line 2: '1.5' is not an integer"),
    ("1 2\n0\n0\n\n3\n7x\n\n", "program line 6: '7x' is not an integer"),
], ids=["header", "round-x", "round-y"])
def test_program_bad_integer_names_its_line(tmp_path, capsys, text, named):
    path = tmp_path / "w.txt"
    path.write_text(text)
    assert cli.main(["toqc", "--program", str(path), "--input", "0", "--seed", "1"]) == 2
    assert f"error={named}" in capsys.readouterr().err


def test_program_header_below_1_is_usage_error(tmp_path, capsys):
    path = tmp_path / "w.txt"
    path.write_text("1 -1\n")
    assert cli.main(["toqc", "--program", str(path), "--input", "0", "--seed", "1"]) == 2
    assert "error=program line 1: m is -1, not at least 1" in capsys.readouterr().err


def _transcript(tmp_path, program_path):
    path = tmp_path / "t.txt"
    assert cli.main(["toqc", "--program", program_path, "--input", "01",
                     "--seed", "3", "--out", str(path)]) == 0
    return str(path)


def _break_toy(monkeypatch, tmp_path, program_path):
    # a zero reference is at trace distance 1/2 from every output
    monkeypatch.setattr(gates, "matrix_of", lambda *a: np.zeros((2, 2)))
    return ["toy", "--y", "3", "--seed", "1"]


def _break_toqc(monkeypatch, tmp_path, program_path):
    monkeypatch.setattr(oracle, "ideal_output", lambda *a: np.zeros((2, 2)))
    return ["toqc", "--program", program_path, "--input", "01", "--seed", "3"]


def _break_tgdmqc(monkeypatch, tmp_path, program_path):
    monkeypatch.setattr(oracle, "ideal_outcome_distribution", lambda *a: np.zeros(2))
    return ["tgdmqc", "--server-program", program_path, "--user-rounds",
            program_path, "--seed", "5"]


def _break_demo_parity(monkeypatch, tmp_path, program_path):
    # compile the parity of the inputs with the first bit flipped
    compile_parity = gates.compile_parity
    monkeypatch.setattr(gates, "compile_parity",
                        lambda bits: compile_parity([1 - bits[0]] + bits[1:]))
    return ["demo-parity", "2", "1", "0", "--seed", "2"]


def _break_audit(monkeypatch, tmp_path, program_path):
    # check an n=2, m=1 transcript against the per-step table of m=2
    return ["audit", "--transcript", _transcript(tmp_path, program_path),
            "--protocol", "toqc", "--n", "2", "--m", "2"]


def _break_report(monkeypatch, tmp_path, program_path):
    monkeypatch.setattr(oracle, "ideal_output", lambda *a: np.zeros((2, 2)))
    return ["report", "--max-n", "1", "--max-m", "1", "--seed", "4"]


@pytest.mark.parametrize("breaker", [
    _break_toy, _break_toqc, _break_tgdmqc, _break_demo_parity, _break_audit,
    _break_report,
], ids=lambda f: f.__name__[len("_break_"):])
def test_failed_check_exits_1(monkeypatch, tmp_path, program_path, capsys, breaker):
    argv = breaker(monkeypatch, tmp_path, program_path)
    capsys.readouterr()
    assert cli.main(argv) == 1
    out = capsys.readouterr().out
    assert _verdict_lines(out) == ["verdict=fail"]
    assert any(line.startswith("verdict_") and line.endswith("=fail")
               for line in out.splitlines())


@pytest.mark.parametrize("n,m,n_circ,named", [
    ("0", "1", "1", "n is 0, not at least 1"),
    ("2", "0", "1", "m is 0, not at least 1"),
    ("2", "-1", "1", "m is -1, not at least 1"),
    ("2", "1", "0", "n_circ is 0, not in [1, 2]"),
    ("2", "1", "3", "n_circ is 3, not in [1, 2]"),
], ids=["n0", "m0", "m-neg", "n_circ0", "n_circ-above-n"])
def test_audit_bad_shape_is_usage_error(tmp_path, program_path, capsys, n, m,
                                        n_circ, named):
    argv = ["audit", "--transcript", _transcript(tmp_path, program_path),
            "--protocol", "toqc", "--n", n, "--m", m, "--n-circ", n_circ]
    assert cli.main(argv) == 2
    assert f"error={named}" in capsys.readouterr().err


@pytest.mark.parametrize("flags,named", [
    (["--max-n", "0"], "--max-n is 0"),
    (["--max-m", "0"], "--max-m is 0"),
    (["--max-n", "-2"], "--max-n is -2"),
], ids=["max-n0", "max-m0", "max-n-neg"])
def test_report_max_below_1_is_usage_error(capsys, flags, named):
    assert cli.main(["report", "--seed", "1"] + flags) == 2
    captured = capsys.readouterr()
    assert f"error={named}, not at least 1" in captured.err
    assert "verdict=" not in captured.out
