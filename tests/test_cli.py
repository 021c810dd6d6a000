"""Command-line exit codes: 0 pass, 2 usage error."""

import numpy as np
import pytest

from obliq import cli
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
