"""The reference application path: direct program runs and exact marginals."""

import numpy as np
import pytest

from obliq.gates import (
    Program,
    ProgramRound,
    compile_parity,
    matrix_of,
    qubit_pairs,
    random_program,
    split_program,
    zero_program,
)
from obliq.oracle import (
    H_OPERANDS,
    T_OPERANDS,
    apply_program,
    basis_state,
    ideal_outcome_distribution,
    ideal_output,
    outcome_distribution,
    random_state,
    total_variation,
)
from obliq.qsim import StateRegister, trace_distance
from test_qsim import check_density, pure_density


def test_zero_program_keeps_state():
    psi = random_state(2, np.random.default_rng(0))
    rho = ideal_output(zero_program(2, 2), psi, 2)
    assert trace_distance(rho, pure_density(psi)) < 1e-12


def test_single_round_equals_round_apply():
    from obliq.oracle import round_unitary_apply

    rng = np.random.default_rng(1)
    w = random_program(2, 1, rng)
    psi = random_state(2, rng)
    reg = StateRegister()
    q = reg.alloc_state(psi)
    round_unitary_apply(reg, q, w.rounds[0])
    assert trace_distance(ideal_output(w, psi, 2), reg.density_on(q)) < 1e-12


def test_split_application_matches():
    rng = np.random.default_rng(2)
    w = random_program(2, 3, rng)
    psi = random_state(2, rng)
    w1, w2 = split_program(w, 1)
    reg = StateRegister()
    q = reg.alloc_state(psi)
    apply_program(reg, q, w1)
    apply_program(reg, q, w2)
    assert trace_distance(ideal_output(w, psi, 2), reg.density_on(q)) < 1e-12


def test_ideal_output_entangling_round():
    # CZ on |++> yields a maximally entangled pair: each half is I/2
    w = Program(2, (ProgramRound((0, 0), (0, 0), (1,)),))
    plus_plus = np.full(4, 0.5, dtype=complex)
    rho = ideal_output(w, plus_plus, 1)
    check_density(rho)
    assert trace_distance(rho, np.eye(2) / 2) < 1e-12


def test_ideal_output_checks_range():
    w = zero_program(2, 1)
    with pytest.raises(ValueError):
        ideal_output(w, basis_state(2, (0, 0)), 3)
    with pytest.raises(ValueError):
        ideal_output(w, basis_state(2, (0, 0)), 0)


def test_outcome_distribution_zero_program():
    dist = ideal_outcome_distribution(zero_program(3, 1), 3)
    assert dist[0] == pytest.approx(1.0, abs=1e-14)


def test_outcome_distribution_single_h():
    w = Program(1, (ProgramRound((1,), (0,), ()),))
    dist = ideal_outcome_distribution(w, 1)
    assert np.allclose(dist, [0.5, 0.5], atol=1e-14)


def test_outcome_distribution_parity_point_masses():
    for bits in ((0,), (1,), (1, 1), (1, 0, 1)):
        program, n_circ = compile_parity(bits)
        dist = ideal_outcome_distribution(program, n_circ)
        assert dist[sum(bits) % 2] == pytest.approx(1.0, abs=1e-12)


def test_parity_first_qubit_density():
    program, _ = compile_parity((1, 0))
    rho = ideal_output(program, basis_state(2, (0, 0)), 1)
    assert trace_distance(rho, pure_density([0, 1])) < 1e-10


def test_appending_zero_round_is_invariant():
    rng = np.random.default_rng(3)
    w = random_program(2, 2, rng)
    psi = random_state(2, rng)
    extended = Program(2, w.rounds + (ProgramRound((0, 0), (0, 0), (0,)),))
    a = ideal_output(w, psi, 1)
    b = ideal_output(extended, psi, 1)
    assert trace_distance(a, b) < 1e-12


def test_distribution_normalization_random_programs():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        w = random_program(n, m, rng)
        n_circ = int(rng.integers(1, n + 1))
        dist = ideal_outcome_distribution(w, n_circ)
        assert abs(dist.sum() - 1.0) < 1e-12
        assert (dist >= -1e-15).all()


def test_outcome_distribution_basis_inputs():
    w = zero_program(2, 1)
    dist = outcome_distribution(w, basis_state(2, (1, 0)), 2)
    assert dist[2] == pytest.approx(1.0, abs=1e-14)  # bits (1,0) -> index 2


def reference_round_apply(reg, qubits, rnd):
    """`round_unitary_apply` through the register methods that check every
    operand at every call: a CZ as its pair diagonal, T as diag(1, e^(i pi
    y/4)) and H as its matrix power."""
    for (s, t), zp in zip(qubit_pairs(len(qubits)), rnd.z):
        if zp:
            reg.apply_pair_diag(qubits[s - 1], qubits[t - 1], 1.0, 1.0, 1.0, -1.0)
    for q, yp in zip(qubits, rnd.y):
        if yp:
            reg.apply_diag1(q, 1.0, np.exp(1j * np.pi * yp / 4))
    for q, xp in zip(qubits, rnd.x):
        if xp:
            reg.apply_1q(q, matrix_of("H", xp))


def reference_readouts(program, psi, n_circ):
    reg = StateRegister()
    qubits = reg.alloc_state(psi, program.n)
    for rnd in program.rounds:
        reference_round_apply(reg, qubits, rnd)
    return (reg.density_on(qubits[:n_circ]),
            np.asarray(reg.probabilities_on(qubits[:n_circ]), dtype=float))


def exactness_cases():
    rng = np.random.default_rng(2211)
    for n in range(1, 7):
        for m in (1, 2, 3):
            yield random_program(n, m, rng), random_state(n, rng), int(rng.integers(1, n + 1))
        yield zero_program(n, 2), random_state(n, rng), n
        bits = tuple(int(b) for b in rng.integers(0, 2, size=n))
        yield random_program(n, 2, rng), basis_state(n, bits), 1
        yield random_program(n, 1, rng), basis_state(n, (0,) * n), n


def test_oracle_equals_per_call_checked_rounds_byte_for_byte():
    # the operands built once per exponent are the ones each call built, so
    # the oracle's outputs keep every byte
    for w, psi, n_circ in exactness_cases():
        rho, probs = reference_readouts(w, psi, n_circ)
        assert ideal_output(w, psi, n_circ).tobytes() == rho.tobytes(), (w, n_circ)
        assert outcome_distribution(w, psi, n_circ).tobytes() == probs.tobytes(), (w, n_circ)


def test_round_operands_are_read_only():
    t_ops, h_ops = T_OPERANDS, H_OPERANDS
    assert len(t_ops) == 8 and len(h_ops) == 4
    for columns in h_ops:
        for c in columns:
            with pytest.raises(ValueError, match="read-only"):
                c[0, 0] = 0


def test_total_variation():
    assert total_variation([1, 0], [0, 1]) == pytest.approx(1.0)
    assert total_variation([0.5, 0.5], [0.5, 0.5]) == 0.0
    for p, q in (([1.0], [0.5, 0.5]), ([0.5, 0.5], [[0.5, 0.5]])):
        with pytest.raises(ValueError, match="dimension mismatch"):
            total_variation(p, q)
