"""The reference application path: direct program runs and exact marginals."""

import numpy as np
import pytest

from obliq.gates import (
    Program,
    ProgramRound,
    compile_parity,
    random_program,
    split_program,
    zero_program,
)
from obliq.oracle import (
    apply_program,
    basis_state,
    ideal_outcome_distribution,
    ideal_output,
    outcome_distribution,
    random_state,
    total_variation,
)
from obliq.qsim import StateRegister, check_density, pure_density, trace_distance


def test_zero_program_keeps_state():
    psi = random_state(2, np.random.default_rng(0))
    rho = ideal_output(zero_program(2, 2), psi, 2)
    assert trace_distance(rho, pure_density(psi)) < 1e-12


def test_single_round_equals_round_apply():
    from obliq.gates import round_unitary_apply

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


def test_total_variation():
    assert total_variation([1, 0], [0, 1]) == pytest.approx(1.0)
    assert total_variation([0.5, 0.5], [0.5, 0.5]) == 0.0
    for p, q in (([1.0], [0.5, 0.5]), ([0.5, 0.5], [[0.5, 0.5]])):
        with pytest.raises(ValueError, match="dimension mismatch"):
            total_variation(p, q)
