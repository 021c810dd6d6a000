"""Reference functionality: apply a program's unitary directly.

This module is the independent check for the protocol runs. It touches only
the register primitives and its own round application; none of the party or
query machinery is involved. The round application takes its T and H
operands from `gates.matrix_of`, each built and checked once, at import,
not from the protocol's tables in `layers`, so the oracle stays independent
of the protocol's data plane.
"""

import numpy as np

from .gates import (as_bits, as_count, as_program, bits_index, check_n_circ, matrix_of,
                    pair_table)
from .qsim import StateRegister, checked_1q, checked_diag1


def _read_only(columns):
    for c in columns:
        c.flags.writeable = False
    return columns


# the checked kernel operands of T^k (k < 8) and H^k (k < 4), arrays read-only
T_OPERANDS = tuple(checked_diag1(1.0, matrix_of("T", k)[1, 1]) for k in range(8))
H_OPERANDS = tuple(_read_only(checked_1q(matrix_of("H", k))) for k in range(4))


def round_unitary_apply(reg, qubits, rnd):
    """Apply one round's unitary H(x) T(y) CZ(z) to the given qubits of the
    register `reg`; `rnd` must be a ProgramRound on len(qubits) qubits.

    CZ factors go first (lexicographic pairs), then T (ascending qubit), then
    H; within each family the factors commute. Each T phase and H power is
    applied from its operand in `T_OPERANDS` or `H_OPERANDS`, checked when
    it was built, so a gate costs one kernel pass and no check.
    """
    n = len(qubits)
    rnd.check_shape(n)
    for (s, t), zp in zip(pair_table(n), rnd.z):
        if zp:
            reg.apply_cz(qubits[s], qubits[t])
    for q, yp in zip(qubits, rnd.y):
        if yp:
            reg.apply_checked_diag1(q, T_OPERANDS[yp])
    for q, xp in zip(qubits, rnd.x):
        if xp:
            reg.apply_checked_1q(q, H_OPERANDS[xp])


def apply_program(reg, qubits, program):
    """Apply all rounds of `program` in order to the given qubits."""
    program = as_program(program, "program")
    if len(qubits) != program.n:
        raise ValueError(f"expected {program.n} qubits, got {len(qubits)}")
    for rnd in program.rounds:
        round_unitary_apply(reg, qubits, rnd)


def _applied(program, psi, n_circ):
    """A register holding the program applied to psi, and its first n_circ qubits."""
    program = as_program(program, "program")
    n_circ = check_n_circ(n_circ, program.n)
    reg = StateRegister()
    qubits = reg.alloc_state(psi, program.n)
    apply_program(reg, qubits, program)
    return reg, qubits[:n_circ]


def ideal_output(program, psi, n_circ):
    """Density of the first n_circ qubits of the program applied to psi."""
    reg, qubits = _applied(program, psi, n_circ)
    return reg.density_on(qubits)


def outcome_distribution(program, psi, n_circ):
    """Exact distribution of the first n_circ measured bits on W|psi>.

    The returned vector is indexed by the bits of qubits 1..n_circ with
    qubit 1 as the most significant bit.
    """
    reg, qubits = _applied(program, psi, n_circ)
    return np.asarray(reg.probabilities_on(qubits), dtype=float)


def ideal_outcome_distribution(program, n_circ):
    """Outcome distribution for the all-zero input state."""
    program = as_program(program, "program")
    return outcome_distribution(program, basis_state(program.n, (0,) * program.n), n_circ)


def basis_state(n, bits):
    """|bits> as an amplitude vector, first bit most significant."""
    n = as_count(n, "n")
    idx = bits_index(as_bits(bits, "bits", n))
    psi = np.zeros(1 << n, dtype=np.complex128)
    psi[idx] = 1.0
    return psi


def random_state(n, rng):
    """Haar-ish random pure state on n qubits (normalized Gaussian vector)."""
    n = as_count(n, "n")
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return v / np.linalg.norm(v)


def total_variation(p, q):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"dimension mismatch: {p.shape} vs {q.shape}")
    return 0.5 * float(np.sum(np.abs(p - q)))
