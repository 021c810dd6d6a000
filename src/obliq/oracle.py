"""Reference functionality: apply a program's unitary directly.

This module is the independent check for the protocol runs. It touches only
the register primitives and the round application from `gates`; none of the
party or query machinery is involved.
"""

import numpy as np

from .gates import as_bits, bits_index, check_n_circ, round_unitary_apply
from .qsim import StateRegister


def apply_program(reg, qubits, program):
    """Apply all rounds of `program` in order to the given qubits."""
    if len(qubits) != program.n:
        raise ValueError(f"expected {program.n} qubits, got {len(qubits)}")
    for rnd in program.rounds:
        round_unitary_apply(reg, qubits, rnd)


def ideal_output(program, psi, n_circ):
    """Density of the first n_circ qubits of the program applied to psi."""
    n_circ = check_n_circ(n_circ, program.n)
    reg = StateRegister()
    qubits = reg.alloc_state(psi, program.n)
    apply_program(reg, qubits, program)
    return reg.density_on(qubits[:n_circ])


def outcome_distribution(program, psi, n_circ):
    """Exact distribution of the first n_circ measured bits on W|psi>.

    The returned vector is indexed by the bits of qubits 1..n_circ with
    qubit 1 as the most significant bit.
    """
    n_circ = check_n_circ(n_circ, program.n)
    reg = StateRegister()
    qubits = reg.alloc_state(psi, program.n)
    apply_program(reg, qubits, program)
    probs = reg.probabilities_on(qubits[:n_circ])
    return np.asarray(probs, dtype=float)


def ideal_outcome_distribution(program, n_circ):
    """Outcome distribution for the all-zero input state."""
    return outcome_distribution(program, basis_state(program.n, (0,) * program.n), n_circ)


def basis_state(n, bits):
    """|bits> as an amplitude vector, first bit most significant."""
    idx = bits_index(as_bits(bits, "bits", n))
    psi = np.zeros(1 << n, dtype=np.complex128)
    psi[idx] = 1.0
    return psi


def random_state(n, rng):
    """Haar-ish random pure state on n qubits (normalized Gaussian vector)."""
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return v / np.linalg.norm(v)


def total_variation(p, q):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"dimension mismatch: {p.shape} vs {q.shape}")
    return 0.5 * float(np.sum(np.abs(p - q)))
