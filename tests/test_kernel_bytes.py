"""The one-pass gate kernels give, byte for byte, what the per-row kernels
before them gave.

A complex product's last bit can depend on the order of its operands and on
the loop numpy picks for the shapes at hand, so `np.allclose` cannot show
this: every case compares `tobytes()`. The per-row kernels are kept here as
the reference. Each runs at every bit position of 2- to 4,096-amplitude
states, whose parts include exact values and zeros of both signs, with the
prebuilt operands of `layers` (the 8 H powers, X, Z and all 64 T phase
pairs) and with random unitaries and phases sent through the validating
register methods. The pair phase, which now takes `apply_pair_diag`'s bit
order, is held to its former body the same way.
"""

from itertools import permutations, product

import numpy as np
import pytest

from obliq import kernels
from obliq.gates import matrix_of
from obliq.layers import _H_POWERS, _T_PAIRS, _T_PHASES, _X, _Z
from obliq.qsim import StateRegister


def reference_apply_1q(state, m, u00, u01, u10, u11):
    v = state.reshape(-1, 2, 1 << m)
    a = v[:, 0, :].copy()
    b = v[:, 1, :]
    # each row's sum goes straight into the state: the same products and
    # the same additions as `v[:, r, :] = ... + ...`, without its temporary
    np.add(u00 * a, u01 * b, out=v[:, 0, :])
    np.add(u10 * a, u11 * b, out=b)


def reference_apply_diag1(state, m, d0, d1):
    v = state.reshape(-1, 2, 1 << m)
    if d0 != 1:
        v[:, 0, :] *= d0
    if d1 != 1:
        v[:, 1, :] *= d1


SIZES = range(1, 13)  # 2 to 4,096 amplitudes


def start_states(k):
    """A random normalized state; the same with a third of its parts set to
    +0.0 and a third to -0.0; and an exact state of parts 0, -0.0 and
    +-1/2."""
    rng = np.random.default_rng(k)
    dim = 1 << k
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    vec /= np.linalg.norm(vec)
    zeros = vec.copy()
    picks = rng.integers(0, 3, size=(2, dim))
    for part, pick in zip((zeros.real, zeros.imag), picks):
        part[pick == 1] = 0.0
        part[pick == 2] = -0.0
    # normalized part by part, which keeps the sign of each zero
    norm = np.linalg.norm(zeros)
    for part in (zeros.real, zeros.imag):
        part /= norm
    exact = np.empty(dim, dtype=np.complex128)
    exact.real, exact.imag = rng.choice([0.0, -0.0, 0.5, -0.5], size=(2, dim))
    return vec, zeros, exact


def assert_same_bytes(kernel, reference, state, m, operand, entries):
    got, want = state.copy(), state.copy()
    kernel(got, m, *operand)
    reference(want, m, *entries)
    assert got.tobytes() == want.tobytes(), (state.size, m, entries)


def entries_of(gate):
    g = np.asarray(gate, dtype=np.complex128)
    return g[0, 0], g[0, 1], g[1, 0], g[1, 1]


@pytest.mark.parametrize("k", SIZES)
def test_layer_operands_equal_the_per_row_kernels(k):
    gates_1q = [(_H_POWERS[e], entries_of(matrix_of("H", e))) for e in range(8)]
    gates_1q.append((_X, entries_of(matrix_of("X"))))
    phases = [(_T_PAIRS[8 * k0 + k1], (_T_PHASES[k0], _T_PHASES[k1]))
              for k0 in range(8) for k1 in range(8)]
    phases.append((_Z, (1.0 + 0j, -1.0 + 0j)))
    for state in start_states(k):
        for m in range(k):
            for operand, entries in gates_1q:
                assert_same_bytes(kernels.apply_1q, reference_apply_1q, state, m,
                                  operand, entries)
            for operand, entries in phases:
                assert_same_bytes(kernels.apply_diag1, reference_apply_diag1, state, m,
                                  operand, entries)


def random_unitary(rng):
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("k", SIZES)
def test_validating_register_methods_equal_the_per_row_kernels(k):
    rng = np.random.default_rng(100 + k)
    for state in start_states(k)[:2]:
        reg = StateRegister()
        qubits = reg.alloc_state(state)
        snap = reg.snapshot()
        for m in range(k):
            q = qubits[k - 1 - m]
            for _ in range(4):
                gate = random_unitary(rng)
                start = reg.amplitudes()
                reg.apply_1q(q, gate)
                reference_apply_1q(start, m, *entries_of(gate))
                assert reg.amplitudes().tobytes() == start.tobytes(), (k, m, gate)
                reg.restore(snap)
            # a random phase on one row, on the other, and on both
            d0, d1 = np.exp(2j * np.pi * rng.random(2))
            for pair in ((1.0, d1), (d0, 1.0), (d0, d1)):
                start = reg.amplitudes()
                reg.apply_diag1(q, *pair)
                reference_apply_diag1(start, m, *map(complex, pair))
                assert reg.amplitudes().tobytes() == start.tobytes(), (k, m, pair)
                reg.restore(snap)


def reference_apply_pair_phase(state, m1, m2, b1, b2, phase):
    """`StateRegister.apply_pair_phase` before it went through
    `apply_pair_diag`, on the bit positions m1 and m2 of (q1, q2): it put
    the higher bit first and keyed the one phased entry itself."""
    d = [1.0, 1.0, 1.0, 1.0]
    if m1 > m2:
        d[(b1 << 1) | b2] = phase
        kernels.apply_diag2(state, m1, m2, *d)
    else:
        d[(b2 << 1) | b1] = phase
        kernels.apply_diag2(state, m2, m1, *d)


@pytest.mark.parametrize("k", range(2, 6))
def test_pair_phase_equals_its_own_bit_order(k):
    # the one bit-order rule of `apply_pair_diag` gives, byte for byte, what
    # the pair phase's own swap gave, on every ordered pair of qubits
    phases = (-1.0, 1j, np.exp(1j * np.pi / 4))
    for state in start_states(k):
        reg = StateRegister()
        qubits = reg.alloc_zero_qubits(k)
        for q1, q2 in permutations(qubits, 2):
            m1, m2 = (reg.bit_of(q).bit_length() - 1 for q in (q1, q2))
            for b1, b2, phase in product((0, 1), (0, 1), phases):
                reg.install(state.copy())
                want = state.copy()
                reference_apply_pair_phase(want, m1, m2, b1, b2, phase)
                reg.apply_pair_phase(q1, q2, b1, b2, phase)
                assert reg.amplitudes().tobytes() == want.tobytes(), (k, m1, m2, b1, b2, phase)
