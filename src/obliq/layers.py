"""Masked gate layers applied by the servers.

Each layer is a commuting family of factors X^u G(q_u * e) X^u over the mask
index u (and (u, v) for the pair gates); the factors are multiplied out to a
single diagonal (or a single H power) per target, which is exactly equal to
applying them one by one. A CZ layer is a +-1 diagonal, so
`apply_cz_sign_layer` also multiplies the targets out: one sign pass over the
register. `apply_masked_cz_layer`, `apply_zx` and `apply_xz` are the
per-gate references of the fused passes.
"""

import numpy as np

from .gates import h_power, matrix_of, qubit_pairs
from .qsim import checked_1q

# validated once here, so the hot Pauli and rotation updates skip the check
_X = checked_1q(matrix_of("X"))
_H_POWERS = tuple(checked_1q(h_power(e)) for e in range(8))


def t_phase(k):
    return np.exp(1j * np.pi * (k % 8) / 4)


def apply_masked_t_layer(reg, qubits, family, y_exps):
    """prod_u X^u T(family[u][s] * y[s]) X^u on every qubit s.

    family maps u in {0, 1} to a length-n exponent vector (mod 8).
    """
    for s, q in enumerate(qubits):
        d1 = t_phase(family[0][s] * y_exps[s])  # u = 0 phases the |1> component
        d0 = t_phase(family[1][s] * y_exps[s])  # u = 1 phases the |0> component
        if d0 != 1 or d1 != 1:
            reg.apply_diag1(q, d0, d1)


def apply_masked_cz_layer(reg, qubits, family, z_exps):
    """prod_(u,v) X_s^u X_t^v CZ(family[(u,v)][p] * z[p]) X_s^u X_t^v per pair.

    family maps (u, v) in Z2 x Z2 to a vector over qubit_pairs(n); the factor
    for (u, v) contributes phase -1 on the (1+u, 1+v) basis cell.
    """
    n = len(qubits)
    for p, (s, t) in enumerate(qubit_pairs(n)):
        if z_exps[p] % 2 == 0:
            continue
        d = [1.0, 1.0, 1.0, 1.0]
        for bs in (0, 1):
            for bt in (0, 1):
                if family[((1 - bs) % 2, (1 - bt) % 2)][p] % 2:
                    d[(bs << 1) | bt] = -1.0
        if d != [1.0, 1.0, 1.0, 1.0]:
            reg.apply_pair_diag(qubits[s - 1], qubits[t - 1], *d)


def apply_cz_sign_layer(reg, qubits, family, z_exps):
    """`apply_masked_cz_layer` as one sign pass over the register.

    An active pair (s, t) negates cell (bs, bt) when f(bs, bt) =
    family[(1-bs, 1-bt)][p] is odd; over Z2 that is f00 + (f00+f10) bs +
    (f00+f01) bt + (f00+f01+f10+f11) bs bt. Summed over the pairs, the layer
    negates the cells where a constant, a linear mask and, per wire s, the
    bs-weighted mask of its partners t add up to odd.
    """
    bits = [reg.bit_of(q) for q in qubits]
    c00, c01, c10, c11 = family[(1, 1)], family[(1, 0)], family[(0, 1)], family[(0, 0)]
    const, lin, quad = 0, 0, {}
    for p, (s, t) in enumerate(qubit_pairs(len(qubits))):
        if z_exps[p] % 2 == 0:
            continue
        f00, f01, f10, f11 = c00[p] % 2, c01[p] % 2, c10[p] % 2, c11[p] % 2
        ms, mt = bits[s - 1], bits[t - 1]
        const ^= f00
        lin ^= (ms if f00 ^ f10 else 0) ^ (mt if f00 ^ f01 else 0)
        if f00 ^ f01 ^ f10 ^ f11:
            quad[ms] = quad.get(ms, 0) ^ mt
    if not (const or lin or quad):
        return
    odd = reg.parity(lin)
    for ms, partners in quad.items():
        odd ^= reg.parity(ms) & reg.parity(partners)
    if const:
        np.logical_not(odd, out=odd)
    reg.apply_sign(odd)


def apply_masked_h_layer(reg, qubits, family, x_exps):
    """prod_u X^u H(family[u][s] * x[s]) X^u = H^((q0 - q1) x) on every qubit."""
    for s, q in enumerate(qubits):
        e = ((family[0][s] - family[1][s]) * x_exps[s]) % 8
        if e:
            reg.apply_checked_1q(q, _H_POWERS[e])


def apply_zx(reg, qubit, x_bit, z_bit):
    """Z^z X^x: the X flip first, then the Z phase."""
    if x_bit % 2:
        reg.apply_checked_1q(qubit, _X)
    if z_bit % 2:
        reg.apply_diag1(qubit, 1.0, -1.0)


def apply_xz(reg, qubit, x_bit, z_bit):
    """X^x Z^z: the Z phase first, then the X flip."""
    if z_bit % 2:
        reg.apply_diag1(qubit, 1.0, -1.0)
    if x_bit % 2:
        reg.apply_checked_1q(qubit, _X)
