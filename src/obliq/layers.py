"""Masked gate layers: each layer's net effect as a classical value, and the
data-plane passes that apply it.

A layer is a commuting family of factors X^u G(q_u * e) X^u over the mask
index u ((u, v) for the pair gates). The control plane multiplies them out
into one value, exactly equal to the factors one by one: `t_layer` gives per
wire the T exponents (k0, k1) on |0> and |1>, `h_layer` per wire an H power,
and `cz_layer` the sign polynomial (const, lin, quad) mod 2 over the wire
bits. They are pure functions over ints and tuples. The data plane
(`apply_masked_t_layer`, `apply_masked_h_layer`, `apply_cz_sign_layer`) maps
the wires to register bits and applies the value: one kernel pass per active
qubit for T and H, one sign pass for CZ. The H pass takes the value itself,
which a branch walk builds once per distinct key, and `apply_h_rows` applies
one value per row to a stack of states through the same kernel.
`apply_masked_cz_layer`, `apply_zx` and `apply_xz` are the per-gate
references of the fused passes.
"""

from itertools import compress

import numpy as np

from . import kernels
from .gates import matrix_of, pair_table, qubit_pairs
from .qsim import checked_1q, checked_diag1, checked_phase


def t_phase(k):
    return np.exp(1j * np.pi * (k % 8) / 4)


# kernel operands built and validated once here, so the hot Pauli, phase
# and rotation updates skip the check: X, Z, the 8 H powers, and diag(T^k0,
# T^k1) for the 64 exponent pairs at 8 k0 + k1, from the 8 T phases
_X = checked_1q(matrix_of("X"))
_Z = checked_diag1(1.0, -1.0)
_H_POWERS = tuple(checked_1q(matrix_of("H", e)) for e in range(8))
_T_PHASES = tuple(checked_phase(t_phase(k)) for k in range(8))
_T_PAIRS = tuple(checked_diag1(d0, d1) for d0 in _T_PHASES for d1 in _T_PHASES)
# the H powers' two columns as (8, 1, 2, 1) tables, indexed by a stack's powers
_H_COLUMN0, _H_COLUMN1 = (np.array(cols)[:, None] for cols in zip(*_H_POWERS))


def t_layer(family, y_exps):
    """prod_u X^u T(family[u][s] * y[s]) X^u per wire s as its exponents
    (k0, k1) mod 8 on |0> and |1>: u = 0 phases |1>, u = 1 phases |0>."""
    return tuple([((f1 * y) % 8, (f0 * y) % 8)
                  for f0, f1, y in zip(family[0], family[1], y_exps)])


def h_layer(family, x_exps):
    """prod_u X^u H(family[u][s] * x[s]) X^u = H^((f0 - f1) x) per wire s,
    as that power: X conjugation inverts H."""
    return tuple([((f0 - f1) * x) % 8 for f0, f1, x in zip(family[0], family[1], x_exps)])


def cz_layer(family, z_exps, n):
    """`apply_masked_cz_layer` as (const, lin, quad) mod 2, `quad` over the
    pairs (s, t) of `pair_table(n)`: it negates the wire-bit cells b where
    const + sum lin[s] b_s + sum quad[p] b_s b_t is odd. An active pair
    negates cell (bs, bt) when f(bs, bt) = family[(1-bs, 1-bt)][p] is odd,
    over Z2 f00 + (f00+f10) bs + (f00+f01) bt + (f00+f01+f10+f11) bs bt."""
    const, lin, quad = 0, [0] * n, []
    for (s, t), z, f00, f01, f10, f11 in zip(
            pair_table(n), z_exps,
            family[(1, 1)], family[(1, 0)], family[(0, 1)], family[(0, 0)]):
        if z & 1:
            const ^= f00
            lin[s] ^= (f00 ^ f10) & 1
            lin[t] ^= (f00 ^ f01) & 1
            quad.append((f00 ^ f01 ^ f10 ^ f11) & 1)
        else:
            quad.append(0)
    return const & 1, tuple(lin), tuple(quad)


def apply_masked_t_layer(reg, qubits, family, y_exps):
    """`t_layer` on `qubits`, one diagonal pass per qubit with a nonzero exponent."""
    for q, (k0, k1) in zip(qubits, t_layer(family, y_exps)):
        if k0 or k1:
            reg.apply_checked_diag1(q, _T_PAIRS[8 * k0 + k1])


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
    """`cz_layer` as one sign pass, with `lin` mapped to a mask of register
    bits and `quad` to each wire's mask of partners."""
    n = len(qubits)
    const, lin, quad = cz_layer(family, z_exps, n)
    bits = [reg.bit_of(q) for q in qubits]
    lin_mask, partners = sum(compress(bits, lin)), {}
    for s, t in compress(pair_table(n), quad):
        partners[bits[s]] = partners.get(bits[s], 0) | bits[t]
    if not (const or lin_mask or partners):
        return
    odd = reg.quadratic_parity(lin_mask, partners)
    if const:
        np.logical_not(odd, out=odd)
    reg.apply_sign(odd)


def apply_masked_h_layer(reg, qubits, powers):
    """An `h_layer` value on `qubits`, one rotation pass per qubit whose
    power is not 0. It takes the value, not the queries, so that a branch
    walk builds each distinct value once."""
    for q, e in zip(qubits, powers):
        if e:
            reg.apply_checked_1q(q, _H_POWERS[e])


def apply_h_rows(rows, bits, powers):
    """`apply_masked_h_layer` on every row of a stack of states
    (`StateRegister.pauli_rows`), row r with the value powers[r], the wires
    on the register bits `bits`: one `kernels.apply_1q` pass per wire that
    skips the rows of power 0, as the per-row pass does (the identity's
    products could flip the sign of a zero part)."""
    for bit, e in zip(bits, np.asarray(powers).T):
        kernels.apply_1q(rows, bit.bit_length() - 1, _H_COLUMN0[e], _H_COLUMN1[e],
                         where=(e != 0)[:, None, None, None])


def apply_zx(reg, qubit, x_bit, z_bit):
    """Z^z X^x: the X flip first, then the Z phase."""
    if x_bit % 2:
        reg.apply_checked_1q(qubit, _X)
    if z_bit % 2:
        reg.apply_checked_diag1(qubit, _Z)


def apply_xz(reg, qubit, x_bit, z_bit):
    """X^x Z^z: the Z phase first, then the X flip."""
    if z_bit % 2:
        reg.apply_checked_diag1(qubit, _Z)
    if x_bit % 2:
        reg.apply_checked_1q(qubit, _X)
