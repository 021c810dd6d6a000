"""Statevector kernels, in numpy: the one kernel backend.

All kernels address a qubit by its bit position ``m`` counted from the least
significant bit of the amplitude index, so a length-``2**k`` state reshaped to
``(-1, 2, 2**m)`` exposes that qubit on the middle axis.
"""

import numpy as np

BACKEND = "numpy"


def apply_1q(state, m, u00, u01, u10, u11):
    v = state.reshape(-1, 2, 1 << m)
    a = v[:, 0, :].copy()
    b = v[:, 1, :]
    # each row's sum goes straight into the state: the same products and
    # the same additions as `v[:, r, :] = ... + ...`, without its temporary
    np.add(u00 * a, u01 * b, out=v[:, 0, :])
    np.add(u10 * a, u11 * b, out=b)


def apply_diag1(state, m, d0, d1):
    v = state.reshape(-1, 2, 1 << m)
    if d0 != 1:
        v[:, 0, :] *= d0
    if d1 != 1:
        v[:, 1, :] *= d1


def apply_diag2(state, m1, m2, d00, d01, d10, d11):
    # m1 > m2; row index pairs (bit at m1, bit at m2)
    v = state.reshape(-1, 2, 1 << (m1 - m2 - 1), 2, 1 << m2)
    for (b1, b2), d in (((0, 0), d00), ((0, 1), d01), ((1, 0), d10), ((1, 1), d11)):
        if d != 1:
            v[:, b1, :, b2, :] *= d


def gather_pair(state, m1, m2):
    """Slices of the state by the two bits (m1 > m2), bits removed.

    Returns a (4, 2**(k-2)) array whose rows are keyed by (bit m1, bit m2) =
    00, 01, 10, 11; within a row the remaining bits keep their significance
    order.
    """
    v = state.reshape(-1, 2, 1 << (m1 - m2 - 1), 2, 1 << m2)
    out = np.empty((4, state.size >> 2), dtype=state.dtype)
    for b1 in (0, 1):
        for b2 in (0, 1):
            out[(b1 << 1) | b2] = v[:, b1, :, b2, :].reshape(-1)
    return out


def gather_bit(state, m, bit):
    """State restricted to the given value of bit m, that bit removed."""
    v = state.reshape(-1, 2, 1 << m)
    return v[:, bit, :].flatten()


def prob_bit1(state, m):
    v = state.reshape(-1, 2, 1 << m)
    sl = v[:, 1, :]
    # ndarray.sum is np.sum's add.reduce without its Python wrapper
    return float((sl.real * sl.real + sl.imag * sl.imag).sum())
