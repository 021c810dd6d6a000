"""Statevector kernels, in numpy: the one kernel backend.

All kernels address a qubit by its bit position ``m`` counted from the least
significant bit of the amplitude index, so a length-``2**k`` state reshaped to
``(-1, 2, 2**m)`` exposes that qubit on the middle axis.

The per-qubit gate kernels take operands built once per gate, so that a call
is one numpy pass over the state, not a handful of small ones:

- `apply_1q` takes the gate's two columns as (2, 1) arrays (`columns_1q`),
  or a gate per row of a stack of states; broadcast against the two rows of
  each state, two multiplies and one add write both rows of the result;
- `apply_diag1` takes a row slice and a factor (`phase_rows`): a scalar for
  the one row whose phase is not 1, or a (2, 1) column when neither is.

The results are byte for byte those of the per-row form (a copy of row 0,
four scalar multiplies and two adds; one scalar multiply per phased row),
but only because each product keeps its operand order: the gate entry
first in `apply_1q`, for one state or a stack alike, the state first in
`apply_diag1`. On numpy builds that dispatch complex multiplies to AVX-512
the two orders can differ in the last bit, and the one-call column multiply
differs from the per-row one on 2-amplitude states, which `apply_diag1`
therefore multiplies per row. `tests/test_kernel_bytes.py` compares every
bit position of 2 to 4,096 amplitudes against the per-row form.
"""

import numpy as np

BACKEND = "numpy"

_BOTH_ROWS = slice(0, 2)


def columns_1q(gate):
    """`apply_1q`'s operand of a 2x2 gate: its two columns, each a
    contiguous (2, 1) complex128 array."""
    g = np.asarray(gate, dtype=np.complex128)
    return np.ascontiguousarray(g[:, :1]), np.ascontiguousarray(g[:, 1:])


def phase_rows(d0, d1):
    """`apply_diag1`'s operand of diag(d0, d1): the rows whose phase is not
    1, and their factor (a scalar for one row, a (2, 1) column for both)."""
    if d0 == 1 and d1 == 1:
        return slice(0, 0), 1.0
    if d0 == 1:
        return slice(1, 2), d1
    if d1 == 1:
        return slice(0, 1), d0
    return _BOTH_ROWS, np.array([[d0], [d1]], dtype=np.complex128)


def apply_1q(state, m, c0, c1, where=True):
    """The gate of columns (c0, c1) on bit m of `state`, or on each row of a
    (rows, 2^k) stack given (rows, 1, 2, 1) columns, one gate per row;
    numpy's `where` mask leaves the entries (rows) it masks out as they are."""
    v = state.reshape((-1, 2, 1 << m) if state.ndim == 1 else (len(state), -1, 2, 1 << m))
    # both products are taken before the add writes v
    np.add(c0 * v[..., :1, :], c1 * v[..., 1:, :], out=v, where=where)


def apply_diag1(state, m, rows, d):
    v = state.reshape(-1, 2, 1 << m)[:, rows]
    if state.size == 2 and rows == _BOTH_ROWS:
        # the column multiply would round differently here (module docstring)
        state[:1] *= d[0, 0]
        state[1:] *= d[1, 0]
    else:
        np.multiply(v, d, out=v)


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
