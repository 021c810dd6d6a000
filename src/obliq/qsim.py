"""Dense statevector register with lazy qubit allocation.

Qubits are identified by opaque handles; handles are never reused within a
register. Internally each live qubit owns one axis of the amplitude tensor,
with the earliest-allocated qubit on the most significant index bits; one
list of the live handles, in axis order, gives every position. A qubit slot
is reclaimed only by measuring it (Bell or computational), which keeps the
register normalized at all times. The live-qubit cap has one setting,
the OBLIQ_MAX_QUBITS environment variable (22 when unset), and an input
state one check, `as_state`.
"""

import math
import os
from functools import lru_cache

import numpy as np

from . import kernels
from .gates import as_bits, as_count, as_ints

DEFAULT_MAX_QUBITS = 22
MAX_QUBITS_ENV = "OBLIQ_MAX_QUBITS"

_SQRT_HALF = 1.0 / np.sqrt(2.0)
_BELL = np.array([_SQRT_HALF, 0.0, 0.0, _SQRT_HALF], dtype=np.complex128)


class CapacityError(RuntimeError):
    pass


class QubitHandle:
    """Opaque identifier for one qubit slot; stable until released."""

    __slots__ = ("uid",)

    def __init__(self, uid):
        self.uid = uid

    def __repr__(self):
        return f"q{self.uid}"


def default_max_qubits():
    """The live-qubit cap from OBLIQ_MAX_QUBITS, else the default; a value
    that is not a whole number of at least 1 raises a ValueError naming it."""
    raw = os.environ.get(MAX_QUBITS_ENV)
    if not raw:
        return DEFAULT_MAX_QUBITS
    cap = int(raw) if raw.strip().isdecimal() else 0
    if cap < 1:
        raise ValueError(f"{MAX_QUBITS_ENV} is {raw!r}, not an integer of at least 1")
    return cap


def as_state(psi, n=None):
    """`psi` as a complex128 vector; raises a ValueError unless it is one
    vector (a matrix or a scalar names its shape), has 2^n amplitudes (any
    power of two >= 2 when n is None) and its norm is within 1e-9 of 1."""
    vec = np.asarray(psi)
    if vec.dtype.kind not in "biufc":
        raise ValueError(f"psi is a {type(psi).__name__}, not a vector of amplitudes")
    if vec.ndim != 1:
        raise ValueError(f"psi has shape {vec.shape}, not a vector of amplitudes")
    vec = vec.astype(np.complex128, copy=False)
    if n is None:
        k = vec.size.bit_length() - 1
        if k < 1 or vec.size != 1 << k:
            raise ValueError(f"psi has {vec.size} amplitudes, not a power of two >= 2")
    elif vec.size != 1 << n:
        raise ValueError(f"psi has {vec.size} amplitudes, expected 2^{n} = {1 << n}")
    norm = float(np.linalg.norm(vec))
    if not abs(norm - 1.0) <= 1e-9:
        raise ValueError(f"psi has norm {norm!r}, not 1")
    return vec


class StateRegister:
    def __init__(self):
        self.max_qubits = default_max_qubits()
        self._amps = np.ones(1, dtype=np.complex128)
        self._order = []          # axis -> handle
        self._next_uid = 0

    # -- bookkeeping -------------------------------------------------------

    @property
    def num_live(self):
        return len(self._order)

    @property
    def dimension(self):
        return self._amps.size

    def amplitudes(self):
        """Copy of the amplitude vector (earliest qubit = most significant bit)."""
        return self._amps.copy()

    def norm_error(self):
        return abs(float(np.sum(self._amps.real**2 + self._amps.imag**2)) - 1.0)

    def snapshot(self):
        """The amplitudes, the live handles in axis order and the next uid,
        for `restore` to return to."""
        return self._amps.copy(), list(self._order), self._next_uid

    def restore(self, snap):
        amps, order, self._next_uid = snap
        self._amps = amps.copy()
        self._order = list(order)

    def _bitpos(self, q):
        try:
            return len(self._order) - 1 - self._order.index(q)
        except ValueError:
            raise ValueError(f"qubit {q!r} is not live") from None

    def _pair_bitpos(self, q1, q2, what):
        """The bit positions of two distinct live qubits; `what` names the
        caller in the error."""
        if q1 is q2 or q1 == q2:
            raise ValueError(f"{what} needs two distinct qubits")
        return self._bitpos(q1), self._bitpos(q2)

    def _check_capacity(self, count):
        if len(self._order) + count > self.max_qubits:
            raise CapacityError(
                f"allocating {count} qubit(s) would exceed the live-qubit "
                f"limit of {self.max_qubits} (currently {len(self._order)})"
            )

    def _new_handles(self, count):
        start = self._next_uid
        handles = [QubitHandle(uid) for uid in range(start, start + count)]
        self._next_uid += count
        self._order += handles
        return handles

    # -- allocation --------------------------------------------------------

    def alloc_zero_qubits(self, count):
        """Append `count` fresh qubits in |0>, tensored onto the state;
        `count` must be an integer of at least 1 (`as_count`)."""
        count = as_count(count, "count")
        self._check_capacity(count)
        zero = np.zeros(1 << count, dtype=np.complex128)
        zero[0] = 1.0
        self._amps = self._tensor(zero)
        return self._new_handles(count)

    def alloc_bell_pair(self):
        """Append two fresh qubits jointly in (|00> + |11>)/sqrt(2)."""
        self._check_capacity(2)
        self._amps = self._tensor(_BELL)
        h = self._new_handles(2)
        return h[0], h[1]

    def alloc_state(self, vec, n=None):
        """Append qubits holding the given normalized pure state, of n qubits
        when n is given (`as_state` checks it)."""
        vec = as_state(vec, n)
        k = vec.size.bit_length() - 1
        self._check_capacity(k)
        self._amps = self._tensor(vec)
        return self._new_handles(k)

    def _tensor(self, vec):
        """The state tensored with `vec` on the low index bits: the products
        np.kron forms, in one broadcast multiply without its set-up."""
        return (self._amps[:, None] * vec).reshape(-1)

    # -- unitaries ---------------------------------------------------------

    def apply_1q(self, q, gate):
        """Apply a 2x2 unitary to one qubit; rejects non-unitary input."""
        self.apply_checked_1q(q, checked_1q(gate))

    def apply_checked_1q(self, q, columns):
        """Apply a gate operand built and validated by `checked_1q`, without
        checking it again; for fixed gate tables built once at import."""
        kernels.apply_1q(self._amps, self._bitpos(q), *columns)

    def apply_diag1(self, q, d0, d1):
        """Apply diag(d0, d1) to one qubit; entries must be unit modulus."""
        self.apply_checked_diag1(q, checked_diag1(d0, d1))

    def apply_checked_diag1(self, q, rows):
        """Apply a diagonal operand built and validated by `checked_diag1`,
        without checking it again."""
        kernels.apply_diag1(self._amps, self._bitpos(q), *rows)

    def apply_cz(self, q1, q2, power=1):
        """Controlled-Z to the integer `power` (phase -1 on |11> when power
        is odd)."""
        (power,) = as_ints((power,), "power")
        bitpos = self._pair_bitpos(q1, q2, "apply_cz")
        if power % 2:
            self._apply_pair_cells(bitpos, 1.0, 1.0, 1.0, -1.0)

    def apply_pair_phase(self, q1, q2, b1, b2, phase):
        """Multiply amplitudes with (q1,q2) bits equal to (b1,b2) by `phase`;
        b1 and b2 must be bits and |phase| = 1."""
        cell = (_bit_arg(b1, "b1") << 1) | _bit_arg(b2, "b2")
        checked_phase(phase)
        bitpos = self._pair_bitpos(q1, q2, "apply_pair_phase")
        d = [1.0, 1.0, 1.0, 1.0]
        d[cell] = phase
        self._apply_pair_cells(bitpos, *d)

    def bit_of(self, q):
        """The amplitude-index bit that holds qubit q."""
        return 1 << self._bitpos(q)

    def parity(self, mask):
        """Boolean vector over the amplitude index: popcount(i & mask) is odd;
        for a 1-d array of masks, one such row per mask."""
        index, parity = _index_tables(self._amps.size)
        return parity[index & (mask[:, None] if getattr(mask, "ndim", 0) else mask)]

    def quadratic_parity(self, lin, quad):
        """Boolean vector over the amplitude index i: popcount(i & lin) plus,
        for each bit b set in i, popcount(i & quad[b]) is odd. By linearity
        that is popcount(i & M(i)) with M(i) = lin ^ quad[b] over the bits b
        set in i. M is built by doubling: the indices with top bit h are
        those below h, XOR quad[h]."""
        index, parity = _index_tables(self._amps.size)
        m = np.empty(self._amps.size, dtype=index.dtype)
        m[0] = lin
        h = 1
        while h < m.size:
            np.bitwise_xor(m[:h], quad.get(h, 0), out=m[h:2 * h])
            h <<= 1
        return parity[np.bitwise_and(m, index, out=m)]

    def apply_paulis(self, qubits, xs, zs):
        """Z^z X^x on each qubit as one gather amps[i ^ xmask], then one sign
        pass on the i with odd popcount(i & zmask).

        The per-qubit X and Z gates move or negate amplitudes exactly, so
        this gives the same values; only the sign of a zero part can differ,
        which no read-out sees. X^x Z^z is the same up to the global sign
        (-1)^(sum of x z), which no density matrix or probability shows.
        """
        xmask = zmask = 0
        for q, x, z in zip(qubits, xs, zs):
            bit = self.bit_of(q)
            if x % 2:
                xmask ^= bit
            if z % 2:
                zmask ^= bit
        if xmask:
            self._amps = self._amps[_index_tables(self._amps.size)[0] ^ xmask]
        if zmask:
            self.apply_sign(self.parity(zmask))

    def pauli_rows(self, xmasks, zmasks):
        """A stack of states, one row per mask pair: row r holds what
        `apply_paulis` leaves for X mask xmasks[r] and Z mask zmasks[r],
        byte for byte, from one gather through the index table and one sign
        pass over all rows. The stack is a batch of classical rows, not live
        qubits: it takes no handle and does not count toward the
        OBLIQ_MAX_QUBITS cap or the live-qubit peak (it holds
        len(xmasks) x dimension amplitudes)."""
        rows = self._amps[_index_tables(self._amps.size)[0] ^ np.asarray(xmasks)[:, None]]
        np.multiply(rows, -1.0, out=rows, where=self.parity(np.asarray(zmasks)))
        return rows

    def install(self, amps):
        """Take `amps`, a state of the live qubits in index order (a vector
        of `dimension` amplitudes), as the amplitudes, without a copy: a row
        a stacked pass computed."""
        self._amps = amps

    def apply_sign(self, odd):
        """Multiply the amplitudes where `odd` is set by -1.0, as the diagonal
        kernels do (np.negative would also flip a zero imaginary part)."""
        np.multiply(self._amps, -1.0, out=self._amps, where=odd)

    def apply_pair_diag(self, q1, q2, d00, d01, d10, d11):
        """Apply a two-qubit diagonal, entries keyed by (q1 bit, q2 bit)."""
        for d in (d00, d01, d10, d11):
            checked_phase(d)
        self._apply_pair_cells(self._pair_bitpos(q1, q2, "apply_pair_diag"),
                               d00, d01, d10, d11)

    def _apply_pair_cells(self, bitpos, d00, d01, d10, d11):
        """The diagonal keyed by (q1 bit, q2 bit) on the bit positions
        (m1, m2) of (q1, q2): the one rule that puts the higher bit first."""
        m1, m2 = bitpos
        if m1 > m2:
            kernels.apply_diag2(self._amps, m1, m2, d00, d01, d10, d11)
        else:
            kernels.apply_diag2(self._amps, m2, m1, d00, d10, d01, d11)

    # -- measurement -------------------------------------------------------

    def bell_measure(self, q1, q2, rng=None, force=None):
        """Measure (q1, q2) in the Bell basis {(X^a Z^b x I)|Phi>}.

        Returns (a, b, branch_probs) with branch_probs ordered (0,0), (0,1),
        (1,0), (1,1). Both qubits are released; the survivor of a
        teleportation is left holding Z^b X^a times the input state. Pass
        `force=(a, b)` to postselect a branch instead of sampling.
        """
        m1, m2 = self._pair_bitpos(q1, q2, "bell_measure")
        if force is not None:
            force = _bit_arg(force, "force", pair=True)
        if m1 > m2:
            quad = kernels.gather_pair(self._amps, m1, m2)
            s00, s01, s10, s11 = quad  # rows keyed (q1 bit, q2 bit)
        else:
            quad = kernels.gather_pair(self._amps, m2, m1)
            s00, s10, s01, s11 = quad
        branches = (
            (s00 + s11) * _SQRT_HALF,   # (a, b) = (0, 0)
            (s00 - s11) * _SQRT_HALF,   # (0, 1)
            (s10 + s01) * _SQRT_HALF,   # (1, 0)
            (s10 - s01) * _SQRT_HALF,   # (1, 1)
        )
        probs = tuple(
            float((c.real * c.real + c.imag * c.imag).sum()) for c in branches
        )
        if force is not None:
            a, b = force
            idx = (a << 1) | b
            if probs[idx] <= 1e-15:
                raise ValueError(f"cannot postselect zero-probability branch {force}")
        else:
            idx = _sample_index(probs, rng)
            a, b = idx >> 1, idx & 1
        self._amps = np.ascontiguousarray(branches[idx] / math.sqrt(probs[idx]))
        self._order.remove(q1)
        self._order.remove(q2)
        return int(a), int(b), probs

    def measure_z(self, q, rng=None, force=None):
        """Computational-basis measurement; releases the qubit.

        Returns (bit, probability of that bit).
        """
        if force is not None:
            force = _bit_arg(force, "force")
        m = self._bitpos(q)
        p1 = kernels.prob_bit1(self._amps, m)
        probs = (1.0 - p1, p1)
        if force is not None:
            bit = force
            if probs[bit] <= 1e-15:
                raise ValueError(f"cannot postselect zero-probability outcome {bit}")
        else:
            bit = _sample_index(probs, rng)
        part = kernels.gather_bit(self._amps, m, bit)
        self._amps = part / math.sqrt(probs[bit])
        self._order.remove(q)
        return bit, probs[bit]

    # -- read-out ----------------------------------------------------------

    def density_on(self, subset):
        """Reduced density matrix of `subset`, axes ordered as given."""
        mat = self._subset_rows(subset)
        return mat @ mat.conj().T

    def probabilities_on(self, subset):
        """Exact computational-basis marginal over `subset` (given order)."""
        return marginals(self._subset_rows(subset))

    def _subset_rows(self, subset):
        """The amplitudes as a matrix: rows keyed by the bits of `subset`
        (given order), columns by the other qubits."""
        if not subset:
            raise ValueError("subset must be non-empty")
        if list(subset) == self._order[:len(subset)]:  # the leading qubits, in order
            return self._amps.reshape(1 << len(subset), -1)
        if len({id(q) for q in subset}) != len(subset):
            raise ValueError("subset entries must be distinct")
        k = len(self._order)
        axes = [k - 1 - self._bitpos(q) for q in subset]
        rest = [a for a in range(k) if a not in axes]
        t = self._amps.reshape((2,) * k).transpose(axes + rest)
        return t.reshape(1 << len(axes), -1)


def marginals(mat):
    """|amplitude|^2 summed along the last axis: the law of the row keys of
    one amplitude matrix (`probabilities_on`), or of each matrix of a stack
    (`PauliFrame.stack`)."""
    re, im = mat.real, mat.imag
    return (re * re + im * im).sum(axis=-1)


@lru_cache(maxsize=4)
def _index_tables(dim):
    """The index vector 0..dim-1 and the parity of each index's popcount,
    kept for the last few register dimensions (read-only: callers share them)."""
    index = np.arange(dim)
    parity = np.zeros(dim, dtype=bool)
    for b in range(dim.bit_length() - 1):
        parity ^= ((index >> b) & 1).astype(bool)
    index.flags.writeable = parity.flags.writeable = False
    return index, parity


@lru_cache(maxsize=8)
def _xor_index(dim, mask):
    """i -> i ^ mask over 0..dim-1, kept for the last 8 (dim, mask); read-only."""
    perm = _index_tables(dim)[0] ^ mask
    perm.flags.writeable = False
    return perm


def checked_1q(gate):
    """The kernel operand (`kernels.columns_1q`) of a 2x2 unitary; raises
    ValueError if `gate` is not one (a NaN or infinite entry among them)."""
    g = np.asarray(gate, dtype=np.complex128)
    if g.shape != (2, 2):
        raise ValueError("gate must be 2x2")
    # a unitary's entries have modulus at most 1; testing that first refuses
    # NaN and inf, and keeps the matmul below from overflowing
    big = np.abs(g).max()
    if not big <= 1.0 + 1e-12:
        raise ValueError(f"gate is not unitary (an entry has modulus {big:.2e})")
    err = np.abs(g @ g.conj().T - np.eye(2)).max()
    if not err <= 1e-12:
        raise ValueError(f"gate is not unitary (deviation {err:.2e})")
    return kernels.columns_1q(g)


def checked_phase(d):
    """`d` as a Python complex; raises ValueError unless |d| = 1 (NaN is not)."""
    if not abs(abs(d) - 1.0) <= 1e-12:
        raise ValueError("diagonal entries must have unit modulus")
    return complex(d)


def checked_diag1(d0, d1):
    """The kernel operand (`kernels.phase_rows`) of diag(d0, d1); raises
    ValueError unless both entries have unit modulus."""
    return kernels.phase_rows(checked_phase(d0), checked_phase(d1))


def _bit_arg(value, what, pair=False):
    """The argument `what` by the one bit rule (`gates.as_bits`): a pair of
    0/1 ints when `pair`, else one; anything else raises a ValueError naming
    it."""
    try:
        return as_bits(value, what, 2) if pair else as_bits((value,), what)[0]
    except ValueError:
        kind = "a pair of bits" if pair else "a bit"
        raise ValueError(f"{what}={value!r} is not {kind}") from None


def _sample_index(probs, rng):
    if rng is None:
        raise ValueError("an rng is required when the outcome is not forced")
    r = rng.random()
    acc = 0.0
    for i, p in enumerate(probs):
        acc += p
        if r < acc:
            return i
    # round-off left the sum below r: take the last outcome that can happen
    return max(i for i, p in enumerate(probs) if p > 0)


# -- density-matrix helpers -------------------------------------------------

def trace_distance(rho, sigma):
    """Half the trace norm of rho - sigma (Hermitian inputs)."""
    rho = np.asarray(rho)
    sigma = np.asarray(sigma)
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    eig = np.linalg.eigvalsh(rho - sigma)
    return 0.5 * float(np.sum(np.abs(eig)))
