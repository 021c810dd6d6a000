"""Dense statevector register with lazy qubit allocation.

Qubits are identified by opaque handles; handles are never reused within a
register. Internally each live qubit owns one axis of the amplitude tensor,
with the earliest-allocated qubit on the most significant index bits. A qubit
slot is reclaimed only by measuring it (Bell or computational), which keeps
the register normalized at all times.
"""

import os
from functools import lru_cache

import numpy as np

from . import kernels

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
    raw = os.environ.get(MAX_QUBITS_ENV)
    return int(raw) if raw else DEFAULT_MAX_QUBITS


class StateRegister:
    def __init__(self, max_qubits=None):
        self.max_qubits = default_max_qubits() if max_qubits is None else max_qubits
        self._amps = np.ones(1, dtype=np.complex128)
        self._order = []          # axis -> handle
        self._axis = {}           # handle -> axis
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
        """The amplitudes and handle map, for `restore` to return to."""
        return self._amps.copy(), list(self._order), dict(self._axis), self._next_uid

    def restore(self, snap):
        amps, order, axis, next_uid = snap
        self._amps = amps.copy()
        self._order = list(order)
        self._axis = dict(axis)
        self._next_uid = next_uid

    def _bitpos(self, q):
        try:
            axis = self._axis[q]
        except KeyError:
            raise ValueError(f"qubit {q!r} is not live") from None
        return len(self._order) - 1 - axis

    def _check_capacity(self, count):
        if len(self._order) + count > self.max_qubits:
            raise CapacityError(
                f"allocating {count} qubit(s) would exceed the live-qubit "
                f"limit of {self.max_qubits} (currently {len(self._order)})"
            )

    def _new_handles(self, count):
        handles = []
        for _ in range(count):
            h = QubitHandle(self._next_uid)
            self._next_uid += 1
            self._axis[h] = len(self._order)
            self._order.append(h)
            handles.append(h)
        return handles

    def _drop(self, q):
        axis = self._axis.pop(q)
        self._order.pop(axis)
        for h in self._order[axis:]:
            self._axis[h] -= 1

    # -- allocation --------------------------------------------------------

    def alloc_zero_qubits(self, count):
        """Append `count` fresh qubits in |0>, tensored onto the state."""
        if count < 1:
            raise ValueError("count must be >= 1")
        self._check_capacity(count)
        zero = np.zeros(1 << count, dtype=np.complex128)
        zero[0] = 1.0
        self._amps = np.kron(self._amps, zero)
        return self._new_handles(count)

    def alloc_bell_pair(self):
        """Append two fresh qubits jointly in (|00> + |11>)/sqrt(2)."""
        self._check_capacity(2)
        self._amps = np.kron(self._amps, _BELL)
        h = self._new_handles(2)
        return h[0], h[1]

    def alloc_state(self, vec):
        """Append qubits holding the given normalized pure state."""
        vec = np.asarray(vec, dtype=np.complex128).reshape(-1)
        k = int(vec.size).bit_length() - 1
        if vec.size != 1 << k or k < 1:
            raise ValueError("state length must be a power of two >= 2")
        if abs(np.linalg.norm(vec) - 1.0) > 1e-9:
            raise ValueError("state vector must be normalized")
        self._check_capacity(k)
        self._amps = np.kron(self._amps, vec)
        return self._new_handles(k)

    # -- unitaries ---------------------------------------------------------

    def apply_1q(self, q, gate):
        """Apply a 2x2 unitary to one qubit; rejects non-unitary input."""
        self.apply_checked_1q(q, checked_1q(gate))

    def apply_checked_1q(self, q, entries):
        """Apply a gate already validated by `checked_1q`, without checking
        it again; for fixed gate tables built once at import."""
        kernels.apply_1q(self._amps, self._bitpos(q), *entries)

    def apply_diag1(self, q, d0, d1):
        """Apply diag(d0, d1) to one qubit; entries must be unit modulus."""
        if abs(abs(d0) - 1.0) > 1e-12 or abs(abs(d1) - 1.0) > 1e-12:
            raise ValueError("diagonal entries must have unit modulus")
        kernels.apply_diag1(self._amps, self._bitpos(q), complex(d0), complex(d1))

    def apply_cz(self, q1, q2, power=1):
        """Controlled-Z to the given power (phase -1 on |11> when power is odd)."""
        if q1 is q2 or q1 == q2:
            raise ValueError("apply_cz needs two distinct qubits")
        if power % 2 == 0:
            self._bitpos(q1), self._bitpos(q2)  # liveness check only
            return
        self.apply_pair_phase(q1, q2, 1, 1, -1.0)

    def apply_pair_phase(self, q1, q2, b1, b2, phase):
        """Multiply amplitudes with (q1,q2) bits equal to (b1,b2) by `phase`."""
        if abs(abs(phase) - 1.0) > 1e-12:
            raise ValueError("phase must have unit modulus")
        m1 = self._bitpos(q1)
        m2 = self._bitpos(q2)
        d = [1.0, 1.0, 1.0, 1.0]
        if m1 > m2:
            d[(b1 << 1) | b2] = phase
            kernels.apply_diag2(self._amps, m1, m2, *d)
        else:
            d[(b2 << 1) | b1] = phase
            kernels.apply_diag2(self._amps, m2, m1, *d)

    def bit_of(self, q):
        """The amplitude-index bit that holds qubit q."""
        return 1 << self._bitpos(q)

    def parity(self, mask):
        """Boolean vector over the amplitude index: popcount(i & mask) is odd."""
        index, parity = _index_tables(self._amps.size)
        return parity[index & mask]

    def apply_paulis(self, qubits, xs, zs, sign_first=False):
        """Z^z X^x on each qubit (X^x Z^z when `sign_first`) as one gather
        amps[i ^ xmask] and one sign pass on the i with odd popcount(i & zmask).

        The per-qubit X and Z gates move or negate amplitudes exactly, so
        this gives the same values; only the sign of a zero part can differ,
        which no read-out sees.
        """
        xmask = sum(self.bit_of(q) for q, x in zip(qubits, xs) if x % 2)
        zmask = sum(self.bit_of(q) for q, z in zip(qubits, zs) if z % 2)
        if zmask and sign_first:
            self.apply_sign(self.parity(zmask))
        if xmask:
            self._amps = self._amps[_index_tables(self._amps.size)[0] ^ xmask]
        if zmask and not sign_first:
            self.apply_sign(self.parity(zmask))

    def apply_sign(self, odd):
        """Multiply the amplitudes where `odd` is set by -1.0, as the diagonal
        kernels do (np.negative would also flip a zero imaginary part)."""
        np.multiply(self._amps, -1.0, out=self._amps, where=odd)

    def apply_pair_diag(self, q1, q2, d00, d01, d10, d11):
        """Apply a two-qubit diagonal, entries keyed by (q1 bit, q2 bit)."""
        for d in (d00, d01, d10, d11):
            if abs(abs(d) - 1.0) > 1e-12:
                raise ValueError("diagonal entries must have unit modulus")
        m1 = self._bitpos(q1)
        m2 = self._bitpos(q2)
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
        if q1 is q2 or q1 == q2:
            raise ValueError("bell_measure needs two distinct qubits")
        if force is not None and (len(force) != 2 or any(v not in (0, 1) for v in force)):
            raise ValueError(f"force={force!r} is not a pair of bits")
        m1 = self._bitpos(q1)
        m2 = self._bitpos(q2)
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
            float(np.sum(c.real * c.real + c.imag * c.imag)) for c in branches
        )
        if force is not None:
            a, b = force
            idx = (int(a) << 1) | int(b)
            if probs[idx] <= 1e-15:
                raise ValueError(f"cannot postselect zero-probability branch {force}")
        else:
            idx = _sample_index(probs, rng)
            a, b = idx >> 1, idx & 1
        self._amps = np.ascontiguousarray(branches[idx] / np.sqrt(probs[idx]))
        # release the later axis first so the earlier one stays valid
        first, second = (q1, q2) if self._axis[q1] > self._axis[q2] else (q2, q1)
        self._drop(first)
        self._drop(second)
        return int(a), int(b), probs

    def measure_z(self, q, rng=None, force=None):
        """Computational-basis measurement; releases the qubit.

        Returns (bit, probability of that bit).
        """
        if force is not None and force not in (0, 1):
            raise ValueError(f"force={force!r} is not a bit")
        m = self._bitpos(q)
        p1 = kernels.prob_bit1(self._amps, m)
        probs = (1.0 - p1, p1)
        if force is not None:
            bit = int(force)
            if probs[bit] <= 1e-15:
                raise ValueError(f"cannot postselect zero-probability outcome {bit}")
        else:
            bit = _sample_index(probs, rng)
        part = kernels.gather_bit(self._amps, m, bit)
        self._amps = part / np.sqrt(probs[bit])
        self._drop(q)
        return bit, probs[bit]

    # -- read-out ----------------------------------------------------------

    def density_on(self, subset):
        """Reduced density matrix of `subset`, axes ordered as given."""
        mat = self._subset_rows(subset)
        return mat @ mat.conj().T

    def probabilities_on(self, subset):
        """Exact computational-basis marginal over `subset` (given order)."""
        mat = self._subset_rows(subset)
        return np.sum(mat.real**2 + mat.imag**2, axis=1)

    def _subset_rows(self, subset):
        """The amplitudes as a matrix: rows keyed by the bits of `subset`
        (given order), columns by the other qubits."""
        if not subset:
            raise ValueError("subset must be non-empty")
        if len(set(id(q) for q in subset)) != len(subset):
            raise ValueError("subset entries must be distinct")
        k = len(self._order)
        axes = [k - 1 - self._bitpos(q) for q in subset]
        rest = [a for a in range(k) if a not in axes]
        t = np.transpose(self._amps.reshape((2,) * k), axes + rest)
        return t.reshape(1 << len(axes), -1)


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


def checked_1q(gate):
    """The entries (u00, u01, u10, u11) of a 2x2 unitary; raises ValueError
    if `gate` is not one."""
    g = np.asarray(gate, dtype=np.complex128)
    if g.shape != (2, 2):
        raise ValueError("gate must be 2x2")
    err = np.abs(g @ g.conj().T - np.eye(2)).max()
    if err > 1e-12:
        raise ValueError(f"gate is not unitary (deviation {err:.2e})")
    return g[0, 0], g[0, 1], g[1, 0], g[1, 1]


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


def check_density(rho, herm_tol=1e-12, trace_tol=1e-12, psd_tol=1e-10):
    """Raise if rho is not a valid density matrix within the tolerances."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    herm = np.abs(rho - rho.conj().T).max()
    if herm > herm_tol:
        raise ValueError(f"not Hermitian (deviation {herm:.2e})")
    tr = abs(np.trace(rho) - 1.0)
    if tr > trace_tol:
        raise ValueError(f"trace differs from 1 by {tr:.2e}")
    lo = float(np.linalg.eigvalsh(rho).min())
    if lo < -psd_tol:
        raise ValueError(f"negative eigenvalue {lo:.2e}")
    return rho


def pure_density(vec):
    v = np.asarray(vec, dtype=np.complex128).reshape(-1)
    return np.outer(v, v.conj())
