"""A model of the state register: any sequence of allocations (|0...0>, a
Bell pair, a given state), forced Bell and Z measurements, Pauli updates,
snapshots and restores (to any earlier snapshot) leaves a `StateRegister`
whose handle positions, released handles and read-out equal those of a
dense model.

The model is a numpy tensor with one axis per live qubit and an explicit
list of the handles on those axes, the earliest first (the most significant
index bit). Each step is written out on the tensor: an outer product to
allocate, a contraction with a Bell or Z basis vector to measure, a flip
and a sign along an axis for X and Z.
"""

from itertools import count

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, initialize, invariant, rule

from obliq.qsim import StateRegister

MAX_LIVE = 6

# the Bell basis (X^a Z^b x I)|Phi>, as 2x2 coefficient arrays keyed by
# (first qubit bit, second qubit bit)
BELL_BASIS = {
    (0, 0): np.array([[1, 0], [0, 1]]) / np.sqrt(2),
    (0, 1): np.array([[1, 0], [0, -1]]) / np.sqrt(2),
    (1, 0): np.array([[0, 1], [1, 0]]) / np.sqrt(2),
    (1, 1): np.array([[0, -1], [1, 0]]) / np.sqrt(2),
}


def zero_state(k):
    vec = np.zeros(1 << k, dtype=np.complex128)
    vec[0] = 1.0
    return vec


def random_vector(k, seed):
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=1 << k) + 1j * rng.normal(size=1 << k)
    return vec / np.linalg.norm(vec)


class Model:
    """The dense tensor (one axis per live handle, in `axes` order) and the
    next handle uid."""

    def __init__(self):
        self.psi = np.ones((), dtype=np.complex128)
        self.axes = []
        self.next_uid = 0

    def copy(self):
        other = Model()
        other.psi, other.axes, other.next_uid = self.psi.copy(), list(self.axes), self.next_uid
        return other

    def append(self, vec, handles):
        k = vec.size.bit_length() - 1
        self.psi = np.multiply.outer(self.psi, vec.reshape((2,) * k))
        self.axes += handles
        self.next_uid += k

    def front(self, subset):
        """The tensor with the axes of `subset` first, in the given order."""
        idx = [self.axes.index(q) for q in subset]
        rest = [i for i in range(len(self.axes)) if i not in idx]
        return np.transpose(self.psi, idx + rest)

    def rows(self, subset):
        return self.front(subset).reshape(1 << len(subset), -1)

    def branches(self, subset, basis):
        """Each outcome's unnormalized rest state: the subset's axes
        contracted with the outcome's basis coefficients."""
        t = self.front(subset)
        k = len(subset)
        return {o: np.tensordot(c.conj(), t, axes=(list(range(k)), list(range(k))))
                for o, c in basis.items()}

    def collapse(self, subset, rest):
        """Release the subset's axes, leaving the normalized `rest` state."""
        self.psi = rest / np.linalg.norm(rest)
        self.axes = [q for q in self.axes if q not in subset]


def law(branches):
    return {o: float(np.sum(np.abs(v) ** 2)) for o, v in branches.items()}


class RegisterModel(RuleBasedStateMachine):
    snapshots = Bundle("snapshots")

    @initialize(target=snapshots)
    def start(self):
        self.reg = StateRegister()
        self.model = Model()
        self.released = set()
        self.steps = count()
        return self.snapshot()

    def _room(self):
        return MAX_LIVE - len(self.model.axes)

    def _allocated(self, handles, vec):
        uids = [q.uid for q in handles]
        assert uids == list(range(self.model.next_uid, self.model.next_uid + len(uids)))
        self.model.append(vec, list(handles))

    def _pick(self, data, size):
        return data.draw(st.permutations(self.model.axes).map(lambda qs: qs[:size]))

    @rule(data=st.data())
    def alloc_zero_qubits(self, data):
        if self._room() < 1:
            return
        k = data.draw(st.integers(1, min(3, self._room())))
        self._allocated(self.reg.alloc_zero_qubits(k), zero_state(k))

    @rule()
    def alloc_bell_pair(self):
        if self._room() < 2:
            return
        bell = np.array([1, 0, 0, 1], dtype=np.complex128) / np.sqrt(2)
        self._allocated(self.reg.alloc_bell_pair(), bell)

    @rule(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
    def alloc_state(self, data, seed):
        if self._room() < 1:
            return
        vec = random_vector(data.draw(st.integers(1, min(2, self._room()))), seed)
        self._allocated(self.reg.alloc_state(vec), vec)

    @rule(data=st.data())
    def bell_measure(self, data):
        """A forced outcome of positive probability, on two live handles in
        either order; an outcome the model gives probability 0 is refused
        and changes nothing."""
        if len(self.model.axes) < 2:
            return
        pair = self._pick(data, 2)
        branches = self.model.branches(pair, BELL_BASIS)
        probs = law(branches)
        impossible = [o for o, p in probs.items() if p < 1e-20]
        if impossible and data.draw(st.booleans()):
            outcome = data.draw(st.sampled_from(impossible))
            self._refused(lambda: self.reg.bell_measure(*pair, force=outcome))
            return
        outcome = data.draw(st.sampled_from([o for o, p in probs.items() if p > 1e-9]))
        a, b, got = self.reg.bell_measure(*pair, force=outcome)
        assert (a, b) == outcome
        assert np.allclose(got, [probs[o] for o in sorted(probs)], rtol=0, atol=1e-12)
        self.model.collapse(pair, branches[outcome])
        self.released.update(pair)

    @rule(data=st.data())
    def measure_z(self, data):
        if not self.model.axes:
            return
        (q,) = self._pick(data, 1)
        branches = self.model.branches([q], {0: np.array([1, 0]), 1: np.array([0, 1])})
        probs = law(branches)
        bit = data.draw(st.sampled_from([o for o, p in probs.items() if p > 1e-9]))
        got_bit, got_p = self.reg.measure_z(q, force=bit)
        assert got_bit == bit and abs(got_p - probs[bit]) <= 1e-12
        self.model.collapse([q], branches[bit])
        self.released.add(q)

    @rule(data=st.data())
    def apply_paulis(self, data):
        """Z^z X^x on a random subset, in a random order."""
        subset = self._pick(data, data.draw(st.integers(0, len(self.model.axes))))
        bits = st.lists(st.integers(0, 3), min_size=len(subset), max_size=len(subset))
        xs, zs = data.draw(bits), data.draw(bits)
        self.reg.apply_paulis(subset, xs, zs)
        psi = self.model.psi
        for q, x, z in zip(subset, xs, zs):
            axis = self.model.axes.index(q)
            if x % 2:
                psi = np.flip(psi, axis)
            if z % 2:
                psi = psi * np.array([1.0, -1.0]).reshape([-1] + [1] * (psi.ndim - axis - 1))
        self.model.psi = psi

    @rule(target=snapshots)
    def snapshot(self):
        return self.reg.snapshot(), self.model.copy()

    @rule(snap=snapshots)
    def restore(self, snap):
        raw, model = snap
        self.reg.restore(raw)
        self.released = (self.released | set(self.model.axes)) - set(model.axes)
        self.model = model.copy()

    def _refused(self, call):
        before = self.reg.amplitudes().tobytes(), list(self.reg._order)
        try:
            call()
        except ValueError:
            pass
        else:
            raise AssertionError(f"{call} was accepted, the model refuses it")
        assert (self.reg.amplitudes().tobytes(), list(self.reg._order)) == before

    @invariant()
    def equals_the_model(self):
        if not hasattr(self, "reg"):
            return
        axes = self.model.axes
        k = len(axes)
        assert self.reg.num_live == k
        for i, q in enumerate(axes):
            assert self.reg.bit_of(q) == 1 << (k - 1 - i)
        for q in self.released:
            with pytest.raises(ValueError, match="is not live"):
                self.reg.bit_of(q)
        assert np.allclose(self.reg.amplitudes(), self.model.psi.reshape(-1),
                           rtol=0, atol=1e-12)
        if not axes:
            return
        # a subset of the live qubits in a random order, fixed by the step
        rng = np.random.default_rng(next(self.steps))
        subset = [axes[i] for i in rng.permutation(k)[:rng.integers(1, k + 1)]]
        rows = self.model.rows(subset)
        assert np.allclose(self.reg.probabilities_on(subset),
                           np.sum(np.abs(rows) ** 2, axis=1), rtol=0, atol=1e-12)
        assert np.allclose(self.reg.density_on(subset), rows @ rows.conj().T,
                           rtol=0, atol=1e-12)


RegisterModel.TestCase.settings = settings(
    derandomize=True, database=None, deadline=None, max_examples=100,
    stateful_step_count=25, suppress_health_check=[HealthCheck.too_slow])
test_register_model = RegisterModel.TestCase
