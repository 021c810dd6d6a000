"""Register-level checks against independently computed linear algebra.

Expected states and probabilities here are built with plain numpy kron /
matmul so they do not share any code path with the register kernels.
"""

import re
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obliq.gates import matrix_of
from obliq.qsim import (
    MAX_QUBITS_ENV,
    CapacityError,
    StateRegister,
    _sample_index,
    check_density,
    pure_density,
    trace_distance,
)
from obliq.toqc import BELL_UNIFORM

RNG = np.random.default_rng(20240811)

BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def random_qubit(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


def test_alloc_zero_fresh():
    reg = StateRegister()
    reg.alloc_zero_qubits(2)
    assert np.allclose(reg.amplitudes(), [1, 0, 0, 0])
    assert reg.norm_error() < 1e-12


def test_alloc_zero_tensors_on_the_right():
    reg = StateRegister()
    (q,) = reg.alloc_zero_qubits(1)
    reg.apply_1q(q, matrix_of("X"))
    reg.alloc_zero_qubits(1)
    # |1> (x) |0>
    assert np.allclose(reg.amplitudes(), [0, 0, 1, 0])


def test_allocations_equal_np_kron_byte_for_byte():
    # signed zeros included: kron's complex products turn some -0.0 parts
    # into +0.0, and a seeded run's output bytes depend on matching that
    vec = np.array([-0.0 - 0.6j, 0.8 - 0.0j, -0.0 + 0.0j, 0.0 - 0.0j])
    reg, want = StateRegister(), np.ones(1, dtype=complex)
    for alloc, arg, part in ((reg.alloc_state, vec, vec),
                             (reg.alloc_zero_qubits, 1, np.array([1, 0], dtype=complex)),
                             (lambda _: reg.alloc_bell_pair(), None, BELL),
                             (reg.alloc_state, vec, vec)):
        alloc(arg)
        want = np.kron(want, part)
        assert reg.amplitudes().tobytes() == want.tobytes()


def test_alloc_dimension_3n():
    reg = StateRegister()
    reg.alloc_zero_qubits(9)
    assert reg.dimension == 512


def test_alloc_capacity_error_names_limit(monkeypatch):
    monkeypatch.setenv(MAX_QUBITS_ENV, "3")
    reg = StateRegister()
    reg.alloc_zero_qubits(2)
    with pytest.raises(CapacityError, match="limit of 3"):
        reg.alloc_zero_qubits(2)


def test_bell_pair_amplitudes():
    reg = StateRegister()
    reg.alloc_bell_pair()
    assert np.allclose(reg.amplitudes(), BELL, atol=1e-15)


def test_bell_pair_measures_equal():
    for seed in range(20):
        reg = StateRegister()
        q1, q2 = reg.alloc_bell_pair()
        rng = np.random.default_rng(seed)
        b1, p1 = reg.measure_z(q1, rng)
        b2, p2 = reg.measure_z(q2, rng)
        assert b1 == b2
        assert p1 == pytest.approx(0.5, abs=1e-12)
        assert p2 == pytest.approx(1.0, abs=1e-12)


def test_bell_pair_half_is_maximally_mixed():
    reg = StateRegister()
    q1, _ = reg.alloc_bell_pair()
    rho = reg.density_on([q1])
    assert trace_distance(rho, np.eye(2) / 2) < 1e-12


def test_apply_1q_x_flip():
    reg = StateRegister()
    (q,) = reg.alloc_zero_qubits(1)
    reg.apply_1q(q, matrix_of("X"))
    assert np.allclose(reg.amplitudes(), [0, 1])


def test_apply_1q_rejects_nonunitary():
    reg = StateRegister()
    (q,) = reg.alloc_zero_qubits(1)
    with pytest.raises(ValueError, match="unitary"):
        reg.apply_1q(q, np.array([[1, 0], [0, 0.5]]))


def test_t_has_order_eight():
    reg = StateRegister()
    (q,) = reg.alloc_state(random_qubit(RNG))
    before = reg.amplitudes()
    for _ in range(8):
        reg.apply_1q(q, matrix_of("T"))
    assert np.allclose(reg.amplitudes(), before, atol=1e-12)


def test_h_squared_is_zx():
    # multiplied by hand: H^2 = [[0, 1], [-1, 0]] = Z X
    h2 = matrix_of("H") @ matrix_of("H")
    assert np.allclose(h2, np.array([[0, 1], [-1, 0]]), atol=1e-14)
    reg = StateRegister()
    (q,) = reg.alloc_zero_qubits(1)
    reg.apply_1q(q, matrix_of("H"))
    reg.apply_1q(q, matrix_of("H"))
    assert np.allclose(reg.amplitudes(), [0, -1], atol=1e-14)


def test_apply_cz_conventions():
    reg = StateRegister()
    q = reg.alloc_zero_qubits(2)
    reg.apply_1q(q[0], matrix_of("X"))
    reg.apply_1q(q[1], matrix_of("X"))
    reg.apply_cz(q[0], q[1])
    assert np.allclose(reg.amplitudes(), [0, 0, 0, -1])
    reg.apply_cz(q[0], q[1], power=2)  # involution: even power is a no-op
    assert np.allclose(reg.amplitudes(), [0, 0, 0, -1])
    reg.apply_cz(q[0], q[1], power=0)
    assert np.allclose(reg.amplitudes(), [0, 0, 0, -1])
    with pytest.raises(ValueError):
        reg.apply_cz(q[0], q[0])


@pytest.mark.parametrize("method, args", [
    ("apply_cz", ()),
    ("apply_pair_phase", (1, 1, -1.0)),
    ("apply_pair_diag", (1.0, 1.0, 1.0, -1.0)),
    ("bell_measure", ()),
])
def test_pair_methods_name_a_repeated_qubit(method, args):
    reg = StateRegister()
    q = reg.alloc_zero_qubits(2)
    with pytest.raises(ValueError, match=f"^{method} needs two distinct qubits$"):
        getattr(reg, method)(q[0], q[0], *args)
    assert reg.amplitudes().tolist() == [1, 0, 0, 0]


def test_bell_measure_on_bell_state_is_00():
    reg = StateRegister()
    q1, q2 = reg.alloc_bell_pair()
    a, b, probs = reg.bell_measure(q1, q2, rng=np.random.default_rng(0))
    assert (a, b) == (0, 0)
    assert probs[0] == pytest.approx(1.0, abs=1e-12)


def test_bell_measure_product_zero_input():
    # |00> = (|Phi_00> + |Phi_01>)/sqrt 2, so outcomes (0,b) each with 1/2
    reg = StateRegister()
    q = reg.alloc_zero_qubits(2)
    _, _, probs = reg.bell_measure(q[0], q[1], rng=np.random.default_rng(1))
    assert np.allclose(probs, [0.5, 0.5, 0.0, 0.0], atol=1e-12)


def test_bell_measure_forced_zero_branch_rejected():
    reg = StateRegister()
    q1, q2 = reg.alloc_bell_pair()
    with pytest.raises(ValueError, match="zero-probability"):
        reg.bell_measure(q1, q2, force=(1, 0))


def teleport_once(psi, force=None, rng=None):
    """Teleport psi across one Bell pair; returns (reg, out_qubit, a, b, probs)."""
    reg = StateRegister()
    (data,) = reg.alloc_state(psi)
    h_near, h_far = reg.alloc_bell_pair()
    a, b, probs = reg.bell_measure(data, h_near, rng=rng, force=force)
    # correction Z^b X^a
    if a:
        reg.apply_1q(h_far, matrix_of("X"))
    if b:
        reg.apply_1q(h_far, matrix_of("Z"))
    return reg, h_far, a, b, probs


def test_teleportation_identity_all_branches():
    for trial in range(100):
        psi = random_qubit(np.random.default_rng(trial))
        for a in (0, 1):
            for b in (0, 1):
                reg, out, _, _, probs = teleport_once(psi, force=(a, b))
                assert all(abs(p - 0.25) < 1e-12 for p in probs)
                dist = trace_distance(reg.density_on([out]), pure_density(psi))
                assert dist < 1e-10


def test_teleportation_branch_state_before_correction():
    # forced branch (a,b) leaves Z^b X^a psi on the far half: checked against
    # explicit matrix algebra
    psi = random_qubit(np.random.default_rng(7))
    for a in (0, 1):
        for b in (0, 1):
            reg = StateRegister()
            (data,) = reg.alloc_state(psi)
            h_near, h_far = reg.alloc_bell_pair()
            reg.bell_measure(data, h_near, force=(a, b))
            want = (
                np.linalg.matrix_power(matrix_of("Z"), b)
                @ np.linalg.matrix_power(matrix_of("X"), a)
                @ psi
            )
            assert trace_distance(reg.density_on([h_far]), pure_density(want)) < 1e-12


def test_measure_z_deterministic_one():
    reg = StateRegister()
    (q,) = reg.alloc_zero_qubits(1)
    reg.apply_1q(q, matrix_of("X"))
    bit, prob = reg.measure_z(q, rng=np.random.default_rng(0))
    assert bit == 1 and prob == pytest.approx(1.0, abs=1e-12)


def test_measure_z_h_is_balanced():
    # |<0|H|0>|^2 = 1/2 for the rotation Hadamard variant
    for seed in range(10):
        reg = StateRegister()
        (q,) = reg.alloc_zero_qubits(1)
        reg.apply_1q(q, matrix_of("H"))
        bit, prob = reg.measure_z(q, rng=np.random.default_rng(seed))
        assert prob == pytest.approx(0.5, abs=1e-12)
        assert bit in (0, 1)


def test_measure_after_teleport_of_zero():
    reg, out, _, _, _ = teleport_once(
        np.array([1, 0], dtype=complex), rng=np.random.default_rng(3)
    )
    bit, prob = reg.measure_z(out, rng=np.random.default_rng(4))
    assert bit == 0 and prob == pytest.approx(1.0, abs=1e-12)


def test_density_on_full_register_is_projector():
    psi = np.array([0.5, 0.5j, -0.5, 0.5], dtype=complex)
    reg = StateRegister()
    q = reg.alloc_state(psi)
    rho = reg.density_on(q)
    check_density(rho)
    assert np.allclose(rho, pure_density(psi), atol=1e-14)
    assert np.linalg.matrix_rank(rho, tol=1e-10) == 1


def test_density_on_is_basis_independent_for_mixtures():
    # one half of (|00>+|11>)/sqrt2 and of (|01>+|10>)/sqrt2 are both I/2
    rhos = []
    for flip in (False, True):
        reg = StateRegister()
        q = reg.alloc_bell_pair()
        if flip:
            reg.apply_1q(q[1], matrix_of("X"))
        rhos.append(reg.density_on([q[0]]))
    assert np.allclose(rhos[0], rhos[1], atol=1e-14)
    assert trace_distance(rhos[0], np.eye(2) / 2) < 1e-12


def test_density_requires_nonempty_subset():
    reg = StateRegister()
    reg.alloc_zero_qubits(1)
    with pytest.raises(ValueError):
        reg.density_on([])


def test_probabilities_require_nonempty_distinct_live_subset():
    reg = StateRegister()
    q = reg.alloc_zero_qubits(2)
    with pytest.raises(ValueError, match="non-empty"):
        reg.probabilities_on([])
    with pytest.raises(ValueError, match="distinct"):
        reg.probabilities_on([q[0], q[0]])
    reg.measure_z(q[0], force=0)
    for read in (reg.probabilities_on, reg.density_on):
        with pytest.raises(ValueError, match="not live"):
            read([q[0]])


@pytest.mark.parametrize("force", [-1, 2, 0.5])
def test_measure_z_rejects_a_force_that_is_not_a_bit(force):
    reg = StateRegister()
    q = reg.alloc_state(random_qubit(RNG))
    before = reg.amplitudes()
    with pytest.raises(ValueError, match=f"force={force!r} is not a bit"):
        reg.measure_z(q[0], force=force)
    assert reg.amplitudes().tobytes() == before.tobytes() and reg.num_live == 1


@pytest.mark.parametrize("force", [0.0, 1.0, np.float64(1), "1"], ids=repr)
def test_measure_z_rejects_the_float_twin_of_a_bit(force):
    reg = StateRegister()
    q = reg.alloc_state(random_qubit(RNG))
    before = reg.amplitudes()
    with pytest.raises(ValueError, match=re.escape(f"force={force!r} is not a bit")):
        reg.measure_z(q[0], force=force)
    assert reg.amplitudes().tobytes() == before.tobytes() and reg.num_live == 1


@pytest.mark.parametrize("force", [(1.0, 0), (0, np.float64(1)), [0.0, 0.0], "01", 3],
                         ids=repr)
def test_bell_measure_rejects_the_float_twins_of_bits(force):
    reg = StateRegister()
    q1, q2 = reg.alloc_bell_pair()
    before = reg.amplitudes()
    with pytest.raises(ValueError, match=re.escape(f"force={force!r} is not a pair of bits")):
        reg.bell_measure(q1, q2, force=force)
    assert reg.amplitudes().tobytes() == before.tobytes() and reg.num_live == 2


def test_forced_outcomes_take_numpy_ints_and_bools():
    psi = np.kron(random_qubit(np.random.default_rng(21)), random_qubit(np.random.default_rng(22)))
    results = []
    for bit in (1, np.int64(1), np.bool_(True), True):
        reg = StateRegister()
        q = reg.alloc_state(psi)
        results.append((reg.measure_z(q[0], force=bit), reg.amplitudes().tobytes()))
    assert all(r == results[0] for r in results) and type(results[0][0][0]) is int
    results = []
    for pair in ((1, 0), (np.int64(1), np.bool_(False)), np.array([1, 0]), [True, 0]):
        reg = StateRegister()
        q = reg.alloc_state(psi)
        a, b, probs = reg.bell_measure(q[0], q[1], force=pair)
        results.append(((a, b), probs, reg.amplitudes().tobytes()))
    assert all(r == results[0] for r in results) and results[0][0] == (1, 0)
    assert all(type(v) is int for v in results[0][0])


@pytest.mark.parametrize("force", [(2, 0), (0, -1), (1, 0.5), (0,), (0, 1, 1)])
def test_bell_measure_rejects_a_force_that_is_not_bits(force):
    reg = StateRegister()
    q1, q2 = reg.alloc_bell_pair()
    before = reg.amplitudes()
    with pytest.raises(ValueError, match=re.escape(f"force={force!r} is not a pair of bits")):
        reg.bell_measure(q1, q2, force=force)
    assert reg.amplitudes().tobytes() == before.tobytes() and reg.num_live == 2


def test_trace_distance_basics():
    zero = pure_density([1, 0])
    one = pure_density([0, 1])
    assert trace_distance(zero, zero) == 0
    assert trace_distance(zero, one) == pytest.approx(1.0, abs=1e-14)
    # eigenvalues of |0><0| - I/2 are +-1/2
    assert trace_distance(zero, np.eye(2) / 2) == pytest.approx(0.5, abs=1e-14)
    with pytest.raises(ValueError):
        trace_distance(zero, np.eye(4) / 4)


def test_released_handles_are_dead():
    reg = StateRegister()
    q = reg.alloc_zero_qubits(2)
    reg.measure_z(q[0], rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="not live"):
        reg.apply_1q(q[0], matrix_of("X"))
    # the remaining qubit is unaffected
    reg.apply_1q(q[1], matrix_of("X"))
    assert np.allclose(reg.amplitudes(), [0, 1])


def test_handles_never_reused():
    reg = StateRegister()
    q = reg.alloc_zero_qubits(2)
    uids = {h.uid for h in q}
    reg.measure_z(q[0], rng=np.random.default_rng(0))
    q2 = reg.alloc_zero_qubits(2)
    assert uids.isdisjoint({h.uid for h in q2})


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4))
def test_norm_preserved_under_random_ops(seed, n):
    rng = np.random.default_rng(seed)
    reg = StateRegister()
    qubits = list(reg.alloc_zero_qubits(n))
    for _ in range(30):
        op = rng.integers(0, 4)
        if op == 0:
            name = ("X", "Z", "T", "H")[rng.integers(0, 4)]
            reg.apply_1q(qubits[rng.integers(0, len(qubits))], matrix_of(name))
        elif op == 1 and len(qubits) >= 2:
            i, j = rng.choice(len(qubits), size=2, replace=False)
            reg.apply_cz(qubits[i], qubits[j])
        elif op == 2 and len(qubits) > 1:
            q = qubits.pop(rng.integers(0, len(qubits)))
            reg.measure_z(q, rng=rng)
        else:
            if reg.num_live < 6:
                qubits.extend(reg.alloc_zero_qubits(1))
        assert reg.norm_error() < 1e-12


class FixedRng:
    """Stand-in stream whose draws are one fixed value."""

    def __init__(self, r):
        self.r = r

    def random(self):
        return self.r


def test_sample_index_skips_zero_probability_tail():
    # probabilities summing below the draw must not yield the impossible
    # last outcome
    probs = (0.3, 0.3, 0.3, 0.0)
    assert _sample_index(probs, FixedRng(0.95)) == 2
    assert _sample_index(probs, FixedRng(0.5)) == 1
    assert _sample_index((0.25,) * 4, FixedRng(0.75)) == 3
    # a draw r picks the i with c_(i-1) <= r < c_i for the running sums c,
    # checked at 0, at each sum and just below it; a zero-probability
    # outcome has an empty interval, so it is never picked
    for probs in (BELL_UNIFORM, (0.0, 0.625, 0.0, 0.375)):
        sums = list(accumulate(probs))
        for r in (0.0, *sums[:-1], *(np.nextafter(c, 0) for c in sums)):
            i = _sample_index(probs, FixedRng(r))
            assert (0.0 if i == 0 else sums[i - 1]) <= r < sums[i], (probs, r, i)
            assert probs[i] > 0, (probs, r, i)
