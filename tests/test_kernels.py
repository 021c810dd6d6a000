"""The kernels must agree with dense matrices and direct indexing."""

import numpy as np
import pytest

import obliq.kernels as kernels

backends = [kernels]


def random_state(k, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=1 << k) + 1j * rng.normal(size=1 << k)
    return (v / np.linalg.norm(v)).astype(np.complex128)


def embed_1q(u, k, m):
    """u acting on bit m of a k-bit index, as a dense 2^k matrix."""
    out = np.eye(1, dtype=complex)
    for bit in reversed(range(k)):
        out = np.kron(out, u if bit == m else np.eye(2))
    return out


@pytest.mark.parametrize("backend", backends, ids=lambda b: b.BACKEND)
@pytest.mark.parametrize("m", [0, 1, 3])
def test_apply_1q_matches_dense(backend, m):
    k = 4
    u = np.array([[0.6, 0.8j], [0.8, -0.6j]], dtype=complex)
    state = random_state(k, 1)
    want = embed_1q(u, k, m) @ state
    got = state.copy()
    backend.apply_1q(got, m, *backend.columns_1q(u))
    assert np.allclose(got, want, atol=1e-14)


@pytest.mark.parametrize("backend", backends, ids=lambda b: b.BACKEND)
def test_apply_diag1_matches_dense(backend):
    k, m = 3, 1
    d0, d1 = np.exp(0.3j), np.exp(-1.1j)
    state = random_state(k, 2)
    want = embed_1q(np.diag([d0, d1]), k, m) @ state
    got = state.copy()
    backend.apply_diag1(got, m, *backend.phase_rows(d0, d1))
    assert np.allclose(got, want, atol=1e-14)


@pytest.mark.parametrize("backend", backends, ids=lambda b: b.BACKEND)
@pytest.mark.parametrize("m1,m2", [(3, 0), (2, 1), (4, 2)])
def test_apply_diag2_matches_dense(backend, m1, m2):
    k = 5
    phases = np.exp(1j * np.array([0.2, -0.4, 0.9, 2.2]))
    state = random_state(k, 3)
    want = state.copy()
    for i in range(1 << k):
        b1 = (i >> m1) & 1
        b2 = (i >> m2) & 1
        want[i] *= phases[(b1 << 1) | b2]
    got = state.copy()
    backend.apply_diag2(got, m1, m2, *phases)
    assert np.allclose(got, want, atol=1e-14)


@pytest.mark.parametrize("backend", backends, ids=lambda b: b.BACKEND)
@pytest.mark.parametrize("m1,m2", [(3, 0), (2, 1), (4, 3)])
def test_gather_pair_matches_indexing(backend, m1, m2):
    k = 5
    state = random_state(k, 4)
    quad = backend.gather_pair(state, m1, m2)
    for b1 in (0, 1):
        for b2 in (0, 1):
            row = quad[(b1 << 1) | b2]
            picked = [
                state[i]
                for i in range(1 << k)
                if ((i >> m1) & 1) == b1 and ((i >> m2) & 1) == b2
            ]
            assert np.allclose(row, picked, atol=0)


@pytest.mark.parametrize("backend", backends, ids=lambda b: b.BACKEND)
def test_gather_bit_and_prob(backend):
    k, m = 4, 2
    state = random_state(k, 5)
    p1 = backend.prob_bit1(state, m)
    want_p1 = sum(
        abs(state[i]) ** 2 for i in range(1 << k) if (i >> m) & 1
    )
    assert p1 == pytest.approx(want_p1, abs=1e-14)
    part = backend.gather_bit(state, m, 1)
    picked = [state[i] for i in range(1 << k) if (i >> m) & 1]
    assert np.allclose(part, picked, atol=0)
