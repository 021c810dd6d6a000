"""The fused data-plane passes against the per-gate layers they replace.

`StateRegister.apply_paulis` (one gather and one sign pass) must equal the
per-qubit `apply_zx` / `apply_xz`, and `apply_cz_sign_layer` (one sign pass)
must equal `apply_masked_cz_layer`, on every input at n <= 3: on a random
state, on every basis state, and on a register with extra qubits, where the
data qubits' index bits are neither contiguous nor in order.

On a random state (kinds "random" and "extra") no amplitude has a zero part,
so the bytes must match. A basis state is mostly zeros, and the per-gate
path can change the sign of a zero part: it negates some zero cells twice,
which turns (+0, +0) into (+0, -0), where the fused pass negates them not at
all. So basis states compare the bytes after adding +0.0, which maps -0 to
+0 and leaves every other value as it is: equal values, signs of zero
aside. No output can see the sign of a zero amplitude (`density_on` and
`probabilities_on` read products and squares). One negation of a signed
zero must still match the kernels byte for byte, which
`test_sign_pass_negates_as_the_kernels_do` checks.
"""

import itertools

import numpy as np
import pytest

from obliq.gates import qubit_pairs
from obliq.layers import apply_cz_sign_layer, apply_masked_cz_layer, apply_xz, apply_zx
from obliq.qsim import StateRegister

BITS = (0, 1)


def _random_vec(k, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=1 << k) + 1j * rng.normal(size=1 << k)
    return v / np.linalg.norm(v)


KINDS = ("random", "basis", "extra")


def _registers(kind, n):
    """The (register, data qubits) of one kind at n."""
    if kind == "basis":
        out = []
        for i in range(1 << n):
            vec = np.zeros(1 << n, dtype=complex)
            vec[i] = 1.0
            reg = StateRegister()
            out.append((reg, reg.alloc_state(vec)))
        return out
    reg = StateRegister()
    if kind == "random":
        return [(reg, reg.alloc_state(_random_vec(n, n)))]
    q = reg.alloc_state(_random_vec(5, 10 + n))
    # index bits 1, 4, 2: scattered and out of order
    return [(reg, [q[3], q[0], q[2]][:n])]


def _same(reg, kind, per_gate, fused):
    """Run both paths from the register's current state; True when equal."""
    def read():
        amps = reg.amplitudes()
        return (amps + 0.0 if kind == "basis" else amps).tobytes()

    snap = reg.snapshot()
    per_gate()
    want = read()
    reg.restore(snap)
    fused()
    got = read()
    reg.restore(snap)
    return got == want


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("sign_first", [False, True], ids=["zx", "xz"])
def test_pauli_pass_equals_per_qubit_paulis(sign_first, n, kind):
    ref = apply_xz if sign_first else apply_zx
    for reg, data in _registers(kind, n):
        for xs in itertools.product(BITS, repeat=n):
            for zs in itertools.product(BITS, repeat=n):
                def per_gate():
                    for q, x, z in zip(data, xs, zs):
                        ref(reg, q, x, z)

                def fused():
                    reg.apply_paulis(data, xs, zs, sign_first)

                assert _same(reg, kind, per_gate, fused), (xs, zs)


def _families(n):
    """Every CZ query family at n: each (u, v) row a bit per pair."""
    npairs = len(qubit_pairs(n))
    uv = ((0, 0), (0, 1), (1, 0), (1, 1))
    for bits in itertools.product(BITS, repeat=4 * npairs):
        yield {key: bits[i * npairs:(i + 1) * npairs] for i, key in enumerate(uv)}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [2, 3])
def test_cz_sign_layer_equals_per_pair_layer(n, kind):
    npairs = len(qubit_pairs(n))
    # every family at every z; on the 2^n basis states every family at the
    # all-ones z, where each pair is active
    zs = ([(1,) * npairs] if kind == "basis"
          else list(itertools.product(BITS, repeat=npairs)))
    for reg, data in _registers(kind, n):
        for z in zs:
            for family in _families(n):
                assert _same(
                    reg, kind,
                    lambda: apply_masked_cz_layer(reg, data, family, z),
                    lambda: apply_cz_sign_layer(reg, data, family, z),
                ), (z, family)


@pytest.mark.parametrize("negated", [False, True])
def test_sign_pass_negates_as_the_kernels_do(negated):
    # one negation per amplitude: the bytes match with the zeros' signs
    vec = np.zeros(8, dtype=complex)
    vec[5] = 1.0
    reg = StateRegister()
    data = reg.alloc_state(vec)
    if negated:  # zeros that are already (-0, +0)
        reg.apply_diag1(data[0], -1.0, -1.0)
    for q in data:
        snap = reg.snapshot()
        reg.apply_diag1(q, 1.0, -1.0)
        want = reg.amplitudes().tobytes()
        reg.restore(snap)
        reg.apply_sign(reg.parity(reg.bit_of(q)))
        assert reg.amplitudes().tobytes() == want
        reg.restore(snap)
