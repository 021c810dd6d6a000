"""The classical control plane against per-value references.

The query draws, the hop draws, the derivations, the T-phase table and the
wire parts are written for speed (whole-row `tolist()` draws, one uniform
call per hop, XOR-indexed pair tables, `min`/`max` range checks). Each must
still give exactly what the plain per-value code gives: the reference loops
below are that code, kept here verbatim as the definition.
"""

import itertools

import numpy as np
import pytest

from obliq.gates import ProgramRound, matrix_of, pair_table, qubit_pairs, zero_program
from obliq.harness import ClassicalPart
from obliq.layers import _T_PHASES, cz_layer, h_layer, t_layer, t_phase
from obliq.toqc import (
    UV_PAIRS,
    PauliFrame,
    derive_cz_queries,
    derive_h_queries,
    derive_t_queries,
    draw_cz_family,
    draw_h_family,
    draw_t_family,
)

# -- per-value references ------------------------------------------------------


def ref_derive_ring_queries(ring, fresh, shift, delta, coeff=None):
    out = {}
    for u in (0, 1):
        row = []
        for s in range(len(shift)):
            src = fresh[(u - shift[s]) % 2][s]
            hit = coeff[s] if coeff is not None else 1
            row.append((-src + (hit if u == delta[s] % 2 else 0)) % ring)
        out[u] = tuple(row)
    return out


def ref_derive_cz_queries(fresh, n, shift, delta, coeff=None):
    pairs = qubit_pairs(n)
    out = {}
    for u, v in UV_PAIRS:
        row = []
        for p, (s, t) in enumerate(pairs):
            src = fresh[((u - shift[s - 1]) % 2, (v - shift[t - 1]) % 2)][p]
            hit = coeff[p] if coeff is not None else 1
            on = u == delta[s - 1] % 2 and v == delta[t - 1] % 2
            row.append((-src + (hit if on else 0)) % 2)
        out[(u, v)] = tuple(row)
    return out


def _settings(n, width, ring):
    """Every (shift, delta) in Z2^n x Z2^n with coeff None and with every
    coefficient vector of `width` entries in Z_ring."""
    bits = list(itertools.product((0, 1), repeat=n))
    coeffs = [None] + list(itertools.product(range(ring), repeat=width))
    return itertools.product(bits, bits, coeffs)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("ring,derive", [(8, derive_t_queries), (4, derive_h_queries)],
                         ids=["t", "h"])
def test_ring_derivations_equal_the_per_value_loop(n, ring, derive):
    rng = np.random.default_rng((ring, n))
    families = [{u: tuple(rng.integers(0, ring, size=n).tolist()) for u in (0, 1)}
                for _ in range(2)]
    for shift, delta, coeff in _settings(n, n, ring):
        for fresh in families:
            got = derive(fresh, shift, delta, coeff=coeff)
            assert got == ref_derive_ring_queries(ring, fresh, shift, delta, coeff), \
                (fresh, shift, delta, coeff)
            assert list(got) == [0, 1]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cz_derivation_equals_the_per_value_loop(n):
    npairs = n * (n - 1) // 2
    rng = np.random.default_rng((2, n))
    families = [{uv: tuple(rng.integers(0, 2, size=npairs).tolist()) for uv in UV_PAIRS}
                for _ in range(4)]
    for shift, delta, coeff in _settings(n, npairs, 2):
        for fresh in families:
            got = derive_cz_queries(fresh, n, shift, delta, coeff=coeff)
            assert got == ref_derive_cz_queries(fresh, n, shift, delta, coeff), \
                (fresh, shift, delta, coeff)
            assert list(got) == list(UV_PAIRS)


@pytest.mark.parametrize("n", [3, 4], ids=["odd", "even"])
def test_draws_equal_the_generator_calls(n):
    # one integers() call per row, in this order, as Python ints; the
    # generator is left where the calls leave it
    rng, clone = np.random.default_rng(31), np.random.default_rng(31)
    got = [draw_t_family(rng, n), draw_cz_family(rng, n), draw_h_family(rng, n)]
    want = [
        {u: tuple(int(v) for v in clone.integers(0, 8, size=n)) for u in (0, 1)},
        {uv: tuple(int(v) for v in clone.integers(0, 2, size=n * (n - 1) // 2))
         for uv in UV_PAIRS},
        {u: tuple(int(v) for v in clone.integers(0, 4, size=n)) for u in (0, 1)},
    ]
    assert [list(f.items()) for f in got] == [list(f.items()) for f in want]
    assert all(type(v) is int for f in got for row in f.values() for v in row)
    assert rng.bit_generator.state == clone.bit_generator.state


@pytest.mark.parametrize("spare", [0, 1, 3], ids=lambda k: f"{k}-integers-first")
@pytest.mark.parametrize("n", [1, 2, 6])
def test_hop_draw_equals_one_random_call_per_wire(n, spare):
    # an odd count of bounded integer draws leaves a spare 32-bit half in
    # the generator's state; the uniforms must neither use nor drop it
    for seed in range(20):
        rng, clone = np.random.default_rng(seed), np.random.default_rng(seed)
        rng.integers(0, 8, size=spare)
        clone.integers(0, 8, size=spare)
        frame = PauliFrame(zero_program(n, 1))
        frame.load()
        got = frame.hop(1, "a", rng, None)
        want = [divmod(int(clone.random() * 4), 2) for _ in range(n)]
        assert [ab for ab, _ in got] == want
        assert rng.bit_generator.state == clone.bit_generator.state
        assert rng.integers(0, 8, size=3).tolist() == clone.integers(0, 8, size=3).tolist()


def test_t_phase_table_equals_t_phase_bytes():
    for k in range(8):
        assert type(_T_PHASES[k]) is complex
        assert np.complex128(_T_PHASES[k]).tobytes() == np.complex128(t_phase(k)).tobytes()


# -- layer values ------------------------------------------------------------------
# Each layer value is the product of the per-gate factors X^u G(f_u e) X^u it
# stands for, computed here factor by factor with no register.


def test_t_layer_is_the_product_of_its_factors():
    # every (f0, f1, y) in Z8^3, one wire each: the factor X^u T(f_u y) X^u
    # adds f_u y to the exponent of basis cell 1 - u
    cases = list(itertools.product(range(8), repeat=3))
    f0, f1, y = zip(*cases)
    got = t_layer({0: f0, 1: f1}, y)
    assert type(got) is tuple and len(got) == len(cases)
    for (a, b, e), pair in zip(cases, got):
        exps = [0, 0]
        for u, f in ((0, a), (1, b)):
            exps[1 - u] += f * e
        assert pair == (exps[0] % 8, exps[1] % 8)
        assert all(type(k) is int for k in pair)


def test_h_layer_is_the_product_of_its_factors():
    # every (f0, f1, x) in Z4^3, one wire each: the power's matrix against
    # X^0 H(f0 x) X^0 times X^1 H(f1 x) X^1
    cases = list(itertools.product(range(4), repeat=3))
    f0, f1, x = zip(*cases)
    got = h_layer({0: f0, 1: f1}, x)
    assert type(got) is tuple and len(got) == len(cases)
    flips = (np.eye(2), matrix_of("X"))
    for (a, b, e), power in zip(cases, got):
        want = np.eye(2)
        for u, f in ((0, a), (1, b)):
            want = flips[u] @ matrix_of("H", f * e) @ flips[u] @ want
        assert type(power) is int and 0 <= power < 8
        assert np.abs(matrix_of("H", power) - want).max() < 1e-12, (a, b, e)


@pytest.mark.parametrize("n", [2, 3])
def test_cz_layer_is_the_per_pair_rule(n):
    # every family and every z: the polynomial on every wire-bit cell against
    # the per-pair rule, where an active pair p = (s, t) negates cell
    # (bs, bt) when family[(1-bs, 1-bt)][p] is odd
    pairs = pair_table(n)
    npairs = len(pairs)
    cells = list(itertools.product((0, 1), repeat=n))
    for bits in itertools.product((0, 1), repeat=4 * npairs):
        family = {uv: bits[i * npairs:(i + 1) * npairs] for i, uv in enumerate(UV_PAIRS)}
        for z in itertools.product((0, 1), repeat=npairs):
            const, lin, quad = cz_layer(family, z, n)
            assert (len(lin), len(quad)) == (n, npairs)
            assert all(type(v) is int for v in (const, *lin, *quad))
            for b in cells:
                poly = (const + sum(c * bs for c, bs in zip(lin, b))
                        + sum(c * b[s] * b[t] for c, (s, t) in zip(quad, pairs)))
                rule = sum(zp * family[(1 - b[s], 1 - b[t])][p]
                           for p, ((s, t), zp) in enumerate(zip(pairs, z)))
                assert poly % 2 == rule % 2, (family, z, b)


# -- wire parts and program rounds ----------------------------------------------


@pytest.mark.parametrize("width,values,shown", [
    (1, (0, -1), "-1"),
    (1, (1, 2), "2"),
    (2, (3, 4, 0), "4"),
    (3, (7, 8), "8"),
], ids=["negative", "width-1", "width-2", "width-3"])
def test_classical_part_rejects_values_outside_its_width(width, values, shown):
    with pytest.raises(ValueError, match=fr"^q-part: value {shown} is outside"):
        ClassicalPart("q-part", width, values)


@pytest.mark.parametrize("width", [0, 4, -1])
def test_classical_part_rejects_a_width_outside_one_to_three(width):
    with pytest.raises(ValueError, match=fr"^q-part: entry width {width} is not 1, 2 or 3"):
        ClassicalPart("q-part", width, (0,))


def _non_integral_round():
    return ProgramRound((1.7,), (0,))


def _non_integral_part():
    return ClassicalPart("x-part", 1, (0.9,))


@pytest.mark.parametrize("make,named", [
    (_non_integral_round, r"x: value 1\.7"),
    (_non_integral_part, r"x-part: value 0\.9"),
], ids=["program-round", "classical-part"])
def test_non_integral_values_are_rejected_not_truncated(make, named):
    with pytest.raises(ValueError, match=fr"^{named} is not an integer"):
        make()


def test_numpy_integers_and_bools_are_accepted():
    r = ProgramRound((np.int64(3), True), (np.uint8(7), np.bool_(False)), (np.bool_(True),))
    part = ClassicalPart("b", 1, (np.bool_(True), np.int8(0), False))
    assert (r.x, r.y, r.z, part.values) == ((3, 1), (7, 0), (1,), (1, 0, 0))
    assert all(type(v) is int for v in r.x + r.y + r.z + part.values)
