"""A branch walk's last hop computes the data plane of all its sibling
combos in one stacked pass (`PauliFrame.stack`), and serves each sibling its
row: the state after the hop's Paulis, the state after round m's rotation
layer and the readout law. Every row must be, byte for byte, what the
per-sibling passes give, and every leaf of a walk what a single run with the
same seed and plan gives.

As in `tests/test_kernel_bytes.py`, a product's last bit can depend on the
order of its operands and on the loop numpy picks, so every comparison is by
`tobytes()` or `.hex()`.
"""

from collections import Counter
from itertools import product

import numpy as np
import pytest

from obliq import kernels, layers, qsim, toqc
from obliq.gates import Program, ProgramRound, random_program
from obliq.harness import all_branch_plans
from obliq.oracle import random_state
from obliq.qsim import MAX_QUBITS_ENV, StateRegister
from obliq.tgdmqc import _Run, exhaustive_output_distribution
from test_kernel_bytes import random_unitary, start_states
from test_readout import ReferenceFrame, reference_measure


# -- the plane ------------------------------------------------------------------

def _combos(n, rng):
    """Every combo of n Bell outcomes at n <= 3, else 64 distinct ones."""
    every = list(all_branch_plans(n))
    if n <= 3:
        return every
    return [every[i] for i in sorted(rng.choice(len(every), size=64, replace=False))]


def _node(n, rng, state):
    """A Pauli frame at m = 1 holding `state` after hop 1, which applied and
    queued a random Pauli with X and Z on wire 1; its round-1 x is random."""
    x = tuple(int(v) for v in rng.integers(0, 4, size=n))
    w = Program(n, (ProgramRound(x, (0,) * n, (0,) * (n * (n - 1) // 2)),))
    plane = toqc.PauliFrame(w)
    plane.load()
    plane.reg.install(state.copy())
    queued = ((1, 1),) + tuple(tuple(int(b) for b in ab)
                               for ab in rng.integers(0, 2, size=(n - 1, 2)))
    plane.hop(1, "a", None, queued)
    return plane


def _forbid(*_args, **_kwargs):
    raise AssertionError("a served sibling ran a per-sibling pass")


@pytest.mark.parametrize("n", range(1, 7))
def test_stacked_rows_equal_the_per_sibling_passes(monkeypatch, n):
    # for each start state and each n_circ: every served row's state after
    # the hop, its state after the rotation layer and its law equal those
    # of restore -> hop -> h_layer -> probabilities_on, and a served
    # sibling runs none of those passes
    rng = np.random.default_rng((n, 120))
    combos = _combos(n, rng)
    powers_seen = set()
    for state in start_states(n):
        for n_circ in range(1, n + 1):
            plane = _node(n, rng, state)
            snap = plane.snapshot()
            families = [{u: tuple(int(v) for v in row) for u, row in enumerate(rows)}
                        for rows in rng.integers(0, 4, size=(len(combos), 2, n))]
            want = []
            for combo, family in zip(combos, families):
                plane.restore(snap)
                plane.hop(2, "b", None, combo)
                after = plane.reg.amplitudes()
                plane.h_layer(1, family)
                law = plane.reg.probabilities_on(plane.data[:n_circ])
                want.append((after, plane.reg.amplitudes(), law))
                powers_seen.update(layers.h_layer(family, plane.w.rounds[0].x))

            plane.restore(snap)
            plane.stack(2, combos, families, n_circ)
            with monkeypatch.context() as patch:
                patch.setattr(StateRegister, "apply_paulis", _forbid)
                patch.setattr(StateRegister, "probabilities_on", _forbid)
                patch.setattr(toqc, "apply_masked_h_layer", _forbid)
                for combo, family, (after, final, law) in zip(combos, families, want):
                    plane.restore(snap)
                    plane.hop(2, "b", None, combo)
                    assert plane.reg.amplitudes().tobytes() == after.tobytes(), (n, combo)
                    plane.h_layer(1, family)
                    assert plane.reg.amplitudes().tobytes() == final.tobytes(), (n, combo)
                    dist, _ = plane.measure(n_circ, np.random.default_rng(0))
                    assert dist.tobytes() == law.tobytes(), (n, n_circ, combo)
    # the layer values include the identity on a wire, which the pass must skip
    assert 0 in powers_seen and len(powers_seen) > 1


@pytest.mark.parametrize("n", range(1, 7))
def test_stacked_h_pass_equals_apply_1q_on_any_operands(monkeypatch, n):
    # the H powers' entries are real, and with a real operand both product
    # orders round alike; on complex operands the pass must still equal
    # `kernels.apply_1q` row by row, so it keeps the kernel's operand order
    # (gate entry first), which AVX-512 complex multiplies can tell apart
    rng = np.random.default_rng((n, 131))
    gates = [random_unitary(rng) for _ in range(8)]
    tables = [np.array([g[:, col:col + 1] for g in gates])[:, None] for col in (0, 1)]
    monkeypatch.setattr(layers, "_H_COLUMN0", tables[0])
    monkeypatch.setattr(layers, "_H_COLUMN1", tables[1])
    bits = [1 << (n - 1 - s) for s in range(n)]
    for state in start_states(n):
        powers = rng.integers(0, 8, size=(64, n))
        rows = np.repeat(state[None], 64, axis=0)
        layers.apply_h_rows(rows, bits, powers)
        for row, power in zip(rows, powers):
            want = state.copy()
            for bit, e in zip(bits, power):
                if e:
                    kernels.apply_1q(want, bit.bit_length() - 1, *kernels.columns_1q(gates[e]))
            assert row.tobytes() == want.tobytes(), (n, power)


def test_a_served_row_needs_the_family_it_was_stacked_with():
    # handed another family than its row was stacked with, the rotation
    # layer runs its own pass on the served post-hop state, and the readout
    # reads the register
    rng = np.random.default_rng(121)
    plane = _node(2, rng, start_states(2)[0])
    snap = plane.snapshot()
    combos = _combos(2, rng)
    families = [{0: (1, 2), 1: (3, 0)} for _ in combos]
    other = {0: (2, 2), 1: (0, 0)}
    x = plane.w.rounds[0].x
    assert layers.h_layer(other, x) != layers.h_layer(families[5], x)
    plane.hop(2, "b", None, combos[5])
    plane.h_layer(1, other)
    want, law = plane.reg.amplitudes(), plane.reg.probabilities_on(plane.data)
    plane.restore(snap)
    plane.stack(2, combos, families, 2)
    plane.hop(2, "b", None, combos[5])
    plane.h_layer(1, other)
    assert plane.reg.amplitudes().tobytes() == want.tobytes()
    dist, _ = plane.measure(2, np.random.default_rng(0))
    assert dist.tobytes() == law.tobytes()


# -- the walk ---------------------------------------------------------------------

def _same_leaf(leaf, ref_run):
    """A walk leaf against a single run with the same seed and plan."""
    got, ref = leaf.result(), ref_run.run_through()
    for arr, want in ((got.output_density, ref.output_density),
                      (got.output_distribution, ref.output_distribution)):
        assert (arr is None and want is None) or arr.tobytes() == want.tobytes()
    assert got.branch_probability.hex() == ref.branch_probability.hex()
    assert got.output_bits == ref.output_bits
    assert got.transcript.render() == ref.transcript.render()
    assert got.branch_records == ref.branch_records
    assert got.outcomes == ref.outcomes
    assert ([rng.bit_generator.state for rng in leaf.rngs]
            == [rng.bit_generator.state for rng in ref_run.rngs])


def _tgdmqc(n, m, n_circ, seed, **kw):
    rng = np.random.default_rng((n, m, 122))
    w, user = random_program(n, m, rng), random_program(n, m, rng)
    return _Run(w, user.rounds, n_circ, seed, **kw)


def _toqc(n, m, classical, seed, **kw):
    rng = np.random.default_rng((n, m, 123))
    w = random_program(n, m, rng)
    if classical:
        bits = tuple(int(b) for b in rng.integers(0, 2, size=n))
        return toqc._ToqcRun(w, None, bits, 1, seed=seed, classical_output=True, **kw)
    return toqc._ToqcRun(w, random_state(n, rng), None, 1, seed=seed, **kw)


def _walk_against_single_runs(make, n, m, every=1):
    """Walk `make()` and compare every `every`-th leaf with a single run."""
    leaves = 0
    for i, (plan, leaf) in enumerate(make().leaves()):
        if i % every == 0:
            _same_leaf(leaf, make(branch_plan=plan))
        leaves += 1
    assert leaves == 4 ** (2 * n * m)


@pytest.fixture
def stacks(monkeypatch):
    """The number of stacked passes the walks make."""
    made = []
    stack = toqc.PauliFrame.stack

    def counting(self, k, combos, families, count):
        made.append(len(combos))
        stack(self, k, combos, families, count)

    monkeypatch.setattr(toqc.PauliFrame, "stack", counting)
    return made


@pytest.mark.parametrize("n,m,every", [(2, 1, 1), (1, 2, 1), (3, 1, 61)])
def test_tgdmqc_walk_leaves_equal_single_runs_at_one_output_qubit(stacks, n, m, every):
    # the benchmark's shape, n_circ = 1: each row sums 2^(n-1) parts
    _walk_against_single_runs(lambda **kw: _tgdmqc(n, m, 1, 124, **kw), n, m, every)
    # one stacked pass per node before the last hop
    assert stacks == [4 ** n] * 4 ** (n * (2 * m - 1))


@pytest.mark.parametrize("classical", [False, True], ids=["quantum", "classical"])
@pytest.mark.parametrize("n,m", [(2, 1), (1, 2)])
def test_toqc_walk_leaves_equal_single_runs(stacks, n, m, classical):
    _walk_against_single_runs(lambda **kw: _toqc(n, m, classical, 125, **kw), n, m)
    assert len(stacks) == 4 ** (n * (2 * m - 1))


@pytest.mark.parametrize("n_circ", [1, 2])
def test_a_plane_override_reads_the_served_register(monkeypatch, stacks, n_circ):
    # a frame whose readout Z-measures the register qubit by qubit sees the
    # state each served sibling installed: every leaf equals a single run
    # on the default frame
    walk = []
    with monkeypatch.context() as patch:
        patch.setattr(toqc, "PauliFrame", ReferenceFrame)
        run = _tgdmqc(2, 1, n_circ, 126)
        assert type(run.plane).measure is reference_measure
        for plan, leaf in run.leaves():
            got = leaf.result()
            walk.append((plan, got.output_distribution.tobytes(), got.output_bits,
                         leaf.server_a.rng.bit_generator.state))
    assert len(stacks) == 16 and len(walk) == 256
    for plan, dist, bits, state in walk:
        ref = _tgdmqc(2, 1, n_circ, 126, branch_plan=plan)
        want = ref.run_through()
        assert (want.output_distribution.tobytes(), want.output_bits) == (dist, bits)
        assert ref.server_a.rng.bit_generator.state == state


@pytest.mark.parametrize("n,m", [(2, 1), (1, 2)])
def test_a_walk_derives_each_rotation_family_once(monkeypatch, n, m):
    # the walk builds one family per distinct (fresh, shift, delta, coeff);
    # each stack derives one family per outcome parity (x XOR z per wire)
    # of its combos, so two combos share a family object exactly when their
    # parities agree; a leaf takes its row's family and derives none
    built, stacked, derived = [], [], []
    leaf = [False]
    derive = toqc.derive_h_queries
    rederived = toqc.ProtocolRun._rederived_h
    round_a = toqc.ProtocolRun._round_a
    stack = toqc.PauliFrame.stack

    def counting_derive(fresh, shift, delta, coeff=None):
        built.append((fresh[0], fresh[1], shift, delta, coeff))
        return derive(fresh, shift, delta, coeff)

    def counting_rederived(self, j, second):
        derived.append((leaf[0], j))
        return rederived(self, j, second)

    def marked_round_a(self, j):
        leaf[0] = j > self.m
        try:
            round_a(self, j)
        finally:
            leaf[0] = False

    def recording_stack(self, k, combos, families, count):
        stacked.append((combos, families))
        stack(self, k, combos, families, count)

    monkeypatch.setattr(toqc, "derive_h_queries", counting_derive)
    monkeypatch.setattr(toqc.ProtocolRun, "_rederived_h", counting_rederived)
    monkeypatch.setattr(toqc.ProtocolRun, "_round_a", marked_round_a)
    monkeypatch.setattr(toqc.PauliFrame, "stack", recording_stack)
    leaves = sum(1 for _ in _tgdmqc(n, m, 1, 134).leaves())
    assert leaves == 4 ** (2 * n * m)
    assert built and len(built) == len(set(built))
    assert not any(at_leaf for at_leaf, _ in derived)
    assert len(stacked) == 4 ** (n * (2 * m - 1))
    assert sum(j == m + 1 for _, j in derived) == 2 ** n * len(stacked)
    for combos, families in stacked:
        parities = [tuple(a ^ b for a, b in combo) for combo in combos]
        for (p, f), (q, g) in product(zip(parities, families), repeat=2):
            assert (p == q) == (f is g), (p, q)


def test_the_eager_bell_walk_runs_every_sibling(stacks):
    # the physical plane's Bell measurements read amplitudes: no stack
    dist, _, total = exhaustive_output_distribution(
        random_program(1, 1, np.random.default_rng(127)),
        random_program(1, 1, np.random.default_rng(128)).rounds, eager_bell=True)
    assert stacks == [] and abs(total - 1.0) < 1e-12


def test_the_stack_takes_no_live_qubits(monkeypatch, stacks):
    # a cap of exactly the n data qubits still runs the whole walk
    monkeypatch.setenv(MAX_QUBITS_ENV, "2")
    w = random_program(2, 1, np.random.default_rng(129))
    rounds = random_program(2, 1, np.random.default_rng(130)).rounds
    _, _, total = exhaustive_output_distribution(w, rounds)
    assert abs(total - 1.0) < 1e-12 and len(stacks) == 16
    with pytest.raises(qsim.CapacityError):
        exhaustive_output_distribution(w, rounds, eager_bell=True)


@pytest.mark.parametrize("n,m", [(2, 1), (1, 2)])
def test_a_stacked_node_rotates_its_stack_through_the_kernel(monkeypatch, stacks, n, m):
    # the stacked rotation layer is `kernels.apply_1q`, looked up through
    # the module, on the whole (4^n, 2^n) stack: one call per wire and node
    seen = Counter()
    apply_1q = kernels.apply_1q

    def recording(state, bit, c0, c1, where=True):
        if state.ndim == 2:
            seen[state.shape, bit] += 1
        apply_1q(state, bit, c0, c1, where=where)

    monkeypatch.setattr(kernels, "apply_1q", recording)
    rng = np.random.default_rng((n, m, 141))
    exhaustive_output_distribution(random_program(n, m, rng), random_program(n, m, rng).rounds)
    nodes = 4 ** (n * (2 * m - 1))
    assert stacks == [4 ** n] * nodes
    assert seen == {((4 ** n, 2 ** n), bit): nodes for bit in range(n)}
