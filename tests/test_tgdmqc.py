"""Multiparty protocol: distribution correctness, routing, secrecy, ledger."""

import gc
import hashlib
import re
from collections import Counter
from itertools import product

import numpy as np
import pytest

from obliq.gates import (
    Program,
    bits_index,
    compile_parity,
    identity_program,
    program_product,
    random_program,
    zero_round,
)
from obliq import toqc
from obliq.harness import (
    ChannelRegistry,
    ClassicalPart,
    all_branch_plans,
    assert_complexity_tgdmqc,
    audit_bell_uniformity,
)
from obliq.oracle import ideal_outcome_distribution, total_variation
from obliq.qsim import MAX_QUBITS_ENV
from obliq.tgdmqc import (
    _Run,
    exhaustive_output_distribution,
    program_with_users,
    run_tgdmqc,
    user_name,
    verify_against_ideal,
)
from obliq.toqc import (
    UV_PAIRS,
    ProtocolRun,
    ProtocolUser,
    derive_cz_queries,
    derive_h_queries,
    derive_t_queries,
)


def random_rounds(n, m, seed):
    return random_program(n, m, np.random.default_rng(seed)).rounds


# -- correctness -----------------------------------------------------------------

@pytest.mark.parametrize("full", [False, True], ids=["n_circ=1", "n_circ=n"])
@pytest.mark.parametrize("n,m", [(2, 2), (3, 3), (4, 4), (6, 3), (8, 4)])
def test_run_law_matches_ideal_per_branch(n, m, full):
    # each run's exact law given its Bell branch is the ideal one, and its
    # sampled bits are possible under it; every seed draws new programs
    n_circ = n if full else 1
    for seed in range(20):
        w = random_program(n, m, np.random.default_rng((n, m, seed, 80)))
        rounds = random_rounds(n, m, (n, m, seed, 81))
        ideal = ideal_outcome_distribution(program_with_users(w, rounds), n_circ)
        res = run_tgdmqc(w, rounds, n_circ, seed=(n, m, seed))
        assert total_variation(res.output_distribution, ideal) < 1e-12
        assert res.output_distribution[bits_index(res.output_bits)] > 0


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 1)])
def test_exhaustive_branches_match_ideal(n, m):
    w = random_program(n, m, np.random.default_rng((n, m)))
    rounds = random_rounds(n, m, (n, m, 7))
    tv, dist, ideal = verify_against_ideal(w, rounds, 1, seed=3, exhaustive=True)
    assert tv < 1e-9


# sha256 over transcript, outcomes and output bits of seeded honest runs, as
# produced by the schedule before it was made resumable at its hops
SEEDED_RUNS_DIGEST = "00a42be2bfd7ea66fae20f43f7ec03e0e233a3bd32cb3e2f4023555ca00f89ca"


def test_seeded_runs_are_stable():
    h = hashlib.sha256()
    for n, m in ((2, 2), (3, 1), (4, 4)):
        for seed in (0, 1, 2):
            w = random_program(n, m, np.random.default_rng((n, m, seed, 50)))
            rounds = random_rounds(n, m, (n, m, seed, 51))
            res = run_tgdmqc(w, rounds, n, seed=seed)
            h.update(res.transcript.render().encode())
            h.update(repr(res.outcomes).encode())
            h.update(repr(res.output_bits).encode())
    assert h.hexdigest() == SEEDED_RUNS_DIGEST


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (1, 2)])
def test_enumerator_leaves_equal_single_runs(n, m):
    # every leaf of the depth-first walk is bit-identical to a fresh run
    # with the same seed and plan, and the plans come in all_branch_plans order
    w = random_program(n, m, np.random.default_rng((n, m, 52)))
    rounds = random_rounds(n, m, (n, m, 53))
    plans = list(all_branch_plans(2 * n * m))
    count = 0
    for (plan, leaf), want in zip(_Run(w, rounds, n, 54).leaves(), plans):
        assert plan == want
        ref = run_tgdmqc(w, rounds, n, seed=54, branch_plan=plan)
        got = leaf.result()
        assert np.array_equal(got.output_distribution, ref.output_distribution)
        assert got.branch_probability == ref.branch_probability
        assert got.output_bits == ref.output_bits
        assert got.transcript.render() == ref.transcript.render()
        assert got.ledger.totals() == ref.ledger.totals()
        assert got.steps_executed == ref.steps_executed
        assert got.outcomes == ref.outcomes
        assert got.views == ref.views
        count += 1
    assert count == len(plans) == 4 ** (2 * n * m)


@pytest.mark.parametrize("eager_bell", [False, True], ids=["frame", "eager_bell"])
def test_restore_returns_run_to_its_snapshot(eager_bell):
    w = random_program(1, 2, np.random.default_rng(70))
    run = _Run(w, random_rounds(1, 2, 71), 1, 72, eager_bell=eager_bell)

    def state():
        ((amps, order, uid), frame), *rest = run.snapshot()
        return amps.tobytes(), order, uid, frame, rest

    run.open()
    run.hop(1, ((1, 0),))
    snap = run.snapshot()
    before = state()
    # twice, so a restore that hands out the snapshot's own dicts shows
    for last in ((0, 0), (1, 1)):
        for k, combo in ((2, ((0, 1),)), (3, ((1, 1),)), (4, (last,))):
            run.hop(k, combo)
        run.restore(snap)
        assert state() == before


def _record_outcomes(run, k):
    """Hop k's (x bits, z bits) derived from its n branch records, as the
    run did before it kept a hop log; zeros at k = 0."""
    if k == 0:
        return (0,) * run.n, (0,) * run.n
    xs, zs = zip(*[r.outcome for r in run.branch_records[(k - 1) * run.n:k * run.n]])
    return xs, zs


def _record_probability(records):
    """The branch probability as the in-order product over the records."""
    p = 1.0
    for rec in records:
        p *= rec.probs[(rec.outcome[0] << 1) | rec.outcome[1]]
    return p


def _check_hop_log(run):
    hops = 2 * run.m
    assert len(run.hops) == hops + 1
    for k in range(hops + 1):
        assert run.outcomes(k) == _record_outcomes(run, k)
        prefix = _record_probability(run.branch_records[:k * run.n])
        assert run.hops[k][1].hex() == prefix.hex()
    assert run.branch_probability.hex() == _record_probability(run.branch_records).hex()


class _SkewedFrame(toqc.PauliFrame):
    """The Pauli frame reporting an unequal law for every hop: its products
    depend on the order of the factors, where 1/4 and the physical plane's
    near-1/4 laws hide it."""

    def hop(self, k, side, rng, forced):
        return [(o, (0.1, 0.2, 0.3, 0.4)) for o, _ in super().hop(k, side, rng, forced)]


def _hop_log_run(protocol, n, m, seed, plane, branch_plan=None):
    w = random_program(n, m, np.random.default_rng((n, m, seed, 84)))
    kw = dict(eager_bell=plane == "eager_bell", branch_plan=branch_plan)
    if protocol == "tgdmqc":
        run = _Run(w, random_rounds(n, m, (n, m, seed, 85)), n, seed, **kw)
    else:
        bits = tuple(int(b) for b in np.random.default_rng((n, m, seed, 86)).integers(0, 2, n))
        run = toqc._ToqcRun(w, None, bits, n, seed=seed, classical_output=protocol == "toqc",
                            **kw)
    if plane == "skewed":
        run.plane = _SkewedFrame(w)
    return run


@pytest.mark.parametrize("plane", ["frame", "eager_bell", "skewed"])
@pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (3, 1)])
@pytest.mark.parametrize("protocol", ["toqc", "toqc-quantum", "tgdmqc"])
def test_hop_log_matches_branch_records(protocol, n, m, plane):
    # the hop log gives each hop's outcomes and the branch probability so
    # far exactly as the branch records give them, on sampled runs, forced
    # runs and every leaf of a walk, and a restore cuts it back
    k = 2 * n * m
    plans = np.random.default_rng((n, m, 90)).integers(0, 2, size=(3, k, 2)).tolist()
    for seed in range(3):
        for plan in (None, plans[seed]):
            run = _hop_log_run(protocol, n, m, seed, plane, plan)
            run.run_through()
            _check_hop_log(run)
    # the physical plane's walk holds 4mn + n qubits at every node
    if k <= (4 if plane == "eager_bell" else 6):
        leaves = 0
        for _, leaf in _hop_log_run(protocol, n, m, 3, plane).leaves():
            _check_hop_log(leaf)
            leaves += 1
        assert leaves == 4 ** k
    run = _hop_log_run(protocol, n, m, 4, plane)
    run.open()
    run.hop(1, plans[0][:n])
    snap, before = run.snapshot(), list(run.hops)
    for j in range(2, 2 * m + 1):
        run.hop(j, plans[1][(j - 1) * n:j * n])
    run.restore(snap)
    assert run.hops == before


class _CountedBitGenerator:
    """A bit generator's `state`, counting the writes to it."""

    def __init__(self, bit_generator):
        self._bit_generator = bit_generator
        self.writes = 0

    @property
    def state(self):
        return self._bit_generator.state

    @state.setter
    def state(self, value):
        self.writes += 1
        self._bit_generator.state = value


class _CountedStream:
    """A Generator that counts its draws and its state writes."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.bit_generator = _CountedBitGenerator(self._rng.bit_generator)
        self.draws = 0

    def integers(self, *args, **kwargs):
        self.draws += 1
        return self._rng.integers(*args, **kwargs)

    def random(self):
        self.draws += 1
        return self._rng.random()


def test_restore_resets_only_the_streams_drawn_since_the_snapshot():
    # the walk's every restore returns each stream to its snapshot state,
    # and writes no stream that drew nothing since that snapshot
    n, m = 1, 2
    w = random_program(n, m, np.random.default_rng(73))
    rounds = random_rounds(n, m, 74)
    # the tgdmqc configuration (`tgdmqc._Run`) on counting streams
    streams = [_CountedStream(s) for s in range(m + 3)]
    users = [ProtocolUser(user_name(j), streams[j - 1], (0,) * n, (0,) * n)
             for j in range(1, m + 2)]
    run = ProtocolRun(w, 1, users, streams[m + 1:], coeffs=rounds)
    saved = []
    snapshot, restore = run.snapshot, run.restore

    def snapshot_and_states():
        snap = snapshot()
        saved.append((snap, [s.bit_generator.state for s in streams],
                      [s.draws for s in streams]))
        return snap

    def restore_and_check(snap):
        _, states, draws = next(entry for entry in saved if entry[0] is snap)
        writes = [s.bit_generator.writes for s in streams]
        restore(snap)
        assert [s.bit_generator.state for s in streams] == states
        for s, before, drawn in zip(streams, writes, draws):
            if s.draws == drawn:
                assert s.bit_generator.writes == before

    run.snapshot, run.restore = snapshot_and_states, restore_and_check
    leaves = sum(1 for _ in run.leaves())
    assert leaves == 4 ** (2 * n * m)
    # server A measures at every leaf and users 1 and 2 draw after hops 1
    # to 3; the fully forced walk never draws from server B or user 3
    server_a, server_b = streams[m + 1:]
    assert server_a.bit_generator.writes > 0 and users[1].rng.bit_generator.writes > 0
    assert server_b.draws == server_b.bit_generator.writes == 0
    assert users[m].rng.draws == users[m].rng.bit_generator.writes == 0


def test_walk_builds_each_distinct_value_once(monkeypatch):
    # the walk's table builds, and so checks, one wire part per distinct
    # (name, width, values), derives one rotation family per distinct input
    # and builds one H layer value per distinct (family, x), while every
    # message still goes through the channel registry: at (2, 1) step 1,
    # then 16 x 2 after hop 1 and 256 x 3 after hop 2
    parts, derived, sent, h_values = Counter(), Counter(), Counter(), Counter()
    post_init, derive, send, h_layer = (ClassicalPart.__post_init__, toqc.derive_h_queries,
                                        ChannelRegistry.send, toqc.h_layer)

    def counting_post_init(self):
        post_init(self)
        parts[self.name, self.width, self.values] += 1

    def counting_derive(fresh, shift, delta, coeff=None):
        derived[fresh[0], fresh[1], shift, delta, coeff] += 1
        return derive(fresh, shift, delta, coeff)

    def counting_send(self, message):
        sent[message.step] += 1
        send(self, message)

    def counting_h_layer(family, x_exps):
        h_values[family[0], family[1], x_exps] += 1
        return h_layer(family, x_exps)

    monkeypatch.setattr(ClassicalPart, "__post_init__", counting_post_init)
    monkeypatch.setattr(toqc, "h_layer", counting_h_layer)
    monkeypatch.setattr(toqc, "derive_h_queries", counting_derive)
    monkeypatch.setattr(ChannelRegistry, "send", counting_send)
    w = random_program(2, 1, np.random.default_rng(75))
    _, _, total = exhaustive_output_distribution(w, random_rounds(2, 1, 76))
    assert abs(total - 1.0) < 1e-12
    assert parts and max(parts.values()) == 1
    # every node draws the same fresh family after its restore, so the
    # derivations differ only in their 4^n (shift, delta) pairs
    assert len(derived) == 4 ** 2 and max(derived.values()) == 1
    # the H values: the fresh family's at the 16 nodes after hop 1 and the
    # 16 derived families' at the last hop, 13 distinct here because some
    # derived families coincide; each built once, where a leaf used to
    # build its own (272 builds)
    assert len(h_values) == 13 and max(h_values.values()) == 1
    assert sent == {"step-1": 1, "step-2": 16, "step-3": 16,
                    "step-4": 256, "step-5": 256, "step-6": 256}
    assert sum(sent.values()) == 801


def test_walk_leaves_no_cyclic_garbage():
    # a finished walk frees its run by reference counting alone
    w = random_program(2, 1, np.random.default_rng(77))
    rounds = random_rounds(2, 1, 78)
    exhaustive_output_distribution(w, rounds)
    gc.collect()
    gc.disable()
    try:
        exhaustive_output_distribution(w, rounds)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("second", ["leaves", "run_through"])
@pytest.mark.parametrize("first", ["leaves", "run_through"])
def test_a_run_runs_once(first, second):
    # a run that has sent step 1 refuses to start again, before any message
    w = random_program(2, 1, np.random.default_rng(79))
    run = _Run(w, random_rounds(2, 1, 80), 1, 81)
    go = {"leaves": lambda: sum(1 for _ in run.leaves()), "run_through": run.run_through}
    go[first]()
    sent = list(run.registry.transcript.records)
    assert len(sent) == 6
    with pytest.raises(ValueError, match="already sent step 1"):
        go[second]()
    assert run.registry.transcript.records == sent


def _run_state(run):
    """Everything a refused call must leave as it was: the register bytes,
    the frame, the three logs, the streams and the families in flight."""
    (amps, *reg), frame = run.plane.snapshot()
    return (amps.tobytes(), reg, frame, list(run.registry.transcript.records),
            list(run.branch_records), list(run.drawn), list(run.hops),
            [rng.bit_generator.state for rng in run.rngs], run.fresh)


def _refused(run, call, match):
    before = _run_state(run)
    with pytest.raises(ValueError, match=match):
        call()
    assert _run_state(run) == before


@pytest.mark.parametrize("eager_bell", [False, True], ids=["frame", "eager_bell"])
def test_a_hop_out_of_order_is_refused(eager_bell):
    # only the next hop of an opened run goes ahead; any other is refused
    # before a message is sent, a log changes or the plane moves
    w = random_program(2, 2, np.random.default_rng(93))
    run = _Run(w, random_rounds(2, 2, 94), 1, 95, eager_bell=eager_bell)
    forced = ((0, 0), (1, 0))

    def refused(k, expected):
        _refused(run, lambda: run.hop(k, forced), fr"^hop {k} out of order: expected {expected}$")

    refused(1, r"open\(\) first")
    run.open()
    refused(3, "hop 1")
    refused(0, "hop 1")
    run.hop(1, forced)
    refused(1, "hop 2")
    for k in (2, 3, 4):
        run.hop(k, forced)
    refused(5, "no hop after the readout")
    refused(4, "no hop after the readout")
    assert len(run.registry.transcript.records) == 11 and len(run.hops) == 5


@pytest.mark.parametrize("eager_bell", [False, True], ids=["frame", "eager_bell"])
def test_forced_hop_outcomes_are_checked_before_anything_moves(eager_bell):
    # a hop forced with anything but n Bell outcomes, each by the branch
    # plan's entry rule, is refused before the plane, a stream or a log
    # moves; forms the rule accepts run as their plain ints do
    w = random_program(1, 1, np.random.default_rng(131))
    run = _Run(w, random_rounds(1, 1, 132), 1, 133, eager_bell=eager_bell)
    run.open()
    _refused(run, lambda: run.hop(1, [(0, 1), (1, 1)]), r"^hop 1 has 2 outcomes, expected n=1$")
    _refused(run, lambda: run.hop(1, []), r"^hop 1 has 0 outcomes, expected n=1$")
    for entry in ((1, 2), (1.0, 0), 1, (0, 1, 1), (0,), (np.array([0, 1]), 1)):
        _refused(run, lambda: run.hop(1, [entry]),
                 fr"^hop 1 outcome {re.escape(repr(entry))} is not a Bell outcome \(a, b\)$")
    _refused(run, lambda: run.hop(1, 5), r"^hop 1 outcomes 5 are not a sequence")
    snap = run.snapshot()
    run.hop(1, [(np.int64(1), True)])
    assert run.outcomes(1) == ((1,), (1,))
    text = run.registry.transcript.render()
    run.restore(snap)
    run.hop(1, [(1, 1)])
    assert run.registry.transcript.render() == text


@pytest.mark.parametrize("eager_bell", [False, True], ids=["frame", "eager_bell"])
def test_a_restore_off_the_current_path_is_refused(eager_bell):
    # a snapshot is restored only while the hop log still holds its last
    # entry; a restore past the log's end, or onto another hop 1, is
    # refused before the register, the streams or a log is touched
    w = random_program(2, 2, np.random.default_rng(96))
    run = _Run(w, random_rounds(2, 2, 97), 1, 98, eager_bell=eager_bell)
    run.open()
    s0 = run.snapshot()
    run.hop(1, ((0, 0), (0, 0)))
    s1 = run.snapshot()
    run.restore(s0)
    match = "^the snapshot is off the run's current path"
    _refused(run, lambda: run.restore(s1), match)
    run.hop(1, ((1, 1), (0, 1)))
    _refused(run, lambda: run.restore(s1), match)
    assert run.outcomes(1) == ((1, 0), (1, 1))
    # on the path a restore goes back as often as a walk asks
    s2 = run.snapshot()
    for combo in (((0, 1), (1, 1)), ((1, 0), (0, 0))):
        run.hop(2, combo)
        run.restore(s2)
    run.restore(s0)
    assert len(run.hops) == 1


@pytest.mark.parametrize("eager_bell", [False, True], ids=["frame", "eager_bell"])
def test_a_restore_past_an_undone_open_is_refused(eager_bell):
    # open() logs the hop log's entry 0, so a snapshot taken after it is off
    # the path of a run restored to before it (it would leave the plane
    # opened and the transcript empty, so that open() ran twice), and stays
    # off it once the run opens again, as after a hop taken again
    w = random_program(2, 1, np.random.default_rng(102))
    run = _Run(w, random_rounds(2, 1, 103), 1, 104, eager_bell=eager_bell)
    s0 = run.snapshot()
    run.open()
    s1, opened, text = run.snapshot(), _run_state(run), run.registry.transcript.render()
    run.restore(s0)
    match = "^the snapshot is off the run's current path: hop-log entry 0 "
    _refused(run, lambda: run.restore(s1), match)
    run.open()
    _refused(run, lambda: run.restore(s1), match)
    # opened again, the run is the one opened before, with its own log entry
    assert _run_state(run)[0] == opened[0] and run.registry.transcript.render() == text
    run.restore(s0)
    assert not run.hops and not run.registry.transcript.records


def test_a_result_taken_at_a_leaf_outlives_the_leaf():
    # the walk hands out the same run at every leaf: a result taken at one
    # leaf keeps that leaf's transcript and records while the walk goes on
    w = random_program(2, 1, np.random.default_rng(99))
    walk = _Run(w, random_rounds(2, 1, 100), 1, 101).leaves()
    _, leaf = next(walk)
    res = leaf.result()
    text, records = res.transcript.render(), list(res.branch_records)
    for _ in range(20):
        next(walk)
    assert res.transcript.render() == text
    assert res.branch_records == records

@pytest.mark.parametrize("n,m", [(1, 2), (2, 1)])
def test_outcome_joint_has_every_plan_once(n, m):
    w = random_program(n, m, np.random.default_rng((n, m, 55)))
    rounds = random_rounds(n, m, (n, m, 56))
    _, joint, _ = exhaustive_output_distribution(w, rounds, 1, seed=57)
    k = 2 * n * m
    assert set(joint) == set(all_branch_plans(k))
    assert len(joint) == 4 ** k
    assert all(p == 0.25 ** k for p in joint.values())


@pytest.mark.parametrize("eager_bell", [False, True], ids=["frame", "eager_bell"])
@pytest.mark.parametrize("n,m", [(1, 2), (2, 1)])
def test_outcome_joint_is_the_leaves_laws(n, m, eager_bell):
    # the walk yields each plan once: the joint law holds each leaf's
    # branch probability under its plan, and its values add up to the total
    w = random_program(n, m, np.random.default_rng((n, m, 87)))
    rounds = random_rounds(n, m, (n, m, 88))
    _, joint, total = exhaustive_output_distribution(w, rounds, 1, seed=89,
                                                     eager_bell=eager_bell)
    k = 2 * n * m
    assert len(joint) == 4 ** k
    leaves = _Run(w, rounds, 1, 89, eager_bell=eager_bell).leaves()
    want = dict(zip(all_branch_plans(k), [run.branch_probability for _, run in leaves]))
    assert list(joint) == list(want)
    assert all(joint[plan].hex() == p.hex() for plan, p in want.items())
    assert sum(joint.values()) == total


def test_exhaustive_eager_bell_matches_frame():
    w = random_program(2, 1, np.random.default_rng(58))
    rounds = random_rounds(2, 1, 59)
    frame, _, total = exhaustive_output_distribution(w, rounds, 2, seed=60)
    phys, _, phys_total = exhaustive_output_distribution(
        w, rounds, 2, seed=60, eager_bell=True)
    assert np.abs(frame - phys).max() < 1e-12
    assert abs(total - phys_total) < 1e-12


def test_identity_server_program_runs_user_program():
    # w = e leaves exactly the users' program: parity demo shape
    program, n_circ = compile_parity((1, 1))
    w = identity_program(program.n, program.m)
    ideal = ideal_outcome_distribution(program, n_circ)
    res = run_tgdmqc(w, program.rounds, n_circ, seed=4)
    assert total_variation(res.output_distribution, ideal) < 1e-9
    assert res.output_bits == (0,)


def test_identity_user_rounds_run_server_program():
    w = random_program(1, 2, np.random.default_rng(5))
    e = identity_program(1, 2)
    ideal = ideal_outcome_distribution(w, 1)
    dist, _, total = exhaustive_output_distribution(w, e.rounds, 1, seed=6)
    assert abs(total - 1.0) < 1e-12
    assert total_variation(dist, ideal) < 1e-9


def test_zero_y_prime_cancels_round_phases():
    # y'_j = 0 zeroes the product program's round-j phase exponents
    w = random_program(1, 1, np.random.default_rng(11))
    rounds = (zero_round(1),)
    product = program_with_users(w, rounds)
    assert product.rounds[0].y == (0,)
    tv, _, _ = verify_against_ideal(w, rounds, 1, seed=12, exhaustive=True)
    assert tv < 1e-9


# -- parity demo --------------------------------------------------------------------

@pytest.mark.parametrize("l", [1, 2, 3])
def test_parity_demo_all_assignments(l):
    for assignment in range(1 << l):
        bits = [(assignment >> (l - 1 - i)) & 1 for i in range(l)]
        program, n_circ = compile_parity(bits)
        w = identity_program(program.n, program.m)
        res = run_tgdmqc(w, program.rounds, n_circ, seed=(l, assignment))
        want = sum(bits) % 2
        assert res.output_bits == (want,)
        assert res.output_distribution[want] == pytest.approx(1.0, abs=1e-9)


# -- wire accounting ------------------------------------------------------------------

@pytest.mark.parametrize("n,m,n_circ", [(1, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 1)])
def test_ledger_matches_formulas(n, m, n_circ):
    w = random_program(n, m, np.random.default_rng((n, m, 1)))
    rounds = random_rounds(n, m, (n, m, 2))
    res = run_tgdmqc(w, rounds, n_circ, seed=(n, m))
    verdict = assert_complexity_tgdmqc(res.ledger, n, m, n_circ,
                                       transcript=res.transcript)
    assert verdict.ok, verdict.details
    ub, uq, db, dq = res.ledger.totals()
    assert (ub, uq) == ((4 * n * n + 16 * n) * m, 0)
    assert (db, dq) == (4 * n * m + n_circ, 0)


def test_ledger_spot_values():
    res = run_tgdmqc(random_program(2, 2, np.random.default_rng(3)),
                     random_rounds(2, 2, 4), 1, seed=13)
    assert res.ledger.download_bits == 17   # 4*2*2 + 1
    res = run_tgdmqc(random_program(1, 1, np.random.default_rng(5)),
                     random_rounds(1, 1, 6), 1, seed=14)
    assert res.ledger.upload_bits == 20     # (4 + 16) * 1


def test_no_qubits_anywhere_near_users():
    res = run_tgdmqc(random_program(2, 2, np.random.default_rng(7)),
                     random_rounds(2, 2, 8), 1, seed=15)
    for rec in res.transcript.records:
        assert rec.qubits == 0
    assert res.ledger.upload_qubits == 0
    assert res.ledger.download_qubits == 0


# -- routing ------------------------------------------------------------------------

def test_outcome_routing_table():
    m = 3
    res = run_tgdmqc(random_program(1, m, np.random.default_rng(9)),
                     random_rounds(1, m, 10), 1, seed=16)
    routes = {}
    for msg in res.transcript.records:
        if msg.sender.startswith("server") and msg.parts and \
                msg.parts[0].name == "bell-x":
            routes[msg.step] = msg.receivers
    assert routes["step-2"] == (user_name(1),)
    assert routes["step-4"] == (user_name(1), user_name(2))
    for j in range(2, m + 1):
        assert routes[f"step-{4 * j - 2}"] == (user_name(j),)
        assert routes[f"step-{4 * j}"] == (user_name(j), user_name(j + 1))


def test_outcome_downloads_counted_once():
    # a two-recipient outcome message contributes its 2n bits once
    n, m = 2, 2
    res = run_tgdmqc(random_program(n, m, np.random.default_rng(11)),
                     random_rounds(n, m, 12), 1, seed=17)
    step4 = [r for r in res.transcript.records if r.step == "step-4"]
    assert len(step4) == 1
    assert step4[0].bits == 2 * n
    assert len(step4[0].receivers) == 2


def test_users_see_only_their_outcomes():
    m = 3
    res = run_tgdmqc(random_program(1, m, np.random.default_rng(13)),
                     random_rounds(1, m, 14), 1, seed=18)
    for j in range(1, m + 1):
        steps = {step for step, name, _ in res.views[user_name(j)].received}
        allowed = {f"step-{4 * j - 2}" if j > 1 else "step-2",
                   f"step-{4 * j}" if j > 1 else "step-4"}
        if j > 1:
            allowed.add(f"step-{4 * (j - 1)}")
        assert steps <= allowed, (j, steps)


# -- secrecy ------------------------------------------------------------------------

def test_query_uniformity_under_distinct_user_programs():
    # two w' rounds with distinct (x', y', z') offsets: over every fresh family
    # of one wire (h, t) or one pair (cz), each user's re-derived queries take
    # every family once, so the servers see the same law under either program
    families = (  # ring, fresh rows, wires, derivation, coefficient index
        (4, (0, 1), 1, derive_h_queries, 0),
        (8, (0, 1), 1, derive_t_queries, 1),
        (2, UV_PAIRS, 2, lambda f, sh, dl, co: derive_cz_queries(f, 2, sh, dl, co), 2),
    )
    for ring, rows, wires, derive, k in families:
        every = {tuple((x,) for x in values) for values in product(range(ring), repeat=len(rows))}
        for sh, dl in product(product((0, 1), repeat=wires), repeat=2):
            for w_round in ((1, 3, 1), (2, 6, 0)):
                co = (w_round[k],)
                queries = {tuple(derive(dict(zip(rows, f)), sh, dl, co)[r] for r in rows)
                           for f in every}
                assert queries == every, (ring, sh, dl, w_round)


def test_coefficient_one_reduces_to_plain_equations():
    fresh = {0: (3, 1), 1: (6, 4)}
    shift, delta = (1, 0), (0, 1)
    assert derive_t_queries(fresh, shift, delta, coeff=(1, 1)) == \
        derive_t_queries(fresh, shift, delta)


def test_outcome_joint_independent_of_server_program():
    # exhaustive n=1, m=1: the joint law of everything users receive about
    # the teleports is uniform whatever w is
    rounds = random_rounds(1, 1, 15)
    joints = []
    for seed in (0, 1):
        w = random_program(1, 1, np.random.default_rng((16, seed)))
        _, joint, total = exhaustive_output_distribution(w, rounds, 1, seed=19)
        assert abs(total - 1.0) < 1e-12
        joints.append(joint)
    assert set(joints[0]) == set(joints[1])
    for plan in joints[0]:
        assert joints[0][plan] == pytest.approx(joints[1][plan], abs=1e-12)
        assert joints[0][plan] == pytest.approx(0.25 ** 2, abs=1e-12)


def test_branch_records_uniform():
    res = run_tgdmqc(random_program(2, 2, np.random.default_rng(17)),
                     random_rounds(2, 2, 18), 1, seed=20)
    assert audit_bell_uniformity(res.branch_records).ok


@pytest.mark.parametrize("n,m", [(2, 1), (1, 2)])
def test_frame_matches_physical_on_every_branch_plan(n, m):
    w = random_program(n, m, np.random.default_rng((n, m, 40)))
    rounds = random_rounds(n, m, (n, m, 41))
    count = 0
    for plan in all_branch_plans(2 * n * m):
        frame = run_tgdmqc(w, rounds, n, seed=42, branch_plan=plan)
        phys = run_tgdmqc(w, rounds, n, seed=42, branch_plan=plan, eager_bell=True)
        assert np.abs(frame.output_distribution - phys.output_distribution).max() < 1e-12
        # the physical probabilities carry round-off from the amplitudes
        assert frame.branch_probability == pytest.approx(
            phys.branch_probability, rel=1e-12)
        assert frame.transcript.render() == phys.transcript.render()
        count += 1
    assert count == 4 ** (2 * n * m)


@pytest.mark.parametrize("n,m", [(2, 2), (3, 1)])
def test_frame_matches_physical_on_seeded_runs(n, m):
    for trial in range(10):
        w = random_program(n, m, np.random.default_rng((n, m, trial, 43)))
        rounds = random_rounds(n, m, (n, m, trial, 44))
        frame = run_tgdmqc(w, rounds, n, seed=(n, m, trial))
        phys = run_tgdmqc(w, rounds, n, seed=(n, m, trial), eager_bell=True)
        assert frame.transcript.render() == phys.transcript.render()
        assert frame.outcomes == phys.outcomes
        assert frame.output_bits == phys.output_bits
        assert np.abs(frame.output_distribution - phys.output_distribution).max() < 1e-12


def test_frame_run_holds_only_data_qubits(monkeypatch):
    w = random_program(3, 2, np.random.default_rng(45))
    rounds = random_rounds(3, 2, 46)
    ideal = ideal_outcome_distribution(program_with_users(w, rounds), 1)
    monkeypatch.setenv(MAX_QUBITS_ENV, "3")
    res = run_tgdmqc(w, rounds, 1, seed=47)
    assert total_variation(res.output_distribution, ideal) < 1e-9


def test_shape_validation():
    w = random_program(2, 2, np.random.default_rng(19))
    with pytest.raises(ValueError):
        run_tgdmqc(w, random_rounds(2, 1, 20), 1, seed=0)
    with pytest.raises(ValueError):
        run_tgdmqc(w, random_rounds(1, 2, 21), 1, seed=0)
    with pytest.raises(ValueError):
        run_tgdmqc(w, random_rounds(2, 2, 22), 3, seed=0)


# -- reduction to single-user oblivious computation ------------------------------------

@pytest.mark.parametrize("n", [1, 2])
def test_oqc_reduction_via_split(n):
    # server holds (e, w2), the user side holds (w1', e): the run must
    # reproduce the basis-measurement law of W2(w2) W1(w1') |0...0>
    from obliq.gates import concat_programs, split_program

    rng = np.random.default_rng((23, n))
    m1, m2 = 1, 1
    w2 = random_program(n, m2, rng)
    w1p = random_program(n, m1, rng)
    e1 = identity_program(n, m1)
    e2 = identity_program(n, m2)
    server = concat_programs(e1, w2)
    users = concat_programs(w1p, e2)
    combined = concat_programs(w1p, w2)  # W2 after W1'
    ideal = ideal_outcome_distribution(combined, 1)
    dist, _, total = exhaustive_output_distribution(server, users.rounds, 1, seed=24)
    assert abs(total - 1.0) < 1e-12
    assert total_variation(dist, ideal) < 1e-9
    # self-check of the construction: product(server, users) == combined
    assert program_product(server, Program(n, users.rounds)) == combined
