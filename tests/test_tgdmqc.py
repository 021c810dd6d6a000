"""Multiparty protocol: distribution correctness, routing, secrecy, ledger."""

import hashlib
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
from obliq.harness import (
    all_branch_plans,
    assert_complexity_tgdmqc,
    audit_bell_uniformity,
)
from obliq.oracle import ideal_outcome_distribution, total_variation
from obliq.qsim import MAX_QUBITS_ENV
from obliq.tgdmqc import (
    _leaves,
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
    for (plan, leaf), want in zip(_leaves(w, rounds, n, 54), plans):
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
        (amps, order, axis, uid), *rest = run.snapshot()
        return amps.tobytes(), order, axis, uid, rest

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
    held = [{j: r} for j, r in enumerate(rounds, 1)] + [{}]
    users = [ProtocolUser(user_name(j), streams[j - 1], held[j - 1], (0,) * n, (0,) * n)
             for j in range(1, m + 2)]
    run = ProtocolRun(w, 1, users, streams[m + 1:])
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


@pytest.mark.parametrize("n,m", [(1, 2), (2, 1)])
def test_outcome_joint_has_every_plan_once(n, m):
    w = random_program(n, m, np.random.default_rng((n, m, 55)))
    rounds = random_rounds(n, m, (n, m, 56))
    _, joint, _ = exhaustive_output_distribution(w, rounds, 1, seed=57)
    k = 2 * n * m
    assert set(joint) == set(all_branch_plans(k))
    assert len(joint) == 4 ** k
    assert all(p == 0.25 ** k for p in joint.values())


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
        assert rec.message.qubits == 0
    assert res.ledger.upload_qubits == 0
    assert res.ledger.download_qubits == 0


# -- routing ------------------------------------------------------------------------

def test_outcome_routing_table():
    m = 3
    res = run_tgdmqc(random_program(1, m, np.random.default_rng(9)),
                     random_rounds(1, m, 10), 1, seed=16)
    routes = {}
    for rec in res.transcript.records:
        msg = rec.message
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
    step4 = [r.message for r in res.transcript.records if r.message.step == "step-4"]
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
