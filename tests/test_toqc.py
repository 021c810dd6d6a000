"""Two-server protocol: oracle agreement, wire accounting, secrecy audits."""

import copy
import hashlib
from itertools import product

import numpy as np
import pytest

from obliq import toqc
from obliq.gates import (
    Program,
    ProgramRound,
    bits_index,
    identity_program,
    random_program,
    zero_program,
)
from obliq.harness import (
    BranchRecord,
    ChannelError,
    ChannelRegistry,
    all_branch_plans,
    assert_complexity_toqc,
    audit_bell_uniformity,
    expected_toqc_steps,
)
from obliq.oracle import (
    basis_state,
    ideal_output,
    outcome_distribution,
    random_state,
    total_variation,
)
from obliq.qsim import trace_distance
from obliq.toqc import (
    audit_query_uniformity,
    derive_cz_queries,
    derive_h_queries,
    derive_ring_queries,
    derive_t_queries,
    make_streams,
    run_toqc,
)
from test_qsim import pure_density


def enumerate_branches(w, psi=None, basis_bits=None, n_circ=1, seed=0, **kw):
    """Yield (plan, result) over every Bell branch assignment of a run.

    Walks the outcome tree depth-first, so a shared prefix of outcomes runs
    once. Every plan shares `seed`, so each result equals
    `run_toqc(..., seed=seed, branch_plan=plan)` exactly; `**kw` takes
    `run_toqc`'s other keywords, and `branch_plan` raises a ValueError.
    """
    run = toqc._ToqcRun(w, psi, basis_bits, n_circ, seed=seed, **kw)
    for plan, leaf in run.leaves():
        # the run goes on to the next branch: hand out a copy
        yield plan, copy.deepcopy(leaf.result())


class ZeroRng:
    """Stand-in stream that draws only zeros (masks and queries all zero)."""

    def integers(self, low, high=None, size=None):
        return np.zeros(0 if size is None else size, dtype=np.int64)

    def random(self):
        return 0.0


def zero_streams(seed, parties):
    return [ZeroRng(), np.random.default_rng(0), np.random.default_rng(1)]


def expected_step_labels(m, include_local=False):
    """The step labels on the wire in order, plus the user's local last step
    when `include_local`."""
    labels = list(expected_toqc_steps(1, m, 1))
    return labels + [f"step-{4 * m + 3}"] if include_local else labels


def run_and_compare(w, psi, n_circ, seed, **kw):
    res = run_toqc(w, psi=psi, n_circ=n_circ, seed=seed, **kw)
    ideal = ideal_output(w, psi, n_circ)
    return trace_distance(res.output_density, ideal), res


# -- correctness ---------------------------------------------------------------

def test_zero_program_identity_channel():
    psi = basis_state(2, (1, 0))
    dist, res = run_and_compare(zero_program(2, 1), psi, 2, seed=0)
    assert dist < 1e-12
    assert trace_distance(res.output_density, pure_density(psi)) < 1e-12


def test_identity_exponent_program():
    psi = random_state(2, np.random.default_rng(1))
    dist, _ = run_and_compare(identity_program(2, 2), psi, 2, seed=1)
    assert dist < 1e-10


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2)])
def test_random_programs_match_oracle(n, m):
    rng = np.random.default_rng((n, m))
    for trial in range(5):
        w = random_program(n, m, rng)
        psi = random_state(n, rng)
        n_circ = int(rng.integers(1, n + 1))
        dist, res = run_and_compare(w, psi, n_circ, seed=(n, m, trial))
        assert dist < 1e-9
        assert audit_bell_uniformity(res.branch_records).ok


def test_forced_zero_outcomes_with_zero_everything(monkeypatch):
    # all-zero queries, masks and outcomes: pure teleport chain, data unchanged
    monkeypatch.setattr(toqc, "make_streams", zero_streams)
    psi = basis_state(1, (1,))
    w = zero_program(1, 2)
    res = run_toqc(w, psi=psi, n_circ=1, branch_plan=[(0, 0)] * 4)
    assert trace_distance(res.output_density, pure_density(psi)) < 1e-12
    for rec in res.branch_records:
        assert rec.outcome == (0, 0)


def test_exhaustive_branches_n1():
    rng = np.random.default_rng(5)
    for m in (1, 2):
        w = random_program(1, m, rng)
        psi = random_state(1, rng)
        ideal = ideal_output(w, psi, 1)
        count = 0
        for plan, res in enumerate_branches(w, psi=psi, n_circ=1, seed=(m, 1)):
            assert trace_distance(res.output_density, ideal) < 1e-9
            assert res.branch_probability == pytest.approx(0.25 ** (2 * m), abs=1e-12)
            count += 1
        assert count == 4 ** (2 * m)


def test_dropped_delta_offset_skips_phase_layers():
    # zeroing the re-randomization offset for round j makes the two servers'
    # phase layers cancel instead of composing to T/CZ: the run then matches
    # the oracle for the program with that round's y and z zeroed out
    rng = np.random.default_rng(6)
    w = random_program(2, 2, rng)
    psi = random_state(2, rng)
    stripped_rounds = list(w.rounds)
    stripped_rounds[1] = ProgramRound(w.rounds[1].x, (0, 0), (0,))
    stripped = Program(2, tuple(stripped_rounds))
    res = toqc._ToqcRun(w, psi, None, 2, seed=42,
                        coeffs=(None, ProgramRound((1, 1), (0, 0), (0,)))).run_through()
    ideal = ideal_output(stripped, psi, 2)
    assert trace_distance(res.output_density, ideal) < 1e-9


@pytest.mark.parametrize("eager_bell", [False, True], ids=["frame", "bell"])
@pytest.mark.parametrize("classical", [False, True], ids=["quantum", "classical"])
@pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (3, 1)])
def test_all_ones_coefficient_table_is_the_default(n, m, classical, eager_bell):
    # a table of rounds whose every coefficient is 1 re-derives each query as
    # the default table (None) does: the two runs agree byte for byte
    rng = np.random.default_rng((n, m, 88))
    w = random_program(n, m, rng)
    if classical:
        inputs = (None, tuple(int(b) for b in rng.integers(0, 2, size=n)))
    else:
        inputs = (random_state(n, rng), None)
    kw = dict(seed=89, classical_output=classical, eager_bell=eager_bell)
    ones = toqc._ToqcRun(w, *inputs, n, coeffs=identity_program(n, m).rounds, **kw).run_through()
    default = run_toqc(w, *inputs, n, **kw)
    assert ones.transcript.render() == default.transcript.render()
    assert ones.outcomes == default.outcomes
    assert ones.output_bits == default.output_bits
    for got, want in ((ones.output_density, default.output_density),
                      (ones.output_distribution, default.output_distribution)):
        assert (got is None) == (want is None)
        assert got is None or got.tobytes() == want.tobytes()
    assert ones.branch_probability.hex() == default.branch_probability.hex()


# sha256 over transcript, outcomes, output bits, density and distribution of
# seeded runs, as produced before toqc and tgdmqc shared one schedule
SEEDED_RUNS_DIGEST = "da048a66150dc528e5177dfd5efcce557787d5666c979abe74bf13f92f8b9a6e"


def test_seeded_runs_are_stable():
    h = hashlib.sha256()
    for n, m in ((2, 2), (3, 1), (4, 2)):
        for seed in (0, 1):
            rng = np.random.default_rng((n, m, seed, 80))
            w = random_program(n, m, rng)
            psi = random_state(n, rng)
            bits = tuple(int(b) for b in rng.integers(0, 2, size=n))
            runs = [
                run_toqc(w, psi=psi, n_circ=n, seed=seed),
                run_toqc(w, basis_bits=bits, n_circ=1, seed=seed),
                run_toqc(w, basis_bits=bits, n_circ=n, seed=seed,
                         classical_output=True),
                # round 2 exists only when m >= 2; at m = 1 the run passes
                # coeffs=None, every coefficient 1
                toqc._ToqcRun(w, psi, None, 1, seed=seed, coeffs=(
                    None, ProgramRound((1,) * n, (0,) * n, (0,) * (n * (n - 1) // 2))
                ) if m >= 2 else None).run_through(),
            ]
            # the pre-shared pairs hold 4mn + n qubits: 36 at (4, 2)
            if 4 * m * n + n <= 18:
                runs.append(run_toqc(w, psi=psi, n_circ=n, seed=seed, eager_bell=True))
            for res in runs:
                h.update(res.transcript.render().encode())
                h.update(repr(res.outcomes).encode())
                h.update(repr(res.output_bits).encode())
                for arr in (res.output_density, res.output_distribution):
                    if arr is not None:
                        h.update(arr.tobytes())
    assert h.hexdigest() == SEEDED_RUNS_DIGEST


@pytest.mark.parametrize("classical", [False, True])
@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (1, 2)])
def test_enumerated_branches_equal_single_runs(n, m, classical):
    # every enumerated branch is bit-identical to a fresh run with the same
    # seed and plan, and the plans come in all_branch_plans order
    rng = np.random.default_rng((n, m, 81))
    w = random_program(n, m, rng)
    if classical:
        bits = tuple(int(b) for b in rng.integers(0, 2, size=n))
        kw = dict(basis_bits=bits, classical_output=True)
    else:
        kw = dict(psi=random_state(n, rng))
    plans = list(all_branch_plans(2 * n * m))
    got_all = []
    for (plan, got), want in zip(enumerate_branches(w, n_circ=n, seed=82, **kw), plans):
        assert plan == want
        got_all.append(got)
    assert len(got_all) == len(plans) == 4 ** (2 * n * m)
    # compared after the walk, so a result changed by a later branch shows
    for plan, got in zip(plans, got_all):
        ref = run_toqc(w, n_circ=n, seed=82, branch_plan=plan, **kw)
        for arr, want in ((got.output_density, ref.output_density),
                          (got.output_distribution, ref.output_distribution)):
            assert (arr is None and want is None) or arr.tobytes() == want.tobytes()
        assert got.output_bits == ref.output_bits
        assert got.branch_probability == ref.branch_probability
        assert got.transcript.render() == ref.transcript.render()
        assert got.ledger.totals() == ref.ledger.totals()
        assert got.branch_records == ref.branch_records
        assert got.steps_executed == ref.steps_executed
        assert got.outcomes == ref.outcomes
        assert got.views == ref.views


def test_a_stacked_node_goes_when_the_walk_leaves_it():
    # a walk leaves its plane holding the last node's stacked rows; a run
    # restored to its start that reaches the last hop by another path must
    # get the register of its own path, not a stale row. The two differ
    # only in rounding, so the check is by bytes.
    w = random_program(2, 1, np.random.default_rng(87))
    psi = random_state(2, np.random.default_rng(88))
    plans = np.random.default_rng(89).integers(0, 2, size=(6, 4, 2)).tolist()
    for seed, plan in product((0, 9), [tuple(map(tuple, p)) for p in plans]):
        run = toqc._ToqcRun(w, psi, None, 2, seed=seed)
        start = run.snapshot()
        for _ in run.leaves():
            pass
        run.restore(start)
        run.open()
        run.hop(1, plan[:2])
        run.hop(2, plan[2:])
        ref = run_toqc(w, psi=psi, n_circ=2, seed=seed, branch_plan=plan)
        assert run.output_density.tobytes() == ref.output_density.tobytes(), (seed, plan)


# -- classical output mode ------------------------------------------------------

def test_classical_output_zero_program():
    w = zero_program(2, 1)
    res = run_toqc(w, basis_bits=(1, 0), n_circ=2, seed=7, classical_output=True)
    assert res.output_bits == (1, 0)
    assert res.output_distribution[2] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("full", [False, True], ids=["n_circ=1", "n_circ=n"])
@pytest.mark.parametrize("n,m", [(2, 2), (3, 3), (4, 4), (6, 3), (8, 4)])
def test_run_law_matches_oracle_per_branch(n, m, full):
    # each run's exact law given its Bell branch is the oracle's: the bit
    # distribution on a random basis input, with the sampled bits possible
    # under it, and the output density on a random state; every seed draws
    # a new program
    n_circ = n if full else 1
    for seed in range(5 if n == 8 else 20):
        rng = np.random.default_rng((n, m, seed, 82))
        w = random_program(n, m, rng)
        bits = tuple(rng.integers(0, 2, size=n).tolist())
        res = run_toqc(w, basis_bits=bits, n_circ=n_circ, seed=(n, m, seed),
                       classical_output=True)
        ideal = outcome_distribution(w, basis_state(n, bits), n_circ)
        assert total_variation(res.output_distribution, ideal) < 1e-12
        assert res.output_distribution[bits_index(res.output_bits)] > 0
        psi = random_state(n, rng)
        res = run_toqc(w, psi=psi, n_circ=n_circ, seed=(n, m, seed))
        assert trace_distance(res.output_density, ideal_output(w, psi, n_circ)) < 1e-12


def test_classical_output_requires_basis_input():
    with pytest.raises(ValueError):
        run_toqc(zero_program(1, 1), psi=basis_state(1, (0,)),
                 n_circ=1, seed=0, classical_output=True)


def test_classical_output_carries_no_qubits():
    res = run_toqc(zero_program(2, 1), basis_bits=(0, 1), n_circ=1, seed=9,
                   classical_output=True)
    ub, uq, db, dq = res.ledger.totals()
    assert uq == 0 and dq == 0
    verdict = assert_complexity_toqc(res.ledger, 2, 1, 1,
                                     transcript=res.transcript,
                                     classical_output=True)
    assert verdict.ok, verdict.details


# -- wire accounting --------------------------------------------------------------

@pytest.mark.parametrize("n,m,n_circ", [(1, 1, 1), (2, 1, 2), (2, 2, 1), (3, 2, 2)])
def test_ledger_matches_step_accounting(n, m, n_circ):
    w = random_program(n, m, np.random.default_rng((n, m, 3)))
    psi = random_state(n, np.random.default_rng((n, m, 4)))
    res = run_toqc(w, psi=psi, n_circ=n_circ, seed=(n, m))
    verdict = assert_complexity_toqc(res.ledger, n, m, n_circ,
                                     transcript=res.transcript)
    assert verdict.ok, verdict.details
    ub, uq, db, dq = res.ledger.totals()
    assert ub == (4 * n * n + 16 * n) * m
    assert uq == n
    assert db == 4 * n * m
    assert dq == n_circ


def test_ledger_n2_m1_values():
    # per-step sums: 16 + 24 + 8 = 48 bits up, 2 qubits; down 8 bits + 1 qubit
    w = zero_program(2, 1)
    res = run_toqc(w, psi=basis_state(2, (0, 0)), n_circ=1, seed=11)
    assert res.ledger.totals() == (48, 2, 8, 1)


def test_ledger_diff_names_offending_step():
    w = zero_program(1, 1)
    res = run_toqc(w, psi=basis_state(1, (0,)), n_circ=1, seed=12)
    verdict = assert_complexity_toqc(res.ledger, 1, 2, 1, transcript=res.transcript)
    assert not verdict.ok
    assert any("step-" in d for d in verdict.details)


def test_query_message_sizes():
    # first upload is 2n^2+4n bits + n qubits; rederived uploads are 2n^2+8n
    for n in (1, 2, 3):
        w = zero_program(n, 1)
        res = run_toqc(w, psi=basis_state(n, (0,) * n), n_circ=1, seed=n)
        by_step = {r.step: r for r in res.transcript.records}
        assert by_step["step-1"].bits == 2 * n * n + 4 * n
        assert by_step["step-1"].qubits == n
        assert by_step["step-3"].bits == 2 * n * n + 8 * n
        assert by_step["step-5"].bits == 4 * n
        assert by_step["step-2"].bits == 2 * n


def test_family_parts_name_rows_by_key():
    # a family's part for row u (or (u, v)) carries row u's values, whatever
    # order the family's dict was built in
    rng = np.random.default_rng(5)
    for prefix, family in (("t-query", toqc.draw_t_family(rng, 3)),
                           ("cz-query-rederived", toqc.draw_cz_family(rng, 3))):
        parts = toqc.family_parts(prefix, family)
        assert toqc.family_parts(prefix, dict(reversed(family.items()))) == parts
        for (name, _, values), key in zip(parts, family):
            row = f"u={key}" if isinstance(key, int) else "u={},v={}".format(*key)
            assert name == f"{prefix}[{row}]" and values == family[key]


def test_step_labels_schedule():
    for m in (1, 2, 3):
        w = zero_program(1, m)
        res = run_toqc(w, psi=basis_state(1, (0,)), n_circ=1, seed=m)
        assert res.transcript.step_labels() == expected_step_labels(m)
        assert res.steps_executed == expected_step_labels(m, include_local=True)


def test_replay_determinism():
    w = random_program(2, 2, np.random.default_rng(13))
    psi = random_state(2, np.random.default_rng(14))
    r1 = run_toqc(w, psi=psi, n_circ=1, seed=999)
    r2 = run_toqc(w, psi=psi, n_circ=1, seed=999)
    assert r1.transcript.render() == r2.transcript.render()
    assert trace_distance(r1.output_density, r2.output_density) < 1e-15


def test_lazy_vs_eager_allocation():
    w = random_program(1, 1, np.random.default_rng(15))
    psi = random_state(1, np.random.default_rng(16))
    lazy = run_toqc(w, psi=psi, n_circ=1, seed=500)
    eager = run_toqc(w, psi=psi, n_circ=1, seed=500, eager_bell=True)
    assert trace_distance(lazy.output_density, eager.output_density) < 1e-12
    assert lazy.transcript.render() == eager.transcript.render()


def test_live_qubits_stay_bounded_lazily(monkeypatch):
    # the default executor holds only the n data qubits: the run completes
    # under a cap of n and never allocates a Bell pair
    from obliq.qsim import MAX_QUBITS_ENV, StateRegister

    seen = []
    orig = StateRegister.alloc_bell_pair

    def spy(self):
        out = orig(self)
        seen.append(self.num_live)
        return out

    StateRegister.alloc_bell_pair = spy
    try:
        w = random_program(3, 2, np.random.default_rng(17))
        psi = random_state(3, np.random.default_rng(18))
        monkeypatch.setenv(MAX_QUBITS_ENV, "3")
        res = run_toqc(w, psi=psi, n_circ=1, seed=20)
    finally:
        StateRegister.alloc_bell_pair = orig
    assert seen == []
    assert trace_distance(res.output_density, ideal_output(w, psi, 1)) < 1e-9


def test_wide_run_fits_default_cap():
    # n = 8 needs 40 live qubits with pre-shared pairs, 8 with the frame
    rng = np.random.default_rng(25)
    w = random_program(8, 1, rng)
    psi = random_state(8, rng)
    res = run_toqc(w, psi=psi, n_circ=2, seed=26)
    assert trace_distance(res.output_density, ideal_output(w, psi, 2)) < 1e-9


@pytest.mark.parametrize("eager", [False, True])
def test_malformed_branch_plan_rejected(eager):
    with pytest.raises(ValueError, match="not a Bell outcome"):
        run_toqc(zero_program(1, 1), psi=basis_state(1, (0,)), n_circ=1, seed=0,
                 branch_plan=[(2, 0), (0, 0)], eager_bell=eager)


def test_wrong_length_psi_rejected_at_the_boundary():
    psi = np.full(8, 1 / np.sqrt(8), dtype=complex)
    with pytest.raises(ValueError, match=r"expected 2\^2 = 4"):
        run_toqc(zero_program(2, 1), psi=psi, n_circ=1, seed=0)


# -- Pauli-frame executor against the physical reference ------------------------

@pytest.mark.parametrize("n,m", [(2, 1), (1, 2)])
def test_frame_matches_physical_on_every_branch_plan(n, m):
    rng = np.random.default_rng((n, m, 30))
    w = random_program(n, m, rng)
    psi = random_state(n, rng)
    count = 0
    for plan in all_branch_plans(2 * n * m):
        frame = run_toqc(w, psi=psi, n_circ=n, seed=31, branch_plan=plan)
        phys = run_toqc(w, psi=psi, n_circ=n, seed=31, branch_plan=plan,
                        eager_bell=True)
        assert np.abs(frame.output_density - phys.output_density).max() < 1e-12
        # the physical probabilities carry round-off from the amplitudes
        assert frame.branch_probability == pytest.approx(
            phys.branch_probability, rel=1e-12)
        assert frame.transcript.render() == phys.transcript.render()
        count += 1
    assert count == 4 ** (2 * n * m)


@pytest.mark.parametrize("n,m", [(2, 2), (3, 1)])
def test_frame_matches_physical_on_seeded_runs(n, m):
    rng = np.random.default_rng((n, m, 32))
    for trial in range(10):
        w = random_program(n, m, rng)
        psi = random_state(n, rng)
        bits = tuple(int(b) for b in rng.integers(0, 2, size=n))
        seed = (n, m, trial)
        frame = run_toqc(w, psi=psi, n_circ=1, seed=seed)
        phys = run_toqc(w, psi=psi, n_circ=1, seed=seed, eager_bell=True)
        assert frame.transcript.render() == phys.transcript.render()
        assert frame.outcomes == phys.outcomes
        assert np.abs(frame.output_density - phys.output_density).max() < 1e-12
        frame = run_toqc(w, basis_bits=bits, n_circ=n, seed=seed,
                         classical_output=True)
        phys = run_toqc(w, basis_bits=bits, n_circ=n, seed=seed,
                        classical_output=True, eager_bell=True)
        assert frame.transcript.render() == phys.transcript.render()
        assert frame.output_bits == phys.output_bits
        assert np.abs(frame.output_distribution - phys.output_distribution).max() < 1e-12


def test_bell_audit_not_applicable_under_frame():
    w = random_program(2, 1, np.random.default_rng(33))
    psi = random_state(2, np.random.default_rng(34))
    frame = run_toqc(w, psi=psi, n_circ=1, seed=35)
    assert frame.branch_records and not any(r.measured for r in frame.branch_records)
    verdict = audit_bell_uniformity(frame.branch_records)
    assert verdict.ok
    assert any("not applicable (Pauli-frame executor)" in d for d in verdict.details)
    assert not any("max |prob" in d for d in verdict.details)

    phys = run_toqc(w, psi=psi, n_circ=1, seed=35, eager_bell=True)
    assert all(r.measured for r in phys.branch_records)
    verdict = audit_bell_uniformity(phys.branch_records)
    assert verdict.ok
    assert not any("not applicable" in d for d in verdict.details)
    skewed = BranchRecord("step-2", 1, (0.3, 0.2, 0.25, 0.25), (0, 0))
    assert not audit_bell_uniformity(phys.branch_records + [skewed]).ok


# -- secrecy ------------------------------------------------------------------------

def test_structural_non_communication():
    registry = ChannelRegistry()
    with pytest.raises(ChannelError):
        registry.register("server-a", "server-b")


def test_unregistered_channel_rejected():
    from obliq.harness import StepMessage

    registry = ChannelRegistry()
    registry.register("user", "server-a")
    with pytest.raises(ChannelError):
        registry.send(StepMessage("step-1", "user", ("server-b",)))


def test_refused_send_records_nothing():
    from obliq.harness import StepMessage

    registry = ChannelRegistry()
    registry.register("user", "server-a")
    registry.send(StepMessage("step-1", "user", ("server-a",)))
    # one receiver has a channel, the other has none: the whole message is refused
    with pytest.raises(ChannelError):
        registry.send(StepMessage("step-2", "user", ("server-a", "server-b")))
    assert registry.transcript.step_labels() == ["step-1"]
    assert registry.transcript.ledger().totals() == (0, 0, 0, 0)


def test_query_equation_uniformity():
    verdict = audit_query_uniformity()
    assert verdict.ok, verdict.details


def _t_reads_row_0_twice(fresh, shift, delta, coeff=None):
    return derive_ring_queries(8, {0: fresh[0], 1: fresh[0]}, shift, delta, coeff)


def _h_offset_scales(fresh, shift, delta, coeff=None):
    # the offset multiplies the hit row instead of adding to it
    out = derive_ring_queries(4, fresh, shift, delta, (0,) * len(shift))
    (hit,) = coeff or (1,)
    out[delta[0]] = (out[delta[0]][0] * hit % 4,)
    return out


def _cz_reads_one_column_twice(fresh, n, shift, delta, coeff=None):
    out = derive_cz_queries(fresh, n, shift, delta, coeff)
    return {**out, (1, 1): out[(0, 0)]}


@pytest.mark.parametrize("name, mutant, family", [
    ("derive_t_queries", _t_reads_row_0_twice, "t-query"),
    ("derive_h_queries", _h_offset_scales, "h-query"),
    ("derive_cz_queries", _cz_reads_one_column_twice, "cz-query"),
])
def test_query_audit_fails_a_non_bijective_derivation(monkeypatch, name, mutant, family):
    monkeypatch.setattr(f"obliq.toqc.{name}", mutant)
    verdict = audit_query_uniformity()
    assert not verdict.ok
    assert {d.split(":")[0] for d in verdict.details} == {family}


def test_derivations_are_ring_bijections_directly():
    for shift in ((0,), (1,)):
        for delta in ((0,), (1,)):
            outs = {
                derive_t_queries({0: (q,), 1: ((q + 3) % 8,)}, shift, delta)[0][0]
                for q in range(8)
            }
            # u=0 coordinate sweeps all residues as its source sweeps
            if shift == (0,):
                assert outs == set(range(8))
            houts = {
                derive_h_queries({0: (q % 4,), 1: (1,)}, shift, delta)[0][0]
                for q in range(4)
            }
            if shift == (0,):
                assert houts == set(range(4))


def test_server_views_carry_no_input_dependence():
    # two different inputs, same seed: every classical value each server
    # receives is identically distributed; with the same stream they are
    # literally equal, and the quantum upload sizes match
    w = random_program(2, 2, np.random.default_rng(19))
    psi_a = basis_state(2, (0, 0))
    psi_b = random_state(2, np.random.default_rng(20))
    ra = run_toqc(w, psi=psi_a, n_circ=1, seed=21)
    rb = run_toqc(w, psi=psi_b, n_circ=1, seed=21)
    for server in ("server-a", "server-b"):
        assert ra.views[server].received == rb.views[server].received
        assert ra.views[server].received_qubits == rb.views[server].received_qubits


def test_branch_probabilities_uniform_across_runs():
    w = random_program(2, 2, np.random.default_rng(22))
    psi = random_state(2, np.random.default_rng(23))
    res = run_toqc(w, psi=psi, n_circ=1, seed=24)
    assert len(res.branch_records) == 2 * 2 * 2
    assert audit_bell_uniformity(res.branch_records).ok


def test_make_streams_independent():
    user, server_a, _ = make_streams(1234, 3)
    a = user.integers(0, 8, 4).tolist()
    b = server_a.integers(0, 8, 4).tolist()
    assert a != b
