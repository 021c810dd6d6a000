"""Delegated multiparty computation: m+1 classical-only users, two servers.

The servers hold a program w and run the same teleport-chained rounds as the
two-server oblivious protocol, but on the fixed input |0...0> prepared by
server A. User j holds round j of a second program w'; its exponents enter
only as the offset coefficients of user j's re-randomized queries, which
turns every applied layer into the corresponding layer of the product
program w . w'. The final user reconstructs the measured bits of
W(w . w')|0...0> from server A's readout and the last teleport outcomes.

No qubit ever travels to or from a user; everything on the user side is
classical.
"""

from dataclasses import dataclass, field

import numpy as np

from .gates import Program, qubit_pairs
from .harness import (
    BranchSource,
    ChannelRegistry,
    ClassicalPart,
    PartyView,
    QueryEquationAudit,
    StepMessage,
    all_branch_plans,
)
from .oracle import ideal_outcome_distribution, total_variation
from .qsim import StateRegister
from .toqc import (
    SERVER_A,
    SERVER_B,
    UV_PAIRS,
    ProtocolServer,
    cz_family_parts,
    derive_cz_queries,
    derive_h_queries,
    derive_t_queries,
    draw_cz_family,
    draw_h_family,
    draw_t_family,
    h_family_parts,
    t_family_parts,
    teleport_executor,
)


def user_name(j):
    return f"user-{j}"


class TgdmqcUser:
    """User j: holds one round of w' and the outcomes routed to it."""

    def __init__(self, j, n, round_prime, rng):
        self.j = j
        self.n = n
        self.round_prime = round_prime
        self.rng = rng
        self.t_fresh = None
        self.cz_fresh = None
        self.h_fresh = None
        self.out_x = {0: (0,) * n}
        self.out_z = {0: (0,) * n}
        self.view = PartyView(user_name(j))

    def store_outcomes(self, k, xs, zs):
        self.out_x[k] = tuple(xs)
        self.out_z[k] = tuple(zs)

    def fresh_tcz(self):
        self.t_fresh = draw_t_family(self.rng, self.n)
        self.cz_fresh = draw_cz_family(self.rng, self.n)
        return self.t_fresh, self.cz_fresh

    def fresh_h(self):
        self.h_fresh = draw_h_family(self.rng, self.n)
        return self.h_fresh

    def derived_tcz(self):
        """Queries for server B's round j, offsets scaled by this user's
        y' and z' exponents (there is no input mask here)."""
        j, n = self.j, self.n
        ax_prev = self.out_x[2 * j - 2]
        ax = self.out_x[2 * j - 1]
        shift = tuple((ax[s] + ax_prev[s]) % 2 for s in range(n))
        delta = ax
        t = derive_t_queries(self.t_fresh, shift, delta, coeff=self.round_prime.y)
        cz = derive_cz_queries(self.cz_fresh, n, shift, delta, coeff=self.round_prime.z)
        return t, cz

    def derived_h(self):
        """Queries for server A's round-j rotation layer, offset scaled by x'."""
        j, n = self.j, self.n
        ox2, oz2 = self.out_x[2 * j], self.out_z[2 * j]
        ox1, oz1 = self.out_x[2 * j - 1], self.out_z[2 * j - 1]
        shift = tuple((ox2[s] + oz2[s] + ox1[s] + oz1[s]) % 2 for s in range(n))
        delta = tuple((ox2[s] + oz2[s]) % 2 for s in range(n))
        return derive_h_queries(self.h_fresh, shift, delta, coeff=self.round_prime.x)


@dataclass
class TgdmqcRunResult:
    n: int
    m: int
    n_circ: int
    output_bits: tuple = None
    output_distribution: np.ndarray = None
    transcript: object = None
    ledger: object = None
    branch_records: list = field(default_factory=list)
    steps_executed: list = field(default_factory=list)
    views: dict = field(default_factory=dict)
    outcomes: dict = field(default_factory=dict)
    branch_probability: float = 1.0


class _Run:
    """One run of the 4m+3-step schedule, resumable at its 2m teleport hops.

    `open()` runs everything before hop 1; `hop(k, outcomes)` runs hop k and
    everything up to hop k+1, or through the readout when k = 2m.
    `snapshot()` and `restore()` save and reset everything a run changes, so
    one state can be continued with each outcome of the next hop in turn.
    """

    def __init__(self, w, user_rounds, n_circ, seed, *,
                 eager_bell=False, branch_plan=None, max_qubits=None):
        n, m = w.n, w.m
        user_rounds = tuple(user_rounds)
        if len(user_rounds) != m:
            raise ValueError(f"expected {m} user rounds, got {len(user_rounds)}")
        for r in user_rounds:
            r.check_shape(n)
        if not 1 <= n_circ <= n:
            raise ValueError(f"n_circ must be in [1, {n}]")
        self.n, self.m, self.n_circ = n, m, n_circ

        # streams 0..m-1 are users 1..m, stream m is unused, then A and B
        streams = np.random.SeedSequence(seed).spawn(m + 3)
        self.rngs = [np.random.default_rng(s) for s in streams]
        self.registry = ChannelRegistry()
        for j in range(1, m + 2):
            self.registry.register(user_name(j), SERVER_A)
            self.registry.register(user_name(j), SERVER_B)

        self.reg = StateRegister(max_qubits=max_qubits)
        self.branch_records = []
        self.source = BranchSource(branch_plan)
        self.teleport = teleport_executor(
            self.reg, m, n, self.source, self.branch_records, eager_bell
        )
        self.users = {
            j: TgdmqcUser(j, n, user_rounds[j - 1], self.rngs[j - 1])
            for j in range(1, m + 1)
        }
        self.final = PartyView(user_name(m + 1))
        self.final_outcomes = {}
        self.server_a = ProtocolServer(SERVER_A, "a", w, self.reg, self.teleport,
                                       self.rngs[m + 1])
        self.server_b = ProtocolServer(SERVER_B, "b", w, self.reg, self.teleport,
                                       self.rngs[m + 2])
        self.steps = []
        self.data = None
        self.views = [u.view for u in self.users.values()]
        self.views += [self.final, self.server_a.view, self.server_b.view]

    # -- the schedule ------------------------------------------------------

    def open(self):
        """Step 1, then step 2 up to server A's first hop."""
        t1, cz1 = self.users[1].fresh_tcz()
        self.server_a.store_queries(1, t=t1, cz=cz1)
        self._send(
            StepMessage("step-1", user_name(1), (SERVER_A,),
                        t_family_parts("t-query", t1) + cz_family_parts("cz-query", cz1)),
            self.server_a.view,
        )
        self.data = self.reg.alloc_zero_qubits(self.n)
        self.server_a.apply_layers(1, self.data)

    def hop(self, k, outcomes=None):
        """Hop k and the steps up to the next hop (through the readout at
        k = 2m). `outcomes` forces this hop's n Bell outcomes; None takes
        them from the run's branch plan, or samples them without one."""
        if outcomes is not None:
            self.teleport.source = BranchSource(outcomes)
        j = (k + 1) // 2
        if k % 2:
            # server A ends round j; server B runs its half
            step = f"step-{4 * j - 2}"
            xs, zs, self.data = self.server_a.teleport_on(j, self.data, step)
            self._outcome_msg(step, SERVER_A, k, xs, zs, (j,))
            self._query_to_b(j, f"step-{4 * j - 1}")
            self.server_b.apply_layers(j, self.data)
            return
        step = f"step-{4 * j}"
        xs, zs, self.data = self.server_b.teleport_on(j, self.data, step)
        self._outcome_msg(step, SERVER_B, k, xs, zs, (j, j + 1))
        if j < self.m:
            self._queries_to_a(j + 1)
            self.server_a.apply_layers(j + 1, self.data)
        else:
            self._read_out()

    def _send(self, msg, *views):
        self.registry.send(msg)
        self.steps.append(msg.step)
        for v in views:
            v.absorb(msg)

    def _outcome_msg(self, step, sender, k, xs, zs, recipients):
        msg = StepMessage(
            step, sender, tuple(user_name(j) for j in recipients),
            (ClassicalPart("bell-x", 1, xs), ClassicalPart("bell-z", 1, zs)),
        )
        views = []
        for j in recipients:
            if j <= self.m:
                self.users[j].store_outcomes(k, xs, zs)
                views.append(self.users[j].view)
            else:
                self.final_outcomes[k] = (tuple(xs), tuple(zs))
                views.append(self.final)
        self._send(msg, *views)

    def _query_to_b(self, j, step):
        user = self.users[j]
        t, cz = user.derived_tcz()
        h = user.fresh_h()
        self.server_b.store_queries(j, t=t, cz=cz, h=h, h_round=j)
        parts = (
            t_family_parts("t-query-rederived", t)
            + cz_family_parts("cz-query-rederived", cz)
            + h_family_parts("h-query", h)
        )
        self._send(StepMessage(step, user_name(j), (SERVER_B,), parts),
                   self.server_b.view)

    def _queries_to_a(self, j):
        """Step 4j-3: user j-1's rederived rotation queries, then user j's
        fresh phase queries, both to server A."""
        step = f"step-{4 * j - 3}"
        h = self.users[j - 1].derived_h()
        self.server_a.store_queries(j, h=h, h_round=j - 1)
        self._send(
            StepMessage(step, user_name(j - 1), (SERVER_A,),
                        h_family_parts("h-query-rederived", h)),
            self.server_a.view,
        )
        t, cz = self.users[j].fresh_tcz()
        self.server_a.store_queries(j, t=t, cz=cz)
        self._send(
            StepMessage(step, user_name(j), (SERVER_A,),
                        t_family_parts("t-query", t) + cz_family_parts("cz-query", cz)),
            self.server_a.view,
        )

    def _read_out(self):
        """Steps 4m+1 to 4m+3: the last rotation queries and layer, server
        A's readout and the final user's X-outcome shift."""
        m, n_circ, reg, data = self.m, self.n_circ, self.reg, self.data
        h = self.users[m].derived_h()
        self.server_a.store_queries(m + 1, h=h, h_round=m)
        self._send(
            StepMessage(f"step-{4 * m + 1}", user_name(m), (SERVER_A,),
                        h_family_parts("h-query-rederived", h)),
            self.server_a.view,
        )

        self.server_a.final_h_layer(data)
        raw = reg.probabilities_on(data[:n_circ])
        measured = tuple(
            reg.measure_z(data[s], rng=self.server_a.rng)[0] for s in range(n_circ)
        )
        self._send(
            StepMessage(f"step-{4 * m + 2}", SERVER_A, (user_name(m + 1),),
                        (ClassicalPart("output-bits", 1, measured),)),
            self.final,
        )

        shift = self.final_outcomes[2 * m][0][:n_circ]
        self.output_bits = tuple(b ^ x for b, x in zip(measured, shift))
        self.steps.append(f"step-{4 * m + 3}")
        shift_idx = 0
        for x in shift:
            shift_idx = (shift_idx << 1) | x
        self.output_distribution = raw[np.arange(raw.size) ^ shift_idx]
        p = 1.0
        for rec in self.branch_records:
            p *= rec.probs[(rec.outcome[0] << 1) | rec.outcome[1]]
        self.branch_probability = p

    # -- resuming ----------------------------------------------------------

    def snapshot(self):
        """Everything a later hop changes: the lists by their lengths, the
        small dicts by copy, and the register, executor and rng states."""
        ledger = self.registry.ledger
        return (
            self.reg.snapshot(),
            self.teleport.snapshot(),
            [rng.bit_generator.state for rng in self.rngs],
            self.data,
            len(self.branch_records),
            len(self.steps),
            len(self.registry.transcript.records),
            ledger.totals(),
            [(len(v.received), v.received_qubits) for v in self.views],
            [(u.out_x.copy(), u.out_z.copy(), u.t_fresh, u.cz_fresh, u.h_fresh)
             for u in self.users.values()],
            [(s.t_queries.copy(), s.cz_queries.copy(), s.h_queries.copy())
             for s in (self.server_a, self.server_b)],
            self.final_outcomes.copy(),
        )

    def restore(self, snap):
        (reg, frame, rng_states, self.data, n_records, n_steps, n_messages,
         totals, views, users, servers, final_outcomes) = snap
        self.reg.restore(reg)
        self.teleport.restore(frame)
        for rng, state in zip(self.rngs, rng_states):
            rng.bit_generator.state = state
        del self.branch_records[n_records:]
        del self.steps[n_steps:]
        del self.registry.transcript.records[n_messages:]
        ledger = self.registry.ledger
        (ledger.upload_bits, ledger.upload_qubits,
         ledger.download_bits, ledger.download_qubits) = totals
        for v, (n_received, qubits) in zip(self.views, views):
            del v.received[n_received:]
            v.received_qubits = qubits
        for u, (out_x, out_z, t, cz, h) in zip(self.users.values(), users):
            u.out_x, u.out_z = out_x.copy(), out_z.copy()
            u.t_fresh, u.cz_fresh, u.h_fresh = t, cz, h
        for s, (t, cz, h) in zip((self.server_a, self.server_b), servers):
            s.t_queries, s.cz_queries, s.h_queries = t.copy(), cz.copy(), h.copy()
        self.final_outcomes = final_outcomes.copy()

    def result(self):
        m = self.m
        views = {user_name(j): u.view for j, u in self.users.items()}
        views[user_name(m + 1)] = self.final
        views[SERVER_A] = self.server_a.view
        views[SERVER_B] = self.server_b.view
        chronological = tuple(rec.outcome for rec in self.branch_records)
        return TgdmqcRunResult(
            n=self.n, m=m, n_circ=self.n_circ,
            output_bits=self.output_bits,
            output_distribution=self.output_distribution,
            transcript=self.registry.transcript,
            ledger=self.registry.ledger,
            branch_records=self.branch_records,
            steps_executed=self.steps,
            views=views,
            outcomes={"chronological": chronological},
            branch_probability=self.branch_probability,
        )


def run_tgdmqc(
    w,
    user_rounds,
    n_circ=1,
    *,
    seed=None,
    eager_bell=False,
    branch_plan=None,
    max_qubits=None,
):
    """One full run; `user_rounds` is the list of the m users' w' rounds.

    Returns a TgdmqcRunResult whose `output_distribution` is the exact
    distribution of the reconstructed bits given the run's Bell branch (the
    sampled `output_bits` are one draw from it). The run holds n live
    qubits; `eager_bell=True` selects the physical reference executor, which
    holds 4mn + n.
    """
    run = _Run(w, user_rounds, n_circ, seed, eager_bell=eager_bell,
               branch_plan=branch_plan, max_qubits=max_qubits)
    run.open()
    for k in range(1, 2 * w.m + 1):
        run.hop(k)
    run.source.check_exhausted()
    return run.result()


def _leaves(w, user_rounds, n_circ, seed, **kw):
    """Yield (plan, run) for every Bell branch plan, in `all_branch_plans`
    order, walking the outcome tree depth-first from one seeded run.

    Each hop's n outcomes and the steps after them run once per tree node.
    The yielded run is the same object each time, valid until the next leaf:
    it carries that plan's `output_distribution` and `branch_probability`.
    """
    run = _Run(w, user_rounds, n_circ, seed, **kw)
    run.open()
    combos = tuple(all_branch_plans(w.n))
    last = 2 * w.m

    def walk(k, prefix):
        snap = run.snapshot()
        for i, combo in enumerate(combos):
            if i:
                run.restore(snap)
            run.hop(k, combo)
            if k == last:
                yield prefix + combo, run
            else:
                yield from walk(k + 1, prefix + combo)

    yield from walk(1, ())


def exhaustive_output_distribution(w, user_rounds, n_circ=1, seed=0, **kw):
    """Exact output distribution summed over every Bell branch.

    Walks the tree of the 4^(2mn) Bell outcome plans depth-first: the state
    after each hop is snapshotted once, and each of the hop's 4^n outcome
    combinations continues from it, so a shared prefix runs once. Every plan
    shares `seed`, so each leaf equals `run_tgdmqc(..., seed=seed,
    branch_plan=plan)` exactly; `**kw` (`eager_bell`, `max_qubits`) goes to
    the run. Also returns the joint distribution of all Bell outcomes (what
    the users collectively receive), keyed by the chronological outcome
    tuple, and the total probability.
    """
    acc = np.zeros(1 << n_circ, dtype=float)
    outcome_joint = {}
    total = 0.0
    for plan, run in _leaves(w, user_rounds, n_circ, seed, **kw):
        p = run.branch_probability
        total += p
        acc += p * run.output_distribution
        outcome_joint[plan] = outcome_joint.get(plan, 0.0) + p
    return acc, outcome_joint, total


def sampled_output_distribution(w, user_rounds, n_circ=1, seed=0, runs=10000, **kw):
    """Empirical output distribution over independent honest runs."""
    counts = np.zeros(1 << n_circ, dtype=float)
    for i in range(runs):
        res = run_tgdmqc(w, user_rounds, n_circ, seed=(seed, i), **kw)
        idx = 0
        for b in res.output_bits:
            idx = (idx << 1) | b
        counts[idx] += 1.0
    return counts / runs


def verify_against_ideal(w, user_rounds, n_circ=1, seed=0, exhaustive=True, runs=10000):
    """Total variation between the protocol output and the product program's
    ideal outcome distribution."""
    product = program_with_users(w, user_rounds)
    ideal = ideal_outcome_distribution(product, n_circ)
    if exhaustive:
        dist, _, total = exhaustive_output_distribution(w, user_rounds, n_circ, seed=seed)
        return total_variation(dist, ideal), dist, ideal
    dist = sampled_output_distribution(w, user_rounds, n_circ, seed=seed, runs=runs)
    return total_variation(dist, ideal), dist, ideal


def program_with_users(w, user_rounds):
    """The product program the run effectively applies."""
    from .gates import program_product

    return program_product(w, Program(w.n, tuple(user_rounds)))


# -- audit wiring ----------------------------------------------------------------
# settings are (shift, delta, coeff) contexts; the two differ in the w' entry

def _t_audit(name, setting_a, setting_b, coord=0, other=3):
    def derive(q, setting):
        sh, dl, co = setting
        n = len(sh)
        fresh = {u: [other] * n for u in (0, 1)}
        fresh[(coord - sh[0]) % 2][0] = q
        fresh = {u: tuple(v) for u, v in fresh.items()}
        return derive_t_queries(fresh, sh, dl, coeff=co)[coord][0]

    return QueryEquationAudit(name, 8, derive, setting_a, setting_b)


def _h_audit(name, setting_a, setting_b, coord=0, other=1):
    def derive(q, setting):
        sh, dl, co = setting
        n = len(sh)
        fresh = {u: [other] * n for u in (0, 1)}
        fresh[(coord - sh[0]) % 2][0] = q
        fresh = {u: tuple(v) for u, v in fresh.items()}
        return derive_h_queries(fresh, sh, dl, coeff=co)[coord][0]

    return QueryEquationAudit(name, 4, derive, setting_a, setting_b)


def _cz_audit(name, setting_a, setting_b, coord=(0, 0)):
    def derive(q, setting):
        sh, dl, co = setting
        fresh = {uv: (0,) for uv in UV_PAIRS}
        fresh[((coord[0] - sh[0]) % 2, (coord[1] - sh[1]) % 2)] = (q,)
        return derive_cz_queries(fresh, 2, sh, dl, coeff=co)[coord][0]

    return QueryEquationAudit(name, 2, derive, setting_a, setting_b)


def equation_audits(coeffs_a, coeffs_b):
    """Query equations with the offsets taken from two distinct w' rounds.

    `coeffs_a` and `coeffs_b` are (x', y', z') exponent triples. The marginal
    of each derived value over its uniform source must be uniform whatever
    the w' entries are, so the servers' view is independent of the users'
    program.
    """
    xa, ya, za = coeffs_a
    xb, yb, zb = coeffs_b
    sh, dl = (1,), (0,)
    sh2, dl2 = (1, 0), (0, 1)
    return [
        _t_audit("t-query offset y'", (sh, dl, (ya,)), (sh, dl, (yb,))),
        _h_audit("h-query offset x'", (sh, dl, (xa,)), (sh, dl, (xb,))),
        _cz_audit("cz-query offset z'", (sh2, dl2, (za,)), (sh2, dl2, (zb,))),
    ]
