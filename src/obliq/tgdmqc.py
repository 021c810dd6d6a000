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
    n, m = w.n, w.m
    user_rounds = tuple(user_rounds)
    if len(user_rounds) != m:
        raise ValueError(f"expected {m} user rounds, got {len(user_rounds)}")
    for r in user_rounds:
        r.check_shape(n)
    if not 1 <= n_circ <= n:
        raise ValueError(f"n_circ must be in [1, {n}]")

    ss = np.random.SeedSequence(seed)
    streams = ss.spawn(m + 3)
    user_rngs = [np.random.default_rng(s) for s in streams[: m + 1]]
    rng_a = np.random.default_rng(streams[m + 1])
    rng_b = np.random.default_rng(streams[m + 2])

    registry = ChannelRegistry()
    names = [user_name(j) for j in range(1, m + 2)]
    for nm in names:
        registry.register(nm, SERVER_A)
        registry.register(nm, SERVER_B)

    reg = StateRegister(max_qubits=max_qubits)
    branch_records = []
    source = BranchSource(branch_plan)
    teleport = teleport_executor(reg, m, n, source, branch_records, eager_bell)
    users = {
        j: TgdmqcUser(j, n, user_rounds[j - 1], user_rngs[j - 1])
        for j in range(1, m + 1)
    }
    final = PartyView(user_name(m + 1))
    final_outcomes = {}
    server_a = ProtocolServer(SERVER_A, "a", w, reg, teleport, rng_a)
    server_b = ProtocolServer(SERVER_B, "b", w, reg, teleport, rng_b)
    steps = []

    def send(msg, *recipients):
        registry.send(msg)
        steps.append(msg.step)
        for r in recipients:
            r.absorb(msg)

    def outcome_msg(step, sender, k, xs, zs, recipients):
        msg = StepMessage(
            step, sender, tuple(user_name(j) for j in recipients),
            (ClassicalPart("bell-x", 1, xs), ClassicalPart("bell-z", 1, zs)),
        )
        views = []
        for j in recipients:
            if j <= m:
                users[j].store_outcomes(k, xs, zs)
                views.append(users[j].view)
            else:
                final_outcomes[k] = (tuple(xs), tuple(zs))
                views.append(final)
        send(msg, *views)

    # step 1: user 1's fresh phase queries
    t1, cz1 = users[1].fresh_tcz()
    server_a.store_queries(1, t=t1, cz=cz1)
    send(
        StepMessage("step-1", user_name(1), (SERVER_A,),
                    t_family_parts("t-query", t1) + cz_family_parts("cz-query", cz1)),
        server_a.view,
    )

    # step 2: server A prepares |0...0> and runs its phase layers
    data = reg.alloc_zero_qubits(n)
    xs, zs, data = server_a.unitary_round(1, data, "step-2")
    outcome_msg("step-2", SERVER_A, 1, xs, zs, (1,))

    def query_to_b(j, step):
        t, cz = users[j].derived_tcz()
        h = users[j].fresh_h()
        server_b.store_queries(j, t=t, cz=cz, h=h, h_round=j)
        parts = (
            t_family_parts("t-query-rederived", t)
            + cz_family_parts("cz-query-rederived", cz)
            + h_family_parts("h-query", h)
        )
        send(StepMessage(step, user_name(j), (SERVER_B,), parts), server_b.view)

    def b_round(j, step):
        nonlocal data
        xs, zs, data = server_b.unitary_round(j, data, step)
        outcome_msg(step, SERVER_B, 2 * j, xs, zs, (j, j + 1))

    query_to_b(1, "step-3")
    b_round(1, "step-4")

    for j in range(2, m + 1):
        # step 4j-3: user j-1's rederived rotation queries and user j's
        # fresh phase queries both go to server A
        h = users[j - 1].derived_h()
        server_a.store_queries(j, h=h, h_round=j - 1)
        send(
            StepMessage(f"step-{4 * j - 3}", user_name(j - 1), (SERVER_A,),
                        h_family_parts("h-query-rederived", h)),
            server_a.view,
        )
        t, cz = users[j].fresh_tcz()
        server_a.store_queries(j, t=t, cz=cz)
        send(
            StepMessage(f"step-{4 * j - 3}", user_name(j), (SERVER_A,),
                        t_family_parts("t-query", t) + cz_family_parts("cz-query", cz)),
            server_a.view,
        )

        xs, zs, data = server_a.unitary_round(j, data, f"step-{4 * j - 2}")
        outcome_msg(f"step-{4 * j - 2}", SERVER_A, 2 * j - 1, xs, zs, (j,))

        query_to_b(j, f"step-{4 * j - 1}")
        b_round(j, f"step-{4 * j}")

    # step 4m+1: user m's last rederived rotation queries
    h = users[m].derived_h()
    server_a.store_queries(m + 1, h=h, h_round=m)
    send(
        StepMessage(f"step-{4 * m + 1}", user_name(m), (SERVER_A,),
                    h_family_parts("h-query-rederived", h)),
        server_a.view,
    )

    # step 4m+2: final rotation layer, then server A reads out n_circ bits
    server_a.final_h_layer(data)
    raw = reg.probabilities_on(data[:n_circ])
    measured = []
    for s in range(n_circ):
        b, _ = reg.measure_z(data[s], rng=server_a.rng)
        measured.append(b)
    msg = StepMessage(
        f"step-{4 * m + 2}", SERVER_A, (user_name(m + 1),),
        (ClassicalPart("output-bits", 1, tuple(measured)),),
    )
    send(msg, final)

    # step 4m+3: the final user adds the last teleport's X outcomes back
    last_x = final_outcomes[2 * m][0]
    shift = tuple(last_x[s] % 2 for s in range(n_circ))
    output_bits = tuple((measured[s] + shift[s]) % 2 for s in range(n_circ))
    steps.append(f"step-{4 * m + 3}")
    shift_idx = 0
    for b in shift:
        shift_idx = (shift_idx << 1) | b
    dist = np.empty_like(raw)
    for i in range(raw.size):
        dist[i ^ shift_idx] = raw[i]

    branch_probability = 1.0
    for rec in branch_records:
        branch_probability *= rec.probs[(rec.outcome[0] << 1) | rec.outcome[1]]

    if source.forced:
        try:
            source.next_force()
        except ValueError:
            pass
        else:
            raise ValueError("branch plan longer than the number of measurements")

    views = {user_name(j): users[j].view for j in users}
    views[user_name(m + 1)] = final
    views[SERVER_A] = server_a.view
    views[SERVER_B] = server_b.view
    all_out = {"chronological": tuple(rec.outcome for rec in branch_records)}
    return TgdmqcRunResult(
        n=n, m=m, n_circ=n_circ,
        output_bits=output_bits,
        output_distribution=dist,
        transcript=registry.transcript,
        ledger=registry.ledger,
        branch_records=branch_records,
        steps_executed=steps,
        views=views,
        outcomes=all_out,
        branch_probability=branch_probability,
    )


def exhaustive_output_distribution(w, user_rounds, n_circ=1, seed=0, **kw):
    """Exact output distribution summed over every Bell branch.

    Also returns the joint distribution of all Bell outcomes (what the users
    collectively receive), keyed by the chronological outcome tuple.
    """
    num = 2 * w.m * w.n
    acc = np.zeros(1 << n_circ, dtype=float)
    outcome_joint = {}
    total = 0.0
    for idx, plan in enumerate(all_branch_plans(num)):
        res = run_tgdmqc(
            w, user_rounds, n_circ, seed=(seed, idx), branch_plan=plan, **kw
        )
        p = res.branch_probability
        total += p
        acc += p * res.output_distribution
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
