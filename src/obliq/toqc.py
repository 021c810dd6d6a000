"""Two-server oblivious program application over n qubits, and the
teleport-chained schedule that both protocols run.

`ProtocolRun` is the one 4m+3-step schedule: the data qubits hop between
two servers that never talk to each other, one hop per half-round of the
program. Every gate layer is applied twice, once per server, with query
exponents randomized so that the pair telescopes to the program layer while
each server's queries stay uniform; the user side re-derives each second
query from the first and the teleport outcomes. A configuration fixes five
things: who holds the input masks, the offset coefficients of the
re-derived queries, which user each hop's outcomes go to, the step-1 input
and the output mode. `run_toqc` is the configuration here: one user who
holds the masks and every round, with coefficients 1, sends a masked input
(quantum, or classical bits) and gets back a quantum or measured output.
`tgdmqc` is the other.

Two teleport executors carry out the hops. The default `PauliFrame` keeps
only the n data qubits live and turns each hop into a Pauli update on them;
`eager_bell=True` selects the physical reference `BellStore`, which shares
all 2mn Bell pairs before the run as in the paper (4mn + n live qubits).
Both draw each unforced outcome with one `rng.random()` call, so a seed
gives the same transcript under either.

Query families, by the gate they drive: `t` (mod 8) and `cz` (mod 2) go
fresh to server A and re-derived to server B; `h` (mod 4) goes fresh to
server B and re-derived to server A. Index arithmetic on the mask index u is
mod 2 throughout.
"""

import copy
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .gates import ProgramRound, qubit_pairs
from .harness import (
    BranchRecord,
    BranchSource,
    ChannelRegistry,
    ClassicalPart,
    PartyView,
    QueryEquationAudit,
    StepMessage,
    all_branch_plans,
    expected_toqc_steps,
)
from .layers import (
    apply_masked_cz_layer,
    apply_masked_h_layer,
    apply_masked_t_layer,
    apply_xz,
    apply_zx,
)
from .qsim import StateRegister, _sample_index

USER = "user"
SERVER_A = "server-a"
SERVER_B = "server-b"

UV_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


@dataclass
class RngStreams:
    user: object
    server_a: object
    server_b: object


def make_streams(seed):
    ss = np.random.SeedSequence(seed)
    children = ss.spawn(3)
    return RngStreams(*(np.random.default_rng(c) for c in children))


# -- query derivations --------------------------------------------------------

def derive_ring_queries(ring, fresh, shift, delta, coeff=None):
    """Re-randomized single-wire queries in Z_ring:
    out[u][s] = -fresh[u - shift[s]][s] (+ coeff[s], default 1, when u hits
    delta[s]). The phase queries live mod 8, the rotation queries mod 4."""
    out = {}
    for u in (0, 1):
        row = []
        for s in range(len(shift)):
            src = fresh[(u - shift[s]) % 2][s]
            hit = coeff[s] if coeff is not None else 1
            row.append((-src + (hit if u == delta[s] % 2 else 0)) % ring)
        out[u] = tuple(row)
    return out


derive_t_queries = partial(derive_ring_queries, 8)
derive_h_queries = partial(derive_ring_queries, 4)


def derive_cz_queries(fresh, n, shift, delta, coeff=None):
    """Same re-randomization for the pair gates, one mask index per wire."""
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


def ring_family_parts(width, prefix, family):
    return tuple(
        ClassicalPart(f"{prefix}[u={u}]", width, family[u]) for u in (0, 1)
    )


t_family_parts = partial(ring_family_parts, 3)
h_family_parts = partial(ring_family_parts, 2)


def cz_family_parts(prefix, family):
    return tuple(
        ClassicalPart(f"{prefix}[u={u},v={v}]", 1, family[(u, v)])
        for u, v in UV_PAIRS
    )


def draw_ring_family(ring, rng, n):
    return {u: tuple(int(v) for v in rng.integers(0, ring, size=n)) for u in (0, 1)}


draw_t_family = partial(draw_ring_family, 8)
draw_h_family = partial(draw_ring_family, 4)


def draw_cz_family(rng, n):
    npairs = n * (n - 1) // 2
    return {
        uv: tuple(int(v) for v in rng.integers(0, 2, size=npairs))
        for uv in UV_PAIRS
    }


# -- shared quantum-side machinery ---------------------------------------------

BELL_UNIFORM = (0.25, 0.25, 0.25, 0.25)


class BellStore:
    """Physical reference executor: the 2m x n Bell pairs the servers share
    before the run, all allocated up front as in the paper.

    Hop k Bell-measures each data qubit with the measuring server's half of
    pair (k, s); the partner half becomes the data qubit. The measuring
    server pre-corrects its half of pair k+1 by the outcome's Z^b X^a, so
    the correction meets the data after the partner's teleport.
    """

    def __init__(self, reg, m, n, source, records):
        self.reg = reg
        self.m = m
        self.source = source
        self.records = records
        self._pairs = {
            (k, s): reg.alloc_bell_pair()
            for k in range(1, 2 * m + 1) for s in range(n)
        }

    def half(self, k, s, side):
        return self._pairs[(k, s)][0 if side == "a" else 1]

    def snapshot(self):
        """None: the pairs are fixed, so the register holds all hop state."""
        return None

    def restore(self, snap):
        pass

    def hop(self, k, side, data, rng, step):
        """Teleport the data through pair k; returns (outcomes, new data)."""
        outcomes = []
        for s, q in enumerate(data):
            a, b, probs = self.reg.bell_measure(
                q, self.half(k, s, side), rng=rng, force=self.source.next_force()
            )
            self.records.append(BranchRecord(step, s + 1, probs, (a, b)))
            outcomes.append((a, b))
        if k < 2 * self.m:
            for s, (a, b) in enumerate(outcomes):
                apply_zx(self.reg, self.half(k + 1, s, side), a, b)
        other = "b" if side == "a" else "a"
        return outcomes, [self.half(k, s, other) for s in range(len(data))]


class PauliFrame:
    """Default executor: each hop is a Pauli update on the data qubits.

    A Bell measurement of a data qubit with a fresh pair's half gives every
    (a, b) with probability exactly 1/4 and leaves the partner half holding
    Z^b X^a times the data state (`StateRegister.bell_measure`). The
    physical pre-correction of pair k+1 reaches the data right after hop
    k+1. So the data qubits never move: hop k applies its own Z^b X^a, then
    the Pauli queued by hop k-1, and queues (a, b) for hop k+1. The register
    holds exactly the n data qubits.
    """

    def __init__(self, reg, m, n, source, records):
        self.reg = reg
        self.m = m
        self.source = source
        self.records = records
        self._queued = [(0, 0)] * n

    def snapshot(self):
        """The queued Paulis, for `restore` to return to."""
        return tuple(self._queued)

    def restore(self, snap):
        self._queued = list(snap)

    def hop(self, k, side, data, rng, step):
        """Apply hop k's frame update; returns (outcomes, the same data)."""
        outcomes = []
        for s, q in enumerate(data):
            force = self.source.next_force()
            if force is None:
                idx = _sample_index(BELL_UNIFORM, rng)
                a, b = idx >> 1, idx & 1
            else:
                a, b = force
            qa, qb = self._queued[s]
            # Z^qb X^qa Z^b X^a = (-1)^(qa b) Z^(qb+b) X^(qa+a): one Pauli,
            # up to a global sign no output can see
            apply_zx(self.reg, q, a ^ qa, b ^ qb)
            self._queued[s] = (a, b) if k < 2 * self.m else (0, 0)
            self.records.append(
                BranchRecord(step, s + 1, BELL_UNIFORM, (a, b), measured=False)
            )
            outcomes.append((a, b))
        return outcomes, data


class ProtocolServer:
    """One server: holds the program, applies queried layers, teleports on.

    The side ("a" or "b") fixes which Bell halves it owns and which pair
    index it measures during round j (2j-1 for A, 2j for B). `teleport` is
    the run's executor, shared by both servers.
    """

    def __init__(self, name, side, program, reg, teleport, rng):
        self.name = name
        self.side = side
        self.program = program
        self.reg = reg
        self.teleport = teleport
        self.rng = rng
        self.t_queries = {}
        self.cz_queries = {}
        self.h_queries = {}
        self.view = PartyView(name)

    def store_queries(self, j, t=None, cz=None, h=None, h_round=None):
        if t is not None:
            self.t_queries[j] = t
        if cz is not None:
            self.cz_queries[j] = cz
        if h is not None:
            self.h_queries[h_round] = h

    def _require(self, table, j, what):
        try:
            return table[j]
        except KeyError:
            raise RuntimeError(f"{self.name}: missing {what} query for round {j}") from None

    # unused by the schedule, which calls the two halves; kept because the
    # benchmark tracer wraps it (ROADMAP item 6)
    def unitary_round(self, j, data, step):
        """Apply the queried layers for round j, then teleport the data on.

        Returns (outcome x bits, outcome z bits, new data handles).
        """
        self.apply_layers(j, data)
        return self.teleport_on(j, data, step)

    def apply_layers(self, j, data):
        """The queried layers of round j, on the data qubits."""
        w = self.program
        if self.side == "a" and j >= 2:
            self.h_layer(j - 1, data)
        tq = self._require(self.t_queries, j, "t")
        czq = self._require(self.cz_queries, j, "cz")
        apply_masked_t_layer(self.reg, data, tq, w.rounds[j - 1].y)
        apply_masked_cz_layer(self.reg, data, czq, w.rounds[j - 1].z)
        if self.side == "b":
            self.h_layer(j, data)

    def teleport_on(self, j, data, step):
        """Round j's hop; returns (x bits, z bits, new data handles)."""
        k = 2 * j - 1 if self.side == "a" else 2 * j
        outcomes, new_data = self.teleport.hop(k, self.side, data, self.rng, step)
        return tuple(a for a, _ in outcomes), tuple(b for _, b in outcomes), new_data

    def h_layer(self, j, data):
        """The queried rotation layer of round j, on the data qubits."""
        hq = self._require(self.h_queries, j, "h")
        apply_masked_h_layer(self.reg, data, hq, self.program.rounds[j - 1].x)


# -- the users' classical side -------------------------------------------------

class ProtocolUser:
    """One user party: the rounds it holds and the outcomes routed to it.

    `rounds` maps a round j to its offset coefficients (a `ProgramRound`):
    round j of w' for tgdmqc user j. A round it does not list has all
    coefficients 1, as every round of the single toqc user has unless a
    run probes other offsets. A `masked` user also holds
    the input masks, drawn first from its stream; other users' masks are 0.
    The party draws the fresh query families of its rounds and re-derives the
    queries that continue the other server's layers. It keeps only the
    latest family of each kind: the schedule uses a round's family before
    it draws the next round's.
    """

    def __init__(self, name, n, rng, rounds, masked=False):
        self.name, self.n, self.rng, self.rounds = name, n, rng, rounds
        zero = (0,) * n
        self.mask_x = self.mask_z = zero
        if masked:
            self.mask_x = tuple(int(v) for v in rng.integers(0, 2, size=n))
            self.mask_z = tuple(int(v) for v in rng.integers(0, 2, size=n))
        self.t_fresh = self.cz_fresh = self.h_fresh = None
        self.out_x = {0: zero}
        self.out_z = {0: zero}
        self.view = PartyView(name)

    def fresh_tcz(self):
        self.t_fresh = draw_t_family(self.rng, self.n)
        self.cz_fresh = draw_cz_family(self.rng, self.n)
        return self.t_fresh, self.cz_fresh

    def fresh_h(self):
        self.h_fresh = draw_h_family(self.rng, self.n)
        return self.h_fresh

    def derived_tcz(self, j):
        """Queries for server B's round j: shift by the last two X outcomes,
        offset by the y and z coefficients where u matches mask + latest X
        outcome."""
        ax_prev, ax = self.out_x[2 * j - 2], self.out_x[2 * j - 1]
        shift = tuple((ax[s] + ax_prev[s]) % 2 for s in range(self.n))
        delta = tuple((self.mask_x[s] + ax[s]) % 2 for s in range(self.n))
        coeff = self.rounds.get(j)
        return (derive_t_queries(self.t_fresh, shift, delta, coeff=coeff and coeff.y),
                derive_cz_queries(self.cz_fresh, self.n, shift, delta,
                                  coeff=coeff and coeff.z))

    def derived_h(self, j):
        """Queries for server A's round-j rotation layer: sums of the last two
        teleports' outcome bits drive the shift, the masks and the latest
        outcome bits the offset, scaled by the x coefficients."""
        ox2, oz2 = self.out_x[2 * j], self.out_z[2 * j]
        ox1, oz1 = self.out_x[2 * j - 1], self.out_z[2 * j - 1]
        shift = tuple((ox2[s] + oz2[s] + ox1[s] + oz1[s]) % 2 for s in range(self.n))
        delta = tuple(
            (self.mask_x[s] + self.mask_z[s] + ox2[s] + oz2[s]) % 2
            for s in range(self.n)
        )
        coeff = self.rounds.get(j)
        return derive_h_queries(self.h_fresh, shift, delta, coeff=coeff and coeff.x)


# -- the shared schedule -------------------------------------------------------

class ProtocolRun:
    """One run of the 4m+3-step schedule, resumable at its 2m teleport hops.

    `users[j-1]` is the party that holds round j (j <= m): it draws that
    round's fresh queries, receives hop 2j-1's outcomes and re-derives the
    queries after it. Hop 2j goes to `users[j-1]` and `users[j]`, so
    `users[m]`, the reader, gets the last outcomes and then the output; a
    message that two halves of a step would send from one party goes as one
    message. Step 1 carries the input that `_prepare_input` builds (by
    default server A allocates |0...0>). The readout is measured and
    XOR-shifted when `classical_output`, else the n_circ qubits go to the
    reader, who undoes their residual Paulis.

    `open()` runs everything before hop 1; `hop(k, outcomes)` runs hop k and
    everything up to hop k+1, or through the readout when k = 2m.
    `snapshot()` and `restore()` save and reset everything a run changes, so
    one state can be continued with each outcome of the next hop in turn.
    """

    def __init__(self, w, n_circ, users, server_rngs, *,
                 classical_output=True, eager_bell=False, branch_plan=None,
                 max_qubits=None):
        n, m = w.n, w.m
        if not 1 <= n_circ <= n:
            raise ValueError(f"n_circ must be in [1, {n}]")
        self.n, self.m, self.n_circ = n, m, n_circ
        self.users = tuple(users)
        self.classical_output = classical_output
        self.parties = tuple(dict.fromkeys(self.users))

        self.registry = ChannelRegistry()
        for p in self.parties:
            self.registry.register(p.name, SERVER_A)
            self.registry.register(p.name, SERVER_B)
        self.reg = StateRegister(max_qubits=max_qubits)
        self.branch_records = []
        self.source = BranchSource(branch_plan)
        # the physical reference when `eager_bell`, else the Pauli frame
        self.teleport = (BellStore if eager_bell else PauliFrame)(
            self.reg, m, n, self.source, self.branch_records
        )
        rng_a, rng_b = server_rngs
        self.server_a = ProtocolServer(SERVER_A, "a", w, self.reg, self.teleport, rng_a)
        self.server_b = ProtocolServer(SERVER_B, "b", w, self.reg, self.teleport, rng_b)
        self.servers = (self.server_a, self.server_b)
        self.rngs = [p.rng for p in self.parties] + [rng_a, rng_b]
        self.steps = []
        self.data = None

    # -- the schedule ------------------------------------------------------

    def _prepare_input(self):
        """The data qubits, and the parts and qubits that step 1 adds for
        the input: none when server A allocates |0...0> itself."""
        return self.reg.alloc_zero_qubits(self.n), (), 0

    def open(self):
        """Step 1, then server A's round-1 layers up to its first hop."""
        user = self.users[0]
        t, cz = user.fresh_tcz()
        self.server_a.store_queries(1, t=t, cz=cz)
        self.data, parts, qubits = self._prepare_input()
        parts += t_family_parts("t-query", t) + cz_family_parts("cz-query", cz)
        self._send(StepMessage("step-1", user.name, (SERVER_A,), parts, qubits=qubits),
                   self.server_a)
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
            self._outcome_msg(step, SERVER_A, k, xs, zs, self.users[j - 1])
            self._query_to_b(j, f"step-{4 * j - 1}")
            self.server_b.apply_layers(j, self.data)
            return
        step = f"step-{4 * j}"
        xs, zs, self.data = self.server_b.teleport_on(j, self.data, step)
        self._outcome_msg(step, SERVER_B, k, xs, zs, self.users[j - 1], self.users[j])
        if j < self.m:
            self._queries_to_a(j + 1)
            self.server_a.apply_layers(j + 1, self.data)
        else:
            self._read_out()

    def run_through(self):
        """Open, then every hop with the plan's or sampled outcomes."""
        self.open()
        for k in range(1, 2 * self.m + 1):
            self.hop(k)
        self.source.check_exhausted()
        return self.result()

    def _send(self, msg, *receivers):
        self.registry.send(msg)
        self.steps.append(msg.step)
        for r in receivers:
            r.view.absorb(msg)

    def _outcome_msg(self, step, sender, k, xs, zs, *parties):
        parties = tuple(dict.fromkeys(parties))
        for p in parties:
            p.out_x[k], p.out_z[k] = xs, zs
        msg = StepMessage(
            step, sender, tuple(p.name for p in parties),
            (ClassicalPart("bell-x", 1, xs), ClassicalPart("bell-z", 1, zs)),
        )
        self._send(msg, *parties)

    def _query_to_b(self, j, step):
        user = self.users[j - 1]
        t, cz = user.derived_tcz(j)
        h = user.fresh_h()
        self.server_b.store_queries(j, t=t, cz=cz, h=h, h_round=j)
        parts = (
            t_family_parts("t-query-rederived", t)
            + cz_family_parts("cz-query-rederived", cz)
            + h_family_parts("h-query", h)
        )
        self._send(StepMessage(step, user.name, (SERVER_B,), parts), self.server_b)

    def _queries_to_a(self, j):
        """Step 4j-3: the rederived rotation queries of round j-1, then the
        fresh phase queries of round j, both to server A."""
        step = f"step-{4 * j - 3}"
        prev, user = self.users[j - 2], self.users[j - 1]
        h = prev.derived_h(j - 1)
        t, cz = user.fresh_tcz()
        self.server_a.store_queries(j, t=t, cz=cz, h=h, h_round=j - 1)
        halves = [(prev, h_family_parts("h-query-rederived", h)),
                  (user, t_family_parts("t-query", t) + cz_family_parts("cz-query", cz))]
        if prev is user:
            halves = [(user, halves[0][1] + halves[1][1])]
        for sender, parts in halves:
            self._send(StepMessage(step, sender.name, (SERVER_A,), parts), self.server_a)

    def _read_out(self):
        """Steps 4m+1 to 4m+3: the last rotation queries and layer, then the
        output to the reader, corrected by its masks and the last outcomes."""
        m, n_circ, reg, data = self.m, self.n_circ, self.reg, self.data
        user, reader = self.users[m - 1], self.users[m]
        h = user.derived_h(m)
        self.server_a.store_queries(m + 1, h=h, h_round=m)
        self._send(
            StepMessage(f"step-{4 * m + 1}", user.name, (SERVER_A,),
                        h_family_parts("h-query-rederived", h)),
            self.server_a,
        )

        self.server_a.h_layer(m, data)
        step = f"step-{4 * m + 2}"
        ox, oz = reader.out_x[2 * m], reader.out_z[2 * m]
        if self.classical_output:
            raw = reg.probabilities_on(data[:n_circ])
            measured = tuple(
                reg.measure_z(data[s], rng=self.server_a.rng)[0] for s in range(n_circ)
            )
            self._send(StepMessage(step, SERVER_A, (reader.name,),
                                   (ClassicalPart("output-bits", 1, measured),)),
                       reader)
            # step 4m+3: add back the X outcome and input mask bits
            shift = tuple((ox[s] + reader.mask_x[s]) % 2 for s in range(n_circ))
            self.output_bits = tuple(b ^ x for b, x in zip(measured, shift))
            shift_idx = 0
            for x in shift:
                shift_idx = (shift_idx << 1) | x
            self.output_distribution = raw[np.arange(raw.size) ^ shift_idx]
            self.output_density = None
        else:
            self._send(StepMessage(step, SERVER_A, (reader.name,), qubits=n_circ), reader)
            # step 4m+3: undo the residual masks on the received qubits
            for s in range(n_circ):
                apply_xz(reg, data[s], (reader.mask_x[s] + ox[s]) % 2,
                         (reader.mask_z[s] + oz[s]) % 2)
            self.output_density = reg.density_on(data[:n_circ])
            self.output_bits = self.output_distribution = None
        self.steps.append(f"step-{4 * m + 3}")
        p = 1.0
        for rec in self.branch_records:
            p *= rec.probs[(rec.outcome[0] << 1) | rec.outcome[1]]
        self.branch_probability = p

    # -- resuming ----------------------------------------------------------

    def snapshot(self):
        """Everything a later hop changes: the lists by their lengths, the
        small dicts by copy, the query families (never changed once drawn)
        by reference, and the register, executor and rng states."""
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
            [(len(p.view.received), p.view.received_qubits)
             for p in self.parties + self.servers],
            [(p.out_x.copy(), p.out_z.copy(), p.t_fresh, p.cz_fresh, p.h_fresh)
             for p in self.parties],
            [(s.t_queries.copy(), s.cz_queries.copy(), s.h_queries.copy())
             for s in self.servers],
        )

    def restore(self, snap):
        (reg, frame, rng_states, self.data, n_records, n_steps, n_messages,
         totals, views, parties, servers) = snap
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
        for p, (n_received, qubits) in zip(self.parties + self.servers, views):
            del p.view.received[n_received:]
            p.view.received_qubits = qubits
        for p, (out_x, out_z, t, cz, h) in zip(self.parties, parties):
            p.out_x, p.out_z = out_x.copy(), out_z.copy()
            p.t_fresh, p.cz_fresh, p.h_fresh = t, cz, h
        for s, (t, cz, h) in zip(self.servers, servers):
            s.t_queries, s.cz_queries, s.h_queries = t.copy(), cz.copy(), h.copy()

    def leaves(self):
        """Yield (plan, self) for every Bell branch plan, in
        `all_branch_plans` order, walking the outcome tree depth-first.

        Each hop's n outcomes and the steps after them run once per tree
        node. The run is the same object each time, valid until the next
        leaf; it is left at the last leaf.
        """
        self.open()
        combos = tuple(all_branch_plans(self.n))
        last = 2 * self.m

        def walk(k, prefix):
            snap = self.snapshot()
            for i, combo in enumerate(combos):
                if i:
                    self.restore(snap)
                self.hop(k, combo)
                if k == last:
                    yield prefix + combo, self
                else:
                    yield from walk(k + 1, prefix + combo)

        yield from walk(1, ())

    def result_fields(self):
        """The fields both protocols' results share."""
        return dict(
            n=self.n, m=self.m, n_circ=self.n_circ,
            output_bits=self.output_bits,
            output_distribution=self.output_distribution,
            transcript=self.registry.transcript,
            ledger=self.registry.ledger,
            branch_records=self.branch_records,
            steps_executed=self.steps,
            views={p.name: p.view for p in self.parties + self.servers},
            branch_probability=self.branch_probability,
        )


# -- the two-server configuration ----------------------------------------------

@dataclass
class ToqcRunResult:
    n: int
    m: int
    n_circ: int
    classical_output: bool
    output_density: np.ndarray = None
    output_bits: tuple = None
    output_distribution: np.ndarray = None
    transcript: object = None
    ledger: object = None
    branch_records: list = field(default_factory=list)
    steps_executed: list = field(default_factory=list)
    views: dict = field(default_factory=dict)
    outcomes: dict = field(default_factory=dict)
    branch_probability: float = 1.0


def expected_step_labels(m, include_local=False):
    """The step labels on the wire in order, plus the user's local last step
    when `include_local`."""
    labels = list(expected_toqc_steps(1, m, 1))
    return labels + [f"step-{4 * m + 3}"] if include_local else labels


class _ToqcRun(ProtocolRun):
    """The schedule with one masked user who holds every round, with all
    offset coefficients 1, and who sends the input and reads the output."""

    def __init__(self, w, psi, basis_bits, n_circ, *, seed=None, streams=None,
                 classical_output=False, tcz_delta_coeff=None, **kw):
        n, m = w.n, w.m
        if (psi is None) == (basis_bits is None):
            raise ValueError("give exactly one of psi or basis_bits")
        if classical_output and basis_bits is None:
            raise ValueError("classical output mode needs a computational basis input")
        if basis_bits is not None:
            basis_bits = tuple(int(b) % 2 for b in basis_bits)
            if len(basis_bits) != n:
                raise ValueError(f"expected {n} input bits")
        else:
            psi = np.asarray(psi, dtype=np.complex128).reshape(-1)
            if psi.size != 1 << n:
                raise ValueError(
                    f"psi has {psi.size} amplitudes, expected 2^{n} = {1 << n}"
                )
        self.psi, self.basis_bits = psi, basis_bits

        # all ones except for runs probing what a changed re-randomization
        # offset does to a round's phase layers
        npairs = n * (n - 1) // 2
        rounds = {
            j: ProgramRound((1,) * n, (c % 8,) * n, (c % 2,) * npairs)
            for j, c in (tcz_delta_coeff or {}).items() if 1 <= j <= m
        }
        streams = streams or make_streams(seed)
        user = ProtocolUser(USER, n, streams.user, rounds, masked=True)
        super().__init__(w, n_circ, [user] * (m + 1), (streams.server_a, streams.server_b),
                         classical_output=classical_output, **kw)

    def _prepare_input(self):
        reg, n, user = self.reg, self.n, self.users[0]
        if self.psi is not None:
            data = reg.alloc_state(self.psi)
        else:
            # |bits> from |0...0>, so the capacity check precedes any 2^n
            # array; classical bits go as bits, and server A prepares them
            # with their X masks
            bits = self.basis_bits
            if self.classical_output:
                bits = tuple((b + a) % 2 for b, a in zip(bits, user.mask_x))
            data = reg.alloc_zero_qubits(n)
            for s in range(n):
                apply_zx(reg, data[s], bits[s], 0)
            if self.classical_output:
                return data, (ClassicalPart("masked-bits", 1, bits),), 0
        for s in range(n):
            apply_zx(reg, data[s], user.mask_x[s], user.mask_z[s])
        return data, (), n

    def result(self):
        user = self.users[0]
        return ToqcRunResult(
            classical_output=self.classical_output,
            output_density=self.output_density,
            outcomes={"x": dict(user.out_x), "z": dict(user.out_z)},
            **self.result_fields(),
        )


def run_toqc(
    w,
    psi=None,
    basis_bits=None,
    n_circ=1,
    *,
    seed=None,
    streams=None,
    classical_output=False,
    eager_bell=False,
    branch_plan=None,
    max_qubits=None,
    tcz_delta_coeff=None,
):
    """One full protocol run.

    Exactly one of `psi` (2^n amplitudes) or `basis_bits` must be given;
    classical output mode requires `basis_bits` and then carries no qubits on
    the wire at all. `branch_plan` forces the Bell outcomes in chronological
    order (2mn of them). The run holds n live qubits; `eager_bell=True`
    selects the physical reference executor, which holds 4mn + n.
    Returns a ToqcRunResult.
    """
    return _ToqcRun(
        w, psi, basis_bits, n_circ, seed=seed, streams=streams,
        classical_output=classical_output, tcz_delta_coeff=tcz_delta_coeff,
        eager_bell=eager_bell, branch_plan=branch_plan, max_qubits=max_qubits,
    ).run_through()


def enumerate_branches(w, psi=None, basis_bits=None, n_circ=1, seed=0, **kw):
    """Yield (plan, result) over every Bell branch assignment of a run.

    Walks the outcome tree depth-first, so a shared prefix of outcomes runs
    once. Every plan shares `seed`, so each result equals
    `run_toqc(..., seed=seed, branch_plan=plan)` exactly; `**kw` takes
    `run_toqc`'s other keywords except `branch_plan`.
    """
    run = _ToqcRun(w, psi, basis_bits, n_circ, seed=seed, **kw)
    for plan, leaf in run.leaves():
        # the run goes on to the next branch: hand out a copy
        yield plan, copy.deepcopy(leaf.result())


# -- audit wiring ---------------------------------------------------------------
# Each setting is a (shift, delta, coeff) context, coeff None for all ones;
# the derive closures enumerate the one uniform source coordinate that feeds
# output coordinate 0.

def _ring_audit(name, ring, setting_a, setting_b, coord=0):
    def derive(q, setting):
        sh, dl, co = setting
        fresh = {u: [0] * len(sh) for u in (0, 1)}
        fresh[(coord - sh[0]) % 2][0] = q
        return derive_ring_queries(ring, fresh, sh, dl, coeff=co)[coord][0]

    return QueryEquationAudit(name, ring, derive, setting_a, setting_b)


def _cz_audit(name, setting_a, setting_b, coord=(0, 0)):
    def derive(q, setting):
        sh, dl, co = setting
        fresh = {uv: (0,) for uv in UV_PAIRS}
        fresh[((coord[0] - sh[0]) % 2, (coord[1] - sh[1]) % 2)] = (q,)
        return derive_cz_queries(fresh, 2, sh, dl, coeff=co)[coord][0]

    return QueryEquationAudit(name, 2, derive, setting_a, setting_b)


def equation_audits():
    """The re-randomization equations with two distinct mask/outcome settings.

    Every wire value a server receives is either drawn fresh-uniform or comes
    out of one of these; each must be a bijection of its uniform source, so
    the marginals match for any two input contexts.
    """
    return [
        _ring_audit("t-query round 1", 8, ((0,), (0,), None), ((1,), (1,), None)),
        _ring_audit("t-query round j", 8, ((1,), (0,), None), ((0,), (1,), None)),
        _ring_audit("h-query", 4, ((1,), (0,), None), ((0,), (1,), None)),
        _cz_audit("cz-query round 1", ((0, 0), (0, 0), None), ((1, 0), (0, 1), None)),
        _cz_audit("cz-query round j", ((0, 1), (1, 1), None), ((1, 1), (0, 0), None)),
        QueryEquationAudit("fresh t-query", 8, lambda q, s: q, "ctx-a", "ctx-b"),
        QueryEquationAudit("fresh h-query", 4, lambda q, s: q, "ctx-a", "ctx-b"),
        QueryEquationAudit("fresh cz-query", 2, lambda q, s: q, "ctx-a", "ctx-b"),
    ]
