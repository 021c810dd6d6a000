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
from dataclasses import dataclass
from functools import partial

import numpy as np

from .gates import ProgramRound, qubit_pairs
from .harness import (
    BranchRecord,
    ChannelRegistry,
    ClassicalPart,
    QueryEquationAudit,
    StepMessage,
    all_branch_plans,
    cut_branch_plan,
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

    def __init__(self, reg, m, n, records):
        self.reg = reg
        self.m = m
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

    def hop(self, k, side, data, rng, step, forced):
        """Teleport the data through pair k, forcing the outcomes when
        `forced` gives one per wire; returns the new data handles."""
        for s, q in enumerate(data):
            a, b, probs = self.reg.bell_measure(
                q, self.half(k, s, side), rng=rng,
                force=None if forced is None else forced[s],
            )
            self.records.append(BranchRecord(step, s + 1, probs, (a, b)))
        if k < 2 * self.m:
            for s, rec in enumerate(self.records[-len(data):]):
                apply_zx(self.reg, self.half(k + 1, s, side), *rec.outcome)
        other = "b" if side == "a" else "a"
        return [self.half(k, s, other) for s in range(len(data))]


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

    def __init__(self, reg, m, n, records):
        self.reg = reg
        self.m = m
        self.records = records
        self._queued = [(0, 0)] * n

    def snapshot(self):
        """The queued Paulis, for `restore` to return to."""
        return tuple(self._queued)

    def restore(self, snap):
        self._queued = list(snap)

    def hop(self, k, side, data, rng, step, forced):
        """Apply hop k's frame update, forcing the outcomes when `forced`
        gives one per wire; returns the same data handles."""
        for s, q in enumerate(data):
            if forced is None:
                idx = _sample_index(BELL_UNIFORM, rng)
                a, b = idx >> 1, idx & 1
            else:
                a, b = forced[s]
            qa, qb = self._queued[s]
            # Z^qb X^qa Z^b X^a = (-1)^(qa b) Z^(qb+b) X^(qa+a): one Pauli,
            # up to a global sign no output can see
            apply_zx(self.reg, q, a ^ qa, b ^ qb)
            self._queued[s] = (a, b) if k < 2 * self.m else (0, 0)
            self.records.append(
                BranchRecord(step, s + 1, BELL_UNIFORM, (a, b), measured=False)
            )
        return data


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

    # unused by the schedule, which calls the two halves; kept because the
    # benchmark tracer wraps it (ROADMAP item 6)
    def unitary_round(self, j, data, step, t, cz, h, forced=None):
        """Apply the queried layers for round j, then teleport the data on;
        returns the new data handles."""
        self.apply_layers(j, data, t, cz, h)
        k = 2 * j - 1 if self.side == "a" else 2 * j
        return self.teleport.hop(k, self.side, data, self.rng, step, forced)

    def apply_layers(self, j, data, t, cz, h):
        """The queried layers of round j, on the data qubits: on side A the
        rotation queries `h` are round j-1's (None at j = 1), on side B
        round j's."""
        w = self.program
        if self.side == "a" and j >= 2:
            self.h_layer(j - 1, data, h)
        apply_masked_t_layer(self.reg, data, t, w.rounds[j - 1].y)
        apply_masked_cz_layer(self.reg, data, cz, w.rounds[j - 1].z)
        if self.side == "b":
            self.h_layer(j, data, h)

    def h_layer(self, j, data, h):
        """The queried rotation layer of round j, on the data qubits."""
        apply_masked_h_layer(self.reg, data, h, self.program.rounds[j - 1].x)


# -- the users' classical side -------------------------------------------------

class ProtocolUser:
    """One user party: the rounds it holds and its latest fresh queries.

    `rounds` maps a round j to its offset coefficients (a `ProgramRound`):
    round j of w' for tgdmqc user j. A round it does not list has all
    coefficients 1, as every round of the single toqc user has unless a
    run probes other offsets. A `masked` user also holds
    the input masks, drawn first from its stream; other users' masks are 0.
    The party draws the fresh query families of its rounds and re-derives the
    queries that continue the other server's layers from the teleport
    outcomes routed to it. It keeps only the latest family of each kind: the
    schedule uses a round's family before it draws the next round's.
    """

    def __init__(self, name, n, rng, rounds, masked=False):
        self.name, self.n, self.rng, self.rounds = name, n, rng, rounds
        zero = (0,) * n
        self.mask_x = self.mask_z = zero
        if masked:
            self.mask_x = tuple(int(v) for v in rng.integers(0, 2, size=n))
            self.mask_z = tuple(int(v) for v in rng.integers(0, 2, size=n))
        self.t_fresh = self.cz_fresh = self.h_fresh = None

    def fresh_tcz(self):
        self.t_fresh = draw_t_family(self.rng, self.n)
        self.cz_fresh = draw_cz_family(self.rng, self.n)
        return self.t_fresh, self.cz_fresh

    def fresh_h(self):
        self.h_fresh = draw_h_family(self.rng, self.n)
        return self.h_fresh

    def derived_tcz(self, j, ax_prev, ax):
        """Queries for server B's round j: shift by the X outcome bits of
        hops 2j-2 and 2j-1, offset by the y and z coefficients where u
        matches mask + the latest X outcome."""
        shift = tuple((ax[s] + ax_prev[s]) % 2 for s in range(self.n))
        delta = tuple((self.mask_x[s] + ax[s]) % 2 for s in range(self.n))
        coeff = self.rounds.get(j)
        return (derive_t_queries(self.t_fresh, shift, delta, coeff=coeff and coeff.y),
                derive_cz_queries(self.cz_fresh, self.n, shift, delta,
                                  coeff=coeff and coeff.z))

    def derived_h(self, j, first, second):
        """Queries for server A's round-j rotation layer from the (x bits,
        z bits) of hops 2j-1 and 2j: their sums drive the shift, the masks
        and hop 2j's bits the offset, scaled by the x coefficients."""
        (ox1, oz1), (ox2, oz2) = first, second
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

    The transcript and `branch_records` are the run's whole classical
    record: each party acts on the message it was just sent or on the
    outcomes routed to it, which `outcomes(k)` reads off the records.

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
        self.plan = ((None,) * (2 * m) if branch_plan is None
                     else cut_branch_plan(branch_plan, 2 * m, n))
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
        # the physical reference when `eager_bell`, else the Pauli frame
        self.teleport = (BellStore if eager_bell else PauliFrame)(
            self.reg, m, n, self.branch_records
        )
        rng_a, rng_b = server_rngs
        self.server_a = ProtocolServer(SERVER_A, "a", w, self.reg, self.teleport, rng_a)
        self.server_b = ProtocolServer(SERVER_B, "b", w, self.reg, self.teleport, rng_b)
        self.rngs = [p.rng for p in self.parties] + [rng_a, rng_b]
        self.data = None

    def outcomes(self, k):
        """Hop k's (x bits, z bits), read off its n branch records; zeros
        for k = 0, before the first hop."""
        if k == 0:
            zero = (0,) * self.n
            return zero, zero
        recs = self.branch_records[(k - 1) * self.n:k * self.n]
        return tuple(r.outcome[0] for r in recs), tuple(r.outcome[1] for r in recs)

    # -- the schedule ------------------------------------------------------

    def _prepare_input(self):
        """The data qubits, and the parts and qubits that step 1 adds for
        the input: none when server A allocates |0...0> itself."""
        return self.reg.alloc_zero_qubits(self.n), (), 0

    def open(self):
        """Step 1, then server A's round-1 layers up to its first hop."""
        user = self.users[0]
        t, cz = user.fresh_tcz()
        self.data, parts, qubits = self._prepare_input()
        parts += t_family_parts("t-query", t) + cz_family_parts("cz-query", cz)
        self.registry.send(
            StepMessage("step-1", user.name, (SERVER_A,), parts, qubits=qubits))
        self.server_a.apply_layers(1, self.data, t, cz, None)

    def hop(self, k, outcomes=None):
        """Hop k and the steps up to the next hop (through the readout at
        k = 2m). `outcomes` forces this hop's n Bell outcomes; None samples
        them."""
        j = (k + 1) // 2
        # server A ends round j at step 4j-2, server B at step 4j; hop 2j-1
        # goes to user j, hop 2j to users j and j+1
        step = f"step-{2 * k}"
        server, receivers = ((self.server_a, self.users[j - 1:j]) if k % 2
                             else (self.server_b, self.users[j - 1:j + 1]))
        self.data = self.teleport.hop(k, server.side, self.data, server.rng,
                                      step, outcomes)
        xs, zs = self.outcomes(k)
        self.registry.send(StepMessage(
            step, server.name, tuple(dict.fromkeys(p.name for p in receivers)),
            (ClassicalPart("bell-x", 1, xs), ClassicalPart("bell-z", 1, zs)),
        ))
        if k % 2:
            self._round_b(j)
        elif j < self.m:
            self._round_a(j + 1)
        else:
            self._read_out()

    def run_through(self):
        """Open, then every hop with the plan's or sampled outcomes."""
        self.open()
        for k, outcomes in enumerate(self.plan, 1):
            self.hop(k, outcomes)
        return self.result()

    def _round_b(self, j):
        """Step 4j-1, then server B's half of round j on the queries sent."""
        user = self.users[j - 1]
        t, cz = user.derived_tcz(j, self.outcomes(2 * j - 2)[0],
                                 self.outcomes(2 * j - 1)[0])
        h = user.fresh_h()
        parts = (
            t_family_parts("t-query-rederived", t)
            + cz_family_parts("cz-query-rederived", cz)
            + h_family_parts("h-query", h)
        )
        self.registry.send(StepMessage(f"step-{4 * j - 1}", user.name, (SERVER_B,), parts))
        self.server_b.apply_layers(j, self.data, t, cz, h)

    def _round_a(self, j):
        """Step 4j-3: the rederived rotation queries of round j-1, then the
        fresh phase queries of round j, both to server A, which then runs
        its half of round j on them."""
        step = f"step-{4 * j - 3}"
        prev, user = self.users[j - 2], self.users[j - 1]
        h = prev.derived_h(j - 1, self.outcomes(2 * j - 3), self.outcomes(2 * j - 2))
        t, cz = user.fresh_tcz()
        halves = [(prev, h_family_parts("h-query-rederived", h)),
                  (user, t_family_parts("t-query", t) + cz_family_parts("cz-query", cz))]
        if prev is user:
            halves = [(user, halves[0][1] + halves[1][1])]
        for sender, parts in halves:
            self.registry.send(StepMessage(step, sender.name, (SERVER_A,), parts))
        self.server_a.apply_layers(j, self.data, t, cz, h)

    def _read_out(self):
        """Steps 4m+1 to 4m+3: the last rotation queries and layer, then the
        output to the reader, corrected by its masks and the last outcomes."""
        m, n_circ, reg, data = self.m, self.n_circ, self.reg, self.data
        user, reader = self.users[m - 1], self.users[m]
        h = user.derived_h(m, self.outcomes(2 * m - 1), self.outcomes(2 * m))
        self.registry.send(StepMessage(f"step-{4 * m + 1}", user.name, (SERVER_A,),
                                       h_family_parts("h-query-rederived", h)))

        self.server_a.h_layer(m, data, h)
        step = f"step-{4 * m + 2}"
        ox, oz = self.outcomes(2 * m)
        if self.classical_output:
            raw = reg.probabilities_on(data[:n_circ])
            measured = tuple(
                reg.measure_z(data[s], rng=self.server_a.rng)[0] for s in range(n_circ)
            )
            self.registry.send(StepMessage(step, SERVER_A, (reader.name,),
                                           (ClassicalPart("output-bits", 1, measured),)))
            # step 4m+3: add back the X outcome and input mask bits
            shift = tuple((ox[s] + reader.mask_x[s]) % 2 for s in range(n_circ))
            self.output_bits = tuple(b ^ x for b, x in zip(measured, shift))
            shift_idx = 0
            for x in shift:
                shift_idx = (shift_idx << 1) | x
            self.output_distribution = raw[np.arange(raw.size) ^ shift_idx]
            self.output_density = None
        else:
            self.registry.send(StepMessage(step, SERVER_A, (reader.name,), qubits=n_circ))
            # step 4m+3: undo the residual masks on the received qubits
            for s in range(n_circ):
                apply_xz(reg, data[s], (reader.mask_x[s] + ox[s]) % 2,
                         (reader.mask_z[s] + oz[s]) % 2)
            self.output_density = reg.density_on(data[:n_circ])
            self.output_bits = self.output_distribution = None
        p = 1.0
        for rec in self.branch_records:
            p *= rec.probs[(rec.outcome[0] << 1) | rec.outcome[1]]
        self.branch_probability = p

    # -- resuming ----------------------------------------------------------

    def snapshot(self):
        """Everything a later hop changes: the two logs by their lengths,
        the users' query families (never changed once drawn) by reference,
        and the register, executor, rng and ledger states."""
        return (
            self.reg.snapshot(),
            self.teleport.snapshot(),
            [rng.bit_generator.state for rng in self.rngs],
            self.data,
            len(self.branch_records),
            len(self.registry.transcript.records),
            self.registry.ledger.totals(),
            [(p.t_fresh, p.cz_fresh, p.h_fresh) for p in self.parties],
        )

    def restore(self, snap):
        reg, frame, rng_states, self.data, n_records, n_messages, totals, families = snap
        self.reg.restore(reg)
        self.teleport.restore(frame)
        for rng, state in zip(self.rngs, rng_states):
            rng.bit_generator.state = state
        del self.branch_records[n_records:]
        del self.registry.transcript.records[n_messages:]
        ledger = self.registry.ledger
        (ledger.upload_bits, ledger.upload_qubits,
         ledger.download_bits, ledger.download_qubits) = totals
        for p, (t, cz, h) in zip(self.parties, families):
            p.t_fresh, p.cz_fresh, p.h_fresh = t, cz, h

    def leaves(self):
        """Yield (plan, self) for every Bell branch plan, in
        `all_branch_plans` order, walking the outcome tree depth-first.

        Each hop's n outcomes and the steps after them run once per tree
        node. The run is the same object each time, valid until the next
        leaf; it is left at the last leaf. A run built with a branch plan
        is refused: the walk takes every plan.
        """
        if self.plan[0] is not None:
            raise ValueError("the branch walk takes every plan, not a branch_plan")
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

    def result(self):
        """The run's `RunResult`: the views and steps are replayed from the
        transcript, and the configuration supplies its `outcome_table()`."""
        transcript = self.registry.transcript
        return RunResult(
            n=self.n, m=self.m, n_circ=self.n_circ,
            classical_output=self.classical_output,
            output_density=self.output_density,
            output_bits=self.output_bits,
            output_distribution=self.output_distribution,
            transcript=transcript,
            ledger=self.registry.ledger,
            branch_records=self.branch_records,
            steps_executed=transcript.step_labels() + [f"step-{4 * self.m + 3}"],
            views=transcript.views([p.name for p in self.parties] + [SERVER_A, SERVER_B]),
            outcomes=self.outcome_table(),
            branch_probability=self.branch_probability,
        )


@dataclass
class RunResult:
    """A run of either protocol: `output_density` for a quantum output, else
    the bits and their exact distribution given the run's Bell branch."""

    n: int
    m: int
    n_circ: int
    classical_output: bool
    output_density: np.ndarray
    output_bits: tuple
    output_distribution: np.ndarray
    transcript: object
    ledger: object
    branch_records: list
    steps_executed: list
    views: dict
    outcomes: dict
    branch_probability: float


# -- the two-server configuration ----------------------------------------------

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
            basis_bits = tuple(basis_bits)
            for s, b in enumerate(basis_bits):
                if b not in (0, 1):
                    raise ValueError(f"basis_bits[{s}] is {b!r}, not a bit")
            basis_bits = tuple(int(b) for b in basis_bits)
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
        tcz_delta_coeff = tcz_delta_coeff or {}
        outside = [j for j in tcz_delta_coeff if not 1 <= j <= m]
        if outside:
            raise ValueError(f"tcz_delta_coeff rounds {outside} are outside 1..{m}")
        npairs = n * (n - 1) // 2
        rounds = {
            j: ProgramRound((1,) * n, (c % 8,) * n, (c % 2,) * npairs)
            for j, c in tcz_delta_coeff.items()
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

    def outcome_table(self):
        """The X and Z outcome bits of each hop k, zeros at k = 0."""
        hops = [self.outcomes(k) for k in range(2 * self.m + 1)]
        return {"x": {k: xs for k, (xs, _) in enumerate(hops)},
                "z": {k: zs for k, (_, zs) in enumerate(hops)}}


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
    Returns a RunResult.
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
    `run_toqc`'s other keywords, and `branch_plan` raises a ValueError.
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
