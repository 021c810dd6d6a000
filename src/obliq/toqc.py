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

The control plane (`ProtocolRun`, `ProtocolUser`, `ProtocolServer`) holds
only classical state; the data plane owns the register, the qubits and the
servers' program. The default `PauliFrame` keeps only the n data qubits
live and turns each hop into a Pauli update on them. Each hop and each Pauli
pass is one gather plus one sign pass over the register, and each CZ layer
one sign pass; the T and H layers stay per-qubit kernels, since fusing them
would change the rounding. `eager_bell=True` selects the physical reference
`BellStore`, which shares all 2mn Bell pairs before the run as in the paper
(4mn + n live qubits). Both draw each unforced outcome with one
`rng.random()` call, so a seed gives the same transcript under either.

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
# apply_masked_cz_layer, apply_xz and apply_zx are the per-gate references
# of the fused passes; they stay importable here because the benchmark
# tracer wraps them (ROADMAP item 2)
from .layers import (  # noqa: F401
    apply_cz_sign_layer,
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


def tcz_shift_delta(mask_x, ax_prev, ax):
    """Shift and delta of server B's round-j phase queries: shift by the X
    outcome bits of hops 2j-2 and 2j-1, offset where u matches mask + the
    latest X outcome."""
    return (tuple((a + p) % 2 for a, p in zip(ax, ax_prev)),
            tuple((mx + a) % 2 for mx, a in zip(mask_x, ax)))


def h_shift_delta(mask_x, mask_z, first, second):
    """Shift and delta of server A's round-j rotation queries from the (x
    bits, z bits) of hops 2j-1 and 2j: their sums drive the shift, the
    masks and hop 2j's bits the offset."""
    (ox1, oz1), (ox2, oz2) = first, second
    return (tuple((a + b + c + d) % 2 for a, b, c, d in zip(ox2, oz2, ox1, oz1)),
            tuple((a + b + c + d) % 2 for a, b, c, d in zip(mask_x, mask_z, ox2, oz2)))


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


# -- the data plane -------------------------------------------------------------

BELL_UNIFORM = (0.25, 0.25, 0.25, 0.25)


class PauliFrame:
    """Default data plane: the register, the n data qubits, the servers'
    program w and the Paulis queued by the hops.

    A Bell measurement of a data qubit with a fresh pair's half gives every
    (a, b) with probability exactly 1/4 and leaves the partner half holding
    Z^b X^a times the data state (`StateRegister.bell_measure`). The
    physical pre-correction of pair k+1 reaches the data right after hop
    k+1. So the data qubits never move: hop k applies its own Z^b X^a, then
    the Pauli queued by hop k-1, and queues (a, b) for hop k+1. The register
    holds exactly the n data qubits.

    Paulis and CZ layers do not round, so each is one exact whole-register
    pass: a hop or a Pauli pass is one gather amps[i ^ xmask] plus one sign
    pass (`StateRegister.apply_paulis`), and a CZ layer is one sign pass
    (`apply_cz_sign_layer`). The T and H layers stay per qubit.
    """

    # a hop draws from the known Bell law; it reads no amplitudes
    measured = False

    def __init__(self, w, max_qubits=None):
        self.reg = StateRegister(max_qubits=max_qubits)
        self.w = w
        self.data = None
        self._queued = [(0, 0)] * w.n

    def load(self, psi=None):
        """Allocate the n data qubits in |psi>, or in |0...0> when psi is None."""
        self.data = (self.reg.alloc_zero_qubits(self.w.n) if psi is None
                     else self.reg.alloc_state(psi))

    def paulis(self, xs, zs):
        """Z^z X^x on each data qubit."""
        self.reg.apply_paulis(self.data, xs, zs)

    def phase_layers(self, j, t, cz):
        """Round j's masked T layer on the queries `t`, per qubit, then its
        CZ layer on `cz` as one sign pass."""
        r = self.w.rounds[j - 1]
        apply_masked_t_layer(self.reg, self.data, t, r.y)
        apply_cz_sign_layer(self.reg, self.data, cz, r.z)

    def h_layer(self, j, h):
        """Round j's masked rotation layer on the queries `h`."""
        apply_masked_h_layer(self.reg, self.data, h, self.w.rounds[j - 1].x)

    def hop(self, k, side, rng, forced):
        """Apply hop k's frame update, forcing the outcomes when `forced`
        gives one per wire; returns each wire's (outcome, probs)."""
        out, xs, zs = [], [], []
        for s in range(len(self.data)):
            if forced is None:
                idx = _sample_index(BELL_UNIFORM, rng)
                a, b = idx >> 1, idx & 1
            else:
                a, b = forced[s]
            qa, qb = self._queued[s]
            # Z^qb X^qa Z^b X^a = (-1)^(qa b) Z^(qb+b) X^(qa+a): one Pauli,
            # up to a global sign no output can see
            xs.append(a ^ qa)
            zs.append(b ^ qb)
            self._queued[s] = (a, b) if k < 2 * self.w.m else (0, 0)
            out.append(((a, b), BELL_UNIFORM))
        self.reg.apply_paulis(self.data, xs, zs)
        return out

    def measure(self, count, rng):
        """Z-measure the first `count` data qubits; returns the exact
        distribution of the bits, then the bits."""
        dist = self.reg.probabilities_on(self.data[:count])
        return dist, tuple(self.reg.measure_z(q, rng=rng)[0] for q in self.data[:count])

    def density(self, count, xs, zs):
        """X^x Z^z on the first `count` data qubits, then their density matrix."""
        self.reg.apply_paulis(self.data[:count], xs, zs, sign_first=True)
        return self.reg.density_on(self.data[:count])

    def snapshot(self):
        """The register's snapshot, then the data handles and queued Paulis."""
        return self.reg.snapshot(), (self.data, tuple(self._queued))

    def restore(self, snap):
        reg, (self.data, queued) = snap
        self.reg.restore(reg)
        self._queued = list(queued)


class BellStore(PauliFrame):
    """Physical reference data plane: the 2m x n Bell pairs the servers
    share before the run, all allocated up front as in the paper.

    Hop k Bell-measures each data qubit with the measuring server's half of
    pair (k, s); the partner half becomes the data qubit. The measuring
    server pre-corrects its half of pair k+1 by the outcome's Z^b X^a, so
    the correction meets the data after the partner's teleport.
    """

    measured = True

    def __init__(self, w, max_qubits=None):
        super().__init__(w, max_qubits)
        self._pairs = {(k, s): self.reg.alloc_bell_pair()
                       for k in range(1, 2 * w.m + 1) for s in range(w.n)}

    def hop(self, k, side, rng, forced):
        """Teleport the data through pair k; the interface of `PauliFrame.hop`."""
        mine, other = (0, 1) if side == "a" else (1, 0)
        out = []
        for s, q in enumerate(self.data):
            a, b, probs = self.reg.bell_measure(q, self._pairs[(k, s)][mine], rng=rng,
                                                force=None if forced is None else forced[s])
            out.append(((a, b), probs))
        if k < 2 * self.w.m:
            halves = [self._pairs[(k + 1, s)][mine] for s in range(len(out))]
            self.reg.apply_paulis(halves, [a for (a, _), _ in out], [b for (_, b), _ in out])
        self.data = [self._pairs[(k, s)][other] for s in range(len(out))]
        return out


# -- the classical parties -----------------------------------------------------

class ProtocolServer:
    """One server's classical side. The side ("a" or "b") fixes which Bell
    halves it owns and which pair index it measures during round j (2j-1
    for A, 2j for B); its qubits and its program are the data plane's."""

    def __init__(self, name, side, rng):
        self.name, self.side, self.rng = name, side, rng

    # unused by the schedule, which splits a round at its hop; kept because
    # the benchmark tracer wraps it (ROADMAP item 2)
    def unitary_round(self, plane, j, t, cz, h, forced=None):
        """This server's layers of round j on `plane`, then its hop: on side
        A the rotation queries `h` are round j-1's (None at j = 1), on side
        B round j's. Returns each wire's (outcome, probs)."""
        if self.side == "a" and j >= 2:
            plane.h_layer(j - 1, h)
        plane.phase_layers(j, t, cz)
        if self.side == "b":
            plane.h_layer(j, h)
        k = 2 * j - 1 if self.side == "a" else 2 * j
        return plane.hop(k, self.side, self.rng, forced)


@dataclass(frozen=True, eq=False)
class ProtocolUser:
    """One user party: the stream the run draws its fresh queries from,
    the rounds it holds and its input masks (zero for tgdmqc users).

    `rounds` maps a round j to its offset coefficients (a `ProgramRound`):
    round j of w' for tgdmqc user j. A round it does not list has all
    coefficients 1, as every round of the single toqc user has unless a
    run probes other offsets.
    """

    name: str
    rng: object
    rounds: dict
    mask_x: tuple
    mask_z: tuple


# -- the shared schedule -------------------------------------------------------

class ProtocolRun:
    """One run of the 4m+3-step schedule, resumable at its 2m teleport hops.

    `users[j-1]` is the party that holds round j (j <= m): it draws that
    round's fresh queries, receives hop 2j-1's outcomes and re-derives the
    queries after it. Hop 2j goes to `users[j-1]` and `users[j]`, so
    `users[m]`, the reader, gets the last outcomes and then the output; a
    message that two halves of a step would send from one party goes as one
    message. Step 1 carries the input that `_load_input` loads (by default
    server A allocates |0...0>). The readout is measured and XOR-shifted
    when `classical_output`, else the n_circ qubits go to the reader, who
    undoes their residual Paulis.

    The run holds no qubits: `plane` does. The transcript, `branch_records`
    and the one fresh (t, cz, h) family in flight, which a round uses
    before the next round draws its own, are the run's whole classical
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
        self.branch_records = []
        # the physical reference when `eager_bell`, else the Pauli frame
        self.plane = (BellStore if eager_bell else PauliFrame)(w, max_qubits)
        rng_a, rng_b = server_rngs
        self.server_a = ProtocolServer(SERVER_A, "a", rng_a)
        self.server_b = ProtocolServer(SERVER_B, "b", rng_b)
        self.rngs = [p.rng for p in self.parties] + [rng_a, rng_b]
        self.fresh = None

    def outcomes(self, k):
        """Hop k's (x bits, z bits), read off its n branch records; zeros
        for k = 0, before the first hop."""
        if k == 0:
            zero = (0,) * self.n
            return zero, zero
        recs = self.branch_records[(k - 1) * self.n:k * self.n]
        return tuple(r.outcome[0] for r in recs), tuple(r.outcome[1] for r in recs)

    # -- the schedule ------------------------------------------------------

    def _load_input(self):
        """Load the data qubits; returns the parts and qubits that step 1
        adds for the input: none when server A allocates |0...0> itself."""
        self.plane.load()
        return (), 0

    def _derived_h(self, j):
        """Server A's rotation queries of round j, re-derived by user j."""
        user = self.users[j - 1]
        shift, delta = h_shift_delta(user.mask_x, user.mask_z,
                                     self.outcomes(2 * j - 1), self.outcomes(2 * j))
        coeff = user.rounds.get(j)
        return derive_h_queries(self.fresh[2], shift, delta, coeff=coeff and coeff.x)

    def open(self):
        """Step 1, then server A's round-1 layers up to its first hop."""
        user = self.users[0]
        t, cz = draw_t_family(user.rng, self.n), draw_cz_family(user.rng, self.n)
        self.fresh = (t, cz, None)
        parts, qubits = self._load_input()
        parts += t_family_parts("t-query", t) + cz_family_parts("cz-query", cz)
        self.registry.send(
            StepMessage("step-1", user.name, (SERVER_A,), parts, qubits=qubits))
        self.plane.phase_layers(1, t, cz)

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
        hopped = self.plane.hop(k, server.side, server.rng, outcomes)
        for s, (ab, probs) in enumerate(hopped, 1):
            self.branch_records.append(BranchRecord(step, s, probs, ab, self.plane.measured))
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
        """Step 4j-1, then server B's half of round j on the queries sent:
        user j re-derives the phase queries and draws the rotation ones."""
        user = self.users[j - 1]
        t_fresh, cz_fresh, _ = self.fresh
        shift, delta = tcz_shift_delta(user.mask_x, self.outcomes(2 * j - 2)[0],
                                       self.outcomes(2 * j - 1)[0])
        coeff = user.rounds.get(j)
        t = derive_t_queries(t_fresh, shift, delta, coeff=coeff and coeff.y)
        cz = derive_cz_queries(cz_fresh, self.n, shift, delta, coeff=coeff and coeff.z)
        h = draw_h_family(user.rng, self.n)
        self.fresh = (t_fresh, cz_fresh, h)
        parts = (
            t_family_parts("t-query-rederived", t)
            + cz_family_parts("cz-query-rederived", cz)
            + h_family_parts("h-query", h)
        )
        self.registry.send(StepMessage(f"step-{4 * j - 1}", user.name, (SERVER_B,), parts))
        self.plane.phase_layers(j, t, cz)
        self.plane.h_layer(j, h)

    def _round_a(self, j):
        """Step 4j-3: the rederived rotation queries of round j-1, then the
        fresh phase queries of round j, both to server A, which then runs
        its half of round j on them."""
        step = f"step-{4 * j - 3}"
        prev, user = self.users[j - 2], self.users[j - 1]
        h = self._derived_h(j - 1)
        t, cz = draw_t_family(user.rng, self.n), draw_cz_family(user.rng, self.n)
        self.fresh = (t, cz, None)
        halves = [(prev, h_family_parts("h-query-rederived", h)),
                  (user, t_family_parts("t-query", t) + cz_family_parts("cz-query", cz))]
        if prev is user:
            halves = [(user, halves[0][1] + halves[1][1])]
        for sender, parts in halves:
            self.registry.send(StepMessage(step, sender.name, (SERVER_A,), parts))
        self.plane.h_layer(j - 1, h)
        self.plane.phase_layers(j, t, cz)

    def _read_out(self):
        """Steps 4m+1 to 4m+3: the last rotation queries and layer, then the
        output to the reader, corrected by its masks and the last outcomes."""
        m, n_circ = self.m, self.n_circ
        user, reader = self.users[m - 1], self.users[m]
        h = self._derived_h(m)
        self.registry.send(StepMessage(f"step-{4 * m + 1}", user.name, (SERVER_A,),
                                       h_family_parts("h-query-rederived", h)))

        self.plane.h_layer(m, h)
        step = f"step-{4 * m + 2}"
        ox, oz = self.outcomes(2 * m)
        # the residual X of each wire: its input mask and the last X outcome
        xs = tuple((x + mx) % 2 for x, mx in zip(ox, reader.mask_x))
        if self.classical_output:
            raw, measured = self.plane.measure(n_circ, self.server_a.rng)
            self.registry.send(StepMessage(step, SERVER_A, (reader.name,),
                                           (ClassicalPart("output-bits", 1, measured),)))
            # step 4m+3: add back the residual X bits
            shift = xs[:n_circ]
            self.output_bits = tuple(b ^ x for b, x in zip(measured, shift))
            shift_idx = int("".join(map(str, shift)), 2)
            self.output_distribution = raw[np.arange(raw.size) ^ shift_idx]
            self.output_density = None
        else:
            self.registry.send(StepMessage(step, SERVER_A, (reader.name,), qubits=n_circ))
            # step 4m+3: undo the residual masks on the received qubits
            zs = tuple((z + mz) % 2 for z, mz in zip(oz, reader.mask_z))
            self.output_density = self.plane.density(n_circ, xs, zs)
            self.output_bits = self.output_distribution = None
        p = 1.0
        for rec in self.branch_records:
            p *= rec.probs[(rec.outcome[0] << 1) | rec.outcome[1]]
        self.branch_probability = p

    # -- resuming ----------------------------------------------------------

    def snapshot(self):
        """Everything a later hop changes: the plane's register and frame, the
        rng states, the two logs by their lengths and the families in flight."""
        return (*self.plane.snapshot(), [rng.bit_generator.state for rng in self.rngs],
                len(self.branch_records), len(self.registry.transcript.records), self.fresh)

    def restore(self, snap):
        reg, frame, rng_states, n_records, n_messages, self.fresh = snap
        self.plane.restore((reg, frame))
        for rng, state in zip(self.rngs, rng_states):
            rng.bit_generator.state = state
        del self.branch_records[n_records:]
        del self.registry.transcript.records[n_messages:]

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
        """The run's `RunResult`: the views, steps and ledger are replayed
        from the transcript, and the configuration supplies its
        `outcome_table()`."""
        transcript = self.registry.transcript
        return RunResult(
            n=self.n, m=self.m, n_circ=self.n_circ,
            classical_output=self.classical_output,
            output_density=self.output_density,
            output_bits=self.output_bits,
            output_distribution=self.output_distribution,
            transcript=transcript,
            ledger=transcript.ledger(),
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
        # the masks are the first draws from the user's stream
        mask_x, mask_z = (tuple(int(v) for v in streams.user.integers(0, 2, size=n))
                          for _ in "xz")
        user = ProtocolUser(USER, streams.user, rounds, mask_x, mask_z)
        super().__init__(w, n_circ, [user] * (m + 1), (streams.server_a, streams.server_b),
                         classical_output=classical_output, **kw)

    def _load_input(self):
        user = self.users[0]
        # a basis input starts from |0...0>, so the capacity check precedes
        # any 2^n array
        self.plane.load(self.psi)
        if self.basis_bits is not None:
            # classical bits go as bits, and server A prepares them with their
            # X masks. The bits and the masks stay two passes: one X^(b+mx)
            # pass can flip the sign of a zero amplitude.
            bits = self.basis_bits
            if self.classical_output:
                bits = tuple((b + a) % 2 for b, a in zip(bits, user.mask_x))
            self.plane.paulis(bits, (0,) * self.n)
            if self.classical_output:
                return (ClassicalPart("masked-bits", 1, bits),), 0
        self.plane.paulis(user.mask_x, user.mask_z)
        return (), self.n

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
