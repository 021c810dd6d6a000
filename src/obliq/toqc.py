"""Two-server oblivious program application over n qubits, and the
teleport-chained schedule that both protocols run.

`ProtocolRun` is the one 4m+3-step schedule: the data qubits hop between
two servers that never talk to each other, one hop per half-round of the
program. Every gate layer is applied twice, once per server in its one step
between hops (`ProtocolServer.unitary_round`), with query exponents
randomized so that the pair telescopes to the program layer while each
server's queries stay uniform; the user side re-derives each second query
from the first and the teleport outcomes. A configuration fixes five
things: who holds the input masks, the run's `coeffs` (the offset
coefficients of the re-derived queries, one `ProgramRound` or None per
round), which user each hop's outcomes go to, the step-1 input and the
output mode. `run_toqc` is the configuration here: one user who holds the
masks and every round, with coefficients 1, sends a masked input (quantum,
or classical bits) and gets back a quantum or measured output. `tgdmqc` is
the other.

The control plane (`ProtocolRun`, `ProtocolUser`, `ProtocolServer`) holds
only classical state. The data plane owns the register, the qubits and the
servers' program. The seam between them is each layer's net value, which
pure functions of the queries and the program's exponents give
(`layers.t_layer`, `h_layer`, `cz_layer`) and the data plane only applies.
The default `PauliFrame` keeps only the n data qubits live and turns each
hop into a Pauli update on them. `eager_bell=True` selects the physical
reference `BellStore`, which shares all 2mn Bell pairs before the run as in
the paper (4mn + n live qubits). Both draw each unforced outcome from one
uniform double, so a seed gives the same transcript under either; the frame
takes a hop's n doubles in one `rng.random(n)` call, which yields the
doubles and the final generator state of n `rng.random()` calls.

Query families, by the gate they drive: `t` (mod 8) and `cz` (mod 2) go
fresh to server A and re-derived to server B; `h` (mod 4) goes fresh to
server B and re-derived to server A. Index arithmetic on the mask index u is
mod 2 throughout.

Small tables are built once per shape: `gates.pair_table(n)`, which the
pair derivation indexes by XOR of the shift bits and the CZ layer walks,
`qsim._index_tables` per register dimension for the gathers and sign
passes, and the kernel operands in `layers`, checked at import. A family
draw is one `rng.integers` call for all its rows, turned into tuples with
one `tolist()`. The run logs the stream each draw takes, so a branch walk's
`restore` resets only the streams that moved since its snapshot.

Every node of a branch walk redraws the same fresh families after its
`restore`, so its leaves repeat a few distinct wire parts, messages, hop
records, re-derived rotation families and H layer values: the walk builds,
and checks, each once, in one table keyed by their fields (`_intern`), which
the plane shares for the H values. A node extends its parent's hop log
(`ProtocolRun.hops`) by one entry, so a leaf reads its outcomes, branch
probability and records there instead of rescanning the run. The classical
readout draws its bits from the exact law it has already computed
(`PauliFrame.measure`) instead of collapsing the register. The 4^n siblings
of the last hop differ only in the hop's Pauli and in the rotation queries
their outcomes give, so a plane that does not measure computes all their
data planes at once, in a few passes over a stack of states
(`PauliFrame.stack`; the batched frames of Gidney's Stim, Quantum 5, 497
(2021)). Those queries depend on the outcomes only through each wire's x
XOR z (`outcome_parity`), so the walk derives one family per distinct
parity, 2^n for the 4^n siblings, and each sibling's step 4m+1 and
rotation layer take the family its row was stacked with instead of
deriving it again. Each sibling still runs every step, message, record and
draw of the schedule; the plane serves it its row and family instead of
recomputing them.
"""

from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import NamedTuple

import numpy as np

from .gates import as_bits, as_program, as_seed, bits_index, check_n_circ, pair_table
from .harness import (
    BranchRecord,
    ChannelRegistry,
    ClassicalPart,
    StepMessage,
    Transcript,
    Verdict,
    all_branch_plans,
    as_bell_outcome,
    cut_branch_plan,
)
# apply_masked_cz_layer, apply_xz and apply_zx are the per-gate references
# of the fused passes; they stay importable here because the benchmark
# tracer wraps them (ROADMAP item 2)
from .layers import (  # noqa: F401
    apply_cz_sign_layer,
    apply_h_rows,
    apply_masked_cz_layer,
    apply_masked_h_layer,
    apply_masked_t_layer,
    apply_xz,
    apply_zx,
    h_layer,
)
from .qsim import StateRegister, _sample_index, _xor_index, marginals

USER = "user"
SERVER_A = "server-a"
SERVER_B = "server-b"

UV_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))

# a branch walk takes at most 4^10 plans (2mn <= 10 Bell outcomes): at 30-45
# us and a caller's 200 B dict entry per plan (2-vCPU VM), under a minute and
# 200 MB; a walk of 4^12 plans would take 8-12 minutes and 3.3 GB
WALK_MAX_OUTCOMES = 10


def check_walk(n, m):
    """Refuse a branch walk at (n, m) of more than 4^WALK_MAX_OUTCOMES plans."""
    outcomes = 2 * m * n
    if outcomes > WALK_MAX_OUTCOMES:
        raise ValueError(f"a branch walk at n={n}, m={m} takes 4^{outcomes} = "
                         f"{4 ** outcomes} plans, over the cap of 4^{WALK_MAX_OUTCOMES} "
                         f"= {4 ** WALK_MAX_OUTCOMES}")


def _intern(table, key, build, *args):
    """`build(*args)`, or in a branch walk (`table` a dict, not None) the
    value it gave for `key` the first time: the values are immutable and a
    function of their key, whose first entry names their kind."""
    if table is None:
        return build(*args)
    value = table.get(key)
    if value is None:
        value = table[key] = build(*args)
    return value


def make_streams(seed, parties):
    """One generator per party, spawned from `seed` (the one seed rule,
    `gates.as_seed`): the users' in order, then server A's, then server B's."""
    children = np.random.SeedSequence(as_seed(seed)).spawn(parties)
    return [np.random.default_rng(c) for c in children]


# -- query derivations --------------------------------------------------------

def derive_ring_queries(ring, fresh, shift, delta, coeff=None):
    """Re-randomized single-wire queries in Z_ring:
    out[u][s] = -fresh[u - shift[s]][s] (+ coeff[s], default 1, when u hits
    delta[s]). The phase queries live mod 8, the rotation queries mod 4."""
    hits = (1,) * len(shift) if coeff is None else coeff
    row0, row1 = [], []
    for f0, f1, sh, d, hit in zip(fresh[0], fresh[1], shift, delta, hits):
        if sh & 1:
            f0, f1 = f1, f0
        if d & 1:
            f1 -= hit
        else:
            f0 -= hit
        row0.append(-f0 % ring)
        row1.append(-f1 % ring)
    return {0: tuple(row0), 1: tuple(row1)}


derive_t_queries = partial(derive_ring_queries, 8)
derive_h_queries = partial(derive_ring_queries, 4)


def derive_cz_queries(fresh, n, shift, delta, coeff=None):
    """Same re-randomization for the pair gates, one mask index per wire.

    Mod 2 the sign drops out. Number (u, v) as row r = 2u + v: pair p =
    (s, t) then reads fresh row r ^ (2 shift[s] + shift[t]) and adds its
    coefficient in row 2 delta[s] + delta[t].
    """
    sh = [b & 1 for b in shift]
    dl = [b & 1 for b in delta]
    hits = (1,) * (n * (n - 1) // 2) if coeff is None else coeff
    cols = []
    for (s, t), col, hit in zip(pair_table(n), zip(*[fresh[uv] for uv in UV_PAIRS]), hits):
        c = (sh[s] << 1) | sh[t]
        out = [col[c] & 1, col[c ^ 1] & 1, col[c ^ 2] & 1, col[c ^ 3] & 1]
        out[(dl[s] << 1) | dl[t]] ^= hit & 1
        cols.append(out)
    return dict(zip(UV_PAIRS, tuple(zip(*cols)) or ((),) * 4))


def tcz_shift_delta(mask_x, ax_prev, ax):
    """Shift and delta of server B's round-j phase queries: shift by the X
    outcome bits of hops 2j-2 and 2j-1, offset where u matches mask + the
    latest X outcome. Every input is a tuple of 0/1 ints, so a sum mod 2
    is an XOR."""
    return (tuple([a ^ p for a, p in zip(ax, ax_prev)]),
            tuple([mx ^ a for mx, a in zip(mask_x, ax)]))


def h_shift_delta(mask_x, mask_z, first, second):
    """Shift and delta of server A's round-j rotation queries from the
    outcome parities (`outcome_parity`) of hops 2j-1 and 2j: their sum is
    the shift, the masks and hop 2j's parity the offset (0/1 ints, summed
    mod 2 by XOR). The outcomes enter only through the parities, so the 4^n
    outcome combos of hop 2j give 2^n distinct shifts and deltas."""
    return (tuple([a ^ b for a, b in zip(first, second)]),
            tuple([a ^ b ^ c for a, b, c in zip(mask_x, mask_z, second)]))


def outcome_parity(outcomes):
    """x XOR z of each wire's Bell outcome (x, z)."""
    return tuple([x ^ z for x, z in outcomes])


# each query family's wire parts: (part name, row key) in wire order (rows
# u for the ring families, (u, v) for the pair family), and the bits per entry
_RING_ROWS = tuple([(f"u={u}", u) for u in (0, 1)])
_PAIR_ROWS = tuple([(f"u={u},v={v}", (u, v)) for u, v in UV_PAIRS])
FAMILY_PARTS = {
    prefix: (tuple([(f"{prefix}[{row}]", key) for row, key in rows]), width)
    for family, rows, width in (("t-query", _RING_ROWS, 3), ("h-query", _RING_ROWS, 2),
                                ("cz-query", _PAIR_ROWS, 1))
    for prefix in (family, f"{family}-rederived")
}


def family_parts(prefix, family):
    """The wire parts of the query family `family`, sent as `prefix`, each
    as its `ClassicalPart` fields (name, width, values)."""
    rows, width = FAMILY_PARTS[prefix]
    return tuple([(name, width, family[key]) for name, key in rows])


# One `rng.integers` call per family, one row of `count` entries per key in
# `keys` order: a seed's transcript pins every drawn value and where it goes.
# A bounded draw below 2^32 takes 32-bit halves in turn and the generator
# keeps a spare half in its state, so one call of k x n gives the rows and
# the final state of k calls of n.
def draw_family(ring, keys, rng, count):
    return dict(zip(keys, map(tuple, rng.integers(0, ring, size=(len(keys), count)).tolist())))


draw_t_family = partial(draw_family, 8, (0, 1))
draw_h_family = partial(draw_family, 4, (0, 1))


def draw_cz_family(rng, n):
    return draw_family(2, UV_PAIRS, rng, n * (n - 1) // 2)


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
    (`apply_cz_sign_layer`). The T and H layers stay per qubit, one kernel
    pass each over a prebuilt operand, since fusing them would change the
    rounding.

    A branch walk's last hop is the exception (`stack`): one pass over a
    stack of states gives every sibling's hop and rotation layer, and `hop`,
    `h_layer` and `measure` install or read the sibling's row, so a
    subclass that overrides one of them sees the register the per-sibling
    passes would give.
    """

    # a hop draws from the known Bell law; it reads no amplitudes
    measured = False

    def __init__(self, w):
        self.reg = StateRegister()
        self.w = w
        self.data = None
        self._queued = ((0, 0),) * w.n
        # a branch walk's table of built values (`_intern`), None in a single
        # run; then the stacked siblings (`stack`), the row the last hop
        # served and the law of the row `h_layer` installed
        self.interned = None
        self._stack = self._row = self._law = None

    def load(self, psi=None):
        """Allocate the n data qubits in |psi>, or in |0...0> when psi is None."""
        self.data = (self.reg.alloc_zero_qubits(self.w.n) if psi is None
                     else self.reg.alloc_state(psi, self.w.n))

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
        """Round j's masked rotation layer on the queries `h`. After a
        stacked hop, handed the very family its row was stacked with (the
        run takes it from `served_family`), it installs the row's final
        state instead; any other family runs the pass on the served state."""
        row, self._row = self._row, None
        if row is not None and row[0] is h:
            self.reg.install(row[2])
            self._law = row[3]
            return
        self._law = None
        apply_masked_h_layer(self.reg, self.data, self._h_powers(j, h))

    def _h_powers(self, j, h):
        """Round j's H layer value on the queries `h` (`layers.h_layer`); a
        walk builds each distinct one once."""
        x = self.w.rounds[j - 1].x
        return _intern(self.interned, ("h-layer", h[0], h[1], x), h_layer, h, x)

    def hop(self, k, side, rng, forced):
        """Apply hop k's frame update, forcing the outcomes when `forced`
        gives one per wire; returns each wire's (outcome, probs)."""
        if forced is None:
            # one uniform per wire, as `_sample_index(BELL_UNIFORM, rng)`
            # draws: its cumulative sums k/4 are exact, so it picks floor(4r).
            # One rng.random(n) call gives the doubles and the final state of
            # n rng.random() calls, whatever spare half `integers` left.
            forced = [divmod(int(r * 4), 2) for r in rng.random(len(self.data)).tolist()]
        ab = tuple([(a, b) for a, b in forced])
        queued = self._queued
        self._queued = ab if k < 2 * self.w.m else ((0, 0),) * len(ab)
        stack = self._stack
        if stack is not None and stack[0] != k:
            # a walk leaves the stacked node only through a hop k < 2m
            self._stack = stack = None
        self._row = row = stack[1].pop(tuple(forced), None) if stack is not None else None
        if row is not None:
            self.reg.install(row[1])
        else:
            # Z^qb X^qa Z^b X^a = (-1)^(qa b) Z^(qb+b) X^(qa+a): one Pauli,
            # up to a global sign no output can see
            self.reg.apply_paulis(self.data, [a ^ qa for (a, _), (qa, _) in zip(ab, queued)],
                                  [b ^ qb for (_, b), (_, qb) in zip(ab, queued)])
        return [(o, BELL_UNIFORM) for o in ab]

    def served_family(self):
        """The rotation queries that the row served by the last hop was
        stacked with, or None when that hop served no row."""
        row = self._row
        return None if row is None else row[0]

    def stack(self, k, combos, families, count):
        """Compute hop k = 2m and round m's rotation layer for every sibling
        combo of hop k at once, from the register as it stands, combos[r]
        with the rotation queries families[r]: one gather and one sign pass
        for the Paulis (`StateRegister.pauli_rows`), one `kernels.apply_1q`
        pass per wire for the H layer (`layers.apply_h_rows`) and the law of
        each row on the first `count` qubits (`qsim.marginals`, as in
        `probabilities_on`). Until a hop of another k, hop k with one of the
        combos takes its row (a second visit runs the per-sibling passes,
        so no pass reaches the stack) and installs its state after the
        Paulis, `served_family` then gives the row's family, and the next
        `h_layer` handed it installs the final state and `measure` reads its
        law: each byte for byte what the per-sibling passes give. A walk
        hands the siblings of one outcome parity one family object. The
        stack holds len(combos) x 2^n amplitudes as classical rows, not live
        qubits."""
        bits = [self.reg.bit_of(q) for q in self.data]
        weights = np.array(bits)
        flips = np.array(combos) ^ np.array(self._queued)
        after = self.reg.pauli_rows(flips[:, :, 0] @ weights, flips[:, :, 1] @ weights)
        final = after.copy()
        apply_h_rows(final, bits, [self._h_powers(k // 2, h) for h in families])
        laws = marginals(final.reshape(len(combos), 1 << count, -1))
        self._stack = k, dict(zip(combos, zip(families, after, final, laws)))

    def measure(self, count, rng):
        """Z-measure the first `count` data qubits; returns the exact
        distribution of the bits, then the bits. Each bit takes one
        `rng.random()`, in qubit order, from its law given the bits before
        it: the draws of one collapsing `measure_z` per qubit, without the
        collapse, which no later step reads. A drawn prefix always has
        positive probability (`_sample_index`), so no law divides by zero.
        After a stacked row's final state, the law is the row's."""
        law, self._law = self._law, None
        dist = (law if law is not None and law.size == 1 << count
                else self.reg.probabilities_on(self.data[:count]))
        block = dist.tolist()
        bits = []
        for _ in range(count):
            half = len(block) >> 1
            p1 = sum(block[half:]) / sum(block)
            bit = _sample_index((1.0 - p1, p1), rng)
            bits.append(bit)
            block = block[half:] if bit else block[:half]
        return dist, tuple(bits)

    def density(self, count, xs, zs):
        """Z^z X^x on the first `count` data qubits, then their density matrix."""
        self.reg.apply_paulis(self.data[:count], xs, zs)
        return self.reg.density_on(self.data[:count])

    def snapshot(self):
        """The register's snapshot, then the data handles and queued Paulis
        (a tuple, so neither side copies it)."""
        return self.reg.snapshot(), (self.data, self._queued)

    def restore(self, snap):
        reg, (self.data, self._queued) = snap
        self.reg.restore(reg)
        self._row = self._law = None


class BellStore(PauliFrame):
    """Physical reference data plane: the 2m x n Bell pairs the servers
    share before the run, all allocated up front as in the paper.

    Hop k Bell-measures each data qubit with the measuring server's half of
    pair (k, s); the partner half becomes the data qubit. The measuring
    server pre-corrects its half of pair k+1 by the outcome's Z^b X^a, so
    the correction meets the data after the partner's teleport.
    """

    measured = True

    def __init__(self, w):
        super().__init__(w)
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
    for A, 2j for B); its qubits and its program are the data plane's. Its
    one step between two hops (`ProtocolRun.hop`) is `unitary_round`."""

    def __init__(self, name, side, rng):
        self.name, self.side, self.rng = name, side, rng

    def unitary_round(self, plane, j, t, cz, h):
        """This server's layers on `plane` up to its next hop, on the queries
        just sent. Side A: round j-1's rotation layer on `h` unless None (at
        j = 1), then round j's phase layers on `t` and `cz` unless None (at
        j = m+1). Side B: round j's phase layers, then its rotation layer."""
        if self.side == "a" and h is not None:
            plane.h_layer(j - 1, h)
        if t is not None:
            plane.phase_layers(j, t, cz)
            if self.side == "b":
                plane.h_layer(j, h)


class ProtocolUser(NamedTuple):
    """One user party: the stream the run draws its fresh queries from and
    its input masks (zero for tgdmqc users). The offset coefficients of the
    rounds it re-derives are the run's `coeffs`."""

    name: str
    rng: object
    mask_x: tuple
    mask_z: tuple


# -- the shared schedule -------------------------------------------------------

class ProtocolRun:
    """One run of the 4m+3-step schedule, resumable at its 2m teleport hops.

    `users[j-1]` is the party that holds round j (j <= m): it draws that
    round's fresh queries, receives hop 2j-1's outcomes and re-derives the
    queries after it, with the offset coefficients `coeffs[j-1]` (a
    `ProgramRound`, or None for all ones; `coeffs` None is all ones
    throughout). Hop 2j goes to `users[j-1]` and `users[j]`, so
    `users[m]`, the reader, gets the last outcomes and then the output; a
    message that two halves of a step would send from one party goes as one
    message. Step 1 carries the input that `_load_input` loads (by default
    server A allocates |0...0>). The readout is measured and XOR-shifted
    when `classical_output`, else the n_circ qubits go to the reader, who
    undoes their residual Paulis.

    The run holds no qubits: `plane` does. It keeps three logs: the
    transcript; `hops`, whose entry k holds hop k's (x bits, z bits)
    (`outcomes(k)`), the branch probability after it (the factors of the
    records multiplied in order) and its records, one per wire (zeros, 1.0
    and none at k = 0, which `open()` logs); and `drawn`, the stream of
    each draw (a user's family draw, an unforced hop, the readout's
    measurement). The first two and the fresh (t, cz, h) family in flight,
    which a round uses before the next round draws its own, are the run's
    whole classical record: each party acts on the message it was just sent
    or on the outcomes routed to it.

    Server A's steps 4j-3 (j = 1..m+1) run through one method, `_round_a`.
    `open()` runs everything before hop 1; `hop(k, outcomes)` runs hop k and
    everything up to hop k+1, or through the readout when k = 2m.
    `snapshot()` and `restore()` save and reset everything a run changes, so
    one state can be continued with each outcome of the next hop in turn.
    """

    def __init__(self, w, n_circ, users, server_rngs, *, coeffs=None,
                 classical_output=True, eager_bell=False, branch_plan=None):
        n, m = w.n, w.m
        n_circ = check_n_circ(n_circ, n)
        self.plan = ((None,) * (2 * m) if branch_plan is None
                     else cut_branch_plan(branch_plan, 2 * m, n))
        self.n, self.m, self.n_circ = n, m, n_circ
        self.users = tuple(users)
        self.coeffs = (None,) * m if coeffs is None else coeffs
        self.classical_output = classical_output
        self.parties = tuple(dict.fromkeys(self.users))

        self.registry = ChannelRegistry()
        for p in self.parties:
            self.registry.register(p.name, SERVER_A)
            self.registry.register(p.name, SERVER_B)
        self.hops = []
        # the physical reference when `eager_bell`, else the Pauli frame
        self.plane = (BellStore if eager_bell else PauliFrame)(w)
        rng_a, rng_b = server_rngs
        self.server_a = ProtocolServer(SERVER_A, "a", rng_a)
        self.server_b = ProtocolServer(SERVER_B, "b", rng_b)
        self.rngs = [p.rng for p in self.parties] + [rng_a, rng_b]
        self.drawn = []
        self.fresh = None
        # the branch walk's table of built values (`_intern`); None in a single run
        self.interned = None

    def _draw_from(self, rng):
        """Log `rng` as the stream of the next draw; returns it."""
        self.drawn.append(rng)
        return rng

    def _message(self, step, sender, receivers, parts, qubits):
        """The `StepMessage` of `parts`, given as (name, width, values)
        triples; in a walk each distinct part is built, and checked, once."""
        built = tuple([_intern(self.interned, ("part", *p), ClassicalPart, *p) for p in parts])
        return StepMessage(step, sender, receivers, built, qubits)

    def _send(self, step, sender, receivers, parts=(), qubits=0):
        """Send the message of `parts` ((name, width, values) triples)
        through the channel registry; a walk builds each distinct one once."""
        key = ("message", step, sender, receivers, parts, qubits)
        self.registry.send(_intern(self.interned, key, self._message,
                                   step, sender, receivers, parts, qubits))

    @property
    def branch_records(self):
        """Every hop's branch records in order, as a fresh list."""
        return [rec for *_, records in self.hops for rec in records]

    def outcomes(self, k):
        """Hop k's (x bits, z bits) from the hop log; zeros for k = 0,
        before the first hop."""
        return self.hops[k][0]

    # -- the schedule ------------------------------------------------------

    def _load_input(self):
        """Load the data qubits; returns the parts, as (name, width, values)
        triples, and the qubits that step 1 adds for the input: none when
        server A allocates |0...0> itself."""
        self.plane.load()
        return (), 0

    def open(self):
        """Step 1, then server A's round-1 layers up to its first hop. A run
        runs once: a run that has sent step 1 is refused."""
        if self.registry.transcript.records:
            raise ValueError("this run has already sent step 1; a ProtocolRun runs once")
        self.hops.append((((0,) * self.n, (0,) * self.n), 1.0, ()))
        self._round_a(1)

    def hop(self, k, outcomes=None):
        """Hop k and the steps up to the next hop (through the readout at
        k = 2m). `outcomes` forces this hop's n Bell outcomes, each by the
        rule of a branch plan's entries (`harness.as_bell_outcome`); None
        samples them. A hop out of order, or forced outcomes that break the
        rule, are refused before anything moves; `run_through` and the walk
        call `_hop`, right by construction."""
        if not (k == len(self.hops) <= 2 * self.m and self.registry.transcript.records):
            due = len(self.hops) if self.registry.transcript.records else 0
            raise ValueError(f"hop {k} out of order: expected " + (
                "open() first" if not due else f"hop {due}" if due <= 2 * self.m
                else "no hop after the readout"))
        if outcomes is not None:
            try:
                outcomes = tuple(outcomes)
            except TypeError:
                raise ValueError(f"hop {k} outcomes {outcomes!r} are not a sequence "
                                 "of Bell outcomes") from None
            if len(outcomes) != self.n:
                raise ValueError(f"hop {k} has {len(outcomes)} outcomes, expected n={self.n}")
            what = f"hop {k} outcome"
            outcomes = tuple([as_bell_outcome(ab, what) for ab in outcomes])
        self._hop(k, outcomes)

    def _hop(self, k, outcomes):
        """`hop` on a due k and None or n (a, b) pairs of 0/1 ints."""
        j = (k + 1) // 2
        # server A ends round j at step 4j-2, server B at step 4j; hop 2j-1
        # goes to user j, hop 2j to users j and j+1
        step = f"step-{2 * k}"
        server, receivers = ((self.server_a, self.users[j - 1:j]) if k % 2
                             else (self.server_b, self.users[j - 1:j + 1]))
        rng = server.rng if outcomes is not None else self._draw_from(server.rng)
        hopped = tuple(self.plane.hop(k, server.side, rng, outcomes))
        records, message, bits, factors = _intern(self.interned, ("hop", step, hopped),
                                                  self._hop_records, step, server.name,
                                                  receivers, hopped)
        p = self.hops[-1][1]
        for f in factors:
            p *= f
        self.hops.append((bits, p, records))
        self.registry.send(message)
        if k % 2:
            self._round_b(j)
        else:
            self._round_a(j + 1)

    def _hop_records(self, step, sender, receivers, hopped):
        """A hop's branch records, one per wire, its outcome message, its
        (x bits, z bits) and each wire's branch probability factor."""
        measured = self.plane.measured
        records = tuple([BranchRecord(step, s, probs, ab, measured)
                         for s, (ab, probs) in enumerate(hopped, 1)])
        xs, zs = zip(*[ab for ab, _ in hopped])
        factors = tuple([probs[(a << 1) | b] for (a, b), probs in hopped])
        return records, self._message(
            step, sender, tuple(dict.fromkeys(p.name for p in receivers)),
            (("bell-x", 1, xs), ("bell-z", 1, zs)), 0), (xs, zs), factors

    def run_through(self):
        """Open, then every hop with the plan's (checked) or sampled outcomes."""
        self.open()
        for k, outcomes in enumerate(self.plan, 1):
            self._hop(k, outcomes)
        return self.result()

    def _round_b(self, j):
        """Step 4j-1, then server B's half of round j on the queries sent:
        user j re-derives the phase queries and draws the rotation ones."""
        user = self.users[j - 1]
        t_fresh, cz_fresh, _ = self.fresh
        shift, delta = tcz_shift_delta(user.mask_x, self.outcomes(2 * j - 2)[0],
                                       self.outcomes(2 * j - 1)[0])
        coeff = self.coeffs[j - 1]
        t = derive_t_queries(t_fresh, shift, delta, coeff=coeff and coeff.y)
        cz = derive_cz_queries(cz_fresh, self.n, shift, delta, coeff=coeff and coeff.z)
        h = draw_h_family(self._draw_from(user.rng), self.n)
        self.fresh = (t_fresh, cz_fresh, h)
        parts = (
            family_parts("t-query-rederived", t)
            + family_parts("cz-query-rederived", cz)
            + family_parts("h-query", h)
        )
        self._send(f"step-{4 * j - 1}", user.name, (SERVER_B,), parts)
        self.server_b.unitary_round(self.plane, j, t, cz, h)

    def _round_a(self, j):
        """Step 4j-3 (j = 1..m+1) to server A, then its layers on the
        queries sent: from j = 2, user j-1 re-derives the rotation queries
        of round j-1; up to j = m, user j draws the phase queries of round
        j, which the input joins at j = 1. After step 4m+1, the readout."""
        step, sender, parts, qubits = f"step-{4 * j - 3}", None, (), 0
        t = cz = h = None
        if j > 1:
            sender = self.users[j - 2]
            # a stacked sibling takes the family its row was built with
            h = self.plane.served_family()
            if h is None:
                h = self._rederived_h(j, outcome_parity(zip(*self.outcomes(2 * j - 2))))
            parts = family_parts("h-query-rederived", h)
        if j <= self.m:
            user = self.users[j - 1]
            rng = self._draw_from(user.rng)
            t, cz = draw_t_family(rng, self.n), draw_cz_family(rng, self.n)
            self.fresh = (t, cz, None)
            # one user's two halves go as one message, two users' as two
            if j > 1 and sender is not user:
                self._send(step, sender.name, (SERVER_A,), parts)
                parts = ()
            sender = user
            if j == 1:
                parts, qubits = self._load_input()
            parts += family_parts("t-query", t) + family_parts("cz-query", cz)
        self._send(step, sender.name, (SERVER_A,), parts, qubits)
        self.server_a.unitary_round(self.plane, j, t, cz, h)
        if j > self.m:
            self._read_out()

    def _rederived_h(self, j, second):
        """User j-1's re-derived rotation queries of round j-1 (j >= 2), sent
        at step 4j-3, given hop 2j-2's outcome parity `second`
        (`outcome_parity`). Step 4j-3 calls it, except at a frame walk's
        leaves: their stacked node called it once per parity, and they take
        the family from their rows. A walk builds each distinct family once
        (`_intern`)."""
        sender = self.users[j - 2]
        shift, delta = h_shift_delta(sender.mask_x, sender.mask_z,
                                     outcome_parity(zip(*self.outcomes(2 * j - 3))), second)
        coeff = self.coeffs[j - 2]
        coeff = coeff and coeff.x
        fresh = self.fresh[2]
        return _intern(self.interned, ("h", fresh[0], fresh[1], shift, delta, coeff),
                       derive_h_queries, fresh, shift, delta, coeff)

    def _read_out(self):
        """Steps 4m+2 and 4m+3: the output to the reader, corrected by its
        masks and the last outcomes."""
        m, n_circ = self.m, self.n_circ
        reader = self.users[m]
        step = f"step-{4 * m + 2}"
        (ox, oz), self.branch_probability, _ = self.hops[2 * m]
        # the residual X of each wire: its input mask and the last X outcome
        xs = tuple([x ^ mx for x, mx in zip(ox, reader.mask_x)])
        if self.classical_output:
            raw, measured = self.plane.measure(n_circ, self._draw_from(self.server_a.rng))
            self._send(step, SERVER_A, (reader.name,), (("output-bits", 1, measured),))
            # step 4m+3: add back the residual X bits
            shift = xs[:n_circ]
            self.output_bits = tuple([b ^ x for b, x in zip(measured, shift)])
            self.output_distribution = raw[_xor_index(raw.size, bits_index(shift))]
            self.output_density = None
        else:
            self._send(step, SERVER_A, (reader.name,), qubits=n_circ)
            # step 4m+3: undo the residual masks on the received qubits
            zs = tuple((z + mz) % 2 for z, mz in zip(oz, reader.mask_z))
            self.output_density = self.plane.density(n_circ, xs, zs)
            self.output_bits = self.output_distribution = None

    # -- resuming ----------------------------------------------------------

    def snapshot(self):
        """Everything a later hop changes: the plane's snapshot, as one value
        whose layout is the plane's own, the rng states, the three logs by
        their lengths, the hop log's last entry and the families in flight."""
        return (self.plane.snapshot(), {rng: rng.bit_generator.state for rng in self.rngs},
                len(self.registry.transcript.records), len(self.drawn), len(self.hops),
                self.hops[-1] if self.hops else None, self.fresh)

    def restore(self, snap):
        """Return to `snap`, which must lie on the current path: the hop log
        still holds its last entry (entry 0 is `open()`'s), if it had one. Of
        the rng streams, only those the draw log names since the snapshot are
        reset: no other stream has moved."""
        plane, rng_states, n_messages, n_drawn, n_hops, last, fresh = snap
        if len(self.hops) < n_hops or n_hops and self.hops[n_hops - 1] is not last:
            raise ValueError(f"the snapshot is off the run's current path: hop-log entry "
                             f"{n_hops - 1} has since been undone or taken again")
        self.fresh = fresh
        self.plane.restore(plane)
        for rng in dict.fromkeys(self.drawn[n_drawn:]):
            rng.bit_generator.state = rng_states[rng]
        del self.drawn[n_drawn:]
        del self.hops[n_hops:]
        del self.registry.transcript.records[n_messages:]

    def leaves(self):
        """Yield (plan, self) for every Bell branch plan, in
        `all_branch_plans` order, walking the outcome tree depth-first.

        Each hop's n outcomes and the steps after them run once per tree
        node. The run is the same object each time, valid until the next
        leaf; it is left at the last leaf. A run built with a branch plan
        is refused: the walk takes every plan. So is a walk of more than
        4^WALK_MAX_OUTCOMES plans, before step 1 is sent.

        The walk builds each distinct value once (`_intern`); every message
        still goes through the channel registry.
        """
        if self.plan[0] is not None:
            raise ValueError("the branch walk takes every plan, not a branch_plan")
        check_walk(self.n, self.m)
        self.interned = self.plane.interned = {}
        self.open()
        yield from self._walk(1, (), tuple(all_branch_plans(self.n)))

    def _walk(self, k, prefix, combos):
        """The walk from hop k on, after the outcomes `prefix`. At the last
        hop a plane that does not measure computes the data plane of all
        the siblings at once (`PauliFrame.stack`), each with the rotation
        queries its outcomes give, and serves each sibling its row."""
        snap = self.snapshot()
        last = k == 2 * self.m
        if last and not self.plane.measured:
            # the 4^n combos share 2^n parities: one family per parity
            parities = [outcome_parity(combo) for combo in combos]
            family = {p: self._rederived_h(self.m + 1, p) for p in dict.fromkeys(parities)}
            self.plane.stack(k, combos, [family[p] for p in parities], self.n_circ)
        for i, combo in enumerate(combos):
            if i:
                self.restore(snap)
            self._hop(k, combo)
            if last:
                yield prefix + combo, self
            else:
                yield from self._walk(k + 1, prefix + combo, combos)

    def result(self):
        """The run's `RunResult`: the views, steps and ledger are replayed
        from a copy of the transcript, which later hops leave as it is, and
        the configuration supplies its `outcome_table()`."""
        transcript = Transcript()
        transcript.records = list(self.registry.transcript.records)
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

class _ToqcRun(ProtocolRun):
    """The schedule with one masked user who holds every round and who sends
    the input and reads the output. Its offset coefficients are all 1, as
    `run_toqc` runs it; `coeffs` (through `**kw`) probes others."""

    def __init__(self, w, psi, basis_bits, n_circ, *, seed=None,
                 classical_output=False, **kw):
        w = as_program(w, "w")
        n, m = w.n, w.m
        if (psi is None) == (basis_bits is None):
            raise ValueError("give exactly one of psi or basis_bits")
        if classical_output and basis_bits is None:
            raise ValueError("classical output mode needs a computational basis input")
        if basis_bits is not None:
            basis_bits = as_bits(basis_bits, "basis_bits", n)
        # psi is checked where it is loaded, before step 1 is sent
        self.psi, self.basis_bits = psi, basis_bits

        # the one stream rule, `make_streams(seed, parties)`: user, server A, server B
        user_rng, *server_rngs = make_streams(seed, 3)
        # the masks are the first draws from the user's stream, x then z
        mask_x, mask_z = map(tuple, user_rng.integers(0, 2, size=(2, n)).tolist())
        user = ProtocolUser(USER, user_rng, mask_x, mask_z)
        super().__init__(w, n_circ, [user] * (m + 1), server_rngs,
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
                return (("masked-bits", 1, bits),), 0
        self.plane.paulis(user.mask_x, user.mask_z)
        return (), self.n

    def outcome_table(self):
        """The X and Z outcome bits of each hop k, zeros at k = 0."""
        return {"x": {k: xs for k, ((xs, _), *_) in enumerate(self.hops)},
                "z": {k: zs for k, ((_, zs), *_) in enumerate(self.hops)}}


def run_toqc(
    w,
    psi=None,
    basis_bits=None,
    n_circ=1,
    *,
    seed=None,
    classical_output=False,
    eager_bell=False,
    branch_plan=None,
):
    """One full protocol run.

    Exactly one of `psi` (2^n amplitudes) or `basis_bits` must be given;
    classical output mode requires `basis_bits` and then carries no qubits on
    the wire at all. `branch_plan` forces the Bell outcomes in chronological
    order (2mn of them). The run holds n live qubits; `eager_bell=True`
    selects the physical reference executor, which holds 4mn + n. Either
    must fit the OBLIQ_MAX_QUBITS cap (`qsim`). Returns a RunResult.
    """
    return _ToqcRun(
        w, psi, basis_bits, n_circ, seed=seed,
        classical_output=classical_output, eager_bell=eager_bell, branch_plan=branch_plan,
    ).run_through()


# -- query audit ----------------------------------------------------------------

def audit_query_uniformity():
    """Every re-derived query must be a bijective relabelling of its fresh
    family, whatever the shift, delta and offset coefficients are: then a
    uniform fresh draw gives uniform queries whatever the masks, the Bell
    outcomes and the users' w' are, so no server's queries depend on them.

    The derivations act wire by wire and pair by pair, so the rings are
    checked on one wire and the pairs on one pair (n = 2). For every shift,
    delta and coefficient (None for all ones, or each residue), all
    ring^rows fresh families go through the derivation, looked up by its
    module name, and must give as many distinct query families.
    """
    v = Verdict("query-uniformity", True)
    families = (  # name, ring, fresh rows, wires, derivation
        ("t-query", 8, (0, 1), 1, lambda f, sh, dl, co: derive_t_queries(f, sh, dl, co)),
        ("h-query", 4, (0, 1), 1, lambda f, sh, dl, co: derive_h_queries(f, sh, dl, co)),
        ("cz-query", 2, UV_PAIRS, 2, lambda f, sh, dl, co: derive_cz_queries(f, 2, sh, dl, co)),
    )
    for name, ring, rows, wires, derive in families:
        fresh = [dict(zip(rows, ((x,) for x in values)))
                 for values in product(range(ring), repeat=len(rows))]
        for sh, dl in product(product((0, 1), repeat=wires), repeat=2):
            for co in (None, *((c,) for c in range(ring))):
                queries = {tuple(derive(f, sh, dl, co)[r] for r in rows) for f in fresh}
                if len(queries) != len(fresh):
                    v.ok = False
                    v.details.append(f"{name}: shift {sh}, delta {dl}, coeff {co}: "
                                     f"{len(queries)} distinct of {len(fresh)} families")
    return v
