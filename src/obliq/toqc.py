"""Two-server oblivious program application over n qubits.

The user uploads a Pauli-masked input to server A; the data qubits then hop
between the servers through teleportation over pre-shared Bell pairs, with
each hop indexed by one half-round of the program. Every gate layer is
applied twice, once per server, with query exponents randomized so that the
pair telescopes to the true program layer while each server's queries stay
uniform. The party that measures a pair pre-corrects its half of the next
pair, so corrections ride along with the data.

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

from dataclasses import dataclass, field

import numpy as np

from .gates import qubit_pairs
from .harness import (
    BranchRecord,
    BranchSource,
    ChannelRegistry,
    ClassicalPart,
    PartyView,
    QueryEquationAudit,
    StepMessage,
    all_branch_plans,
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

def derive_t_queries(fresh, shift, delta, coeff=None):
    """Re-randomized phase queries: out[u][s] = -fresh[u - shift[s]][s]
    (+ coeff[s] when u hits delta[s]), values mod 8."""
    n = len(shift)
    out = {}
    for u in (0, 1):
        row = []
        for s in range(n):
            src = fresh[(u - shift[s]) % 2][s]
            hit = coeff[s] if coeff is not None else 1
            row.append((-src + (hit if u == delta[s] % 2 else 0)) % 8)
        out[u] = tuple(row)
    return out


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


def derive_h_queries(fresh_primed, shift, delta, coeff=None):
    """Re-randomized rotation queries (mod 4) from the primed family."""
    n = len(shift)
    out = {}
    for u in (0, 1):
        row = []
        for s in range(n):
            src = fresh_primed[(u - shift[s]) % 2][s]
            hit = coeff[s] if coeff is not None else 1
            row.append((-src + (hit if u == delta[s] % 2 else 0)) % 4)
        out[u] = tuple(row)
    return out


def t_family_parts(prefix, family):
    return tuple(
        ClassicalPart(f"{prefix}[u={u}]", 3, family[u]) for u in (0, 1)
    )


def cz_family_parts(prefix, family):
    return tuple(
        ClassicalPart(f"{prefix}[u={u},v={v}]", 1, family[(u, v)])
        for u, v in UV_PAIRS
    )


def h_family_parts(prefix, family):
    return tuple(
        ClassicalPart(f"{prefix}[u={u}]", 2, family[u]) for u in (0, 1)
    )


def draw_t_family(rng, n):
    return {u: tuple(int(v) for v in rng.integers(0, 8, size=n)) for u in (0, 1)}


def draw_cz_family(rng, n):
    npairs = n * (n - 1) // 2
    return {
        uv: tuple(int(v) for v in rng.integers(0, 2, size=npairs))
        for uv in UV_PAIRS
    }


def draw_h_family(rng, n):
    return {u: tuple(int(v) for v in rng.integers(0, 4, size=n)) for u in (0, 1)}


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


def teleport_executor(reg, m, n, source, records, eager_bell):
    """The physical reference when `eager_bell`, else the Pauli frame."""
    cls = BellStore if eager_bell else PauliFrame
    return cls(reg, m, n, source, records)


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
            hq = self._require(self.h_queries, j - 1, "h")
            apply_masked_h_layer(self.reg, data, hq, w.rounds[j - 2].x)
        tq = self._require(self.t_queries, j, "t")
        czq = self._require(self.cz_queries, j, "cz")
        apply_masked_t_layer(self.reg, data, tq, w.rounds[j - 1].y)
        apply_masked_cz_layer(self.reg, data, czq, w.rounds[j - 1].z)
        if self.side == "b":
            hq = self._require(self.h_queries, j, "h")
            apply_masked_h_layer(self.reg, data, hq, w.rounds[j - 1].x)

    def teleport_on(self, j, data, step):
        """Round j's hop; returns (x bits, z bits, new data handles)."""
        k = 2 * j - 1 if self.side == "a" else 2 * j
        outcomes, new_data = self.teleport.hop(k, self.side, data, self.rng, step)
        return tuple(a for a, _ in outcomes), tuple(b for _, b in outcomes), new_data

    def final_h_layer(self, data):
        hq = self._require(self.h_queries, self.program.m, "h")
        apply_masked_h_layer(self.reg, data, hq, self.program.rounds[-1].x)


# -- the user ------------------------------------------------------------------

class ToqcUser:
    def __init__(self, n, m, n_circ, rng, tcz_delta_coeff=None):
        self.n, self.m, self.n_circ = n, m, n_circ
        self.rng = rng
        self.mask_x = tuple(int(v) for v in rng.integers(0, 2, size=n))
        self.mask_z = tuple(int(v) for v in rng.integers(0, 2, size=n))
        self.t_fresh = {}
        self.cz_fresh = {}
        self.h_fresh = {}
        self.out_x = {0: (0,) * n}
        self.out_z = {0: (0,) * n}
        self.view = PartyView(USER)
        # all-ones except for runs probing what a dropped re-randomization
        # offset does to a round's phase layers
        self.tcz_delta_coeff = tcz_delta_coeff or {}

    def store_outcomes(self, k, xs, zs):
        self.out_x[k] = tuple(xs)
        self.out_z[k] = tuple(zs)

    def fresh_tcz(self, j):
        self.t_fresh[j] = draw_t_family(self.rng, self.n)
        self.cz_fresh[j] = draw_cz_family(self.rng, self.n)
        return self.t_fresh[j], self.cz_fresh[j]

    def fresh_h(self, j):
        self.h_fresh[j] = draw_h_family(self.rng, self.n)
        return self.h_fresh[j]

    def derived_tcz(self, j):
        """Queries for server B's round j (shift by the last two X outcomes,
        offset where u matches mask + latest X outcome)."""
        ax_prev = self.out_x[2 * j - 2]
        ax = self.out_x[2 * j - 1]
        shift = tuple((ax[s] + ax_prev[s]) % 2 for s in range(self.n))
        delta = tuple((self.mask_x[s] + ax[s]) % 2 for s in range(self.n))
        coeff = self.tcz_delta_coeff.get(j)
        t = derive_t_queries(self.t_fresh[j], shift, delta,
                             coeff=(coeff,) * self.n if coeff is not None else None)
        npairs = self.n * (self.n - 1) // 2
        cz = derive_cz_queries(self.cz_fresh[j], self.n, shift, delta,
                               coeff=(coeff,) * npairs if coeff is not None else None)
        return t, cz

    def derived_h(self, j):
        """Queries for server A's round j-1 rotation layer (sums of the last
        two teleports' outcome bits drive the shift; masks enter the offset)."""
        ox2, oz2 = self.out_x[2 * j - 2], self.out_z[2 * j - 2]
        ox3, oz3 = self.out_x[2 * j - 3], self.out_z[2 * j - 3]
        shift = tuple((ox2[s] + oz2[s] + ox3[s] + oz3[s]) % 2 for s in range(self.n))
        delta = tuple(
            (self.mask_x[s] + self.mask_z[s] + ox2[s] + oz2[s]) % 2
            for s in range(self.n)
        )
        return derive_h_queries(self.h_fresh[j - 1], shift, delta)


# -- run results -----------------------------------------------------------------

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
    labels = ["step-1", "step-2", "step-3", "step-4"]
    for j in range(2, m + 1):
        labels += [f"step-{4 * j - 3}", f"step-{4 * j - 2}",
                   f"step-{4 * j - 1}", f"step-{4 * j}"]
    labels += [f"step-{4 * m + 1}", f"step-{4 * m + 2}"]
    if include_local:
        labels.append(f"step-{4 * m + 3}")
    return labels


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
    n, m = w.n, w.m
    if not 1 <= n_circ <= n:
        raise ValueError(f"n_circ must be in [1, {n}]")
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

    streams = streams or make_streams(seed)
    registry = ChannelRegistry()
    registry.register(USER, SERVER_A)
    registry.register(USER, SERVER_B)

    reg = StateRegister(max_qubits=max_qubits)
    branch_records = []
    source = BranchSource(branch_plan)
    teleport = teleport_executor(reg, m, n, source, branch_records, eager_bell)
    user = ToqcUser(n, m, n_circ, streams.user, tcz_delta_coeff=tcz_delta_coeff)
    server_a = ProtocolServer(SERVER_A, "a", w, reg, teleport, streams.server_a)
    server_b = ProtocolServer(SERVER_B, "b", w, reg, teleport, streams.server_b)
    steps = []

    def send(msg, *recipients):
        registry.send(msg)
        steps.append(msg.step)
        for r in recipients:
            r.view.absorb(msg)

    # step 1: masked input (quantum or classical) plus the fresh phase queries
    t1, cz1 = user.fresh_tcz(1)
    parts = t_family_parts("t-query", t1) + cz_family_parts("cz-query", cz1)
    if classical_output:
        masked = tuple((b + a) % 2 for b, a in zip(basis_bits, user.mask_x))
        parts = (ClassicalPart("masked-bits", 1, masked),) + parts
        msg = StepMessage("step-1", USER, (SERVER_A,), parts)
        send(msg, server_a)
        data = reg.alloc_zero_qubits(n)
        for s in range(n):
            if masked[s]:
                apply_zx(reg, data[s], 1, 0)
    else:
        if psi is None:
            # |bits> from |0...0>, so the capacity check precedes any 2^n array
            data = reg.alloc_zero_qubits(n)
            for s in range(n):
                apply_zx(reg, data[s], basis_bits[s], 0)
        else:
            data = reg.alloc_state(psi)
        for s in range(n):
            apply_zx(reg, data[s], user.mask_x[s], user.mask_z[s])
        msg = StepMessage("step-1", USER, (SERVER_A,), parts, qubits=n)
        send(msg, server_a)
    server_a.store_queries(1, t=t1, cz=cz1)

    # step 2: server A's phase layers, first teleport
    xs, zs, data = server_a.unitary_round(1, data, "step-2")
    user.store_outcomes(1, xs, zs)
    msg = StepMessage(
        "step-2", SERVER_A, (USER,),
        (ClassicalPart("bell-x", 1, xs), ClassicalPart("bell-z", 1, zs)),
    )
    send(msg, user)

    def query_to_b(j, step):
        t, cz = user.derived_tcz(j)
        h = user.fresh_h(j)
        server_b.store_queries(j, t=t, cz=cz, h=h, h_round=j)
        parts = (
            t_family_parts("t-query-rederived", t)
            + cz_family_parts("cz-query-rederived", cz)
            + h_family_parts("h-query", h)
        )
        send(StepMessage(step, USER, (SERVER_B,), parts), server_b)

    def b_round(j, step):
        nonlocal data
        xs, zs, data = server_b.unitary_round(j, data, step)
        user.store_outcomes(2 * j, xs, zs)
        msg = StepMessage(
            step, SERVER_B, (USER,),
            (ClassicalPart("bell-x", 1, xs), ClassicalPart("bell-z", 1, zs)),
        )
        send(msg, user)

    # steps 3 and 4: server B finishes round 1
    query_to_b(1, "step-3")
    b_round(1, "step-4")

    for j in range(2, m + 1):
        # step 4j-3: rederived rotation queries + fresh phase queries, to A
        h = user.derived_h(j)
        t, cz = user.fresh_tcz(j)
        server_a.store_queries(j, t=t, cz=cz, h=h, h_round=j - 1)
        parts = (
            h_family_parts("h-query-rederived", h)
            + t_family_parts("t-query", t)
            + cz_family_parts("cz-query", cz)
        )
        send(StepMessage(f"step-{4 * j - 3}", USER, (SERVER_A,), parts), server_a)

        # step 4j-2: server A's round j
        xs, zs, data = server_a.unitary_round(j, data, f"step-{4 * j - 2}")
        user.store_outcomes(2 * j - 1, xs, zs)
        msg = StepMessage(
            f"step-{4 * j - 2}", SERVER_A, (USER,),
            (ClassicalPart("bell-x", 1, xs), ClassicalPart("bell-z", 1, zs)),
        )
        send(msg, user)

        query_to_b(j, f"step-{4 * j - 1}")
        b_round(j, f"step-{4 * j}")

    # step 4m+1: last rederived rotation queries, to A
    h = user.derived_h(m + 1)
    server_a.store_queries(m + 1, h=h, h_round=m)
    send(
        StepMessage(f"step-{4 * m + 1}", USER, (SERVER_A,),
                    h_family_parts("h-query-rederived", h)),
        server_a,
    )

    # step 4m+2: server A's final rotation layer, then hand over the output
    server_a.final_h_layer(data)
    out_x2m, out_z2m = user.out_x[2 * m], user.out_z[2 * m]
    branch_probability = 1.0
    for rec in branch_records:
        branch_probability *= rec.probs[(rec.outcome[0] << 1) | rec.outcome[1]]

    if classical_output:
        raw = reg.probabilities_on(data[:n_circ])
        bits = []
        for s in range(n_circ):
            b, _ = reg.measure_z(data[s], rng=server_a.rng)
            bits.append(b)
        msg = StepMessage(
            f"step-{4 * m + 2}", SERVER_A, (USER,),
            (ClassicalPart("output-bits", 1, tuple(bits)),),
        )
        send(msg, user)
        # step 4m+3: add back the teleport and input mask bits
        shift = tuple(
            (out_x2m[s] + user.mask_x[s]) % 2 for s in range(n_circ)
        )
        out_bits = tuple((bits[s] + shift[s]) % 2 for s in range(n_circ))
        steps.append(f"step-{4 * m + 3}")
        shift_idx = 0
        for b in shift:
            shift_idx = (shift_idx << 1) | b
        dist = np.empty_like(raw)
        for i in range(raw.size):
            dist[i ^ shift_idx] = raw[i]
        result_density = None
        output_bits = out_bits
        output_distribution = dist
    else:
        msg = StepMessage(f"step-{4 * m + 2}", SERVER_A, (USER,), qubits=n_circ)
        send(msg, user)
        received = data[:n_circ]
        # step 4m+3: undo the residual masks on the received qubits
        for s in range(n_circ):
            apply_xz(
                reg, received[s],
                (user.mask_x[s] + out_x2m[s]) % 2,
                (user.mask_z[s] + out_z2m[s]) % 2,
            )
        steps.append(f"step-{4 * m + 3}")
        result_density = reg.density_on(received)
        output_bits = None
        output_distribution = None

    source.check_exhausted()
    return ToqcRunResult(
        n=n, m=m, n_circ=n_circ, classical_output=classical_output,
        output_density=result_density,
        output_bits=output_bits,
        output_distribution=output_distribution,
        transcript=registry.transcript,
        ledger=registry.ledger,
        branch_records=branch_records,
        steps_executed=steps,
        views={USER: user.view, SERVER_A: server_a.view, SERVER_B: server_b.view},
        outcomes={"x": dict(user.out_x), "z": dict(user.out_z)},
        branch_probability=branch_probability,
    )


def enumerate_branches(w, psi=None, basis_bits=None, n_circ=1, seed=0, **kw):
    """Yield (plan, result) over every Bell branch assignment of a run."""
    num = 2 * w.m * w.n
    for idx, plan in enumerate(all_branch_plans(num)):
        yield plan, run_toqc(
            w, psi=psi, basis_bits=basis_bits, n_circ=n_circ,
            seed=(seed, idx), branch_plan=plan, **kw,
        )


# -- audit wiring ---------------------------------------------------------------
# Each setting is a (shift vector, delta vector) context; the derive closures
# enumerate the one uniform source coordinate that feeds output coordinate 0.

def _t_audit(name, setting_a, setting_b, coord=0, other=5):
    def derive(q, setting):
        sh, dl = setting
        n = len(sh)
        fresh = {u: [other] * n for u in (0, 1)}
        fresh[(coord - sh[0]) % 2][0] = q
        fresh = {u: tuple(v) for u, v in fresh.items()}
        return derive_t_queries(fresh, sh, dl)[coord][0]

    return QueryEquationAudit(name, 8, derive, setting_a, setting_b)


def _h_audit(name, setting_a, setting_b, coord=0, other=2):
    def derive(q, setting):
        sh, dl = setting
        n = len(sh)
        fresh = {u: [other] * n for u in (0, 1)}
        fresh[(coord - sh[0]) % 2][0] = q
        fresh = {u: tuple(v) for u, v in fresh.items()}
        return derive_h_queries(fresh, sh, dl)[coord][0]

    return QueryEquationAudit(name, 4, derive, setting_a, setting_b)


def _cz_audit(name, setting_a, setting_b, coord=(0, 0)):
    def derive(q, setting):
        sh, dl = setting
        fresh = {uv: (0,) for uv in UV_PAIRS}
        fresh[((coord[0] - sh[0]) % 2, (coord[1] - sh[1]) % 2)] = (q,)
        return derive_cz_queries(fresh, 2, sh, dl)[coord][0]

    return QueryEquationAudit(name, 2, derive, setting_a, setting_b)


def equation_audits():
    """The re-randomization equations with two distinct mask/outcome settings.

    Every wire value a server receives is either drawn fresh-uniform or comes
    out of one of these; each must be a bijection of its uniform source, so
    the marginals match for any two input contexts.
    """
    return [
        _t_audit("t-query round 1", (((0,), (0,))), (((1,), (1,)))),
        _t_audit("t-query round j", (((1,), (0,))), (((0,), (1,)))),
        _h_audit("h-query", (((1,), (0,))), (((0,), (1,)))),
        _cz_audit("cz-query round 1", (((0, 0), (0, 0))), (((1, 0), (0, 1)))),
        _cz_audit("cz-query round j", (((0, 1), (1, 1))), (((1, 1), (0, 0)))),
        QueryEquationAudit("fresh t-query", 8, lambda q, s: q, "ctx-a", "ctx-b"),
        QueryEquationAudit("fresh h-query", 4, lambda q, s: q, "ctx-a", "ctx-b"),
        QueryEquationAudit("fresh cz-query", 2, lambda q, s: q, "ctx-a", "ctx-b"),
    ]
