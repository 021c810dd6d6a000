"""Run plumbing shared by the protocols.

Covers message records with exact wire sizes, the upload/download ledger,
channel registration with structural non-communication between servers,
branch-outcome forcing, the complexity audits and the secrecy audits of
the quantum side (the mask average and the Bell branch probabilities). The
query audit sits in `toqc`, next to the derivations it checks.
"""

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .gates import as_bits, as_count, as_ints, check_n_circ, line_int, matrix_of
from .qsim import as_state, trace_distance


class ChannelError(RuntimeError):
    pass


def is_server(name):
    return name.startswith("server")


def is_user(name):
    return name.startswith("user")


# ClassicalPart keeps its own __init__ (one dict update, then the check)
# because its check, `__post_init__`, is a step the benchmark tracer counts;
# the records that check nothing are NamedTuples.

@dataclass(frozen=True, init=False)
class ClassicalPart:
    """One residue vector on the wire: `width` bits per entry."""

    name: str
    width: int
    values: tuple

    def __init__(self, name, width, values):
        self.__dict__.update(name=name, width=width, values=values)
        self.__post_init__()

    def __post_init__(self):
        values = as_ints(self.values, self.name)
        self.__dict__["values"] = values
        width = self.width
        # an integer: the float twin 2.0 would pass the membership test
        if not isinstance(width, (int, np.integer)) or width not in (1, 2, 3):
            raise ValueError(f"{self.name}: entry width {width!r} is not 1, 2 or 3 bits")
        if values and (min(values) < 0 or max(values) >= 1 << width):
            bad = next(v for v in values if not 0 <= v < 1 << width)
            raise ValueError(f"{self.name}: value {bad} is outside [0, {1 << width}) "
                             f"for width {width}")


def wire_kind(bits, qubits):
    """A message's kind from what it carries: classical, quantum or mixed."""
    if qubits and bits:
        return "mixed"
    return "quantum" if qubits else "classical"


class StepMessage(NamedTuple):
    step: str
    sender: str
    receivers: tuple
    parts: tuple = ()
    qubits: int = 0

    @property
    def bits(self):
        return sum([p.width * len(p.values) for p in self.parts])

    @property
    def kind(self):
        return wire_kind(self.bits, self.qubits)

    @property
    def digest(self):
        h = hashlib.sha256()
        for p in self.parts:
            h.update(p.name.encode())
            h.update(bytes([p.width]))
            h.update(",".join(str(v) for v in p.values).encode())
        h.update(str(self.qubits).encode())
        return h.hexdigest()[:16]


class Transcript:
    """The messages sent, in order: `StepMessage`s, or the `ParsedRecord`s of
    text read back, which `render` (numbering from 1) gives back unchanged."""

    def __init__(self):
        self.records = []

    def render(self):
        return "\n".join(
            f"{seq} {m.step} {m.sender} {'+'.join(m.receivers)} "
            f"{m.kind} {m.bits} {m.qubits} {m.digest}"
            for seq, m in enumerate(self.records, 1)
        ) + "\n"

    def step_labels(self):
        return [m.step for m in self.records]

    def views(self, names):
        """Each named party's view, replayed from the messages it received."""
        views = {name: PartyView(name) for name in names}
        for m in self.records:
            for receiver in m.receivers:
                views[receiver].absorb(m)
        return views

    def ledger(self):
        """The ledger of the recorded messages, built with `ComplexityLedger.add`."""
        ledger = ComplexityLedger()
        for m in self.records:
            ledger.add(m)
        return ledger


class ParsedRecord(NamedTuple):
    """One rendered transcript line; it stands in for the StepMessage it
    describes wherever only the sender, receivers, step and sizes count."""

    seq: int
    step: str
    sender: str
    receivers: tuple
    kind: str
    bits: int
    qubits: int
    digest: str


def parse_transcript(text):
    out = []
    for lineno, line in enumerate(text.splitlines(), 1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 8:
            raise ValueError(
                f"transcript line {lineno}: expected 8 fields, got {len(fields)}"
            )
        seq, step, sender, receiver, kind, bits, qubits, digest = fields
        out.append(
            ParsedRecord(
                line_int("transcript", lineno, seq, "seq"), step, sender,
                tuple(receiver.split("+")), kind, line_int("transcript", lineno, bits, "bits"),
                line_int("transcript", lineno, qubits, "qubits"), digest,
            )
        )
    for i, rec in enumerate(out):
        if rec.seq != i + 1:
            raise ValueError(f"sequence numbers not strictly increasing at {rec.seq}")
    return out


@dataclass
class ComplexityLedger:
    upload_bits: int = 0
    upload_qubits: int = 0
    download_bits: int = 0
    download_qubits: int = 0

    def add(self, message):
        """Count a user's message as an upload and a server's as a download;
        every message must go between users and servers."""
        if is_user(message.sender):
            peer = is_server
        elif is_server(message.sender):
            peer = is_user
        else:
            raise ValueError(f"unknown party {message.sender!r}")
        for r in message.receivers:
            if not peer(r):
                raise ValueError(f"{message.step}: {message.sender} -> {r} "
                                 "is not a user-server channel")
        if peer is is_server:
            self.upload_bits += message.bits
            self.upload_qubits += message.qubits
        else:
            self.download_bits += message.bits
            self.download_qubits += message.qubits

    def totals(self):
        return (
            self.upload_bits, self.upload_qubits,
            self.download_bits, self.download_qubits,
        )

    def matches_transcript(self, transcript):
        return self.totals() == transcript.ledger().totals()


class ChannelRegistry:
    """Known communication edges, each kept as its two ordered (sender,
    receiver) pairs; a server-to-server edge cannot be built."""

    def __init__(self):
        self._edges = set()
        self.transcript = Transcript()

    def register(self, a, b):
        if is_server(a) and is_server(b):
            raise ChannelError(f"servers may not communicate: {a} <-> {b}")
        self._edges.update(((a, b), (b, a)))

    def send(self, message):
        """Record `message`, or refuse it whole if a receiver has no channel."""
        sender = message.sender
        for r in message.receivers:
            if (sender, r) not in self._edges:
                raise ChannelError(f"no channel {sender} -> {r}")
        self.transcript.records.append(message)


@dataclass
class PartyView:
    """What one party has seen: received classical parts and qubit counts."""

    name: str
    received: list = field(default_factory=list)
    received_qubits: int = 0

    def absorb(self, message):
        for p in message.parts:
            self.received.append((message.step, p.name, p.values))
        self.received_qubits += message.qubits


class BranchRecord(NamedTuple):
    """One teleport hop. `measured` is False for a Pauli-frame hop, whose
    uniform `probs` are the known law of a Bell measurement, not amplitudes
    read off the register."""

    step: str
    qubit_slot: int
    probs: tuple
    outcome: tuple
    measured: bool = True


BELL_OUTCOMES = ((0, 0), (0, 1), (1, 0), (1, 1))


def as_bell_outcome(entry, what="branch plan entry"):
    """`entry` as a Bell outcome, a pair (a, b) of 0/1 ints by `as_bits`;
    anything else raises a ValueError naming `what` and the entry. It checks
    outcomes where they enter: a forced plan, a public hop, a toy branch."""
    try:
        return as_bits(entry, "entry", 2)
    except ValueError:
        raise ValueError(f"{what} {entry!r} is not a Bell outcome (a, b)") from None


def cut_branch_plan(plan, hops, width):
    """Check a forced plan of hops * width Bell outcomes, in chronological
    order, and cut it into one tuple of `width` (a, b) int pairs per hop."""
    try:
        plan = list(plan)
    except TypeError:
        raise ValueError(f"branch_plan is {plan!r}, not a sequence of Bell outcomes") from None
    if len(plan) != hops * width:
        raise ValueError(
            f"branch plan has {len(plan)} outcomes, the run makes {hops * width}"
        )
    plan = [as_bell_outcome(entry) for entry in plan]
    return tuple(tuple(plan[k * width:(k + 1) * width]) for k in range(hops))


def all_branch_plans(num_measurements):
    """Every assignment of (a, b) outcomes to the given number of measurements."""
    return itertools.product(BELL_OUTCOMES, repeat=num_measurements)


# -- verdicts ----------------------------------------------------------------

@dataclass
class Verdict:
    name: str
    ok: bool
    details: list = field(default_factory=list)

    def __bool__(self):
        return self.ok


# -- complexity assertions ----------------------------------------------------

def expected_toqc_steps(n, m, n_circ, classical_output=False):
    """Per-step (direction, bits, qubits) table for a two-server run."""
    quantum = not classical_output
    steps = {}
    for j in range(1, m + 1):
        steps[f"step-{4 * j - 3}"] = ("up", 2 * n * n + 8 * n, 0)
        steps[f"step-{4 * j - 2}"] = ("down", 2 * n, 0)
        steps[f"step-{4 * j - 1}"] = ("up", 2 * n * n + 8 * n, 0)
        steps[f"step-{4 * j}"] = ("down", 2 * n, 0)
    # step 1 carries the fresh query families and the input
    steps["step-1"] = ("up", 2 * n * n + 4 * n + (0 if quantum else n), n if quantum else 0)
    steps[f"step-{4 * m + 1}"] = ("up", 4 * n, 0)
    steps[f"step-{4 * m + 2}"] = ("down", 0 if quantum else n_circ, n_circ if quantum else 0)
    return steps


def expected_tgdmqc_steps(n, m, n_circ):
    steps = expected_toqc_steps(n, m, n_circ, classical_output=True)
    # no input state to send: step 1 carries only the fresh query families
    steps["step-1"] = ("up", 2 * n * n + 4 * n, 0)
    return steps


LEDGER_LABELS = ("upload_bits", "upload_qubits", "download_bits", "download_qubits")


def _check_ledger(name, ledger, expect, transcript, step_table):
    v = Verdict(name, True)
    for label, got, want in zip(LEDGER_LABELS, ledger.totals(), expect):
        if got != want:
            v.ok = False
            v.details.append(f"{label}: got {got}, expected {want}")
    if transcript is not None:
        if not ledger.matches_transcript(transcript):
            v.ok = False
            v.details.append("ledger does not equal the transcript column sums")
        seen = {}
        for msg in transcript.records:
            b, q = seen.get(msg.step, (0, 0))
            seen[msg.step] = (b + msg.bits, q + msg.qubits)
            # "up" goes from a user to a server, "down" the other way
            direction = step_table.get(msg.step, ("",))[0]
            if direction and (direction == "up") != is_user(msg.sender):
                v.ok = False
                v.details.append(f"{msg.step}: sent by {msg.sender}, "
                                 f"but the step goes {direction}")
        for step, (_, bits, qubits) in step_table.items():
            got = seen.get(step)
            if got is None:
                v.ok = False
                v.details.append(f"{step}: missing from the transcript")
            elif got != (bits, qubits):
                v.ok = False
                v.details.append(
                    f"{step}: got {got[0]} bits / {got[1]} qubits, "
                    f"expected {bits} / {qubits}"
                )
        for step in seen:
            if step not in step_table:
                v.ok = False
                v.details.append(f"{step}: unexpected transcript step")
        labels = [step for step in transcript.step_labels() if step in step_table]
        if labels != sorted(labels, key=list(step_table).index):
            v.ok = False
            v.details.append(f"steps out of order: {' '.join(labels)}")
    return v


def assert_complexity_toqc(ledger, n, m, n_circ, transcript=None, classical_output=False):
    """Exact check of the run totals against the per-step accounting."""
    bits = (4 * n * n + 16 * n) * m
    if classical_output:
        expect = (bits + n, 0, 4 * n * m + n_circ, 0)
    else:
        expect = (bits, n, 4 * n * m, n_circ)
    table = expected_toqc_steps(n, m, n_circ, classical_output)
    return _check_ledger("toqc-complexity", ledger, expect, transcript, table)


def assert_complexity_tgdmqc(ledger, n, m, n_circ, transcript=None):
    expect = ((4 * n * n + 16 * n) * m, 0, 4 * n * m + n_circ, 0)
    table = expected_tgdmqc_steps(n, m, n_circ)
    return _check_ledger("tgdmqc-complexity", ledger, expect, transcript, table)


def audit_transcript_file(text, protocol, n, m, n_circ, classical_output=False):
    """Re-check transcript text under the rules of a live run: the ledger
    is rebuilt with `ComplexityLedger.add`, then the totals, every step's
    sizes and direction and the order of the steps are checked against the
    exact per-step table, and each record's kind against its bits and
    qubits. A record between two servers or naming an unknown party fails
    the verdict. The digests are not re-checked: that needs the message
    parts, which the text does not hold. A protocol, shape or flag that no
    run can have raises a ValueError. A run of m rounds sends at least one
    record per step, so an m above the number of records fails with one
    detail, before the O(m) per-step table is built."""
    if protocol not in ("toqc", "tgdmqc"):
        raise ValueError(f"unknown protocol {protocol!r}")
    if classical_output and protocol == "tgdmqc":
        raise ValueError("--classical-output applies only to toqc transcripts")
    n, m = as_count(n, "n"), as_count(m, "m")
    n_circ = check_n_circ(n_circ, n)
    transcript = Transcript()
    transcript.records = parse_transcript(text)
    if m > len(transcript.records):
        return Verdict(f"{protocol}-complexity", False, [
            f"m is {m}, but the transcript holds only {len(transcript.records)} "
            f"record(s), fewer than the {4 * m + 2} steps of m rounds"])
    try:
        ledger = transcript.ledger()
    except ValueError as exc:
        return Verdict(f"{protocol}-complexity", False, [str(exc)])
    if protocol == "toqc":
        v = assert_complexity_toqc(ledger, n, m, n_circ, transcript=transcript,
                                   classical_output=classical_output)
    else:
        v = assert_complexity_tgdmqc(ledger, n, m, n_circ, transcript=transcript)
    for r in transcript.records:
        want = wire_kind(r.bits, r.qubits)
        if r.kind != want:
            v.ok = False
            v.details.append(f"{r.step}: kind {r.kind}, expected {want}")
    return v


# -- secrecy audits -----------------------------------------------------------

MASK_AVERAGE_MAX_N = 6


def audit_mask_average(psi):
    """Average the masked input over all 4^n per-qubit ZX masks.

    The average must be the maximally mixed state; that makes the uploaded
    quantum payload independent of the input.
    """
    psi = as_state(psi)
    n = psi.size.bit_length() - 1
    if n > MASK_AVERAGE_MAX_N:
        raise ValueError(f"mask enumeration capped at n <= {MASK_AVERAGE_MAX_N}")
    acc = np.zeros((1 << n, 1 << n), dtype=np.complex128)
    xg, zg = matrix_of("X"), matrix_of("Z")
    for masks in itertools.product(range(4), repeat=n):
        op = np.eye(1, dtype=np.complex128)
        for msk in masks:
            a, b = msk & 1, msk >> 1
            local = (zg if b else np.eye(2)) @ (xg if a else np.eye(2))
            op = np.kron(op, local)
        v = op @ psi
        acc += np.outer(v, v.conj())
    acc /= 4**n
    dist = trace_distance(acc, np.eye(1 << n) / (1 << n))
    v = Verdict("mask-average", dist <= 1e-12)
    v.details.append(f"trace distance to I/2^n: {dist:.3e}")
    return v


def audit_bell_uniformity(branch_records):
    """Every measured Bell branch probability must be exactly 1/4.

    Pauli-frame hops measure no amplitudes, so they are counted as not
    applicable rather than passed.
    """
    v = Verdict("bell-uniformity", True)
    measured = [rec for rec in branch_records if rec.measured]
    skipped = len(branch_records) - len(measured)
    if skipped:
        v.details.append(f"not applicable (Pauli-frame executor) for {skipped} hops")
        if not measured:
            return v
    worst = max((abs(p - 0.25) for rec in measured for p in rec.probs), default=0.0)
    v.ok = worst <= 1e-12
    v.details.append(f"max |prob - 1/4|: {worst:.3e} over {len(measured)} measurements")
    return v

