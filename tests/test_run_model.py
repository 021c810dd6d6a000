"""A model of the resumable run: any sequence of `open`, `hop` (forced,
sampled or refused), `snapshot`, `restore` (off the current path included)
and `run_through` leaves a `ProtocolRun` equal to a fresh run that replays
the calls of its current path, and a refused call changes nothing.

The model keeps the path as the list of calls that made the run's state:
`open`, then each accepted hop with the outcomes it was given (None when
sampled), each with a token of its own. A restore puts back the snapshot's
path. A snapshot lies on the current path while its path is a prefix of the
current one, tokens included: an `open` or a hop undone and taken again is
another call.
"""

from itertools import count

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, initialize, invariant, rule

from obliq import tgdmqc, toqc
from obliq.gates import random_program
from obliq.harness import BELL_OUTCOMES
from obliq.oracle import random_state

# (protocol, n, m, eager_bell): both planes, the physical one while its
# 4mn + n qubits stay at most 12
CONFIGS = [(protocol, n, m, eager)
           for protocol in ("toqc-quantum", "toqc-classical", "tgdmqc")
           for n in (1, 2) for m in (1, 2) for eager in (False, True)
           if not eager or 4 * m * n + n <= 12]


def make_run(protocol, n, m, eager):
    rng = np.random.default_rng((n, m, 150))
    w = random_program(n, m, rng)
    if protocol == "toqc-quantum":
        return toqc._ToqcRun(w, random_state(n, rng), None, 1, seed=151, eager_bell=eager)
    if protocol == "toqc-classical":
        bits = tuple(int(b) for b in rng.integers(0, 2, size=n))
        return toqc._ToqcRun(w, None, bits, n, seed=151, classical_output=True,
                             eager_bell=eager)
    return tgdmqc._Run(w, random_program(n, m, rng).rounds, n, 151, eager_bell=eager)


def state_of(run):
    """Everything the model compares: the logs, the families in flight, the
    streams, the frame, the register's bytes and, after the readout, the
    output."""
    plane = run.plane
    state = (run.registry.transcript.render(), tuple(run.hops), run.branch_records,
             [run.rngs.index(rng) for rng in run.drawn], run.fresh,
             [rng.bit_generator.state for rng in run.rngs],
             None if plane.data is None else [q.uid for q in plane.data],
             tuple(plane._queued), plane.reg.amplitudes().tobytes())
    if len(run.hops) <= 2 * run.m:
        return state
    outputs = (run.output_bits, run.branch_probability.hex(),
               *(None if a is None else a.tobytes()
                 for a in (run.output_distribution, run.output_density)))
    return state + outputs


def replay(config, path):
    """A fresh run driven through the calls of `path`."""
    run = make_run(*config)
    for call, *args in path:
        if call == "open":
            run.open()
        else:
            k, outcomes, _ = args
            run.hop(k, outcomes)
    return run


def forced(n):
    return st.lists(st.sampled_from(BELL_OUTCOMES), min_size=n, max_size=n).map(tuple)


def broken(n):
    """Forced outcomes that break the entry rule: a wrong count, an entry
    that is not a pair of bits, or no sequence at all."""
    entry = st.sampled_from([(0, 2), (1,), (0, 1, 1), 1, (0.5, 1), "01", (-1, 0)])
    return st.one_of(
        st.lists(st.sampled_from(BELL_OUTCOMES), max_size=n + 1).filter(lambda v: len(v) != n),
        st.tuples(forced(n), entry).map(lambda v: v[0][:-1] + (v[1],)),
        st.just(5))


class RunModel(RuleBasedStateMachine):
    snapshots = Bundle("snapshots")

    @initialize(target=snapshots, config=st.sampled_from(CONFIGS))
    def start(self, config):
        self.config = config
        self.run = make_run(*config)
        self.path = []
        self.tokens = count()
        return self.snapshot()

    def _hops_taken(self):
        return [entry for entry in self.path if entry[0] == "hop"]

    def _refused(self, call):
        before = state_of(self.run)
        try:
            call()
        except ValueError:
            pass
        else:
            raise AssertionError(f"{call} was accepted, the model refuses it")
        assert state_of(self.run) == before, "a refused call changed the run"

    @rule(target=snapshots)
    def open(self):
        """Open the run, then take a snapshot."""
        if self.path:
            self._refused(self.run.open)
        else:
            self.run.open()
            self.path.append(("open", next(self.tokens)))
        return self.snapshot()

    @rule(kind=st.sampled_from(["sampled", "forced", "broken", "out of order"]),
          data=st.data())
    def hop(self, kind, data):
        n, m = self.run.n, self.run.m
        k = due = len(self._hops_taken()) + 1
        if kind == "out of order":
            k = data.draw(st.integers(0, 2 * m + 1).filter(lambda v: v != due))
        outcomes = data.draw({"sampled": st.none(), "forced": forced(n), "broken": broken(n),
                              "out of order": st.one_of(st.none(), forced(n))}[kind])
        if self.path and due <= 2 * m and kind in ("sampled", "forced"):
            self.run.hop(k, outcomes)
            self.path.append(("hop", k, outcomes, next(self.tokens)))
        else:
            self._refused(lambda: self.run.hop(k, outcomes))

    @rule()
    def run_through(self):
        if self.path:
            self._refused(self.run.run_through)
            return
        self.run.run_through()
        self.path = [("open", next(self.tokens))] + [
            ("hop", k, None, next(self.tokens)) for k in range(1, 2 * self.run.m + 1)]

    @rule(target=snapshots)
    def snapshot(self):
        return self.run.snapshot(), tuple(self.path)

    @rule(snap=snapshots)
    def restore(self, snap):
        raw, path = snap
        if list(path) == self.path[:len(path)]:
            self.run.restore(raw)
            self.path = list(path)
        else:
            self._refused(lambda: self.run.restore(raw))

    @invariant()
    def equals_its_replay(self):
        if hasattr(self, "run"):
            assert state_of(self.run) == state_of(replay(self.config, self.path)), self.path


RunModel.TestCase.settings = settings(
    derandomize=True, database=None, deadline=None, max_examples=60,
    stateful_step_count=20, suppress_health_check=[HealthCheck.too_slow])
test_run_model = RunModel.TestCase
