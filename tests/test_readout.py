"""The classical readout draws each bit from the exact law it has already
computed, and gives, bit for bit and draw for draw, what the per-qubit
`measure_z` readout before it gave.

That readout is kept here as the reference: it Z-measured the data qubits
one at a time, collapsing and renormalizing the register after each. Both
readouts take one uniform per bit from server A's stream, so a seeded run
must end with the same bits and the same server-A stream state under either,
on both data planes, for toqc's classical output and for tgdmqc.
"""

import numpy as np
import pytest

from obliq import toqc
from obliq.gates import random_program, zero_program
from obliq.tgdmqc import _Run


def reference_measure(self, count, rng):
    dist = self.reg.probabilities_on(self.data[:count])
    return dist, tuple(self.reg.measure_z(q, rng=rng)[0] for q in self.data[:count])


class ReferenceFrame(toqc.PauliFrame):
    measure = reference_measure


class ReferenceBellStore(toqc.BellStore):
    measure = reference_measure


# 40 seeds per (n, n_circ) shape: 2,160 runs over the cases below
SEEDS = range(40)
# the pre-shared pairs hold 4mn + n qubits; the physical plane runs up to 15
EAGER_MAX_QUBITS = 15


def _run(protocol, n, m, n_circ, seed, eager_bell):
    """A run of the protocol; every fourth seed runs the zero program, whose
    output is one basis state, so some conditional laws are exactly 0 or 1."""
    rng = np.random.default_rng((n, m, n_circ, seed, 60))
    programs = (zero_program(n, m),) * 2 if seed % 4 == 0 else (
        random_program(n, m, rng), random_program(n, m, rng))
    if protocol == "tgdmqc":
        return _Run(programs[0], programs[1].rounds, n_circ, seed, eager_bell=eager_bell)
    bits = tuple(int(b) for b in rng.integers(0, 2, size=n))
    return toqc._ToqcRun(programs[0], None, bits, n_circ, seed=seed,
                         classical_output=True, eager_bell=eager_bell)


# (protocol, plane, n): the frame at n = 1..6, the physical plane where its
# pairs fit at m = 1
CASES = [pytest.param(protocol, eager_bell, n,
                      id=f"{protocol}-{'eager_bell' if eager_bell else 'frame'}-n={n}")
         for protocol in ("toqc", "tgdmqc") for eager_bell in (False, True)
         for n in range(1, 7) if not eager_bell or 4 * n + n <= EAGER_MAX_QUBITS]


@pytest.mark.parametrize("protocol,eager_bell,n", CASES)
def test_law_readout_equals_per_qubit_measure_z(monkeypatch, protocol, eager_bell, n):
    runs = 0
    for n_circ in range(1, n + 1):
        for seed in SEEDS:
            m = 1 + seed % 2
            if eager_bell and 4 * m * n + n > EAGER_MAX_QUBITS:
                m = 1
            got = _run(protocol, n, m, n_circ, seed, eager_bell)
            got.run_through()
            with monkeypatch.context() as patch:
                patch.setattr(toqc, "PauliFrame", ReferenceFrame)
                patch.setattr(toqc, "BellStore", ReferenceBellStore)
                want = _run(protocol, n, m, n_circ, seed, eager_bell)
                want.run_through()
            assert type(want.plane).measure is reference_measure
            assert got.output_bits == want.output_bits, (n, m, n_circ, seed)
            assert got.output_distribution.tobytes() == want.output_distribution.tobytes()
            assert (got.registry.transcript.render()
                    == want.registry.transcript.render())
            assert (got.server_a.rng.bit_generator.state
                    == want.server_a.rng.bit_generator.state), (n, m, n_circ, seed)
            runs += 1
    assert runs == n * len(SEEDS)
