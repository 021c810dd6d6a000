"""The branch walk's bytes, pinned.

The walk tests compare each leaf with a single run on the same seed and
plan; both share the schedule, so the two could drift together. This digest
pins the walk itself: the summed output law, the joint law of the Bell
outcomes and the total, by their bytes and `.hex()`, and each leaf's plan,
output bits, readout law and transcript, at two shapes and both readout
widths, for a few seeds. A quantum-output toqc walk adds each leaf's
density matrix, the one path of the served rows that no tgdmqc leaf reads.
"""

import hashlib

import numpy as np

from obliq import toqc
from obliq.gates import random_program
from obliq.oracle import random_state
from obliq.tgdmqc import _Run, exhaustive_output_distribution

# sha256 over the walks below, as the walk produced them before its per-walk
# and per-node tables
WALK_DIGEST = "030cd3b58b36886661f47c60ed1161a9ba9d9fec48acefb27c996f981cb64a86"

# (n, m, n_circ): both shapes the walk tests run, at every readout width
SHAPES = ((2, 1, 1), (2, 1, 2), (1, 2, 1))
SEEDS = (0, 1, 2)


def _leaf_bytes(h, plan, run):
    res = run.result()
    h.update(repr(plan).encode())
    h.update(repr(res.output_bits).encode())
    h.update(res.branch_probability.hex().encode())
    for arr in (res.output_distribution, res.output_density):
        if arr is not None:
            h.update(arr.tobytes())
    h.update(res.transcript.render().encode())


def test_the_walk_bytes_are_pinned():
    h = hashlib.sha256()
    for n, m, n_circ in SHAPES:
        for seed in SEEDS:
            rng = np.random.default_rng((n, m, n_circ, seed, 150))
            w, rounds = random_program(n, m, rng), random_program(n, m, rng).rounds
            acc, joint, total = exhaustive_output_distribution(w, rounds, n_circ, seed=seed)
            h.update(acc.tobytes())
            for plan, p in joint.items():
                h.update(repr(plan).encode())
                h.update(p.hex().encode())
            h.update(total.hex().encode())
            for plan, run in _Run(w, rounds, n_circ, seed).leaves():
                _leaf_bytes(h, plan, run)
    rng = np.random.default_rng(151)
    w = random_program(2, 1, rng)
    for plan, run in toqc._ToqcRun(w, random_state(2, rng), None, 2, seed=3).leaves():
        _leaf_bytes(h, plan, run)
    assert h.hexdigest() == WALK_DIGEST
