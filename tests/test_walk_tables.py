"""The walk's per-walk tables: `PauliFrame.stack` builds the combos' X and Z
register masks once per walk and keeps them for the one combos tuple it is
handed at every node, puts the node's queued Pauli on top as one XOR mask
and builds one H layer value per distinct family object. A frame that
stacks the same combos again under another queued Pauli, or another combos
tuple, must serve what a fresh frame serves, and what the per-sibling
passes give, byte for byte, inside a walk's table (`interned` a dict) and
in a direct call (`interned` None)."""

import numpy as np
import pytest

from obliq import toqc
from obliq.gates import Program, ProgramRound
from obliq.oracle import random_state
from test_stacked_hop import _combos

N = 4


def _frame(w, state, interned):
    """A Pauli frame at m = 1 on `state`, before hop 1."""
    plane = toqc.PauliFrame(w)
    plane.load()
    plane.reg.install(state.copy())
    plane.interned = interned
    return plane


def _served(plane, queued, combos, families, n_circ, stacked=True):
    """Hop 1 with `queued`, then the rows a stack of `combos` serves, or
    without `stacked` the per-sibling passes: each sibling's state after
    hop 2, after the rotation layer, and its law."""
    plane.hop(1, "a", None, queued)
    snap = plane.snapshot()
    if stacked:
        plane.stack(2, combos, families, n_circ)
    rows = []
    for combo, family in zip(combos, families):
        plane.restore(snap)
        plane.hop(2, "b", None, combo)
        after = plane.reg.amplitudes().tobytes()
        plane.h_layer(1, family)
        dist, _ = plane.measure(n_circ, np.random.default_rng(0))
        rows.append((after, plane.reg.amplitudes().tobytes(), dist.tobytes()))
    return rows


@pytest.mark.parametrize("n_circ", [1, 2])
@pytest.mark.parametrize("walk", [False, True], ids=["direct", "in-a-walk"])
def test_a_frame_stacking_twice_serves_what_fresh_frames_serve(walk, n_circ):
    rng = np.random.default_rng((N, n_circ, 152))
    x = tuple(int(v) for v in rng.integers(0, 4, size=N))
    w = Program(N, (ProgramRound(x, (0,) * N, (0,) * (N * (N - 1) // 2)),))
    state = random_state(N, rng)
    # 64 sampled combos, the same tuple again, then its reverse: the second
    # stack reuses the first one's masks under another queued Pauli, the
    # third builds its own masks for a combos tuple of equal length
    combos = tuple(_combos(N, rng))
    assert len(combos) == 64
    runs = []
    for order in (combos, combos, combos[::-1]):
        queued = tuple(tuple(int(b) for b in ab) for ab in rng.integers(0, 2, size=(N, 2)))
        # three family objects shared among the rows, as a walk shares one
        # object among the siblings of one outcome parity
        pool = [{u: tuple(int(v) for v in row) for u, row in enumerate(rows)}
                for rows in rng.integers(0, 4, size=(3, 2, N))]
        runs.append((order, queued, [pool[i] for i in rng.integers(0, 3, size=len(order))]))
    assert len({queued for _, queued, _ in runs}) == 3

    plane = _frame(w, state, {} if walk else None)
    start = plane.snapshot()
    for i, (order, queued, families) in enumerate(runs):
        if i:
            plane.restore(start)
        got = _served(plane, queued, order, families, n_circ)
        for stacked in (True, False):
            fresh = _frame(w, state, {} if walk else None)
            assert got == _served(fresh, queued, order, families, n_circ, stacked), (i, stacked)
