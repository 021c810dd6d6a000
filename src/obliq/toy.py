"""Single-qubit oblivious application of T^y by two non-communicating servers.

The user masks the input with a random ZX Pauli and uploads it to server A
together with two uniform phase queries. Server A applies its queried phases,
Bell-measures the qubit against its half of a shared Bell pair, and reports
the outcome. The user re-randomizes the queries so that server B's phases
telescope with server A's to exactly T^y, and undoes the masks on the qubit
it gets back.
"""

from typing import NamedTuple

import numpy as np

from .gates import as_ints, as_seed
from .harness import (
    BranchRecord,
    ChannelRegistry,
    ClassicalPart,
    StepMessage,
    as_bell_outcome,
)
from .layers import apply_masked_t_layer, apply_zx
from .qsim import StateRegister, as_state
from .toqc import derive_t_queries


class ToyResult(NamedTuple):
    y: int
    output_density: np.ndarray
    transcript: object
    ledger: object
    branch_records: list
    mask_x: int
    mask_z: int
    outcome: tuple
    views: dict


def rederive_queries(q, mask_x, outcome_x):
    """The second-round queries from the first, given the Bell X outcome.

    This is the one-wire case of `toqc.derive_t_queries`: shift by the X
    outcome, offset where u matches mask + outcome. The derived pair
    telescopes the two servers' phase exponents to y on the unmasked
    component.
    """
    qp = derive_t_queries({0: (q[0],), 1: (q[1],)}, (outcome_x,),
                          ((mask_x + outcome_x) % 2,))
    return qp[0][0], qp[1][0]


def _bit(value, what):
    (b,) = as_ints((value,), what)
    if b not in (0, 1):
        raise ValueError(f"{what} is {value!r}, not a bit")
    return b


def run_toy(y, psi, seed=None, force_masks=None, force_branch=None):
    """One protocol run; returns the corrected output density and the run record.

    `force_masks` fixes (mask_x, mask_z); `force_branch` postselects the Bell
    outcome (a, b). Unforced choices come from one stream seeded with `seed`
    (by `gates.as_seed`). `y` is an integer, taken mod 8; each forced mask
    is a bit.
    """
    y = as_ints((y,), "y")[0] % 8
    psi = as_state(psi, 1)
    if force_branch is not None:
        force_branch = as_bell_outcome(force_branch)
    if force_masks is not None:
        try:
            fx, fz = force_masks
        except (TypeError, ValueError):
            raise ValueError(f"force_masks is {force_masks!r}, not a pair of bits") from None
        force_masks = _bit(fx, "mask_x"), _bit(fz, "mask_z")
    rng = np.random.default_rng(as_seed(seed))

    registry = ChannelRegistry()
    registry.register("user", "server-a")
    registry.register("user", "server-b")

    reg = StateRegister()

    # step 0: the servers share one Bell pair
    half_a, half_b = reg.alloc_bell_pair()

    # step 1: mask the input, send it to server A with two uniform queries
    if force_masks is not None:
        mask_x, mask_z = force_masks
    else:
        mask_x, mask_z = int(rng.integers(0, 2)), int(rng.integers(0, 2))
    q = (int(rng.integers(0, 8)), int(rng.integers(0, 8)))
    (data,) = reg.alloc_state(psi)
    apply_zx(reg, data, mask_x, mask_z)
    registry.send(StepMessage(
        "step-1", "user", ("server-a",),
        (ClassicalPart("t-query", 3, q),), qubits=1,
    ))

    # step 2: server A applies its queried phases and Bell-measures
    apply_masked_t_layer(reg, [data], {0: (q[0],), 1: (q[1],)}, (y,))
    a1, b1, probs = reg.bell_measure(data, half_a, rng=rng, force=force_branch)
    registry.send(StepMessage(
        "step-2", "server-a", ("user",),
        (ClassicalPart("bell-x", 1, (a1,)), ClassicalPart("bell-z", 1, (b1,))),
    ))

    # step 3: rederived queries go to server B
    qp = rederive_queries(q, mask_x, a1)
    registry.send(StepMessage(
        "step-3", "user", ("server-b",),
        (ClassicalPart("t-query-rederived", 3, qp),),
    ))

    # step 4: server B applies the rederived phases and returns the qubit
    apply_masked_t_layer(reg, [half_b], {0: (qp[0],), 1: (qp[1],)}, (y,))
    registry.send(StepMessage("step-4", "server-b", ("user",), qubits=1))

    # step 5: undo the masks (local)
    apply_zx(reg, half_b, (mask_x + a1) % 2, (mask_z + b1) % 2)

    return ToyResult(
        y=y,
        output_density=reg.density_on([half_b]),
        transcript=registry.transcript,
        ledger=registry.transcript.ledger(),
        branch_records=[BranchRecord("step-2", 1, probs, (a1, b1))],
        mask_x=mask_x,
        mask_z=mask_z,
        outcome=(a1, b1),
        views=registry.transcript.views(("user", "server-a", "server-b")),
    )
