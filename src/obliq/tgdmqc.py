"""Delegated multiparty computation: m+1 classical-only users, two servers.

This is the two-server schedule of `toqc.ProtocolRun` in a second
configuration:

- masks: none, so every user re-derives queries from the outcomes alone;
- coefficients: the run's table `coeffs` is a second program w', whose
  round j only user j's re-derived queries read, as their offset
  coefficients; that turns every applied layer into the corresponding layer
  of the product program w . w';
- routing: hop 2j-1 goes to user j and hop 2j to users j and j+1, so user
  m+1 receives the last outcomes and the readout;
- input: server A allocates |0...0> itself;
- output: server A measures, and user m+1 XORs the last X outcomes into the
  bits to reconstruct a measurement of W(w . w')|0...0>.

No qubit ever travels to or from a user; everything on the user side is
classical.
"""

import numpy as np

from .gates import Program, as_program, as_rounds, program_product
from .oracle import ideal_outcome_distribution, total_variation
from .toqc import (  # noqa: F401
    ProtocolRun,
    ProtocolUser,
    make_streams,
    # not called here; the benchmark tracer wraps the draw and derive names
    # in this module (ROADMAP item 2)
    derive_cz_queries,
    derive_h_queries,
    derive_t_queries,
    draw_cz_family,
    draw_h_family,
    draw_t_family,
)


def user_name(j):
    return f"user-{j}"


class _Run(ProtocolRun):
    """The schedule with users 1..m, user j holding round j of w' as the
    run's coefficients of round j, and user m+1 as the reader."""

    def __init__(self, w, user_rounds, n_circ, seed, **kw):
        w = as_program(w, "w")
        n, m = w.n, w.m
        user_rounds = as_rounds(user_rounds, n, "user_rounds")
        if len(user_rounds) != m:
            raise ValueError(f"expected {m} user rounds, got {len(user_rounds)}")
        # the one stream rule, `make_streams(seed, parties)`: users 1..m+1
        # (user m+1 draws nothing), then server A, then server B
        rngs = make_streams(seed, m + 3)
        users = [ProtocolUser(user_name(j), rngs[j - 1], (0,) * n, (0,) * n)
                 for j in range(1, m + 2)]
        super().__init__(w, n_circ, users, rngs[m + 1:], coeffs=user_rounds, **kw)

    def outcome_table(self):
        """Every hop's outcomes in the order they were measured."""
        return {"chronological": tuple([r.outcome for *_, rs in self.hops for r in rs])}


def run_tgdmqc(
    w,
    user_rounds,
    n_circ=1,
    *,
    seed=None,
    eager_bell=False,
    branch_plan=None,
):
    """One full run; `user_rounds` is the list of the m users' w' rounds.

    Returns a `toqc.RunResult` whose `output_distribution` is the exact
    distribution of the reconstructed bits given the run's Bell branch (the
    sampled `output_bits` are one draw from it). The run holds n live
    qubits; `eager_bell=True` selects the physical reference executor, which
    holds 4mn + n. Either must fit the OBLIQ_MAX_QUBITS cap (`qsim`).
    """
    return _Run(w, user_rounds, n_circ, seed, eager_bell=eager_bell,
                branch_plan=branch_plan).run_through()


def exhaustive_output_distribution(w, user_rounds, n_circ=1, seed=0, **kw):
    """Exact output distribution summed over every Bell branch.

    Walks the tree of the 4^(2mn) Bell outcome plans depth-first: the state
    after each hop is snapshotted once, and each of the hop's 4^n outcome
    combinations continues from it, so a shared prefix runs once. At the
    last hop the Pauli frame computes the data plane of all 4^n combinations
    in one stacked pass, and each leaf runs its steps on its row of it
    (`toqc.PauliFrame.stack`); the physical plane (`eager_bell=True`) runs
    each leaf's own passes. Every plan shares `seed`, so each leaf equals
    `run_tgdmqc(..., seed=seed, branch_plan=plan)` byte for byte; `**kw`
    (`eager_bell`) goes to the run, which checks every argument. A walk
    of more than 4^`toqc.WALK_MAX_OUTCOMES` plans is refused before step 1.
    Also returns the joint distribution of all Bell outcomes (what the
    users collectively receive), keyed by the chronological outcome tuple,
    and the total probability.
    """
    run = _Run(w, user_rounds, n_circ, seed, **kw)
    acc = np.zeros(1 << run.n_circ, dtype=float)
    outcome_joint = {}
    total = 0.0
    for plan, _ in run.leaves():
        p = run.branch_probability
        total += p
        acc += p * run.output_distribution
        outcome_joint[plan] = p
    return acc, outcome_joint, total


def verify_against_ideal(w, user_rounds, n_circ=1, seed=0, exhaustive=True, **kw):
    """(total variation, distribution, ideal): the output distribution summed
    over every Bell branch against the product program's ideal one.
    `exhaustive` takes only True; it stays because `perfbench/workloads.py`
    passes it. `**kw` (`eager_bell`) goes to the walk, which runs first, so
    a walk over the cap is refused before the reference is built. One run's
    check is its exact per-branch law, `output_distribution`."""
    if exhaustive is not True:
        raise ValueError(f"exhaustive is {exhaustive!r}; only True remains")
    dist, _, _ = exhaustive_output_distribution(w, user_rounds, n_circ, seed=seed, **kw)
    ideal = ideal_outcome_distribution(program_with_users(w, user_rounds), n_circ)
    return total_variation(dist, ideal), dist, ideal


def program_with_users(w, user_rounds):
    """The product program the run effectively applies."""
    w = as_program(w, "w")
    return program_product(w, Program(w.n, tuple(user_rounds)))
