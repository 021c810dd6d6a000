"""The three benchmark workloads.

Each workload makes a pool of inputs from the workload seed, computes the
oracle reference for each input once, and defines one op (a single call
into the public `obliq` API) with the checks its result must pass. The
runner cycles through the pool, so one run's timings average over several
random programs rather than hinging on one.

Why these three:

- `toqc-wide`: quantum-output `run_toqc` at n=6, m=2 reaches 18 live qubits
  (2^18 amplitudes, 4 MiB). The kernels and the Bell measurement dominate
  the time, the control plane and the harness do not. Kernel, register and
  Pauli-frame changes show here; control-plane changes should not.
- `tgdmqc-enum`: exhaustive `verify_against_ideal` at n=2, m=1 runs the
  protocol once per Bell branch plan (256 plans) on at most 2^6 amplitudes.
  Per-run Python overhead dominates, so prefix sharing and per-run overhead
  cuts show here and kernel changes should not.
- `tgdmqc-sampled`: one honest `run_tgdmqc` at n=4, m=4 (12 live qubits)
  with sampled Bell outcomes, zero-state allocation and Z-measurement
  readout, carrying w' offset coefficients. A gain on the forced or
  quantum-output path that costs the sampled path shows here.

No workload is sized to be memory-bandwidth-bound: the largest state
(2^18 amplitudes, 4 MiB) fits many times over in the 300 MiB shared L3 of
the machine the bounds were set on.
"""

import hashlib

import numpy as np

from obliq import gates, harness, oracle, qsim, tgdmqc, toqc

TRACE_DISTANCE_TOL = 1e-9
TOTAL_VARIATION_TOL = 1e-9
TOTAL_PROBABILITY_TOL = 1e-12


class CheckFailed(Exception):
    """An op's result disagrees with the oracle or the ledger formulas."""


def _require(ok, what):
    if not ok:
        raise CheckFailed(what)


def _product_reference(w, user_rounds, n_circ):
    product = gates.program_product(w, gates.Program(w.n, tuple(user_rounds)))
    return oracle.ideal_outcome_distribution(product, n_circ)


def _ledger_check(verdict):
    _require(verdict.ok, "; ".join(verdict.details) or verdict.name)


def _wire(ledger):
    ub, uq, db, dq = ledger.totals()
    return ub + db, uq + dq


class Workload:
    name = ""
    n = m = n_circ = 1
    pool = 1

    def inputs(self, seed):
        """Pool of op inputs; the same seed gives the same pool."""
        rng = np.random.default_rng(seed)
        return [self.make_input(rng) for _ in range(self.pool)]

    def fingerprint(self, pool):
        h = hashlib.sha256()
        for item in pool:
            for part in item:
                h.update(repr(part).encode() if not isinstance(part, np.ndarray)
                         else part.tobytes())
        return h.hexdigest()[:16]

    def make_input(self, rng):
        raise NotImplementedError

    def reference(self, inp):
        raise NotImplementedError

    def op(self, inp, op_seed):
        raise NotImplementedError

    def check_oracle(self, inp, ref, result):
        raise NotImplementedError

    def check_ledger(self, inp, result):
        raise NotImplementedError

    def wire(self, inp, result):
        """(bits, qubits) on the wire in one protocol run."""
        raise NotImplementedError


class ToqcWide(Workload):
    name = "toqc-wide"
    n, m, n_circ = 6, 2, 1
    pool = 64

    def make_input(self, rng):
        return gates.random_program(self.n, self.m, rng), oracle.random_state(self.n, rng)

    def reference(self, inp):
        w, psi = inp
        return oracle.ideal_output(w, psi, self.n_circ)

    def op(self, inp, op_seed):
        w, psi = inp
        return toqc.run_toqc(w, psi=psi, n_circ=self.n_circ, seed=op_seed)

    def check_oracle(self, inp, ref, result):
        td = qsim.trace_distance(result.output_density, ref)
        _require(td <= TRACE_DISTANCE_TOL, f"trace distance to the oracle {td:.3e}")

    def check_ledger(self, inp, result):
        _ledger_check(harness.assert_complexity_toqc(
            result.ledger, self.n, self.m, self.n_circ, transcript=result.transcript))

    def wire(self, inp, result):
        return _wire(result.ledger)


class TgdmqcEnum(Workload):
    name = "tgdmqc-enum"
    n, m, n_circ = 2, 1, 1
    pool = 64

    def make_input(self, rng):
        w = gates.random_program(self.n, self.m, rng)
        return w, gates.random_program(self.n, self.m, rng).rounds

    def reference(self, inp):
        return _product_reference(*inp, self.n_circ)

    def op(self, inp, op_seed):
        w, user_rounds = inp
        return tgdmqc.verify_against_ideal(
            w, user_rounds, self.n_circ, seed=op_seed, exhaustive=True)

    def check_oracle(self, inp, ref, result):
        _, dist, _ = result
        total = float(np.sum(dist))
        _require(abs(total - 1.0) <= TOTAL_PROBABILITY_TOL,
                 f"total branch probability {total!r}")
        tv = oracle.total_variation(dist, ref)
        _require(tv <= TOTAL_VARIATION_TOL, f"total variation to the oracle {tv:.3e}")

    def check_ledger(self, inp, result):
        # verify_against_ideal returns no ledger; the ledger is checked on
        # the honest run that `wire` makes
        return None

    def wire(self, inp, result):
        w, user_rounds = inp
        run = tgdmqc.run_tgdmqc(w, user_rounds, self.n_circ, seed=0)
        _ledger_check(harness.assert_complexity_tgdmqc(
            run.ledger, self.n, self.m, self.n_circ, transcript=run.transcript))
        return _wire(run.ledger)


class TgdmqcSampled(Workload):
    name = "tgdmqc-sampled"
    n, m, n_circ = 4, 4, 1
    pool = 128

    def make_input(self, rng):
        w = gates.random_program(self.n, self.m, rng)
        return w, gates.random_program(self.n, self.m, rng).rounds

    def reference(self, inp):
        return _product_reference(*inp, self.n_circ)

    def op(self, inp, op_seed):
        w, user_rounds = inp
        return tgdmqc.run_tgdmqc(w, user_rounds, self.n_circ, seed=op_seed)

    def check_oracle(self, inp, ref, result):
        tv = oracle.total_variation(result.output_distribution, ref)
        _require(tv <= TOTAL_VARIATION_TOL, f"total variation to the oracle {tv:.3e}")

    def check_ledger(self, inp, result):
        _ledger_check(harness.assert_complexity_tgdmqc(
            result.ledger, self.n, self.m, self.n_circ, transcript=result.transcript))

    def wire(self, inp, result):
        return _wire(result.ledger)


WORKLOADS = {w.name: w for w in (ToqcWide(), TgdmqcEnum(), TgdmqcSampled())}
