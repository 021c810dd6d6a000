"""obliq benchmark: one closed-loop client running one workload, every op checked.

    python3 perfbench/run.py --workload toqc-wide --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; `obliq` is imported from `src/`.
One single-threaded process issues one op at a time and starts the next
only after the previous op and its checks have finished.

--trace 0 runs the untraced pass and prints the end-to-end metrics.
--trace 1 runs the same untraced pass, then a traced pass with wrappers
around each layer's public functions, and prints the per-layer metrics;
the spans go to perfbench/out/<workload>.spans.jsonl.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is 0 when
every op passed its checks, 1 when any check failed, and 2 when `obliq`
cannot be imported from the checkout.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import tracing  # standard library only; calibrate and workloads import numpy,
                # so they are imported inside functions, after main() pins
                # the BLAS threads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
SETUP_RUNS = 9          # fresh processes timed for setup_s
TRACED_SHARE = 0.2      # traced pass length as a share of --seconds
CHILD_TIMEOUT_S = 120

# (name, unit, better) -- the end-to-end metrics, from the untraced pass.
# Times are wall times at the reference speed of calibrate.py.
END_TO_END = (
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_p90", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_live_qubits", "qubits", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("wire_bits_per_run", "bits", "lower"),
    ("setup_s", "s", "lower"),
)


def _per_layer_table():
    rows = []
    for fn in tracing.KERNELS:
        rows += [(f"kernels.{fn}.calls", "calls/op"), (f"kernels.{fn}.ms", "ms/op")]
    rows += [("kernels.bytes_computed", "B/op"), ("kernels.flops_computed", "flop/op")]
    for g in ("alloc", "gate", "bell_measure", "measure_z"):
        rows += [(f"qsim.{g}.calls", "calls/op"), (f"qsim.{g}.ms", "ms/op"),
                 (f"qsim.{g}.self_ms", "ms/op")]
    rows += [("qsim.readout.ms", "ms/op"), ("qsim.peak_dimension", "amplitudes")]
    for g in ("t", "cz", "h", "pauli"):
        rows += [(f"layers.{g}.calls", "calls/op"), (f"layers.{g}.ms", "ms/op"),
                 (f"layers.{g}.self_ms", "ms/op")]
    for g in ("draw", "derive"):
        rows += [(f"control.{g}.calls", "calls/op"), (f"control.{g}.ms", "ms/op")]
    rows += [
        ("protocol.unitary_round.calls", "calls/op"),
        ("protocol.unitary_round.ms", "ms/op"),
        ("protocol.unitary_round.self_ms", "ms/op"),
        ("protocol.run.self_ms", "ms/op"),
        ("protocol.runs_per_op", "runs/op"),
        ("protocol.bell_per_branch", "calls/run"),
        ("harness.send.calls", "calls/op"),
        ("harness.send.ms", "ms/op"),
        ("harness.send.bits", "bits/op"),
        ("harness.send.qubits", "qubits/op"),
        ("harness.classical_part.count", "parts/op"),
        ("verify.oracle.ms", "ms/op"),
        ("verify.ledger.ms", "ms/op"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return tuple((name, unit, "lower") for name, unit in rows)


PER_LAYER = _per_layer_table()


# -- the closed loop ----------------------------------------------------------

@dataclass
class Outcome:
    """One op and its checks: wall times in ms, and `scale`, the speed scale
    measured right after the op (see calibrate.py)."""

    ok: bool
    op_wall_ms: float = None
    scale: float = None
    check_wall_ms: float = None
    result: object = None
    error: str = ""


class PassStats:
    """Outcomes of the ops of one pass; failed ops are never timed."""

    def __init__(self):
        self.op_wall_ms = []
        self.op_ms = []
        self.cycle_ms = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.last_result = None
        self.window_s = 0.0

    def record(self, outcome):
        self.attempted += 1
        if outcome.ok:
            self.op_wall_ms.append(outcome.op_wall_ms)
            self.op_ms.append(outcome.op_wall_ms * outcome.scale)
            self.cycle_ms.append((outcome.op_wall_ms + outcome.check_wall_ms) * outcome.scale)
            self.last_result = outcome.result
        else:
            self.failed += 1
            if len(self.errors) < 3:
                self.errors.append(outcome.error)


def run_checked_op(wl, inp, ref, op_seed, tracer=None, op_id=0):
    """One op, the reference computation, then the op's oracle and ledger
    checks. An op that raises or fails a check is not ok."""
    from calibrate import speed_scale

    def span(name):
        return tracer.span(name, op_id) if tracer is not None else nullcontext()

    clock = time.perf_counter_ns
    try:
        with span("op"):
            t0 = clock()
            result = wl.op(inp, op_seed)
            t1 = clock()
    except Exception:  # a raising op is a counted failure, not a crash
        return Outcome(False, error="op raised:\n" + traceback.format_exc())
    scale = speed_scale()
    try:
        t2 = clock()
        with span("verify.oracle"):
            wl.check_oracle(inp, ref, result)
        with span("verify.ledger"):
            wl.check_ledger(inp, result)
        t3 = clock()
    except Exception:  # a check that fails or cannot run counts the op as failed
        return Outcome(False, result=result, error="check failed:\n" + traceback.format_exc())
    return Outcome(True, (t1 - t0) / 1e6, scale, (t3 - t2) / 1e6, result)


def closed_loop(wl, pool, refs, seed, seconds, first_op, tracer=None):
    """Issue checked ops back to back for `seconds`, cycling the input pool."""
    stats = PassStats()
    start = time.perf_counter()
    i = first_op
    while True:
        k = i % len(pool)
        stats.record(run_checked_op(wl, pool[k], refs[k], (seed, i), tracer, i))
        i += 1
        stats.window_s = time.perf_counter() - start
        if stats.window_s >= seconds:
            return stats, i


def peak_live_qubits(wl, inp, ref, seed, qsim):
    """Smallest live-qubit cap under which one op completes, found by
    raising the cap from 1; ops over the cap stop at the allocation that
    would exceed it. Returns (peak, outcome of the completed op)."""
    saved = os.environ.get(qsim.MAX_QUBITS_ENV)
    try:
        for cap in range(1, qsim.DEFAULT_MAX_QUBITS + 1):
            os.environ[qsim.MAX_QUBITS_ENV] = str(cap)
            try:
                wl.op(inp, (seed, 0))
            except qsim.CapacityError:
                continue
            return cap, run_checked_op(wl, inp, ref, (seed, 0))
    finally:
        if saved is None:
            os.environ.pop(qsim.MAX_QUBITS_ENV, None)
        else:
            os.environ[qsim.MAX_QUBITS_ENV] = saved
    raise RuntimeError(f"op needs more than {qsim.DEFAULT_MAX_QUBITS} live qubits")


# -- metrics ------------------------------------------------------------------

def p50(values):
    return statistics.median(values)


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def layer_metrics(tracer, traced, untraced_op_ms_p50):
    agg = tracing.aggregate([s for s in tracer.spans if s is not None])
    ops = max(agg.get("op", (0,))[0], 1)
    c = tracer.counters

    def calls(name):
        return agg.get(name, (0, 0, 0))[0] / ops

    def ms(name):
        return agg.get(name, (0, 0, 0))[1] / 1e6 / ops

    def self_ms(name):
        return agg.get(name, (0, 0, 0))[2] / 1e6 / ops

    out = {}
    for fn in tracing.KERNELS:
        out[f"kernels.{fn}.calls"] = calls(f"kernels.{fn}")
        out[f"kernels.{fn}.ms"] = ms(f"kernels.{fn}")
    out["kernels.bytes_computed"] = c["kernels.bytes_computed"] / ops
    out["kernels.flops_computed"] = c["kernels.flops_computed"] / ops
    for name in ("qsim.alloc", "qsim.gate", "qsim.bell_measure", "qsim.measure_z",
                 "layers.t", "layers.cz", "layers.h", "layers.pauli",
                 "protocol.unitary_round"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.ms"] = ms(name)
        out[f"{name}.self_ms"] = self_ms(name)
    out["qsim.readout.ms"] = ms("qsim.readout")
    out["qsim.peak_dimension"] = c["qsim.peak_dimension"]
    for name in ("control.draw", "control.derive", "harness.send"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.ms"] = ms(name)
    runs = agg.get("protocol.run", (0,))[0]
    out["protocol.run.self_ms"] = self_ms("protocol.run")
    out["protocol.runs_per_op"] = runs / ops
    out["protocol.bell_per_branch"] = agg.get("qsim.bell_measure", (0,))[0] / max(runs, 1)
    out["harness.send.bits"] = c["harness.send.bits"] / ops
    out["harness.send.qubits"] = c["harness.send.qubits"] / ops
    out["harness.classical_part.count"] = c["harness.classical_part.count"] / ops
    out["verify.oracle.ms"] = ms("verify.oracle")
    out["verify.ledger.ms"] = ms("verify.ledger")
    out["trace.overhead_ratio"] = p50(traced.op_ms) / untraced_op_ms_p50
    return out


def _read_field(path, prefix=None):
    """A `prefix: value` field of a text file, or the whole text without a
    prefix; "unknown" when the file is unreadable or has no such field."""
    try:
        with open(path) as fh:
            if prefix is None:
                return fh.read().strip()
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _l3_cache():
    return _read_field("/sys/devices/system/cpu/cpu0/cache/index3/size")


def run_record(args, wl, pool, obliq, np):
    other = wl.fingerprint(wl.inputs(args.seed + 1))
    return {
        "workload": wl.name,
        "seed": args.seed,
        "inputs_sha256": wl.fingerprint(pool),
        "inputs_differ_for_next_seed": other != wl.fingerprint(pool),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "kernel_backend": obliq.KERNEL_BACKEND,
        "nproc": os.cpu_count(),
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "cpu_model": _read_field("/proc/cpuinfo", "model name"),
        "l3_cache": _l3_cache(),
        "blas_threads": os.environ["OMP_NUM_THREADS"],
    }


def setup_times(args):
    """Set-up of fresh processes: import, input generation and one warm-up
    op. Returns their wall times in s and the speed scales measured in this
    process around them; the processes inherit this one's CPU pinning, so
    both run on the same CPU."""
    from calibrate import speed_scale

    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    walls, scales = [], []

    def measure_scale():
        speed_scale()  # refills the caches the previous process evicted
        scales.extend(speed_scale() for _ in range(4))

    for _ in range(SETUP_RUNS):
        measure_scale()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"setup run failed:\n{proc.stdout}{proc.stderr}")
        walls.append(json.loads(proc.stdout.splitlines()[-1])["setup_wall_s"])
    measure_scale()
    return walls, scales


# -- entry point --------------------------------------------------------------

def end_to_end_metrics(args, wl, pool, refs, qsim, untraced, next_op, rss_mib,
                       passes, problems):
    """End-to-end metrics from the untraced pass, plus the probes and the
    set-up runs that follow it."""
    peak, probe = peak_live_qubits(wl, pool[0], refs[0], args.seed, qsim)
    probe_stats = PassStats()
    probe_stats.record(probe)
    passes.append(probe_stats)
    try:
        bits, qubits = wl.wire(pool[(next_op - 1) % len(pool)], untraced.last_result)
    except Exception:  # a failed ledger check on the wire run
        problems.append("wire run failed:\n" + traceback.format_exc())
        bits, qubits = 0, 0
    setup_walls, setup_scales = setup_times(args)
    print(f"wall time, not rescaled: op_ms_p50 = {p50(untraced.op_wall_ms)} ms, "
          f"op_ms_p90 = {p90(untraced.op_wall_ms)} ms over {len(untraced.op_ms)} ops, "
          f"ops_per_s = {len(untraced.op_ms) / untraced.window_s} 1/s; "
          f"setup_s samples {setup_walls} s")
    print(f"wire_qubits_per_run = {qubits} qubits; peak state {16 << peak} B "
          f"(computed, 16 B per amplitude) beside a {_l3_cache()} L3")
    return {
        "op_ms_p50": p50(untraced.op_ms),
        "op_ms_p90": p90(untraced.op_ms),
        "ops_per_s": 1000.0 * len(untraced.cycle_ms) / sum(untraced.cycle_ms),
        "peak_live_qubits": peak,
        "peak_rss_mib": rss_mib,
        "wire_bits_per_run": bits,
        "setup_s": p50(setup_walls) * p50(setup_scales),
    }


def traced_metrics(args, wl, pool, refs, untraced, next_op, passes, problems):
    """Per-layer metrics from a traced pass; spans go to OUT_DIR."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, _ = closed_loop(wl, pool, refs, args.seed,
                                args.seconds * TRACED_SHARE, next_op, tracer)
    finally:
        tracer.remove()
    passes.append(traced)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{wl.name}.spans.jsonl"
    tracer.write_jsonl(spans_path)
    print(f"traced pass: {traced.attempted} ops, {len(tracer.spans)} spans "
          f"written to {spans_path.relative_to(ROOT)}")
    if not traced.op_ms:
        problems.append("no traced op passed its checks")
        return {}
    return layer_metrics(tracer, traced, p50(untraced.op_ms))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time set-up in this process, print it and exit")
    return p.parse_args(argv)


def import_program():
    """Import obliq from this checkout's src/, nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import obliq

    if not Path(obliq.__file__).resolve().is_relative_to(src):
        raise ImportError(f"obliq was found at {obliq.__file__}, not under {src}")
    import numpy as np
    from obliq import qsim
    from workloads import WORKLOADS

    return obliq, np, qsim, WORKLOADS


def main(argv=None):
    setup_start = time.perf_counter()
    args = parse_args(argv)
    for var in THREAD_ENV:
        os.environ[var] = "1"
    # one CPU for the whole run, so the speed scale is measured where the
    # ops and the set-up processes run
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        obliq, np, qsim, workloads = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import obliq from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads)}", file=sys.stderr)
        return 2
    wl = workloads[args.workload]
    if not args.setup_only:
        from calibrate import settle_allocator

        settle_allocator()

    pool = wl.inputs(args.seed)
    refs = [wl.reference(inp) for inp in pool]
    warm = PassStats()
    warm.record(run_checked_op(wl, pool[0], refs[0], (args.seed, 0)))
    setup_wall_s = time.perf_counter() - setup_start
    if args.setup_only:
        print(json.dumps({"setup_wall_s": setup_wall_s}))
        return 0 if warm.failed == 0 else 1

    record = run_record(args, wl, pool, obliq, np)
    print("record " + json.dumps(record))
    passes = [warm]
    problems = []
    if not record["inputs_differ_for_next_seed"]:
        problems.append("seed and seed + 1 gave the same inputs")

    if not tracing.is_pristine():
        raise RuntimeError("tracing wrappers are installed before the untraced pass")
    untraced, next_op = closed_loop(wl, pool, refs, args.seed, args.seconds, first_op=1)
    passes.append(untraced)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"untraced pass: {untraced.attempted} ops in {untraced.window_s:.2f} s, "
          f"fail_share {untraced.failed / untraced.attempted}")
    if not untraced.op_ms:
        problems.append("no op passed its checks")
        metrics, table = {}, ()
    elif args.trace == 0:
        metrics = end_to_end_metrics(args, wl, pool, refs, qsim, untraced, next_op,
                                     rss_mib, passes, problems)
        table = END_TO_END
    else:
        metrics = traced_metrics(args, wl, pool, refs, untraced, next_op, passes, problems)
        table = PER_LAYER

    for p in passes:
        problems += p.errors
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for problem in problems:
        print("FAIL " + problem, file=sys.stderr)
    report = {}
    if metrics:
        for name, unit, _ in table:
            report[name] = {"value": metrics[name], "unit": unit}
            print(f"{name} = {metrics[name]} {unit}")
    correct = not problems and failed == 0 and bool(report)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": report,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
