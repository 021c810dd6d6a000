"""Command-line front end.

Every subcommand prints one key=value line per reported quantity and ends
in one `verdict=` line, printed with the `verdict_<name>` and
`detail_<name>` lines of its checks by `_emit`. It exits with 0 on pass, 1
on a verification failure, 2 on a usage error or a state too large for the
memory. All randomness flows from --seed; a missing seed is generated and
printed so the run can be reproduced.
"""

import argparse
import secrets
import sys

import numpy as np

from . import gates, harness, oracle, tgdmqc, toqc, toy
from .qsim import CapacityError, trace_distance


def _seed_or_new(args):
    if args.seed is None:
        args.seed = secrets.randbits(48)
    args.seed = gates.as_seed(args.seed)
    print(f"seed={args.seed}")
    return args.seed


def _emit(verdicts):
    """Print each verdict, then the overall one; return the exit code."""
    for v in verdicts:
        print(f"verdict_{v.name}={'pass' if v.ok else 'fail'}")
        for d in v.details:
            print(f"detail_{v.name}={d}")
    ok = all(verdicts)
    print(f"verdict={'pass' if ok else 'fail'}")
    return 0 if ok else 1


def _oracle_verdict(name, what, dist, tol=1e-9):
    """Pass when `dist`, a distance from the oracle's reference, is <= tol."""
    return harness.Verdict(name, dist <= tol, [f"{what} {dist:.3e}"])


def _write_transcript(args, transcript):
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(transcript.render())
        print(f"transcript={args.out}")


def _protocol_tail(args, res, verdicts):
    """What toqc and tgdmqc report after their oracle and ledger verdicts:
    the Bell-uniformity verdict under --eager-bell, the ledger totals and
    the --out transcript."""
    if args.eager_bell:
        verdicts.append(harness.audit_bell_uniformity(res.branch_records))
    for key, val in zip(harness.LEDGER_LABELS, res.ledger.totals()):
        print(f"{key}={val}")
    _write_transcript(args, res.transcript)
    return _emit(verdicts)


def _load_input_state(spec):
    bits = spec.strip()
    if bits and set(bits) <= {"0", "1"}:
        return None, tuple(int(b) for b in bits)
    amps = []
    with open(spec, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            fields = line.split()
            if not fields:
                continue
            try:
                re_part, im_part = (float(f) for f in fields)
            except ValueError:
                raise ValueError(
                    f"state file line {lineno}: expected 're im', got {line.strip()!r}"
                ) from None
            amps.append(re_part + 1j * im_part)
    return np.array(amps, dtype=np.complex128), None


def cmd_toy(args):
    seed = _seed_or_new(args)
    rng = np.random.default_rng(seed)
    psi = oracle.random_state(1, rng)
    want = gates.matrix_of("T", args.y) @ psi
    worst = 0.0
    for a in (0, 1):
        for b in (0, 1):
            res = toy.run_toy(args.y, psi, seed=(seed, a, b), force_branch=(a, b))
            dist = trace_distance(res.output_density, np.outer(want, want.conj()))
            print(f"branch_{a}{b}_trace_distance={dist:.3e}")
            worst = max(worst, dist)
    print(f"max_trace_distance={worst:.3e}")
    _write_transcript(args, res.transcript)
    print("transcript_begin=1")
    sys.stdout.write(res.transcript.render())
    print("transcript_end=1")
    return _emit([_oracle_verdict("oracle-output", "max trace distance", worst, tol=1e-10)])


def cmd_toqc(args):
    seed = _seed_or_new(args)
    w = gates.load_program(args.program)
    psi, bits = _load_input_state(args.input)
    res = toqc.run_toqc(
        w, psi=psi, basis_bits=bits, n_circ=args.n_circ, seed=seed,
        classical_output=args.classical_output, eager_bell=args.eager_bell,
    )
    vec = oracle.basis_state(w.n, bits) if psi is None else psi
    if args.classical_output:
        tv = oracle.total_variation(res.output_distribution,
                                    oracle.outcome_distribution(w, vec, args.n_circ))
        print(f"output_bits={''.join(str(b) for b in res.output_bits)}")
        print(f"total_variation={tv:.3e}")
        verdict = _oracle_verdict("oracle-distribution", "total variation", tv)
    else:
        dist = trace_distance(res.output_density, oracle.ideal_output(w, vec, args.n_circ))
        print(f"trace_distance={dist:.3e}")
        verdict = _oracle_verdict("oracle-output", "trace distance", dist)
    return _protocol_tail(args, res, [verdict, harness.assert_complexity_toqc(
        res.ledger, w.n, w.m, args.n_circ, transcript=res.transcript,
        classical_output=args.classical_output,
    )])


def cmd_tgdmqc(args):
    seed = _seed_or_new(args)
    w = gates.load_program(args.server_program)
    users = gates.load_program(args.user_rounds)
    res = tgdmqc.run_tgdmqc(w, users.rounds, args.n_circ, seed=seed,
                            eager_bell=args.eager_bell)
    print(f"output_bits={''.join(str(b) for b in res.output_bits)}")
    if args.exhaustive_branches:
        # the walk runs on the same executor as the single run
        tv = tgdmqc.verify_against_ideal(w, users.rounds, args.n_circ, seed=seed,
                                         eager_bell=args.eager_bell)[0]
        print(f"total_variation={tv:.3e}")
        verdict = _oracle_verdict("oracle-distribution", "total variation", tv)
    else:
        ideal = oracle.ideal_outcome_distribution(
            tgdmqc.program_with_users(w, users.rounds), args.n_circ)
        tv = oracle.total_variation(res.output_distribution, ideal)
        print(f"run_total_variation={tv:.3e}")
        verdict = _oracle_verdict("oracle-distribution", "per-branch total variation", tv)
    return _protocol_tail(args, res, [verdict, harness.assert_complexity_tgdmqc(
        res.ledger, w.n, w.m, args.n_circ, transcript=res.transcript)])


def cmd_demo_parity(args):
    seed = _seed_or_new(args)
    bits = args.bits
    if len(bits) != args.l:
        raise ValueError(f"expected {args.l} input bits, got {len(bits)}")
    program, n_circ = gates.compile_parity(bits)
    w = gates.identity_program(program.n, program.m)
    res = tgdmqc.run_tgdmqc(w, program.rounds, n_circ, seed=seed)
    parity = sum(bits) % 2
    got = res.output_bits[0]
    print(f"parity={got}")
    print(f"expected={parity}")
    point_mass = float(res.output_distribution[got])
    print(f"output_probability={point_mass:.12f}")
    return _emit([harness.Verdict("parity", got == parity),
                  _oracle_verdict("output-probability", "|p - 1|", abs(point_mass - 1.0))])


def cmd_audit(args):
    with open(args.transcript, "r", encoding="utf-8") as fh:
        text = fh.read()
    verdict = harness.audit_transcript_file(
        text, args.protocol, args.n, args.m, args.n_circ,
        classical_output=args.classical_output,
    )
    return _emit([verdict])


def cmd_report(args):
    max_n, max_m = gates.as_count(args.max_n, "--max-n"), gates.as_count(args.max_m, "--max-m")
    seed = _seed_or_new(args)
    rng = np.random.default_rng(seed)
    verdicts = []
    for n in range(1, max_n + 1):
        for m in range(1, max_m + 1):
            w = gates.random_program(n, m, rng)
            psi = oracle.random_state(n, rng)
            res = toqc.run_toqc(w, psi=psi, n_circ=1, seed=(seed, n, m))
            dist = trace_distance(res.output_density, oracle.ideal_output(w, psi, 1))
            ub, uq, db, dq = res.ledger.totals()
            shape = f"n{n}_m{m}"
            print(f"toqc_{shape}=up:{ub}b+{uq}q down:{db}b+{dq}q "
                  f"trace_distance:{dist:.2e}")
            verdicts += [_oracle_verdict("oracle-output", f"{shape}: trace distance", dist),
                         harness.assert_complexity_toqc(res.ledger, n, m, 1,
                                                        transcript=res.transcript)]
            verdicts[-1].details = [f"{shape}: {d}" for d in verdicts[-1].details]
    return _emit(verdicts)


def build_parser():
    p = argparse.ArgumentParser(
        prog="obliq",
        description="run and audit the two-server oblivious computation protocols",
    )
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("toy", help="single-qubit oblivious phase application")
    t.add_argument("--y", type=int, required=True, choices=range(8))
    t.add_argument("--seed", type=int)
    t.add_argument("--out")
    t.set_defaults(func=cmd_toy)

    q = sub.add_parser("toqc", help="two-server oblivious program application")
    q.add_argument("--program", required=True)
    q.add_argument("--input", required=True,
                   help="basis bits like 010, or a state file of 're im' lines")
    q.add_argument("--n-circ", type=int, default=1)
    q.add_argument("--seed", type=int)
    q.add_argument("--classical-output", action="store_true")
    q.add_argument("--eager-bell", action="store_true",
                   help="run the physical Bell-pair executor and audit its outcomes")
    q.add_argument("--out")
    q.set_defaults(func=cmd_toqc)

    g = sub.add_parser("tgdmqc", help="delegated multiparty computation")
    g.add_argument("--server-program", required=True)
    g.add_argument("--user-rounds", required=True)
    g.add_argument("--n-circ", type=int, default=1)
    g.add_argument("--seed", type=int)
    g.add_argument("--exhaustive-branches", action="store_true")
    g.add_argument("--eager-bell", action="store_true",
                   help="run the physical Bell-pair executor and audit its outcomes")
    g.add_argument("--out")
    g.set_defaults(func=cmd_tgdmqc)

    d = sub.add_parser("demo-parity", help="parity of l bits via tgdmqc")
    d.add_argument("l", type=int)
    d.add_argument("bits", type=int, nargs="+", choices=(0, 1))
    d.add_argument("--seed", type=int)
    d.set_defaults(func=cmd_demo_parity)

    a = sub.add_parser("audit", help="re-check a transcript's complexity")
    a.add_argument("--transcript", required=True)
    a.add_argument("--protocol", required=True, choices=("toqc", "tgdmqc"))
    a.add_argument("--n", type=int, required=True)
    a.add_argument("--m", type=int, required=True)
    a.add_argument("--n-circ", type=int, default=1)
    a.add_argument("--classical-output", action="store_true")
    a.set_defaults(func=cmd_audit)

    r = sub.add_parser("report", help="ledger sweep over program shapes")
    r.add_argument("--max-n", type=int, default=2)
    r.add_argument("--max-m", type=int, default=2)
    r.add_argument("--seed", type=int)
    r.set_defaults(func=cmd_report)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, CapacityError, MemoryError) as exc:
        print(f"error={str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
