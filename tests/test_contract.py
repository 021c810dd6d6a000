"""The input contract of the public entry points, checked with `hypothesis`.

Each strategy draws one argument as a pair (value, canonical): a valid
value in some accepted form (ints, bools, numpy integers and bools, a list
or an array) with the canonical value it stands for, or a near miss (a
float twin, a value out of range by one, the wrong length, the wrong type)
with `MISS`. The contract: a call with a near miss raises a ValueError
before any message is sent; any other call gives exactly what the call on
the canonical values gives, transcript and output bytes included.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obliq import cli
from obliq.gates import (
    GATE_ORDER,
    Program,
    ProgramRound,
    compile_parity,
    identity_program,
    matrix_of,
    random_program,
    save_program,
    split_program,
    zero_program,
    zero_round,
)
from obliq.harness import (
    BELL_OUTCOMES,
    ChannelRegistry,
    ClassicalPart,
    Verdict,
    audit_transcript_file,
)
from obliq.oracle import basis_state, ideal_output, outcome_distribution, random_state
from obliq.tgdmqc import run_tgdmqc
from obliq.toqc import RunResult, run_toqc
from obliq.toy import ToyResult, run_toy

N, M = 2, 1
OUTCOMES = 2 * M * N
W = random_program(N, M, np.random.default_rng(110))
ROUNDS = random_program(N, M, np.random.default_rng(111)).rounds
TEXT = run_toqc(W, basis_bits=(0, 1), seed=112).transcript.render()

MISS = object()
CONTRACT = settings(derandomize=True, database=None, deadline=None, max_examples=40)

# forms a valid bit may take, and values no bit may take
BIT_FORMS = (int, bool, np.int64, np.uint8, np.bool_)
NOT_BITS = (2, -1, 1.0, 0.0, np.float64(1), 0.5, "1", None)


@st.composite
def bit_vectors(draw, n, exact=True):
    """n bits in mixed forms, or a vector with one non-bit entry, of the
    wrong length (empty when any other length is right, `exact` False), or
    of the wrong type."""
    bits = tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    value = [draw(st.sampled_from(BIT_FORMS))(b) for b in bits]
    kind = draw(st.sampled_from(("valid", "valid", "entry", "length", "type")))
    if kind == "entry":
        value[draw(st.integers(0, n - 1))] = draw(st.sampled_from(NOT_BITS))
    elif kind == "length":
        value = [] if not exact else value + [0] if draw(st.booleans()) else value[:-1]
    elif kind == "type":
        return draw(st.sampled_from((5, "01", 1.0))), MISS
    form = draw(st.sampled_from((tuple, list)))
    return form(value), (bits if kind == "valid" else MISS)


@st.composite
def states(draw, n):
    """A normalized n-qubit state as an array or a list, or one with the
    wrong amplitude count, the wrong norm or the wrong entry type."""
    if draw(st.booleans()):
        vec = random_state(n, np.random.default_rng(draw(st.integers(0, 2**16))))
    else:
        vec = basis_state(n, draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    kind = draw(st.sampled_from(("valid", "valid", "short", "long", "wider", "norm", "type")))
    miss = {"short": vec[:-1], "long": np.append(vec, 0.0), "norm": 1.5 * vec,
            "wider": np.kron(vec, basis_state(1, (0,))), "type": [str(a) for a in vec]}
    value = miss.get(kind, vec)
    if draw(st.booleans()):
        value = list(value)
    return value, (vec if kind == "valid" else MISS)


OUTCOME_FORMS = (tuple, list, np.array, lambda p: (np.int64(p[0]), np.bool_(p[1])))
NOT_OUTCOMES = ((1.0, 0), (np.float64(1), 0), (2, 0), (0, -1), 3, (0,), (0, 1, 0), "01")


@st.composite
def bell_outcomes(draw):
    """One Bell outcome (a, b) in some form, or a value that is none."""
    if draw(st.integers(0, 5)) == 0:
        return draw(st.sampled_from(NOT_OUTCOMES)), MISS
    pair = draw(st.sampled_from(BELL_OUTCOMES))
    return draw(st.sampled_from(OUTCOME_FORMS))(pair), pair


@st.composite
def branch_plans(draw, count):
    """None, or `count` drawn outcomes, or a plan of the wrong length or
    one that is no sequence."""
    kind = draw(st.sampled_from(("none", "plan", "plan", "length", "type")))
    if kind == "none":
        return None, None
    if kind == "type":
        return draw(st.sampled_from((5, 1.0, np.int64(0)))), MISS
    entries = draw(st.lists(bell_outcomes(), min_size=count, max_size=count))
    value, canonical = [v for v, _ in entries], [c for _, c in entries]
    if kind == "length":
        value = value + [(0, 0)] if draw(st.booleans()) else value[:-1]
    if kind == "length" or any(c is MISS for c in canonical):
        return value, MISS
    return value, canonical


@st.composite
def shape_ints(draw):
    """A positive int in int, numpy or bool form, or 0, a float or a str."""
    v = draw(st.integers(1, 3))
    forms = [int, np.int64, np.int32] + ([bool] if v == 1 else [])
    kind = draw(st.sampled_from(("valid", "valid", "zero", "float", "half", "str")))
    if kind == "valid":
        return draw(st.sampled_from(forms))(v), v
    return {"zero": 0, "float": float(v), "half": v + 0.5, "str": str(v)}[kind], MISS


def _fingerprint(out):
    """Everything a result shows, as comparable bytes and values."""
    if isinstance(out, RunResult):
        arrays = (out.output_density, out.output_distribution)
        return (out.transcript.render(), out.output_bits,
                *(None if a is None else a.tobytes() for a in arrays))
    if isinstance(out, ToyResult):
        return (out.transcript.render(), out.outcome, out.mask_x, out.mask_z,
                out.output_density.tobytes())
    if isinstance(out, Verdict):
        return out.name, out.ok, out.details
    if isinstance(out, np.ndarray):
        return out.tobytes()
    return out


def _refuse(self, message):
    raise AssertionError(f"{message.step} was sent before the input was checked")


def holds(call, *args, match=None):
    """The contract for `call` on the drawn (value, canonical) arguments;
    a near miss's ValueError must match `match` when it is given."""
    values = [v for v, _ in args]
    if any(c is MISS for _, c in args):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ChannelRegistry, "send", _refuse)
            with pytest.raises(ValueError, match=match):
                call(*values)
    else:
        want = _fingerprint(call(*[c for _, c in args]))
        assert _fingerprint(call(*values)) == want


@CONTRACT
@given(bits=bit_vectors(N), psi=states(N), plan=branch_plans(OUTCOMES),
       use_bits=st.booleans(), eager=st.booleans())
def test_run_toqc(bits, psi, plan, use_bits, eager):
    field = "basis_bits" if use_bits else "psi"
    holds(lambda inp, p: run_toqc(W, **{field: inp}, branch_plan=p, seed=113,
                                  eager_bell=eager),
          bits if use_bits else psi, plan)


@CONTRACT
@given(plan=branch_plans(OUTCOMES), eager=st.booleans())
def test_run_tgdmqc(plan, eager):
    holds(lambda p: run_tgdmqc(W, ROUNDS, 1, seed=114, branch_plan=p, eager_bell=eager),
          plan)


@CONTRACT
@given(psi=states(1), branch=st.one_of(st.just((None, None)), bell_outcomes()))
def test_run_toy(psi, branch):
    holds(lambda s, b: run_toy(3, s, seed=115, force_branch=b), psi, branch)


@CONTRACT
@given(bits=bit_vectors(N))
def test_basis_state(bits):
    holds(lambda b: basis_state(N, b), bits)


@CONTRACT
@given(psi=states(N), distribution=st.booleans())
def test_oracle_outputs(psi, distribution):
    call = outcome_distribution if distribution else ideal_output
    holds(lambda s: call(W, s, 1), psi)


@CONTRACT
@given(bits=st.integers(1, 3).flatmap(lambda n: bit_vectors(n, exact=False)))
def test_compile_parity(bits):
    holds(compile_parity, bits)


@CONTRACT
@given(n=shape_ints(), m=shape_ints())
def test_audit_transcript_file(n, m):
    holds(lambda a, b: audit_transcript_file(TEXT, "toqc", a, b, 1), n, m)


PART_FORMS = (int, np.int64, np.uint8, np.int8)


@st.composite
def wire_parts(draw):
    """A wire part's (width, values): widths 0-4, values in mixed int,
    numpy int and numpy bool forms, or with one entry out of range by one
    or a float twin. The canonical value is the values as Python ints, or
    MISS when the width or an entry is a near miss."""
    width = draw(st.sampled_from((0, 1, 2, 3, 4, np.int64(2), 2.0, True)))
    valid_width = width in (1, 2, 3) and not isinstance(width, float)
    top = 1 << int(width) if valid_width else 2
    ints = draw(st.lists(st.integers(0, top - 1), max_size=4))
    forms = PART_FORMS + ((bool, np.bool_) if top == 2 else ())
    values = [draw(st.sampled_from(forms))(v) for v in ints]
    kind = draw(st.sampled_from(("valid", "valid", "low", "high", "float")))
    if ints and kind != "valid":
        i = draw(st.integers(0, len(ints) - 1))
        miss = {"low": -1, "high": top, "float": float(ints[i])}[kind]
        values[i] = draw(st.sampled_from((int, np.int64)))(miss) if kind != "float" else miss
    else:
        kind = "valid"
    values = draw(st.sampled_from((tuple, list)))(values)
    return width, values, (tuple(ints) if valid_width and kind == "valid" else MISS)


@CONTRACT
@given(part=wire_parts())
def test_classical_part(part):
    width, values, canonical = part
    if canonical is MISS:
        with pytest.raises(ValueError, match=r"^q-part: "):
            ClassicalPart("q-part", width, values)
    else:
        got = ClassicalPart("q-part", width, values)
        assert got.values == canonical
        assert all(type(v) is int for v in got.values)


def int_forms(v):
    """The forms an int v may take: int and numpy ints, and bools at 0, 1."""
    return (int, np.int64, np.int32) + ((bool, np.bool_) if v in (0, 1) else ())


@st.composite
def int_values(draw, lo, hi):
    """An int in [lo, hi] in some form, or a float twin, a half, a str or
    None."""
    v = draw(st.integers(lo, hi))
    kind = draw(st.sampled_from(("valid", "valid", "valid", "float", "half", "str", "none")))
    if kind == "valid":
        return draw(st.sampled_from(int_forms(v)))(v), v
    return {"float": float(v), "half": v + 0.5, "str": str(v), "none": None}[kind], MISS


@st.composite
def residue_vectors(draw, mod):
    """Up to three residues mod `mod` in mixed forms as a tuple, list or
    array, or with one entry out of range by one or a float twin, or a
    value that is not a sequence of integers."""
    ints = draw(st.lists(st.integers(0, mod - 1), max_size=3))
    value = [draw(st.sampled_from(int_forms(v)))(v) for v in ints]
    kind = draw(st.sampled_from(("valid", "valid", "entry", "type")))
    if kind == "type":
        return draw(st.sampled_from((5, None, 1.0, "01"))), MISS
    if kind == "entry" and ints:
        i = draw(st.integers(0, len(ints) - 1))
        value[i] = draw(st.sampled_from((-1, mod, float(ints[i]))))
    else:
        kind = "valid"
    value = draw(st.sampled_from((tuple, list, np.array)))(value)
    return value, (tuple(ints) if kind == "valid" else MISS)


@CONTRACT
@given(x=residue_vectors(4), y=residue_vectors(8), z=residue_vectors(2))
def test_program_round(x, y, z):
    holds(lambda *v: repr(ProgramRound(*v)), x, y, z, match=r"^[xyz][ :]")


@st.composite
def programs(draw):
    """A Program's (n, rounds): n in some form with one or two rounds of
    width n as a tuple or list, or a near miss: n a float twin, a str or off
    by one; rounds empty, not a sequence, a bare round, or with an entry
    that is a plain tuple or of the wrong width."""
    n = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    rounds = list(random_program(n, draw(st.integers(1, 2)), rng).rounds)
    n_value = draw(st.sampled_from((int, np.int64) + ((bool,) if n == 1 else ())))(n)
    value = draw(st.sampled_from((tuple, list)))(rounds)
    kind = draw(st.sampled_from(("valid", "valid", "n-float", "n-str", "n-off", "empty",
                                 "type", "bare", "entry", "width")))
    if kind.startswith("n-"):
        n_value = {"n-float": float(n), "n-str": str(n),
                   "n-off": n + draw(st.sampled_from((-1, 1)))}[kind]
        return (n_value, MISS), (value, tuple(rounds))
    if kind != "valid":
        r = rounds[-1]
        value = {"empty": (), "type": 5, "bare": r,
                 "entry": tuple(rounds[:-1]) + ((r.x, r.y, r.z),),
                 "width": tuple(rounds[:-1]) + (zero_round(3 - n),)}[kind]
        return (n_value, n), (value, MISS)
    return (n_value, n), (value, tuple(rounds))


@CONTRACT
@given(program=programs())
def test_program(program):
    holds(lambda n, r: repr(Program(n, r)), *program, match=r"^(n|rounds)\b")


@CONTRACT
@given(m1=shape_ints())
def test_split_program(m1):
    w = random_program(1, 4, np.random.default_rng(116))
    holds(lambda k: repr(split_program(w, k)), m1, match=r"^m1\b")


@CONTRACT
@given(name=st.sampled_from(sorted(GATE_ORDER)), power=int_values(-9, 17))
def test_matrix_of(name, power):
    holds(lambda p: matrix_of(name, p), power, match=r"^power\b")


@CONTRACT
@given(y=int_values(-9, 17), masks=st.one_of(st.just((None, None)), bit_vectors(2)))
def test_run_toy_y_and_masks(y, masks):
    holds(lambda v, mk: run_toy(v, basis_state(1, (1,)), seed=119, force_masks=mk), y, masks,
          match=r"^(y|force_masks|mask_[xz])\b")


CONSTRUCTORS = {
    "zero_program": zero_program,
    "identity_program": identity_program,
    "random_program": lambda n, m: random_program(n, m, np.random.default_rng(120)),
}


@CONTRACT
@given(name=st.sampled_from(sorted(CONSTRUCTORS)), n=shape_ints(), m=shape_ints())
def test_program_constructors(name, n, m):
    holds(lambda a, b: repr(CONSTRUCTORS[name](a, b)), n, m, match=r"^[nm]\b")


@CONTRACT
@given(n=shape_ints())
def test_zero_round(n):
    holds(lambda a: repr(zero_round(a)), n, match=r"^n\b")


@st.composite
def seeds(draw):
    """A run seed: a non-negative int in some form, or a tuple, list or array
    of them (the benchmark's (seed, i) among them), or a near miss: a
    negative entry, a float twin, a half, a str or a nested sequence."""
    ints = draw(st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=3))
    values = [draw(st.sampled_from(int_forms(v)))(v) for v in ints]
    kind = draw(st.sampled_from(("int", "int", "seq", "seq", "negative", "float",
                                 "half", "str", "nested")))
    if kind == "int":
        return values[0], ints[0]
    if kind == "seq":
        return draw(st.sampled_from((tuple, list, np.array)))(values), tuple(ints)
    miss = {"negative": -1 - ints[0], "float": float(ints[0]), "half": ints[0] + 0.5,
            "str": str(ints[0]), "nested": (tuple(ints), 1)}[kind]
    if draw(st.booleans()):
        miss = (*ints, miss)
    return miss, MISS


RUNS = {
    "run_toqc": lambda s: run_toqc(W, basis_bits=(1, 0), seed=s),
    "run_tgdmqc": lambda s: run_tgdmqc(W, ROUNDS, 1, seed=s),
    "run_toy": lambda s: run_toy(5, basis_state(1, (1,)), seed=s),
}


@CONTRACT
@given(seed=seeds(), name=st.sampled_from(sorted(RUNS)))
def test_run_seeds(seed, name):
    holds(RUNS[name], seed, match=r"^seed\b")


# -- the command line ------------------------------------------------------------
# Argument vectors from the strategies above, rendered as tokens, with files
# that are valid, of another shape, malformed or missing, and sometimes one
# token dropped. Whatever the vector, `cli.main` ends with exit code 0, 1 or
# 2 (an argparse usage error exits 2) and prints no traceback.

ARGV = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(122)
    files = {"w": W, "users": Program(N, ROUNDS), "wide": random_program(N + 1, M, rng),
             "long": random_program(N, M + 1, rng)}
    for name, program in files.items():
        save_program(program, root / f"{name}.txt")
    (root / "state.txt").write_text("0.5 0\n0 0.5\n-0.5 0\n0 -0.5\n")
    (root / "bad.txt").write_text("1 1\n1.5\n0\n\n")
    (root / "toqc.log").write_text(TEXT)
    (root / "tgdmqc.log").write_text(run_tgdmqc(W, ROUNDS, seed=123).transcript.render())
    return root


def _token(value):
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (tuple, list)):
        return "".join(map(_token, value))
    return str(value)


def _tokens(strategy):
    return strategy.map(lambda drawn: _token(drawn[0]))


SEEDS = _tokens(int_values(-2, 2**20))
COUNTS = _tokens(shape_ints())


@st.composite
def argv_vectors(draw):
    """A clean vector (every field valid), or one whose fields may each be a
    near miss, with one token dropped now and then."""
    clean = draw(st.booleans())

    def field(valid, miss):
        return draw(st.sampled_from(valid) if clean
                    else st.one_of(st.sampled_from(valid), miss))

    def flags(*names):
        return [f for f in names if draw(st.booleans())]

    command = draw(st.sampled_from(("toqc", "tgdmqc", "toy", "report", "audit")))
    program = field(("w.txt",), st.sampled_from(("wide.txt", "long.txt", "bad.txt",
                                                 "missing.txt")))
    n_circ = field(("1", "2"), COUNTS)
    if command == "toqc":
        inp = field(("01", "10", "state.txt"),
                    st.one_of(_tokens(bit_vectors(N)), st.sampled_from(("bad.txt", "x.txt"))))
        args = ["--program", program, "--input", inp, "--n-circ", n_circ,
                *flags("--classical-output", "--eager-bell")]
    elif command == "tgdmqc":
        users = field(("users.txt",), st.sampled_from(("long.txt", "missing.txt")))
        args = ["--server-program", program, "--user-rounds", users, "--n-circ", n_circ,
                *flags("--exhaustive-branches", "--eager-bell")]
    elif command == "toy":
        args = ["--y", field(tuple("01234567"), _tokens(int_values(-9, 17)))]
    elif command == "report":
        args = ["--max-n", field(("1", "2"), COUNTS), "--max-m", field(("1", "2"), COUNTS)]
    else:
        protocol = draw(st.sampled_from(("toqc", "tgdmqc")))
        args = ["--transcript", field((f"{protocol}.log",), st.sampled_from(
                    ("toqc.log", "tgdmqc.log", "bad.txt", "missing.txt"))),
                "--protocol", field((protocol,), st.just("toq")),
                "--n", field((str(N),), COUNTS), "--m", field((str(M),), COUNTS),
                "--n-circ", n_circ]
    if command != "audit":
        args += ["--seed", field(tuple(map(str, range(5))), SEEDS)]
    if not clean and draw(st.integers(0, 4)) == 0:
        del args[draw(st.integers(0, len(args) - 1))]
    return [command, *args]


@ARGV
@given(argv=argv_vectors())
def test_cli_argument_vectors(cli_files, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.chdir(cli_files), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue()
