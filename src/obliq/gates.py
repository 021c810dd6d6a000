"""Gate matrices, the program data model, and program utilities. No
register code lives here: the oracle applies a program's rounds.

A program acts on n qubits in m rounds. Each round holds three exponent
families: `x` (mod 4) for the modified Hadamard H, `y` (mod 8) for the 1/8
phase gate T, and `z` (mod 2) for controlled-Z over qubit pairs. The round
unitary is H(x) T(y) CZ(z), i.e. the CZ factors act first.

Conventions: H = (1/sqrt 2) [[1, 1], [-1, 1]] (a -45 degree rotation, so
H^2 = Y = ZX and T^4 H is the standard Hadamard); CZ puts phase -1 on |11>.
"""

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
Y = Z @ X                      # [[0, 1], [-1, 0]]
CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(np.complex128)

GATE_ORDER = {"X": 2, "Z": 2, "CZ": 2, "T": 8, "H": 8, "Y": 4}


def matrix_of(name, power=1):
    """Gate matrix raised to `power` (reduced modulo the gate's order)."""
    try:
        order = GATE_ORDER[name]
    except KeyError:
        raise ValueError(f"unknown gate name {name!r}") from None
    p = as_ints((power,), "power")[0] % order
    if name == "T":
        return np.array([[1, 0], [0, np.exp(1j * np.pi * p / 4)]], dtype=np.complex128)
    if name == "H":
        # H is the rotation R(-pi/4); its powers stay exact in closed form
        c, s = np.cos(p * np.pi / 4), np.sin(p * np.pi / 4)
        return np.array([[c, s], [-s, c]], dtype=np.complex128)
    base = {"X": X, "Z": Z, "Y": Y, "CZ": CZ}[name]
    return np.linalg.matrix_power(base, p)


# -- program model -----------------------------------------------------------

@lru_cache(maxsize=64)
def qubit_pairs(n):
    """Ordered pairs (s, t) with 1 <= s < t <= n, lexicographic."""
    return tuple((s, t) for s in range(1, n + 1) for t in range(s + 1, n + 1))


@lru_cache(maxsize=64)
def pair_table(n):
    """`qubit_pairs(n)` with 0-based wire indices."""
    return tuple((s - 1, t - 1) for s, t in qubit_pairs(n))


def as_ints(values, what):
    """`values` as a tuple of Python ints. Ints, bools and numpy integers and
    bools pass; any other value, such as 1.7, or a `values` that is not a
    sequence raises a ValueError naming `what` instead of being truncated."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        pass
    try:
        values = tuple(values)
    except TypeError:
        raise ValueError(f"{what} is {values!r}, not a sequence of integers") from None
    out = []
    for v in values:
        try:
            out.append(int(v) if isinstance(v, np.bool_) else operator.index(v))
        except TypeError:
            raise ValueError(f"{what}: value {v!r} is not an integer") from None
    return tuple(out)


def as_bits(values, what, count=None):
    """`values` as a tuple of 0/1 Python ints. Ints, bools and numpy integers
    and bools pass when they are 0 or 1; anything else, such as 2, -1, 0.5,
    1.0 or "1", raises a ValueError naming `what` and the entry. With
    `count`, `values` must hold exactly that many entries."""
    try:
        values = tuple(values)
    except TypeError:
        raise ValueError(f"{what} is {values!r}, not a sequence of bits") from None
    if count is not None and len(values) != count:
        raise ValueError(f"{what} has {len(values)} entries, expected n={count}")
    for i, v in enumerate(values):
        if not (isinstance(v, (int, np.integer, np.bool_)) and v in (0, 1)):
            raise ValueError(f"{what}[{i}] is {v!r}, not a bit")
    return tuple(map(int, values))


def as_count(value, what):
    """`value` as an int of at least 1 by the integer rule (`as_ints`);
    anything else raises a ValueError naming `what`."""
    (count,) = as_ints((value,), what)
    if count < 1:
        raise ValueError(f"{what} is {count}, not at least 1")
    return count


def as_seed(seed):
    """`seed` for numpy's SeedSequence: None, a non-negative integer or a
    sequence of them (a tuple, list, range or 1-d array), each by the
    integer rule (`as_ints`), as None, an int or a tuple of ints; anything
    else, a set or a dict among them, raises a ValueError naming seed."""
    if seed is None:
        return None
    # a 0-d array or any value but a sequence is tried as one integer
    ndim = getattr(seed, "ndim", None)
    single = ndim == 0 or ndim is None and not isinstance(seed, (tuple, list, range))
    try:
        values = as_ints((seed,) if single else seed, "seed")
        if not values or min(values) >= 0:
            return values[0] if single else values
    except ValueError:
        pass
    raise ValueError(f"seed is {seed!r}, not None, a non-negative integer "
                     "or a sequence of them")


def bits_index(bits):
    """The index of the basis state |bits>: the first bit is the most
    significant, as in every amplitude vector and distribution here."""
    return sum(b << k for k, b in enumerate(reversed(bits)))


def check_n_circ(n_circ, n):
    """`n_circ` as an int in [1, n]; anything else raises a ValueError
    naming it."""
    (n_circ,) = as_ints((n_circ,), "n_circ")
    if not 1 <= n_circ <= n:
        raise ValueError(f"n_circ is {n_circ}, not in [1, {n}]")
    return n_circ


def _check_residues(vals, mod, what):
    if vals and (min(vals) < 0 or max(vals) >= mod):
        raise ValueError(f"{what} entries must be integers in [0, {mod})")


@dataclass(frozen=True)
class ProgramRound:
    """One round of exponents: x (mod 4, H), y (mod 8, T), z (mod 2, CZ).

    `z` is stored over qubit_pairs(n) in lexicographic order.
    """

    x: tuple
    y: tuple
    z: tuple = ()

    def __post_init__(self):
        for what, mod in (("x", 4), ("y", 8), ("z", 2)):
            vals = as_ints(getattr(self, what), what)
            _check_residues(vals, mod, what)
            object.__setattr__(self, what, vals)

    def check_shape(self, n):
        if len(self.x) != n or len(self.y) != n:
            raise ValueError(f"round vectors must have length {n}")
        if len(self.z) != n * (n - 1) // 2:
            raise ValueError(f"round z must have {n * (n - 1) // 2} entries")


def as_rounds(rounds, n, what):
    """`rounds` as a tuple of ProgramRounds on n qubits; a non-sequence, an
    entry that is not a ProgramRound or one of the wrong shape raises a
    ValueError naming `what` or the entry."""
    try:
        rounds = tuple(rounds)
    except TypeError:
        raise ValueError(f"{what} is {rounds!r}, not a sequence of rounds") from None
    for i, r in enumerate(rounds):
        if not isinstance(r, ProgramRound):
            raise ValueError(f"{what}[{i}] is a {type(r).__name__}, not a ProgramRound")
        try:
            r.check_shape(n)
        except ValueError as exc:
            raise ValueError(f"{what}[{i}]: {exc}") from None
    return rounds


def zero_round(n):
    n = as_count(n, "n")
    return ProgramRound((0,) * n, (0,) * n, (0,) * (n * (n - 1) // 2))


@dataclass(frozen=True)
class Program:
    n: int
    rounds: tuple

    def __post_init__(self):
        n = as_count(self.n, "n")
        rounds = as_rounds(self.rounds, n, "rounds")
        if not rounds:
            raise ValueError("rounds is empty: a program needs at least one round")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rounds", rounds)

    @property
    def m(self):
        return len(self.rounds)


def as_program(value, what):
    """`value` if it is a Program; anything else raises a ValueError naming
    `what` and the value's type."""
    if not isinstance(value, Program):
        raise ValueError(f"{what} is a {type(value).__name__}, not a Program")
    return value


def identity_program(n, m):
    """The program whose every exponent entry is 1 (identity of the product)."""
    n, m = as_count(n, "n"), as_count(m, "m")
    one = ProgramRound((1,) * n, (1,) * n, (1,) * (n * (n - 1) // 2))
    return Program(n, (one,) * m)


def zero_program(n, m):
    n, m = as_count(n, "n"), as_count(m, "m")
    return Program(n, tuple(zero_round(n) for _ in range(m)))


def program_product(w, w2):
    """Componentwise product of exponents, mod 4 / 8 / 2 respectively."""
    w, w2 = as_program(w, "w"), as_program(w2, "w2")
    if w.n != w2.n or w.m != w2.m:
        raise ValueError("programs must share n and m")
    rounds = tuple(
        ProgramRound(
            tuple((a * b) % 4 for a, b in zip(r1.x, r2.x)),
            tuple((a * b) % 8 for a, b in zip(r1.y, r2.y)),
            tuple((a * b) % 2 for a, b in zip(r1.z, r2.z)),
        )
        for r1, r2 in zip(w.rounds, w2.rounds)
    )
    return Program(w.n, rounds)


def split_program(w, m1):
    """Split into the first m1 rounds and the rest (both nonempty)."""
    w = as_program(w, "w")
    (m1,) = as_ints((m1,), "m1")
    if not 1 <= m1 < w.m:
        raise ValueError(f"m1 must satisfy 1 <= m1 < {w.m}")
    return Program(w.n, w.rounds[:m1]), Program(w.n, w.rounds[m1:])


def concat_programs(w1, w2):
    w1, w2 = as_program(w1, "w1"), as_program(w2, "w2")
    if w1.n != w2.n:
        raise ValueError("programs must share n")
    return Program(w1.n, w1.rounds + w2.rounds)


def random_program(n, m, rng):
    """A uniform random program on n qubits in m rounds, drawn from `rng`.

    All m rounds come from one `rng.integers(0, 8, size=(m, 2n + n(n-1)/2))`
    call, each row in the order x, y, z, with x = v >> 1, y = v and
    z = v >> 2. That equals the three calls per round `rng.integers(0, 4,
    size=n)`, `(0, 8, size=n)` and `(0, 2, size=n(n-1)/2)`, value for value
    and in the generator's final state: on a power-of-two range numpy's
    bounded draw takes the top bits of the next 32-bit half of the stream
    and never rejects one, and the spare half of a 64-bit draw stays in the
    bit generator between calls.
    """
    n, m = as_count(n, "n"), as_count(m, "m")
    shifts = np.array([1] * n + [0] * n + [2] * (n * (n - 1) // 2))
    rows = (rng.integers(0, 8, size=(m, shifts.size)) >> shifts).tolist()
    return Program(n, tuple(ProgramRound(tuple(r[:n]), tuple(r[n:2 * n]), tuple(r[2 * n:]))
                            for r in rows))


# -- program text format ------------------------------------------------------

def format_program(w):
    """Render as text: header `n m`, then per round the x, y and z lines."""
    lines = [f"{w.n} {w.m}"]
    for r in w.rounds:
        lines.append(" ".join(str(v) for v in r.x))
        lines.append(" ".join(str(v) for v in r.y))
        lines.append(" ".join(str(v) for v in r.z))
    return "\n".join(lines) + "\n"


def parse_program(text):
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty program text")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError("header must be two integers: n m")
    n, m = (line_int("program", 1, v) for v in header)
    for name, v in (("n", n), ("m", m)):
        if v < 1:
            raise ValueError(f"program line 1: {name} is {v}, not at least 1")
    if len(lines) < 1 + 3 * m:
        raise ValueError(f"expected {3 * m} round lines after the header")
    npairs = n * (n - 1) // 2
    rounds = []
    for j in range(m):
        xs = _parse_residue_line(lines, 1 + 3 * j, n, 4, f"round {j + 1} x")
        ys = _parse_residue_line(lines, 2 + 3 * j, n, 8, f"round {j + 1} y")
        zs = _parse_residue_line(lines, 3 + 3 * j, npairs, 2, f"round {j + 1} z")
        rounds.append(ProgramRound(xs, ys, zs))
    for extra in lines[1 + 3 * m:]:
        if extra.strip():
            raise ValueError("trailing content after the last round")
    return Program(n, tuple(rounds))


def line_int(text, lineno, token, name=""):
    """The integer `token` on line `lineno` of a `text` ("program" or
    "transcript") file; the error names the line and the field `name`."""
    try:
        return int(token)
    except ValueError:
        field = f"{name} " if name else ""
        raise ValueError(f"{text} line {lineno}: {field}{token!r} is not an integer") from None


def _parse_residue_line(lines, i, count, mod, what):
    """Line i (0-based) of the program text: `count` residues mod `mod`."""
    toks = lines[i].split()
    if len(toks) != count:
        raise ValueError(f"{what}: expected {count} values, got {len(toks)}")
    vals = []
    for t in toks:
        v = line_int("program", i + 1, t)
        if not 0 <= v < mod:
            raise ValueError(f"{what}: value {v} out of range [0, {mod})")
        vals.append(v)
    return tuple(vals)


def load_program(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_program(fh.read())


def save_program(w, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_program(w))


# -- parity example program ---------------------------------------------------

def compile_parity(inputs):
    """Two-qubit program computing the parity of the given bits.

    Round 1 prepares |1> on qubit 2 (up to phase); for each input bit two
    rounds then apply a CNOT-equivalent factor string to qubit 1 exactly when
    the bit is 1. Measuring qubit 1 of the final state yields the parity with
    probability 1. Returns (program, n_circ) with n_circ = 1.
    """
    bits = as_bits(inputs, "inputs")
    if len(bits) < 1:
        raise ValueError("need at least one input bit")
    rounds = [ProgramRound((0, 2), (0, 4), (0,))]
    for b in bits:
        rounds.append(ProgramRound((b, 0), (4 * b, 0), (0,)))
        rounds.append(ProgramRound((b, 0), (4 * b, 0), (b,)))
    return Program(2, tuple(rounds)), 1
