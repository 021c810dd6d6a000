"""Gate matrices, the program data model, and program utilities.

A program acts on n qubits in m rounds. Each round holds three exponent
families: `x` (mod 4) for the modified Hadamard H, `y` (mod 8) for the 1/8
phase gate T, and `z` (mod 2) for controlled-Z over qubit pairs. The round
unitary is H(x) T(y) CZ(z), i.e. the CZ factors act first.

Conventions: H = (1/sqrt 2) [[1, 1], [-1, 1]] (a -45 degree rotation, so
H^2 = Y = ZX and T^4 H is the standard Hadamard); CZ puts phase -1 on |11>.
"""

from dataclasses import dataclass

import numpy as np

_SQRT_HALF = 1.0 / np.sqrt(2.0)

X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
Y = Z @ X                      # [[0, 1], [-1, 0]]
T = np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=np.complex128)
H = _SQRT_HALF * np.array([[1, 1], [-1, 1]], dtype=np.complex128)
CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(np.complex128)

GATE_ORDER = {"X": 2, "Z": 2, "CZ": 2, "T": 8, "H": 8, "Y": 4}


def matrix_of(name, power=1):
    """Gate matrix raised to `power` (reduced modulo the gate's order)."""
    try:
        order = GATE_ORDER[name]
    except KeyError:
        raise ValueError(f"unknown gate name {name!r}") from None
    p = power % order
    if name == "T":
        return np.array([[1, 0], [0, np.exp(1j * np.pi * p / 4)]], dtype=np.complex128)
    if name == "H":
        # H is the rotation R(-pi/4); its powers stay exact in closed form
        c, s = np.cos(p * np.pi / 4), np.sin(p * np.pi / 4)
        return np.array([[c, s], [-s, c]], dtype=np.complex128)
    base = {"X": X, "Z": Z, "Y": Y, "CZ": CZ}[name]
    return np.linalg.matrix_power(base, p)


def h_power(k):
    return matrix_of("H", k)


# -- program model -----------------------------------------------------------

def qubit_pairs(n):
    """Ordered pairs (s, t) with 1 <= s < t <= n, lexicographic."""
    return tuple((s, t) for s in range(1, n + 1) for t in range(s + 1, n + 1))


def _check_residues(vals, mod, what):
    for v in vals:
        if not isinstance(v, int) or not 0 <= v < mod:
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
        object.__setattr__(self, "x", tuple(int(v) for v in self.x))
        object.__setattr__(self, "y", tuple(int(v) for v in self.y))
        object.__setattr__(self, "z", tuple(int(v) for v in self.z))
        _check_residues(self.x, 4, "x")
        _check_residues(self.y, 8, "y")
        _check_residues(self.z, 2, "z")

    def check_shape(self, n):
        if len(self.x) != n or len(self.y) != n:
            raise ValueError(f"round vectors must have length {n}")
        if len(self.z) != n * (n - 1) // 2:
            raise ValueError(f"round z must have {n * (n - 1) // 2} entries")


def zero_round(n):
    return ProgramRound((0,) * n, (0,) * n, (0,) * (n * (n - 1) // 2))


def ones_round(n):
    return ProgramRound((1,) * n, (1,) * n, (1,) * (n * (n - 1) // 2))


@dataclass(frozen=True)
class Program:
    n: int
    rounds: tuple

    def __post_init__(self):
        object.__setattr__(self, "rounds", tuple(self.rounds))
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if len(self.rounds) < 1:
            raise ValueError("a program needs at least one round")
        for r in self.rounds:
            r.check_shape(self.n)

    @property
    def m(self):
        return len(self.rounds)


def identity_program(n, m):
    """The program whose every exponent entry is 1 (identity of the product)."""
    return Program(n, tuple(ones_round(n) for _ in range(m)))


def zero_program(n, m):
    return Program(n, tuple(zero_round(n) for _ in range(m)))


def program_product(w, w2):
    """Componentwise product of exponents, mod 4 / 8 / 2 respectively."""
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
    if not 1 <= m1 < w.m:
        raise ValueError(f"m1 must satisfy 1 <= m1 < {w.m}")
    return Program(w.n, w.rounds[:m1]), Program(w.n, w.rounds[m1:])


def concat_programs(w1, w2):
    if w1.n != w2.n:
        raise ValueError("programs must share n")
    return Program(w1.n, w1.rounds + w2.rounds)


def random_program(n, m, rng):
    rounds = []
    for _ in range(m):
        rounds.append(
            ProgramRound(
                tuple(int(v) for v in rng.integers(0, 4, size=n)),
                tuple(int(v) for v in rng.integers(0, 8, size=n)),
                tuple(int(v) for v in rng.integers(0, 2, size=n * (n - 1) // 2)),
            )
        )
    return Program(n, tuple(rounds))


# -- applying rounds to a register -------------------------------------------

def round_unitary_apply(reg, qubits, rnd):
    """Apply one round's unitary H(x) T(y) CZ(z) to the given qubits.

    CZ factors go first (lexicographic pairs), then T (ascending qubit), then
    H; within each family the factors commute.
    """
    n = len(qubits)
    rnd.check_shape(n)
    for (s, t), zp in zip(qubit_pairs(n), rnd.z):
        if zp % 2:
            reg.apply_cz(qubits[s - 1], qubits[t - 1])
    for s in range(n):
        yp = rnd.y[s] % 8
        if yp:
            reg.apply_diag1(qubits[s], 1.0, np.exp(1j * np.pi * yp / 4))
    for s in range(n):
        xp = rnd.x[s] % 4
        if xp:
            reg.apply_1q(qubits[s], h_power(xp))


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
    n, m = (_program_int(1, v) for v in header)
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


def _program_int(lineno, token):
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"program line {lineno}: {token!r} is not an integer") from None


def _parse_residue_line(lines, i, count, mod, what):
    """Line i (0-based) of the program text: `count` residues mod `mod`."""
    toks = lines[i].split()
    if len(toks) != count:
        raise ValueError(f"{what}: expected {count} values, got {len(toks)}")
    vals = []
    for t in toks:
        v = _program_int(i + 1, t)
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


# -- CNOT from the universal set ----------------------------------------------

@dataclass(frozen=True)
class GateFactor:
    """A single factor: gate name, which wire(s) of (s, t), and a power."""

    name: str
    on: str      # "s", "t" or "st"
    power: int


# Factor lists are written in matrix order (leftmost factor applied last).
UNSIGNED_CNOT_FACTORS = (
    GateFactor("T", "t", 4),
    GateFactor("H", "t", 1),
    GateFactor("CZ", "st", 1),
    GateFactor("T", "t", 4),
    GateFactor("H", "t", 1),
)

SIGNED_CNOT_FACTORS = (
    GateFactor("H", "t", 1),
    GateFactor("CZ", "st", 1),
    GateFactor("T", "t", 4),
    GateFactor("H", "t", 1),
    GateFactor("T", "t", 4),
)


def cnot_via_universal_set(signed=True):
    """CNOT decompositions over {H, T, CZ} on wires (s, t) = (control, target).

    Returns (factors, sign): the unsigned variant multiplies out to exactly
    +CNOT. The signed variant is returned with sign -1 as claimed for it; see
    factors_matrix to multiply a sequence out.
    """
    if signed:
        return SIGNED_CNOT_FACTORS, -1
    return UNSIGNED_CNOT_FACTORS, +1


def factor_matrix(f):
    """The 4x4 matrix of one factor on wires (s, t), s = first tensor slot."""
    if f.name == "CZ":
        return matrix_of("CZ", f.power)
    g = matrix_of(f.name, f.power)
    ident = np.eye(2, dtype=np.complex128)
    if f.on == "s":
        return np.kron(g, ident)
    if f.on == "t":
        return np.kron(ident, g)
    raise ValueError(f"single-qubit factor cannot act on {f.on!r}")


def factors_matrix(factors):
    """Multiply a factor list (matrix order) into a single 4x4 matrix."""
    out = np.eye(4, dtype=np.complex128)
    for f in factors:
        out = out @ factor_matrix(f)
    return out


def apply_factors(reg, qs, qt, factors):
    """Apply a factor list to register qubits; rightmost factor first."""
    for f in reversed(factors):
        if f.name == "CZ":
            reg.apply_cz(qs, qt, f.power)
        else:
            target = qs if f.on == "s" else qt
            reg.apply_1q(target, matrix_of(f.name, f.power))


CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    dtype=np.complex128,
)


# -- parity example program ---------------------------------------------------

def compile_parity(inputs):
    """Two-qubit program computing the parity of the given bits.

    Round 1 prepares |1> on qubit 2 (up to phase); for each input bit two
    rounds then apply a CNOT-equivalent factor string to qubit 1 exactly when
    the bit is 1. Measuring qubit 1 of the final state yields the parity with
    probability 1. Returns (program, n_circ) with n_circ = 1.
    """
    bits = [int(b) for b in inputs]
    if len(bits) < 1:
        raise ValueError("need at least one input bit")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("inputs must be bits")
    rounds = [ProgramRound((0, 2), (0, 4), (0,))]
    for b in bits:
        rounds.append(ProgramRound((b, 0), (4 * b, 0), (0,)))
        rounds.append(ProgramRound((b, 0), (4 * b, 0), (b,)))
    return Program(2, tuple(rounds)), 1
