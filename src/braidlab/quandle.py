"""Self-distributive structures and their combinatorial braid solutions.

A shelf is a set with a left self-distributive operation; a rack adds
invertible left translations, and a quandle adds idempotence.  Every shelf
gives a set-theoretic braid solution r(a, b) = (b, b > a), a permutation of
X x X when the shelf is a rack.  The dihedral quandle i > j = 2i - j mod n
yields a braid solution of order n whose eigenvalues are n-th roots of unity;
for odd prime n its eigenspaces have dimensions (n-1, ..., n-1, 2n-1).

Tables are 0-indexed internally and 1-indexed (x_i labels, standing for the
residues x_i = i - 1) in all I/O.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from . import automata
from .automata import SCHEMA
from .errors import SizeGuardError, ValidationError, check_dense_dim
from .states import Word, all_words

ORBIT_GUARD = 10 ** 5


@dataclass(frozen=True)
class QuandleTable:
    """Operation table op[a][b] = a > b over {0, ..., n-1}."""

    n: int
    op: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("table size must be >= 1")
        op = tuple(tuple(int(v) for v in row) for row in self.op)
        if len(op) != self.n or any(len(row) != self.n for row in op):
            raise ValidationError(f"operation table must be {self.n}x{self.n}")
        for row in op:
            for v in row:
                if not 0 <= v < self.n:
                    raise ValidationError(f"table entry {v} out of range [0,{self.n - 1}]")
        object.__setattr__(self, "op", op)

    def apply(self, a: int, b: int) -> int:
        return self.op[a][b]


def validate(table: QuandleTable) -> dict:
    """Axiom flags {shelf, rack, quandle} from exhaustive checks."""
    n, op = table.n, table.op
    shelf = all(op[a][op[b][c]] == op[op[a][b]][op[a][c]]
                for a in range(n) for b in range(n) for c in range(n))
    rack = shelf and all(sorted(row) == list(range(n)) for row in op)
    quandle = rack and all(op[a][a] == a for a in range(n))
    return {"shelf": shelf, "rack": rack, "quandle": quandle}


def dihedral(n: int) -> QuandleTable:
    """The dihedral quandle on Z_n: i > j = 2i - j mod n."""
    if n < 2:
        raise ValidationError("dihedral quandle needs n >= 2")
    return QuandleTable(n, tuple(tuple((2 * i - j) % n for j in range(n))
                                 for i in range(n)))


def tetrahedron() -> QuandleTable:
    """The tetrahedron quandle: rows act by the 3-cycles (234), (143), (124), (132)."""
    cycles = {0: (1, 2, 3), 1: (0, 3, 2), 2: (0, 1, 3), 3: (0, 2, 1)}
    op = []
    for a in range(4):
        cyc = cycles[a]
        perm = list(range(4))
        for i, x in enumerate(cyc):
            perm[x] = cyc[(i + 1) % 3]
        op.append(tuple(perm))
    return QuandleTable(4, tuple(op))


def _require_rack(table: QuandleTable) -> None:
    flags = validate(table)
    if not flags["rack"]:
        raise ValidationError("operation table is not a rack")


def _inverse_rows(table: QuandleTable) -> list[list[int]]:
    inv = [[0] * table.n for _ in range(table.n)]
    for a in range(table.n):
        for b in range(table.n):
            inv[a][table.op[a][b]] = b
    return inv


@dataclass(frozen=True)
class QuandleBraid:
    """Linearized braid solution r(e_a ox e_b) = e_b ox e_{b > a}."""

    n: int
    matrix: np.ndarray
    table: QuandleTable

    def pair_map(self, a: int, b: int) -> tuple[int, int]:
        return b, self.table.op[b][a]


def braid_solution(table: QuandleTable) -> QuandleBraid:
    """Permutation matrix of the rack braid solution on V_n tensor V_n."""
    _require_rack(table)
    n = table.n
    m = np.zeros((n * n, n * n), dtype=int)
    for a in range(n):
        for b in range(n):
            m[b * n + table.op[b][a], a * n + b] = 1
    return QuandleBraid(n, m, table)


def inverse_solution(table: QuandleTable) -> np.ndarray:
    """Matrix of r^{-1}(a, b) = (a >^{-1} b, a)."""
    _require_rack(table)
    n = table.n
    inv = _inverse_rows(table)
    m = np.zeros((n * n, n * n), dtype=int)
    for a in range(n):
        for b in range(n):
            m[inv[a][b] * n + a, a * n + b] = 1
    return m


def braid_on_word(table: QuandleTable, word: Word, j: int) -> Word:
    """Apply the braid solution at sites (j, j+1) to a basis word (1-based letters)."""
    if not 1 <= j <= len(word) - 1:
        raise ValidationError(f"site {j} out of range [1,{len(word) - 1}]")
    a, b = word[j - 1] - 1, word[j] - 1
    return word[:j - 1] + (b + 1, table.op[b][a] + 1) + word[j + 1:]


@dataclass
class QuandleSpectrum:
    """Spectral decomposition of a quandle braid matrix (N = 2).

    Eigenvalues are roots of unity, one group per value; eigenvectors are
    stored as dense complex columns over the n^2 pair basis, built from the
    cycle decomposition with the seed coefficient real positive.
    """

    n: int
    eigenvalues: list
    dimensions: list
    eigenvectors: list   # list of (n^2 x dim) arrays aligned with eigenvalues


def _cycles(items, step) -> list[list]:
    """Cycle decomposition of the permutation step on items; each cycle
    starts at the smallest item not yet visited."""
    unseen = set(items)
    cycles = []
    while unseen:
        seed = min(unseen)
        cyc = [seed]
        unseen.discard(seed)
        cur = step(seed)
        while cur != seed:
            cyc.append(cur)
            unseen.discard(cur)
            cur = step(cur)
        cycles.append(cyc)
    return cycles


def dihedral_spectrum(n: int) -> QuandleSpectrum:
    """Eigenvalues and eigenspaces of the dihedral braid solution, n odd.

    Every eigenvalue is an n-th root of unity.  Eigenvectors are generated
    cycle by cycle: a cycle of length L contributes one eigenvector
    (1/sqrt(L)) sum_t lambda^{-t} r^t (seed) for each L-th root lambda.  For
    prime n every off-diagonal cycle has full length n and the eigenspace
    dimensions are (n-1, ..., n-1) with 2n-1 at eigenvalue 1; for composite
    odd n shorter cycles occur and the non-unit eigenspaces shrink.
    """
    if n < 3 or n % 2 == 0:
        raise ValidationError("the dihedral spectrum statement covers odd n >= 3")
    table = dihedral(n)

    def step(pair):
        a, b = pair
        return b, table.op[b][a]

    pairs = [(a, b) for a in range(n) for b in range(n)]
    index = {(a, b): a * n + b for a, b in pairs}
    by_value: dict[int, list[np.ndarray]] = {}
    for cyc in _cycles(pairs, step):
        L = len(cyc)
        for j in range(L):
            lam = np.exp(2j * np.pi * j / L)
            v = np.zeros(n * n, dtype=complex)
            for t, pair in enumerate(cyc):
                v[index[pair]] += lam ** (-t) / np.sqrt(L)
            root = (j * (n // L)) % n  # as an n-th root exponent
            by_value.setdefault(root, []).append(v)

    eigenvalues, dims, vectors = [], [], []
    for root in sorted(by_value, key=lambda r: (r == 0, r)):
        cols = np.column_stack(by_value[root])
        eigenvalues.append(np.exp(2j * np.pi * root / n))
        dims.append(cols.shape[1])
        vectors.append(cols)
    return QuandleSpectrum(n, eigenvalues, dims, vectors)


def quandle_group_rep(table: QuandleTable, a: int) -> np.ndarray:
    """Fundamental rack-group representation M_a = sum_b e_{b, a > b}
    (0-indexed a); satisfies M_a M_b = M_b M_{b > a} exactly."""
    _require_rack(table)
    if not 0 <= a < table.n:
        raise ValidationError(f"generator index {a} out of range [0,{table.n - 1}]")
    n = table.n
    m = np.zeros((n, n), dtype=int)
    for b in range(n):
        m[b, table.op[a][b]] = 1
    return m


def centralizer_residual(table: QuandleTable, N: int) -> int:
    """Max-entry residual of r_j Delta(M_a) - Delta(M_a) r_j over all a, j.

    Both sides are compositions of permutations of the word set, so the
    check is exact; the result is 0 whenever the centralizer property holds.
    """
    _require_rack(table)
    n = table.n
    if n ** N > ORBIT_GUARD:
        raise SizeGuardError(f"n^N = {n**N} exceeds the orbit guard {ORBIT_GUARD}")
    inv = _inverse_rows(table)
    words = all_words(n, N)

    def delta_m(word, a):
        # M_a e_c = e_{L_a^{-1}(c)} sitewise
        return tuple(inv[a][x - 1] + 1 for x in word)

    worst = 0
    for a in range(n):
        for j in range(1, N):
            for w in words:
                lhs = braid_on_word(table, delta_m(w, a), j)
                rhs = delta_m(braid_on_word(table, w, j), a)
                if lhs != rhs:
                    worst = 1
    return worst


@dataclass
class OrbitGraph:
    """Functional graph of each braid generator on basis words."""

    n: int
    N: int
    cycles: dict     # generator index j -> list of cycles (lists of words)
    order: int       # multiplicative order of the braid solution

    def fixed_points(self, j: int) -> list[Word]:
        return [cyc[0] for cyc in self.cycles[j] if len(cyc) == 1]


def orbit_automaton(table: QuandleTable, N: int) -> OrbitGraph:
    """Cycle decomposition of every generator r_j acting on words."""
    _require_rack(table)
    n = table.n
    if N < 1:
        raise ValidationError("N must be >= 1")
    if n ** N > ORBIT_GUARD:
        raise SizeGuardError(f"n^N = {n**N} exceeds the orbit guard {ORBIT_GUARD}")
    words = all_words(n, N)
    cycles = {}
    order = 1
    for j in range(1, N):
        cycles[j] = _cycles(words, lambda w, j=j: braid_on_word(table, w, j))
        order = math.lcm(order, *map(len, cycles[j]))
    return OrbitGraph(n, N, cycles, order)


def orbit_to_automaton(graph: OrbitGraph, table: QuandleTable) -> automata.Automaton:
    """Word-level automaton of the braid generators, for DOT export."""
    n, N = graph.n, graph.N
    check_dense_dim(n ** N, "orbit automaton")
    words = all_words(n, N)
    index = {w: i for i, w in enumerate(words)}
    letters = [f"s{j}" for j in range(1, N)]
    transitions = {}
    for j in range(1, N):
        m = np.zeros((len(words), len(words)))
        for w in words:
            m[index[braid_on_word(table, w, j)], index[w]] = 1.0
        transitions[f"s{j}"] = automata.TransitionMatrix(m, "combinatorial")
    labels = tuple("".join(f"x{x}" for x in w) for w in words)
    return automata.Automaton(len(words), tuple(letters), transitions, 1,
                              frozenset(), labels)


def table_to_json(table: QuandleTable) -> str:
    """JSON {n, op} with 1-based entries; the metadata records the label
    convention x_i = residue i - 1."""
    payload = {
        "schema": SCHEMA,
        "n": table.n,
        "op": [v + 1 for row in table.op for v in row],
        "indexing": "1-based labels x_1..x_n (x_i stands for residue i-1)",
    }
    return json.dumps(payload, indent=2)


def table_from_json(text: str) -> QuandleTable:
    """The table of table_to_json; n and every op entry must be a JSON integer."""
    try:
        payload = json.loads(text)
        n, flat = payload["n"], list(payload["op"])
    except (KeyError, TypeError, ValueError) as exc:     # ValueError: JSONDecodeError too
        raise ValidationError(f"bad quandle table JSON: {exc}") from exc
    if any(type(v) is not int for v in [n, *flat]):
        raise ValidationError("bad quandle table JSON: n and the op entries must be integers")
    if len(flat) != n * n:
        raise ValidationError(f"op must hold {n * n} row-major entries, got {len(flat)}")
    rows = tuple(tuple(flat[i * n + j] - 1 for j in range(n)) for i in range(n))
    return QuandleTable(n, rows)
