"""Self-distributive structures and their combinatorial braid solutions.

A shelf is a set with a left self-distributive operation; a rack adds
invertible left translations, and a quandle adds idempotence.  Every shelf
gives a set-theoretic braid solution r(a, b) = (b, b > a), a permutation of
X x X when the shelf is a rack.  The dihedral quandle i > j = 2i - j mod n
yields a braid solution of order n whose eigenvalues are n-th roots of unity;
for odd prime n its eigenspaces have dimensions (n-1, ..., n-1, 2n-1).

Tables are 0-indexed internally and 1-indexed (x_i labels, standing for the
residues x_i = i - 1) in all I/O.

The maps are index arrays computed from the table: the inverse rows by one
argsort, and the 0/1 matrices of r, r^{-1} and M_a scattered from target
arrays (_permutation_matrix).  r_j on word indices is one routine,
_braid_targets, for pairs (QuandleBraid.matrix), for words (braid_automaton,
which the DOT export builds from the table alone) and for the centralizer
check, which composes it with Delta(M_a) on word indices.  The dihedral
cycles on pairs come in closed form (dihedral_spectrum).  Only
orbit_automaton still steps tuples, words through braid_on_word in _cycles:
it waits for perfbench/run.py to stop keeping every pass's CLI stdout,
because a faster orbits pass runs more passes and the stdout kept reads as
a peak-memory regression.
"""

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import automata
from .automata import SCHEMA
from .errors import (SizeGuardError, ValidationError, check_dense_dim, check_held_entries,
                     check_sparse_words)
from .states import Word, all_words

ORBIT_GUARD = 10 ** 5


@dataclass(frozen=True)
class QuandleTable:
    """Operation table op[a][b] = a > b over {0, ..., n-1}, held as a tuple
    of int rows.  The entries are checked on one object array: n x n of
    ints (Python or numpy, not bool), each in [0, n-1]."""

    n: int
    op: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("table size must be >= 1")
        cells = np.array(self.op, dtype=object)
        if cells.shape != (self.n, self.n):
            raise ValidationError(f"operation table must be {self.n}x{self.n}")
        kinds = set(map(type, cells.flat))
        if not all(issubclass(k, (int, np.integer)) and k is not bool for k in kinds):
            raise ValidationError("table entries must be integers, got "
                                  + ", ".join(sorted(k.__name__ for k in kinds)))
        bad = cells[(cells < 0) | (cells >= self.n)]
        if bad.size:
            raise ValidationError(f"table entry {bad[0]} out of range [0,{self.n - 1}]")
        object.__setattr__(self, "op", tuple(map(tuple, cells.astype(np.int64).tolist())))


def validate(table: QuandleTable) -> dict:
    """Axiom flags {shelf, rack, quandle} from exhaustive checks.

    Left self-distributivity a > (b > c) = (a > b) > (a > c) is checked one
    a at a time, over every (b, c) at once: op[a][op] against
    op[np.ix_(op[a], op[a])]."""
    op = np.array(table.op, dtype=np.intp)
    shelf = all(np.array_equal(row[op], op[np.ix_(row, row)]) for row in op)
    rack = shelf and bool((np.sort(op, axis=1) == np.arange(table.n)).all())
    quandle = rack and bool((np.diagonal(op) == np.arange(table.n)).all())
    return {"shelf": shelf, "rack": rack, "quandle": quandle}


def dihedral(n: int) -> QuandleTable:
    """The dihedral quandle on Z_n: i > j = 2i - j mod n."""
    if n < 2:
        raise ValidationError("dihedral quandle needs n >= 2")
    check_sparse_words(n * n, f"quandle table n={n}, n^2 entries")
    i = np.arange(n)
    return QuandleTable(n, (2 * i[:, None] - i) % n)


def tetrahedron() -> QuandleTable:
    """The tetrahedron quandle: rows act by the 3-cycles (234), (143), (124), (132)."""
    return QuandleTable(4, ((0, 2, 3, 1), (3, 1, 0, 2), (1, 3, 2, 0), (2, 0, 1, 3)))


def _check_orbits(table: QuandleTable, N: int) -> None:
    """The checks of orbit_automaton, in order, before any word is built."""
    if N < 1:
        raise ValidationError("N must be >= 1")
    if table.n ** N > ORBIT_GUARD:
        raise SizeGuardError(f"n^N = {table.n ** N} exceeds the orbit guard {ORBIT_GUARD}")
    _require_rack(table)


def _require_rack(table: QuandleTable) -> None:
    flags = validate(table)
    if not flags["rack"]:
        raise ValidationError("operation table is not a rack")


def _inverse_rows(table: QuandleTable) -> np.ndarray:
    """inv[a][a > b] = b: each row of a rack table is a permutation."""
    return np.argsort(table.op, axis=1)


def _permutation_matrix(targets: np.ndarray) -> np.ndarray:
    """The 0/1 matrix sending basis vector s to basis vector targets[s], as
    int8: one byte per entry, where int64 took eight."""
    m = np.zeros((len(targets), len(targets)), dtype=np.int8)
    m[targets, np.arange(len(targets))] = 1
    return m


def _braid_targets(op: np.ndarray, N: int, j: int) -> np.ndarray:
    """The index of r_j(w) for every word w of length N, indexed base n with
    its first letter most significant: r_j sends the letters (a, b) at
    places j, j+1 to (b, b > a)."""
    n = len(op)
    index = np.arange(n ** N)
    hi, lo = n ** (N - j), n ** (N - j - 1)
    # in place: index, both letters and the target are the only arrays held
    a = index // hi
    a %= n
    b = index // lo
    b %= n
    target = op[b, a]
    target -= b
    target *= lo
    b -= a
    b *= hi
    target += b
    target += index
    return target


@dataclass(frozen=True)
class QuandleBraid:
    """Linearized braid solution r(e_a ox e_b) = e_b ox e_{b > a}."""

    n: int
    table: QuandleTable

    def pair_map(self, a: int, b: int) -> tuple[int, int]:
        return b, self.table.op[b][a]

    @cached_property
    def matrix(self) -> np.ndarray:
        """Permutation matrix on V_n tensor V_n (n^2 x n^2), built on first
        use: pair_map alone needs none.  Column a n + b holds its 1 at
        pair_map(a, b), from the words of length 2 under r_1.  Its order n^2
        is held to the dense guard before it is built, so n <= 64 at the
        default BRAIDLAB_MAX_DIM."""
        check_dense_dim(self.n ** 2, "quandle braid matrix")
        return _permutation_matrix(_braid_targets(np.array(self.table.op), 2, 1))


def braid_solution(table: QuandleTable) -> QuandleBraid:
    """The rack braid solution of a table; its permutation matrix is
    QuandleBraid.matrix."""
    _require_rack(table)
    return QuandleBraid(table.n, table)


def inverse_solution(table: QuandleTable) -> np.ndarray:
    """Matrix of r^{-1}(a, b) = (a >^{-1} b, a): column a n + b holds its 1
    at row (a >^{-1} b) n + a.  Its order n^2 is held to the dense guard
    before the rack check and before anything is built."""
    check_dense_dim(table.n ** 2, "inverse braid matrix")
    _require_rack(table)
    inv = _inverse_rows(table)
    return _permutation_matrix((inv * table.n + np.arange(table.n)[:, None]).ravel())


def braid_on_word(table: QuandleTable, word: Word, j: int) -> Word:
    """Apply the braid solution at sites (j, j+1) to a basis word (1-based letters)."""
    if not 1 <= j <= len(word) - 1:
        raise ValidationError(f"site {j} out of range [1,{len(word) - 1}]")
    a, b = word[j - 1] - 1, word[j] - 1
    return word[:j - 1] + (b + 1, table.op[b][a] + 1) + word[j + 1:]


@dataclass
class QuandleSpectrum:
    """Spectral decomposition of a quandle braid matrix (N = 2).

    Eigenvalues are roots of unity, one group per value, with dimensions
    counted from the cycles of the braid on pairs.  The eigenvectors are
    built from those cycles on first access.
    """

    n: int
    eigenvalues: list
    dimensions: list
    roots: list = field(repr=False)     # the n-th root exponent of each eigenvalue
    cycles: list = field(repr=False)    # the cycles of the braid on pairs, from least pairs

    @cached_property
    def eigenvectors(self) -> list:
        """(n^2 x dim) dense complex arrays over the pair basis, aligned
        with eigenvalues: a cycle of length L contributes (1/sqrt(L))
        sum_t lambda^{-t} r^t (seed) for each L-th root lambda, so the seed
        coefficient is real positive.

        The arrays hold n^2 complex columns of n^2 entries, 2 n^4 float
        entries in all, and are filled in place, so that is their peak.  It
        is held to the held-entries rule before anything is allocated:
        n <= 70 at the default BRAIDLAB_MAX_DIM."""
        n = self.n
        check_held_entries(2 * n ** 4, f"dihedral spectrum eigenvectors: {n * n} complex "
                                       f"columns of {n * n} entries")
        cols = {root: np.zeros((n * n, dim), dtype=complex)
                for root, dim in zip(self.roots, self.dimensions)}
        filled = dict.fromkeys(self.roots, 0)
        for cyc in self.cycles:
            L = len(cyc)
            for j in range(L):
                lam = np.exp(2j * np.pi * j / L)
                root = _root_exponent(n, L, j)
                v = cols[root][:, filled[root]]
                for t, (a, b) in enumerate(cyc):
                    v[a * n + b] += lam ** (-t) / np.sqrt(L)
                filled[root] += 1
        return [cols[root] for root in self.roots]


def _root_exponent(n: int, L: int, j: int) -> int:
    """The n-th root exponent of the eigenvalue exp(2 pi i j / L) of a cycle
    of length L."""
    return (j * (n // L)) % n


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

    Every eigenvalue is an n-th root of unity.  The cycles of the braid on
    pairs come in closed form: with d = b - a, r^t(a, b) = (a + t d, b + t d)
    mod n, so the cycle of (a, b) has length L = n / gcd(n, d) and its least
    pair is the one with a < gcd(n, d).  Seeded at those pairs in sorted
    order, the cycles come in the order a trace from the least unvisited
    pair gives, and no pair is traced.  A cycle of length L contributes one
    eigenvector for each L-th root, so the dimensions are counted from the
    cycle lengths alone; the eigenvectors are built only when
    QuandleSpectrum.eigenvectors is read.  This proves the prime-n
    statement: gcd(n, d) = 1 for every d != 0, so L = n, and the n - 1 full
    cycles give the eigenspace dimensions (n-1, ..., n-1), with 2n-1 at
    eigenvalue 1 from them and the n fixed pairs (d = 0).  For composite
    odd n shorter cycles occur and the non-unit eigenspaces shrink.  The
    n^2 pairs are held to the sparse-state bound, as the table is.
    """
    if n < 3 or n % 2 == 0:
        raise ValidationError("the dihedral spectrum statement covers odd n >= 3")
    check_sparse_words(n * n, f"quandle table n={n}, n^2 entries")
    seeds = sorted((a, (a + d) % n) for d in range(n) for a in range(math.gcd(n, d)))
    cycles = [[((a + t * (b - a)) % n, (b + t * (b - a)) % n)
               for t in range(n // math.gcd(n, b - a))] for a, b in seeds]
    dims = Counter(_root_exponent(n, len(cyc), j) for cyc in cycles for j in range(len(cyc)))
    roots = sorted(dims, key=lambda r: (r == 0, r))
    return QuandleSpectrum(n, [np.exp(2j * np.pi * root / n) for root in roots],
                           [dims[root] for root in roots], roots, cycles)


def quandle_group_rep(table: QuandleTable, a: int) -> np.ndarray:
    """Fundamental rack-group representation M_a = sum_b e_{b, a > b}
    (0-indexed a), so M_a e_c = e_{a >^{-1} c}; satisfies M_a M_b =
    M_b M_{b > a} exactly."""
    _require_rack(table)
    if not 0 <= a < table.n:
        raise ValidationError(f"generator index {a} out of range [0,{table.n - 1}]")
    return _permutation_matrix(_inverse_rows(table)[a])


def centralizer_residual(table: QuandleTable, N: int) -> int:
    """Max-entry residual of r_j Delta(M_a) - Delta(M_a) r_j over all a, j.

    Both sides are permutations of the n^N word indices, so the check is
    exact: 1 if T_j[D_a] differs from D_a[T_j] at any word, 0 whenever the
    centralizer property holds.  T_j is _braid_targets; D_a applies the
    inverse row of a to every letter, built one generator a at a time.  The
    call holds the N - 1 target arrays and a few arrays for one a, O(N n^N)
    entries, and costs O(n N n^N) array work.
    """
    n = table.n
    _check_orbits(table, N)
    op = np.array(table.op, dtype=np.int64)
    targets = [_braid_targets(op, N, j) for j in range(1, N)]
    for row in _inverse_rows(table):
        image = row
        for _ in range(N - 1):
            image = (image[:, None] * n + row).ravel()
        if any(not np.array_equal(t[image], image[t]) for t in targets):
            return 1
    return 0


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
    _check_orbits(table, N)
    words = all_words(table.n, N)
    cycles = {}
    order = 1
    for j in range(1, N):
        cycles[j] = _cycles(words, lambda w, j=j: braid_on_word(table, w, j))
        order = math.lcm(order, *map(len, cycles[j]))
    return OrbitGraph(table.n, N, cycles, order)


def braid_automaton(table: QuandleTable, N: int) -> automata.Automaton:
    """Word-level automaton of the braid generators, for DOT export: one
    target array of n^N word indices per generator r_j, from the table
    alone, with no cycle traced.  The checks of orbit_automaton come first
    (N, the orbit guard, the rack check); then its dense view of N - 1
    matrices n^N x n^N, built only where it is read, is held to the dense
    guard and the held-entries rule.  All of them run before anything is
    built."""
    _check_orbits(table, N)
    n = table.n
    check_dense_dim(n ** N, "orbit automaton")
    check_held_entries((N - 1) * n ** (2 * N),
                       f"orbit automaton: {N - 1} dense {n ** N} x {n ** N} transition matrices")
    op = np.array(table.op, dtype=np.int64)
    transitions = {f"s{j}": automata.TransitionMatrix.from_targets(_braid_targets(op, N, j))
                   for j in range(1, N)}
    labels = tuple("".join(f"x{x}" for x in w) for w in all_words(n, N))
    return automata.Automaton(n ** N, tuple(transitions), transitions, 1,
                              frozenset(), labels)


def orbit_to_automaton(graph: OrbitGraph, table: QuandleTable) -> automata.Automaton:
    """The braid_automaton of the graph's word length: the automaton needs
    only graph.N, not the traced cycles."""
    return braid_automaton(table, graph.N)


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
    check_sparse_words(n * n, f"quandle table n={n}, n^2 entries")
    rows = tuple(tuple(flat[i * n + j] - 1 for j in range(n)) for i in range(n))
    return QuandleTable(n, rows)
