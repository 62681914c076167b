import json
import math
import random
import time
import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from braidlab import automata, quandle
from braidlab.errors import SizeGuardError, ValidationError
from braidlab.states import all_words

from oracles import (centralizer_residual_per_word, dihedral_spectrum_traced,
                     quandle_flags_by_loops)


def conjugation_quandle_s3():
    """a > b = a^{-1} b a over the six permutations of three symbols."""
    elems = list(permutations(range(3)))
    index = {p: i for i, p in enumerate(elems)}

    def mul(p, r):
        return tuple(p[r[i]] for i in range(3))

    def inv(p):
        out = [0] * 3
        for i, v in enumerate(p):
            out[v] = i
        return tuple(out)

    op = tuple(tuple(index[mul(mul(inv(a), b), a)] for b in elems) for a in elems)
    return quandle.QuandleTable(6, op)


def relabelled_dihedral(n, seed):
    """The dihedral table of Z_n with its labels permuted at random."""
    p = list(range(n))
    random.Random(seed).shuffle(p)
    op = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            op[p[a]][p[b]] = p[(2 * a - b) % n]
    return quandle.QuandleTable(n, tuple(map(tuple, op)))


def test_validate_dihedral_and_trivial():
    assert quandle.validate(quandle.dihedral(3)) == {
        "shelf": True, "rack": True, "quandle": True}
    trivial = quandle.QuandleTable(4, tuple(tuple(range(4)) for _ in range(4)))
    assert quandle.validate(trivial)["quandle"] is True


def test_validate_conjugation_quandle():
    assert quandle.validate(conjugation_quandle_s3())["quandle"] is True


def test_validate_shelf_but_not_rack():
    constant = quandle.QuandleTable(3, ((0, 0, 0), (0, 0, 0), (0, 0, 0)))
    flags = quandle.validate(constant)
    assert flags["shelf"] is True and flags["rack"] is False


def test_validate_rejects_out_of_range():
    with pytest.raises(ValidationError):
        quandle.QuandleTable(2, ((0, 1), (2, 0)))


@pytest.mark.parametrize("op", [((0, 1.7), (1, 0)), ((0, True), (1, 0)), ((0, 1), (1,))],
                         ids=["float", "bool", "ragged"])
def test_table_rejects_entries_that_are_not_integers(op):
    # an entry is neither truncated (1.7 -> 1) nor read as an int (True -> 1),
    # and a ragged table is a validation error, not numpy's ValueError
    with pytest.raises(ValidationError):
        quandle.QuandleTable(2, op)


def test_dihedral_table_matches_paper():
    t = quandle.dihedral(3)
    assert t.op == ((0, 2, 1), (2, 1, 0), (1, 0, 2))


def test_dihedral_two_is_trivial():
    t = quandle.dihedral(2)
    assert t.op == ((0, 1), (0, 1))


def test_tetrahedron_table_matches_paper():
    t = quandle.tetrahedron()
    assert t.op == ((0, 2, 3, 1),
                    (3, 1, 0, 2),
                    (1, 3, 2, 0),
                    (2, 0, 1, 3))


def test_self_distributivity_exhaustive():
    for n in range(2, 16):
        assert quandle.validate(quandle.dihedral(n))["quandle"], n
    assert quandle.validate(quandle.tetrahedron())["quandle"]


def test_braid_solution_examples():
    t = quandle.dihedral(3)
    braid = quandle.braid_solution(t)
    # r(x1 ox x2) = x2 ox (x2 > x1) = x2 ox x3
    assert braid.pair_map(0, 1) == (1, 2)
    for a in range(3):
        assert braid.pair_map(a, a) == (a, a)
    assert np.array_equal(braid.matrix @ quandle.inverse_solution(t), np.eye(9, dtype=int))


def permutation_rack(n):
    """a > b = sigma(b) for the n-cycle sigma: a rack, and not a quandle."""
    return quandle.QuandleTable(n, tuple(tuple((b + 1) % n for b in range(n)) for _ in range(n)))


def test_braid_matrices_follow_their_definitions_entry_by_entry():
    tables = [quandle.dihedral(n) for n in range(2, 8)] + [
        quandle.tetrahedron(), conjugation_quandle_s3(), permutation_rack(4)]
    assert not quandle.validate(permutation_rack(4))["quandle"]
    for t in tables:
        n = t.n
        braid = quandle.braid_solution(t)
        r, r_inv = braid.matrix, quandle.inverse_solution(t)
        for a in range(n):
            for b in range(n):
                # r e_(a,b) = e_pair_map(a,b); r^-1 e_(a,b) = e_(a >^-1 b, a)
                c, d = braid.pair_map(a, b)
                left = t.op[a].index(b)
                for m, row in ((r, c * n + d), (r_inv, left * n + a)):
                    assert np.flatnonzero(m[:, a * n + b]).tolist() == [row], (n, a, b)
                    assert m[row, a * n + b] == 1, (n, a, b)
        for a in range(n):
            m = quandle.quandle_group_rep(t, a)
            assert np.count_nonzero(m) == n, (n, a)
            assert all(m[b, t.op[a][b]] == 1 for b in range(n)), (n, a)


def test_braid_solution_requires_rack():
    constant = quandle.QuandleTable(3, ((0, 0, 0), (0, 0, 0), (0, 0, 0)))
    with pytest.raises(ValidationError):
        quandle.braid_solution(constant)


def test_braid_relation_exact_on_all_words():
    tables = [quandle.dihedral(n) for n in (3, 4, 5)] + [quandle.tetrahedron()]
    for t in tables:
        for w in all_words(t.n, 3):
            lhs = quandle.braid_on_word(
                t, quandle.braid_on_word(t, quandle.braid_on_word(t, w, 1), 2), 1)
            rhs = quandle.braid_on_word(
                t, quandle.braid_on_word(t, quandle.braid_on_word(t, w, 2), 1), 2)
            assert lhs == rhs, (t.n, w)


def test_dihedral_spectrum_three():
    spec = quandle.dihedral_spectrum(3)
    assert spec.dimensions == [2, 2, 5]
    roots = [np.exp(2j * np.pi * k / 3) for k in (1, 2, 3)]
    assert np.allclose(spec.eigenvalues, roots)
    # the unit eigenspace contains every diagonal word
    unit_block = spec.eigenvectors[-1]
    for m in range(3):
        e = np.zeros(9); e[m * 3 + m] = 1.0
        proj = unit_block @ (unit_block.conj().T @ e)
        assert np.abs(proj - e).max() < 1e-12


def test_dihedral_spectrum_eigen_equation_and_phase():
    for n in (3, 5, 7):
        spec = quandle.dihedral_spectrum(n)
        r = quandle.braid_solution(quandle.dihedral(n)).matrix.astype(complex)
        assert spec.dimensions == [n - 1] * (n - 1) + [2 * n - 1]
        assert sum(spec.dimensions) == n * n
        for lam, cols in zip(spec.eigenvalues, spec.eigenvectors):
            assert np.abs(r @ cols - lam * cols).max() < 1e-12
            gram = cols.conj().T @ cols
            assert np.abs(gram - np.eye(gram.shape[0])).max() < 1e-12
            # seed coefficient convention: the first nonzero entry (the
            # cycle's lexicographically least word) is real positive
            for col in cols.T:
                lead = col[np.nonzero(np.abs(col) > 1e-12)[0][0]]
                assert abs(lead.imag) < 1e-12 and lead.real > 0


def test_dihedral_spectrum_matches_dense_oracle():
    for n in (3, 5, 7, 9):
        spec = quandle.dihedral_spectrum(n)
        dense = np.linalg.eigvals(
            quandle.braid_solution(quandle.dihedral(n)).matrix.astype(float))
        ours = []
        for lam, d in zip(spec.eigenvalues, spec.dimensions):
            ours.extend([lam] * d)
        key = lambda z: (round(np.angle(z), 9), round(abs(z), 9))
        assert sorted(map(key, ours)) == sorted(map(key, np.round(dense, 10)))


def test_dihedral_spectrum_builds_vectors_on_first_access():
    # the dimensions counted from cycle lengths equal the column counts of
    # the eigenvectors built cycle by cycle, value for value, and no vector
    # exists before eigenvectors is read
    for n in range(3, 22, 2):
        spec = quandle.dihedral_spectrum(n)
        assert "eigenvectors" not in vars(spec), n
        r = quandle.braid_solution(quandle.dihedral(n)).matrix
        assert spec.dimensions == [v.shape[1] for v in spec.eigenvectors], n
        for lam, cols in zip(spec.eigenvalues, spec.eigenvectors):
            assert np.abs(r @ cols - lam * cols).max() < 1e-12, n


def test_dihedral_spectrum_composite_odd_differs_from_prime_pattern():
    # n = 9 has short cycles (step divisible by 3), so the prime-n dimension
    # pattern does not hold; the cycle-exact computation is still correct
    spec = quandle.dihedral_spectrum(9)
    assert sorted(spec.dimensions) != sorted([8] * 8 + [17])
    assert sum(spec.dimensions) == 81


def test_dihedral_spectrum_matches_the_pair_trace():
    # the closed-form cycles are the traced ones, in the traced order, so
    # the dimensions, the roots and every eigenvector array agree bit for bit
    for n in range(3, 41, 2):
        spec, traced = quandle.dihedral_spectrum(n), dihedral_spectrum_traced(n)
        assert spec.cycles == traced.cycles, n
        assert spec.dimensions == traced.dimensions and spec.roots == traced.roots, n
        assert spec.eigenvalues == traced.eigenvalues, n
        for ours, theirs in zip(spec.eigenvectors, traced.eigenvectors, strict=True):
            assert ours.tobytes() == theirs.tobytes(), n


def test_dihedral_spectrum_runs_in_seconds_at_n_999():
    # tracing the 998,001 pairs took about 170 s; the closed form about 0.6 s
    start = time.perf_counter()
    spec = quandle.dihedral_spectrum(999)
    assert time.perf_counter() - start < 10
    assert sum(spec.dimensions) == 999 ** 2


def test_dihedral_spectrum_rejects_even():
    with pytest.raises(ValidationError):
        quandle.dihedral_spectrum(4)


def never(*args):
    raise AssertionError("a dense quandle map was built past its guard")


@pytest.mark.parametrize("limit", [24, 96])
def test_dense_braid_maps_are_refused_before_they_are_built(monkeypatch, limit):
    # the n^2 x n^2 maps of r and r^{-1} are held to the dense guard at
    # order n^2, before the rack check; at the default guard n = 200 would
    # be 12.8 GB of int64
    monkeypatch.setenv("BRAIDLAB_MAX_DIM", str(limit))
    n = math.isqrt(limit)
    table = quandle.dihedral(n)
    assert quandle.braid_solution(table).matrix.shape == (n * n, n * n)
    assert quandle.inverse_solution(table).shape == (n * n, n * n)
    table = quandle.dihedral(n + 1)
    braid = quandle.braid_solution(table)
    monkeypatch.setattr(quandle, "_permutation_matrix", never)
    monkeypatch.setattr(quandle, "validate", never)
    with pytest.raises(SizeGuardError, match=f"dimension {(n + 1) ** 2} exceeds guard {limit}"):
        braid.matrix
    with pytest.raises(SizeGuardError, match=f"dimension {(n + 1) ** 2} exceeds guard {limit}"):
        quandle.inverse_solution(table)


@pytest.mark.parametrize("limit, n", [(24, 5), (96, 9)])
def test_dihedral_eigenvectors_are_refused_before_they_are_built(monkeypatch, limit, n):
    # n^2 complex columns of n^2 entries count 2 n^4 entries against
    # 3 limit^2: n is the largest odd size admitted, n + 2 is refused
    monkeypatch.setenv("BRAIDLAB_MAX_DIM", str(limit))
    assert 2 * n ** 4 <= 3 * limit ** 2 < 2 * (n + 2) ** 4
    assert sum(v.shape[1] for v in quandle.dihedral_spectrum(n).eigenvectors) == n * n
    spec = quandle.dihedral_spectrum(n + 2)
    monkeypatch.setattr(np, "zeros", never)
    with pytest.raises(SizeGuardError, match=f"hold {2 * (n + 2) ** 4} entries"):
        spec.eigenvectors


def test_dihedral_eigenvectors_peak_within_their_count():
    # the columns are filled in place: the peak is the 2 n^4 float entries
    # counted, plus array headers and bookkeeping (0.14 % at n = 21); a
    # build that stacks finished vectors holds twice the count
    n = 21
    spec = quandle.dihedral_spectrum(n)
    tracemalloc.start()
    try:
        spec.eigenvectors
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.01 * 2 * n ** 4 * 8


def test_braid_matrix_peak_is_one_byte_per_entry():
    # the 0/1 permutation matrices are int8: braid_solution(dihedral(64)).matrix,
    # the largest the dense guard admits at the default, traces about n^4
    # bytes (16 MiB), where int64 entries traced 128 MiB
    n = 64
    braid = quandle.braid_solution(quandle.dihedral(n))
    tracemalloc.start()
    try:
        m = braid.matrix
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m.shape == (n * n, n * n) and m.dtype == np.int8
    assert peak <= 1.05 * n ** 4
    t = quandle.dihedral(5)
    assert quandle.inverse_solution(t).dtype == quandle.quandle_group_rep(t, 0).dtype == np.int8


def test_quandle_group_rep_examples():
    t = quandle.dihedral(3)
    m1 = quandle.quandle_group_rep(t, 0)
    assert np.array_equal(m1, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    for a in range(3):
        ma = quandle.quandle_group_rep(t, a)
        assert np.array_equal(ma @ ma, np.eye(3, dtype=int))
    trivial = quandle.QuandleTable(3, tuple(tuple(range(3)) for _ in range(3)))
    for a in range(3):
        assert np.array_equal(quandle.quandle_group_rep(trivial, a), np.eye(3, dtype=int))


def test_rack_group_relations_exact():
    for t in (quandle.dihedral(3), quandle.dihedral(5), quandle.tetrahedron(),
              conjugation_quandle_s3()):
        mats = [quandle.quandle_group_rep(t, a) for a in range(t.n)]
        for a in range(t.n):
            for b in range(t.n):
                assert np.array_equal(mats[a] @ mats[b], mats[b] @ mats[t.op[b][a]])


def test_centralizer_residual_zero():
    assert quandle.centralizer_residual(quandle.dihedral(3), 2) == 0
    trivial = quandle.QuandleTable(3, tuple(tuple(range(3)) for _ in range(3)))
    assert quandle.centralizer_residual(trivial, 2) == 0
    assert quandle.centralizer_residual(quandle.tetrahedron(), 3) == 0


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_centralizer_residual_matches_the_per_word_loop(N):
    trivial = quandle.QuandleTable(3, tuple(tuple(range(3)) for _ in range(3)))
    for t in (quandle.dihedral(3), quandle.dihedral(5), quandle.dihedral(7),
              quandle.tetrahedron(), trivial, relabelled_dihedral(5, seed=31)):
        assert quandle.centralizer_residual(t, N) == centralizer_residual_per_word(t, N) == 0


@pytest.mark.parametrize("N", [2, 3])
def test_centralizer_residual_sees_a_row_that_is_no_automorphism(monkeypatch, N):
    # the automorphisms of R_5 are the affine maps x -> u x + c, and a
    # transposition of two labels is not one, so Delta of it does not
    # commute with r_j; no valid rack reaches this through the public API
    def transpositions(table):
        rows = np.tile(np.arange(table.n), (table.n, 1))
        for a in range(table.n):
            b = (a + 1) % table.n
            rows[a, [a, b]] = rows[a, [b, a]]
        return rows

    t = quandle.dihedral(5)
    monkeypatch.setattr(quandle, "_inverse_rows", transpositions)
    assert quandle.centralizer_residual(t, N) == centralizer_residual_per_word(t, N) == 1


def test_centralizer_residual_at_the_orbit_guard_edge():
    # 78,125 and 99,856 words, both under the orbit guard of 10^5
    assert quandle.centralizer_residual(quandle.dihedral(5), 7) == 0
    assert quandle.centralizer_residual(quandle.dihedral(316), 2) == 0


def test_centralizer_residual_holds_one_generator_at_a_time():
    # the call holds the table (n^2 = n^N entries here), N - 1 target
    # arrays, the arrays a target is built from and one generator's image
    # with its two compositions: it traces 6.13 n^N int64 entries, 4.7 MiB,
    # held here to 6.3 n^N.  All n images held at once would be 316 x
    # 99,856 entries, 241 MiB
    t, N = quandle.dihedral(316), 2
    tracemalloc.start()
    try:
        quandle.centralizer_residual(t, N)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6.3 * t.n ** N * 8


@pytest.mark.parametrize("n, N", [(316, 2), (5, 7)])
def test_braid_targets_hold_four_word_arrays(n, N):
    # one target array is built in place from the word index and both
    # letters: four n^N int64 arrays at the peak, where the index, both
    # letters, op[b, a] and the partial sums took five to six
    op = np.array(quandle.dihedral(n).op, dtype=np.int64)
    for j in (1, N - 1):
        tracemalloc.start()
        try:
            quandle._braid_targets(op, N, j)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4.2 * n ** N * 8, j


@pytest.mark.parametrize("N", [0, -1])
def test_centralizer_residual_rejects_n_below_one(N):
    # refused before any word is built, as orbit_automaton refuses it
    with pytest.raises(ValidationError, match="N must be >= 1"):
        quandle.centralizer_residual(quandle.dihedral(3), N)


def test_orbit_automaton_dihedral3():
    t = quandle.dihedral(3)
    graph = quandle.orbit_automaton(t, 2)
    cycles = graph.cycles[1]
    lengths = sorted(len(c) for c in cycles)
    assert lengths == [1, 1, 1, 3, 3]
    assert graph.order == 3
    three_cycles = [set(c) for c in cycles if len(c) == 3]
    assert {(1, 2), (2, 3), (3, 1)} in three_cycles
    assert {(1, 3), (3, 2), (2, 1)} in three_cycles
    assert sorted(graph.fixed_points(1)) == [(1, 1), (2, 2), (3, 3)]


def test_orbit_automaton_trivial_quandle_is_flip():
    trivial = quandle.QuandleTable(3, tuple(tuple(range(3)) for _ in range(3)))
    graph = quandle.orbit_automaton(trivial, 2)
    lengths = sorted(len(c) for c in graph.cycles[1])
    assert lengths == [1, 1, 1, 2, 2, 2]
    assert graph.order == 2


def test_orbit_automaton_guard():
    with pytest.raises(SizeGuardError):
        quandle.orbit_automaton(quandle.dihedral(11), 5)


def test_table_guard_runs_before_any_row_is_built(monkeypatch):
    # a table's n^2 entries are held to the sparse-state bound of 10^6, so
    # n = 1000 is the largest; n = 3001 would build 9e6 entries (about
    # 1.4 GB).  The constructor is never reached past the bound
    def never(*args):
        raise AssertionError("a table was built past the guard")

    text = json.dumps({"n": 1001, "op": [1] * 1001 ** 2})
    monkeypatch.setattr(quandle, "QuandleTable", never)
    with pytest.raises(SizeGuardError, match="1002001"):
        quandle.dihedral(1001)
    with pytest.raises(SizeGuardError, match="1002001"):
        quandle.table_from_json(text)


def test_orbit_guard_runs_before_the_rack_check(monkeypatch):
    # the rack check (validate) is O(n^3): at n = 400 it takes seconds, and
    # N = 2 (160,000 words) is past the orbit guard anyway
    def never(table):
        raise AssertionError("validate ran before the orbit guard")

    table = quandle.dihedral(400)
    monkeypatch.setattr(quandle, "validate", never)
    with pytest.raises(SizeGuardError):
        quandle.orbit_automaton(table, 2)
    with pytest.raises(SizeGuardError):
        quandle.centralizer_residual(table, 2)


def test_orbit_automaton_edges_are_braid_moves():
    cases = ((quandle.dihedral(3), 4), (quandle.tetrahedron(), 3), (conjugation_quandle_s3(), 3))
    for t, N in cases:
        a = quandle.orbit_to_automaton(quandle.orbit_automaton(t, N), t)
        words = all_words(t.n, N)
        for j in range(1, N):
            assert [words[i] for i in a.transition(f"s{j}").targets] == [
                quandle.braid_on_word(t, w, j) for w in words]


def test_orbit_automaton_holds_no_dense_matrix():
    # one dense 729 x 729 float64 matrix is 4.25 MB; the five target arrays
    # and the labels of n = 3, N = 6 stay under a quarter of that
    t = quandle.dihedral(3)
    graph = quandle.orbit_automaton(t, 6)
    tracemalloc.start()
    try:
        quandle.orbit_to_automaton(graph, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 729 ** 2 * 8 / 4


def test_orbit_dot_export():
    t = quandle.dihedral(3)
    graph = quandle.orbit_automaton(t, 2)
    dot = automata.to_dot(quandle.orbit_to_automaton(graph, t))
    assert dot.count("->") == 9 + 1     # one edge per word plus start marker
    assert "x1x2" in dot


def test_unit_eigenspace_splits_under_group_action():
    # the 5-dim unit eigenspace of the n=3 braid splits into a 3-dim orbit
    # (diagonal words) and a 2-dim orbit under the diagonal group action
    t = quandle.dihedral(3)
    spec = quandle.dihedral_spectrum(3)
    unit_block = spec.eigenvectors[-1]          # 9 x 5
    reps = [np.kron(quandle.quandle_group_rep(t, a), quandle.quandle_group_rep(t, a))
            for a in range(3)]
    support = np.zeros((5, 5), dtype=bool)
    for rep in reps:
        induced = unit_block.conj().T @ (rep @ unit_block)
        assert np.abs(unit_block @ induced - rep @ unit_block).max() < 1e-12
        support |= np.abs(induced) > 1e-9
    # connected components of the support graph
    comps = []
    seen = set()
    for i in range(5):
        if i in seen:
            continue
        stack, comp = [i], set()
        while stack:
            v = stack.pop()
            if v in comp:
                continue
            comp.add(v)
            stack.extend(j for j in range(5) if support[v, j] or support[j, v])
        seen |= comp
        comps.append(comp)
    assert sorted(len(c) for c in comps) == [2, 3]


@st.composite
def random_tables(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    rows = tuple(tuple(draw(st.integers(min_value=0, max_value=n - 1))
                       for _ in range(n)) for _ in range(n))
    return quandle.QuandleTable(n, rows)


@given(random_tables())
@settings(max_examples=60, deadline=None)
def test_validate_flags_are_consistent(table):
    flags = quandle.validate(table)
    if flags["quandle"]:
        assert flags["rack"]
    if flags["rack"]:
        assert flags["shelf"]
        # a rack always yields an invertible braid solution
        braid = quandle.braid_solution(table)
        assert np.array_equal(braid.matrix @ quandle.inverse_solution(table),
                              np.eye(table.n ** 2, dtype=int))


@st.composite
def shelf_like_tables(draw):
    """Tables of every flag pattern: random tables (mostly not shelves);
    a > b = f(b) for an idempotent f, a shelf that is a rack only when f is
    the identity; a > b = p(b) for a permutation p, a rack that is a
    quandle only when p is the identity; and relabelled dihedral quandles."""
    n = draw(st.integers(min_value=1, max_value=6))
    kind = draw(st.sampled_from(["random", "idempotent", "permutation", "dihedral"]))
    if kind == "random":
        return draw(random_tables())
    if kind == "idempotent":
        image = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
        f = [x if x in image else draw(st.sampled_from(image)) for x in range(n)]
        return quandle.QuandleTable(n, tuple(tuple(f) for _ in range(n)))
    if kind == "permutation":
        p = draw(st.permutations(range(n)))
        return quandle.QuandleTable(n, tuple(tuple(p) for _ in range(n)))
    n = max(n, 2)
    p = draw(st.permutations(range(n)))
    inv = [p.index(x) for x in range(n)]
    d = quandle.dihedral(n).op
    return quandle.QuandleTable(n, tuple(tuple(p[d[inv[a]][inv[b]]] for b in range(n))
                                         for a in range(n)))


@given(shelf_like_tables())
@settings(max_examples=120, deadline=None)
def test_validate_matches_the_triple_loop(table):
    assert quandle.validate(table) == quandle_flags_by_loops(table)


def test_table_json_round_trip():
    for t in (quandle.dihedral(5), quandle.tetrahedron()):
        back = quandle.table_from_json(quandle.table_to_json(t))
        assert back == t
    with pytest.raises(ValidationError):
        quandle.table_from_json('{"n": 2, "op": [1, 2, 3]}')
