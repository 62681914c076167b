from itertools import combinations, permutations
from math import comb

import numpy as np
import pytest
from hypothesis import given, strategies as st

from braidlab import tableaux
from braidlab.qalgebra import dicke_labels
from braidlab.errors import SizeGuardError, ValidationError

from oracles import (count_ssyt_bruteforce, count_syt_bruteforce, hook_content_product,
                     hook_length_product)


def test_partitions_of_examples():
    assert tableaux.partitions_of(3) == [(3,), (2, 1), (1, 1, 1)]
    assert tableaux.partitions_of(4, max_rows=2) == [(4,), (3, 1), (2, 2)]
    assert tableaux.partitions_of(1) == [(1,)]


@given(st.integers(min_value=1, max_value=9))
def test_partitions_are_valid_and_ordered(N):
    parts = tableaux.partitions_of(N)
    assert all(sum(p) == N for p in parts)
    assert all(all(p[i] >= p[i + 1] for i in range(len(p) - 1)) for p in parts)
    assert parts == sorted(parts, reverse=True)
    assert len(set(parts)) == len(parts)


def test_syt_dim_examples():
    assert tableaux.syt_dim((2, 1)) == 2
    assert tableaux.syt_dim((5,)) == 1
    assert tableaux.syt_dim((2, 2)) == 2


def test_syt_dim_matches_bruteforce_up_to_7():
    for N in range(1, 8):
        for shape in tableaux.partitions_of(N):
            assert tableaux.syt_dim(shape) == count_syt_bruteforce(shape), shape


def test_ssyt_dim_examples():
    assert tableaux.ssyt_dim((2, 1), 3) == 8
    for n in (1, 2, 5):
        assert tableaux.ssyt_dim((1,), n) == n
    for n in (2, 3, 4):
        for N in (1, 2, 3, 4):
            assert tableaux.ssyt_dim((N,), n) == tableaux.ordered_sequence_count(n, N)


def test_ssyt_dim_matches_bruteforce():
    for N in range(1, 7):
        for n in range(1, 5):
            for shape in tableaux.partitions_of(N):
                assert tableaux.ssyt_dim(shape, n) == count_ssyt_bruteforce(shape, n), \
                    (shape, n)


def test_closed_form_dimensions_match_the_hook_products():
    for N in range(1, 13):
        for shape in tableaux.partitions_of(N):
            assert tableaux.syt_dim(shape) == hook_length_product(shape), shape
            for n in range(1, 8):
                assert tableaux.ssyt_dim(shape, n) == hook_content_product(shape, n), (shape, n)


def test_closed_form_dimensions_at_large_sizes():
    # two-row shapes (N - k, k): f = C(N, k) - C(N, k - 1), and the gl_2
    # module has dimension N - 2k + 1
    N = 3000
    for k in (0, 1, 700, 1500):
        shape = (N - k, k) if k else (N,)
        assert tableaux.syt_dim(shape) == comb(N, k) - (comb(N, k - 1) if k else 0), k
        assert tableaux.ssyt_dim(shape, 2) == N - 2 * k + 1, k
    # the rows past the shape cost nothing more at a huge alphabet
    n = 10 ** 12
    assert tableaux.ssyt_dim((1,), n) == n
    assert tableaux.ssyt_dim((3,), n) == comb(n + 2, 3)
    assert tableaux.ssyt_dim((2, 1), n) == n * (n * n - 1) // 3
    assert tableaux.ssyt_dim((1, 1, 1), n) == comb(n, 3)


def _contents(N, n):
    """Every weak composition of N into n parts."""
    for cuts in combinations(range(N + n - 1), n - 1):
        bounds = (-1, *cuts, N + n - 1)
        yield tuple(b - a - 1 for a, b in zip(bounds, bounds[1:]))


def test_ssyt_dim_hook_content_matches_kostka_enumeration():
    # the semistandard tableaux with entries in [1, n] are those of every
    # content: the sum of the enumerated Kostka numbers over them
    for N in range(1, 9):
        for n in range(1, 6):
            contents = list(_contents(N, n))
            assert len(contents) == comb(N + n - 1, n - 1)
            for shape in tableaux.partitions_of(N):
                assert tableaux.ssyt_dim(shape, n) == sum(
                    tableaux.kostka(shape, mu) for mu in contents), (shape, n)


def test_partition_count_and_enumeration_bound(monkeypatch):
    for N in range(1, 16):
        for rows in [None, 0, 1, 2, 3, 7, 20]:
            count = tableaux.partition_count(N, N if rows is None else rows)
            assert len(tableaux.partitions_of(N, max_rows=rows)) == count, (N, rows)
    assert tableaux.partition_count(40, 10) == 16928
    monkeypatch.setattr(tableaux, "MAX_PARTITIONS", 42)
    assert len(tableaux.partitions_of(10)) == 42
    with pytest.raises(SizeGuardError, match="partitions of 11 with at most 11 rows: 56"):
        tableaux.partitions_of(11)
    with pytest.raises(ValidationError):
        tableaux.partitions_of(5, max_rows=-1)


def test_ssyt_column_shape():
    for n in range(1, 6):
        for N in range(1, n + 2):
            expected = comb(n, N)
            assert tableaux.ssyt_dim((1,) * N, n) == expected
    assert tableaux.ssyt_dim((1, 1, 1), 3) == 1


def test_kostka_examples():
    assert tableaux.kostka((3,), (1, 1, 1)) == 1
    assert tableaux.kostka((2, 1), (1, 1, 1)) == 2
    total = 0
    for c1 in range(4):
        for c2 in range(4 - c1):
            c3 = 3 - c1 - c2
            total += tableaux.kostka((2, 1), (c1, c2, c3))
    assert total == tableaux.ssyt_dim((2, 1), 3) == 8


def test_kostka_matches_bruteforce():
    for shape in tableaux.partitions_of(4):
        for c1 in range(5):
            for c2 in range(5 - c1):
                c3 = 4 - c1 - c2
                content = (c1, c2, c3)
                assert tableaux.kostka(shape, content) == \
                    count_ssyt_bruteforce(shape, 3, content), (shape, content)


def test_kostka_rejects_size_mismatch():
    with pytest.raises(ValidationError):
        tableaux.kostka((2, 1), (1, 1))


def test_schur_weyl_examples():
    assert tableaux.schur_weyl_check(2, 3, tableaux.dimension_table(2, 3))   # 1*4 + 2*2 = 8
    assert tableaux.schur_weyl_check(1, 5, tableaux.dimension_table(1, 5))
    assert tableaux.schur_weyl_check(3, 2, tableaux.dimension_table(3, 2))   # 1*6 + 1*3 = 9


def test_schur_weyl_full_range():
    for n in range(1, 5):
        for N in range(1, 8):
            assert tableaux.schur_weyl_check(n, N, tableaux.dimension_table(n, N)), (n, N)


def test_invalid_partitions_rejected():
    with pytest.raises(ValidationError):
        tableaux.syt_dim((1, 2))
    with pytest.raises(ValidationError):
        tableaux.syt_dim((0,))
    with pytest.raises(ValidationError):
        tableaux.partitions_of(0)


def test_dimension_table_contents():
    rows = tableaux.dimension_table(3, 3)
    assert {tuple(r["partition"]): (r["syt_dim"], r["ssyt_dim"]) for r in rows} == {
        (3,): (1, 10), (2, 1): (2, 8), (1, 1, 1): (1, 1)}


def test_standard_tableaux_are_the_lattice_words_of_each_shape():
    # one Yamanouchi word per standard tableau: every prefix has at least as
    # many entries in each row as in the row below, the words end on the
    # shape, they are distinct and in lexicographic order, and there are
    # syt_dim of them
    for N in range(1, 9):
        for lam in tableaux.partitions_of(N):
            words = tableaux.standard_tableaux(lam)
            assert words.shape == (tableaux.syt_dim(lam), N), lam
            filled = np.cumsum(words[:, :, None] == np.arange(len(lam)), axis=1)
            assert (np.diff(filled, axis=2) <= 0).all(), lam
            assert (filled[:, -1] == lam).all(), lam
            assert sorted(map(tuple, words.tolist())) == list(map(tuple, words.tolist())), lam
            assert len(set(map(tuple, words.tolist()))) == len(words), lam


def test_standard_tableaux_enumeration_bound(monkeypatch):
    monkeypatch.setattr("braidlab.errors.MAX_SPARSE_WORDS", 15)
    with pytest.raises(SizeGuardError):
        tableaux.standard_tableaux((3, 2, 1))    # 16 tableaux
    assert len(tableaux.standard_tableaux((3, 3))) == 5


def test_tableau_blocks_are_the_per_shape_tableaux_end_to_end():
    # one pass over every shape with at most R rows gives each shape's
    # standard_tableaux in the order of the shapes, bounded by syt_dim
    for N in range(1, 9):
        for R in range(1, N + 1):
            shapes = tableaux.partitions_of(N, max_rows=R)
            words, bounds = tableaux.tableau_blocks(shapes)
            want = np.concatenate([tableaux.standard_tableaux(lam) for lam in shapes])
            assert words.dtype == want.dtype and np.array_equal(words, want), (N, R)
            sizes = [tableaux.syt_dim(lam) for lam in shapes]
            assert bounds.tolist() == np.cumsum([0] + sizes).tolist(), (N, R)


def test_tableau_blocks_refuse_per_shape(monkeypatch):
    # the bound holds per shape, not for the pass: 30 tableaux of N = 6 in
    # shapes of at most 10 pass a bound of 15, one shape of 16 does not
    monkeypatch.setattr("braidlab.errors.MAX_SPARSE_WORDS", 15)
    shapes = [(6,), (5, 1), (4, 2), (3, 3), (4, 1, 1)]
    assert len(tableaux.tableau_blocks(shapes)[0]) == 30
    with pytest.raises(SizeGuardError, match=r"shape \(3, 2, 1\): 16 words"):
        tableaux.tableau_blocks(shapes + [(3, 2, 1)])
    with pytest.raises(ValidationError, match="one N"):
        tableaux.tableau_blocks([(3, 1), (2, 1)])


def test_kostka_numbers_do_not_depend_on_the_order_of_the_content():
    for n in range(1, 5):
        for N in range(1, 7):
            shapes = tableaux.partitions_of(N, max_rows=n)
            for mu in dicke_labels(n, N):
                dominant = tuple(sorted(mu, reverse=True))
                for lam in shapes:
                    assert tableaux.kostka(lam, mu) == tableaux.kostka(lam, dominant), (lam, mu)


def test_multinomial_counts_the_words_of_a_content():
    for n in range(1, 4):
        for N in range(0, 7):
            for content in dicke_labels(n, N):
                word = [a for a, m in enumerate(content) for _ in range(m)]
                assert tableaux.multinomial(content) == len(set(permutations(word))), content
