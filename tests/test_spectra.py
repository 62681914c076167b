import tracemalloc
from decimal import Decimal, getcontext
from math import comb, factorial, log, prod

import numpy as np
import pytest

from braidlab import qalgebra, spectra, tableaux
from braidlab.errors import SizeGuardError, ValidationError
from braidlab.hecke import bracket
from braidlab.states import TensorState

from oracles import (block_map, dense_hamiltonian, dominant_eigenpairs, eigen_blocks,
                     hamiltonian_apply, highest_weight_svd, multiset_permutations,
                     parity_halves_dense, reference_clusters, sector_warnings_pairwise,
                     seminormal_loop, state_to_dense, symmetry_residual_per_word)

Q = 1.3


def test_hamiltonian_on_reference_state():
    for n, N in [(2, 3), (3, 4), (2, 6)]:
        chain = spectra.OpenChain(n, N, Q)
        v = TensorState.basis(n, (1,) * N)
        out = hamiltonian_apply(chain, v)
        assert out.sub(v.scale(N - 1)).norm() < 1e-14


def test_hamiltonian_single_bond():
    chain = spectra.OpenChain(2, 2, Q)
    from braidlab.hecke import apply_generator
    v = TensorState.basis(2, (2, 1))
    assert hamiltonian_apply(chain, v).sub(apply_generator(v, 1, Q)).is_zero()


def test_dicke_states_are_top_eigenstates():
    # every q-symmetric state has eigenvalue N - 1
    for n, N in [(2, 3), (2, 4), (3, 4), (2, 6), (3, 6)]:
        chain = spectra.OpenChain(n, N, Q)
        for label in qalgebra.dicke_labels(n, N):
            b = qalgebra.q_dicke(n, N, label, Q)
            resid = hamiltonian_apply(chain, b).sub(b.scale(N - 1)).norm()
            assert resid < 1e-11, (n, N, label)


def test_hamiltonian_matches_dense_oracle():
    rng = np.random.default_rng(4)
    for n, N in [(2, 3), (3, 3)]:
        chain = spectra.OpenChain(n, N, Q)
        H = dense_hamiltonian(n, N, Q)
        for _ in range(10):
            w = tuple(rng.integers(1, n + 1, size=N))
            v = TensorState.basis(n, w)
            assert np.abs(state_to_dense(hamiltonian_apply(chain, v))
                          - H @ state_to_dense(v)).max() < 1e-13


def test_diagonalize_two_sites():
    # N=2 spectrum: eigenvalue 1 on the symmetric states, -q^{-2} on the
    # antisymmetric ones (the closed form forced by the Hecke constraint;
    # the printed example's -1 is its q=1 value)
    deco = spectra.diagonalize(spectra.OpenChain(2, 2, Q))
    got = {round(c.value, 10): c.multiplicity for c in deco.clusters}
    assert got == {1.0: 3, round(-Q ** -2, 10): 1}


def test_diagonalize_three_sites_closed_forms():
    deco = spectra.diagonalize(spectra.OpenChain(2, 3, Q))
    expected = {2.0: 4, 1 - 1 / Q - Q ** -2: 2, 1 + 1 / Q - Q ** -2: 2}
    assert len(deco.clusters) == 3
    for value, mult in expected.items():
        match = [c for c in deco.clusters if abs(c.value - value) < 1e-10]
        assert len(match) == 1 and match[0].multiplicity == mult


def test_three_site_printed_eigenstates():
    # the printed 1-sector eigenstates at N=3: for L = 1 - 1/q - q^-2 the
    # weight-1 vector (1, -(1+q), q) in the (x2 at position 1, 2, 3) basis,
    # and for L = 1 + 1/q - q^-2 the vector (1, 1-q, -q); each E_1-raises to
    # its printed weight-2 partner with unit coefficient
    q = Q
    chain = spectra.OpenChain(2, 3, q)
    cases = [
        (1 - 1 / q - q ** -2,
         {(2, 1, 1): 1.0, (1, 2, 1): -(1 + q), (1, 1, 2): q},
         {(2, 2, 1): -1.0, (2, 1, 2): (1 + q), (1, 2, 2): -q}),
        (1 + 1 / q - q ** -2,
         {(2, 1, 1): 1.0, (1, 2, 1): 1 - q, (1, 1, 2): -q},
         {(2, 2, 1): 1.0, (2, 1, 2): 1 - q, (1, 2, 2): -q}),
    ]
    for lam, amps21, amps12 in cases:
        b21 = TensorState(2, 3, amps21).normalized()
        assert hamiltonian_apply(chain, b21).sub(b21.scale(lam)).norm() < 1e-12
        b12 = TensorState(2, 3, amps12).normalized()
        assert hamiltonian_apply(chain, b12).sub(b12.scale(lam)).norm() < 1e-12
        raised = qalgebra.apply_E(b21, 1, q)
        overlap = abs(raised.inner(b12)) / (raised.norm() * b12.norm())
        assert abs(overlap - 1.0) < 1e-12
        assert raised.norm() == pytest.approx(b21.norm(), abs=1e-12)  # coefficient 1
        assert qalgebra.apply_F(b21, 1, q).norm() < 1e-12             # highest weight
        assert qalgebra.apply_E(b12, 1, q).norm() < 1e-12             # ladder ends


def test_qubit_dicke_general_N_forms():
    # (N-1, 1) label: coefficients 1, q, ..., q^{N-1} over 1/sqrt([[N]]_q)
    q = 1.3
    for N in (4, 6):
        b = qalgebra.q_dicke(2, N, (N - 1, 1), q)
        nrm = bracket(N, q * q) ** 0.5
        for i in range(N):
            w = tuple(2 if p == N - 1 - i else 1 for p in range(N))
            assert b.amps[w] == pytest.approx(q ** i / nrm)


def test_diagonalize_single_letter():
    deco = spectra.diagonalize(spectra.OpenChain(1, 5, Q))
    assert deco.eigenvalues == [4.0]
    assert deco.multiplicities == [1]


def test_diagonalize_matches_dense_oracle():
    for n, N in [(2, 4), (3, 3), (2, 5)]:
        deco = spectra.diagonalize(spectra.OpenChain(n, N, Q))
        dense_vals = np.sort(np.linalg.eigvalsh(dense_hamiltonian(n, N, Q)))
        ours = np.sort(np.concatenate(
            [[c.value] * c.multiplicity for c in deco.clusters]))
        assert np.abs(dense_vals - ours).max() < 1e-9
        assert deco.total_dimension() == n ** N


def test_eigenvector_residuals_and_orthonormality():
    chain = spectra.OpenChain(2, 4, Q)
    for content, (words, values, vecs) in dominant_eigenpairs(chain).items():
        gram = vecs.T @ vecs
        assert np.abs(gram - np.eye(gram.shape[0])).max() < 1e-12
        for col in range(vecs.shape[1]):
            st = TensorState(2, 4, {tuple(w): float(c)
                                    for w, c in zip(words.tolist(), vecs[:, col])
                                    if c != 0.0})
            resid = hamiltonian_apply(chain, st).sub(
                st.scale(values[col])).norm()
            assert resid < 1e-10


def test_eigenvector_first_component_positive():
    # blocks wider than RESIDUAL_CHUNK (n=2, N=10) are oriented chunk by chunk
    for n, N in [(2, 10), (3, 5), (4, 4)]:
        for content, (_, _, vecs) in dominant_eigenpairs(spectra.OpenChain(n, N, Q)).items():
            for v in vecs.T:
                assert v[np.flatnonzero(np.abs(v) > 1e-12)[0]] > 0, (n, N, content)


def test_eigenpair_check_covers_every_chunk(monkeypatch):
    # a corrupted eigenvector at column 200 lies past the first
    # RESIDUAL_CHUNK = 128 columns of the 210-wide N=10 block (6, 4)
    real_eigh = np.linalg.eigh

    def corrupt_eigh(m):
        vals, vecs = real_eigh(m)
        if vecs.shape[1] > 200:
            vecs[0, 200] += 1e-3
        return vals, vecs

    assert spectra.RESIDUAL_CHUNK <= 200
    monkeypatch.setattr(spectra.np.linalg, "eigh", corrupt_eigh)
    with pytest.raises(ValidationError, match="eigenpair residual"):
        dominant_eigenpairs(spectra.OpenChain(2, 10, Q))


def test_one_eigh_per_parity_half_of_each_solved_block(monkeypatch):
    # with vectors, one eigh per partition mu of N with at most n rows, or one
    # per non-empty w0 parity half where a permutation of mu reads the same
    # reversed: n = 2, N = 12 splits (6, 6) of its 7 blocks, N = 13 none
    calls = []
    real_eigh = np.linalg.eigh

    def counting_eigh(m):
        calls.append(m.shape[0])
        return real_eigh(m)

    monkeypatch.setattr(spectra.np.linalg, "eigh", counting_eigh)
    for n, N, expected in [(2, 12, 8), (2, 13, 7)]:
        calls.clear()
        dominant_eigenpairs(spectra.OpenChain(n, N, Q))
        assert len(calls) == expected, (n, N)
    calls.clear()
    dominant_eigenpairs(spectra.OpenChain(3, 6, Q))
    widths = {(6,): [1], (5, 1): [6], (4, 2): [15], (4, 1, 1): [18, 12], (3, 3): [14, 6],
              (3, 2, 1): [60], (2, 2, 2): [51, 39]}
    assert sorted(calls) == sorted(w for ws in widths.values() for w in ws)


def _w0_alphabet(content):
    """L such that w0 over the letters 1..L (reverse a word, send a to
    L + 1 - a) maps the block of content onto itself: every letter when
    content reads the same reversed, else its nonzero prefix when that does
    and the rest is zero; None when there is no such L."""
    if content == content[::-1]:
        return len(content)
    last = max(i + 1 for i, c in enumerate(content) if c)
    prefix = content[:last]
    return last if prefix == prefix[::-1] else None


def _w0_images(words, letters):
    """Position of the w0 image over 1..letters of each word, by brute force."""
    position = {w: i for i, w in enumerate(map(tuple, words.tolist()))}
    return [position[tuple(letters + 1 - a for a in reversed(w))] for w in words.tolist()]


def test_self_mirrored_block_columns_are_w0_even_or_odd():
    # every kept column of a solved block that w0 maps onto itself is
    # w0-even or w0-odd, and the block's columns are orthonormal
    for n, N in [(2, 12), (3, 6), (4, 5)]:
        for q in (0.3, 0.7, 1.5, 3.0):
            split = 0
            solved = dominant_eigenpairs(spectra.OpenChain(n, N, q))
            for content, (words, _, vecs) in solved.items():
                letters = _w0_alphabet(content)
                if letters is None:
                    continue
                moved = vecs[_w0_images(words, letters)]
                even = np.abs(moved - vecs).max(axis=0) <= 1e-12
                odd = np.abs(moved + vecs).max(axis=0) <= 1e-12
                assert (even | odd).all(), (n, N, q, content)
                split += odd.any()
                gram = vecs.T @ vecs
                assert np.abs(gram - np.eye(gram.shape[0])).max() < 1e-12, (n, N, q, content)
            assert split, (n, N, q)


def test_vectors_path_with_a_wrong_w0_fails_the_check(monkeypatch):
    # the w0 images rolled by one word within each block are no symmetry of
    # H: the coupling check before the split refuses them
    real = spectra._w0_positions

    def rolled(n, N, words, bounds, letters):
        w0 = real(n, N, words, bounds, letters)
        return np.concatenate([np.roll(w0[lo:hi], 1) for lo, hi in zip(bounds[:-1], bounds[1:])])

    monkeypatch.setattr(spectra, "_w0_positions", rolled)
    with pytest.raises(ValidationError, match="w0 symmetry residual"):
        dominant_eigenpairs(spectra.OpenChain(2, 6, Q))


def test_site_array_product_matches_block_matrix():
    # the H V that the sweep's eigen residual forms, against the dense block
    rng = np.random.default_rng(8)
    for n, N_max in [(2, 8), (3, 6), (4, 5)]:
        for N in range(1, N_max + 1):
            for q in (0.7, 1.0, 1.5, 2.0):
                chain = spectra.OpenChain(n, N, q)
                for content in qalgebra.dicke_labels(n, N):
                    basis = spectra.weight_basis(n, N, content)
                    m = spectra.block_matrix(chain, basis)
                    v = rng.uniform(-1.0, 1.0, size=(len(basis), 5))
                    hv = spectra._block_apply(spectra._block_sites(chain, basis), v)
                    assert (np.abs(hv - m @ v).max()
                            <= 1e-13 * np.linalg.norm(m, np.inf)), (n, N, q, content)


def test_blocks_mutually_orthogonal_across_clusters():
    # eigenvectors of different clusters living in the same weight block are
    # orthogonal to each other, not just within their own cluster
    for content, (_, _, stacked) in dominant_eigenpairs(spectra.OpenChain(2, 5, Q)).items():
        gram = stacked.T @ stacked
        assert np.abs(gram - np.eye(gram.shape[0])).max() < 1e-10


def test_block_matrices_exactly_symmetric():
    for n, N in [(2, 5), (3, 3)]:
        chain = spectra.OpenChain(n, N, Q)
        for content in qalgebra.dicke_labels(n, N):
            m = spectra.block_matrix(chain, spectra.weight_basis(n, N, content))
            assert np.array_equal(m, m.T)


def test_block_matrix_matches_sparse_path():
    # ranked-word assembly against H applied word by word, bit for bit, in
    # the lexicographic basis, and sector_matrix in the reversed one
    for n, N_max in [(2, 8), (3, 6), (4, 5)]:
        for N in range(1, N_max + 1):
            for q in (0.7, 1.0, 1.5, 2.0):
                chain = spectra.OpenChain(n, N, q)
                for content in qalgebra.dicke_labels(n, N):
                    basis = spectra.weight_basis(n, N, content)
                    sparse = block_map(lambda s: hamiltonian_apply(chain, s), n, basis, basis)
                    assert np.array_equal(spectra.block_matrix(chain, basis),
                                          sparse), (n, N, q, content)
                    if n == 2:
                        words = basis[::-1]
                        sparse = block_map(
                            lambda s: hamiltonian_apply(chain, s), n, words, words)
                        assert np.array_equal(spectra.sector_matrix(N, q, content[1]),
                                              sparse), (N, q, content)
    chain = spectra.OpenChain(2, 5, Q)
    assert spectra.block_matrix(chain, []).shape == (0, 0)
    assert np.array_equal(spectra.block_matrix(chain, spectra.weight_basis(2, 5, (5, 0))),
                          [[4.0]])
    # 2^70 base-2 keys do not fit in int64
    words = spectra.weight_basis(2, 70, (69, 1))[::-1]
    sparse = block_map(lambda s: hamiltonian_apply(
        spectra.OpenChain(2, 70, Q), s), 2, words, words)
    assert np.array_equal(spectra.sector_matrix(70, Q, 1), sparse)


def _moved(content, removed, added):
    """The content with one letter `removed` turned into `added`; None when
    there is no such letter."""
    if content[removed - 1] == 0:
        return None
    out = list(content)
    out[removed - 1] -= 1
    out[added - 1] += 1
    return tuple(out)


def _coproduct_cases(n, q, content):
    """(kind, j, sparse operator, content of the image block or None)."""
    for j in range(1, n):
        yield "E", j, lambda s, j=j: qalgebra.apply_E(s, j, q), _moved(content, j, j + 1)
        yield "F", j, lambda s, j=j: qalgebra.apply_F(s, j, q), _moved(content, j + 1, j)
        yield "qH", j, lambda s, j=j: qalgebra.apply_qH(s, j, q), content
    for j in range(1, n + 1):
        yield "qEps", j, lambda s, j=j: qalgebra.apply_qEps(s, j, q), content


def test_coproduct_block_matches_sparse_path():
    # ranked-word assembly of E_j, F_j, q^{H_j} and q^{eps_j} against the
    # sparse operator applied word by word, bit for bit, in the
    # lexicographic basis; an operator that kills the block maps it into
    # the empty target
    for n, N_max in [(2, 8), (3, 6), (4, 5)]:
        for N in range(1, N_max + 1):
            for q in (0.7, 1.0, 1.5, 2.0):
                chain = spectra.OpenChain(n, N, q)
                for content in qalgebra.dicke_labels(n, N):
                    basis = spectra.weight_basis(n, N, content)
                    for kind, j, op, image in _coproduct_cases(n, q, content):
                        target = [] if image is None else spectra.weight_basis(n, N, image)
                        assert np.array_equal(
                            spectra.coproduct_block(chain, kind, j, basis, target),
                            block_map(op, n, basis, target)), (n, N, q, content, kind, j)
    # 2^70 base-2 keys do not fit in int64
    chain = spectra.OpenChain(2, 70, Q)
    lower = spectra.weight_basis(2, 70, (69, 1))
    upper = spectra.weight_basis(2, 70, (68, 2))
    for kind, j, op, image in _coproduct_cases(2, Q, (69, 1)):
        target = {(69, 1): lower, (68, 2): upper, (70, 0): [(1,) * 70]}[image]
        assert np.array_equal(spectra.coproduct_block(chain, kind, j, lower, target),
                              block_map(op, 2, lower, target)), (kind, j)


def _same_sites(a, b):
    """Two site-array triples (diag, sites, off) equal bit for bit."""
    return (np.array_equal(a[0], b[0]) and a[2] == b[2] and len(a[1]) == len(b[1])
            and all(np.array_equal(x, y) for s, t in zip(a[1], b[1]) for x, y in zip(s, t)))


@pytest.mark.parametrize("q", (0.7, 1.0, 1.5, 2.0))
def test_one_pass_builder_matches_one_content_calls_and_the_sparse_path(q):
    # one all-contents call of each stage against the one-content calls and
    # against brute force, bit for bit: the words, H's site arrays, the w0
    # positions (every block that w0 maps onto itself, over its alphabet)
    # and every E_j, F_j, q^{H_j}, q^{eps_j} map, which also equals the
    # sparse operator word by word
    for n in range(1, 5):
        for N in range(1, 8):
            chain = spectra.OpenChain(n, N, q)
            contents = qalgebra.dicke_labels(n, N)
            index = {c: b for b, c in enumerate(contents)}
            words, bounds = spectra.weight_blocks(n, N, contents)
            blocks = [words[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
            sites = spectra._sites_by_block(chain, words, bounds)
            mirrored = [b for b, c in enumerate(contents) if _w0_alphabet(c)]
            letters = [_w0_alphabet(contents[b]) for b in mirrored]
            ends = np.cumsum([0] + [len(blocks[b]) for b in mirrored])
            w0 = spectra._w0_positions(n, N, np.concatenate([blocks[b] for b in mirrored]), ends,
                                       letters)
            for b, content in enumerate(contents):
                basis = spectra.weight_basis(n, N, content)
                assert blocks[b].dtype == basis.dtype and np.array_equal(blocks[b], basis)
                assert _same_sites(sites[b], spectra._block_sites(chain, basis)), (n, N, content)
            for b, k, lo, hi in zip(mirrored, letters, ends, ends[1:]):
                got = w0[lo:hi]
                assert np.array_equal(got, spectra._w0_positions(n, N, blocks[b],
                                                                 [0, hi - lo], [k]))
                assert got.tolist() == _w0_images(blocks[b], k), (n, N, contents[b])
            cases = {}              # (kind, j) -> (sparse operator, [(source, target)])
            for b, content in enumerate(contents):
                for kind, j, op, image in _coproduct_cases(n, q, content):
                    pairs = cases.setdefault((kind, j), (op, []))[1]
                    if image is not None:
                        pairs.append((b, index[image]))
            for (kind, j), (op, pairs) in cases.items():
                maps = list(spectra._coproduct_maps(chain, kind, j, words, bounds, pairs))
                assert len(maps) == len(pairs)
                for (s, t), m in zip(pairs, maps):
                    assert np.array_equal(
                        m, spectra.coproduct_block(chain, kind, j, blocks[s], blocks[t]))
                    assert np.array_equal(m, block_map(op, n, blocks[s], blocks[t])), (
                        n, N, contents[s], kind, j)


def test_one_pass_builder_past_int64_keys():
    # 3 * 2^70 block-major keys do not fit in int64: three blocks of N = 70
    # from one call each, against the one-content calls and the sparse path
    chain = spectra.OpenChain(2, 70, Q)
    contents = [(70, 0), (69, 1), (68, 2)]
    words, bounds = spectra.weight_blocks(2, 70, contents)
    blocks = [words[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    for b, sites in enumerate(spectra._sites_by_block(chain, words, bounds)):
        assert _same_sites(sites, spectra._block_sites(chain, blocks[b]))
    for kind, op in [("E", lambda s: qalgebra.apply_E(s, 1, Q)),
                     ("F", lambda s: qalgebra.apply_F(s, 1, Q))]:
        pairs = [(0, 1), (1, 2)] if kind == "E" else [(1, 0), (2, 1)]
        for (s, t), m in zip(pairs, spectra._coproduct_maps(chain, kind, 1, words, bounds, pairs)):
            assert np.array_equal(m, block_map(op, 2, blocks[s], blocks[t])), (kind, s)


def test_rank_calls_do_not_grow_with_the_number_of_blocks(monkeypatch):
    # verify_decomposition(2, N, q) ranks its words a fixed number of times
    # (the one-pass builders: the seminormal forms of every shape, H and
    # E_1 of every block), diagonalize too (the seminormal forms, H and the
    # w0 images of the dominant blocks), and symmetry_residual once for H
    # and once per operator kind
    real = spectra._rank
    calls = []
    monkeypatch.setattr(spectra, "_rank", lambda *args: calls.append(args) or real(*args))
    counts = []
    for N in (5, 9, 12):
        calls.clear()
        assert spectra.verify_decomposition(2, N, Q).ok
        counts.append(len(calls))
    assert counts[0] == counts[1] == counts[2], counts
    counts = []
    for N in (4, 5, 6):
        calls.clear()
        spectra.diagonalize(spectra.OpenChain(3, N, Q))
        counts.append(len(calls))
    assert counts[0] == counts[1] == counts[2], counts
    for n in (2, 3):
        counts = []
        for N in (4, 5, 6):
            calls.clear()
            spectra.symmetry_residual(n, N, Q)
            counts.append(len(calls))
        assert counts == [1 + 3 * (n - 1) + n] * 3, (n, counts)


def test_coproduct_block_rejects_a_target_that_is_not_the_image_block():
    chain = spectra.OpenChain(2, 4, Q)
    lower = spectra.weight_basis(2, 4, (3, 1))
    upper = spectra.weight_basis(2, 4, (2, 2))
    for kind, j, source, target in [("E", 1, lower, upper[:-1]),
                                    ("F", 1, upper, lower[1:]),
                                    ("E", 1, lower, []),          # empty, not IndexError
                                    ("qH", 1, lower, upper),
                                    ("qEps", 2, lower, lower[:2]),
                                    ("E", 1, lower, [(1, 2, 3, 1)]),
                                    ("E", 2, lower, upper),       # no E_2 for n = 2
                                    ("qEps", 3, lower, lower),
                                    ("X", 1, lower, upper)]:
        with pytest.raises(ValidationError):
            spectra.coproduct_block(chain, kind, j, source, target)
    # nothing to map: an empty source, or a block the operator kills
    assert spectra.coproduct_block(chain, "E", 1, [], upper).shape == (6, 0)
    assert spectra.coproduct_block(chain, "E", 1, [(2, 2, 2, 2)], []).shape == (0, 1)
    assert spectra.coproduct_block(chain, "qH", 1, [], []).shape == (0, 0)


def test_spectra_builds_blocks_without_sparse_states():
    # every weight block comes from ranked words: spectra holds no sparse
    # state, no sparse operator and nothing from hecke, so a second,
    # per-word block path cannot come back unnoticed
    names = vars(spectra)
    assert "TensorState" not in names and "apply_generator" not in names
    assert [name for name in names if name.startswith("apply_")] == []
    assert [name for name, value in names.items()
            if getattr(value, "__module__", None) == "braidlab.hecke"] == []
    assert "_block_map" not in names and "hamiltonian_apply" not in names


def test_block_matrix_rejects_a_basis_that_is_not_a_block():
    chain = spectra.OpenChain(2, 4, Q)
    with pytest.raises(ValidationError):
        spectra.block_matrix(chain, [(1, 1, 1, 3)])
    with pytest.raises(ValidationError):
        spectra.block_matrix(chain, [(1, 1, 2)])
    with pytest.raises(ValidationError):
        spectra.block_matrix(chain, spectra.weight_basis(2, 4, (3, 1))[:2])


def test_weight_basis_is_the_lexicographic_block():
    # one int64 array per weight block, its words in lexicographic order
    for n, N_max in [(1, 3), (2, 8), (3, 5), (4, 4)]:
        for N in range(0, N_max + 1):
            for content in qalgebra.dicke_labels(n, N):
                basis = spectra.weight_basis(n, N, content)
                assert basis.dtype == np.int64 and basis.shape[1] == N
                assert [tuple(w) for w in basis.tolist()] == multiset_permutations(
                    qalgebra.ordered_word(content)), (n, N, content)


@pytest.mark.parametrize("content", [(3, 2), (2, 1), (5, -1), (2, 2, 0), (4,)])
def test_weight_basis_rejects_a_content_that_is_not_a_composition(content):
    with pytest.raises(ValidationError, match="composition"):
        spectra.weight_basis(2, 4, content)


def test_block_matrix_rejects_a_basis_out_of_lexicographic_order():
    chain = spectra.OpenChain(2, 4, Q)
    lower = spectra.weight_basis(2, 4, (3, 1))
    upper = spectra.weight_basis(2, 4, (2, 2))
    for words in (lower[::-1], lower[[0, 2, 1, 3]], lower[[0, 0, 1, 2, 3]]):
        with pytest.raises(ValidationError, match="lexicographic"):
            spectra.block_matrix(chain, words)
        with pytest.raises(ValidationError, match="lexicographic"):
            spectra.coproduct_block(chain, "E", 1, words, upper)
    with pytest.raises(ValidationError, match="lexicographic"):
        spectra.coproduct_block(chain, "E", 1, lower, upper[::-1])


def test_sector_matrix_small_cases():
    assert np.array_equal(spectra.sector_matrix(4, Q, 0), [[3.0]])
    m = spectra.sector_matrix(3, Q, 1)
    expect = np.array([[2 - Q ** -2, 1 / Q, 0.0],
                       [1 / Q, 1 - Q ** -2, 1 / Q],
                       [0.0, 1 / Q, 1.0]])
    assert np.abs(m - expect).max() < 1e-14


def test_sector_matrix_k1_structure_general_N():
    for N in (2, 5, 8):
        m = spectra.sector_matrix(N, Q, 1)
        diag = np.diag(m)
        assert diag[0] == pytest.approx(N - 1 - Q ** -2)
        assert diag[-1] == pytest.approx(N - 2)
        for d in diag[1:-1]:
            assert d == pytest.approx(N - 2 - Q ** -2)
        off = np.diag(m, k=1)
        assert np.allclose(off, 1 / Q)
        assert np.count_nonzero(m - np.diag(diag) - np.diag(off, 1) - np.diag(off, -1)) == 0


def test_top_eigenvector_geometric_profile():
    # for the k=1 block, the eigenvector at N-1 has components q^{-(i-1)}
    for N in (3, 5, 7):
        m = spectra.sector_matrix(N, Q, 1)
        vals, vecs = np.linalg.eigh(m)
        idx = int(np.argmin(np.abs(vals - (N - 1))))
        v = vecs[:, idx]
        v = v / v[0]
        assert np.abs(v - Q ** -np.arange(N)).max() < 1e-10


def test_orthogonality_sum_rule():
    # eigenvectors with eigenvalue != N-1 in the k=1 block satisfy
    # sum_i a_i q^{-i} = 0
    for N in (3, 5, 8):
        m = spectra.sector_matrix(N, Q, 1)
        vals, vecs = np.linalg.eigh(m)
        weights = Q ** -np.arange(1, N + 1)
        for i, lam in enumerate(vals):
            if abs(lam - (N - 1)) < 1e-9:
                continue
            assert abs(vecs[:, i] @ weights) < 1e-10


def test_classify_sectors_examples():
    rep = spectra.classify_sectors(spectra.OpenChain(2, 3, Q))
    assert rep.m_observed == {0: 1, 1: 2}
    assert all(lad.length == 3 - 2 * k + 1 for k, lads in rep.sectors.items()
               for lad in lads)
    by_sector = {c.value: c.sector for c in rep.clusters}
    assert by_sector[
        min(by_sector, key=lambda v: abs(v - 2.0))] == 0

    rep = spectra.classify_sectors(spectra.OpenChain(2, 2, Q))
    assert rep.m_observed == {0: 1, 1: 1}

    rep = spectra.classify_sectors(spectra.OpenChain(2, 4, Q))
    assert rep.m_observed == {0: 1, 1: 3, 2: 2}
    assert sum(spectra.sector_multiplicity(4, k) * spectra.sector_dimension(4, k)
               for k in range(3)) == 16


def test_sector_values_equal_block_spectrum_differences():
    # independent identification: the sector-k eigenvalues must be exactly
    # the eigenvalues of block k that are absent from block k-1
    for N, q in [(5, 1.3), (6, 0.8), (7, 1.5)]:
        rep = spectra.classify_sectors(spectra.OpenChain(2, N, q))
        prev = np.array([])
        for k in range(N // 2 + 1):
            vals = np.linalg.eigvalsh(spectra.sector_matrix(N, q, k))
            new = np.array(sorted(
                x for x in vals if prev.size == 0 or np.abs(prev - x).min() > 1e-7))
            got = np.array(sorted(lad.eigenvalue for lad in rep.sectors[k]))
            assert new.size == got.size, (N, q, k)
            assert np.abs(new - got).max() < 1e-9, (N, q, k)
            prev = vals


def test_classification_clean_at_isotropic_point():
    # q = 1 keeps all sectors separated on this grid; classification works
    # without falling back to multiplicity-only matching
    for N in range(2, 8):
        rep = spectra.classify_sectors(spectra.OpenChain(2, N, 1.0))
        assert rep.ok and not rep.warnings


def test_sector_multiplicity_closed_form():
    from math import comb
    for N in range(2, 12):
        for k in range(N // 2 + 1):
            assert spectra.sector_multiplicity(N, k) == comb(N, k) - (comb(N, k - 1) if k else 0)


def test_sector_multiplicity_refuses_a_sector_past_the_middle():
    # (N - k, k) is a partition for 0 <= k <= N/2 only; past the middle
    # there is no sector, so there is no count (not 0, not negative)
    for N, k in [(5, 3), (4, 3), (4, 4), (4, -1)]:
        with pytest.raises(ValidationError):
            spectra.sector_multiplicity(N, k)
    assert spectra.sector_multiplicity(1, 0) == 1


def test_verify_decomposition_n2_range():
    for N in range(2, 9):
        report = spectra.verify_decomposition(2, N, 1.5)
        assert report.ok, (N, report.mismatches, report.sector_report.warnings)
        assert report.total_dimension == 2 ** N


def test_verify_decomposition_n2_N2_dims():
    report = spectra.verify_decomposition(2, 2, Q)
    mults = sorted(c.multiplicity for c in
                   spectra.diagonalize(spectra.OpenChain(2, 2, Q)).clusters)
    assert mults == [1, 3]
    assert report.ok


def test_verify_decomposition_n3_N2():
    # eigenvalue 1 with dim n(n+1)/2 = 6 and -q^{-2} with dim n(n-1)/2 = 3
    q = 1.5
    deco = spectra.diagonalize(spectra.OpenChain(3, 2, q))
    got = {round(c.value, 9): c.multiplicity for c in deco.clusters}
    assert got == {1.0: 6, round(-q ** -2, 9): 3}
    report = spectra.verify_decomposition(3, 2, q)
    assert report.ok


def test_sector_eigenvalues_distinct_conjecture_evidence():
    # all eigenvalues within one sector matrix are distinct: conjecture
    # evidence at desk scale, reported not assumed.  The narrowest gap in the
    # scan is ~2e-7 (N=10, k=5, q=2.0), still far above eigensolver noise.
    for q in (0.7, 1.3, 2.0):
        for N in range(2, 11):
            for k in range(N // 2 + 1):
                vals = np.linalg.eigvalsh(spectra.sector_matrix(N, q, k))
                gaps = np.diff(np.sort(vals))
                if gaps.size:
                    assert gaps.min() > 1e-9, (N, k, q)


def test_complementary_sector_spectra_match():
    for N in (3, 5, 6):
        for k in range(N // 2 + 1):
            a = np.sort(np.linalg.eigvalsh(spectra.sector_matrix(N, Q, k)))
            b = np.sort(np.linalg.eigvalsh(spectra.sector_matrix(N, Q, N - k)))
            assert np.abs(a - b).max() < 1e-10


def test_ladder_termination():
    # q within 1e-8 of 1 is as good as any: the closed-form kappa has no
    # cancellation there (its q-integers are finite sums)
    for N, q in [(6, 1.3), (7, 2.0), (8, 1.5), (11, 0.7), (8, 1.00000001), (8, 1.000000003)]:
        rep = spectra.classify_sectors(spectra.OpenChain(2, N, q))
        for k, lads in rep.sectors.items():
            for lad in lads:
                assert lad.length == N - 2 * k + 1
                assert lad.hw_residual < 1e-13, (N, q, k)
                assert lad.termination_residual < 1e-8
                assert lad.kappa_residual < 1e-8
                assert lad.eigen_residual < 1e-9


def _sectors_both_ways(monkeypatch, N, q):
    """classify_sectors on range(E_1)^perp from one QR per rung, then on the
    full-SVD oracle (highest_weight_svd on the dense block and F_1), each
    with its own solve."""
    fast = spectra.classify_sectors(spectra.OpenChain(2, N, q))
    with monkeypatch.context() as patch:
        patch.setattr(spectra, "_hw_eigenpairs", lambda sites, e: (*highest_weight_svd(
            spectra._dense(sites), e.T), 1.0))
        slow = spectra.classify_sectors(spectra.OpenChain(2, N, q))
    return fast, slow


@pytest.mark.parametrize("q", [0.7, 0.8, 1.0, 1.5, 2.0])
def test_kernel_per_run_matches_the_svd_oracle(monkeypatch, q):
    for N in range(1, 11):
        fast, slow = _sectors_both_ways(monkeypatch, N, q)
        assert fast.m_observed == slow.m_observed == fast.m_predicted, N
        assert [c.sector for c in fast.clusters] == [c.sector for c in slow.clusters], N
        for k in slow.sectors:
            got = [lad.eigenvalue for lad in fast.sectors[k]]
            want = [lad.eigenvalue for lad in slow.sectors[k]]
            assert np.abs(np.subtract(got, want)).max(initial=0.0) < 1e-9, (N, k)
        assert fast.warnings == slow.warnings == [], N
        assert fast.ok and slow.ok, N


def test_kernel_next_to_a_crossing_matches_the_svd_oracle(monkeypatch):
    # at q = sqrt(3) an N = 6 eigenvalue of sector 1 crosses one of sector 2
    # in block 2; at these q the two are a little more than the clustering
    # tolerance apart, where an eigh of the whole block mixes their columns
    # (a kernel taken from one-column runs of block 2's eigenvectors at the
    # clustering tolerance counted 8 sector-2 ladders here, not 9)
    for q in (1.7320506495688772, 1.7320509703188771, 1.732051002318877):
        fast, slow = _sectors_both_ways(monkeypatch, 6, q)
        assert fast.m_observed == slow.m_observed == fast.m_predicted, q
        assert [c.sector for c in fast.clusters] == [c.sector for c in slow.clusters], q
        assert fast.warnings == slow.warnings, q
        assert fast.ok == slow.ok, q


def _failing(warnings):
    """(sector, residual name) for each residual a warning names, and the
    clash warnings as they stand."""
    failing = set()
    for w in warnings:
        if " ladder residuals above " in w:
            k = int(w.split()[1])
            failing |= {(k, part.split()[0]) for part in w.split(": ", 1)[1].split(", ")}
        else:
            failing.add(w)
    return failing


@pytest.mark.parametrize("q", [0.3, 3.0])
def test_kernel_per_run_adds_no_warning_where_rounding_fails_the_gate(monkeypatch, q):
    # at these q, unless every rung clears the lower sectors
    # (_clear_lower_sectors), the N = 10 and 11 ladders miss HW_TOL from rounding
    for N in range(1, 12):
        fast, slow = _sectors_both_ways(monkeypatch, N, q)
        assert fast.m_observed == slow.m_observed == fast.m_predicted, N
        assert [c.sector for c in fast.clusters] == [c.sector for c in slow.clusters], N
        assert _failing(fast.warnings) <= _failing(slow.warnings), N
        assert fast.ok or not slow.ok, N


def test_highest_weight_vectors_do_not_leak_out_of_the_kernel():
    # whole-block eigenvectors left components of rounding over the gap
    # outside ker F_1 (hw residual about 1e-10 at N = 12 without the
    # projection), which the ladder amplifies; the complement of range(E_1)
    # and the clearing on every rung keep them at rounding
    rep = spectra.classify_sectors(spectra.OpenChain(2, 12, 1.3))
    assert max(lad.hw_residual for lads in rep.sectors.values() for lad in lads) < 1e-13
    assert rep.ok


def test_f1e1_inverse_from_eigenvectors():
    # on block m < N/2 the ladders of every sector k <= m, raised from the
    # full-SVD highest weight vectors of block k, are eigenvectors of
    # F_1 E_1 with distinct kappa = [N-k-m]_q [m-k+1]_q; raised into block
    # m + 1 they span range(E_1), so clearing fresh columns y of sector m + 1
    # against them with diagonal weights equals the projection
    # y - E_1 (E_1^T E_1)^-1 E_1^T y of a dense solve, relative to |y|: at
    # (9, 0.7, 4) E_1 maps onto block 5 and the projection is zero
    for N, q, m in [(6, 1.0, 2), (8, 1.5, 3), (9, 0.7, 4), (7, 2.0, 1)]:
        chain = spectra.OpenChain(2, N, q)
        ladders, sector, below = np.zeros((1, 0)), [], None
        for k in range(m + 1):
            basis = spectra.weight_basis(2, N, (N - k, k))
            if below is None:
                f = np.zeros((1, 1))            # F_1 kills the one word of block 0
            else:
                ladders = spectra.coproduct_block(chain, "E", 1, below, basis) @ ladders
                f = spectra.coproduct_block(chain, "F", 1, basis, below)
            _, hw = highest_weight_svd(spectra.block_matrix(chain, basis), f)
            ladders, sector = np.hstack([ladders, hw]), sector + [k] * hw.shape[1]
            below = basis
        above = spectra.weight_basis(2, N, (N - m - 1, m + 1))
        e_out = spectra.coproduct_block(chain, "E", 1, below, above)
        assert ladders.shape == (comb(N, m), comb(N, m)), (N, m)
        y = np.random.default_rng(N).standard_normal((len(above), 3))
        want = y - e_out @ np.linalg.solve(e_out.T @ e_out, e_out.T @ y)
        b = np.hstack([e_out @ ladders, y])
        spectra._clear_lower_sectors(b, np.array(sector + [m + 1] * 3))
        assert np.abs(b[:, -3:] - want).max() < 1e-10 * np.abs(y).max(), (N, m)


def test_f1_block_map_is_e1_transpose():
    # the ladder sweep takes F_1 (block k+1 -> k) as the transpose of E_1
    # (block k -> k+1); in the word basis the two agree bit for bit, and so
    # do F_j and E_j for every n <= 4 and every j
    for n, N_max in [(2, 8), (3, 6), (4, 5)]:
        for q in (0.7, 1.0, 1.5, 2.0):
            for N in range(1, N_max + 1):
                chain = spectra.OpenChain(n, N, q)
                for content in qalgebra.dicke_labels(n, N):
                    for j in range(1, n):
                        raised = _moved(content, j, j + 1)
                        if raised is None:
                            continue
                        lower = spectra.weight_basis(n, N, content)
                        upper = spectra.weight_basis(n, N, raised)
                        f = spectra.coproduct_block(chain, "F", j, upper, lower)
                        e = spectra.coproduct_block(chain, "E", j, lower, upper)
                        assert np.array_equal(f, e.T), (n, N, q, content, j)


@pytest.mark.parametrize("q", [0.7, 1.0, 1.5, 2.0])
def test_ladder_values_are_the_seminormal_spectra(q):
    # the slow path for each sector k: the values of rho_(N-k, k)(H) in
    # Young's seminormal form, one eigvalsh of a matrix that shares nothing
    # with the sweep; q = 1 is the most degenerate case
    for N in range(1, 11):
        rep = spectra.classify_sectors(spectra.OpenChain(2, N, q))
        for k, lads in rep.sectors.items():
            want = np.linalg.eigvalsh(spectra.sector_hamiltonian((N - k, k) if k else (N,), q))
            got = np.sort([lad.eigenvalue for lad in lads])
            assert got.shape == want.shape, (N, k)
            assert (np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))).all(), (N, k)


def test_rank_margin_is_bounded_by_the_condition_of_e1():
    # min |R_ii| >= sigma_min(E_1) and max |R_ii| <= sigma_max(E_1), so the
    # reported margin of every rung lies between 1 / cond(E_1) and 1; with
    # no E_1 column (N = 1) it is 1
    assert spectra.classify_sectors(spectra.OpenChain(2, 1, Q)).rank_margin == 1.0
    for N in range(2, 10):
        for q in (0.7, 1.0, 1.5, 1e3):
            chain = spectra.OpenChain(2, N, q)
            inverse_cond = 1.0
            for m in range(1, N // 2 + 1):
                below, block = (spectra.weight_basis(2, N, (N - k, k)) for k in (m - 1, m))
                e = spectra.coproduct_block(chain, "E", 1, below, block)
                sv = np.linalg.svd(e, compute_uv=False)
                inverse_cond = min(inverse_cond, sv.min() / sv.max())
            margin = spectra.classify_sectors(chain).rank_margin
            assert inverse_cond * (1 - 1e-9) <= margin <= 1.0, (N, q)


def test_ladder_check_flags_a_non_highest_weight_vector(monkeypatch):
    # a basis word of block 1 is neither killed by F_1 nor an eigenvector,
    # so every residual of its ladder must be far from zero
    N, q = 6, 1.3

    def one_basis_column(sites, e):
        d = len(sites[0])
        if e.shape[1] != 1:     # only block 1 maps onto the one-word block 0
            return np.zeros(0), np.zeros((d, 0)), 1.0
        return np.array([1.0]), np.eye(d)[:, :1], 1.0

    monkeypatch.setattr(spectra, "_hw_eigenpairs", one_basis_column)
    chain = spectra.OpenChain(2, N, q)
    rep = spectra.classify_sectors(chain)
    assert rep.m_observed == {0: 0, 1: 1, 2: 0, 3: 0} and not rep.ok
    (lad,) = rep.sectors[1]
    assert lad.length == N - 1
    got = [lad.hw_residual, lad.kappa_residual, lad.termination_residual, lad.eigen_residual]
    assert min(got) > 0.1

    # the same residuals from the sparse ladder, one rung at a time
    b = TensorState.basis(2, tuple(spectra.weight_basis(2, N, (N - 1, 1))[0].tolist()))
    hw = qalgebra.apply_F(b, 1, q).norm() / b.norm()
    kappa = eigen = 0.0
    for m in range(1, N - 1):
        up = qalgebra.apply_E(b, 1, q)
        c = qalgebra.q_number(N - 1 - m, q) * qalgebra.q_number(m, q)
        kappa = max(kappa, qalgebra.apply_F(up, 1, q).sub(b.scale(c)).norm() / (c * b.norm()))
        eigen = max(eigen, hamiltonian_apply(chain, b).sub(b).norm() / b.norm())
        b = up
    eigen = max(eigen, hamiltonian_apply(chain, b).sub(b).norm() / b.norm())
    term = qalgebra.apply_E(b, 1, q).norm() / b.norm()
    assert np.allclose(got, [hw, kappa, term, eigen], rtol=1e-12, atol=0.0)


def test_ladder_residuals_above_tolerance_fail_the_report(monkeypatch):
    # on rung 3, after the lower sectors are cleared, each sector-3 highest
    # weight vector gets a deliberate leak of 1e-8 of its norm along the
    # sector-0 ladder: out of ker F_1, so F_1 E_1 scales it by kappa_0 =
    # [9]_q [4]_q, not kappa_3 = [6]_q, and the relative kappa residual is
    # 1e-8 (kappa_0 - kappa_3) / kappa_3 = 1.5e-5 at q = 0.3, 1500 times
    # HW_TOL by construction, not by how rounding falls
    N, q = 12, 0.3
    real = spectra._clear_lower_sectors
    rungs = []

    def leak(b, sector):
        real(b, sector)
        rungs.append(len(rungs))
        if rungs[-1] == 3:
            u = b[:, np.flatnonzero(sector == 0)[0]]
            fresh = sector == 3
            b[:, fresh] += 1e-8 * np.outer(u / np.linalg.norm(u),
                                           np.linalg.norm(b[:, fresh], axis=0))

    monkeypatch.setattr(spectra, "_clear_lower_sectors", leak)
    rep = spectra.classify_sectors(spectra.OpenChain(2, N, q))
    assert rep.m_observed == rep.m_predicted
    assert max(lad.kappa_residual for lad in rep.sectors[3]) > 1e3 * spectra.HW_TOL
    assert [w.split(" ladder")[0] for w in rep.warnings] == ["sector 3"]
    assert rep.ok is False


@pytest.mark.parametrize("q", [0.2, 0.3, 3.0, 5.0])
def test_far_from_q_one_every_ladder_passes(q):
    # kappa reaches about 1e8 at N = 12 and these q: ladders cleared of the
    # lower sectors on every rung (uncleared, rounding along them grows by
    # about sqrt(kappa_lower / kappa_k) per rung), and the kappa residual
    # taken relative to kappa, leave every residual at rounding
    assert spectra.verify_decomposition(2, 12, q).ok


@pytest.mark.parametrize("N, q", [(10, 10.0), (12, 0.1), (8, 100.0), (8, 0.01), (6, 0.001)])
def test_sectors_close_in_value_keep_their_own_clusters(N, q):
    # two sectors hold values within the clustering tolerance of each other
    # (at N = 10, q = 10 a sector-4 and a sector-5 value 7.6e-8 apart, under
    # 9.0e-8): each sector's clusters are runs of its own ladders, so no
    # cluster holds both, and every check passes
    report = spectra.verify_decomposition(2, N, q)
    assert report.ok, (report.mismatches, report.sector_report.warnings)


@pytest.mark.parametrize("q", [1e3, 1e5])
def test_far_q_sector_counts_come_from_structure(q):
    # E_1 into block 4 of N = 8 has a rank margin of 2e-9 (q = 1e3) and
    # 2e-15 (q = 1e5): a rank counted against HW_TOL times the largest
    # singular value kept 42 sector-4 ladders at q = 1e3, not 14, and 48
    # sector-3 ladders at q = 1e5, not 28.  The complement of range(E_1) has
    # d_m - d_(m-1) columns at any margin, and every rung's open ladders
    # match the block's values; ladder residuals above HW_TOL may remain
    rep = spectra.classify_sectors(spectra.OpenChain(2, 8, q))
    assert rep.m_observed == rep.m_predicted
    assert not [w for w in rep.warnings if w.startswith("rung ")]


def test_clusters_of_each_shape_add_up_to_its_dimension():
    # a cluster is a run of one irrep's values: the clusters of lambda hold
    # f^lambda ssyt_dim(lambda, n) states, from diagonalize for every n and
    # from the sector sweep for n = 2 (sector k is lambda = (N - k, k))
    for n in range(1, 5):
        for N in range(1, 8):
            want = {lam: tableaux.syt_dim(lam) * tableaux.ssyt_dim(lam, n)
                    for lam in tableaux.partitions_of(N, max_rows=n)}
            for q in (0.7, 1.0, 1.5):
                chain = spectra.OpenChain(n, N, q)
                found = [spectra.diagonalize(chain).clusters]
                if n == 2:
                    found.append(spectra.classify_sectors(chain).clusters)
                for clusters in found:
                    held = {}
                    for c in clusters:
                        held[c.shape] = held.get(c.shape, 0) + c.multiplicity
                    assert held == want, (n, N, q)


def test_rung_check_flags_ladder_values_off_the_block(monkeypatch):
    # one highest weight value of block 2 is moved by 1e-6 (its vector is
    # not): from rung 2 on, the sorted open-ladder values miss the solved
    # eigenvalues of block m by 1e-6, past EIG_RESIDUAL_TOL * max(1, |value|)
    N, q = 6, 1.5
    real = spectra._hw_eigenpairs

    def moved(sites, e):
        vals, vecs, margin = real(sites, e)
        if len(sites[0]) == comb(N, 2):     # blocks 0..3 differ in size
            vals = vals.copy()
            vals[0] += 1e-6
        return vals, vecs, margin

    monkeypatch.setattr(spectra, "_hw_eigenpairs", moved)
    rep = spectra.classify_sectors(spectra.OpenChain(2, N, q))
    assert rep.m_observed == rep.m_predicted
    assert [w.split(":")[0] for w in rep.warnings if w.startswith("rung ")] == ["rung 2", "rung 3"]
    assert rep.rung_residual == pytest.approx(1e-6, rel=1e-6)
    assert rep.ok is False
    assert spectra.verify_decomposition(2, N, q).ok is False


def test_nan_ladder_residual_fails_the_gate():
    # q = 1e100 overflows the sector-0 kappa check to NaN, which no
    # comparison with HW_TOL can pass
    with np.errstate(all="ignore"):
        rep = spectra.classify_sectors(spectra.OpenChain(2, 3, 1e100))
    assert np.isnan(rep.sectors[0][0].kappa_residual)
    assert "sector 0 ladder residuals above 1e-08: kappa_residual nan" in rep.warnings
    assert rep.ok is False


def _runs_loop(values, tol):
    runs = []
    for i, v in enumerate(values):
        if runs and v - values[i - 1] <= tol:
            runs[-1] = (runs[-1][0], i + 1)
        else:
            runs.append((i, i + 1))
    return runs


def test_runs_match_a_plain_loop():
    # dyadic steps make every gap exact: ties (0), gaps of exactly tol (a
    # neighbour inside the run) and gaps just above it (a new run)
    tol = 0.25
    rng = np.random.default_rng(7)
    assert spectra._runs(np.array([]), tol) == []
    for size in [1, 2, 3, 10, 40]:
        for _ in range(25):
            steps = rng.choice([0.0, 0.125, tol, tol + 2.0 ** -20, 1.0], size=size)
            values = 3.5 + np.cumsum(steps)
            assert spectra._runs(values, tol) == _runs_loop(values.tolist(), tol)
    assert spectra._runs(np.array([0.0, 0.25, 0.5, 1.0, 1.0]), tol) == [(0, 3), (3, 5)]


@pytest.mark.parametrize("q", [0.3, 0.7, 1.0, 1.5, 2.0, 3.0])
def test_sector_pass_matches_the_pairwise_scans(q):
    for N in range(1, 11):
        rep = spectra.classify_sectors(spectra.OpenChain(2, N, q))
        assert rep.warnings == sector_warnings_pairwise(rep.sectors), N
        assert None not in [c.sector for c in rep.clusters], N


def test_symmetry_residual_values():
    assert spectra.symmetry_residual(2, 3, 1.3) < 1e-11
    assert spectra.symmetry_residual(2, 2, 0.7) < 1e-12
    assert spectra.symmetry_residual(3, 2, 2.0) < 1e-12
    assert spectra.symmetry_residual(2, 3, 1.0) < 1e-12   # classical limit


def test_symmetry_residual_matches_per_word_sweep():
    for q in (0.7, 1.0, 1.5, 2.0):
        for n, N in [(2, N) for N in range(1, 8)] + [(3, N) for N in range(1, 6)]:
            fast = spectra.symmetry_residual(n, N, q)
            assert abs(fast - symmetry_residual_per_word(n, N, q)) <= 1e-12, (n, N, q)


def test_symmetry_residual_sees_a_perturbed_block(monkeypatch):
    # one off-diagonal entry of the (2, 2) block of H is changed: H no longer
    # commutes with E_1 and F_1, and the sweep must say so
    real = spectra._dense

    def perturbed(block):
        m = real(block)
        if len(m) == 6:             # block (2, 2), the only one 6 words wide at N = 4
            m[0, 1] += 0.1
        return m

    monkeypatch.setattr(spectra, "_dense", perturbed)
    assert spectra.symmetry_residual(2, 4, 1.3) > 1e-3


@pytest.mark.parametrize("name", ["apply_E", "apply_F", "apply_qH", "apply_qEps"])
def test_symmetry_residual_sweeps_every_operator_kind(monkeypatch, name):
    # each operator, followed by a weight that varies within a weight block,
    # no longer commutes with H; the sweep must build it to see that
    real = spectra._coproduct_maps

    def weighted(chain, kind, j, words, bounds, pairs):
        maps = real(chain, kind, j, words, bounds, pairs)
        if kind == name.removeprefix("apply_"):
            targets = [words[bounds[t]:bounds[t + 1]] for _, t in pairs]
            maps = [m * np.array([float(w[0]) for w in target]).reshape(-1, 1)
                    for m, target in zip(maps, targets)]
        return maps

    monkeypatch.setattr(spectra, "_coproduct_maps", weighted)
    assert spectra.symmetry_residual(2, 4, 1.3) > 1e-3


def test_symmetry_residual_guard(monkeypatch):
    # the sweep builds the same weight blocks as diagonalize, under its guard
    monkeypatch.setenv("BRAIDLAB_MAX_DIM", "10")
    with pytest.raises(SizeGuardError):
        spectra.symmetry_residual(2, 6, 1.3)


def test_diagonalize_guard():
    # the largest weight block of n = 4, N = 10 is 10!/(3!3!2!2!) = 25200
    with pytest.raises(SizeGuardError):
        spectra.diagonalize(spectra.OpenChain(4, 10, Q))
    # allowed past the dense cap on n^N through the weight blocks: n = 2,
    # N = 13 (largest block 1716) with the sector sweep, and n = 3, N = 9
    # (largest block 1680) values only
    spectra._check_guard(spectra.OpenChain(2, 13, Q), "sectors")
    spectra._dominant_blocks(spectra.OpenChain(2, 13, Q))
    spectra.diagonalize(spectra.OpenChain(3, 9, Q))


def _block_sizes(n, N):
    return [factorial(N) // prod(factorial(m) for m in content)
            for content in qalgebra.dicke_labels(n, N)]


def test_guard_is_the_largest_solved_block(monkeypatch):
    # one rule for every n: refused when the largest weight block passes the
    # limit, and where blocks are held at once also when their entries, sum
    # d^2 over every block, pass HELD_BLOCKS_MULTIPLE times limit^2; every n = 2
    # size admitted by the former middle-block rule (binomial(N, N//2) <=
    # limit) stays admitted, every block held included
    for limit in (5, 20, 100, 4096):
        monkeypatch.setenv("BRAIDLAB_MAX_DIM", str(limit))
        for n in range(1, 6):
            for N in range(1, 16):
                sizes = _block_sizes(n, N)
                too_wide = max(sizes) > limit
                bound = spectra.HELD_BLOCKS_MULTIPLE * limit ** 2
                too_many = sum(d * d for d in sizes) > bound
                for held, refused in ((None, too_wide), ("all", too_wide or too_many)):
                    try:
                        spectra._check_guard(spectra.OpenChain(n, N, Q), held)
                    except SizeGuardError:
                        assert refused, (limit, n, N, held)
                    else:
                        assert not refused, (limit, n, N, held)
                if n == 2 and comb(N, N // 2) <= limit:
                    assert not too_wide and not too_many, (limit, N)


def test_guard_env_override(monkeypatch):
    # n = 3, N = 5: largest block 5!/(2!2!1!) = 30, all blocks hold
    # sum d^2 = 4653 entries, between 3 * 30^2 and 3 * 40^2; the 5 dominant
    # blocks that diagonalize solves hold 1426
    monkeypatch.setenv("BRAIDLAB_MAX_DIM", "29")
    with pytest.raises(SizeGuardError):
        spectra.diagonalize(spectra.OpenChain(3, 5, Q))
    monkeypatch.setenv("BRAIDLAB_MAX_DIM", "30")
    spectra.diagonalize(spectra.OpenChain(3, 5, Q))
    dominant_eigenpairs(spectra.OpenChain(3, 5, Q))
    with pytest.raises(SizeGuardError, match="4653 entries"):
        spectra.symmetry_residual(3, 5, Q)
    monkeypatch.setenv("BRAIDLAB_MAX_DIM", "40")
    spectra.symmetry_residual(3, 5, Q)


def test_guard_counts_the_sector_sweep(monkeypatch):
    # n = 2, N = 8 at limit 80: the widest block, 70 wide, passes the
    # dense guard, but the sweep at rung 4 holds the two E_1 maps, the E_1
    # image of the ladders, R and the copy of E_1 that the QR factors
    # (70 x 56 each), the open-ladder array and Q (70 x 70 each), 29400
    # entries, and all the way the words and H's site arrays (8 * 2^8
    # each) and the E_1 terms (3 * 8 * 2^7): 36568 in all, past
    # 3 * 80^2 = 19200, refused before anything is built or solved.  At the
    # default limit N = 14 is refused the same way (75,891,544 entries) and
    # N = 13 admitted (test_diagonalize_guard)
    def unsolved(*args):
        raise AssertionError("a block was built or solved")

    for name in ("weight_blocks", "_seminormal_spectra", "_hw_eigenpairs"):
        monkeypatch.setattr(spectra, name, unsolved)
    monkeypatch.setenv("BRAIDLAB_MAX_DIM", "80")
    spectra._check_guard(spectra.OpenChain(2, 8, Q), None)
    with pytest.raises(SizeGuardError, match="36568 entries"):
        spectra.verify_decomposition(2, 8, Q)
    monkeypatch.delenv("BRAIDLAB_MAX_DIM")
    with pytest.raises(SizeGuardError, match="75891544 entries"):
        spectra.verify_decomposition(2, 14, Q)
    monkeypatch.undo()
    monkeypatch.setenv("BRAIDLAB_MAX_DIM", "110")       # 3 * 110^2 = 36300
    with pytest.raises(SizeGuardError, match="36568 entries"):
        spectra.verify_decomposition(2, 8, Q)
    monkeypatch.setenv("BRAIDLAB_MAX_DIM", "111")       # 3 * 111^2 = 36963
    assert spectra.verify_decomposition(2, 8, Q).ok


@pytest.mark.parametrize("limit, N", [(378, 10), (681, 11)])
def test_sector_sweep_peak_stays_within_the_guard(monkeypatch, limit, N):
    # at each limit N is the longest n = 2 chain the "sectors" count admits,
    # and the memory that classify_sectors traces at its peak stays within
    # the held-entries bound, 3 * limit^2 float64 entries
    monkeypatch.setenv("BRAIDLAB_MAX_DIM", str(limit))
    spectra._check_guard(spectra.OpenChain(2, N, Q), "sectors")
    with pytest.raises(SizeGuardError):
        spectra._check_guard(spectra.OpenChain(2, N + 1, Q), "sectors")
    tracemalloc.start()
    try:
        assert spectra.classify_sectors(spectra.OpenChain(2, N, Q)).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= spectra.HELD_BLOCKS_MULTIPLE * limit ** 2 * 8


def test_guard_refuses_holding_every_block_past_memory():
    # n = 11, N = 6: the largest block is 6! = 720, but all 8008 blocks hold
    # 627,433,521 entries (about 4,787 MiB): refused where they are held at
    # once, while diagonalize solves the 11 dominant blocks, whose
    # eigenvectors hold 708,062 entries
    chain = spectra.OpenChain(11, 6, Q)
    with pytest.raises(SizeGuardError, match="4787 MiB"):
        spectra.symmetry_residual(11, 6, Q)
    deco = spectra.diagonalize(chain)
    assert deco.total_dimension() == 11 ** 6
    assert sum(len(irrep.values) * irrep.multiplicity for irrep in deco.irreps.values()) == 11 ** 6
    solved = dominant_eigenpairs(chain)
    assert sum(len(values) * spectra._orbit_size(11, content)
               for content, (_, values, _) in solved.items()) == 11 ** 6
    assert sum(vecs.size for _, _, vecs in solved.values()) == 708062


def test_deterministic_output():
    a = spectra.diagonalize(spectra.OpenChain(2, 4, Q))
    b = spectra.diagonalize(spectra.OpenChain(2, 4, Q))
    assert a.eigenvalues == b.eigenvalues
    a, b = (dominant_eigenpairs(spectra.OpenChain(2, 4, Q)),
            dominant_eigenpairs(spectra.OpenChain(2, 4, Q)))
    for content in a:
        assert np.array_equal(a[content][1], b[content][1])
        assert np.array_equal(a[content][2], b[content][2])


def test_open_chain_validation():
    with pytest.raises(ValidationError):
        spectra.OpenChain(2, 3, 0.0)
    with pytest.raises(ValidationError):
        spectra.OpenChain(0, 3, 1.3)


QS_SEMINORMAL = (0.7, 1.0, 1.5, 2.0)
SIZES_REFERENCE = ([(n, N) for n in range(1, 5) for N in range(1, 7)]
                   + [(2, N) for N in range(7, 11)])
SIZES_SEMINORMAL = [(2, N) for N in range(1, 9)] + [(3, N) for N in range(1, 7)] + [
    (4, N) for N in range(1, 6)]


def _merged(deco):
    """(values, multiplicities) of deco's clusters with neighbours within
    deco.tol merged, each merged run valued at the mean of its values: the
    grouping of reference_clusters, which does not tell the irreps apart."""
    values = np.array(deco.eigenvalues)
    runs = spectra._runs(values, deco.tol)
    return ([float(values[lo:hi].mean()) for lo, hi in runs],
            [sum(deco.multiplicities[lo:hi]) for lo, hi in runs])


def test_seminormal_spectra_times_ssyt_dim_are_the_spectrum():
    # q-Schur-Weyl duality: spec H = the union over lambda of ssyt_dim(lambda, n)
    # copies of spec rho_lambda(H), here against every eigenpair-checked block
    for n, N in SIZES_SEMINORMAL:
        for q in QS_SEMINORMAL:
            chain = spectra.OpenChain(n, N, q)
            values, multiplicities, _ = reference_clusters(eigen_blocks(chain))
            want = np.repeat(values, multiplicities)
            got = np.sort(np.concatenate([
                np.repeat(np.linalg.eigvalsh(spectra.sector_hamiltonian(lam, q)),
                          tableaux.ssyt_dim(lam, n))
                for lam in tableaux.partitions_of(N, max_rows=n)]))
            assert np.abs(got - want).max() < 1e-12, (n, N, q)


def test_sector_hamiltonian_matches_the_loop_over_tableaux():
    # and each slice of the list builder, every shape of N ranked at once,
    # is the one-shape call bit for bit
    for N in range(1, 8):
        shapes = tableaux.partitions_of(N)
        for q in QS_SEMINORMAL:
            forms = spectra._seminormal_forms(shapes, q)
            for lam, form in zip(shapes, forms, strict=True):
                words, want = seminormal_loop(lam, q)
                assert list(map(tuple, tableaux.standard_tableaux(lam).tolist())) == words
                got = spectra.sector_hamiltonian(lam, q)
                assert np.abs(got - want).max() <= 1e-14 * max(1.0, np.abs(want).max()), (lam, q)
                assert np.array_equal(form, got), (lam, q)


@pytest.mark.parametrize("q", [1 + 2e-9, 1 - 1e-8, 1 + 1e-7, 0.5, 1e-40, 1e40])
def test_seminormal_entries_match_a_60_digit_evaluation(q):
    # the direct (q^d - q^-d)/(q - q^-1) loses eps/|q - 1| near q = 1, and
    # q^(d-1) overflows at q = 1e40 long before the entries do; entries
    # below 1e-300 may underflow
    getcontext().prec = 60
    Qd = Decimal(q)
    for d in [k for k in range(-9, 10) if k]:
        bracket_d = (Qd ** d - Qd ** -d) / (Qd - 1 / Qd)
        want = (Qd ** (d - 1) / bracket_d,
                (1 - bracket_d ** -2).sqrt() / Qd if abs(d) > 1 else Decimal(0))
        got = spectra._seminormal_entries(d, log(q))
        for g, w in zip(got, want):
            assert abs(Decimal(g) - w) <= Decimal(1e-13) * abs(w) + Decimal(1e-300), (d, g, w)


@pytest.mark.parametrize("q", [1 + 1e-8, 1 - 1e-8, 1 + 1e-7, 1 - 1e-7])
def test_values_only_path_next_to_q_one_matches_the_vectors_path(q):
    # the reference is one eigh per weight block (oracles.eigen_blocks)
    for n, N in [(3, 6), (4, 5)]:
        chain = spectra.OpenChain(n, N, q)
        fast = spectra.diagonalize(chain)
        values, multiplicities, _ = reference_clusters(eigen_blocks(chain))
        fast_values, fast_multiplicities = _merged(fast)
        assert fast_multiplicities == multiplicities, (n, N)
        assert np.abs(np.subtract(fast_values, values)).max() < 1e-12, (n, N)


def test_sector_hamiltonian_stays_finite_at_large_and_small_q():
    # (8, 1) has d = -8, where q^8 = 1e320 is past the float range
    for q in (1e40, 1e-40):
        for lam in [(8, 1), (4, 3, 2)]:
            m = spectra.sector_hamiltonian(lam, q)
            assert np.isfinite(m).all() and np.array_equal(m, m.T), (lam, q)
    assert spectra.verify_decomposition(3, 6, 1e40).ok


def test_sector_hamiltonian_guard(monkeypatch):
    monkeypatch.setenv("BRAIDLAB_MAX_DIM", "15")
    with pytest.raises(SizeGuardError, match="seminormal"):
        spectra.sector_hamiltonian((3, 2, 1), Q)     # 16 tableaux
    assert spectra.sector_hamiltonian((3, 3), Q).shape == (5, 5)


@pytest.mark.parametrize("q", QS_SEMINORMAL)
def test_values_only_clusters_match_the_vectors_path(q):
    # the reference is one eigh per weight block (oracles.eigen_blocks)
    for n, N in SIZES_REFERENCE:
        chain = spectra.OpenChain(n, N, q)
        fast = spectra.diagonalize(chain)
        values, multiplicities, tol = reference_clusters(eigen_blocks(chain))
        fast_values, fast_multiplicities = _merged(fast)
        assert fast_multiplicities == multiplicities, (n, N)
        assert np.abs(np.subtract(fast_values, values)).max() < 1e-12, (n, N)
        assert fast.tol == pytest.approx(tol, rel=1e-12), (n, N)
        assert all(c.shape in fast.irreps for c in fast.clusters)
        shapes = tableaux.partitions_of(N, max_rows=n)
        assert list(fast.irreps) == shapes, (n, N)
        for lam, irrep in fast.irreps.items():
            assert len(irrep.values) == tableaux.syt_dim(lam)
            assert irrep.multiplicity == tableaux.ssyt_dim(lam, n)
            assert irrep.residual <= spectra.EIG_RESIDUAL_TOL * max(1.0, N - 1)


@pytest.mark.parametrize("q", QS_SEMINORMAL)
def test_vectors_path_clusters_match_the_per_content_reference(q):
    # one eigh per dominant block or parity half, each counted for its S_n
    # orbit, against one eigh per weight block (oracles.eigen_blocks); each
    # run of a solved block's columns spans the reference's eigenspace
    for n, N in SIZES_REFERENCE:
        chain = spectra.OpenChain(n, N, q)
        solved, reference = dominant_eigenpairs(chain), eigen_blocks(chain)
        values, multiplicities, tol = reference_clusters(reference)
        counted = np.sort(np.concatenate([np.repeat(vals, spectra._orbit_size(n, content))
                                          for content, (_, vals, _) in solved.items()]))
        assert len(counted) == sum(multiplicities), (n, N)
        assert np.abs(counted - np.repeat(values, multiplicities)).max() < 1e-12, (n, N)
        for content, (words, vals, vectors) in solved.items():
            want_words, want_values, want = reference[content]
            assert np.array_equal(words, want_words), (n, N, content)
            for lo, hi in spectra._runs(vals, tol):
                vecs = vectors[:, lo:hi]
                w = want[:, np.abs(want_values - vals[lo:hi].mean()) <= tol]
                assert np.abs(vecs @ vecs.T - w @ w.T).max() < 1e-9, (n, N, content)


def test_values_only_path_solves_one_block_per_dominant_content(monkeypatch):
    # no eigh, and one eigvalsh per seminormal matrix (f^lambda wide) for each
    # partition lambda of N with at most n rows, plus per dominant block mu
    # one of the whole block, or one per non-empty w0 parity half where a
    # permutation of mu reads the same reversed (|pairs| + |fixed|, |pairs|)
    real = np.linalg.eigvalsh
    widths = []
    monkeypatch.setattr(spectra.np.linalg, "eigh", None)
    monkeypatch.setattr(spectra.np.linalg, "eigvalsh", lambda m: widths.append(len(m)) or real(m))
    spectra.diagonalize(spectra.OpenChain(3, 6, Q))
    shapes = tableaux.partitions_of(6, max_rows=3)
    blocks = {(6,): [1], (5, 1): [6], (4, 2): [15], (4, 1, 1): [18, 12], (3, 3): [14, 6],
              (3, 2, 1): [60], (2, 2, 2): [51, 39]}
    assert list(blocks) == shapes
    assert sorted(widths) == sorted([tableaux.syt_dim(lam) for lam in shapes]
                                    + [w for ws in blocks.values() for w in ws])


def _w0_counts(n, N, content):
    """(|pairs|, |fixed|) of w0 on the words of a content, by brute force."""
    words = set(multiset_permutations([a for a, m in enumerate(content, 1) for _ in range(m)]))
    fixed = sum(tuple(n + 1 - a for a in reversed(w)) == w for w in words)
    return (len(words) - fixed) // 2, fixed


def test_w0_parity_halves_have_the_spectrum_of_the_whole_block(monkeypatch):
    real = np.linalg.eigvalsh
    for n in range(1, 5):
        for N in range(1, 8):
            for content in qalgebra.dicke_labels(n, N):
                if content != content[::-1]:
                    continue
                pairs, fixed = _w0_counts(n, N, content)
                basis = spectra.weight_basis(n, N, content)
                w0 = spectra._w0_positions(n, N, basis, [0, len(basis)], [n])
                for q in QS_SEMINORMAL:
                    block = spectra._block_sites(spectra.OpenChain(n, N, q), basis)
                    want = real(spectra._dense(block))
                    widths = []
                    monkeypatch.setattr(spectra.np.linalg, "eigvalsh",
                                        lambda m: widths.append(len(m)) or real(m))
                    got = spectra._solve_block(block, w0, content)
                    monkeypatch.undo()
                    assert np.abs(got - want).max() <= 1e-12, (content, q)
                    assert widths == [w for w in (pairs + fixed, pairs) if w], (content, q)


def _block_222():
    """The words of block (2, 2, 2) at n = 3, N = 6 (the only one 90 words
    wide), each one's w0 image, and the positions that w0 swaps (I < J) and
    fixes."""
    basis = spectra.weight_basis(3, 6, (2, 2, 2))
    w0 = spectra._w0_positions(3, 6, basis, [0, len(basis)], [3])
    return (basis, w0, np.flatnonzero(w0 > np.arange(len(w0))),
            np.flatnonzero(w0 == np.arange(len(w0))))


def _perturb_block_222(monkeypatch, change):
    """Hook change(diag, sites, off) -> site arrays onto block (2, 2, 2) of
    every _sites_by_block call."""
    real = spectra._sites_by_block

    def perturbed(chain, words, bounds):
        return [change(*block) if len(block[0]) == 90 else block
                for block in real(chain, words, bounds)]

    monkeypatch.setattr(spectra, "_sites_by_block", perturbed)


def _toggle_link(sites, i, j):
    """Site arrays with the swap entries (i, j) and (j, i) dropped where
    they occur, or added as a site of their own where they do not."""
    hit = [((rows == i) & (cols == j)) | ((rows == j) & (cols == i)) for rows, cols in sites]
    if any(h.any() for h in hit):
        return [(rows[~h], cols[~h]) for (rows, cols), h in zip(sites, hit)]
    return sites + [(np.array([i, j]), np.array([j, i]))]


def _perturbed_222(diag, sites, off, where):
    """Site arrays of block (2, 2, 2) that w0 no longer maps onto
    themselves: the diagonal of the first pair word i plus 1e-6 ("II"), or
    the swap entries linking i to the partner of the second pair word
    ("IJ") or to the first fixed word ("IF") toggled (_toggle_link) while
    the entries linking their w0 images stay."""
    _, w0, pairs, fixed = _block_222()
    i = pairs[0]
    if where == "II":
        return diag + 1e-6 * (np.arange(len(diag)) == i), sites, off
    return diag, _toggle_link(sites, i, w0[pairs[1]] if where == "IJ" else fixed[0]), off


@pytest.mark.parametrize("where", ["II", "IJ", "IF"])
def test_values_only_path_checks_the_w0_symmetry_it_splits_by(monkeypatch, where):
    # a symmetric perturbation of block (2, 2, 2) that w0 does not share
    # couples the two halves, seen by A_II - A_JJ (a pair word's diagonal),
    # A_IJ - A_JI (a pair word and another's partner) or A_IF - A_JF (a pair
    # word and a fixed word) (_perturbed_222)
    _perturb_block_222(monkeypatch, lambda *block: _perturbed_222(*block, where))
    with pytest.raises(ValidationError, match=r"weight block \(2, 2, 2\): w0 symmetry residual"):
        spectra.diagonalize(spectra.OpenChain(3, 6, Q))


def test_values_only_check_catches_a_perturbed_block(monkeypatch):
    # H + 1e-6 on one dominant block shifts each of its values by 1e-6, past
    # EIG_RESIDUAL_TOL * max(1, |value|) against the seminormal spectra
    _perturb_block_222(monkeypatch, lambda diag, sites, off: (diag + 1e-6, sites, off))
    with pytest.raises(ValidationError, match=r"weight block \(2, 2, 2\): Kostka identity"):
        spectra.diagonalize(spectra.OpenChain(3, 6, Q))


@pytest.mark.parametrize("n, N", [(2, 8), (2, 9), (3, 6), (4, 5), (4, 6)])
def test_values_only_path_builds_no_mirrored_block_dense(monkeypatch, n, N):
    # a self-mirrored block is split by w0 from its site arrays; only the
    # blocks w0 does not map onto themselves are scattered dense, once each
    real, widths = spectra._dense, []
    monkeypatch.setattr(spectra, "_dense", lambda block: widths.append(len(block[0])) or real(block))
    spectra.diagonalize(spectra.OpenChain(n, N, Q))
    shapes = tableaux.partitions_of(N, max_rows=n)
    assert widths == [tableaux.multinomial(mu) for mu in shapes if spectra._palindrome(mu) is None]


@pytest.mark.parametrize("n, sizes", [(2, range(1, 13)), (3, range(1, 8)), (4, range(1, 7)),
                                      (5, [5])])
def test_parity_halves_equal_the_dense_split(monkeypatch, n, sizes):
    # the halves scattered from the site arrays equal, bit for bit, the
    # halves split from the dense block on every self-mirrored dominant block
    real, split = spectra._parity_halves, []

    def checked(block, w0, mu):
        got, want = real(block, w0, mu), parity_halves_dense(block, w0, mu)
        assert len(got) == len(want), mu
        for a, b in zip(got, want):
            assert a.shape == b.shape and np.array_equal(a, b), mu
        split.append(mu)
        return got

    monkeypatch.setattr(spectra, "_parity_halves", checked)
    for N in sizes:
        shapes = tableaux.partitions_of(N, max_rows=n)
        for q in (0.3, 0.7, 1.0, 1.37, 3.0):
            split.clear()
            spectra._dominant_blocks(spectra.OpenChain(n, N, q))
            assert split == [mu for mu in shapes if spectra._palindrome(mu) is not None], (N, q)


@pytest.mark.parametrize("where", ["II", "IJ", "IF"])
def test_parity_halves_refuse_what_the_dense_split_refuses(where):
    # the w0 check on the site arrays raises the dense check's error, with
    # the same residual: 1e-6 on a pair word's diagonal, |off| for a
    # missing mirror entry (_perturbed_222); a shift of every diagonal entry
    # by 1e-6 passes both, with equal halves
    basis, w0, _, _ = _block_222()
    diag, sites, off = spectra._block_sites(spectra.OpenChain(3, 6, Q), basis)
    block = _perturbed_222(diag, sites, off, where)
    errors = []
    for split in (spectra._parity_halves, parity_halves_dense):
        with pytest.raises(ValidationError) as info:
            split(block, w0, (2, 2, 2))
        errors.append(str(info.value))
    assert errors[0] == errors[1]
    shifted = (diag + 1e-6, sites, off)
    for a, b in zip(spectra._parity_halves(shifted, w0, (2, 2, 2)),
                    parity_halves_dense(shifted, w0, (2, 2, 2))):
        assert np.array_equal(a, b)


def _largest_admitted(limit, mirrored):
    """Over n <= 6, N <= 14, the (n, N) whose largest weight block, the most
    even partition of N into n parts, is the widest one at most limit among
    those that w0 maps (mirrored) or does not map onto themselves."""
    found = []
    for n in range(2, 7):
        for N in range(2, 15):
            base, extra = divmod(N, min(n, N))
            mu = (base + 1,) * extra + (base,) * (min(n, N) - extra)
            if (spectra._palindrome(mu) is not None) == mirrored:
                found.append((tableaux.multinomial(mu), n, N))
    return max(f for f in found if f[0] <= limit)[1:]


@pytest.mark.parametrize("limit, mirrored, size", [(630, True, (3, 8)), (630, False, (4, 7)),
                                                   (1716, True, (3, 9)),
                                                   (1716, False, (2, 13))])
def test_diagonalize_peak_stays_within_the_guard(monkeypatch, limit, mirrored, size):
    # at each limit, the chain with the widest largest block the dense guard
    # admits among those whose largest block w0 splits, and among those
    # whose largest block is solved dense (_largest_admitted):
    # the memory that the values-only diagonalize traces at its peak stays
    # within the held-entries bound, 3 * limit^2 float64 entries
    assert _largest_admitted(limit, mirrored) == size
    monkeypatch.setenv("BRAIDLAB_MAX_DIM", str(limit))
    chain = spectra.OpenChain(*size, Q)
    tracemalloc.start()
    try:
        assert spectra.diagonalize(chain).total_dimension() == size[0] ** size[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= spectra.HELD_BLOCKS_MULTIPLE * limit ** 2 * 8


def test_classify_sectors_solves_the_vectors_it_needs(monkeypatch):
    # classify_sectors takes the chain and solves the highest weight vectors
    # of blocks 0..N/2 itself, one QR of the E_1 map into each (block 0 has
    # no block below it); it is defined for n = 2 only
    real = spectra._hw_eigenpairs
    asked = []
    monkeypatch.setattr(spectra, "_hw_eigenpairs",
                        lambda sites, e: asked.append(e.shape) or real(sites, e))
    assert spectra.classify_sectors(spectra.OpenChain(2, 4, Q)).ok
    assert asked == [(1, 0), (4, 1), (6, 4)]
    with pytest.raises(ValidationError, match="n=2"):
        spectra.classify_sectors(spectra.OpenChain(3, 4, Q))


def test_sector_sweep_solves_no_weight_block(monkeypatch):
    # classify_sectors builds no dense weight block and solves none: every
    # eigh and eigvalsh is at most max f^lambda wide (a seminormal form or
    # H on a block's highest weight space), and its clustering tolerance is
    # diagonalize's, from the same seminormal spectra
    def solved(*args):
        raise AssertionError("a dense weight block was built")

    for N in range(1, 11):
        chain = spectra.OpenChain(2, N, Q)
        tol = spectra.diagonalize(chain).tol
        widths = []
        with monkeypatch.context() as m:
            for name in ("_dense", "_dominant_blocks"):
                m.setattr(spectra, name, solved)
            for name in ("eigh", "eigvalsh"):
                real = getattr(np.linalg, name)
                m.setattr(spectra.np.linalg, name,
                          lambda a, real=real: widths.append(len(a)) or real(a))
            rep = spectra.classify_sectors(chain)
        assert rep.ok and rep.tol == tol, N
        assert widths and max(widths) <= max(map(tableaux.syt_dim,
                                                 tableaux.partitions_of(N, max_rows=2))), N


def test_verify_decomposition_reports_each_shape():
    report = spectra.verify_decomposition(3, 6, Q)
    assert report.ok and report.sector_report is None
    assert list(report.irreps) == tableaux.partitions_of(6, max_rows=3)
    assert sum(len(r.values) * r.multiplicity for r in report.irreps.values()) == 3 ** 6
    assert max(r.residual for r in report.irreps.values()) <= 1e-9
    assert spectra.verify_decomposition(2, 6, Q).irreps == {}
