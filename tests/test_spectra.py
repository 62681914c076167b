from math import comb

import numpy as np
import pytest

from braidlab import qalgebra, spectra
from braidlab.errors import SizeGuardError, ValidationError
from braidlab.hecke import bracket
from braidlab.states import TensorState

from oracles import (annotate_pairwise, block_map, dense_hamiltonian, hamiltonian_apply,
                     multiset_permutations, sector_warnings_pairwise, state_to_dense,
                     symmetry_residual_per_word)

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
    deco = spectra.diagonalize(spectra.OpenChain(2, 4, Q))
    chain = spectra.OpenChain(2, 4, Q)
    for cluster in deco.clusters:
        for content, words, vecs in cluster.blocks:
            gram = vecs.T @ vecs
            assert np.abs(gram - np.eye(gram.shape[0])).max() < 1e-12
            for col in range(vecs.shape[1]):
                st = TensorState(2, 4, {tuple(w): float(c)
                                        for w, c in zip(words.tolist(), vecs[:, col])
                                        if c != 0.0})
                resid = hamiltonian_apply(chain, st).sub(
                    st.scale(cluster.value)).norm()
                assert resid < 1e-10


def test_eigenvector_first_component_positive():
    # blocks wider than RESIDUAL_CHUNK (n=2, N=10) are oriented chunk by chunk
    for n, N in [(2, 10), (3, 5), (4, 4)]:
        deco = spectra.diagonalize(spectra.OpenChain(n, N, Q))
        for cluster in deco.clusters:
            for _, _, vecs in cluster.blocks:
                for v in vecs.T:
                    assert v[np.flatnonzero(np.abs(v) > 1e-12)[0]] > 0, (n, N, cluster.value)


def test_eigenpair_check_covers_every_chunk(monkeypatch):
    # a corrupted eigenvector at column 200 lies past the first
    # RESIDUAL_CHUNK = 128 columns of the 252- and 210-wide N=10 blocks
    real_eigh = np.linalg.eigh

    def corrupt_eigh(m):
        vals, vecs = real_eigh(m)
        if vecs.shape[1] > 200:
            vecs[0, 200] += 1e-3
        return vals, vecs

    assert spectra.RESIDUAL_CHUNK <= 200
    monkeypatch.setattr(spectra.np.linalg, "eigh", corrupt_eigh)
    with pytest.raises(ValidationError, match="eigenpair residual"):
        spectra.diagonalize(spectra.OpenChain(2, 10, Q))


def test_one_eigh_per_mirror_pair(monkeypatch):
    # w0 pairs block mu with block reversed(mu); only the first is solved
    calls = []
    real_eigh = np.linalg.eigh

    def counting_eigh(m):
        calls.append(m.shape[0])
        return real_eigh(m)

    monkeypatch.setattr(spectra.np.linalg, "eigh", counting_eigh)
    for n, N, expected in [(2, 12, 7), (2, 13, 7)]:
        calls.clear()
        spectra.diagonalize(spectra.OpenChain(n, N, Q))
        assert len(calls) == expected, (n, N)
    calls.clear()
    spectra.diagonalize(spectra.OpenChain(3, 5, Q))
    contents = qalgebra.dicke_labels(3, 5)
    pairs = {frozenset((c, c[::-1])) for c in contents}
    assert len(calls) == len(pairs) < len(contents)


def _block_vectors(deco):
    """content -> (words, eigenvector columns of the whole block), the
    clusters' pieces joined in increasing eigenvalue order."""
    pieces = {}
    for cluster in deco.clusters:
        for content, words, vecs in cluster.blocks:
            pieces.setdefault(content, (words, []))[1].append(vecs)
    return {c: (words, np.hstack(vs)) for c, (words, vs) in pieces.items()}


def test_mirrored_blocks_are_w0_permutations_of_their_partners():
    for n, N in [(2, 12), (3, 6), (4, 5)]:
        for q in (0.3, 0.7, 1.5, 3.0):
            blocks = _block_vectors(spectra.diagonalize(spectra.OpenChain(n, N, q)))
            seen = set()
            for content in qalgebra.dicke_labels(n, N):
                mirrored = content[::-1] in seen    # a palindrome is not seen yet
                seen.add(content)
                if not mirrored:
                    continue
                words, vecs = blocks[content]
                partner_words, partner_vecs = blocks[content[::-1]]
                index = {tuple(w): i for i, w in enumerate(partner_words.tolist())}
                perm = [index[tuple(n + 1 - a for a in reversed(w))] for w in words.tolist()]
                moved = partner_vecs[perm]
                same = np.all(vecs == moved, axis=0) | np.all(vecs == -moved, axis=0)
                assert same.all(), (n, N, q, content)
                gram = vecs.T @ vecs
                assert np.abs(gram - np.eye(gram.shape[0])).max() < 1e-12, (n, N, q, content)


def test_mirrored_block_with_a_wrong_permutation_fails_the_check(monkeypatch):
    real = spectra._w0_positions
    monkeypatch.setattr(spectra, "_w0_positions", lambda *args: np.roll(real(*args), 1))
    with pytest.raises(ValidationError, match="eigenpair residual"):
        spectra.diagonalize(spectra.OpenChain(2, 6, Q))


def test_site_array_product_matches_block_matrix():
    # the H V that _orient_and_check forms, against the dense block
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
    deco = spectra.diagonalize(spectra.OpenChain(2, 5, Q))
    by_content = {}
    for cluster in deco.clusters:
        for content, words, vecs in cluster.blocks:
            by_content.setdefault(content, []).append(vecs)
    for content, pieces in by_content.items():
        stacked = np.hstack(pieces)
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
    deco = spectra.diagonalize(spectra.OpenChain(2, 3, Q))
    rep = spectra.classify_sectors(deco)
    assert rep.m_observed == {0: 1, 1: 2}
    assert all(lad.length == 3 - 2 * k + 1 for k, lads in rep.sectors.items()
               for lad in lads)
    by_sector = {c.value: c.sector for c in deco.clusters}
    assert by_sector[
        min(by_sector, key=lambda v: abs(v - 2.0))] == 0

    deco = spectra.diagonalize(spectra.OpenChain(2, 2, Q))
    rep = spectra.classify_sectors(deco)
    assert rep.m_observed == {0: 1, 1: 1}

    deco = spectra.diagonalize(spectra.OpenChain(2, 4, Q))
    rep = spectra.classify_sectors(deco)
    assert rep.m_observed == {0: 1, 1: 3, 2: 2}
    assert sum(spectra.sector_multiplicity(4, k) * spectra.sector_dimension(4, k)
               for k in range(3)) == 16


def test_sector_values_equal_block_spectrum_differences():
    # independent identification: the sector-k eigenvalues must be exactly
    # the eigenvalues of block k that are absent from block k-1
    for N, q in [(5, 1.3), (6, 0.8), (7, 1.5)]:
        deco = spectra.diagonalize(spectra.OpenChain(2, N, q))
        rep = spectra.classify_sectors(deco)
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
        deco = spectra.diagonalize(spectra.OpenChain(2, N, 1.0))
        rep = spectra.classify_sectors(deco)
        assert rep.ok and not rep.warnings


def test_sector_multiplicity_closed_form():
    from math import comb
    for N in range(2, 12):
        for k in range(N // 2 + 1):
            assert spectra.sector_multiplicity(N, k) == comb(N, k) - (comb(N, k - 1) if k else 0)


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
    for N, q in [(6, 1.3), (7, 2.0), (8, 1.5), (11, 0.7)]:
        deco = spectra.diagonalize(spectra.OpenChain(2, N, q))
        rep = spectra.classify_sectors(deco)
        for k, lads in rep.sectors.items():
            for lad in lads:
                assert lad.length == N - 2 * k + 1
                assert lad.hw_residual < 1e-13, (N, q, k)
                assert lad.termination_residual < 1e-8
                assert lad.kappa_residual < 1e-8
                assert lad.eigen_residual < 1e-9


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


def test_ladder_check_flags_a_non_highest_weight_vector(monkeypatch):
    # a basis word of block 1 is neither killed by F_1 nor an eigenvector,
    # so every residual of its ladder must be far from zero
    N, q = 6, 1.3

    def one_basis_column(h, f):
        if f.shape[0] != 1:          # only block 1 maps onto the one-word block 0
            return np.zeros(0), np.zeros((h.shape[0], 0))
        return np.array([1.0]), np.eye(h.shape[0])[:, :1]

    monkeypatch.setattr(spectra, "_highest_weight", one_basis_column)
    chain = spectra.OpenChain(2, N, q)
    rep = spectra.classify_sectors(spectra.diagonalize(chain))
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
        kappa = max(kappa, qalgebra.apply_F(up, 1, q).sub(b.scale(c)).norm() / b.norm())
        eigen = max(eigen, hamiltonian_apply(chain, b).sub(b).norm() / b.norm())
        b = up
    eigen = max(eigen, hamiltonian_apply(chain, b).sub(b).norm() / b.norm())
    term = qalgebra.apply_E(b, 1, q).norm() / b.norm()
    assert np.allclose(got, [hw, kappa, term, eigen], rtol=1e-12, atol=0.0)


def test_ladder_residuals_above_tolerance_fail_the_report():
    # at q = 0.3 the N = 12 ladders lose accuracy (kappa residual 6.0e-4 in
    # sector 3) although every sector count is right
    rep = spectra.classify_sectors(spectra.diagonalize(spectra.OpenChain(2, 12, 0.3)))
    assert rep.m_observed == rep.m_predicted
    assert max(lad.kappa_residual for lad in rep.sectors[3]) > 1e-4
    assert [w.split(" ladder")[0] for w in rep.warnings] == [
        "sector 1", "sector 2", "sector 3", "sector 4"]
    assert rep.ok is False


def test_cross_sector_degeneracy_warning(monkeypatch):
    # sector 1 is made to report the sector-0 eigenvalue N - 1 = 3 in place
    # of its lowest one: the clash is warned about, and _annotate labels the
    # shared cluster with sector 0 (the first match) and leaves the cluster
    # of the displaced value without a sector
    N, q = 4, 1.5
    clean = spectra.diagonalize(spectra.OpenChain(2, N, q))
    spectra.classify_sectors(clean)
    real = spectra._highest_weight
    displaced = []

    def clash(h, f):
        vals, vecs = real(h, f)
        if h.shape[0] == N:          # block 1, the only N-dimensional block
            displaced.append(vals[0])
            vals = np.concatenate([[N - 1.0], vals[1:]])
        return vals, vecs

    monkeypatch.setattr(spectra, "_highest_weight", clash)
    deco = spectra.diagonalize(spectra.OpenChain(2, N, q))
    rep = spectra.classify_sectors(deco)
    # the displaced value's eigenvector has eigenvalue displaced[0], not 3
    assert rep.warnings == [f"sector 1 ladder residuals above 1e-08: eigen_residual "
                            f"{abs(N - 1 - displaced[0]):.2e}",
                            "eigenvalue 3 of sector 1 degenerate with sector 0; "
                            "falling back to multiplicity-only matching"]
    assert rep.ok is False
    assert rep.m_observed == rep.m_predicted
    expected = [None if abs(c.value - displaced[0]) < 1e-9 else c.sector
                for c in clean.clusters]
    assert expected.count(None) == 1
    assert [c.sector for c in deco.clusters] == expected
    top = deco.clusters[-1]
    assert top.value == pytest.approx(N - 1) and top.sector == 0
    assert top.hw_residual == rep.sectors[0][0].hw_residual


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


def _labels_and_pairwise(deco, rep):
    """The cluster labels classify_sectors gave, then those of the pairwise
    oracle on the same clusters and ladders."""
    got = [(c.sector, c.hw_residual) for c in deco.clusters]
    for c in deco.clusters:
        c.sector = c.hw_residual = None
    annotate_pairwise(deco, rep.sectors)
    return got, [(c.sector, c.hw_residual) for c in deco.clusters]


@pytest.mark.parametrize("q", [0.3, 0.7, 1.0, 1.5, 2.0, 3.0])
def test_sector_pass_matches_the_pairwise_scans(q):
    for N in range(1, 11):
        deco = spectra.diagonalize(spectra.OpenChain(2, N, q))
        rep = spectra.classify_sectors(deco)
        assert rep.warnings == sector_warnings_pairwise(rep.sectors), N
        got, want = _labels_and_pairwise(deco, rep)
        assert got == want, N
        assert None not in [sector for sector, _ in got], N


@pytest.mark.parametrize("moved", [{1: 1}, {1: 2, 2: 1}], ids=["two-sectors", "three-sectors"])
def test_sector_clashes_match_the_pairwise_scans(monkeypatch, moved):
    # the lowest moved[k] values of sector k are set to the sector-0 value
    # N - 1, the last one 3e-9 relative above it (inside the relative
    # tolerance, outside an absolute 1e-8): one run holds two or three
    # sectors, and two ladders of sector 1 in the three-sector case
    N, q = 6, 1.5
    real = spectra._highest_weight
    sizes = {comb(N, k): k for k in moved}     # blocks 0..N/2 differ in size

    def clash(h, f):
        vals, vecs = real(h, f)
        k = sizes.get(h.shape[0])
        if k is not None:
            vals = vals.copy()
            vals[:moved[k]] = N - 1.0
            vals[moved[k] - 1] *= 1 + 3e-9
        return vals, vecs

    monkeypatch.setattr(spectra, "_highest_weight", clash)
    deco = spectra.diagonalize(spectra.OpenChain(2, N, q))
    rep = spectra.classify_sectors(deco)
    clashes = [w for w in rep.warnings if "degenerate" in w]
    assert len(clashes) == {1: 1, 2: 5}[len(moved)]
    assert rep.warnings == sector_warnings_pairwise(rep.sectors)
    got, want = _labels_and_pairwise(deco, rep)
    assert got == want
    assert got[-1] == (0, rep.sectors[0][0].hw_residual)
    assert [sector for sector, _ in got].count(None) == sum(moved.values())


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
    real = spectra.block_matrix

    def perturbed(chain, basis):
        m = real(chain, basis)
        if sorted(basis[0].tolist()) == [1, 1, 2, 2]:
            m[0, 1] += 0.1
        return m

    monkeypatch.setattr(spectra, "block_matrix", perturbed)
    assert spectra.symmetry_residual(2, 4, 1.3) > 1e-3


@pytest.mark.parametrize("name", ["apply_E", "apply_F", "apply_qH", "apply_qEps"])
def test_symmetry_residual_sweeps_every_operator_kind(monkeypatch, name):
    # each operator, followed by a weight that varies within a weight block,
    # no longer commutes with H; the sweep must build it to see that
    real = spectra.coproduct_block

    def weighted(chain, kind, j, source, target):
        m = real(chain, kind, j, source, target)
        if kind == name.removeprefix("apply_"):
            m = m * np.array([float(w[0]) for w in target]).reshape(-1, 1)
        return m

    monkeypatch.setattr(spectra, "coproduct_block", weighted)
    assert spectra.symmetry_residual(2, 4, 1.3) > 1e-3


def test_symmetry_residual_guard(monkeypatch):
    # the sweep builds the same weight blocks as diagonalize, under its guard
    monkeypatch.setenv("BRAIDLAB_MAX_DIM", "10")
    with pytest.raises(SizeGuardError):
        spectra.symmetry_residual(2, 6, 1.3)


def test_diagonalize_guard():
    with pytest.raises(SizeGuardError):
        spectra.diagonalize(spectra.OpenChain(4, 10, Q))
    # n = 2 is allowed past the dense cap through the weight-block path
    spectra.diagonalize(spectra.OpenChain(2, 13, Q))


def test_guard_env_override(monkeypatch):
    monkeypatch.setenv("BRAIDLAB_MAX_DIM", "100")
    with pytest.raises(SizeGuardError):
        spectra.diagonalize(spectra.OpenChain(3, 5, Q))
    monkeypatch.setenv("BRAIDLAB_MAX_DIM", "300")
    spectra.diagonalize(spectra.OpenChain(3, 5, Q))


def test_deterministic_output():
    a = spectra.diagonalize(spectra.OpenChain(2, 4, Q))
    b = spectra.diagonalize(spectra.OpenChain(2, 4, Q))
    assert a.eigenvalues == b.eigenvalues
    for ca, cb in zip(a.clusters, b.clusters):
        for (_, _, va), (_, _, vb) in zip(ca.blocks, cb.blocks):
            assert np.array_equal(va, vb)


def test_open_chain_validation():
    with pytest.raises(ValidationError):
        spectra.OpenChain(2, 3, 0.0)
    with pytest.raises(ValidationError):
        spectra.OpenChain(0, 3, 1.3)
