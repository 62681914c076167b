from math import factorial, isnan

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from braidlab import errors, hecke, qalgebra
from braidlab.errors import SizeGuardError, ValidationError
from braidlab.states import TensorState, all_words

from oracles import (dense_r, dense_site_operator, inversion_count,
                     multiset_permutations, state_to_dense)

QS = (0.7, 1.3, 2.0)


def test_r_matrix_action_rules():
    q = 1.3
    r = hecke.r_matrix(2, q)
    e12 = np.zeros(4); e12[1] = 1.0
    out = r @ e12
    expect = np.zeros(4); expect[2] = 1 / q        # q^{-1} x2 ox x1
    assert np.allclose(out, expect)
    e11 = np.zeros(4); e11[0] = 1.0
    assert np.allclose(r @ e11, e11)               # diagonal fixed
    assert np.allclose(hecke.r_matrix(2, 1.0),
                       [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])


def test_r_matrix_symmetric_and_hecke_constraint():
    for n in (2, 3):
        for q in QS:
            r = hecke.r_matrix(n, q)
            assert np.array_equal(r, r.T)
            resid = r @ r - (1 - q ** -2) * r - q ** -2 * np.eye(n * n)
            assert np.abs(resid).max() < 1e-14


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("q", [-2.5, -1.0, 0.7, 1.0, 1.37, 2.0])
def test_r_matrix_equals_the_elementary_matrix_oracle(n, q):
    # r_matrix reads its columns off the sparse generator step; the oracle
    # sums Kronecker products of elementary matrices, negative q included
    assert np.array_equal(hecke.r_matrix(n, q), dense_r(n, q))


def test_r_matrix_rejects_q_zero():
    with pytest.raises(ValidationError):
        hecke.r_matrix(2, 0.0)


@pytest.mark.parametrize("q", [float("nan"), float("inf"), float("-inf"), 0.0])
def test_operators_reject_q_zero_and_non_finite_q(q):
    # at q = inf apply_generator dropped the swapped word of (2, 1, 2), at
    # nan it gave NaN amplitudes, and the commutator check said 0.0, the
    # verdict that the sums commute
    v = TensorState.basis(2, (2, 1, 2))
    calls = [lambda: hecke.r_matrix(2, q), lambda: hecke.apply_generator(v, 1, q),
             lambda: hecke.shuffle_apply(v, 0.5, q), lambda: hecke.word_sum_operator(3, 1, q, v),
             lambda: hecke.conjecture_commutator_check(4, 2, q)]
    calls += [lambda op=op: op(v, 1, q) for op in (qalgebra.apply_E, qalgebra.apply_F,
                                                  qalgebra.apply_qH, qalgebra.apply_qEps)]
    for call in calls:
        with pytest.raises(ValidationError, match="q must be nonzero and finite"):
            call()


def test_commutator_check_propagates_a_nan_residual():
    # at q = 1e100 the images of the long words overflow and some commutator
    # is inf - inf; max(worst, nan) would have kept the finite worst
    assert isnan(hecke.conjecture_commutator_check(4, 2, 1e100))


def test_apply_generator_examples():
    q = 1.3
    out = hecke.apply_generator(TensorState.basis(2, (1, 2, 2)), 1, q)
    assert out.amps == {(2, 1, 2): pytest.approx(1 / q)}
    out = hecke.apply_generator(TensorState.basis(2, (1, 2, 2)), 2, q)
    assert out.amps == {(1, 2, 2): 1.0}
    out = hecke.apply_generator(TensorState.basis(2, (2, 1, 1)), 1, q)
    assert out.amps == {(1, 2, 1): pytest.approx(1 / q),
                        (2, 1, 1): pytest.approx(1 - q ** -2)}


def test_apply_generator_index_range():
    with pytest.raises(ValidationError):
        hecke.apply_generator(TensorState.basis(2, (1, 2)), 2, 1.3)


def test_apply_generator_matches_dense_oracle():
    rng = np.random.default_rng(11)
    n, N, q = 3, 3, 0.8
    dense_ops = {i: dense_site_operator(dense_r(n, q), n, N, i) for i in (1, 2)}
    for _ in range(20):
        word = tuple(rng.integers(1, n + 1, size=N))
        state = TensorState.basis(n, word)
        for i in (1, 2):
            sparse = state_to_dense(hecke.apply_generator(state, i, q))
            dense = dense_ops[i] @ state_to_dense(state)
            assert np.abs(sparse - dense).max() < 1e-14


def test_braid_and_far_commutation_relations():
    for n in (2, 3):
        for q in (0.7, 1.3):
            N = 4
            for word in all_words(n, N):
                v = TensorState.basis(n, word)
                for i in (1, 2):
                    lhs = hecke.apply_generator(
                        hecke.apply_generator(hecke.apply_generator(v, i, q), i + 1, q), i, q)
                    rhs = hecke.apply_generator(
                        hecke.apply_generator(hecke.apply_generator(v, i + 1, q), i, q), i + 1, q)
                    assert lhs.sub(rhs).norm() < 1e-12
                far_lhs = hecke.apply_generator(hecke.apply_generator(v, 1, q), 3, q)
                far_rhs = hecke.apply_generator(hecke.apply_generator(v, 3, q), 1, q)
                assert far_lhs.sub(far_rhs).norm() < 1e-12


def test_sparse_state_bound_is_shared(monkeypatch):
    # one bound holds the shuffle output (the rearrangements of each letter
    # content: 6 of 1122; 3 + 3 for the contents of 112 and 122; 10 of
    # 11122) and the raising basis (n^N words)
    monkeypatch.setattr(errors, "MAX_SPARSE_WORDS", 8)
    assert len(hecke.q_symmetrize(TensorState.basis(2, (1, 1, 2, 2)), 1.3).amps) == 6
    two_contents = TensorState(2, 3, {(1, 1, 2): 1.0, (2, 2, 1): 1.0, (1, 2, 1): 1.0})
    hecke.q_symmetrize(two_contents, 1.3)
    with pytest.raises(SizeGuardError):
        hecke.q_symmetrize(TensorState.basis(2, (1, 1, 1, 2, 2)), 1.3)
    with pytest.raises(SizeGuardError):
        qalgebra.q_dicke(2, 5, (3, 2), 1.3)
    assert len(qalgebra.generate_basis_by_raising(2, 3, 1.3)) == 4
    with pytest.raises(SizeGuardError):
        qalgebra.generate_basis_by_raising(2, 4, 1.3)


def test_shuffle_small_cases():
    q, z = 1.3, 0.7
    out = hecke.shuffle_apply(TensorState.basis(2, (1, 2)), z, q)
    assert out.amps == {(1, 2): 1.0, (2, 1): pytest.approx(z / q)}
    out = hecke.shuffle_apply(TensorState.basis(3, (1, 2, 3)), z, q)
    assert len(out.amps) == 6
    for w, amp in out.amps.items():
        ell = inversion_count(w)
        assert amp == pytest.approx((z / q) ** ell)
    out = hecke.shuffle_apply(TensorState.basis(2, (1, 2)), 0.0, q)
    assert out.amps == {(1, 2): 1.0}


def test_shuffle_theorem_coefficients_vs_oracle():
    rng = np.random.default_rng(2)
    for _ in range(8):
        N = int(rng.integers(2, 7))
        n = int(rng.integers(2, 4))
        word = tuple(sorted(rng.integers(1, n + 1, size=N)))
        q = float(rng.uniform(0.7, 1.5))
        z = float(rng.uniform(0.4, 1.4))
        out = hecke.shuffle_apply(TensorState.basis(n, word), z, q)
        counts = [word.count(a) for a in sorted(set(word))]
        prefactor = 1.0
        for k in counts:
            prefactor *= hecke.bracket_factorial(k, z)
        perms = multiset_permutations(word)
        assert len(out.amps) == len(perms)
        for w in perms:
            ell = inversion_count(w)
            assert out.amps[w] == pytest.approx(prefactor * z ** ell * q ** (-ell),
                                                abs=1e-10, rel=1e-10)


def test_symmetrizer_values_two_sites():
    q = 1.3
    out = hecke.q_symmetrize(TensorState.basis(2, (1, 2)), q)
    assert out.amps == {(1, 2): pytest.approx(1.0), (2, 1): pytest.approx(q)}
    out = hecke.q_antisymmetrize(TensorState.basis(2, (1, 2)), q)
    assert out.amps == {(1, 2): pytest.approx(1.0), (2, 1): pytest.approx(-1 / q)}


def test_symmetrizer_proportionality_on_permuted_input():
    q = 1.3
    # repeated letters: only the q-symmetrizer survives, so compare there
    ref = hecke.q_symmetrize(TensorState.basis(2, (1, 1, 2)), q)
    for word in [(1, 2, 1), (2, 1, 1)]:
        other = hecke.q_symmetrize(TensorState.basis(2, word), q)
        cos = abs(ref.inner(other)) / (ref.norm() * other.norm())
        assert abs(cos - 1.0) < 1e-12
    # distinct letters: both special values give parallel images
    for z in (q ** 2, -1.0):
        ref = hecke.shuffle_apply(TensorState.basis(3, (1, 2, 3)), z, q)
        for word in [(2, 1, 3), (3, 2, 1), (1, 3, 2)]:
            other = hecke.shuffle_apply(TensorState.basis(3, word), z, q)
            cos = abs(ref.inner(other)) / (ref.norm() * other.norm())
            assert abs(cos - 1.0) < 1e-12


def test_antisymmetrizer_kills_repeated_letters():
    q = 1.3
    state = TensorState.basis(2, (1, 1))
    out = hecke.apply_generator(state, 1, q).scale(-1.0).add(state)  # (1 - r) v
    assert out.is_zero()
    full = hecke.q_antisymmetrize(TensorState.basis(2, (2, 2, 1)), q)
    assert full.norm() < 1e-14


def test_classical_limit_equal_coefficients():
    # q = 1, z = 1: all N!/prod(k_j!) words appear with one common coefficient
    out = hecke.shuffle_apply(TensorState.basis(2, (1, 1, 2)), 1.0, 1.0)
    assert len(out.amps) == 3
    assert set(out.amps.values()) == {2.0}   # prod k_j! = 2! 1!


def test_reduced_words_n3_paper_set():
    assert hecke.reduced_words(3) == [(), (1,), (2,), (1, 2), (2, 1), (1, 2, 1)]


def test_reduced_words_basic():
    assert hecke.reduced_words(2) == [(), (1,)]
    words = hecke.reduced_words(4)
    assert len(words) == 24
    assert max(len(w) for w in words) == 6
    assert len(set(words)) == 24


def test_reduced_words_reach_each_permutation_once():
    from math import factorial
    for N in (3, 4, 5):
        seen = set()
        for w in hecke.reduced_words(N):
            p = list(range(1, N + 1))
            for i in w:
                p[i - 1], p[i] = p[i], p[i - 1]
            seen.add(tuple(p))
            assert len(w) == inversion_count(tuple(p))
        assert len(seen) == factorial(N)


def test_reduced_words_guard():
    with pytest.raises(SizeGuardError):
        hecke.reduced_words(9)
    with pytest.raises(ValidationError):
        hecke.reduced_words(1)


def test_word_sum_operator_examples():
    q = 1.3
    v = TensorState.basis(2, (1, 2, 1))
    assert hecke.word_sum_operator(3, 0, q, v).sub(v).is_zero()
    lhs = hecke.word_sum_operator(3, 1, q, v)
    rhs = hecke.apply_generator(v, 1, q).add(hecke.apply_generator(v, 2, q)).scale(q)
    assert lhs.sub(rhs).norm() < 1e-14


def test_word_sums_generate_shuffle():
    q = 1.3
    for N in (2, 3, 4):
        for word in [(1,) * N, tuple(2 - (i % 2) for i in range(N))]:
            v = TensorState.basis(2, word)
            for z in (0.6, 1.1):
                direct = hecke.shuffle_apply(v, z * q, q)
                total = v
                for ell in range(1, N * (N - 1) // 2 + 1):
                    total = total.add(hecke.word_sum_operator(N, ell, q, v).scale(z ** ell))
                assert direct.sub(total).norm() < 1e-12


def test_commutator_check_small_n():
    assert hecke.conjecture_commutator_check(2, 2, 1.3) == 0.0
    assert hecke.conjecture_commutator_check(3, 2, 1.5) < 1e-10
    assert hecke.conjecture_commutator_check(3, 3, 0.7) < 1e-10


def test_commutator_check_derives_the_reduced_words_once(monkeypatch):
    # the check equals the pairwise word_sum_operator sweep bit for bit, and
    # bubble-sorts each of the N! permutations once
    N, n, q = 4, 2, 0.7
    lmax = N * (N - 1) // 2
    slow = 0.0
    for word in all_words(n, N):
        v = TensorState.basis(n, word)
        images = {ell: hecke.word_sum_operator(N, ell, q, v) for ell in range(1, lmax + 1)}
        for k in range(1, lmax + 1):
            for ell in range(k + 1, lmax + 1):
                ab = hecke.word_sum_operator(N, k, q, images[ell])
                ba = hecke.word_sum_operator(N, ell, q, images[k])
                slow = max(slow, ab.sub(ba).norm())
    calls = []
    real = hecke.reduced_word
    monkeypatch.setattr(hecke, "reduced_word", lambda perm: calls.append(perm) or real(perm))
    assert hecke.conjecture_commutator_check(N, n, q) == slow
    assert len(calls) == 24
    assert hecke.conjecture_commutator_check(1, n, q) == 0.0


def _suffixes(words):
    return {w[k:] for w in words for k in range(len(w))}


def test_word_sums_apply_each_suffix_once(monkeypatch):
    # the canonical reduced words are suffix-closed, so every length of one
    # state takes N! - 1 steps from one memo: one per nonempty suffix
    N, q = 4, 0.7
    words = hecke.reduced_words(N)
    assert _suffixes(words) == set(words) - {()}
    steps = []
    real = hecke._generator_step
    monkeypatch.setattr(hecke, "_generator_step",
                        lambda amps, i, q: steps.append(i) or real(amps, i, q))
    images = {(): TensorState.basis(2, (1, 2, 1, 2)).amps}
    for ell, same_length in hecke.reduced_words_by_length(N).items():
        hecke._word_sum(same_length, q, images)
    assert len(steps) == factorial(N) - 1 == 23
    # the check takes the sums of each basis state (23 steps) and of each of
    # its images s_m v, which is summed over every length but m
    steps.clear()
    hecke.conjecture_commutator_check(N, 2, q)
    lmax = N * (N - 1) // 2
    per_state = 23 + sum(len(_suffixes([w for w in words if len(w) != m]))
                         for m in range(1, lmax + 1))
    assert len(steps) == 2 ** N * per_state == 2448


def test_commutator_check_refutes_conjecture_at_four_strands():
    # The length-class sums stop commuting at N=4: exact arithmetic in the
    # group algebra of S_4 (q=1) already gives [s_1, s_2] != 0, and the
    # tensor representation shows the same at generic q.  The desk check is
    # evidence against the conjecture here, not for it.
    assert hecke.conjecture_commutator_check(4, 2, 0.7) > 1.0


@given(st.integers(min_value=2, max_value=3), st.integers(min_value=2, max_value=4),
       st.sampled_from(QS))
@settings(max_examples=20, deadline=None)
def test_shuffle_term_count_property(n, N, q):
    rng = np.random.default_rng(n * 100 + N)
    word = tuple(sorted(rng.integers(1, n + 1, size=N)))
    out = hecke.shuffle_apply(TensorState.basis(n, word), 0.9, q)
    assert len(out.amps) == len(multiset_permutations(word))
