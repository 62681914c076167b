"""Acceptance suite: one test per criterion, each printing a pass/fail line
(run with -s to see them) and enforcing its stated runtime budget.

Two sub-claims are implemented exactly as stated but expected to fail: the
two-site spectrum value -1 at q = 1.3 (the closed form forced by the
quadratic relation is -q^{-2}; -1 is its q = 1 value), and the
commuting-word-sums check at four strands (exact arithmetic in the q = 1
specialization already gives a nonzero commutator, so the desk check refutes
that case instead of supporting it).  Each carries a passing companion test
pinning the independently verified behavior.
"""

import math
import time
from contextlib import contextmanager
from itertools import product

import numpy as np
import pytest

from braidlab import automata, qalgebra, quandle, spectra, tableaux
from braidlab.hecke import (apply_generator, conjecture_commutator_check,
                            shuffle_apply)
from braidlab.states import TensorState, all_words

from oracles import (count_syt_bruteforce, inversion_count,
                     multiset_permutations, random_stochastic, random_unitary)

QS = (0.7, 1.3, 2.0)


@contextmanager
def criterion(name, budget_s):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s, budget {budget_s}s)")
    assert elapsed < budget_s, f"{name} exceeded its {budget_s}s runtime budget"


def test_criterion_1_braid_and_hecke_relations():
    with criterion("1 braid+Hecke relations", 10):
        worst = 0.0
        for n, N, q in product((2, 3), (3, 4, 5), QS):
            c = 1 - q ** -2
            for word in all_words(n, N):
                v = TensorState.basis(n, word)
                for i in range(1, N - 1):
                    lhs = apply_generator(apply_generator(
                        apply_generator(v, i, q), i + 1, q), i, q)
                    rhs = apply_generator(apply_generator(
                        apply_generator(v, i + 1, q), i, q), i + 1, q)
                    worst = max(worst, lhs.sub(rhs).norm())
                for i in range(1, N):
                    ri = apply_generator(v, i, q)
                    quad = apply_generator(ri, i, q).sub(ri.scale(c)).sub(v.scale(q ** -2))
                    worst = max(worst, quad.norm())
        assert worst < 1e-12, worst


def test_criterion_2_shuffle_oracle_equivalence():
    def oracle_bracket_factorial(k, z):
        # [[m]] at zeta = z^(1/2) is (z^m - 1)/(z - 1) = 1 + z + ... + z^(m-1)
        out = 1.0
        for m in range(1, k + 1):
            out *= sum(z ** t for t in range(m))
        return out

    with criterion("2 shuffle theorem vs inversion oracle", 30):
        rng = np.random.default_rng(20240817)
        cases = []
        for N in range(2, 7):
            for _ in range(4):
                n = int(rng.integers(2, 5))
                content = tuple(sorted(rng.integers(1, n + 1, size=N)))
                q = float(rng.uniform(0.7, 1.5))
                z = float(rng.uniform(0.4, 1.6))
                cases.append((content, n, q, z))
                cases.append((content, n, q, q * q))
        for content, n, q, z in cases:
            out = shuffle_apply(TensorState.basis(n, content), z, q)
            counts = [content.count(a) for a in sorted(set(content))]
            expected_terms = math.factorial(len(content))
            for k in counts:
                expected_terms //= math.factorial(k)
            perms = multiset_permutations(content)
            assert len(out.amps) == expected_terms == len(perms)
            prefactor = 1.0
            for k in counts:
                prefactor *= oracle_bracket_factorial(k, z)
            for w in perms:
                ell = inversion_count(w)
                expected = prefactor * z ** ell * q ** (-ell)
                assert math.isclose(out.amps[w], expected,
                                    rel_tol=1e-10, abs_tol=1e-10), (content, w)


def test_criterion_3_q_dicke_canonical_basis():
    with criterion("3 q-Dicke canonical basis", 20):
        for n in (1, 2, 3):
            for N in range(1, 6):
                assert len(qalgebra.dicke_labels(n, N)) == tableaux.ssyt_dim((N,), n)
        for q in (0.7, 1.3):
            for n in (2, 3):
                for N in range(1, 6):
                    labels = qalgebra.dicke_labels(n, N)
                    states = [qalgebra.q_dicke(n, N, lab, q) for lab in labels]
                    for i, a in enumerate(states):
                        for j in range(i, len(states)):
                            g = a.inner(states[j])
                            target = 1.0 if i == j else 0.0
                            assert abs(g - target) < 1e-12
                    for lab in labels:
                        for j in range(1, n):
                            rep = qalgebra.verify_canonical_action(n, N, q, lab, j)
                            assert rep["residual_E"] < 1e-10
                            assert rep["residual_qH"] < 1e-10
                            if rep["residual_F"] is not None:
                                assert rep["residual_F"] < 1e-10


def test_criterion_4_spectrum_closed_forms():
    # N=3 closed forms as stated; the N=2 non-unit eigenvalue asserted at its
    # oracle-confirmed value -q^{-2} (see the module docstring)
    with criterion("4 spectrum closed forms", 5):
        q = 1.3
        deco = spectra.diagonalize(spectra.OpenChain(2, 3, q))
        expected3 = {2.0: 4, 1 - 1 / q - q ** -2: 2, 1 + 1 / q - q ** -2: 2}
        assert len(deco.clusters) == 3
        for value, mult in expected3.items():
            match = [c for c in deco.clusters if abs(c.value - value) <= 1e-10]
            assert len(match) == 1, value
            assert match[0].multiplicity == mult

        deco2 = spectra.diagonalize(spectra.OpenChain(2, 2, q))
        expected2 = {1.0: 3, -q ** -2: 1}
        assert len(deco2.clusters) == 2
        for value, mult in expected2.items():
            match = [c for c in deco2.clusters if abs(c.value - value) <= 1e-10]
            assert len(match) == 1, value
            assert match[0].multiplicity == mult


@pytest.mark.xfail(strict=True,
                   reason="documented defect in the stated closed form: at q=1.3 "
                          "the two-site non-unit eigenvalue is -q^{-2}, which "
                          "equals -1 only at q=1 (see the module docstring)")
def test_criterion_4_two_site_eigenvalue_as_stated():
    with criterion("4b two-site eigenvalues {1,-1} as literally stated", 5):
        deco = spectra.diagonalize(spectra.OpenChain(2, 2, 1.3))
        values = sorted(c.value for c in deco.clusters)
        assert abs(values[0] - (-1.0)) <= 1e-10
        assert abs(values[1] - 1.0) <= 1e-10


def test_criterion_5_sector_bookkeeping():
    with criterion("5 sector bookkeeping N=2..10", 60):
        q = 1.5
        for N in range(2, 11):
            rep = spectra.classify_sectors(spectra.OpenChain(2, N, q))
            assert not rep.warnings, rep.warnings
            total = 0
            for k in range(N // 2 + 1):
                m_k = spectra.sector_multiplicity(N, k)
                d_k = spectra.sector_dimension(N, k)
                assert rep.m_observed[k] == m_k, (N, k)
                for lad in rep.sectors[k]:
                    assert lad.length == d_k
                    assert lad.kappa_residual < 1e-8
                    assert lad.termination_residual < 1e-8
                total += m_k * d_k
            assert total == 2 ** N


def test_criterion_6_symmetry():
    with criterion("6 invariance of the chain", 20):
        for n, N in [(n, N) for n in (2, 3) for N in range(2, 7)] + [(4, N) for N in range(2, 6)]:
            for q in QS:
                assert spectra.symmetry_residual(n, N, q) < 1e-11, (n, N, q)
        # word-sum commutators where the conjecture holds
        for N in (2, 3):
            for q in QS:
                assert conjecture_commutator_check(N, 2, q) < 1e-10, (N, q)


@pytest.mark.xfail(strict=True,
                   reason="documented defect in the stated claim: the length-class "
                          "sums stop commuting at four strands; an exact check at "
                          "q=1 refutes the conjecture there (see the module "
                          "docstring and scripts/word_sum_commutators.py)")
def test_criterion_6_word_sum_commutators_at_four_strands_as_stated():
    with criterion("6b four-strand word-sum commutators as literally stated", 20):
        for q in QS:
            assert conjecture_commutator_check(4, 2, q) < 1e-10, q


def test_criterion_6_four_strand_commutator_measured():
    # companion pin: the four-strand commutator is order one, not numerical noise
    with criterion("6c four-strand commutator refutation pin", 20):
        for q in QS:
            assert conjecture_commutator_check(4, 2, q) > 0.1, q


def test_criterion_7_dihedral_quandle_spectra():
    with criterion("7 dihedral quandle spectra", 10):
        for n in (3, 5, 7):
            spec = quandle.dihedral_spectrum(n)
            roots = [np.exp(2j * np.pi * k / n) for k in range(1, n + 1)]
            assert sorted(np.round(spec.eigenvalues, 12).tolist(),
                          key=lambda z: (z.real, z.imag)) == \
                sorted(np.round(roots, 12).tolist(), key=lambda z: (z.real, z.imag))
            assert spec.dimensions == [n - 1] * (n - 1) + [2 * n - 1]
            r = quandle.braid_solution(quandle.dihedral(n)).matrix.astype(complex)
            for lam, cols in zip(spec.eigenvalues, spec.eigenvectors):
                assert np.abs(r @ cols - lam * cols).max() < 1e-12
            dense = np.linalg.eigvals(r)
            ours = np.concatenate([[lam] * d for lam, d in
                                   zip(spec.eigenvalues, spec.dimensions)])
            key = lambda z: (round(z.real, 9), round(z.imag, 9))
            assert sorted(map(key, ours)) == sorted(map(key, dense))
        for n in (3, 5, 7):
            table = quandle.dihedral(n)
            for N in (2, 3):
                assert quandle.centralizer_residual(table, N) == 0


def test_criterion_8_tableaux():
    with criterion("8 tableau dimensions", 10):
        for N in range(1, 8):
            for shape in tableaux.partitions_of(N):
                assert tableaux.syt_dim(shape) == count_syt_bruteforce(shape)
        for n in range(1, 5):
            for N in range(1, 8):
                assert tableaux.schur_weyl_check(n, N, tableaux.dimension_table(n, N))
        assert tableaux.ssyt_dim((2, 1), 3) == 8


def test_criterion_9_automata():
    with criterion("9 automata linearization and kinds", 5):
        a = automata.example_exa01()
        assert np.array_equal(a.matrix("a"), [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
        assert np.array_equal(a.matrix("b"), [[0, 0, 0], [1, 1, 1], [0, 0, 0]])
        e = automata.example_e1()
        assert np.array_equal(e.matrix("a"),
                              [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 1, 1, 0]])
        assert np.array_equal(e.matrix("b"),
                              [[0, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 0]])
        rng = np.random.default_rng(99)
        for _ in range(1000):
            u = "".join(rng.choice(["a", "b"], size=rng.integers(0, 4)))
            v = "".join(rng.choice(["a", "b"], size=rng.integers(0, 4)))
            assert np.array_equal(automata.word_matrix(a, u + v),
                                  automata.word_matrix(a, u) @ automata.word_matrix(a, v))
        s = random_stochastic(5, rng)
        uqr = random_unitary(5, rng)
        sp, up = np.eye(5), np.eye(5).astype(complex)
        for _ in range(5):
            sp = sp @ s
            up = up @ uqr
        assert np.abs(sp.sum(axis=0) - 1.0).max() < 1e-12
        assert np.abs(up.conj().T @ up - np.eye(5)).max() < 1e-12
