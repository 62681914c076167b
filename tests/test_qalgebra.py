import re
import tracemalloc
from decimal import Decimal, localcontext
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from braidlab import qalgebra, tableaux
from braidlab.errors import ValidationError
from braidlab.hecke import apply_generator, bracket, bracket_factorial, q_symmetrize
from braidlab.states import TensorState, all_words

from oracles import inversion_count, multiset_permutations, raising_per_label


def test_q_number_values():
    for q in (0.7, 1.3, 2.0):
        assert qalgebra.q_number(1, q) == pytest.approx(1.0)
    assert qalgebra.q_number(2, 2.0) == pytest.approx(2.5)       # q + 1/q
    assert qalgebra.q_number(3, 1.3) == pytest.approx(1.3 ** 2 + 1 + 1.3 ** -2)
    assert qalgebra.q_number(4, 1.0) == 4.0                      # limit
    assert qalgebra.q_number(5, 1.0 + 1e-12) == pytest.approx(5.0)


@pytest.mark.parametrize("q", [1e-150, 1e150])
def test_powers_overflow_to_inf_at_both_ends_of_the_q_range(q):
    # q^(+-2), q^(+-2.5) and q^(+-3) pass the largest float at both ends of
    # the float range; the q-integers, the ladder tails and q^{H_j}, q^{eps_j}
    # that would form them (as inf) refuse q by the q rule, naming q and the
    # power, and the powers that fit are the float powers
    huge = q > 1
    side = "large" if huge else "small"

    def refused(call, q, power, terms=1):
        count = f"{terms} x " if terms > 1 else ""
        with pytest.raises(ValidationError, match=re.escape(
                f"q = {q!r} is too {side}: {count}q^{power if huge else -power:g} overflows")):
            call()

    assert qalgebra.q_number(2, q) == q + 1 / q
    refused(lambda: qalgebra.q_number(4, q), q, 3, 4)
    refused(lambda: qalgebra.q_number(5, -q), -q, 4, 5)
    refused(lambda: qalgebra.q_number(-4, q), q, 3, 4)
    refused(lambda: qalgebra.q_number(4, -q), -q, 3, 4)
    # finite powers whose correctly rounded sum passes the largest float
    with pytest.raises(ValidationError, match=re.escape(
            "q = 1.3 is too large: 2704 x q^2703 overflows")):
        qalgebra.q_number(2704, 1.3)
    refused(lambda: qalgebra.apply_E(TensorState.basis(2, (1,) * 6), 1, q), q, 2.5)
    assert qalgebra.apply_E(TensorState.basis(2, (1,) * 3), 1, q).amps == {
        (2, 1, 1): q ** 1.0, (1, 2, 1): 1.0, (1, 1, 2): q ** -1.0}
    refused(lambda: qalgebra.apply_F(TensorState.basis(2, (2,) * 6), 1, q), q, 2.5)
    refused(lambda: qalgebra.apply_qH(TensorState.basis(2, (1, 1, 1) if huge else (2, 2, 2)),
                                      1, q), q, 3)
    if huge:
        refused(lambda: qalgebra.apply_qEps(TensorState.basis(2, (1, 1, 1)), 1, q), q, 3)


def test_q_dicke_refuses_a_q_whose_brackets_overflow():
    # [[m]]! at z = q^2 past the largest float: z^i raised a bare
    # OverflowError (q = 1e110, m = 3), or the product reached inf and scaled
    # the state to zero (q = 1e30, N = 4) or made the bracket inf (q^2 = inf
    # at 1.5e154); each is refused by the q rule for [[N]]!'s N! powers up to
    # q^(N(N-1)), naming q, or first by the check's own q^N of q^{H_j}, and
    # q_symmetrize refuses a q whose square overflows
    for q, N, label, own in [(1e110, 3, (2, 1), "q^3"), (1e30, 4, (2, 2), None),
                             (1.5e154, 3, (2, 1), "q^3")]:
        brackets = f"{factorial(N)} x q^{N * (N - 1)}"
        for call, power in ((lambda: qalgebra.q_dicke(2, N, label, q), brackets),
                            (lambda: qalgebra.dicke_norm(label, q), brackets),
                            (lambda: qalgebra.verify_canonical_action(2, N, q, label, 1),
                             own or brackets)):
            with pytest.raises(ValidationError, match=re.escape(
                    f"q = {q!r} is too large: {power} overflows")):
                call()
    with pytest.raises(ValidationError, match=re.escape("q = 1.5e+154 is too large: q^2")):
        q_symmetrize(TensorState.basis(2, (1, 2)), 1.5e154)
    # below those edges the state is the one it was, of norm one
    assert qalgebra.q_dicke(2, 3, (2, 1), 1e30).norm() == pytest.approx(1.0)
    # q^{H_j} = q^(k_j - k_{j+1}) would be inf: refused with q^-N
    with pytest.raises(ValidationError, match=re.escape(
            "q = 1e-110 is too small: q^-3 overflows")):
        qalgebra.verify_canonical_action(2, 3, 1e-110, (0, 3), 1)


def test_q_factorial_and_binomial():
    q = 1.3
    assert qalgebra.q_factorial(0, q) == 1.0
    assert qalgebra.q_factorial(3, q) == pytest.approx(
        qalgebra.q_number(1, q) * qalgebra.q_number(2, q) * qalgebra.q_number(3, q))
    assert qalgebra.q_binomial(4, 2, 1.0) == pytest.approx(6.0)


def test_bracket_numbers():
    assert bracket(2, 1.3 * 1.3) == pytest.approx(1 + 1.3 ** 2)
    assert bracket(2, 1.0 * 1.0) == 2.0
    assert bracket_factorial(0, 1.3 * 1.3) == 1.0
    assert bracket_factorial(3, 1.0 * 1.0) == 6.0


@pytest.mark.parametrize("q", [0.3, 0.7, 1.0 - 1e-8, 1.000000003, 1.00000001, 1.0 + 1e-12,
                               1.3, 3.0])
def test_q_integers_near_q_one_match_exact_sums(q):
    # (q^k - q^-k)/(q - q^-1) loses about eps/|q - 1| relative, 2e-8 at
    # q = 1 + 1e-8; the finite sums are correct to rounding at every q,
    # against 50-digit sums of the same binary q
    with localcontext() as ctx:
        ctx.prec = 50
        Q, Z = Decimal(q), Decimal(q) * Decimal(q)
        for k in range(1, 21):
            want = sum(Q ** (k - 1 - 2 * i) for i in range(k))
            assert abs(Decimal(qalgebra.q_number(k, q)) - want) <= Decimal(4e-16) * want, (q, k)
            assert qalgebra.q_number(-k, q) == -qalgebra.q_number(k, q)
            want = sum(Z ** i for i in range(k))
            assert abs(Decimal(bracket(k, q * q)) - want) <= Decimal(2e-15) * want, (q, k)
    # q = -1, reachable only through the expert negative-q path: k (-1)^(k+1)
    assert [qalgebra.q_number(k, -1.0) for k in range(1, 6)] == [1.0, -2.0, 3.0, -4.0, 5.0]


def test_apply_E_reference_state_pattern():
    # E_1 x1...x1 = q^{-(N-1)/2} (x1..x1x2 + q x1..x2x1 + ... + q^{N-1} x2..x1)
    q = 1.3
    for N in (2, 3, 5):
        out = qalgebra.apply_E(TensorState.basis(2, (1,) * N), 1, q)
        for k in range(1, N + 1):
            w = tuple(2 if i == k else 1 for i in range(1, N + 1))
            assert out.amps[w] == pytest.approx(q ** (-(N - 1) / 2) * q ** (N - k))


def test_apply_E_annihilates_top_letter():
    out = qalgebra.apply_E(TensorState.basis(2, (2, 2, 2)), 1, 1.3)
    assert out.is_zero()


def test_apply_qEps_counts_letters():
    q = 1.3
    st8 = TensorState.basis(3, (1, 2, 1, 3))
    out = qalgebra.apply_qEps(st8, 1, q)
    assert out.amps[(1, 2, 1, 3)] == pytest.approx(q ** 2)
    out = qalgebra.apply_qH(st8, 1, q)
    assert out.amps[(1, 2, 1, 3)] == pytest.approx(q ** (2 - 1))


def test_operator_index_validation():
    v = TensorState.basis(2, (1, 2))
    with pytest.raises(ValidationError):
        qalgebra.apply_E(v, 2, 1.3)
    with pytest.raises(ValidationError):
        qalgebra.apply_qEps(v, 3, 1.3)


def test_q_dicke_examples():
    q = 1.3
    b = qalgebra.q_dicke(2, 2, (1, 1), q)
    nrm = np.sqrt(1 + q ** 2)
    assert b.amps[(1, 2)] == pytest.approx(1 / nrm)
    assert b.amps[(2, 1)] == pytest.approx(q / nrm)

    b = qalgebra.q_dicke(3, 4, (4, 0, 0), q)
    assert b.amps == {(1, 1, 1, 1): pytest.approx(1.0)}

    b = qalgebra.q_dicke(2, 3, (2, 1), q)
    nrm = np.sqrt(1 + q ** 2 + q ** 4)
    assert b.amps[(1, 1, 2)] == pytest.approx(1 / nrm)
    assert b.amps[(1, 2, 1)] == pytest.approx(q / nrm)
    assert b.amps[(2, 1, 1)] == pytest.approx(q ** 2 / nrm)


def test_q_dicke_coefficients_are_inversion_powers():
    q = 0.8
    label = (2, 1, 1)
    b = qalgebra.q_dicke(3, 4, label, q)
    base = qalgebra.ordered_word(label)
    lead = b.amps[base]
    for w in multiset_permutations(base):
        assert b.amps[w] == pytest.approx(lead * q ** inversion_count(w))
    assert b.norm() == pytest.approx(1.0)


def test_q_dicke_norm_formula_matches_computation():
    # ||b|| = sqrt([[N]]!/prod [[m_i]]!) before normalization
    q = 1.4
    for label in [(3, 1), (2, 2), (1, 1, 2)]:
        n, N = len(label), sum(label)
        from braidlab.hecke import q_symmetrize
        raw = q_symmetrize(TensorState.basis(n, qalgebra.ordered_word(label)), q)
        scale = 1.0
        for m in label:
            scale *= bracket_factorial(m, q * q)
        assert raw.norm() / scale == pytest.approx(qalgebra.dicke_norm(label, q))


def test_q_dicke_rejects_bad_label():
    with pytest.raises(ValidationError):
        qalgebra.q_dicke(2, 3, (1, 1), 1.3)
    with pytest.raises(ValidationError):
        qalgebra.q_dicke(2, 3, (4, -1), 1.3)


def test_gram_matrix_orthonormal():
    for n, N in [(2, 4), (3, 3)]:
        q = 1.3
        labels = qalgebra.dicke_labels(n, N)
        states = [qalgebra.q_dicke(n, N, lab, q) for lab in labels]
        for i, a in enumerate(states):
            for j, b in enumerate(states):
                expected = 1.0 if i == j else 0.0
                assert abs(a.inner(b) - expected) < 1e-12


def test_basis_size_matches_one_row_ssyt():
    for n in (1, 2, 3, 4):
        for N in (1, 2, 3, 4):
            assert len(qalgebra.dicke_labels(n, N)) == tableaux.ssyt_dim((N,), n)


def test_verify_canonical_action_examples():
    q = 1.3
    rep = qalgebra.verify_canonical_action(2, 3, q, (2, 1), 1)
    assert rep["coefficient"] == pytest.approx(qalgebra.q_number(2, q))
    assert rep["residual_E"] < 1e-12 and rep["residual_F"] < 1e-12
    assert rep["residual_qH"] < 1e-12

    rep = qalgebra.verify_canonical_action(2, 4, q, (0, 4), 1)
    assert rep["coefficient"] == 0.0 and rep["residual_E"] < 1e-14

    rep = qalgebra.verify_canonical_action(3, 2, q, (1, 1, 0), 2)
    assert rep["coefficient"] == pytest.approx(1.0)
    assert rep["residual_E"] < 1e-12


def test_lowering_annihilates_bottom():
    out = qalgebra.apply_F(TensorState.basis(2, (1, 1, 1)), 1, 1.3)
    assert out.is_zero()


def test_serre_commutator_relation():
    # [F_j, E_j] = (q^{H_j} - q^{-H_j}) / (q - q^{-1}) on every basis word
    for n, N, q in [(2, 3, 1.3), (3, 3, 0.7), (3, 4, 1.5)]:
        for word in all_words(n, N):
            v = TensorState.basis(n, word)
            for j in range(1, n):
                fe = qalgebra.apply_F(qalgebra.apply_E(v, j, q), j, q)
                ef = qalgebra.apply_E(qalgebra.apply_F(v, j, q), j, q)
                lhs = fe.sub(ef)
                hj = word.count(j) - word.count(j + 1)
                rhs = v.scale((q ** hj - q ** -hj) / (q - 1 / q))
                assert lhs.sub(rhs).norm() < 1e-12, (word, j)


def test_generator_invariance_on_states():
    # [r_i, Delta(y)] = 0 for y in {E_j, F_j, q^{H_j}} on all basis states
    for n, N, q in [(2, 4, 1.3), (3, 3, 0.7), (3, 4, 1.5)]:
        ops = []
        for j in range(1, n):
            ops += [lambda s, j=j: qalgebra.apply_E(s, j, q),
                    lambda s, j=j: qalgebra.apply_F(s, j, q),
                    lambda s, j=j: qalgebra.apply_qH(s, j, q)]
        for word in all_words(n, N):
            v = TensorState.basis(n, word)
            for i in range(1, N):
                rv = apply_generator(v, i, q)
                for op in ops:
                    resid = apply_generator(op(v), i, q).sub(op(rv)).norm()
                    assert resid < 1e-12


def test_generate_basis_by_raising_agrees_with_q_dicke():
    for n, N, q in [(2, 2, 1.3), (2, 5, 0.7), (3, 3, 1.5), (1, 4, 1.3)]:
        basis = qalgebra.generate_basis_by_raising(n, N, q)
        assert len(basis) == tableaux.ssyt_dim((N,), n)
        for label, state in basis.items():
            assert state.sub(qalgebra.q_dicke(n, N, label, q)).norm() < 1e-12


def test_raising_tree_gives_every_string_bit_for_bit(monkeypatch):
    # the E-strings grown as a tree: each state equals its own string's
    # state normalized, amplitude for amplitude with ==, and each E_j step
    # runs once per distinct prefix of the strings
    steps = []
    real = qalgebra.apply_E
    monkeypatch.setattr(qalgebra, "apply_E", lambda s, j, q: steps.append(j) or real(s, j, q))
    for n in range(1, 5):
        for N in range(1, 6):
            for q in (0.7, 1.3):
                steps.clear()
                basis = qalgebra.generate_basis_by_raising(n, N, q)
                strings = raising_per_label(n, N, q)
                assert list(basis) == list(strings)
                for label, state in strings.items():
                    want = state.normalized().amps
                    assert basis[label].amps == want and list(basis[label].amps) == list(want)
                prefixes = {tuple(sum(label[j:]) for j in range(1, k + 1))[:-1] + (p,)
                            for label in strings for k in range(1, n)
                            for p in range(1, sum(label[k:]) + 1)}
                assert len(steps) == len(prefixes), (n, N)
    steps.clear()
    qalgebra.generate_basis_by_raising(3, 7, 1.3)
    assert len(steps) == 35


def test_generate_basis_counts():
    assert len(qalgebra.generate_basis_by_raising(2, 2, 1.3)) == 3
    assert len(qalgebra.generate_basis_by_raising(1, 3, 1.3)) == 1
    assert len(qalgebra.generate_basis_by_raising(3, 3, 1.3)) == 10


def test_crystal_moves():
    assert qalgebra.crystal_e(1, (1, 1), 2) == (1, 2)
    assert qalgebra.crystal_e(1, (2, 2), 2) is None
    assert qalgebra.crystal_e(2, (2, 2), 3) == (2, 3)
    assert qalgebra.crystal_f(1, (1, 2), 2) == (1, 1)
    assert qalgebra.crystal_f(1, (1, 1), 2) is None
    with pytest.raises(ValidationError):
        qalgebra.crystal_e(1, (2, 1), 2)


def test_crystal_moves_invert_each_other():
    for n, N in [(2, 4), (3, 3)]:
        for label in qalgebra.dicke_labels(n, N):
            w = qalgebra.ordered_word(label)
            for j in range(1, n):
                up = qalgebra.crystal_e(j, w, n)
                if up is not None:
                    assert qalgebra.crystal_f(j, up, n) == w


def test_crystal_limit_concentration():
    # at q = 1e-4 the squared weight on the ordered word exceeds 1 - 1e-3
    q = 1e-4
    for n, N in [(2, 5), (3, 4)]:
        for label in qalgebra.dicke_labels(n, N):
            b = qalgebra.q_dicke(n, N, label, q)
            lead = b.amps[qalgebra.ordered_word(label)]
            assert lead ** 2 > 1 - 1e-3


def test_crystal_limit_matches_crystal_reachability():
    # rescaled E at tiny q sends the ordered word for (k_j, k_{j+1}) to the
    # crystal-raised ordered word
    q = 1e-5
    n, N = 2, 3
    for label in [(2, 1), (3, 0), (1, 2)]:
        b = qalgebra.q_dicke(n, N, label, q)
        up_label = qalgebra.crystal_e(1, qalgebra.ordered_word(label), n)
        image = qalgebra.apply_E(b, 1, q)
        if up_label is None:
            continue
        dominant = max(image.amps, key=lambda w: abs(image.amps[w]))
        assert dominant == up_label


def test_crystal_automaton_shape():
    a = qalgebra.crystal_automaton(3, 2)
    assert a.n_states == 6
    e_edges = sum(int(x != 0) for x in np.ravel(a.matrix("e1"))) + \
        sum(int(x != 0) for x in np.ravel(a.matrix("e2")))
    assert e_edges == 6          # the A_2, N=2 crystal has six raising edges
    assert a.kind == "combinatorial"
    labeled = qalgebra.crystal_automaton(2, 2, q=1.3, labels="canonical")
    assert labeled.kind == "general"


def test_crystal_automaton_holds_no_dense_matrix():
    # one dense 1891 x 1891 float64 matrix is 28.6 MB; the four target
    # arrays of n = 3, N = 60 and the words they are built from stay under
    # a quarter of that
    tracemalloc.start()
    try:
        a = qalgebra.crystal_automaton(3, 60)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert a.n_states == 1891
    assert peak < 1891 ** 2 * 8 / 4


@given(st.integers(min_value=2, max_value=3), st.integers(min_value=2, max_value=4))
@settings(max_examples=12, deadline=None)
def test_dicke_labels_partition_the_words(n, N):
    labels = qalgebra.dicke_labels(n, N)
    assert len(set(labels)) == len(labels)
    assert all(sum(lab) == N and len(lab) == n for lab in labels)
