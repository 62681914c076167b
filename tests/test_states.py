from math import sqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from braidlab import hecke, qalgebra
from braidlab.errors import ValidationError
from braidlab.states import TensorState, all_words, index_word, word_index


def test_word_index_round_trip():
    for n, N in [(2, 5), (3, 3), (4, 2)]:
        for idx in range(n ** N):
            assert word_index(index_word(idx, n, N), n) == idx
    assert all_words(2, 2) == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_basis_and_norm():
    v = TensorState.basis(3, (1, 3, 2))
    assert v.norm() == 1.0
    assert v.scale(2.0).norm() == 2.0
    assert TensorState.zero(2, 3).is_zero()


def test_norm_overflows_to_inf():
    # abs(a) ** 2 raises OverflowError past about 1.3e154; the norm is inf,
    # and NaN where an amplitude is NaN, and finite norms keep their bits
    assert TensorState(2, 2, {(1, 2): 1e200}).norm() == float("inf")
    assert TensorState(2, 2, {(1, 2): 1e200, (2, 1): -1e-3}).norm() == float("inf")
    nan = TensorState(2, 2, {(1, 2): 1e200, (2, 1): float("nan")}).norm()
    assert nan != nan
    assert TensorState(2, 1, {(1,): 1e150, (2,): 1e150}).norm() == sqrt(1e150 ** 2 + 1e150 ** 2)


def test_normalized_scales_an_overflowing_norm_first():
    # a norm that overflows gave the zero state (a scale by 1/inf); the
    # amplitudes are divided by the largest magnitude first, a non-finite
    # amplitude is refused, and finite norms keep their bits
    unit = TensorState(2, 1, {(1,): 1e300, (2,): -1e300}).normalized()
    assert unit.amps == {(1,): 1.0 / sqrt(2.0), (2,): -1.0 / sqrt(2.0)}
    small = 3e300 / 1.7e308
    big = TensorState(2, 2, {(1, 2): 1.7e308, (2, 1): 3e300}).normalized()
    assert big.amps == {(1, 2): 1.0 / sqrt(1.0 + small ** 2),
                        (2, 1): small * (1.0 / sqrt(1.0 + small ** 2))}
    for bad in (float("inf"), float("nan"), complex(0.0, float("inf"))):
        with pytest.raises(ValidationError, match="non-finite amplitude"):
            TensorState(2, 1, {(1,): 1e300, (2,): bad}).normalized()
    state = TensorState(2, 2, {(1, 2): 3.0, (2, 1): -4e-3, (2, 2): 1.5e150})
    assert state.normalized().amps == state.scale(1.0 / state.norm()).amps
    # E_1^2 on x_1^2 at q = 1e160 holds 1e160-sized amplitudes: a unit state
    raised = qalgebra.generate_basis_by_raising(2, 2, 1e160)
    assert raised[(0, 2)].amps == {(2, 2): 1.0}


def test_add_cancellation_prunes():
    a = TensorState(2, 2, {(1, 2): 1.0, (2, 1): 0.5})
    b = TensorState(2, 2, {(1, 2): -1.0})
    out = a.add(b)
    assert out.amps == {(2, 1): 0.5}


def test_inner_conjugates_left_argument():
    a = TensorState(2, 1, {(1,): 1j})
    b = TensorState(2, 1, {(1,): 1.0})
    assert a.inner(b) == pytest.approx(-1j)
    assert b.inner(a) == pytest.approx(1j)
    assert a.inner(a) == pytest.approx(1.0)


def test_dense_round_trip():
    state = TensorState(2, 3, {(1, 2, 1): 0.25, (2, 2, 2): -1.5})
    v = state.to_dense()
    assert v[word_index((1, 2, 1), 2)] == 0.25
    back = TensorState.from_dense(v, 2, 3)
    assert back.amps == state.amps


def test_validation_rejects_bad_words():
    with pytest.raises(ValidationError):
        TensorState(2, 2, {(1, 3): 1.0})
    with pytest.raises(ValidationError):
        TensorState(2, 2, {(1, 2, 1): 1.0})
    with pytest.raises(ValidationError):
        TensorState.zero(2, 2).normalized()


def test_add_sub_reject_a_state_of_another_shape():
    a = TensorState(2, 2, {(1, 2): 1.0})
    for other in (TensorState(2, 3, {(1, 1, 1): 1.0}), TensorState(3, 2, {(1, 3): 1.0}),
                  TensorState(3, 1, {(1,): 1.0})):
        with pytest.raises(ValidationError):
            a.add(other)
        with pytest.raises(ValidationError):
            a.sub(other)
    # words of a state with a larger n are accepted when they fit, as before
    assert a.add(TensorState(3, 2, {(2, 1): 1.0})).amps == {(1, 2): 1.0, (2, 1): 1.0}
    assert TensorState(3, 2, {(3, 3): 1.0}).sub(a).amps == {(3, 3): 1.0, (1, 2): -1.0}


@st.composite
def _state_pairs(draw):
    n, N = draw(st.integers(2, 3)), draw(st.integers(1, 4))
    words = st.tuples(*[st.integers(1, n)] * N)
    amps = st.dictionaries(words, st.floats(-2.0, 2.0).filter(bool), max_size=6)
    return TensorState(n, N, draw(amps)), TensorState(n, N, draw(amps))


def _operator_results(s, other, site, j, q):
    """Every internal operator that builds its result without validation."""
    lmax = s.N * (s.N - 1) // 2
    out = {"scale": s.scale(-0.5), "add": s.add(other), "sub": s.sub(other),
           "shuffle": hecke.shuffle_apply(s, 0.8, q),
           "word_sum": hecke.word_sum_operator(s.N, site % (lmax + 1), q, s),
           "E": qalgebra.apply_E(s, j, q), "F": qalgebra.apply_F(s, j, q),
           "qH": qalgebra.apply_qH(s, j, q), "qEps": qalgebra.apply_qEps(s, j + 1, q)}
    if s.N > 1:
        out["generator"] = hecke.apply_generator(s, 1 + site % (s.N - 1), q)
    return out


@settings(max_examples=150, deadline=None)
@given(_state_pairs(), st.integers(0, 10), st.integers(0, 10), st.floats(0.3, 2.5))
def test_trusted_results_pass_validation_and_match_the_validated_path(pair, site, j, q):
    # operators skip re-validation only where their output is valid by
    # construction: each result must pass the public constructor and carry
    # the amplitudes the validating constructor produces
    s, other = pair
    j = 1 + j % (s.n - 1)
    trusted = _operator_results(s, other, site, j, q)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TensorState, "_trusted", classmethod(lambda cls, n, N, amps: cls(n, N, amps)))
        validated = _operator_results(s, other, site, j, q)
    for name, out in trusted.items():
        assert (out.n, out.N) == (s.n, s.N), name
        assert TensorState(out.n, out.N, out.amps).amps == out.amps, name
        assert out.amps == validated[name].amps, name
