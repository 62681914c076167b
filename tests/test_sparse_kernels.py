"""The sparse kernels held bit for bit to the per-step path of the oracles.

The kernels step on amplitude dicts and build one state per public call;
the oracles build a state at every generator step.  Every amplitude must
be the same float, on the same words, in the same order.  The states draw
amplitudes that cancel exactly (1.5 and -1.0 under r at q = 2, anything
at q = 1, where 1 - q^-2 is 0, and zeros drawn outright), so the pruning
of exact zeros is covered too, and a zero input amplitude that z = 0 must
leave in place.
"""

from hypothesis import example, given, settings, strategies as st

from braidlab import hecke, qalgebra
from braidlab.states import TensorState, all_words

from oracles import (generator_filtering_always, ladder_per_term, norm_by_numpy,
                     shuffle_per_step, sub_by_scale, word_sum_per_word)

QS = st.sampled_from([0.5, 1.0, 2.0, 0.72, 1 + 1e-7]) | st.floats(0.3, 3.0)
AMPS = st.sampled_from([1.0, -1.0, 1.5, -1.5, 0.5, -0.5, 0.0]) | st.floats(-2.0, 2.0)


@st.composite
def states(draw, n=st.integers(1, 3), N=st.integers(1, 5)):
    n, N = draw(n), draw(N)
    words = draw(st.lists(st.sampled_from(all_words(n, N)), max_size=8, unique=True))
    return TensorState(n, N, {w: draw(AMPS) for w in words})


def assert_same(new, old):
    assert (new.n, new.N) == (old.n, old.N)
    assert new.amps == old.amps
    assert repr(list(new.amps.items())) == repr(list(old.amps.items()))


@given(states(N=st.integers(2, 5)), QS)
@example(TensorState(2, 2, {(1, 2): 1.5, (2, 1): -1.0}), 2.0)
@settings(max_examples=60, deadline=None)
def test_apply_generator_matches_the_oracle(state, q):
    for i in range(1, state.N):
        once = hecke.apply_generator(state, i, q)
        assert_same(once, generator_filtering_always(state, i, q))
        assert_same(hecke.apply_generator(once, i, q), generator_filtering_always(once, i, q))


@given(states(), QS, st.sampled_from(["q2", -1.0, 0.0]) | st.floats(-2.0, 2.0))
@example(TensorState.basis(2, (1, 1, 2)), 1.0, -1.0)
@example(TensorState(2, 2, {(1, 2): 0.0, (2, 1): 1.0}), 2.0, 0.0)
@settings(max_examples=60, deadline=None)
def test_shuffle_apply_matches_the_oracle(state, q, z):
    z = q * q if z == "q2" else z
    assert_same(hecke.shuffle_apply(state, z, q), shuffle_per_step(state, z, q))


@given(states(N=st.integers(2, 4)), QS)
@settings(max_examples=30, deadline=None)
def test_word_sum_operator_matches_the_oracle_at_every_length(state, q):
    N = state.N
    for ell in range(N * (N - 1) // 2 + 1):
        assert_same(hecke.word_sum_operator(N, ell, q, state),
                    word_sum_per_word(N, ell, q, state))


@given(states(n=st.integers(2, 3)), QS)
@settings(max_examples=60, deadline=None)
def test_ladders_match_the_oracle(state, q):
    for j in range(1, state.n):
        assert_same(qalgebra.apply_E(state, j, q), ladder_per_term(state, j, q, j, j + 1))
        assert_same(qalgebra.apply_F(state, j, q), ladder_per_term(state, j, q, j + 1, j))


@given(st.integers(1, 3).flatmap(lambda n: st.integers(1, 4).flatmap(
    lambda N: st.tuples(states(st.just(n), st.just(N)), states(st.just(n), st.just(N))))))
@settings(max_examples=60, deadline=None)
def test_sub_and_norm_match_the_oracle(pair):
    a, b = pair
    for x, y in ((a, b), (b, a), (a, a), (a, a.add(b))):
        diff = x.sub(y)
        assert_same(diff, sub_by_scale(x, y))
        assert repr(diff.norm()) == repr(norm_by_numpy(diff))
