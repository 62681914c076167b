import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from braidlab import automata
from braidlab.errors import ValidationError

from oracles import chase_table, random_stochastic, random_unitary

EXA01_TABLE = {("q1", "a"): "q1", ("q1", "b"): "q2",
               ("q2", "a"): "q3", ("q2", "b"): "q2",
               ("q3", "a"): "q2", ("q3", "b"): "q2"}


def test_linearize_exa01_matrices():
    a = automata.example_exa01()
    assert np.array_equal(a.matrix("a"), [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    assert np.array_equal(a.matrix("b"), [[0, 0, 0], [1, 1, 1], [0, 0, 0]])


def test_linearize_e1_matrices():
    a = automata.example_e1()
    assert np.array_equal(a.matrix("a"),
                          [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 1, 1, 0]])
    assert np.array_equal(a.matrix("b"),
                          [[0, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 0]])


def test_linearize_empty_word_is_identity():
    a = automata.example_exa01()
    assert np.array_equal(automata.word_matrix(a, ""), np.eye(3))


def test_linearize_orders_states_and_letters_by_first_appearance():
    # targets count as appearances; a None target (undefined) does not
    a = automata.linearize([("s2", "b", "s3"), ("s1", "a", None), ("s3", "a", "s1"),
                            ("s1", "b", "s2"), (0, "c", 0)])
    assert a.state_labels == ("s2", "s3", "s1", "0")
    assert a.alphabet == ("b", "a", "c")
    assert a.matrix("a")[2, 1] == 1.0 and not a.matrix("a")[:, 2].any()


@pytest.mark.parametrize("kind", automata.KINDS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf)])
def test_transition_matrix_rejects_non_finite_entries(kind, bad):
    # the stochastic and unitary checks scale their tolerance by max |entry|,
    # so [[inf]] passes them
    with pytest.raises(ValidationError):
        automata.TransitionMatrix(np.array([[bad]]), kind)


def test_linearize_rejects_duplicates():
    with pytest.raises(ValidationError):
        automata.linearize([("q1", "a", "q1"), ("q1", "a", "q2")])


def test_linearize_rejects_unknown_target():
    with pytest.raises(ValidationError):
        automata.linearize([("q1", "a", "q9")], states=["q1", "q2"])


def test_run_word_examples():
    a = automata.example_exa01()
    assert np.array_equal(automata.run_word(a, "b"), [0, 1, 0])
    assert np.array_equal(automata.run_word(a, ""), [1, 0, 0])
    # table chase: b sends q1 to q2, then a sends q2 to q3
    assert np.array_equal(automata.run_word(a, "ba"), [0, 0, 1])


def test_run_word_rejects_unknown_letter():
    with pytest.raises(ValidationError):
        automata.run_word(automata.example_exa01(), "ax")


def test_dfa_accepts_examples():
    a = automata.example_exa01()
    assert automata.dfa_accepts(a, "b") is True
    assert automata.dfa_accepts(a, "") is False          # start not accepting
    assert automata.dfa_accepts(a, "ba") is False        # lands on q3


def test_dfa_accepts_zero_vector_never_accepts():
    a = automata.example_e1()
    assert automata.dfa_accepts(a, "aa") is True
    # from q4 every transition is undefined
    assert automata.dfa_accepts(a, "aaa") is False


def test_dfa_accepts_requires_combinatorial():
    m = automata.TransitionMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]), "stochastic")
    a = automata.Automaton(2, ("a",), {"a": m}, 1, frozenset([2]))
    with pytest.raises(ValidationError):
        automata.dfa_accepts(a, "a")


def test_acceptance_probability_stochastic_examples():
    p = 0.3
    ma = automata.TransitionMatrix(np.array([[p, 1.0], [1 - p, 0.0]]), "stochastic")
    mb = automata.TransitionMatrix(np.array([[1.0, 1 - p], [0.0, p]]), "stochastic")
    a = automata.Automaton(2, ("a", "b"), {"a": ma, "b": mb}, 1, frozenset([2]))
    assert automata.acceptance_probability(a, "a") == pytest.approx(1 - p)
    same_start = automata.Automaton(2, ("a", "b"), {"a": ma, "b": mb}, 1, frozenset([1]))
    assert automata.acceptance_probability(same_start, "") == 1.0


def test_acceptance_probability_quantum_example():
    a_amp, b_amp = 0.6, complex(0, 0.8)
    m = automata.TransitionMatrix(
        np.array([[a_amp, b_amp], [-np.conj(b_amp), np.conj(a_amp)]]), "unitary")
    qa = automata.Automaton(2, ("1",), {"1": m}, 1, frozenset([2]))
    assert automata.acceptance_probability(qa, ["1"]) == pytest.approx(abs(b_amp) ** 2)


def test_acceptance_probability_rejects_combinatorial():
    with pytest.raises(ValidationError):
        automata.acceptance_probability(automata.example_exa01(), "a")


def test_tree_order_paper_example():
    assert automata.tree_order_enumerate(["a", "b", "c"], 2) == [
        "", "a", "b", "c", "aa", "ba", "ca", "ab", "bb", "cb", "ac", "bc", "cc"]


def test_tree_order_trivial_and_two_letter():
    assert automata.tree_order_enumerate(["a", "b"], 0) == [""]
    assert automata.tree_order_enumerate(["a", "b"], 2) == [
        "", "a", "b", "aa", "ba", "ab", "bb"]


@given(st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=4))
def test_tree_order_count(n, max_len):
    alphabet = [chr(ord("a") + i) for i in range(n)]
    words = automata.tree_order_enumerate(alphabet, max_len)
    assert len(words) == (n ** (max_len + 1) - 1) // (n - 1)
    assert len(set(words)) == len(words)


def test_to_dot_counts():
    dot = automata.to_dot(automata.example_exa01())
    assert dot.count("shape=circle") == 2
    assert dot.count("shape=doublecircle") == 1
    assert dot.count("->") == 6 + 1  # six transitions plus the start marker


def test_to_dot_no_transitions():
    a = automata.linearize([], states=["q1", "q2"], alphabet=["a"])
    dot = automata.to_dot(a)
    assert "label=\"a" not in dot
    assert "s1" in dot and "s2" in dot


@st.composite
def words(draw, alphabet="ab", max_len=6):
    return "".join(draw(st.lists(st.sampled_from(alphabet), max_size=max_len)))


@given(words(), words())
@settings(max_examples=60)
def test_composition_law(u, v):
    a = automata.example_exa01()
    lhs = automata.word_matrix(a, u + v)
    rhs = automata.word_matrix(a, u) @ automata.word_matrix(a, v)
    assert np.array_equal(lhs, rhs)


@given(words())
@settings(max_examples=40)
def test_run_word_matches_reversed_product(w):
    a = automata.example_exa01()
    e1 = np.array([1.0, 0.0, 0.0])
    assert np.array_equal(automata.run_word(a, w),
                          automata.word_matrix(a, w[::-1]) @ e1)


def test_dfa_agrees_with_table_chase_on_random_words():
    a = automata.example_exa01()
    rng = np.random.default_rng(7)
    for _ in range(1000):
        w = "".join(rng.choice(["a", "b"], size=rng.integers(0, 9)))
        end = chase_table(EXA01_TABLE, "q1", w)
        assert automata.dfa_accepts(a, w) == (end == "q2")


@st.composite
def random_dfas(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    letters = ["a", "b", "c"][:draw(st.integers(min_value=1, max_value=3))]
    states = [f"q{i}" for i in range(1, n + 1)]
    table = {}
    for s in states:
        for x in letters:
            target = draw(st.sampled_from(states + [None]))
            if target is not None:
                table[(s, x)] = target
    accepting = draw(st.lists(st.sampled_from(states), unique=True))
    word = "".join(draw(st.lists(st.sampled_from(letters), max_size=8)))
    return table, states, letters, accepting, word


@given(random_dfas())
@settings(max_examples=80, deadline=None)
def test_random_dfa_matches_table_chase(case):
    table, states, letters, accepting, word = case
    a = automata.linearize(
        [(s, x, t) for (s, x), t in table.items()],
        states=states, alphabet=letters, start="q1", accepting=accepting)
    end = chase_table(table, "q1", word)
    assert automata.dfa_accepts(a, word) == (end in accepting)


def test_kind_preservation_under_products():
    rng = np.random.default_rng(3)
    s = random_stochastic(4, rng)
    t = random_stochastic(4, rng)
    assert automata.is_stochastic(s @ t, tol=1e-12)
    u = random_unitary(4, rng)
    v = random_unitary(4, rng)
    assert automata.is_unitary(u @ v, tol=1e-12)
    a = automata.example_exa01()
    prod = a.matrix("a") @ a.matrix("b")
    assert automata.is_combinatorial(prod)


def test_kind_validation_rejections():
    with pytest.raises(ValidationError):
        automata.TransitionMatrix(np.array([[0.5, 0], [0, 1]]), "combinatorial")
    with pytest.raises(ValidationError):
        automata.TransitionMatrix(np.array([[0.5, 0], [0.4, 1]]), "stochastic")
    with pytest.raises(ValidationError):
        automata.TransitionMatrix(np.array([[1, 1], [0, 1]]), "unitary")


def test_json_round_trip():
    a = automata.example_e1()
    b = automata.from_json(automata.to_json(a))
    assert b.alphabet == a.alphabet
    assert b.start == a.start and b.accepting == a.accepting
    for letter in a.alphabet:
        assert np.array_equal(a.matrix(letter), b.matrix(letter))


def test_json_round_trip_unitary():
    rng = np.random.default_rng(5)
    m = automata.TransitionMatrix(random_unitary(3, rng), "unitary")
    a = automata.Automaton(3, ("u",), {"u": m}, 2, frozenset([3]))
    b = automata.from_json(automata.to_json(a))
    assert np.allclose(a.matrix("u"), b.matrix("u"))
    assert b.kind == "unitary"


def test_complete_with_sink():
    a = automata.example_e1()          # q4 has undefined transitions
    full = automata.complete_with_sink(a)
    assert full.n_states == 5
    for letter in full.alphabet:
        assert full.matrix(letter).sum(axis=0).min() == 1.0
    # already-complete automaton is returned unchanged
    b = automata.example_exa01()
    assert automata.complete_with_sink(b) is b
