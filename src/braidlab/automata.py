"""Linearized finite automata.

States are the standard basis vectors of R^n (or C^n), transitions are n x n
matrices, and a word acts by multiplying its letters' matrices.  Undefined
transitions map to the zero vector, so transition matrices may have zero
columns.  Kinds: combinatorial (deterministic), stochastic (probabilistic),
unitary (quantum), general.

A combinatorial matrix is held as its target array, one int64 per state:
targets[s] is the index of the state that s moves to, -1 where s has no
transition.  Word runs, acceptance, word matrices, sink completion and DOT
export work on those arrays, so an automaton of s states holds O(s) numbers
per letter; the dense 0/1 matrix is built only where it is read
(TransitionMatrix.entries, Automaton.matrix, word_matrix, to_json).  The
other kinds hold their dense entries.
"""

import json
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import ValidationError

KINDS = ("combinatorial", "stochastic", "unitary", "general")
KIND_TOL = 1e-12

SCHEMA = "braidlab/1"


def is_combinatorial(entries: np.ndarray) -> bool:
    """Each column is a 0/1 vector with at most one 1."""
    if np.iscomplexobj(entries) and np.any(entries.imag != 0):
        return False
    m = entries.real
    if not np.all((m == 0.0) | (m == 1.0)):
        return False
    return bool(np.all(m.sum(axis=0) <= 1))


def is_stochastic(entries: np.ndarray) -> bool:
    if np.iscomplexobj(entries) and np.any(entries.imag != 0):
        return False
    m = entries.real
    if np.any(m < -KIND_TOL):
        return False
    scale = max(1.0, float(np.abs(m).max(initial=1.0)))
    return bool(np.all(np.abs(m.sum(axis=0) - 1.0) <= KIND_TOL * scale))


def is_unitary(entries: np.ndarray) -> bool:
    n = entries.shape[0]
    scale = max(1.0, float(np.abs(entries).max()))
    return bool(np.abs(entries.conj().T @ entries - np.eye(n)).max() <= KIND_TOL * scale)


_KIND_CHECKS = {
    "combinatorial": is_combinatorial,
    "stochastic": is_stochastic,
    "unitary": is_unitary,
    "general": lambda m: True,
}


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """An n x n transition matrix of finite entries, tagged with its kind.

    ``TransitionMatrix(m, kind)`` checks the dense matrix m against the
    kind's invariant.  The combinatorial kind is then held as its target
    array alone (``targets``); ``from_targets`` builds one from that array
    directly, and ``entries`` builds the dense float 0/1 matrix on first
    read.
    """

    matrix: InitVar[np.ndarray | None]
    kind: str = "general"
    targets: np.ndarray | None = None
    _dense: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self, matrix):
        if self.targets is not None:
            if self.kind != "combinatorial" or matrix is not None:
                raise ValidationError("targets are given alone, for the combinatorial kind")
            t = np.asarray(self.targets)
            if t.ndim != 1 or (t.size and not np.issubdtype(t.dtype, np.integer)):
                raise ValidationError("targets must be a one-dimensional integer array")
            if t.size and (t.min() < -1 or t.max() >= t.size):
                raise ValidationError(f"targets must lie in [-1,{t.size - 1}]")
            object.__setattr__(self, "targets", t.astype(np.int64))
            return
        m = np.asarray(matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"transition matrix must be square, got shape {m.shape}")
        if self.kind != "combinatorial" and not np.isfinite(m).all():  # 0/1 is finite
            raise ValidationError("transition matrix entries must be finite")
        if self.kind not in KINDS:
            raise ValidationError(f"unknown kind {self.kind!r}, expected one of {KINDS}")
        if not _KIND_CHECKS[self.kind](m):
            raise ValidationError(f"matrix does not satisfy the {self.kind} invariant")
        if self.kind == "combinatorial":
            hit = m.real.any(axis=0)
            targets = m.real.argmax(axis=0) if m.size else np.zeros(0, dtype=np.int64)
            object.__setattr__(self, "targets", np.where(hit, targets, -1).astype(np.int64))
        else:
            object.__setattr__(self, "_dense", m)

    @classmethod
    def from_targets(cls, targets) -> "TransitionMatrix":
        """The combinatorial matrix sending state s to targets[s] (0-based),
        with no transition where targets[s] = -1."""
        return cls(None, "combinatorial", targets)

    @property
    def entries(self) -> np.ndarray:
        """The dense n x n matrix."""
        if self._dense is None:
            m = np.zeros((self.n, self.n))
            src = np.flatnonzero(self.targets >= 0)
            m[self.targets[src], src] = 1.0
            object.__setattr__(self, "_dense", m)
        return self._dense

    @property
    def n(self) -> int:
        return len(self.targets) if self.targets is not None else self._dense.shape[0]


@dataclass(frozen=True)
class Automaton:
    """Linearized automaton: transition matrices plus start/accepting data.

    State indices are 1-based in the API, matching the q_1..q_n labels used
    in all I/O; matrix row/column i-1 carries state i.
    """

    n_states: int
    alphabet: tuple
    transitions: dict
    start: int
    accepting: frozenset
    state_labels: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        if not self.state_labels:
            object.__setattr__(self, "state_labels",
                               tuple(f"q{i}" for i in range(1, self.n_states + 1)))
        if len(self.state_labels) != self.n_states:
            raise ValidationError("state_labels length must equal n_states")
        if set(self.transitions) != set(self.alphabet):
            raise ValidationError("transitions must cover exactly the alphabet")
        kinds = {t.kind for t in self.transitions.values()}
        if len(kinds) > 1:
            raise ValidationError(f"all transition matrices must share one kind, got {kinds}")
        for a, t in self.transitions.items():
            if t.n != self.n_states:
                raise ValidationError(f"matrix for {a!r} is {t.n}x{t.n}, expected {self.n_states}")
        if not 1 <= self.start <= self.n_states:
            raise ValidationError(f"start state {self.start} out of range [1,{self.n_states}]")
        for s in self.accepting:
            if not 1 <= s <= self.n_states:
                raise ValidationError(f"accepting state {s} out of range [1,{self.n_states}]")

    @property
    def kind(self) -> str:
        return next(iter(self.transitions.values())).kind if self.transitions else "combinatorial"

    def transition(self, letter) -> TransitionMatrix:
        try:
            return self.transitions[letter]
        except KeyError:
            raise ValidationError(f"unknown letter {letter!r}") from None

    def matrix(self, letter) -> np.ndarray:
        """The dense matrix of a letter (built on first read for the
        combinatorial kind)."""
        return self.transition(letter).entries


def linearize(table, states=None, alphabet=None, start=1, accepting=()) -> Automaton:
    """Linearize an abstract transition table into combinatorial target arrays.

    ``table`` is either a mapping (state, letter) -> target or an iterable of
    (state, letter, target) triples; a repeated (state, letter) pair is
    rejected.  Undefined transitions become -1 targets (zero columns).
    States and letters default to their order of first appearance.
    ``start`` and ``accepting`` may be state labels; values that are not
    labels are taken as 1-based indices.
    """
    if hasattr(table, "items"):
        triples = [(s, a, t) for (s, a), t in table.items()]
    else:
        triples = [tuple(row) for row in table]
    seen = set()
    for s, a, _ in triples:
        if (s, a) in seen:
            raise ValidationError(f"duplicate transition for state {s!r}, letter {a!r}")
        seen.add((s, a))
    if states is None:
        states = dict.fromkeys(x for s, _, t in triples for x in (s, t) if x is not None)
    states = list(states)
    if not states:
        raise ValidationError("no states")
    if alphabet is None:
        alphabet = list(dict.fromkeys(a for _, a, _ in triples))
    if not alphabet:
        raise ValidationError("no letters")
    index = {s: i for i, s in enumerate(states)}
    targets = {a: np.full(len(states), -1, dtype=np.int64) for a in alphabet}
    for s, a, t in triples:
        if t is None:
            continue
        if s not in index or t not in index or a not in targets:
            raise ValidationError(f"transition ({s!r}, {a!r}) -> {t!r} references "
                                  "an unknown state or letter")
        targets[a][index[s]] = index[t]
    transitions = {a: TransitionMatrix.from_targets(t) for a, t in targets.items()}
    if start in index:
        start = index[start] + 1
    accepting = frozenset(index[s] + 1 if s in index else s for s in accepting)
    return Automaton(len(states), tuple(alphabet), transitions, int(start), accepting,
                     tuple(str(s) for s in states))


def word_matrix(a: Automaton, word) -> np.ndarray:
    """M_w with the prefix composition law M_uv = M_u M_v (M_eps = I).

    The first letter of the word is the leftmost factor, matching the
    convention that prefixing a letter multiplies on the left.  To evolve a
    state by reading a word left to right, use run_word, which applies the
    reversed product.  A combinatorial automaton composes its target arrays
    and builds the dense matrix once, at the end.
    """
    if a.kind == "combinatorial":
        t = np.arange(a.n_states)
        for letter in word:
            step = a.transition(letter).targets
            t = np.where(step >= 0, t[step], -1)
        return TransitionMatrix.from_targets(t).entries
    m = np.eye(a.n_states, dtype=a.matrix(a.alphabet[0]).dtype if a.alphabet else float)
    for letter in word:
        m = m @ a.matrix(letter)
    return m


def _run_index(a: Automaton, word) -> int:
    """0-based state a combinatorial automaton reaches by reading the word
    from the start state, -1 once a transition is undefined; every letter
    is looked up, so an unknown one raises even after that."""
    s = a.start - 1
    for letter in word:
        t = a.transition(letter).targets
        s = int(t[s]) if s >= 0 else -1
    return s


def run_word(a: Automaton, word) -> np.ndarray:
    """State vector after reading the word left to right from the start state."""
    if a.kind == "combinatorial":
        v = np.zeros(a.n_states)
        s = _run_index(a, word)
        if s >= 0:
            v[s] = 1.0
        return v
    v = np.zeros(a.n_states, dtype=complex if a.kind == "unitary" else float)
    v[a.start - 1] = 1.0
    for letter in word:
        v = a.matrix(letter) @ v
    return v


def dfa_accepts(a: Automaton, word) -> bool:
    """True iff the run ends on an accepting basis vector (zero never accepts)."""
    if a.kind != "combinatorial":
        raise ValidationError(f"dfa_accepts requires a combinatorial automaton, got {a.kind}")
    s = _run_index(a, word)
    return s >= 0 and s + 1 in a.accepting


def acceptance_probability(a: Automaton, word) -> float:
    """Probability of accepting a word.

    Stochastic: total probability mass on the accepting states after the run.
    Unitary: sum of |amplitude|^2 over the accepting states.  The sum-over-F
    reading extends the single-final-state quantum case.
    """
    if a.kind == "stochastic":
        v = run_word(a, word)
        return float(sum(v[s - 1] for s in a.accepting))
    if a.kind == "unitary":
        v = run_word(a, word)
        return float(sum(abs(v[s - 1]) ** 2 for s in a.accepting))
    raise ValidationError(f"acceptance_probability requires stochastic or unitary kind, got {a.kind}")


def tree_order_enumerate(alphabet, max_len: int) -> list:
    """All words of length <= max_len in length-plus-lexicographic tree order.

    The tree grows a word w into a_1 w, a_2 w, ..., so words of equal length
    are ordered by reading them right to left in the alphabet order.
    """
    alphabet = list(alphabet)
    if max_len < 0:
        raise ValidationError("max_len must be >= 0")
    if not alphabet:
        raise ValidationError("alphabet must be nonempty")
    if len(set(alphabet)) != len(alphabet):
        raise ValidationError("alphabet letters must be distinct")
    out = [()]
    level = [()]
    for _ in range(max_len):
        level = [(a,) + w for w in level for a in alphabet]
        out.extend(level)
    if all(isinstance(a, str) for a in alphabet):
        return ["".join(w) for w in out]
    return out


def complete_with_sink(a: Automaton) -> Automaton:
    """Completion transform: route every undefined transition to a new state "sink"."""
    if a.kind != "combinatorial":
        raise ValidationError("sink completion is defined for combinatorial automata")
    n = a.n_states
    targets = {letter: a.transition(letter).targets for letter in a.alphabet}
    if all(t.min(initial=0) >= 0 for t in targets.values()):
        return a
    transitions = {letter: TransitionMatrix.from_targets(np.append(np.where(t >= 0, t, n), n))
                   for letter, t in targets.items()}
    return Automaton(n + 1, a.alphabet, transitions, a.start, a.accepting,
                     a.state_labels + ("sink",))


def to_dot(a: Automaton) -> str:
    """DOT digraph: edges labeled "letter;weight" (weight omitted when 1),
    start state marked, accepting states double-circled, zero transitions
    omitted.  Edges come letter by letter, by source state, then by target."""
    lines = ["digraph automaton {", "  rankdir=LR;", '  __start [shape=none, label=""];']
    for i, label in enumerate(a.state_labels, start=1):
        shape = "doublecircle" if i in a.accepting else "circle"
        lines.append(f'  s{i} [shape={shape}, label="{label}"];')
    lines.append(f"  __start -> s{a.start};")
    for letter in a.alphabet:
        t = a.transition(letter)
        if t.targets is not None:
            lines.extend(f'  s{y + 1} -> s{x + 1} [label="{letter}"];'
                         for y, x in enumerate(t.targets.tolist()) if x >= 0)
            continue
        m = t.entries
        for y, x in zip(*np.nonzero(m.T)):
            w = m[x, y]
            tag = f"{letter}" if w == 1 else f"{letter};{_fmt_weight(w)}"
            lines.append(f'  s{y + 1} -> s{x + 1} [label="{tag}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _fmt_weight(w) -> str:
    if isinstance(w, complex) and w.imag != 0:
        return f"{w.real:.6g}{w.imag:+.6g}i"
    return f"{complex(w).real:.6g}"


def to_json(a: Automaton) -> str:
    """JSON description {states, alphabet, kind, matrices, start, accepting}."""
    def matrix_payload(m):
        if np.iscomplexobj(m) and np.any(m.imag != 0):
            return [[{"re": float(z.real), "im": float(z.imag)} for z in row] for row in m]
        return [[float(np.real(z)) for z in row] for row in m]

    payload = {
        "schema": SCHEMA,
        "states": list(a.state_labels),
        "alphabet": [str(x) for x in a.alphabet],
        "kind": a.kind,
        "matrices": {str(letter): matrix_payload(a.matrix(letter)) for letter in a.alphabet},
        "start": a.start,
        "accepting": sorted(a.accepting),
    }
    return json.dumps(payload, indent=2, sort_keys=False)


def from_json(text: str) -> Automaton:
    """The automaton of to_json; start and accepting states must be JSON integers."""
    try:
        payload = json.loads(text)
    except ValueError as exc:            # JSONDecodeError, or an integer too long to parse
        raise ValidationError(f"bad automaton JSON: {exc}") from exc
    try:
        labels = tuple(payload["states"])
        alphabet = tuple(payload["alphabet"])
        kind = payload["kind"]
        n = len(labels)

        def parse_matrix(rows):
            def cell(z):
                return complex(z["re"], z["im"]) if isinstance(z, dict) else z
            m = np.array([[cell(z) for z in row] for row in rows])
            return m if np.iscomplexobj(m) else m.astype(float)

        transitions = {a: TransitionMatrix(parse_matrix(payload["matrices"][a]), kind)
                       for a in alphabet}
        start, accepting = payload["start"], list(payload["accepting"])
        if any(type(s) is not int for s in [start, *accepting]):
            raise ValidationError("bad automaton JSON: start and the accepting states "
                                  "must be integers")
        return Automaton(n, alphabet, transitions, start, frozenset(accepting), labels)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad automaton JSON: missing/ill-typed field ({exc})") from exc


def example_exa01() -> Automaton:
    """The 3-state automaton with a-loop on q1, b to q2, and a/b back-edges."""
    table = [("q1", "a", "q1"), ("q1", "b", "q2"),
             ("q2", "a", "q3"), ("q2", "b", "q2"),
             ("q3", "a", "q2"), ("q3", "b", "q2")]
    return linearize(table, states=["q1", "q2", "q3"], alphabet=["a", "b"],
                     start="q1", accepting=["q2"])


def example_e1() -> Automaton:
    """The 4-state automaton with two b-loops and a-paths into the accepting q4."""
    table = [("q1", "a", "q2"), ("q1", "b", "q3"),
             ("q2", "a", "q4"), ("q2", "b", "q2"),
             ("q3", "a", "q4"), ("q3", "b", "q3")]
    return linearize(table, states=["q1", "q2", "q3", "q4"], alphabet=["a", "b"],
                     start="q1", accepting=["q4"])
