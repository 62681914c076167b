"""Sparse states in the N-fold tensor power of an n-dimensional space.

A state is a map from words (tuples of letters 1..n, length N) to scalar
amplitudes.  Operators act word by word, so the cost of one local operator
is linear in the number of stored amplitudes; the full n^N space is never
materialized except in the dense oracles used by the tests.  spectra builds
its weight blocks from ranked words, not from states; the per-word paths
that the tests hold those blocks to live in the test oracles.

States are validated at the public boundary only: the constructor, basis
and from_dense check every word.  Operators whose output words are valid by
construction (scale, add/sub of a state of the same shape, the Hecke
generators, the ladder and diagonal operators of qalgebra) build their
result with TensorState._trusted, which skips the per-word check.

The kernels step on amplitude dicts and build one state per public call:
sub adds the negated amplitudes in its own loop, and the multi-step
operators of hecke (the shuffle operator, the word sums) keep a plain dict
between generator steps and accumulate into it with _add_into, the loop of
add.
"""

from dataclasses import dataclass, field
from math import isfinite, sqrt

import numpy as np

from .errors import ValidationError

Word = tuple[int, ...]

_PRUNE = 0.0  # drop exact zeros only; cancellations are meaningful


@dataclass(frozen=True)
class TensorState:
    """Element of V_n^{⊗N}, stored as word -> amplitude.

    The constructor checks that every word lies in [1,n]^N.  Internal
    operators whose output is valid by construction use _trusted instead.
    """

    n: int
    N: int
    amps: dict = field(default_factory=dict)

    def __post_init__(self):
        _validate(self.n, self.N, self.amps)

    @classmethod
    def _trusted(cls, n: int, N: int, amps: dict) -> "TensorState":
        """A state whose words the caller guarantees to lie in [1,n]^N;
        no word is checked."""
        state = object.__new__(cls)
        state.__dict__.update(n=n, N=N, amps=amps)
        return state

    @classmethod
    def basis(cls, n: int, word: Word) -> "TensorState":
        word = tuple(word)
        return cls(n, len(word), {word: 1.0})

    @classmethod
    def zero(cls, n: int, N: int) -> "TensorState":
        return cls(n, N, {})

    def is_zero(self) -> bool:
        return not self.amps

    def norm(self) -> float:
        try:
            return sqrt(sum(abs(a) ** 2 for a in self.amps.values()))
        except OverflowError:   # a float power past 1.3e154 raises; a product gives inf
            return sqrt(sum(abs(a) * abs(a) for a in self.amps.values()))

    def inner(self, other: "TensorState") -> complex | float:
        """<self|other> with conjugation on self."""
        if len(self.amps) <= len(other.amps):
            pairs = ((a, other.amps.get(w)) for w, a in self.amps.items())
        else:
            pairs = ((self.amps.get(w), b) for w, b in other.amps.items())
        total = sum(np.conjugate(a) * b for a, b in pairs if a is not None and b is not None)
        total = complex(total)
        return total if total.imag != 0.0 else total.real

    def scale(self, c) -> "TensorState":
        if c == 0:
            return TensorState.zero(self.n, self.N)
        return TensorState._trusted(self.n, self.N, {w: c * a for w, a in self.amps.items()})

    def add(self, other: "TensorState") -> "TensorState":
        return self._plus(other, other.amps.items())

    def sub(self, other: "TensorState") -> "TensorState":
        # the amplitudes of other.scale(-1.0), not built as a state
        return self._plus(other, ((w, -1.0 * a) for w, a in other.amps.items()))

    def _plus(self, other: "TensorState", terms) -> "TensorState":
        # other's words are valid for self unless its shape differs
        if other.N != self.N or other.n > self.n:
            _validate(self.n, self.N, other.amps)
        out = dict(self.amps)
        _add_into(out, terms)
        return TensorState._trusted(self.n, self.N, out)

    def normalized(self) -> "TensorState":
        """Where the norm overflows, divided by the largest magnitude first."""
        nrm = self.norm()
        if nrm == 0.0:
            raise ValidationError("cannot normalize the zero state")
        if isfinite(nrm):
            return self.scale(1.0 / nrm)
        sizes = list(map(abs, self.amps.values()))
        if not all(map(isfinite, sizes)):
            raise ValidationError("cannot normalize a state with a non-finite amplitude")
        top = max(sizes)
        return TensorState._trusted(self.n, self.N,
                                    {w: a / top for w, a in self.amps.items()}).normalized()

    def to_dense(self) -> np.ndarray:
        """Row-major dense vector; index of word (i_1..i_N) is sum (i_k-1) n^(N-k)."""
        dtype = complex if any(isinstance(a, complex) for a in self.amps.values()) else float
        v = np.zeros(self.n ** self.N, dtype=dtype)
        for w, a in self.amps.items():
            v[word_index(w, self.n)] = a
        return v

    @classmethod
    def from_dense(cls, v: np.ndarray, n: int, N: int) -> "TensorState":
        amps = {}
        for idx, a in enumerate(v):
            if abs(a) > 0.0:
                amps[index_word(idx, n, N)] = complex(a) if np.iscomplexobj(v) else float(a)
        return cls(n, N, amps)


def _add_into(out: dict, terms) -> None:
    """Add (word, amplitude) terms into out in place; a word whose sum is
    exactly zero is dropped."""
    for w, a in terms:
        s = out.get(w, 0.0) + a
        if s == _PRUNE:
            out.pop(w, None)
        else:
            out[w] = s


def _validate(n: int, N: int, words) -> None:
    for w in words:
        if len(w) != N or any(x < 1 or x > n for x in w):
            raise ValidationError(f"word {w} not in [1,{n}]^{N}")


def word_index(word: Word, n: int) -> int:
    idx = 0
    for x in word:
        idx = idx * n + (x - 1)
    return idx


def index_word(idx: int, n: int, N: int) -> Word:
    out = []
    for _ in range(N):
        out.append(idx % n + 1)
        idx //= n
    return tuple(reversed(out))


def all_words(n: int, N: int) -> list[Word]:
    """All n^N words in lexicographic order."""
    return [index_word(i, n, N) for i in range(n ** N)]
