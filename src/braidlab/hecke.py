"""Tensor representation of the Hecke algebra on sparse states.

The rescaled braid operator r acts locally on two neighboring tensor factors:
it fixes equal letters, swaps an increasing pair with weight 1/q, and maps a
decreasing pair to 1/q times the swap plus (1 - 1/q^2) times itself.  The
generators satisfy the braid relations and r^2 = (1 - q^-2) r + q^-2.

The shuffle operator Y_N(z) = S_{N-1}(z) ... S_1(z), with
S_k(z) = 1 + z r_k + z^2 r_{k-1} r_k + ... + z^k r_1 ... r_k,
sends an ordered word to the sum of all its distinct permutations, each
weighted by z^l q^{-l} times a product of bracket factorials, where l is the
permutation length (inversion count).  z = q^2 gives the q-symmetrizer and
z = -1 the q-antisymmetrizer.
"""

from dataclasses import dataclass
from itertools import permutations
from math import isfinite

import numpy as np

from .errors import ValidationError
from .states import TensorState, Word

BraidWord = tuple[int, ...]

MAX_REDUCED_N = 8


@dataclass(frozen=True)
class RMatrix:
    """Dense n^2 x n^2 form of the rescaled braid operator."""

    n: int
    q: float
    entries: np.ndarray


def r_matrix(n: int, q: float) -> RMatrix:
    """The rescaled braid operator on V_n tensor V_n as a dense matrix."""
    if n < 2:
        raise ValidationError("r_matrix needs n >= 2")
    if q == 0:
        raise ValidationError("q must be nonzero (the crystal limit is handled separately)")
    m = np.zeros((n * n, n * n))

    def idx(a, b):
        return (a - 1) * n + (b - 1)

    c = 1.0 - q ** -2
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if a == b:
                m[idx(a, a), idx(a, a)] = 1.0
            else:
                m[idx(b, a), idx(a, b)] = 1.0 / q
                if a > b:
                    m[idx(a, b), idx(a, b)] = c
    return RMatrix(n, q, m)


def apply_generator(state: TensorState, i: int, q: float) -> TensorState:
    """Apply r at sites (i, i+1), 1 <= i <= N-1, without materializing matrices."""
    if not 1 <= i <= state.N - 1:
        raise ValidationError(f"generator index {i} out of range [1,{state.N - 1}]")
    if q == 0:
        raise ValidationError("q must be nonzero")
    c = 1.0 - q ** -2
    out = {}
    for w, amp in state.amps.items():
        x, y = w[i - 1], w[i]
        if x == y:
            out[w] = out.get(w, 0.0) + amp
            continue
        sw = w[:i - 1] + (y, x) + w[i + 1:]
        out[sw] = out.get(sw, 0.0) + amp / q
        if x > y:
            out[w] = out.get(w, 0.0) + amp * c
    # a swap of two letters keeps every word in [1,n]^N
    return TensorState._trusted(state.n, state.N, {w: a for w, a in out.items() if a != 0.0})


def shuffle_apply(state: TensorState, z, q: float) -> TensorState:
    """Apply the shuffle operator Y_N(z), factors S_1 first."""
    if q == 0 or not isfinite(q):
        raise ValidationError("q must be nonzero and finite")
    for k in range(1, state.N):
        acc = state
        cur = state
        zpow = 1.0
        for t in range(1, k + 1):
            cur = apply_generator(cur, k - t + 1, q)
            zpow = zpow * z
            acc = acc.add(cur.scale(zpow))
        state = acc
    return state


def q_symmetrize(state: TensorState, q: float) -> TensorState:
    return shuffle_apply(state, q ** 2, q)


def q_antisymmetrize(state: TensorState, q: float) -> TensorState:
    return shuffle_apply(state, -1.0, q)


def inversions(word: Word) -> int:
    """Number of out-of-order pairs; the permutation length of the word
    relative to its sorted arrangement."""
    return sum(1 for i in range(len(word)) for j in range(i + 1, len(word))
               if word[i] > word[j])


def bracket(m: int, z) -> float:
    """[[m]] at zeta = z^(1/2), evaluated as (z^m - 1)/(z - 1) to stay real."""
    if abs(z - 1.0) < 1e-12:
        return float(m)
    return (z ** m - 1.0) / (z - 1.0)


def bracket_factorial(m: int, z) -> float:
    out = 1.0
    for k in range(1, m + 1):
        out *= bracket(k, z)
    return out


def reduced_word(perm: tuple[int, ...]) -> BraidWord:
    """Canonical reduced word for a permutation, read off bubble sort.

    Bubble-sorting the one-line permutation to the identity uses exactly
    inv(perm) adjacent swaps; the reversed swap sequence is a reduced word
    building the permutation, one representative per group element.
    """
    p = list(perm)
    word = []
    changed = True
    while changed:
        changed = False
        for i in range(len(p) - 1):
            if p[i] > p[i + 1]:
                p[i], p[i + 1] = p[i + 1], p[i]
                word.append(i + 1)
                changed = True
    return tuple(reversed(word))


def reduced_words(N: int) -> list[BraidWord]:
    """All N! canonical reduced words of S_N, sorted by (length, word)."""
    if not 2 <= N <= MAX_REDUCED_N:
        raise ValidationError(f"reduced_words supports 2 <= N <= {MAX_REDUCED_N} "
                              "(factorial blow-up guard)")
    words = [reduced_word(p) for p in permutations(range(1, N + 1))]
    words.sort(key=lambda w: (len(w), w))
    return words


def reduced_words_by_length(N: int) -> dict[int, list[BraidWord]]:
    grouped: dict[int, list[BraidWord]] = {}
    for w in reduced_words(N):
        grouped.setdefault(len(w), []).append(w)
    return grouped


def word_sum_operator(N: int, ell: int, q: float, state: TensorState) -> TensorState:
    """Apply the sum of all reduced words of length ell, generators realized
    as q * r_i."""
    lmax = N * (N - 1) // 2
    if not 0 <= ell <= lmax:
        raise ValidationError(f"word length {ell} out of range [0,{lmax}]")
    if state.N != N:
        raise ValidationError(f"state has N={state.N}, expected {N}")
    return _word_sum(reduced_words_by_length(N).get(ell, []), q, state) if ell else state


def _word_sum(words: list[BraidWord], q: float, state: TensorState) -> TensorState:
    """Sum over the given braid words of each applied to state, in order."""
    total = TensorState.zero(state.n, state.N)
    for w in words:
        cur = state
        for i in reversed(w):
            cur = apply_generator(cur, i, q).scale(q)
        total = total.add(cur)
    return total


def conjecture_commutator_check(N: int, n: int, q: float) -> float:
    """Desk-scale check that word-length sums commute pairwise.

    Returns the maximum norm of [s_k, s_l] v over all basis states v and all
    pairs of lengths; evidence, not a proof.  The words are grouped once.
    """
    if N > 4 or n > 3:
        raise ValidationError("desk-scale check limited to N <= 4, n <= 3")
    from .states import all_words
    lmax = N * (N - 1) // 2
    by_length = reduced_words_by_length(N) if lmax else {}
    worst = 0.0
    for word in all_words(n, N):
        v = TensorState.basis(n, word)
        images = {ell: _word_sum(by_length[ell], q, v) for ell in range(1, lmax + 1)}
        for k in range(1, lmax + 1):
            for ell in range(k + 1, lmax + 1):
                ab = _word_sum(by_length[k], q, images[ell])
                ba = _word_sum(by_length[ell], q, images[k])
                worst = max(worst, ab.sub(ba).norm())
    return worst
