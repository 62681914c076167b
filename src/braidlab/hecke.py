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

Every operator here steps on amplitude dicts through one private generator
step, _generator_step, and builds one state per public call: apply_generator
wraps the step, r_matrix takes each column from it, and the shuffle operator
and the word sums keep a dict between steps.  The word sums apply each
reduced-word suffix once per summed state: the canonical reduced words are
suffix-closed, so a memo of suffix images (_word_sum) applies each of the
N! - 1 nonempty suffixes once, where one word at a time applies every letter
of every word.

Each public operator holds q to the q rule (errors.check_q) once, for the
1/q and q^-2 of the generator step and, in q_symmetrize, z = q^2.
"""

from collections import Counter
from itertools import permutations
from math import fsum, isnan

import numpy as np

from .errors import SizeGuardError, ValidationError, check_q, check_sparse_words
from .states import TensorState, Word, _add_into, all_words
from .tableaux import multinomial

BraidWord = tuple[int, ...]

MAX_REDUCED_N = 8


def r_matrix(n: int, q: float) -> np.ndarray:
    """The rescaled braid operator on V_n tensor V_n as a dense matrix, in
    the lexicographic word basis: column w is the generator step on w."""
    if n < 2:
        raise ValidationError("r_matrix needs n >= 2")
    check_q(q, -2, 0)  # the crystal limit q -> 0 is handled separately
    m = np.zeros((n * n, n * n))
    for col, w in enumerate(all_words(n, 2)):
        for (a, b), amp in _generator_step({w: 1.0}, 1, q).items():
            m[(a - 1) * n + b - 1, col] = amp
    return m


def apply_generator(state: TensorState, i: int, q: float) -> TensorState:
    """Apply r at sites (i, i+1), 1 <= i <= N-1, without materializing matrices."""
    if not 1 <= i <= state.N - 1:
        raise ValidationError(f"generator index {i} out of range [1,{state.N - 1}]")
    check_q(q, -2, 0)
    # a swap of two letters keeps every word in [1,n]^N
    return TensorState._trusted(state.n, state.N, _generator_step(state.amps, i, q))


def _generator_step(amps: dict, i: int, q: float) -> dict:
    """r at sites (i, i+1) on an amplitude dict, as a new dict without exact
    zeros; i and q are the caller's to check, q by check_q(q, -2, 0): the
    step forms 1/q and q^-2."""
    c = 1.0 - q ** -2
    out = {}
    for w, amp in amps.items():
        x, y = w[i - 1], w[i]
        if x == y:
            out[w] = out.get(w, 0.0) + amp
            continue
        sw = w[:i - 1] + (y, x) + w[i + 1:]
        out[sw] = out.get(sw, 0.0) + amp / q
        if x > y:
            out[w] = out.get(w, 0.0) + amp * c
    if 0.0 in out.values():
        out = {w: a for w, a in out.items() if a != 0.0}
    return out


def shuffle_apply(state: TensorState, z, q: float) -> TensorState:
    """Apply the shuffle operator Y_N(z), factors S_1 first.  Its states
    hold rearrangements of the input words only; their count is bounded first."""
    check_q(q, -2, 0)
    contents = {tuple(sorted(w)) for w in state.amps}
    check_sparse_words(sum(map(_rearrangements, contents)), "shuffled state")
    amps = state.amps
    for k in range(1, state.N):
        acc = dict(amps)
        cur = amps
        zpow = 1.0
        for t in range(1, k + 1):
            cur = _generator_step(cur, k - t + 1, q)
            zpow = zpow * z
            if zpow != 0:  # z^t = 0 adds no term, so an input's zero amplitude stays
                _add_into(acc, ((w, zpow * a) for w, a in cur.items()))
        amps = acc
    return TensorState._trusted(state.n, state.N, amps)


def _rearrangements(word: Word) -> int:
    """Distinct rearrangements of a word: the multinomial of its letter counts."""
    return multinomial(Counter(word).values())


def q_symmetrize(state: TensorState, q: float) -> TensorState:
    """Y_N(q^2)."""
    check_q(q, -2, 2)
    return shuffle_apply(state, q ** 2, q)


def q_antisymmetrize(state: TensorState, q: float) -> TensorState:
    return shuffle_apply(state, -1.0, q)


def bracket(m: int, z) -> float:
    """[[m]] at zeta = z^(1/2), (z^m - 1)/(z - 1) as the sum 1 + z + ... +
    z^(m-1), correctly rounded (math.fsum): real, and free of the quotient's
    loss of about eps/|z - 1| relative near z = 1."""
    return fsum(z ** i for i in range(m))


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
    """All N! canonical reduced words of S_N, sorted by (length, word); N
    past MAX_REDUCED_N is a size refusal, N < 2 a validation error."""
    if not 2 <= N <= MAX_REDUCED_N:
        error = ValidationError if N < 2 else SizeGuardError
        raise error(f"reduced_words supports 2 <= N <= {MAX_REDUCED_N} "
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
    check_q(q, -2, 0)
    if not ell:
        return state
    words = reduced_words_by_length(N).get(ell, [])
    return TensorState._trusted(state.n, N, _word_sum(words, q, {(): state.amps}))


def _word_sum(words: list[BraidWord], q: float, images: dict) -> dict:
    """Amplitudes of the sum over the given braid words, in order, of each
    applied to one state.  images maps () to that state's amplitudes and
    keeps the image of every suffix applied so far, so a memo kept across
    calls applies each suffix once."""
    total = {}
    for w in words:
        _add_into(total, _word_image(w, q, images).items())
    return total


def _word_image(word: BraidWord, q: float, images: dict) -> dict:
    """q r_{word[0]} applied to the image of word[1:], memoized in images."""
    image = images.get(word)
    if image is None:
        rest = _word_image(word[1:], q, images)
        image = {w: q * a for w, a in _generator_step(rest, word[0], q).items()}
        images[word] = image
    return image


def conjecture_commutator_check(N: int, n: int, q: float) -> float:
    """Desk-scale check that word-length sums commute pairwise.

    Returns the maximum norm of [s_k, s_l] v over all basis states v and all
    pairs of lengths, or NaN as soon as one norm is NaN; evidence, not a
    proof.  The words are grouped once, and every s_l of one state comes
    from one memo of its suffix images.
    """
    if N > 4 or n > 3:
        raise ValidationError("desk-scale check limited to N <= 4, n <= 3")
    check_q(q, -2, 0)
    lmax = N * (N - 1) // 2
    by_length = reduced_words_by_length(N) if lmax else {}
    lengths = range(1, lmax + 1)
    worst = 0.0
    for word in all_words(n, N):
        # suffix memos: one of the basis state, then one of each image s_ell v
        memo = {(): {word: 1.0}}
        images = {ell: {(): _word_sum(by_length[ell], q, memo)} for ell in lengths}
        for k in lengths:
            for ell in range(k + 1, lmax + 1):
                ab = TensorState._trusted(n, N, _word_sum(by_length[k], q, images[ell]))
                ba = TensorState._trusted(n, N, _word_sum(by_length[ell], q, images[k]))
                residual = ab.sub(ba).norm()
                if isnan(residual):
                    return residual
                worst = max(worst, residual)
    return worst
