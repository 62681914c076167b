"""Coproduct action operators, q-Dicke canonical basis states, crystal limit.

The raising/lowering operators act on a word site by site with q^{+-s_j/2}
tails: the local term at position k converts one letter (j <-> j+1) and
multiplies by q to the half-difference of (j count minus j+1 count) on each
side, negative on the left, positive on the right.

A q-Dicke state for a multiplicity label (m_1, ..., m_n) is the normalized
q-symmetrization of the ordered word x_1^{m_1} ... x_n^{m_n}; its coefficient
on a permuted word is q^(inversions).  These states are orthonormal and carry
the closed-form canonical action

    E_j b(..., k_j, k_{j+1}, ...) = sqrt([k_{j+1}+1]_q [k_j]_q) b(..., k_j - 1, k_{j+1} + 1, ...)

with F_j inverting it at the same coefficient and q^{H_j} acting by
q^(k_j - k_{j+1}).  At q -> 0 the states collapse onto their ordered words
and E/F degenerate to the combinatorial crystal moves.

Each public call holds q to the q rule (errors.check_q) for the largest
power of q it forms: q^(+-(N-1)/2) for the ladder tails, q^(+-N) for
q^{H_j}, q^N for q^{eps_j}, q^(+-(k-1)) for [k]_q and q^(N(N-1)) for the
q-Dicke brackets [[N]]! at q^2.
"""

from itertools import combinations
from math import comb, factorial, frexp, fsum, ldexp

import numpy as np

from . import automata
from .errors import (ValidationError, check_dense_dim, check_held_entries, check_q,
                     check_sparse_words)
from .hecke import bracket_factorial, q_symmetrize
from .states import TensorState, Word

DickeLabel = tuple[int, ...]


def q_number(k: int, q: float) -> float:
    """[k]_q = (q^k - q^-k)/(q - q^-1) as the sum q^(k-1) + q^(k-3) + ...
    + q^(1-k), correctly rounded (math.fsum), and [-k]_q = -[k]_q: free of
    the quotient's loss of about eps/|q - 1| relative near q = 1.  q is held
    to the rule for k powers q^(+-(k-1))."""
    if k < 0:
        return -q_number(-k, q)
    check_q(q, 1 - k, k - 1, k)
    return fsum(q ** (k - 1 - 2 * i) for i in range(k))


def q_factorial(k: int, q: float) -> float:
    """[k]_q! = [1]_q ... [k]_q: the product of k! powers up to
    q^(+-k(k-1)/2)."""
    check_q(q, -k * (k - 1) // 2, k * (k - 1) // 2, factorial(k))
    out = 1.0
    for j in range(1, k + 1):
        out *= q_number(j, q)
    return out


def q_binomial(m: int, k: int, q: float) -> float:
    if not 0 <= k <= m:
        raise ValidationError(f"q_binomial needs 0 <= k <= m, got k={k}, m={m}")
    return q_factorial(m, q) / (q_factorial(k, q) * q_factorial(m - k, q))


def _check_species_index(j: int, n: int, diagonal: bool) -> None:
    top = n if diagonal else n - 1
    if not 1 <= j <= top:
        raise ValidationError(f"operator index {j} out of range [1,{top}]")


def _apply_ladder(state: TensorState, j: int, q: float, source: int, target: int) -> TensorState:
    out = {}
    powers = {}  # tail exponent e -> q ** (0.5 * e)
    for w, amp in state.amps.items():
        # tail exponent at k: half of (j count - j+1 count) right of k minus
        # the same left of k, from the word total and a running count to k
        total, left = w.count(j) - w.count(j + 1), 0
        for k, x in enumerate(w):
            step = (x == j) - (x == j + 1)
            left += step
            if x != source:
                continue
            w2 = w[:k] + (target,) + w[k + 1:]
            e = total + step - 2 * left
            power = powers.get(e)
            if power is None:
                power = powers[e] = q ** (0.5 * e)
            coeff = amp * power
            s = out.get(w2, 0.0) + coeff
            if s == 0.0:
                out.pop(w2, None)
            else:
                out[w2] = s
    # source and target lie in [1,n] once _check_species_index has passed
    return TensorState._trusted(state.n, state.N, out)


def apply_E(state: TensorState, j: int, q: float) -> TensorState:
    """Raising operator: one letter j becomes j+1."""
    _check_species_index(j, state.n, diagonal=False)
    check_q(q, (1 - state.N) / 2, (state.N - 1) / 2)
    return _apply_ladder(state, j, q, source=j, target=j + 1)


def apply_F(state: TensorState, j: int, q: float) -> TensorState:
    """Lowering operator: one letter j+1 becomes j."""
    _check_species_index(j, state.n, diagonal=False)
    check_q(q, (1 - state.N) / 2, (state.N - 1) / 2)
    return _apply_ladder(state, j, q, source=j + 1, target=j)


def apply_qEps(state: TensorState, j: int, q: float) -> TensorState:
    """Diagonal operator: multiplies each word by q^(count of letter j)."""
    _check_species_index(j, state.n, diagonal=True)
    check_q(q, 0, state.N)
    return TensorState._trusted(state.n, state.N,
                                {w: a * q ** w.count(j) for w, a in state.amps.items()})


def apply_qH(state: TensorState, j: int, q: float) -> TensorState:
    """Diagonal operator: q^(count of j minus count of j+1) per word."""
    _check_species_index(j, state.n, diagonal=False)
    check_q(q, -state.N, state.N)
    return TensorState._trusted(state.n, state.N,
                                {w: a * q ** (w.count(j) - w.count(j + 1))
                                 for w, a in state.amps.items()})


def check_label(n: int, N: int, label) -> DickeLabel:
    label = tuple(int(m) for m in label)
    if len(label) != n or any(m < 0 or m > N for m in label) or sum(label) != N:
        raise ValidationError(f"label {label} is not a composition of {N} into {n} parts")
    return label


def dicke_labels(n: int, N: int) -> list[DickeLabel]:
    """All compositions of N into n nonnegative parts, lexicographically
    decreasing from (N, 0, ..., 0)."""
    if n < 1 or N < 0:
        raise ValidationError(f"labels need n >= 1 and N >= 0, got n={n}, N={N}")
    out = []
    for cuts in combinations(range(N + n - 1), n - 1):
        bounds = (-1,) + cuts + (N + n - 1,)
        out.append(tuple(bounds[i + 1] - bounds[i] - 1 for i in range(n)))
    out.sort(reverse=True)
    return out


def ordered_word(label: DickeLabel) -> Word:
    w = []
    for letter, m in enumerate(label, start=1):
        w.extend([letter] * m)
    return tuple(w)


def dicke_norm(label: DickeLabel, q: float) -> float:
    """Norm of the unnormalized q-symmetric state: sqrt([[N]]!/prod [[m_i]]!).
    [[N]]! at z = q^2 is the product of N! powers up to q^(N(N-1)), the
    largest that the q-Dicke states form; q must be positive."""
    N = sum(label)
    check_q(q, 0, N * (N - 1), factorial(N), positive=True)
    denom = 1.0
    for m in label:
        denom *= bracket_factorial(m, q * q)
    return (bracket_factorial(N, q * q) / denom) ** 0.5


def q_dicke(n: int, N: int, label, q: float) -> TensorState:
    """Unit-norm q-symmetric state for the given multiplicity label.

    Built by q-symmetrizing the ordered word, dividing by the bracket
    factorials of the multiplicities, then by the closed-form norm; the
    result has coefficient q^(inversions) / norm on each permuted word.
    q is held to the q rule by dicke_norm and q_symmetrize.
    """
    label = check_label(n, N, label)
    norm = dicke_norm(label, q)
    scale = 1.0
    for m in label:
        scale *= bracket_factorial(m, q * q)
    state = q_symmetrize(TensorState.basis(n, ordered_word(label)), q)
    return state.scale(1.0 / (scale * norm))


def verify_canonical_action(n: int, N: int, q: float, label, j: int) -> dict:
    """Check the closed-form action of E_j, F_j, q^{H_j} on a q-Dicke state.

    Returns the expected coefficient and the residual norms of
    E_j b - c b', F_j b' - c b, and (q^{H_j} - q^(k_j - k_{j+1})) b.
    Besides the states' powers (q_dicke), it forms q^(+-N) (q^{H_j}).
    """
    label = check_label(n, N, label)
    _check_species_index(j, n, diagonal=False)
    check_q(q, -N, N, positive=True)
    kj, kj1 = label[j - 1], label[j]
    b = q_dicke(n, N, label, q)
    qh = q ** (kj - kj1)
    report = {"label": label, "j": j, "qh_eigenvalue": qh,
              "residual_qH": apply_qH(b, j, q).sub(b.scale(qh)).norm()}
    if kj == 0:
        report["coefficient"] = 0.0
        report["residual_E"] = apply_E(b, j, q).norm()
        report["residual_F"] = None
        return report
    raised = list(label)
    raised[j - 1] -= 1
    raised[j] += 1
    b_up = q_dicke(n, N, tuple(raised), q)
    c = (q_number(kj1 + 1, q) * q_number(kj, q)) ** 0.5
    report["coefficient"] = c
    report["residual_E"] = apply_E(b, j, q).sub(b_up.scale(c)).norm()
    report["residual_F"] = apply_F(b_up, j, q).sub(b.scale(c)).norm()
    return report


def generate_basis_by_raising(n: int, N: int, q: float) -> dict[DickeLabel, TensorState]:
    """All q-Dicke states built by E-strings from the reference word x_1^N.

    For a label (k_1, ..., k_n) the string applies E_1 (k_2 + ... + k_n)
    times, then E_2 (k_3 + ... + k_n) times, and so on; each result is
    normalized.  Agrees with q_dicke label by label.

    The strings share prefixes, so they are grown as a tree: E_1^p for
    p = 0..N from x_1^N, then on each of those states the powers of E_2 up
    to p, and so on.  Each E_j step is applied once per distinct prefix
    (35 steps at n = 3, N = 7, where one string per label takes 252).  Each
    state entering a level is scaled by the power of two that brings its
    largest amplitude into [0.5, 1).  That scaling is exact, so every state
    normalizes to the bits its own unscaled string gives (wherever that
    string stays inside the float range), and no state carries more than
    one level's growth.

    One level, E_j^p with p <= N on a state with no letter j + 1, forms
    [p]_q! with tails up to q^(+-N(N-1)/2): at most N! powers up to
    q^(+-N(N-1)/2), and that power is held to the q rule.  The whole string
    of x_n^N holds [N]_q!^(n-1), which overflows first for n >= 3.
    """
    check_sparse_words(n ** N, "raising basis")
    levels = min(n - 1, 1)      # n = 1 forms no power of q
    power = levels * N * (N - 1) / 2
    check_q(q, -power, power, factorial(N) ** levels)
    # exponents (p_1, ..., p_j) of the E-string so far -> its state
    grown = {(): TensorState.basis(n, (1,) * N)}
    for j in range(1, n):
        level = {}
        for prefix, state in grown.items():
            shift = -frexp(max(map(abs, state.amps.values()), default=1.0))[1]
            state = TensorState._trusted(n, N, {w: ldexp(a, shift)
                                                for w, a in state.amps.items()})
            top = prefix[-1] if prefix else N       # p_j <= p_{j-1} <= ... <= N
            for p in range(top + 1):
                level[prefix + (p,)] = state
                if p < top:
                    state = apply_E(state, j, q)
        grown = level
    out = {}
    for label in dicke_labels(n, N):
        state = grown[tuple(sum(label[j:]) for j in range(1, n))]
        if state.is_zero():
            raise ValidationError(f"raising string annihilated the state for label {label}")
        out[label] = state.normalized()
    return out


def _crystal_word(j: int, word, n: int) -> Word:
    """word as a tuple, checked to be ordered and j an E/F index for n."""
    word = tuple(word)
    if any(word[i] > word[i + 1] for i in range(len(word) - 1)):
        raise ValidationError(f"crystal moves are defined on ordered words, got {word}")
    _check_species_index(j, n, diagonal=False)
    return word


def crystal_e(j: int, word, n: int):
    """Crystal raising move on an ordered word: one letter j becomes j+1;
    None when there is no letter j."""
    word = _crystal_word(j, word, n)
    if j not in word:
        return None
    k = word.index(j) + word.count(j) - 1  # rightmost j
    return tuple(sorted(word[:k] + (j + 1,) + word[k + 1:]))


def crystal_f(j: int, word, n: int):
    """Crystal lowering move: one letter j+1 becomes j; None when impossible."""
    word = _crystal_word(j, word, n)
    if j + 1 not in word:
        return None
    k = word.index(j + 1)
    return tuple(sorted(word[:k] + (j,) + word[k + 1:]))


def crystal_automaton(n: int, N: int, q: float | None = None, labels: str = "none"):
    """The symmetric crystal automaton on ordered words as a combinatorial
    automaton (for DOT export), one state per composition of N into n parts,
    in the order of dicke_labels and named by its ordered word.

    Its moves are label arithmetic, as crystal_e and crystal_f make them on
    ordered words: e_j moves one unit from k_j to k_{j+1}, and f_j one from
    k_{j+1} to k_j, wherever the part they take from is positive.  With
    labels="none" each of its 2(n-1) letters is a target array of the s
    states; otherwise a dense s x s matrix.  Either way, before anything
    is built, s is held to the dense guard (check_dense_dim) and the
    2(n-1) s^2 entries of the dense view to the held-entries rule
    (check_held_entries).
    With labels="canonical" or "rescaled" the DOT edge weights carry the
    q-coefficients of the corresponding raising/lowering action on q-Dicke
    states: canonical uses the symmetric sqrt form on both E and F; rescaled
    uses 1 on E and the product form on F.  The product [a]_q [b]_q, a + b
    <= N + 1, holds at most ab <= ((N + 1)/2)^2 powers up to q^(+-(N-1)),
    and q must be positive.
    """
    if labels not in ("none", "canonical", "rescaled"):
        raise ValidationError("labels must be none, canonical, or rescaled")
    if labels != "none":
        if q is None:
            raise ValidationError("coefficient labels need a positive finite q")
        check_q(q, 1 - N, N - 1, ((N + 1) // 2) * ((N + 2) // 2), positive=True)
    if n < 1 or N < 0:
        raise ValidationError(f"labels need n >= 1 and N >= 0, got n={n}, N={N}")
    size = comb(N + n - 1, n - 1)
    check_dense_dim(size, "crystal automaton")
    check_held_entries(2 * (n - 1) * size ** 2, f"crystal automaton: {2 * (n - 1)} dense "
                                                f"{size} x {size} transition matrices")
    states = dicke_labels(n, N)
    index = {lab: i for i, lab in enumerate(states)}
    letters = [f"e{j}" for j in range(1, n)] + [f"f{j}" for j in range(1, n)]
    targets = {a: np.full(size, -1, dtype=np.int64) for a in letters}
    weights = {a: np.zeros(size) for a in letters}
    for s, lab in enumerate(states):
        for j in range(1, n):
            # e_j takes from part u = j-1 and gives to v = j (0-based); f_j back
            for a, u, v in ((f"e{j}", j - 1, j), (f"f{j}", j, j - 1)):
                if not lab[u]:
                    continue
                moved = list(lab)
                moved[u] -= 1
                moved[v] += 1
                targets[a][s] = index[tuple(moved)]
                if labels != "none":
                    c = (q_number(lab[v] + 1, q) * q_number(lab[u], q)) ** 0.5
                    weights[a][s] = c if labels == "canonical" else 1.0 if u < v else c * c
    if labels == "none":
        transitions = {a: automata.TransitionMatrix.from_targets(t) for a, t in targets.items()}
    else:
        transitions = {}
        for a, t in targets.items():
            src = np.flatnonzero(t >= 0)
            m = np.zeros((size, size))
            m[t[src], src] = weights[a][src]
            transitions[a] = automata.TransitionMatrix(m, "general")
    word_names = tuple("".join(f"x{x}" * m for x, m in enumerate(lab, start=1)) for lab in states)
    return automata.Automaton(size, tuple(letters), transitions, 1, frozenset(), word_names)
