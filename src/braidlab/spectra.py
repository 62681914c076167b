"""Exact spectral decomposition of the invariant open chain H = sum_j r_j.

H preserves the multiset of letters of a word, so it block-diagonalizes over
weight blocks (fixed letter content) before any dense solve; the full n^N
space is only ever assembled by the test oracles.  By q-Schur-Weyl duality
(Jimbo 1986) the spectrum on V_n^(x)N is that of the irreducible Hecke
modules rho_lambda, lambda a partition of N with at most n rows, each
ssyt_dim(lambda, n) times, and weight block mu holds spec rho_lambda(H)
K_{lambda mu} times; rho_lambda(H) itself comes from Young's seminormal
form (_seminormal_forms).  So diagonalize solves one block per partition
mu, values only (_dominant_blocks), and checks it against those spectra;
each of its clusters is a run of one irrep's values and keeps its lambda.
A block that w0 maps onto itself is split into its two w0 parity halves
straight from its site arrays (_parity_halves), so a dense matrix exists in
diagonalize only where LAPACK reads it: the halves, or a block that w0 does
not map onto itself.

Every weight-block operator comes from one ranked-word builder, run once per
decomposition: weight_blocks lays the blocks of a list of contents end to
end, _rank alone turns them into a block layout (_Ranked: block-major keys,
each word's block start), and every builder takes that layout and ranks
nothing: _hamiltonian_terms (H's diagonal and swaps), _w0_positions (the
w0 images in self-mirrored blocks) and _coproduct_terms (the terms of E_j,
F_j, q^{H_j}, q^{eps_j}) take N - 1 or one vectorized steps over every
block, and _sites_by_block and _coproduct_maps hand each block its slice.
block_matrix, coproduct_block and sector_matrix are the one-content calls
of the same code.  One swap routine, _swap_steps, links each flagged word
to its i, i+1 swap by key: H flags the words whose letters at i, i+1
differ, and the seminormal forms the standard tableaux whose entries i,
i+1 share no row or column.  symmetry_residual takes [H, y] straight from
the terms, with no dense block or map.

For n = 2 the weight-k block is the binomial(N, k)-dimensional space of
words with k high letters, and sector k is the irrep lambda = (N - k, k),
classified from structure: a sector-k eigenvalue has a highest weight
vector killed by F_1 in block k and carries an E_1-ladder of N - 2k + 1
states with closed-form F_1 E_1 coefficients kappa_m = [N-k-m]_q
[m-k+1]_q, checked on every rung.  Below the middle F_1 = E_1^T and E_1 is
injective, so ker F_1 = range(E_1)^perp, taken from one complete QR of E_1
per rung with H compressed onto it (_hw_eigenpairs) and no weight block
built dense.  Every rung clears each ladder of the lower sectors' ladders
and checks their values against the seminormal spectra; the n = 2 clusters
come from the ladders of each sector, and sector k must hold
f^(N-k,k) = syt_dim((N - k, k)) of them (sector_multiplicity).

q is held to the q rule (errors.check_q) once per chain, by OpenChain, for
the largest power of q that any chain call forms, and by _seminormal_forms
for the seminormal diagonal.
"""

from collections import Counter
from dataclasses import dataclass, field
from math import comb, exp, expm1, log, sqrt
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import (HELD_BLOCKS_MULTIPLE, ValidationError, check_dense_dim,
                     check_held_entries, check_q)
from .qalgebra import check_label, dicke_labels, q_number
from .tableaux import kostka, multinomial, partitions_of, ssyt_dim, syt_dim, tableau_blocks

CLUSTER_RTOL = 1e-8
EIG_RESIDUAL_TOL = 1e-9
HW_TOL = 1e-8
RESIDUAL_CHUNK = 128


@dataclass(frozen=True)
class OpenChain:
    """The open chain H = sum_j r_j on V_n^(x)N at q > 0.  q is held here,
    once for every chain call, to the q rule (check_q) for the largest power
    of q they form, q^(+-N) (q^{H_j} and q^{eps_j} in coproduct_block and
    symmetry_residual).  It bounds the E_j and F_j tails q^(+-(N-1)/2), the
    q-integers and kappa, of order q^(+-(N-1)), and H's N - 1 diagonal terms
    1 - q^-2; q^-2 is formed at every N."""
    n: int
    N: int
    q: float

    def __post_init__(self):
        if self.n < 1 or self.N < 1:
            raise ValidationError("n and N must be >= 1")
        check_q(self.q, -max(self.N, 2), self.N, positive=True)


@dataclass
class EigenCluster:
    """A run of the values of one irrep rho_lambda whose neighbours differ
    by at most the clustering tolerance, valued at their mean: multiplicity
    is the run's length times ssyt_dim(lambda, n), so a cluster never holds
    two lambda.  classify_sectors also sets the n = 2 sector k, lambda =
    (N - k, k), and the hw residual of the run's first ladder."""
    value: float
    multiplicity: int
    shape: tuple
    sector: int | None = None
    hw_residual: float | None = None


class Irrep(NamedTuple):
    """One irreducible Hecke module rho_lambda as diagonalize checked it."""
    values: np.ndarray      # spec rho_lambda(H), increasing: f^lambda values
    multiplicity: int       # ssyt_dim(lambda, n), its number of copies in V_n^(x)N
    residual: float         # worst Kostka-identity residual at its values over the solved blocks


@dataclass
class SpectralDecomposition:
    n: int
    N: int
    q: float
    clusters: list          # EigenClusters, by increasing value
    tol: float              # the clustering tolerance CLUSTER_RTOL * max(1, max |eigenvalue|)
    irreps: dict            # shape -> Irrep

    @property
    def eigenvalues(self) -> list[float]:
        return [c.value for c in self.clusters]

    @property
    def multiplicities(self) -> list[int]:
        return [c.multiplicity for c in self.clusters]

    def total_dimension(self) -> int:
        return sum(self.multiplicities)


def weight_blocks(n: int, N: int, contents) -> tuple[np.ndarray, np.ndarray]:
    """The weight blocks of a list of contents in one pass: a (D, N) int64
    word array, block after block in the order of contents and each block's
    words in lexicographic order, and the int64 bounds of the blocks, block
    i being words[bounds[i]:bounds[i + 1]].

    Built one position at a time from rows (letter counts left, word so far),
    one starting row per content: each prefix row is followed by the letters
    it still has, in order, so a row never leaves its block and the blocks
    stay in the order of their starting rows.  A non-composition content is
    a ValidationError."""
    starts = [check_label(n, N, content) for content in contents]
    rows = np.zeros((len(starts), n + N), dtype=np.int64)
    rows[:, :n] = np.array(starts, dtype=np.int64).reshape(len(starts), n)
    origin = np.arange(len(starts))
    for k in range(n, n + N):
        prefix, letters = np.nonzero(rows[:, :n])
        rows, origin = rows[prefix], origin[prefix]
        rows[np.arange(len(prefix)), letters] -= 1
        rows[:, k] = letters + 1
    bounds = np.zeros(len(starts) + 1, dtype=np.int64)
    np.cumsum(np.bincount(origin, minlength=len(starts)), out=bounds[1:])
    return rows[:, n:], bounds


def weight_basis(n: int, N: int, content: tuple[int, ...]) -> np.ndarray:
    """The (d, N) int64 array of the words with the given letter content in
    lexicographic order: the one-content call of weight_blocks."""
    return weight_blocks(n, N, [content])[0]


class _Ranked(NamedTuple):
    """Weight blocks laid end to end, ranked by _rank."""
    words: np.ndarray       # (D, N) letters, int64 (object past int64 keys)
    powers: np.ndarray      # n^(N-1-j) per position j
    bounds: np.ndarray      # int64: block b is words[bounds[b]:bounds[b + 1]]
    first: np.ndarray       # int64 position of each word's block start
    keys: np.ndarray        # block * stride + base-n key of the word, increasing
    stride: int             # n^N: a key plus (t - b) * stride names the word in block t
    lookup: Callable        # wanted keys -> positions in words


def _word_array(n: int, N: int, words) -> np.ndarray:
    """words as a (d, N) int64 array, each letter checked to lie in [1, n]."""
    words = np.asarray(words, dtype=np.int64)
    if words.shape == (0,):
        words = words.reshape(0, N)
    if words.shape[1:] != (N,) or not ((words >= 1) & (words <= n)).all():
        raise ValidationError(f"basis words must lie in [1,{n}]^{N}")
    return words


def _rank(n: int, N: int, words, bounds) -> _Ranked:
    """Letters, keys and a key -> position lookup for weight blocks laid end
    to end (weight_blocks).

    The keys are block-major, block index * n^N + the word's base-n key, so
    with each block in lexicographic order they increase over the whole
    array and one searchsorted finds any word of any block: a swapped word,
    a w0 image or an E_j/F_j image, its block named by the multiple of n^N
    added.  Words out of order within a block, or a wanted key outside the
    array (not a whole weight block), are a ValidationError.
    """
    words = _word_array(n, N, words)
    bounds = np.asarray(bounds, dtype=np.int64)
    sizes = np.diff(bounds)
    stride = n ** N
    # the sentinel past the last block; keys overflow int64 beyond 2^63,
    # Python integers do not
    top = len(sizes) * stride
    key_type = np.int64 if top <= np.iinfo(np.int64).max else object
    words = words.astype(key_type, copy=False)
    powers = np.array([n ** (N - 1 - j) for j in range(N)], dtype=key_type)
    block = np.repeat(np.arange(len(sizes)).astype(key_type), sizes)
    keys = (words - 1) @ powers + block * stride
    if (np.diff(keys) <= 0).any():
        raise ValidationError("basis words must be distinct and in lexicographic order")
    sorted_keys = np.append(keys, np.array([top], dtype=key_type))

    def lookup(wanted):
        pos = np.searchsorted(sorted_keys, wanted)
        if not np.array_equal(sorted_keys[pos], wanted):
            raise ValidationError("basis is not a whole weight block")
        return pos

    return _Ranked(words, powers, bounds, np.repeat(bounds[:-1], sizes), keys, stride, lookup)


def _swap_steps(ranked: _Ranked, moves: np.ndarray) -> list:
    """Per site i, the (rows, cols) that link every word flagged in
    moves[:, i] (cols, increasing) to its i, i+1 swap (rows), in positions
    within ranked: one key lookup per site over every block at once.  A
    swap outside the ranked words is a ValidationError."""
    # the key of the i, i+1 swap minus the word's: (w[i+1] - w[i]) (n^(N-1-i) - n^(N-2-i))
    shift = np.diff(ranked.words, axis=1) * -np.diff(ranked.powers)
    steps = []
    for i in range(moves.shape[1]):
        cols = np.flatnonzero(moves[:, i])
        steps.append((ranked.lookup(ranked.keys[cols] + shift[cols, i]), cols))
    return steps


def _site_swaps(steps: list, ranked: _Ranked) -> list:
    """The swaps of _swap_steps per ranked block and per site i, each block
    taking its slice of every step, in positions within the block."""
    bounds, first = ranked.bounds, ranked.first
    cuts = [(rows - first[rows], cols - first[cols], np.searchsorted(cols, bounds))
            for rows, cols in steps]
    return [[(rows[a[b]:a[b + 1]], cols[a[b]:a[b + 1]]) for rows, cols, a in cuts]
            for b in range(len(bounds) - 1)]


def _hamiltonian_terms(chain: OpenChain, ranked: _Ranked) -> tuple[np.ndarray, list]:
    """H on every ranked word as (diag, steps): its diagonal and, per site
    j, the swaps (_swap_steps) whose entries are 1/q.

    Per site j, over all words at once, r_j adds 1 to diag for an equal pair
    and 1 - q^-2 for a decreasing pair (summed over j in increasing order),
    and 1/q at the (rows, cols) of the swap: cols are the words whose
    letters at j, j+1 differ, rows the swapped words, which stay in their
    block.  No (row, col) occurs twice.
    """
    N, q = chain.N, chain.q
    x, y = ranked.words[:, :-1], ranked.words[:, 1:]
    diag = np.zeros(len(x))
    c = 1.0 - q ** -2
    for j in range(N - 1):
        diag += np.where(x[:, j] == y[:, j], 1.0, np.where(x[:, j] > y[:, j], c, 0.0))
    return diag, _swap_steps(ranked, x != y)


def _sites_by_block(chain: OpenChain, ranked: _Ranked) -> list:
    """H on every ranked block as one site-array triple (diag, sites, 1/q)
    per block, from N - 1 vectorized steps (_hamiltonian_terms), each block
    taking its slice of the diagonal and of every site's swaps
    (_site_swaps)."""
    diag, steps = _hamiltonian_terms(chain, ranked)
    bounds = ranked.bounds
    return [(diag[lo:hi], sites, 1.0 / chain.q)
            for lo, hi, sites in zip(bounds[:-1], bounds[1:], _site_swaps(steps, ranked))]


def _block_sites(chain: OpenChain, basis) -> tuple:
    """H on one weight block as site arrays (diag, sites, 1/q): the
    one-content call of _sites_by_block."""
    return _sites_by_block(chain, _rank(chain.n, chain.N, basis, [0, len(basis)]))[0]


def _dense(block: tuple) -> np.ndarray:
    """The dense matrix of a block's site arrays (_block_sites)."""
    diag, sites, off = block
    size = len(diag)
    m = np.zeros((size, size))
    for rows, cols in sites:
        m[rows, cols] = off
    m[np.arange(size), np.arange(size)] = diag
    return m


def _block_apply(block: tuple, v: np.ndarray) -> np.ndarray:
    """H v for a (d, m) array v, from a block's site arrays (_block_sites):
    O(N d) per column, where the dense product costs O(d^2)."""
    diag, sites, off = block
    hv, scaled = v * diag[:, None], v * off
    for rows, cols in sites:
        hv[rows] += scaled[cols]
    return hv


def block_matrix(chain: OpenChain, basis) -> np.ndarray:
    """Restriction of H to one weight block, as a dense symmetric matrix in
    the order of basis, the block's lexicographic word array (weight_basis).

    The dense scatter of the block's site arrays (_block_sites): it equals
    H applied word by word bit for bit.
    """
    return _dense(_block_sites(chain, basis))


def _pointers(index: np.ndarray, size: int) -> np.ndarray:
    """The size + 1 bounds ptr of an increasing int array index over 0..size
    - 1: the items equal to c are index[ptr[c]:ptr[c + 1]]."""
    ptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(index, minlength=size), out=ptr[1:])
    return ptr


def _gather(ptr: np.ndarray, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every item ptr[at[i]] .. ptr[at[i] + 1] - 1, end to end in the order
    of at, as (i, item) arrays."""
    counts = ptr[at + 1] - ptr[at]
    owner = np.repeat(np.arange(len(at)), counts)
    return owner, np.arange(len(owner)) + np.repeat(ptr[at] - (np.cumsum(counts) - counts), counts)


class _Terms(NamedTuple):
    """The (row, col, entry) terms of one coproduct operator over the
    (source, target) block pairs of _coproduct_terms."""
    rows: np.ndarray        # position of each term's image word among the ranked words
    cols: np.ndarray        # position of its source word, increasing within each pair
    entries: np.ndarray     # its power of q
    cut: np.ndarray         # the terms of pairs[p] are [cut[p]:cut[p + 1]]
    sources: np.ndarray     # the source words of every pair, pair after pair
    targets: np.ndarray     # the target block of each source word


def _coproduct_terms(chain: OpenChain, kind: str, j: int, ranked: _Ranked, pairs) -> _Terms:
    """The terms of E_j, F_j, q^{H_j} or q^{eps_j} (kind "E", "F", "qH",
    "qEps") from ranked block s into ranked block t for each (s, t) in
    pairs; block t must hold every image word of block s, or it is a
    ValidationError.

    Every term of every source block at once: the E_j or F_j term at site k
    moves the key by +-n^(N-1-k), with q to half of (j count - j+1 count)
    right of k minus left of k, from one cumulative sum, and the key moves
    from block s to block t by (t - s) n^N.  Every power of q (diagonal kinds
    too, per word, each word its own image) is a Python float from a table
    over the exponents that occur: each term equals the sparse operator's
    bit for bit.
    """
    n, N, q = chain.n, chain.N, chain.q
    if kind not in ("E", "F", "qH", "qEps") or not 1 <= j <= (n if kind == "qEps" else n - 1):
        raise ValidationError(f"no coproduct operator {kind}_{j} for n={n}")
    s, t = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    # the source words end to end, and each one's key in its target block
    pair, take = _gather(ranked.bounds, s)
    src = ranked.words[take]
    keys = ranked.keys[take] + (t - s)[pair].astype(src.dtype) * ranked.stride
    step = (src == j).astype(np.int64) - (src == j + 1)
    # every term at once: source columns, image keys, twice the exponent of q
    if kind == "qH" or kind == "qEps":
        counts = (src == j).sum(axis=1) if kind == "qEps" else step.sum(axis=1)
        cols, image, exps = np.arange(len(src)), keys, 2 * counts
    else:
        left = np.cumsum(step, axis=1) - step                      # count left of k
        twice = step.sum(axis=1, keepdims=True) - step - 2 * left  # right minus left
        letter, shift = (j, 1) if kind == "E" else (j + 1, -1)
        cols, sites = np.nonzero(src == letter)                    # (word, site k) pairs
        image, exps = keys[cols] + shift * ranked.powers[sites], twice[cols, sites]
    lo, hi = int(exps.min(initial=0)), int(exps.max(initial=0))
    table = np.array([q ** (0.5 * e) for e in range(lo, hi + 1)])
    # the terms of pair p have their source words in take[pair == p]
    return _Terms(ranked.lookup(image), take[cols], table[exps - lo],
                  np.searchsorted(pair[cols], np.arange(len(s) + 1)), take, t[pair])


def _coproduct_maps(chain: OpenChain, kind: str, j: int, ranked: _Ranked, pairs) -> Iterator:
    """Matrices of E_j, F_j, q^{H_j} or q^{eps_j} (kind "E", "F", "qH", "qEps")
    from ranked block s into ranked block t for each (s, t) in pairs: the
    dense view of _coproduct_terms.  The terms are found and checked at
    once; each dense matrix is built when the iterator reaches its pair, so
    a sweep that keeps one or two at a time holds no more than that.  Each matrix equals the sparse operator
    bit for bit.
    """
    terms = _coproduct_terms(chain, kind, j, ranked, pairs)
    bounds = ranked.bounds

    def dense(p, s, t):
        a, b = terms.cut[p], terms.cut[p + 1]
        m = np.zeros((bounds[t + 1] - bounds[t], bounds[s + 1] - bounds[s]))
        m[terms.rows[a:b] - bounds[t], terms.cols[a:b] - bounds[s]] = terms.entries[a:b]
        return m

    return (dense(p, s, t) for p, (s, t) in enumerate(pairs))


def coproduct_block(chain: OpenChain, kind: str, j: int, source, target) -> np.ndarray:
    """Matrix of E_j, F_j, q^{H_j} or q^{eps_j} (kind "E", "F", "qH", "qEps")
    from span(source) into span(target), two lexicographic word arrays
    (weight_basis); target must hold every image word.  The one-content call
    of _coproduct_maps, source and target ranked as two blocks."""
    source, target = (_word_array(chain.n, chain.N, ws) for ws in (source, target))
    words = np.concatenate([source, target])
    ranked = _rank(chain.n, chain.N, words, [0, len(source), len(words)])
    return next(_coproduct_maps(chain, kind, j, ranked, [(0, 1)]))


def _orbit_size(n: int, shape) -> int:
    """Number of distinct permutations of the content shape + (0, ...) of
    length n: the contents that S_n permutes among one another, all with the
    same Kostka numbers K_{lambda mu} and so the same spectrum."""
    return multinomial([n - len(shape), *Counter(shape).values()])


def _check_guard(chain: OpenChain, held: str | None) -> None:
    """One dense guard for every n: the largest weight block, the
    multinomial of the most even content, must be at most max_dense_dim().
    That is all held None (diagonalize) counts: it holds one block at a
    time, dense or as its two w0 halves (_dominant_blocks), within
    max_dense_dim()^2 entries.  What a caller holds at once must also stay
    within HELD_BLOCKS_MULTIPLE = 3 times max_dense_dim()^2 entries, 384 MiB
    at the default 4096: held "all" (symmetry_residual) counts sum d^2 over
    every block, at least the sum d_s d_t slots (source word, target-block
    row) of the one operator kind it holds at a time, held "sectors"
    (classify_sectors, n = 2) the builder arrays its sweep keeps, from their
    sizes (the words, ranked once, and H's site arrays, N 2^N entries each,
    and the E_1 terms of _coproduct_maps, 3 N 2^(N-1)), and
    its widest rung m: the E_1 maps into and out of block m, the d_m x d_m
    ladder array and its E_1 image, and for m <= N/2 Q, R and the copy of
    the E_1 map that numpy's complete QR factors.  So "sectors" admits
    n = 2, N = 13 (18,776,836 entries) and refuses N = 14 (75,891,544), and
    "all" refuses n = 11, N = 6 (about 4,787 MiB)."""
    n, N = chain.n, chain.N
    base, extra = divmod(N, min(n, N))
    largest = multinomial([base + 1] * extra + [base] * (min(n, N) - extra))
    check_dense_dim(largest, f"open chain n={n}, N={N}: largest weight block")
    if held == "all":
        entries = sum(_orbit_size(n, mu) * multinomial(mu) ** 2
                      for mu in partitions_of(N, max_rows=n))
        check_held_entries(entries, f"open chain n={n}, N={N}: all weight blocks at once")
    elif held == "sectors":
        d = [comb(N, m) for m in range(N + 1)] + [0]       # d[-1] = d[N + 1] = 0
        entries = 7 * N * 2 ** (N - 1) + max(
            d[m] * (d[m - 1] + d[m] + 2 * d[m + 1] + (2 * d[m - 1] + d[m] if 2 * m <= N else 0))
            for m in range(N + 1))
        check_held_entries(entries, f"open chain n={n}, N={N}: the sector sweep's arrays")


def _runs(values: np.ndarray, tol: float) -> list[tuple[int, int]]:
    """Half-open (lo, hi) bounds of the runs of sorted values whose
    neighbours differ by at most tol: each gap above tol starts a new run."""
    cut = np.ones(len(values), dtype=bool)
    cut[1:] = np.diff(values) > tol
    bounds = np.append(np.flatnonzero(cut), len(values)).tolist()
    return list(zip(bounds, bounds[1:]))


def _w0_positions(ranked: _Ranked, blocks, letters) -> dict:
    """Block b -> position within block b of the w0 image of each word, for
    the ranked blocks in blocks, which w0 maps onto themselves, blocks[i]
    over the alphabet 1..letters[i]: the word reversed, each letter a sent
    to letters[i] + 1 - a.  An image outside its block is a
    ValidationError."""
    owner, take = _gather(ranked.bounds, np.asarray(blocks, dtype=np.int64))
    words = ranked.words[take]
    flip = np.asarray(letters, dtype=words.dtype)[owner][:, None]
    # the image's key minus the word's: (flip - reversed word) - (word - 1) in base n
    at = ranked.lookup(ranked.keys[take] + (flip + 1 - words[:, ::-1] - words) @ ranked.powers)
    at -= ranked.first[take]
    return dict(zip(blocks, np.split(at, np.cumsum(np.diff(ranked.bounds)[blocks])[:-1])))


def diagonalize(chain: OpenChain) -> SpectralDecomposition:
    """Full spectrum via weight blocks, one cluster per run of one irrep's
    values.

    One weight block is solved per partition mu of N with at most n rows,
    values only (_dominant_blocks), and checked against the seminormal
    spectra by the Kostka identity, which ties every spectrum rho_lambda(H)
    to every solved block: the sorted values of block mu must equal the
    sorted union of K_{lambda mu} (tableaux.kostka) copies of the spectra
    within EIG_RESIDUAL_TOL * max(1, |eigenvalue|), or it is a
    ValidationError, and each residual counts towards the lambda it is
    compared with.  The spectra, with tol, come from _seminormal_spectra and
    are kept as irreps.  Each cluster is a run (_runs) of one irrep's values
    at tol, valued at the run's mean, with multiplicity the run's length
    times ssyt_dim(lambda, n); the clusters are sorted by value.  So a
    cluster never holds two lambda, and an exact crossing of two irreps
    gives two clusters.  The guard (_check_guard) bounds the largest block
    before any block is solved.
    """
    _check_guard(chain, None)
    n, N, q = chain.n, chain.N, chain.q
    shapes, shape_values, tol = _seminormal_spectra(chain)
    worst = np.zeros(len(shapes))
    # the blocks come in the order of the partitions they are solved for
    for mu, vals in zip(shapes, _dominant_blocks(chain).values()):
        copies = [kostka(lam, mu) for lam in shapes]
        want = np.concatenate([np.tile(s, k) for s, k in zip(shape_values, copies)])
        if len(want) != len(vals):
            raise ValidationError(f"weight block {mu}: {len(vals)} values, but the "
                                  f"Kostka numbers give {len(want)}")
        order = np.argsort(want, kind="stable")
        resid = np.abs(vals - want[order])
        bad = np.flatnonzero(~(resid <= EIG_RESIDUAL_TOL * np.maximum(1.0, np.abs(vals))))
        if bad.size:
            raise ValidationError(f"weight block {mu}: Kostka identity residual "
                                  f"{float(resid[bad[0]])} exceeds {EIG_RESIDUAL_TOL}")
        owner = np.repeat(np.arange(len(shapes)),
                          [k * len(s) for s, k in zip(shape_values, copies)])
        np.maximum.at(worst, owner[order], resid)
    irreps = {lam: Irrep(s, ssyt_dim(lam, n), float(w))
              for lam, s, w in zip(shapes, shape_values, worst)}
    clusters = [c for lam, irrep in irreps.items()
                for c in _run_clusters(irrep.values, tol, irrep.multiplicity, lam)]
    clusters.sort(key=lambda c: c.value)
    return SpectralDecomposition(n, N, q, clusters, tol, irreps)


def _run_clusters(values: np.ndarray, tol: float, copies: int, shape: tuple,
                  sector: int | None = None, hw: list | None = None) -> list:
    """One EigenCluster of the irrep shape per run (_runs) of its sorted
    values at tol, valued at the run's mean (a lone value is its own mean,
    with no np.mean call), of multiplicity the run's length times copies,
    with sector and, given each value's hw residual, that of its first."""
    listed = values.tolist()
    return [EigenCluster(listed[lo] if hi - lo == 1 else float(values[lo:hi].mean()),
                         (hi - lo) * copies, shape, sector, None if hw is None else hw[lo])
            for lo, hi in _runs(values, tol)]


def _dominant_blocks(chain: OpenChain) -> dict:
    """content -> its increasing eigenvalues, one block per partition mu of
    N with at most n rows, in the order of partitions_of.

    Block mu has spectrum the union over lambda of K_{lambda mu} copies of
    spec rho_lambda(H), and K does not depend on the order of mu, so every
    content in the S_n orbit of mu has that spectrum (H itself need not
    commute with a letter permutation: at n = 3, N = 5 swapping letters 2
    and 3 carries block (2, 2, 1) onto (2, 1, 2) without commuting with H).
    The content solved is mu's palindrome (_palindrome) where one exists,
    else mu, padded with zeros to n parts, all from one builder pass (the
    site arrays do not depend on the alphabet).  w0 over a palindrome's
    alphabet 1..len(mu) maps its block onto itself, its images from one
    _w0_positions call for all of them, and _solve_block splits it from its
    site arrays into two halves of about d^2/4 entries each, with no d x d
    array; a block that w0 does not map onto itself is scattered dense.  So
    at most one block's dense matrix, or one block's two halves, is held at
    a time.
    """
    n, N = chain.n, chain.N
    shapes = partitions_of(N, max_rows=n)
    solved = [_palindrome(mu) or mu for mu in shapes]
    contents = [(*c, *[0] * (n - len(c))) for c in solved]
    ranked = _rank(n, N, *weight_blocks(n, N, contents))
    sites = _sites_by_block(chain, ranked)
    mirrored = [b for b, c in enumerate(solved) if c == c[::-1]]     # (N,) always is
    w0 = _w0_positions(ranked, mirrored, [len(solved[b]) for b in mirrored])
    del ranked          # the solves read only the site arrays and w0 images
    return {content: _solve_block(sites[b], w0.get(b), mu)
            for b, (mu, content) in enumerate(zip(shapes, contents))}


def _palindrome(mu: tuple) -> tuple | None:
    """A permutation of the content mu that reads the same reversed, so that
    w0 maps its weight block onto itself, or None when more than one part
    value of mu has odd multiplicity: half of each value's copies in order,
    the odd one out, then the half reversed ((4, 1, 1) gives (1, 4, 1))."""
    counts = Counter(mu)
    odd = [v for v, k in counts.items() if k % 2]
    if len(odd) > 1:
        return None
    half = [v for v, k in counts.items() for _ in range(k // 2)]
    return (*half, *odd, *half[::-1])


def _solve_block(block: tuple, w0: np.ndarray | None, mu) -> np.ndarray:
    """Increasing eigenvalues of a weight block's site arrays: one eigvalsh
    of the dense block, or one per non-empty w0 parity half (_parity_halves)
    when w0, each word's image position (_w0_positions), is given."""
    if w0 is None:
        return np.linalg.eigvalsh(_dense(block))
    return np.sort(np.concatenate([np.linalg.eigvalsh(h) for h in _parity_halves(block, w0, mu)]))


def _parity_halves(block: tuple, w0: np.ndarray, mu) -> tuple:
    """The non-empty w0 parity halves, (even, odd) or (even,), of a block
    that w0 maps onto itself, scattered from its site arrays (diag, sites,
    off) with no d x d array.  With I, J = w0(I) and F the positions of the
    words that w0 swaps (I < J) and fixes, and A the block commuting with
    w0, the basis (e_I + e_J)/sqrt2, e_F, (e_I - e_J)/sqrt2 splits A into
    [[A_II + A_IJ, sqrt2 A_JF], [sqrt2 A_FJ, A_FF]] and A_II - A_IJ.  Each
    word has a slot in its half (the t-th pair's I and J words slot t, the
    s-th fixed word k + s), and each entry goes to the slots of its row and
    column: the diagonal of I and F, then I rows with I columns to both
    halves, F rows with F columns, J rows with F columns and F rows with J
    columns times sqrt2, and last the I rows with J columns, added to the
    even half and subtracted from the odd one; the rest are w0 mirrors of
    these.  So the halves equal the split of the dense block bit for bit.

    Before the coupling is dropped, the (row, col) pattern of the entries
    must equal its w0 image (a missing mirror entry differs by |off|) and
    |diag - diag[w0]| must be within EIG_RESIDUAL_TOL * max(1, max |diag|,
    |off|), or it is a ValidationError naming mu: each run verifies the
    symmetry it uses, by sorting the keys of the entries and of their images."""
    diag, sites, off = block
    d = len(w0)
    side = np.sign(np.arange(d) - w0) + 1              # 0 for I, 1 for F, 2 for J
    pairs, fixed = np.flatnonzero(side == 0), np.flatnonzero(side == 1)
    k, f = len(pairs), len(fixed)
    rows, cols = np.concatenate([np.zeros((2, 0), dtype=np.int64), *sites], axis=1)
    mirrored = np.array_equal(np.sort(rows * d + cols), np.sort(w0[rows] * d + w0[cols]))
    coupling = float(np.abs(diag - diag[w0]).max(initial=0.0))
    if not mirrored:
        coupling = max(coupling, abs(off))
    if not coupling <= EIG_RESIDUAL_TOL * max(1.0, float(np.abs(diag).max()), abs(off)):
        raise ValidationError(f"weight block {mu}: w0 symmetry residual {coupling} "
                              f"exceeds {EIG_RESIDUAL_TOL}")
    order = np.concatenate([pairs, fixed])              # the words of the even half
    slot = np.empty(d, dtype=np.int64)
    slot[order] = np.arange(k + f)
    slot[w0[pairs]] = np.arange(k)

    def entries(row_side, col_side):
        hit = (side[rows] == row_side) & (side[cols] == col_side)
        return slot[rows[hit]], slot[cols[hit]]

    even, odd = np.zeros((k + f, k + f)), np.zeros((k, k))
    np.fill_diagonal(even, diag[order])
    np.fill_diagonal(odd, diag[pairs])
    ii, ij = entries(0, 0), entries(0, 2)
    even[ii] = odd[ii] = even[entries(1, 1)] = off
    even[entries(2, 1)] = even[entries(1, 2)] = off * sqrt(2.0)
    even[ij] += off
    odd[ij] -= off
    return (even, odd) if k else (even,)


def _seminormal_forms(shapes, q: float) -> list:
    """rho_lambda(H) = sum_i r_i as a dense symmetric f^lambda x f^lambda
    matrix for each shape lambda of a list of partitions of one N, in
    Young's seminormal form (Hoefsmit 1974; Ram 1997).

    With d = c(i+1) - c(i), the content (column - row) of entry i+1 minus
    that of entry i in tableau S, r_i has the diagonal entry q^(d-1) / [d]_q
    at S, and when |d| > 1 (i and i+1 in neither one row nor one column, so
    that s_i S, the tableau with the two swapped, is standard) the entry
    sqrt(1 - [d]_q^-2) / q between S and s_i S: each 2 x 2 block has trace
    1 - q^-2 and determinant -q^-2, the eigenvalues 1 and -q^-2 of r.
    The standard tableaux of every shape, Yamanouchi words, come from one
    pass (tableaux.tableau_blocks), laid end to end like weight blocks, and
    are ranked once (_rank): s_i S is found from its key like a swapped
    word, by the swap routine of H's blocks (_swap_steps), and each shape
    takes its slice of every step (_site_swaps).  Each entry is a Python
    float from a table over the d that occur (_seminormal_entries, accurate
    near q = 1 and bounded where q^(N-1) is not).  q is held to the q rule
    (check_q) for each diagonal's N - 1 terms of order q^-2 at most, and
    f^lambda past max_dense_dim() is a SizeGuardError.
    """
    check_q(q, -2, 0, sum(shapes[0]) - 1, positive=True)
    for shape in shapes:
        check_dense_dim(syt_dim(shape), f"seminormal form of shape {tuple(shape)}")
    rows, bounds = tableau_blocks(shapes)
    N, R = rows.shape[1], max(map(len, shapes))
    in_row = rows[:, :, None] == np.arange(R)
    # d from column + 1 - row, the content shifted by one
    d = np.diff((np.cumsum(in_row, axis=1) * in_row).sum(axis=2) - rows, axis=1)
    lo = int(d.min(initial=0))
    steps = range(lo, int(d.max(initial=0)) + 1)       # d is never 0
    t = log(q)
    diag, off = np.array([_seminormal_entries(k, t) if k else (0.0, 0.0) for k in steps]).T
    diag = diag[d - lo].sum(axis=1)
    ranked = _rank(R, N, rows + 1, bounds)
    forms = []
    for a, b, sites in zip(bounds[:-1], bounds[1:],
                           _site_swaps(_swap_steps(ranked, np.abs(d) > 1), ranked)):
        m, entries = np.diag(diag[a:b]), off[d[a:b] - lo]
        for i, (swapped, cols) in enumerate(sites):
            m[swapped, cols] = entries[cols, i]
        forms.append(m)
    return forms


def sector_hamiltonian(shape, q: float) -> np.ndarray:
    """rho_lambda(H) for one shape lambda: the one-shape call of _seminormal_forms."""
    return _seminormal_forms([shape], q)[0]


def _seminormal_spectra(chain: OpenChain) -> tuple[list, list, float]:
    """The partitions lambda of N with at most n rows, spec rho_lambda(H) of
    each and the clustering tolerance CLUSTER_RTOL * max(1, max |eigenvalue|)
    over them: the one reference of diagonalize and classify_sectors."""
    shapes = partitions_of(chain.N, max_rows=chain.n)
    values = [np.linalg.eigvalsh(m) for m in _seminormal_forms(shapes, chain.q)]
    return shapes, values, CLUSTER_RTOL * max(1.0, max(float(np.abs(v).max()) for v in values))


def _seminormal_entries(d: int, t: float) -> tuple[float, float]:
    """(q^(d-1) / [d]_q, sqrt(1 - [d]_q^-2) / q) at q = e^t for d != 0.

    (q^d - q^-d) / (q - q^-1) loses about eps / |q - 1| relative near q = 1,
    the same for every entry of one d, and q^(d-1) overflows long before the
    entries do.  With e = |d|, a = |t| and the ratio
    g = expm1(-2a) / expm1(-2ea) in (0, 1] (1/e at a = 0), both are free of
    that cancellation and overflow: [d]_q^-1 = sign(d) e^(-(e-1)a) g, and
    q^(d-1) / [d]_q = sign(d) e^x g with x = 2(d-1) min(t, 0) for d > 0,
    x = 2dt for d < 0 < t and x = -2t for d < 0, t <= 0 (of order q^-2, the
    size of the eigenvalue -q^-2 of r).
    """
    e, a = abs(d), abs(t)
    g = expm1(-2.0 * a) / expm1(-2.0 * e * a) if a else 1.0 / e
    if d > 0:
        x = 2.0 * (d - 1) * min(t, 0.0)
    else:
        x = 2.0 * d * t if t > 0 else -2.0 * t
    inv = exp(-(e - 1) * a) * g
    return (g * exp(x) if d > 0 else -g * exp(x)), sqrt((1.0 - inv) * (1.0 + inv)) * exp(-t)


def sector_matrix(N: int, q: float, k: int) -> np.ndarray:
    """Weight-k block of the n=2 chain in the basis of high-letter position
    sets i_1 < ... < i_k, which is descending lexicographic order: the
    lexicographic block reversed in rows and columns.  For k=1 this is the
    tridiagonal matrix with diagonal (N-1-q^-2, N-2-q^-2, ..., N-2-q^-2, N-2)
    and off-diagonal q^-1."""
    if not 0 <= k <= N:
        raise ValidationError(f"k must be in [0,{N}]")
    return block_matrix(OpenChain(2, N, q), weight_basis(2, N, (N - k, k)))[::-1, ::-1]


def sector_multiplicity(N: int, k: int) -> int:
    """m_k = f^(N-k,k), the number of sector-k eigenvalues (q-Schur-Weyl
    duality), (N,) at k = 0; a k outside [0, N/2] makes no partition, a
    ValidationError of tableaux.syt_dim."""
    return syt_dim((N - k, k) if k else (N,))


def sector_dimension(N: int, k: int) -> int:
    """d_{k,2} = N - 2k + 1, the ladder length of one sector-k eigenvalue."""
    return N - 2 * k + 1


@dataclass
class SectorLadder:
    eigenvalue: float
    hw_residual: float              # |F_1 b| / |b| at the highest weight rung
    kappa_residual: float           # worst |F_1 E_1 b - kappa b| / (kappa |b|), relative
    termination_residual: float     # |E_1 b| / |b| at the top rung
    eigen_residual: float           # worst |H b - lambda b| / |b|
    length: int


# the SectorLadder residuals that classify_sectors bounds by HW_TOL
LADDER_RESIDUALS = ("hw_residual", "kappa_residual", "termination_residual", "eigen_residual")


@dataclass
class SectorReport:
    N: int
    q: float
    sectors: dict                # k -> list[SectorLadder]
    m_observed: dict             # k -> int
    m_predicted: dict            # k -> int
    warnings: list
    ok: bool
    clusters: list               # EigenClusters of every sector, by increasing value
    tol: float                   # the clustering tolerance, as diagonalize takes it
    rung_residual: float         # worst |open-ladder value - seminormal value of block m|, m <= N/2
    rank_margin: float           # worst min |R_ii| / max |R_ii| of E_1 = QR into block m <= N/2


def classify_sectors(chain: OpenChain) -> SectorReport:
    """Solve the n=2 chain sector by sector and verify every sector ladder,
    in one sweep over the weight blocks m = 0..N, none of them built dense.

    By q-Schur-Weyl duality the sector-k eigenvectors of H are exactly the
    kernel of F_1 on weight block k <= N/2, which _hw_eigenpairs takes as
    range(E_1)^perp from one complete QR of the E_1 map into block k, with
    H compressed onto it and one f^lambda-wide eigh; rank_margin is the
    worst min |R_ii| / max |R_ii| of those QRs, compared with no tolerance.
    Every block's words and H's site arrays come from one builder pass, and
    E_1 from every block m to m+1 from one _coproduct_maps call over the
    same ranking, under the guard _check_guard "sectors"; F_1 from block m
    to m-1 is the transpose of the previous E_1 map, which it equals exactly
    in this basis.  The
    open ladders are one column array, sectors increasing, advanced once
    per block and cleared of the lower sectors on every rung once block m's
    highest weight vectors join (_clear_lower_sectors).  H from the block's
    site arrays (_block_apply) and E_1 by one dense product check |H B - B
    Lambda|, the closed-form coefficient |E_1^T E_1 B - kappa B| / kappa
    with kappa = [N-k-m]_q [m-k+1]_q (up to about 1e8), read per ladder from
    one table of [j]_q, j = 0..N, by its sector k, and at the top rung m =
    N-k the termination |E_1 B|, each relative to the rung's column norms
    (_column_norms) and RESIDUAL_CHUNK columns at a time, and the hw
    residual |F_1 b| / |b| of each new highest weight vector b.  The open
    ladders' values and residual rows are arrays; when sector k ends at rung
    N-k its columns become its SectorLadders, and its worst hw, kappa,
    termination and eigen residuals are the maxima of those rows: a sector
    whose worst exceeds HW_TOL, or is NaN, gets a warning.  Block m holds
    spec rho_(N-k,k)(H) once for each k <= m (K_{(N-k,k),(N-m,m)} = 1), so
    on every rung m <= N/2 the sorted open-ladder values must equal the
    sorted union of those seminormal spectra (_seminormal_spectra, as in
    diagonalize) within EIG_RESIDUAL_TOL * max(1, |eigenvalue|), or the rung
    gets a warning; rung_residual is the worst difference.  The clusters are
    the runs of each sector's ladder values, from the same arrays, at
    diagonalize's tol (_runs), each valued at its mean, with multiplicity
    the run's ladders times N - 2k + 1 and the hw residual of its first
    ladder.  ok holds when the sector counts match the prediction and there
    is no warning.
    """
    if chain.n != 2:
        raise ValidationError("sector classification is defined for the n=2 slice")
    _check_guard(chain, "sectors")
    N, q = chain.N, chain.q
    shapes, shape_values, tol = _seminormal_spectra(chain)     # shapes[k] = (N - k, k)
    words, bounds = weight_blocks(2, N, [(N - m, m) for m in range(N + 1)])
    # blocks 0..N and an empty block N + 1, ranked once for H and for E_1
    # from every block m into m + 1, block N into the empty one; each map is
    # built as the sweep reaches it
    ranked = _rank(2, N, words, np.append(bounds, bounds[-1]))
    sites = _sites_by_block(chain, ranked)
    e_maps = _coproduct_maps(chain, "E", 1, ranked, [(m, m + 1) for m in range(N + 1)])
    ended = {}      # k -> the values and residual rows of sector k's ladders
    warnings, rung_residual, rank_margin = [], 0.0, 1.0
    # [j]_q for j = 0..N: kappa = [N-k-m]_q [m-k+1]_q from two lookups per ladder
    brackets = np.array([q_number(j, q) for j in range(N + 1)])
    # open ladders, one column each: current rung, eigenvalue, sector
    # (increasing) and residual rows hw/kappa/term/eigen
    b, values, sector, res = np.zeros((1, 0)), np.zeros(0), np.zeros(0, dtype=int), np.zeros((4, 0))
    e_down = np.zeros((1, 0))   # E_1 into block 0, from the empty block below it
    for m, (block_sites, e_up) in enumerate(zip(sites, e_maps)):
        fresh = len(sector)     # block m's highest weight vectors, if any, start here
        if m <= N // 2:
            hw_values, hw, margin = _hw_eigenpairs(block_sites, e_down)
            rank_margin = min(rank_margin, margin)
            b, values = np.hstack([b, hw]), np.concatenate([values, hw_values])
            sector = np.concatenate([sector, np.full(len(hw_values), m)])
            res = np.hstack([res, np.zeros((4, len(hw_values)))])
            want = np.sort(np.concatenate(shape_values[:m + 1]))
            if len(values) != len(want):
                warnings.append(f"rung {m}: {len(values)} open ladders for the "
                                f"{len(want)} eigenvalues of block {m}")
            else:
                miss = np.abs(np.sort(values) - want)
                rung_residual = float(np.max(miss, initial=rung_residual))   # NaN stays
                if not (miss <= EIG_RESIDUAL_TOL * np.maximum(1.0, np.abs(want))).all():
                    warnings.append(f"rung {m}: open ladder values differ from the "
                                    f"eigenvalues of block {m} by {miss.max():.2e}, "
                                    f"above {EIG_RESIDUAL_TOL:g}")
        _clear_lower_sectors(b, sector)
        norms = _column_norms(b)
        res[0, fresh:] = _column_norms(e_down.T @ b[:, fresh:]) / norms[fresh:]
        up = e_up @ b
        top = int(np.searchsorted(sector, N - m))    # sector N - m ends here
        kappa = brackets[N - m - sector[:top]] * brackets[m + 1 - sector[:top]]
        # d x RESIDUAL_CHUNK temporaries; the columns g of chunk c go on past this rung
        for lo in range(0, len(sector), RESIDUAL_CHUNK):
            c, g = slice(lo, lo + RESIDUAL_CHUNK), slice(lo, min(lo + RESIDUAL_CHUNK, top))
            res[3, c] = np.maximum(res[3, c], _column_norms(
                _block_apply(block_sites, b[:, c]) - b[:, c] * values[c]) / norms[c])
            res[1, g] = np.maximum(res[1, g], _column_norms(
                e_up.T @ up[:, g] - kappa[g] * b[:, g]) / (kappa[g] * norms[g]))
        res[2, top:] = _column_norms(up[:, top:]) / norms[top:]
        if top < len(sector):
            ended[N - m] = values[top:], res[:, top:]
        b, values, sector, res = up[:, :top], values[:top], sector[:top], res[:, :top]
        e_down = e_up

    sectors: dict[int, list[SectorLadder]] = {k: [] for k in range(N // 2 + 1)}
    clusters = []
    for k, (ladder_values, ladder_res) in sorted(ended.items()):
        sectors[k] = [SectorLadder(v, *r, sector_dimension(N, k))
                      for v, r in zip(ladder_values.tolist(), ladder_res.T.tolist())]
        # a max over the ladders is NaN when any residual is NaN, which fails the gate
        failing = [f"{name} {worst:.2e}"
                   for name, worst in zip(LADDER_RESIDUALS, ladder_res.max(axis=1).tolist())
                   if not worst <= HW_TOL]
        if failing:
            warnings.append(f"sector {k} ladder residuals above {HW_TOL:g}: "
                            + ", ".join(failing))
        # increasing: each block's highest weight values are (_hw_eigenpairs)
        clusters += _run_clusters(ladder_values, tol, sector_dimension(N, k), shapes[k], k,
                                  ladder_res[0].tolist())
    clusters.sort(key=lambda c: c.value)
    m_observed = {k: len(v) for k, v in sectors.items()}
    m_predicted = {k: sector_multiplicity(N, k) for k in range(N // 2 + 1)}
    ok = m_observed == m_predicted and not warnings
    return SectorReport(N, q, sectors, m_observed, m_predicted, warnings, ok, clusters, tol,
                        rung_residual, rank_margin)


def _column_norms(x: np.ndarray) -> np.ndarray:
    """The 2-norm of each column of a real array: the arithmetic of
    np.linalg.norm(x, axis=0), so bit for bit its result, without its
    dispatch."""
    return np.sqrt(np.add.reduce(x * x, axis=0))


def _hw_eigenpairs(sites: tuple, e: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Increasing eigenvalues and eigenvectors of H on ker F_1 in a weight
    block m <= N/2, from the block's site arrays and e, the E_1 map from
    block m-1 (F_1 = e.T), and the rank margin min |R_ii| / max |R_ii| of e
    = QR (1.0 when e has no column).

    Below the middle E_1 is injective, so ker F_1 = range(E_1)^perp, the
    span of the last d_m - d_{m-1} columns W of the complete QR of e: they
    are orthonormal and orthogonal to range(e) to rounding whatever the
    margin, so no rank is cut at a tolerance and the margin is only
    reported.  H compressed onto them, W^T H W, gets one f^lambda-wide eigh.
    """
    full, r = np.linalg.qr(e, mode="complete")
    w = full[:, e.shape[1]:]
    vals, rot = np.linalg.eigh(w.T @ _block_apply(sites, w))
    diag = np.abs(np.diagonal(r))
    return vals, w @ rot, float(diag.min() / diag.max()) if diag.size else 1.0


def _clear_lower_sectors(b: np.ndarray, sector: np.ndarray) -> None:
    """Subtract in place from each sector's columns of the open-ladder array
    b (sector: each column's, increasing) their components along every lower
    sector's columns, sectors in increasing order, with weights 1/|b_j|^2
    (taken once; clearing moves them at second order): ladders of distinct
    sectors are eigenvectors of F_1 E_1 = E_1^T E_1 with distinct kappa.
    Uncleared, rounding along a lower ladder grows by about sqrt(kappa_lower
    / kappa_k) per rung (Parlett, The Symmetric Eigenvalue Problem, ch. 13).
    At rung m <= N/2 the lower columns span (ker F_1)^perp = range(E_1)."""
    weights = np.einsum("ij,ij->j", b, b)[:, None]
    cuts = (np.flatnonzero(np.diff(sector)) + 1).tolist() + [len(sector)]
    for lo, hi in zip(cuts, cuts[1:]):
        b[:, lo:hi] -= b[:, :lo] @ ((b[:, :lo].T @ b[:, lo:hi]) / weights[:lo])


@dataclass
class DecompositionReport:
    n: int
    N: int
    q: float
    ok: bool
    total_dimension: int
    expected_total: int
    mismatches: list
    sector_report: SectorReport | None = None
    irreps: dict = field(default_factory=dict)   # shape -> Irrep, for n != 2


def verify_decomposition(n: int, N: int, q: float) -> DecompositionReport:
    """Cross-check the spectrum against tableau predictions.

    The Schur-Weyl sum of f^lambda ssyt_dim(lambda, n), from the closed
    dimension formulas of tableaux, must be n^N (schur_weyl_total), and so
    must the total multiplicity of the clusters (spectral_total).  For n=2
    the clusters and sectors come from one classify_sectors sweep: sector k
    must hold m_k = f^(N-k,k) ladders (sector_k_count), each N - 2k + 1
    states long, so the clusters' total is the observed ladders times their
    lengths; the predicted sum of m_k (N - 2k + 1) is the Schur-Weyl sum at
    n = 2 (ssyt_dim((N-k, k), 2) = N - 2k + 1), so it is not checked twice.
    Every ladder is checked rung by rung, and on every rung m <= N/2 the
    open ladders' values are compared with the seminormal spectra of the
    sectors k <= m, the independent check of the sector values.  For every
    other n the values-only diagonalize checks the Kostka identity on every
    dominant weight block against the seminormal spectra, and the report
    carries, per lambda, the spectrum of rho_lambda(H) (f^lambda values),
    ssyt_dim(lambda, n) and the worst residual (irreps).
    """
    chain = OpenChain(n, N, q)
    mismatches = []
    expected_total = sum(syt_dim(lam) * ssyt_dim(lam, n)
                         for lam in partitions_of(N, max_rows=n))
    if expected_total != n ** N:
        mismatches.append({"what": "schur_weyl_total", "expected": n ** N,
                           "got": expected_total})
    sector_report, irreps = None, {}
    if n == 2:
        sector_report = classify_sectors(chain)
        clusters = sector_report.clusters
    else:
        deco = diagonalize(chain)
        clusters, irreps = deco.clusters, deco.irreps
    total = sum(c.multiplicity for c in clusters)
    if total != n ** N:
        mismatches.append({"what": "spectral_total", "expected": n ** N, "got": total})
    if n == 2:
        observed, predicted = sector_report.m_observed, sector_report.m_predicted
        for k, m in predicted.items():
            if observed.get(k, 0) != m:
                mismatches.append({"what": f"sector_{k}_count", "expected": m,
                                   "got": observed.get(k, 0)})
    ok = not mismatches and (sector_report.ok if sector_report else True)
    return DecompositionReport(n, N, q, ok, total, n ** N, mismatches, sector_report, irreps)


def symmetry_residual(n: int, N: int, q: float) -> float:
    """Max column norm of [H, y] over the coproduct operators y = E_j, F_j,
    q^{H_j} and q^{eps_j}; zero in exact arithmetic by the invariance of the
    chain.

    Every weight block is ranked once (_rank), and [H, y] is taken from
    sparse terms over that ranking, with no dense H block or y map: H's
    diagonal and swaps (_hamiltonian_terms), and per operator kind y's
    terms from every block into the block it maps into (_coproduct_terms).
    The residual is the worst norm of [H, y] e_c over the basis words c,
    for E_j and F_j from _ladder_commutator, for the diagonal kinds from
    _diagonal_commutator; a NaN residual is the worst.  The size guard
    counts every block, sum d^2 entries (_check_guard with held "all"): one
    kind holds one slot per (source word, target-block row), sum d_s d_t
    over its block pairs, which is at most that, and each kind's slots are
    freed before the next is built.
    """
    chain = OpenChain(n, N, q)
    _check_guard(chain, "all")
    # (kind, j, letter it removes, letter it adds); diagonal ones move none
    ops = []
    for j in range(1, n):
        ops += [("E", j, j, j + 1), ("F", j, j + 1, j), ("qH", j, None, None)]
    ops += [("qEps", j, None, None) for j in range(1, n + 1)]
    contents = dicke_labels(n, N)
    index = {content: b for b, content in enumerate(contents)}
    ranked = _rank(n, N, *weight_blocks(n, N, contents))
    diag, steps = _hamiltonian_terms(chain, ranked)
    # H's swaps sorted by column: the swaps p of word c are h_rows[h_ptr[c]:h_ptr[c + 1]]
    empty = np.zeros(0, dtype=np.int64)
    h_rows = np.concatenate([empty, *(rows for rows, _ in steps)])
    h_cols = np.concatenate([empty, *(cols for _, cols in steps)])
    order = np.argsort(h_cols, kind="stable")
    h_rows, h_cols = h_rows[order], h_cols[order]
    h = h_rows, h_cols, _pointers(h_cols, len(diag)), 1.0 / q
    worst = []
    for kind, j, removed, added in ops:
        pairs = []
        for b, content in enumerate(contents):
            target = list(content)
            if removed is not None:
                target[removed - 1] -= 1
                target[added - 1] += 1
                if target[removed - 1] < 0:
                    continue            # y kills the whole block
            pairs.append((b, index[tuple(target)]))
        terms = _coproduct_terms(chain, kind, j, ranked, pairs)
        if removed is None:
            worst.append(_diagonal_commutator(h, terms))
        else:
            worst.append(_ladder_commutator(diag, h, terms, ranked))
    # np.max returns NaN when any residual is NaN
    return float(np.max(worst, initial=0.0))


def _ladder_commutator(diag: np.ndarray, h: tuple, terms: _Terms, ranked: _Ranked) -> float:
    """Max over the source words c of |[H, y] e_c| for y = E_j or F_j, from
    H's diagonal, h = H's swaps (rows, cols) sorted by column with their
    column bounds and entry 1/q, and y's terms (_coproduct_terms) over
    ranked block pairs (s, t), s increasing.

    [H, y] e_c is (a) every term (r, c, v) of y times diag[r] - diag[c],
    plus (b) v/q at every swap of r (H after y), minus (c) 1/q times the
    terms of y's column p at every swap p of c (y after H).  np.add.at sums
    each part in turn into one slot per (source word, target-block row),
    laid out like the dense y maps, source word c of pair (s, t) owning d_t
    slots in a row, and np.add.reduceat over each word's slots gives its
    squared norm.
    """
    h_rows, h_cols, h_ptr, off = h
    rows, cols, v = terms.rows, terms.cols, terms.entries
    within = np.arange(len(diag)) - ranked.first            # position in its block
    widths = np.diff(ranked.bounds)[terms.targets]
    start = np.zeros(len(diag), dtype=np.int64)             # each source word's first slot
    start[terms.sources] = np.cumsum(widths) - widths
    acc = np.zeros(int(widths.sum()))
    np.add.at(acc, start[cols] + within[rows], v * (diag[rows] - diag[cols]))     # (a)
    term, swap = _gather(h_ptr, rows)
    np.add.at(acc, start[cols[term]] + within[h_rows[swap]], v[term] * off)      # (b)
    del term, swap                                          # before (c)'s are built
    swap, term = _gather(_pointers(cols, len(diag)), h_rows)
    np.add.at(acc, start[h_cols[swap]] + within[rows[term]], v[term] * -off)     # (c)
    acc *= acc
    return sqrt(float(np.add.reduceat(acc, start[terms.sources]).max(initial=0.0)))


def _diagonal_commutator(h: tuple, terms: _Terms) -> float:
    """Max over the words c of |[H, y] e_c| for a diagonal y = q^{H_j} or
    q^{eps_j} with entry t_c at word c (_coproduct_terms), from H's swaps
    (h, as _ladder_commutator takes it): (t_c - t_p)/q at each swap p of
    c, no two of them at one word, so no slot sums them."""
    h_rows, h_cols, h_ptr, off = h
    t = np.zeros(len(h_ptr) - 1)
    t[terms.cols] = terms.entries
    values = (t[h_cols] - t[h_rows]) * off
    return sqrt(float(np.bincount(h_cols, weights=values * values, minlength=len(t)).max()))
