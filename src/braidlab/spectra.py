"""Exact spectral decomposition of the invariant open chain H = sum_j r_j.

H preserves the multiset of letters of a word, so it block-diagonalizes over
weight blocks (fixed letter content) before any dense solve; the full n^N
space is only ever assembled by the test oracles.  For n = 2 the weight-k
block is the binomial(N, k)-dimensional space of words with k high letters,
and the sector structure is classified: a sector-k eigenvalue has a highest
weight vector killed by F_1 in block k and carries an E_1-ladder of
N - 2k + 1 states with closed-form F_1 E_1 coefficients
kappa_m = [N-k-m]_q [m-k+1]_q.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, isfinite

import numpy as np

from .errors import SizeGuardError, ValidationError, max_dense_dim
from .qalgebra import check_label, dicke_labels, q_number

CLUSTER_RTOL = 1e-8
EIG_RESIDUAL_TOL = 1e-9
HW_TOL = 1e-8
RESIDUAL_CHUNK = 128


@dataclass(frozen=True)
class OpenChain:
    n: int
    N: int
    q: float

    def __post_init__(self):
        if self.n < 1 or self.N < 1:
            raise ValidationError("n and N must be >= 1")
        if not isfinite(self.q) or self.q <= 0:
            raise ValidationError("q must be positive and finite")


@dataclass
class EigenCluster:
    value: float
    multiplicity: int
    # per contributing weight block: (content, weight_basis words, eigenvector columns)
    blocks: list = field(default_factory=list)
    sector: int | None = None
    hw_residual: float | None = None


@dataclass
class SpectralDecomposition:
    n: int
    N: int
    q: float
    clusters: list

    @property
    def eigenvalues(self) -> list[float]:
        return [c.value for c in self.clusters]

    @property
    def multiplicities(self) -> list[int]:
        return [c.multiplicity for c in self.clusters]

    def total_dimension(self) -> int:
        return sum(self.multiplicities)


def weight_basis(n: int, N: int, content: tuple[int, ...]) -> np.ndarray:
    """The (d, N) int64 array of the words with the given letter content in
    lexicographic order, built one position at a time from rows (letter
    counts left, word so far): each prefix row is followed by the letters it
    still has, in order.  A non-composition content is a ValidationError."""
    rows = np.zeros((1, n + N), dtype=np.int64)
    rows[0, :n] = check_label(n, N, content)
    for k in range(n, n + N):
        prefix, letters = np.nonzero(rows[:, :n])
        rows = rows[prefix]
        rows[np.arange(len(prefix)), letters] -= 1
        rows[:, k] = letters + 1
    return rows[:, n:]


def _rank(n: int, N: int, basis) -> tuple:
    """Letters, base-n keys and a key -> position lookup for a weight block
    given as its lexicographic word array (weight_basis), whose increasing
    keys the lookup searches directly; words out of order, or a key outside
    the basis (not a whole weight block), are a ValidationError."""
    words = np.asarray(basis, dtype=np.int64)
    if words.shape == (0,):
        words = words.reshape(0, N)
    if words.shape[1:] != (N,) or not ((words >= 1) & (words <= n)).all():
        raise ValidationError(f"basis words must lie in [1,{n}]^{N}")
    # base-n keys overflow int64 beyond n^N = 2^63; Python integers do not
    key_type = np.int64 if n ** N <= np.iinfo(np.int64).max else object
    words = words.astype(key_type, copy=False)
    powers = np.array([n ** (N - 1 - j) for j in range(N)], dtype=key_type)
    keys = (words - 1) @ powers
    if (np.diff(keys) <= 0).any():
        raise ValidationError("basis words must be distinct and in lexicographic order")
    # the sentinel n^N lies past every word's key, so each position is in range
    sorted_keys = np.append(keys, np.array([n ** N], dtype=key_type))

    def lookup(wanted):
        pos = np.searchsorted(sorted_keys, wanted)
        if not np.array_equal(sorted_keys[pos], wanted):
            raise ValidationError("basis is not a whole weight block")
        return pos

    return words, powers, keys, lookup


def _block_sites(chain: OpenChain, basis) -> tuple:
    """H on one weight block as site arrays (diag, sites, 1/q), from ranked
    words (_rank).  Per site j, over all words at once, r_j adds 1 to diag
    for an equal pair and 1 - q^-2 for a decreasing pair (summed over j in
    increasing order), and 1/q at (rows, cols): cols are the words whose
    letters at j, j+1 differ, rows the swapped words.  No (row, col) occurs
    twice.
    """
    N, q = chain.N, chain.q
    words, powers, keys, lookup = _rank(chain.n, N, basis)
    diag = np.zeros(len(words))
    c = 1.0 - q ** -2
    sites = []
    for j in range(N - 1):
        x, y = words[:, j], words[:, j + 1]
        diag += np.where(x == y, 1.0, np.where(x > y, c, 0.0))
        cols = np.flatnonzero(x != y)
        sites.append((lookup(keys[cols] + (y[cols] - x[cols]) * (powers[j] - powers[j + 1])),
                      cols))
    return diag, sites, 1.0 / q


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


def coproduct_block(chain: OpenChain, kind: str, j: int, source, target) -> np.ndarray:
    """Matrix of E_j, F_j, q^{H_j} or q^{eps_j} (kind "E", "F", "qH", "qEps")
    from span(source) into span(target), two lexicographic word arrays
    (weight_basis); target must hold every image word.

    Built from ranked words like block_matrix: the E_j or F_j term at site k
    moves the key by +-n^(N-1-k), with q to half of (j count - j+1 count)
    right of k minus left of k, from one cumulative sum.  Every power of q
    (diagonal kinds too, per word) is a Python float from a table over the
    exponents that occur: the block equals the sparse operator bit for bit.
    """
    n, N, q = chain.n, chain.N, chain.q
    if kind not in ("E", "F", "qH", "qEps") or not 1 <= j <= (n if kind == "qEps" else n - 1):
        raise ValidationError(f"no coproduct operator {kind}_{j} for n={n}")
    words, powers, keys, _ = _rank(n, N, source)
    target_words, _, _, lookup = _rank(n, N, target)
    step = (words == j).astype(np.int64) - (words == j + 1)
    # terms: (source columns, image keys, twice the exponent of q)
    if kind == "qH" or kind == "qEps":
        counts = (words == j).sum(axis=1) if kind == "qEps" else step.sum(axis=1)
        terms = [(np.arange(len(words)), keys, 2 * counts)]
    else:
        left = np.cumsum(step, axis=1) - step                      # count left of k
        twice = step.sum(axis=1, keepdims=True) - step - 2 * left  # right minus left
        letter, shift = (j, 1) if kind == "E" else (j + 1, -1)
        cols = [np.flatnonzero(words[:, k] == letter) for k in range(N)]
        terms = [(c, keys[c] + shift * powers[k], twice[c, k]) for k, c in enumerate(cols)]
    exps = np.concatenate([e for _, _, e in terms])
    lo, hi = int(exps.min(initial=0)), int(exps.max(initial=0))
    table = np.array([q ** (0.5 * e) for e in range(lo, hi + 1)])
    m = np.zeros((len(target_words), len(words)))
    for cols, image, e in terms:
        m[lookup(image), cols] = table[e - lo]
    return m


def _check_guard(chain: OpenChain) -> None:
    limit = max_dense_dim()
    if chain.n ** chain.N <= limit:
        return
    if chain.n == 2 and comb(chain.N, chain.N // 2) <= limit:
        return
    raise SizeGuardError(
        f"n^N = {chain.n ** chain.N} exceeds the dense guard {limit}, and the "
        f"weight-block path covers only n=2 with binomial(N, N//2) <= {limit}")


def _runs(values: np.ndarray, tol: float) -> list[tuple[int, int]]:
    """Half-open (lo, hi) bounds of the runs of sorted values whose
    neighbours differ by at most tol: each gap above tol starts a new run."""
    cuts = (np.flatnonzero(np.diff(values) > tol) + 1).tolist()
    bounds = [0, *cuts, len(values)]
    return [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


def _orient_and_check(block: tuple, vals: np.ndarray, vecs: np.ndarray) -> None:
    """Fix the sign of each eigenvector in place and check every eigenpair
    against the block's own H, given as its site arrays (_block_sites).

    A column is negated when its first component with |v| > 1e-12 is
    negative (the columns are unit vectors, so one always exists).  The check
    is |H v - lambda v|_inf <= EIG_RESIDUAL_TOL * max(1, |lambda|), with H v
    from _block_apply, taken RESIDUAL_CHUNK columns at a time so no
    temporary outgrows d x RESIDUAL_CHUNK.
    """
    for lo in range(0, vecs.shape[1], RESIDUAL_CHUNK):
        v, lam = vecs[:, lo:lo + RESIDUAL_CHUNK], vals[lo:lo + RESIDUAL_CHUNK]
        lead = v[np.argmax(np.abs(v) > 1e-12, axis=0), np.arange(v.shape[1])]
        v *= np.where(lead < 0, -1.0, 1.0)
        hv = _block_apply(block, v)
        hv -= v * lam           # hv and its abs in place: two fewer d x chunk temporaries
        resid = np.abs(hv, out=hv).max(axis=0)
        bad = np.flatnonzero(resid > EIG_RESIDUAL_TOL * np.maximum(1.0, np.abs(lam)))
        if bad.size:
            raise ValidationError(
                f"eigenpair residual {float(resid[bad[0]])} exceeds {EIG_RESIDUAL_TOL}")


def _w0_positions(n: int, N: int, basis, partner) -> np.ndarray:
    """Position in partner, the block of the reversed content, of the w0
    image of each word of basis: the word reversed, each letter a sent to
    n + 1 - a."""
    words, powers, _, _ = _rank(n, N, basis)
    _, _, _, lookup = _rank(n, N, partner)
    return lookup((n - words[:, ::-1]) @ powers)


def diagonalize(chain: OpenChain) -> SpectralDecomposition:
    """Full decomposition via weight blocks, with eigenvalue clustering.

    H commutes with the longest Weyl element w0 (reverse a word, send each
    letter a to n + 1 - a), which maps weight block mu onto block
    reversed(mu).  The first block of each such pair gets one dense eigh of
    block_matrix; its mirror takes the same values, and as vectors the
    partner's rows at the w0 images of its words (_w0_positions), with no
    dense matrix built.  Palindromic contents are solved directly.  Every
    block, mirrored ones included, is checked against its own H within
    EIG_RESIDUAL_TOL, in column chunks (see _orient_and_check), so each run
    verifies the w0 symmetry it uses.  Eigenvector sign convention: first
    component above 1e-12 in magnitude positive.
    Eigenvalues are grouped by one rule (_runs) at tol = CLUSTER_RTOL *
    max(1, max |eigenvalue|): a run of sorted values whose neighbours differ
    by at most tol.  Within a block the runs of eigh's sorted values are
    merged to their mean; across blocks the runs of those means, sorted
    once, are the clusters, valued at the mean of their means and in
    increasing order.  Exact cross-block degeneracies are the tableau
    multiplicities.  A within-block run is a run of columns and is stored as
    a view of the block's eigenvector matrix, not a copy.
    """
    _check_guard(chain)
    n, N = chain.n, chain.N
    per_block = {}
    max_abs = 1.0
    for content in dicke_labels(n, N):
        basis = weight_basis(n, N, content)
        block = _block_sites(chain, basis)
        if content[::-1] in per_block:
            partner, vals, partner_vecs = per_block[content[::-1]]
            vecs = partner_vecs[_w0_positions(n, N, basis, partner)]
        else:
            vals, vecs = np.linalg.eigh(_dense(block))
        _orient_and_check(block, vals, vecs)
        per_block[content] = (basis, vals, vecs)
        max_abs = max(max_abs, float(np.abs(vals).max()))
    tol = CLUSTER_RTOL * max_abs

    flat = []
    for content, (basis, vals, vecs) in per_block.items():
        for lo, hi in _runs(vals, tol):
            value = float(vals[lo]) if hi - lo == 1 else float(np.mean(vals[lo:hi]))
            flat.append((value, content, basis, vecs[:, lo:hi]))
    values = np.array([f[0] for f in flat])
    order = np.argsort(values)
    clusters = []
    for lo, hi in _runs(values[order], tol):
        entries = [flat[i] for i in order[lo:hi]]
        value = entries[0][0] if len(entries) == 1 else float(np.mean([e[0] for e in entries]))
        mult = sum(e[3].shape[1] for e in entries)
        clusters.append(EigenCluster(value, mult,
                                     [(e[1], e[2], e[3]) for e in entries]))
    return SpectralDecomposition(chain.n, chain.N, chain.q, clusters)


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
    """m_k = N!/(k! (N-k+1)!) (N-2k+1), the number of sector-k eigenvalues."""
    m = Fraction(factorial(N), factorial(k) * factorial(N - k + 1)) * (N - 2 * k + 1)
    assert m.denominator == 1
    return int(m)


def sector_dimension(N: int, k: int) -> int:
    """d_{k,2} = N - 2k + 1, the ladder length of one sector-k eigenvalue."""
    return N - 2 * k + 1


@dataclass
class SectorLadder:
    eigenvalue: float
    hw_residual: float
    kappa_residual: float
    termination_residual: float
    eigen_residual: float
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


def classify_sectors(decomposition: SpectralDecomposition) -> SectorReport:
    """Assign n=2 eigenvalues to sectors and verify every sector ladder, in
    one sweep over the weight blocks m = 0..N.

    By q-Schur-Weyl duality the sector-k eigenvectors of H are exactly the
    kernel of F_1 on weight block k <= N/2 (see _highest_weight).  H on block
    m (block_matrix) and E_1 from block m to m+1 (coproduct_block) are built
    once each from ranked words; F_1 from block m to m-1 is the transpose of
    the previous E_1 map, which it equals exactly in this basis.  Every open
    sector-k ladder B is advanced as one matrix product over its columns,
    checking |H B - B Lambda|, the closed-form coefficient
    |E_1^T E_1 B - kappa B| with kappa = [N-k-m]_q [m-k+1]_q, and
    at the top rung m = N-k the termination |E_1 B|, each relative to the
    rung's column norms.  A sector whose worst hw, kappa, termination or
    eigen residual exceeds HW_TOL gets a warning.  Sector labels come from
    one sorted pass over every cluster and ladder value, cut into runs at
    CLUSTER_RTOL * max(1, max |cluster value|) (_runs, as in diagonalize):
    a cluster takes the lowest sector in its run and the hw_residual of
    that sector's first ladder there.  A run holding ladders of two sectors
    is a degeneracy across sectors, warned about after that sector's
    residual warning and never silently merged.  ok holds when the sector
    counts match the prediction and there is no warning.
    """
    if decomposition.n != 2:
        raise ValidationError("sector classification is defined for the n=2 slice")
    N, q = decomposition.N, decomposition.q
    chain = OpenChain(2, N, q)
    sectors: dict[int, list[SectorLadder]] = {k: [] for k in range(N // 2 + 1)}
    # open ladders: k -> (eigenvalues, current rung, residual rows hw/kappa/term/eigen)
    ladders = {}
    # E_1 into block 0 comes from the empty block below it
    basis, e_down = weight_basis(2, N, (N, 0)), np.zeros((1, 0))
    for m in range(N + 1):
        above = weight_basis(2, N, (N - m - 1, m + 1)) if m < N else []
        h = block_matrix(chain, basis)
        e_up = coproduct_block(chain, "E", 1, basis, above)
        if m <= N // 2:
            values, b = _highest_weight(h, e_down.T)
            res = np.zeros((4, len(values)))
            res[0] = np.linalg.norm(e_down.T @ b, axis=0) / np.linalg.norm(b, axis=0)
            ladders[m] = (values, b, res)
        for k, (values, b, res) in list(ladders.items()):
            norms = np.linalg.norm(b, axis=0)
            res[3] = np.maximum(res[3], np.linalg.norm(h @ b - b * values, axis=0) / norms)
            up = e_up @ b
            if m < N - k:
                kappa = q_number(N - k - m, q) * q_number(m - k + 1, q)
                res[1] = np.maximum(res[1], np.linalg.norm(e_up.T @ up - kappa * b, axis=0) / norms)
                ladders[k] = (values, up, res)
            else:
                res[2] = np.linalg.norm(up, axis=0) / norms
                sectors[k] = [SectorLadder(float(v), *map(float, r), m - k + 1)
                              for v, r in zip(values, res.T)]
                del ladders[k]
        basis, e_down = above, e_up

    # cluster values, then ladder values tagged (k, i) for ladder i of sector k
    clusters = decomposition.clusters
    tags = [(k, i) for k, lads in sectors.items() for i in range(len(lads))]
    values = np.array([c.value for c in clusters] + [sectors[k][i].eigenvalue for k, i in tags])
    order = np.argsort(values)
    tol = CLUSTER_RTOL * max(1.0, max((abs(c.value) for c in clusters), default=1.0))
    clash = {}                  # (k, i) -> the lower sector of each ladder in its run
    for lo, hi in _runs(values[order], tol):
        run = np.sort(order[lo:hi]) - len(clusters)   # clusters < 0 (from the end), ladders >= 0
        labelled = [tags[j] for j in run[run >= 0]]
        for t, (k, i) in enumerate(labelled):
            clash[k, i] = [prev_k for prev_k, _ in labelled[:t] if prev_k != k]
        if labelled:
            k, i = labelled[0]
            for j in run[run < 0]:
                clusters[j].sector, clusters[j].hw_residual = k, sectors[k][i].hw_residual
    warnings = []
    for k, lads in sectors.items():
        failing = []
        for name in LADDER_RESIDUALS:
            worst = max((getattr(lad, name) for lad in lads), default=0.0)
            if worst > HW_TOL:
                failing.append(f"{name} {worst:.2e}")
        if failing:
            warnings.append(f"sector {k} ladder residuals above {HW_TOL:g}: "
                            + ", ".join(failing))
        for i, lad in enumerate(lads):
            warnings += [f"eigenvalue {lad.eigenvalue:.12g} of sector {k} degenerate with "
                         f"sector {prev_k}; falling back to multiplicity-only matching"
                         for prev_k in clash[k, i]]
    m_observed = {k: len(v) for k, v in sectors.items()}
    m_predicted = {k: sector_multiplicity(N, k) for k in range(N // 2 + 1)}
    ok = m_observed == m_predicted and not warnings
    return SectorReport(N, q, sectors, m_observed, m_predicted, warnings, ok)


def _highest_weight(h: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of H restricted to the kernel of F_1.

    The null space is read off one singular value decomposition, with the
    rank counted against HW_TOL times the largest singular value, so the
    sector counts stay measurements.
    """
    _, sv, vt = np.linalg.svd(f)
    kernel = vt[int(np.count_nonzero(sv > HW_TOL * sv.max(initial=0.0))):].T
    vals, rot = np.linalg.eigh(kernel.T @ h @ kernel)
    return vals, kernel @ rot


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


def verify_decomposition(n: int, N: int, q: float) -> DecompositionReport:
    """Cross-check the diagonalized multiplicities against tableau predictions.

    For n=2: each sector k must contribute m_k eigenvalues of multiplicity
    N - 2k + 1, and their total must be 2^N.  For general n only the total
    dimension is matched against the Schur-Weyl sum (the lambda-resolved
    matching is a gl_2 statement).
    """
    from .tableaux import partitions_of, ssyt_dim, syt_dim
    chain = OpenChain(n, N, q)
    deco = diagonalize(chain)
    mismatches = []
    expected_total = sum(syt_dim(lam) * ssyt_dim(lam, n)
                         for lam in partitions_of(N, max_rows=n))
    if expected_total != n ** N:
        mismatches.append({"what": "schur_weyl_total", "expected": n ** N,
                           "got": expected_total})
    total = deco.total_dimension()
    if total != n ** N:
        mismatches.append({"what": "spectral_total", "expected": n ** N, "got": total})
    sector_report = None
    if n == 2:
        sector_report = classify_sectors(deco)
        for k in range(N // 2 + 1):
            expected_m = sector_multiplicity(N, k)
            got_m = sector_report.m_observed.get(k, 0)
            if got_m != expected_m:
                mismatches.append({"what": f"sector_{k}_count",
                                   "expected": expected_m, "got": got_m})
        for cluster in deco.clusters:
            if cluster.sector is None:
                mismatches.append({"what": "unclassified_eigenvalue",
                                   "value": cluster.value})
            elif cluster.multiplicity != sector_dimension(N, cluster.sector):
                mismatches.append({"what": "cluster_multiplicity",
                                   "value": cluster.value,
                                   "expected": sector_dimension(N, cluster.sector),
                                   "got": cluster.multiplicity})
        bookkeeping = sum(sector_multiplicity(N, k) * sector_dimension(N, k)
                          for k in range(N // 2 + 1))
        if bookkeeping != 2 ** N:
            mismatches.append({"what": "sector_bookkeeping", "expected": 2 ** N,
                               "got": bookkeeping})
    ok = not mismatches and (sector_report.ok if sector_report else True)
    return DecompositionReport(n, N, q, ok, total, n ** N, mismatches, sector_report)


def symmetry_residual(n: int, N: int, q: float) -> float:
    """Max column norm of [H, y] over the coproduct operators y = E_j, F_j,
    q^{H_j} and q^{eps_j}; zero in exact arithmetic by the invariance of the
    chain.

    One sweep over the weight blocks, each operator built from ranked words:
    H_mu comes from block_matrix, and each y from block mu to the block nu
    it maps into comes from coproduct_block, so the residual is the worst
    column norm of H_nu Y - Y H_mu, the norm of [H, y] v for each basis word
    v of block mu.  The sweep holds every H block at once, as diagonalize
    holds every eigenvector block, under the same size guard (_check_guard).
    """
    chain = OpenChain(n, N, q)
    _check_guard(chain)
    # (kind, j, letter it removes, letter it adds); diagonal ones move none
    ops = []
    for j in range(1, n):
        ops += [("E", j, j, j + 1), ("F", j, j + 1, j), ("qH", j, None, None)]
    ops += [("qEps", j, None, None) for j in range(1, n + 1)]
    bases = {content: weight_basis(n, N, content) for content in dicke_labels(n, N)}
    blocks = {content: (basis, block_matrix(chain, basis)) for content, basis in bases.items()}
    worst = 0.0
    for content, (basis, h) in blocks.items():
        for kind, j, removed, added in ops:
            target = list(content)
            if removed is not None:
                target[removed - 1] -= 1
                target[added - 1] += 1
                if target[removed - 1] < 0:
                    continue            # y kills the whole block
            target_basis, target_h = blocks[tuple(target)]
            y = coproduct_block(chain, kind, j, basis, target_basis)
            worst = max(worst, float(np.linalg.norm(target_h @ y - y @ h, axis=0).max()))
    return worst
