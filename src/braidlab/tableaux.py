"""Partitions, standard tableaux and Young tableau dimension counting.

Standard-tableau dimensions come from the Frobenius form of the hook
length formula and semistandard ones from Weyl's dimension formula, both
closed products in exact integer arithmetic; Kostka numbers come from
backtracking enumeration, so every number is traceable to first
principles.  These counts predict the eigenspace dimensions and
multiplicities of the invariant open chain, and the standard tableaux
themselves index its seminormal form (spectra.sector_hamiltonian): the
tableaux of every shape come from one pass (tableau_blocks), laid end to
end like weight blocks, and standard_tableaux is its one-shape call.
"""

from math import comb, perm

import numpy as np

from .errors import SizeGuardError, ValidationError, check_sparse_words

Partition = tuple[int, ...]
# partitions_of enumerates one partition at a time; this bounds the list
MAX_PARTITIONS = 10 ** 4


def check_partition(parts) -> Partition:
    parts = tuple(int(p) for p in parts)
    if not parts or any(p < 1 for p in parts):
        raise ValidationError(f"partition parts must be positive, got {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValidationError(f"partition must be weakly decreasing, got {parts}")
    return parts


def partition_count(N: int, max_rows: int) -> int:
    """Number of partitions of N with at most max_rows parts: by
    conjugation, the partitions of N into parts of size at most max_rows,
    counted by the recurrence over part sizes."""
    ways = [1] + [0] * N
    for part in range(1, min(max_rows, N) + 1):
        for total in range(part, N + 1):
            ways[total] += ways[total - part]
    return ways[N]


def partitions_of(N: int, max_rows: int | None = None) -> list[Partition]:
    """All partitions of N (optionally with at most max_rows parts), in
    reverse-lexicographic order: (N) first, (1,...,1) last.  More than
    MAX_PARTITIONS of them (partition_count) is a SizeGuardError."""
    if N < 1:
        raise ValidationError("N must be >= 1")
    if max_rows is not None and max_rows < 0:
        raise ValidationError(f"max_rows must be >= 0, got {max_rows}")
    rows = N if max_rows is None else max_rows
    count = partition_count(N, rows)
    if count > MAX_PARTITIONS:
        raise SizeGuardError(f"partitions of {N} with at most {rows} rows: {count} "
                             f"exceed the enumeration bound {MAX_PARTITIONS}")
    out = []

    def descend(remaining, cap, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if max_rows is not None and len(prefix) == max_rows:
            return
        # parts no larger than this one must fill the rows that are left
        least = 1 if max_rows is None else -(-remaining // (max_rows - len(prefix)))
        for part in range(min(cap, remaining), least - 1, -1):
            prefix.append(part)
            descend(remaining - part, part, prefix)
            prefix.pop()

    descend(N, N, [])
    return out


def syt_dim(shape: Partition) -> int:
    """Number of standard Young tableaux of the given shape: with the
    shifted parts l_i = lambda_i + len(lambda) - i (i = 1..len(lambda)),
    N! prod_{i<k} (l_i - l_k) / prod_i l_i!, the Frobenius form of the hook
    length formula, in exact integers.  N! / prod l_i! is taken as
    multinomial(l) / perm(sum l, sum l - N), binomials in place of
    factorials of N."""
    shape = check_partition(shape)
    R = len(shape)
    shifted = [part + R - i for i, part in enumerate(shape, 1)]
    numer = multinomial(shifted)
    for i, upper in enumerate(shifted):
        for lower in shifted[i + 1:]:
            numer *= upper - lower
    denom = perm(sum(shifted), R * (R - 1) // 2)
    quotient, rem = divmod(numer, denom)
    if rem:
        raise ValidationError(f"{denom} does not divide {numer}")
    return quotient


def tableau_blocks(shapes) -> tuple[np.ndarray, np.ndarray]:
    """The standard Young tableaux of a list of shapes of one N in one pass:
    a (D, N) int64 array of Yamanouchi words (entry k + 1 of a tableau sits
    in row word[k], rows counted from 0), shape after shape in the order of
    shapes and each shape's words in lexicographic order, and the int64
    bounds of the shapes, shape i's tableaux being words[bounds[i]:bounds[i
    + 1]], from syt_dim; laid out as spectra.weight_blocks lays out weight
    blocks.

    Built one entry at a time from rows (cells left per row, cells filled
    per row, word so far), one starting row per shape: each prefix row is
    followed by the rows that can take the next entry (not full, and shorter
    than the row above), in increasing order, so a row never leaves its
    shape and the shapes stay in the order of their starting rows.  Shapes
    of different sizes are a ValidationError, and more than MAX_SPARSE_WORDS
    tableaux of one shape (syt_dim) a SizeGuardError."""
    shapes = [check_partition(shape) for shape in shapes]
    sizes = [syt_dim(shape) for shape in shapes]
    for shape, size in zip(shapes, sizes):
        check_sparse_words(size, f"standard tableaux of shape {shape}")
    if len({sum(shape) for shape in shapes}) > 1:
        raise ValidationError(f"shapes must be partitions of one N, got {shapes}")
    N, R = sum(shapes[0]) if shapes else 0, max(map(len, shapes), default=0)
    rows = np.zeros((len(shapes), 2 * R + N), dtype=np.int64)
    for i, shape in enumerate(shapes):
        rows[i, :len(shape)] = shape
    for k in range(2 * R, 2 * R + N):
        left, filled = rows[:, :R], rows[:, R:2 * R]
        takes = left > 0
        takes[:, 1:] &= filled[:, 1:] < filled[:, :-1]
        prefix, row = np.nonzero(takes)
        rows = rows[prefix]
        at = np.arange(len(prefix))
        rows[at, row] -= 1
        rows[at, R + row] += 1
        rows[:, k] = row
    bounds = np.zeros(len(shapes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    return rows[:, 2 * R:], bounds


def standard_tableaux(shape: Partition) -> np.ndarray:
    """The standard Young tableaux of a shape as an (f, N) int64 array of
    Yamanouchi words in lexicographic order: the one-shape call of
    tableau_blocks.  More than MAX_SPARSE_WORDS tableaux (syt_dim) is a
    SizeGuardError."""
    return tableau_blocks([shape])[0]


def _ssyt_count(shape: Partition, content: tuple[int, ...]) -> int:
    """Backtracking count of semistandard fillings in which entry i appears
    exactly content[i-1] times.

    Rows weakly increase, columns strictly increase.
    """
    rows, n = len(shape), len(content)
    if rows > n:
        return 0
    remaining = list(content)

    def fill(i, j, above_rows):
        # above_rows[r][j] = entry at row r, column j (rows already filled up to (i, j))
        if i == rows:
            return 1
        if j == shape[i]:
            return fill(i + 1, 0, above_rows)
        lo = 1
        if j > 0:
            lo = max(lo, above_rows[i][j - 1])
        if i > 0:
            lo = max(lo, above_rows[i - 1][j] + 1)
        total = 0
        for v in range(lo, n + 1):
            if remaining[v - 1] == 0:
                continue
            remaining[v - 1] -= 1
            above_rows[i].append(v)
            total += fill(i, j + 1, above_rows)
            above_rows[i].pop()
            remaining[v - 1] += 1
        return total

    return fill(0, 0, [[] for _ in range(rows)])


def ssyt_dim(shape: Partition, n: int) -> int:
    """Number of semistandard Young tableaux of the given shape with entries
    in [1, n]; the dimension of the corresponding irreducible gl_n module.

    Weyl's dimension formula: with lambda padded by zeros to n parts, the
    product over 1 <= i < j <= n of (lambda_i - lambda_j + j - i) / (j - i),
    in exact integers; 0 for a shape with more than n rows.  The factors of
    row i with the zero parts j > len(lambda) make the binomial ratio
    C(lambda_i + n - i, lambda_i) / C(lambda_i + len(lambda) - i, lambda_i),
    so the cost does not grow with n.
    """
    if n < 1:
        raise ValidationError("alphabet size n must be >= 1")
    shape = check_partition(shape)
    R = len(shape)
    if R > n:
        return 0
    numer = denom = 1
    for i, part in enumerate(shape, 1):
        numer *= comb(part + n - i, part)
        denom *= comb(part + R - i, part)
        for j in range(i + 1, R + 1):
            numer *= part - shape[j - 1] + j - i
            denom *= j - i
    quotient, rem = divmod(numer, denom)
    if rem:
        raise ValidationError(f"{denom} does not divide {numer}")
    return quotient


def kostka(shape: Partition, content) -> int:
    """Kostka number: semistandard tableaux of the given shape and content."""
    shape = check_partition(shape)
    content = tuple(int(c) for c in content)
    if any(c < 0 for c in content):
        raise ValidationError("content entries must be nonnegative")
    if sum(shape) != sum(content):
        raise ValidationError(f"|shape|={sum(shape)} and |content|={sum(content)} differ")
    return _ssyt_count(shape, content)


def multinomial(parts) -> int:
    """(sum of parts)! / prod(part!): the number of words with these letter
    counts, as a product of binomials."""
    out, total = 1, 0
    for p in parts:
        total += p
        out *= comb(total, p)
    return out


def ordered_sequence_count(n: int, N: int) -> int:
    """Number of weakly increasing length-N sequences over [1, n]:
    prod_{k=n}^{N+n-1} k / N!, i.e. C(n+N-1, N)."""
    return comb(n + N - 1, N)


def schur_weyl_check(n: int, N: int, table: list[dict]) -> bool:
    """True iff the sum of syt_dim * ssyt_dim over table, which is
    dimension_table(n, N) (every partition of N with at most n rows), is
    n^N."""
    if n < 1 or N < 1:
        raise ValidationError("n and N must be >= 1")
    return sum(r["syt_dim"] * r["ssyt_dim"] for r in table) == n ** N


def dimension_table(n: int, N: int) -> list[dict]:
    """Rows {partition, syt_dim, ssyt_dim} for every partition of N with <= n rows."""
    if n < 1:
        raise ValidationError("alphabet size n must be >= 1")
    return [{"partition": list(lam), "syt_dim": syt_dim(lam), "ssyt_dim": ssyt_dim(lam, n)}
            for lam in partitions_of(N, max_rows=n)]
