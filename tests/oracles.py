"""Independent brute-force oracles for the test suite.

Everything here is deliberately dumb and decoupled from the library's code
paths: dense matrices built from elementary kron products, exhaustive
filters over all fillings/permutations, and explicit table chasing.  The
exceptions are the per-word slow paths: hamiltonian_apply, block_map and
the symmetry sweep apply the library's sparse operators to one basis state
at a time.  The library builds every weight block from ranked words
(spectra.block_matrix, spectra.coproduct_block); the tests hold those
blocks to these paths bit for bit.  Likewise sector_warnings_pairwise
composes classify_sectors' residual warnings by its own scan,
highest_weight_svd is the kernel of F_1 from a full SVD, which
classify_sectors replaced by range(E_1)^perp from one QR per rung,
dominant_eigenpairs keeps the eigenvectors of the blocks that
spectra._dominant_blocks solves values only, parity_halves_dense splits a
self-mirrored block by w0 from its dense matrix, where spectra._parity_halves
scatters the halves from the site arrays, seminormal_loop builds
the seminormal form one tableau and one generator at a time, where
spectra.sector_hamiltonian works on arrays over all tableaux, and
hook_length_product and hook_content_product are the cell-by-cell hook
formulas that tableaux.syt_dim and tableaux.ssyt_dim replaced by closed
products over rows, raising_per_label applies one whole E-string per
label, where qalgebra.generate_basis_by_raising grows the strings as a tree,
and eigen_blocks is the per-content
eigen solve that diagonalize replaced by one solve per partition, split by
w0 where w0 maps the block onto itself: one eigh of spectra.block_matrix
for every weight block, with no w0 symmetry and no orbit counting, so the
reference shares no mechanism with the paths it checks.  Two more are
the loops that array code replaced: sink_completion_dense completes dense
0/1 matrices, where automata.complete_with_sink extends target arrays, and
quandle_flags_by_loops is the triple loop over (a, b, c) that
quandle.validate replaced by one row of the table at a time.  Last, the
per-step path of the sparse kernels, which now step on amplitude dicts and
build one state per public call: generator_filtering_always is the
generator step filtering its result for zeros every time, shuffle_per_step
and word_sum_per_word build a state at every generator step through
apply_generator, scale and add (the word sums apply every letter of every
word), ladder_per_term raises q to every tail exponent again, and
sub_by_scale and norm_by_numpy are sub as add of scale(-1.0) and the norm
through numpy.
"""

from itertools import permutations, product
from math import factorial, sqrt

import numpy as np

from braidlab.errors import ValidationError
from braidlab.hecke import apply_generator, reduced_words_by_length
from braidlab.qalgebra import apply_E, apply_F, apply_qEps, apply_qH, dicke_labels, q_number
from braidlab.spectra import (CLUSTER_RTOL, EIG_RESIDUAL_TOL, HW_TOL, LADDER_RESIDUALS,
                              RESIDUAL_CHUNK, OpenChain, _block_apply, _block_sites, _dense,
                              _dominant_blocks, _parity_halves, _rank, _w0_positions,
                              block_matrix, weight_basis)
from braidlab.tableaux import partitions_of
from braidlab.states import TensorState, all_words


def elementary(n, x, y):
    m = np.zeros((n, n))
    m[x - 1, y - 1] = 1.0
    return m


def dense_r(n, q):
    """Rescaled braid operator assembled from elementary-matrix sums."""
    m = np.zeros((n * n, n * n))
    for a in range(1, n + 1):
        m += np.kron(elementary(n, a, a), elementary(n, a, a))
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if a != b:
                m += np.kron(elementary(n, a, b), elementary(n, b, a)) / q
            if a > b:
                m += (1 - q ** -2) * np.kron(elementary(n, a, a), elementary(n, b, b))
    return m


def dense_site_operator(local, n, N, i):
    """1 ox ... ox local ox ... ox 1 with local on sites (i, i+1)."""
    return np.kron(np.kron(np.eye(n ** (i - 1)), local), np.eye(n ** (N - i - 1)))


def dense_hamiltonian(n, N, q):
    r = dense_r(n, q)
    return sum(dense_site_operator(r, n, N, i) for i in range(1, N))


def dense_index(word, n):
    idx = 0
    for x in word:
        idx = idx * n + (x - 1)
    return idx


def state_to_dense(state):
    v = np.zeros(state.n ** state.N, dtype=complex)
    for w, a in state.amps.items():
        v[dense_index(w, state.n)] = a
    return v


def count_syt_bruteforce(shape):
    """Count standard tableaux by filtering all placements of 1..N."""
    N = sum(shape)
    cells = [(i, j) for i, row in enumerate(shape) for j in range(row)]
    count = 0
    for perm in permutations(range(1, N + 1)):
        grid = {}
        for cell, value in zip(cells, perm):
            grid[cell] = value
        ok = True
        for (i, j), v in grid.items():
            if (i, j + 1) in grid and grid[(i, j + 1)] < v:
                ok = False
                break
            if (i + 1, j) in grid and grid[(i + 1, j)] < v:
                ok = False
                break
        count += ok
    return count


def seminormal_loop(shape, q):
    """rho_lambda(H) in Young's seminormal form, one tableau and one i at a
    time.  The standard tableaux come from filtering all placements of
    1..N (as in count_syt_bruteforce) and are sorted by their Yamanouchi
    words (the row of each entry); r_i adds q^(d-1)/[d]_q at S and, when
    |d| > 1, sqrt(1 - [d]_q^-2)/q between S and s_i S, with d the content of
    i+1 minus that of i.  Returns (words, matrix)."""
    N = sum(shape)
    cells = [(i, j) for i, row in enumerate(shape) for j in range(row)]
    where = {}
    for perm in permutations(range(1, N + 1)):
        grid = dict(zip(cells, perm))
        if all(grid.get((i, j + 1), N + 1) > v and grid.get((i + 1, j), N + 1) > v
               for (i, j), v in grid.items()):
            at = {v: cell for cell, v in grid.items()}
            where[tuple(at[k][0] for k in range(1, N + 1))] = at
    words = sorted(where)
    index = {word: t for t, word in enumerate(words)}
    m = np.zeros((len(words), len(words)))
    for word, t in index.items():
        at = where[word]
        for i in range(1, N):
            d = (at[i + 1][1] - at[i + 1][0]) - (at[i][1] - at[i][0])
            m[t, t] += q ** (d - 1) / q_number(d, q)
            if abs(d) > 1:
                swapped = list(word)
                swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
                m[index[tuple(swapped)], t] = sqrt(1.0 - q_number(d, q) ** -2) / q
    return words, m


def count_ssyt_bruteforce(shape, n, content=None):
    """Count semistandard tableaux by filtering all n^N fillings."""
    cells = [(i, j) for i, row in enumerate(shape) for j in range(row)]
    count = 0
    for filling in product(range(1, n + 1), repeat=len(cells)):
        grid = dict(zip(cells, filling))
        ok = True
        for (i, j), v in grid.items():
            if (i, j + 1) in grid and grid[(i, j + 1)] < v:
                ok = False
                break
            if (i + 1, j) in grid and grid[(i + 1, j)] <= v:
                ok = False
                break
        if ok and content is not None:
            counts = [filling.count(v) for v in range(1, len(content) + 1)]
            ok = tuple(counts) == tuple(content) and all(
                v <= len(content) for v in filling)
        count += ok
    return count


def hook_length_product(shape):
    """syt_dim by the hook length formula, N! / prod h(u), one cell at a time."""
    cols = [sum(1 for r in shape if r > j) for j in range(shape[0])]
    denom = 1
    for i, row in enumerate(shape):
        for j in range(row):
            denom *= (row - j) + (cols[j] - i) - 1
    quotient, rem = divmod(factorial(sum(shape)), denom)
    assert rem == 0
    return quotient


def hook_content_product(shape, n):
    """ssyt_dim by the hook-content formula, prod (n + j - i) / h(u) over the
    cells u = (i, j), one cell at a time; a shape with more than n rows has
    the factor n + 0 - n = 0 in its first column."""
    cols = [sum(1 for r in shape if r > j) for j in range(shape[0])]
    numer = denom = 1
    for i, row in enumerate(shape):
        for j in range(row):
            numer *= n + j - i
            denom *= (row - j) + (cols[j] - i) - 1
    quotient, rem = divmod(numer, denom)
    assert rem == 0
    return quotient


def multiset_permutations(word):
    return sorted(set(permutations(word)))


def inversion_count(word):
    return sum(1 for i in range(len(word)) for j in range(i + 1, len(word))
               if word[i] > word[j])


def chase_table(table, start, word):
    """Abstract DFA run on a dict (state, letter) -> state; None when stuck."""
    state = start
    for letter in word:
        state = table.get((state, letter))
        if state is None:
            return None
    return state


def sink_completion_dense(matrices):
    """Dense completion of 0/1 transition matrices: every zero column is
    routed to a new last state, which loops to itself on every letter."""
    out = {}
    for letter, old in matrices.items():
        n = old.shape[0]
        m = np.zeros((n + 1, n + 1))
        m[:n, :n] = old
        for col in range(n):
            if old[:, col].sum() == 0:
                m[n, col] = 1.0
        m[n, n] = 1.0
        out[letter] = m
    return out


def quandle_flags_by_loops(table):
    """Axiom flags {shelf, rack, quandle} of a QuandleTable by the
    exhaustive triple loop over (a, b, c)."""
    n, op = table.n, table.op
    shelf = all(op[a][op[b][c]] == op[op[a][b]][op[a][c]]
                for a in range(n) for b in range(n) for c in range(n))
    rack = shelf and all(sorted(row) == list(range(n)) for row in op)
    quandle = rack and all(op[a][a] == a for a in range(n))
    return {"shelf": shelf, "rack": rack, "quandle": quandle}


def random_stochastic(n, rng):
    m = rng.random((n, n)) + 0.05
    return m / m.sum(axis=0, keepdims=True)


def random_unitary(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    u, _ = np.linalg.qr(z)
    return u


def hamiltonian_apply(chain: OpenChain, state: TensorState) -> TensorState:
    """H state = sum over j of r_j state."""
    if state.N != chain.N or state.n != chain.n:
        raise ValidationError("state shape does not match the chain")
    out = TensorState.zero(state.n, state.N)
    for j in range(1, chain.N):
        out = out.add(apply_generator(state, j, chain.q))
    return out


def block_map(op, n: int, source, target) -> np.ndarray:
    """Dense matrix of a sparse operator from span(source) into span(target),
    each a word array (spectra.weight_basis) or a list of word tuples."""
    source, target = ([tuple(w) for w in np.asarray(ws, dtype=np.int64).tolist()]
                      for ws in (source, target))
    index = {w: i for i, w in enumerate(target)}
    m = np.zeros((len(target), len(source)))
    for col, w in enumerate(source):
        for w2, a in op(TensorState.basis(n, w)).amps.items():
            m[index[w2], col] = a
    return m


def raising_per_label(n, N, q):
    """label -> the unnormalized state E_{n-1}^(k_n) ... E_1^(k_2 + ... + k_n)
    x_1^N, one whole E-string per label."""
    out = {}
    for label in dicke_labels(n, N):
        state = TensorState.basis(n, (1,) * N)
        for j in range(1, n):
            for _ in range(sum(label[j:])):
                state = apply_E(state, j, q)
        out[label] = state
    return out


def symmetry_residual_per_word(n, N, q):
    """Max norm of [H, y] v over the coproduct operators y and the basis
    words v, applying H and y to one sparse state at a time; the slow path
    of spectra.symmetry_residual."""
    chain = OpenChain(n, N, q)
    ops = []
    for j in range(1, n):
        ops.append(lambda s, j=j: apply_E(s, j, q))
        ops.append(lambda s, j=j: apply_F(s, j, q))
        ops.append(lambda s, j=j: apply_qH(s, j, q))
    for j in range(1, n + 1):
        ops.append(lambda s, j=j: apply_qEps(s, j, q))
    worst = 0.0
    for word in all_words(n, N):
        v = TensorState.basis(n, word)
        hv = hamiltonian_apply(chain, v)
        for op in ops:
            worst = max(worst, hamiltonian_apply(chain, op(v)).sub(op(hv)).norm())
    return worst


def sector_warnings_pairwise(sectors):
    """classify_sectors' ladder warnings, one scan per sector and residual:
    the worst of each residual over the sector's ladders by np.max, so that
    a NaN residual is the worst, and a warning naming every worst not
    within HW_TOL."""
    warnings = []
    for k, lads in sectors.items():
        failing = []
        for name in LADDER_RESIDUALS:
            worst = float(np.max([getattr(lad, name) for lad in lads], initial=0.0))
            if not worst <= HW_TOL:
                failing.append(f"{name} {worst:.2e}")
        if failing:
            warnings.append(f"sector {k} ladder residuals above {HW_TOL:g}: "
                            + ", ".join(failing))
    return warnings


def highest_weight_svd(h, f):
    """Eigenvalues and eigenvectors of H restricted to the kernel of F_1,
    from a dense block h and F_1 = f: the null space from one full singular
    value decomposition, with the rank counted against HW_TOL times the
    largest singular value, then one eigh of h compressed onto it."""
    _, sv, vt = np.linalg.svd(f)
    kernel = vt[int(np.count_nonzero(sv > HW_TOL * sv.max(initial=0.0))):].T
    vals, rot = np.linalg.eigh(kernel.T @ h @ kernel)
    return vals, kernel @ rot


def block_w0_positions(n, N, basis, letters):
    """The w0 positions (_w0_positions) of one weight block over the
    alphabet 1..letters, ranked on its own."""
    return _w0_positions(_rank(n, N, basis, [0, len(basis)]), [0], [letters])[0]


def dominant_eigenpairs(chain):
    """content -> (words, increasing eigenvalues, eigenvectors) of each
    weight block that spectra._dominant_blocks solves, one per partition
    mu, built by the one-content calls weight_basis and _block_sites (the
    slices of the one-pass builder, bit for bit): one eigh of the dense
    block, or one per non-empty w0 parity half (spectra._parity_halves)
    where w0 maps the block onto itself.  With I,
    J = w0(I) and F the words that w0 swaps (I < J) and fixes, an
    eigenvector (u_I, u_F) of the even half is u_I/sqrt2 on I and J and u_F
    on F, one u of the odd half u/sqrt2 on I and -u/sqrt2 on J.  Each column
    is oriented (its first component above 1e-12 in magnitude positive) and
    its eigenpair checked against the block's site arrays, RESIDUAL_CHUNK
    columns at a time, within EIG_RESIDUAL_TOL * max(1, |value|), or it is a
    ValidationError."""
    out = {}
    shapes = partitions_of(chain.N, max_rows=chain.n)
    for mu, content in zip(shapes, _dominant_blocks(chain)):
        words, letters = weight_basis(chain.n, chain.N, content), content[:len(mu)]
        sites = _block_sites(chain, words)
        if letters != letters[::-1]:
            vals, vecs = np.linalg.eigh(_dense(sites))
        else:
            w0 = block_w0_positions(chain.n, chain.N, words, len(mu))
            positions = np.arange(len(w0))
            pairs, fixed = np.flatnonzero(w0 > positions), np.flatnonzero(w0 == positions)
            k, scale = len(pairs), sqrt(0.5)
            solved = [np.linalg.eigh(h) for h in _parity_halves(sites, w0, mu)]
            vals = np.concatenate([v for v, _ in solved])
            rank = np.argsort(vals, kind="stable")
            column = np.empty_like(rank)
            column[rank] = np.arange(len(rank))
            vecs = np.zeros((len(w0), len(w0)))
            even, odd = np.split(column, [k + len(fixed)])     # the columns of each half's values
            for (_, u), cols, sign in zip(solved, (even, odd), (1.0, -1.0)):
                vecs[pairs[:, None], cols] = u[:k] * scale
                vecs[w0[pairs][:, None], cols] = u[:k] * (sign * scale)
            vecs[fixed[:, None], even] = solved[0][1][k:]
            vals = vals[rank]
        for lo in range(0, vecs.shape[1], RESIDUAL_CHUNK):
            v, lam = vecs[:, lo:lo + RESIDUAL_CHUNK], vals[lo:lo + RESIDUAL_CHUNK]
            lead = v[np.argmax(np.abs(v) > 1e-12, axis=0), np.arange(v.shape[1])]
            v *= np.where(lead < 0, -1.0, 1.0)
            resid = np.abs(_block_apply(sites, v) - v * lam).max(axis=0)
            bad = np.flatnonzero(resid > EIG_RESIDUAL_TOL * np.maximum(1.0, np.abs(lam)))
            if bad.size:
                raise ValidationError(
                    f"eigenpair residual {float(resid[bad[0]])} exceeds {EIG_RESIDUAL_TOL}")
        out[content] = (words, vals, vecs)
    return out


def parity_halves_dense(block, w0, mu):
    """The non-empty w0 parity halves, (even, odd) or (even,), of a block
    that w0 maps onto itself, split from the dense block: the whole block
    scattered (spectra._dense), gathered in the order I, J = w0(I), F, and
    [[A_II + A_IJ, sqrt2 A_JF], [sqrt2 A_FJ, A_FF]] and A_II - A_IJ formed
    from the gather, after A_II - A_JJ, A_IJ - A_JI and A_IF - A_JF are
    checked within EIG_RESIDUAL_TOL * max(1, max |diag|, |off|)."""
    positions = np.arange(len(w0))
    pairs, fixed = np.flatnonzero(w0 > positions), np.flatnonzero(w0 == positions)
    k = len(pairs)
    order = np.concatenate([pairs, w0[pairs], fixed])
    a = _dense(block)[np.ix_(order, order)]             # rows and columns I, J, F
    ii, ij = a[:k, :k], a[:k, k:2 * k]
    diag, _, off = block
    coupling = max(float(np.abs(x - y).max(initial=0.0)) for x, y in [
        (ii, a[k:2 * k, k:2 * k]), (ij, a[k:2 * k, :k]), (a[:k, 2 * k:], a[k:2 * k, 2 * k:])])
    if not coupling <= EIG_RESIDUAL_TOL * max(1.0, float(np.abs(diag).max()), abs(off)):
        raise ValidationError(f"weight block {mu}: w0 symmetry residual {coupling} "
                              f"exceeds {EIG_RESIDUAL_TOL}")
    odd = ii - ij
    even = a[k:, k:]                                    # rows and columns J, F, overwritten
    np.add(ii, ij, out=even[:k, :k])
    even[:k, k:] *= sqrt(2.0)
    even[k:, :k] *= sqrt(2.0)
    return (even, odd) if k else (even,)


def eigen_blocks(chain):
    """content -> (words, increasing eigenvalues, eigenvectors) for every
    weight block, from one eigh of the dense block per content.  Each
    eigenvector is oriented (its first component above 1e-12 in magnitude
    positive) and its eigenpair checked against the dense block within
    EIG_RESIDUAL_TOL * max(1, |value|)."""
    out = {}
    for content in dicke_labels(chain.n, chain.N):
        words = weight_basis(chain.n, chain.N, content)
        h = block_matrix(chain, words)
        vals, vecs = np.linalg.eigh(h)
        for v in vecs.T:
            if v[np.flatnonzero(np.abs(v) > 1e-12)[0]] < 0:
                v *= -1.0
        resid = np.abs(h @ vecs - vecs * vals).max(axis=0, initial=0.0)
        assert (resid <= EIG_RESIDUAL_TOL * np.maximum(1.0, np.abs(vals))).all(), content
        out[content] = (words, vals, vecs)
    return out


def reference_clusters(blocks):
    """(values, multiplicities, tol) of the clusters of the eigenvalues of
    blocks (eigen_blocks), each block counted once: the sorted values of
    every block, cut wherever two neighbours differ by more than
    diagonalize's tolerance tol = CLUSTER_RTOL * max(1, max |eigenvalue|),
    each run valued at its mean, whatever irreps it holds."""
    values = np.sort(np.concatenate([vals for _, vals, _ in blocks.values()]))
    tol = CLUSTER_RTOL * max(1.0, float(np.abs(values).max()))
    cuts = [0] + [i + 1 for i in range(len(values) - 1) if values[i + 1] - values[i] > tol]
    runs = list(zip(cuts, cuts[1:] + [len(values)]))
    return [float(np.mean(values[lo:hi])) for lo, hi in runs], [hi - lo for lo, hi in runs], tol


def generator_filtering_always(state, i, q):
    """r at sites (i, i+1), word by word, its result rebuilt without exact
    zeros whether or not one is present."""
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
    return TensorState(state.n, state.N, {w: a for w, a in out.items() if a != 0.0})


def shuffle_per_step(state, z, q):
    """Y_N(z) state, factors S_1 first, one state per generator step."""
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


def word_sum_per_word(N, ell, q, state):
    """The sum of the reduced words of length ell (generators q r_i),
    every letter of every word applied anew."""
    if not ell:
        return state
    total = TensorState.zero(state.n, state.N)
    for w in reduced_words_by_length(N)[ell]:
        cur = state
        for i in reversed(w):
            cur = apply_generator(cur, i, q).scale(q)
        total = total.add(cur)
    return total


def ladder_per_term(state, j, q, source, target):
    """E_j (source j, target j+1) or F_j (source j+1, target j), q raised
    to the tail exponent of every term."""
    out = {}
    for w, amp in state.amps.items():
        total, left = w.count(j) - w.count(j + 1), 0
        for k, x in enumerate(w):
            step = (x == j) - (x == j + 1)
            left += step
            if x != source:
                continue
            w2 = w[:k] + (target,) + w[k + 1:]
            s = out.get(w2, 0.0) + amp * q ** (0.5 * (total + step - 2 * left))
            if s == 0.0:
                out.pop(w2, None)
            else:
                out[w2] = s
    return TensorState(state.n, state.N, out)


def sub_by_scale(a, b):
    return a.add(b.scale(-1.0))


def norm_by_numpy(state):
    return float(np.sqrt(sum(abs(x) ** 2 for x in state.amps.values())))
