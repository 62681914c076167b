"""Independent brute-force oracles for the test suite.

Everything here is deliberately dumb and decoupled from the library's code
paths: dense matrices built from elementary kron products, exhaustive
filters over all fillings/permutations, and explicit table chasing.  The
exceptions are the per-word slow paths: hamiltonian_apply, block_map and
the symmetry sweep apply the library's sparse operators to one basis state
at a time.  The library builds every weight block from ranked words
(spectra.block_matrix, spectra.coproduct_block); the tests hold those
blocks to these paths bit for bit.  Likewise sector_warnings_pairwise and
annotate_pairwise are the pairwise tolerance scans that
spectra.classify_sectors replaced by one sorted pass.
"""

from itertools import permutations, product

import numpy as np

from braidlab.errors import ValidationError
from braidlab.hecke import apply_generator
from braidlab.qalgebra import apply_E, apply_F, apply_qEps, apply_qH
from braidlab.spectra import CLUSTER_RTOL, HW_TOL, LADDER_RESIDUALS, OpenChain
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
    """classify_sectors' warnings from pairwise scans: per sector, the ladder
    residual warning, then a clash for every earlier ladder of another
    sector within a running tolerance (CLUSTER_RTOL times the largest
    ladder magnitude so far, at least 1)."""
    warnings = []
    seen_values: list[tuple[float, int]] = []
    max_abs = 1.0
    for k, lads in sectors.items():
        failing = []
        for name in LADDER_RESIDUALS:
            worst = max((getattr(lad, name) for lad in lads), default=0.0)
            if worst > HW_TOL:
                failing.append(f"{name} {worst:.2e}")
        if failing:
            warnings.append(f"sector {k} ladder residuals above {HW_TOL:g}: "
                            + ", ".join(failing))
        max_abs = max([max_abs] + [abs(lad.eigenvalue) for lad in lads])
        tol = CLUSTER_RTOL * max_abs
        for lad in lads:
            for prev_value, prev_k in seen_values:
                if abs(lad.eigenvalue - prev_value) <= tol and prev_k != k:
                    warnings.append(
                        f"eigenvalue {lad.eigenvalue:.12g} of sector {k} degenerate with "
                        f"sector {prev_k}; falling back to multiplicity-only matching")
            seen_values.append((lad.eigenvalue, k))
    return warnings


def annotate_pairwise(decomposition, sectors):
    """Label each cluster with the first sector, in order, holding a ladder
    within CLUSTER_RTOL * max(1, max |cluster value|) of it, and with that
    ladder's hw_residual: O(clusters x ladders) comparisons."""
    tol = CLUSTER_RTOL * max(1.0, max((abs(c.value) for c in decomposition.clusters), default=1.0))
    for cluster in decomposition.clusters:
        for k, ladders in sectors.items():
            for lad in ladders:
                if abs(cluster.value - lad.eigenvalue) <= tol:
                    cluster.sector = k
                    cluster.hw_residual = lad.hw_residual
                    break
            if cluster.sector is not None:
                break
