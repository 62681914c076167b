"""The four benchmark workloads: seeded inputs, fixed task lists, and checks.

Each workload is a fixed list of tasks.  Sizes are fixed per workload; the
seed draws every q, z, content assignment, table relabelling and braid word,
so the amount of work does not depend on the seed.  Each task's output is
checked by code in this file that does not call braidlab (closed forms,
brute force, or an independent re-derivation), so a check cannot share a
defect with the code it checks.

Why each workload:
  sectors_n2    - `verify` n=2: bookkeeping-bound sparse ladders and block
                  assembly, where Python dicts dominate and eigh is minor.
  blocks_dense  - `diagonalize` without sectors: dense eigh and the
                  per-column residual loop; never touches qalgebra, so a
                  ladder optimisation must leave it unchanged.
  kernels_small - many one-off sparse kernels on short states with no reuse
                  per (N, content); a cached operator layer that pays off
                  only on big blocks shows a loss here.  Only workload that
                  loads tableaux.
  orbits_dot    - quandle orbits, DOT export, centralizer check and
                  automaton word runs: the quandle and automata modules.
"""

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from braidlab import automata, cli, hecke, qalgebra, quandle, spectra, states, tableaux
from braidlab.states import TensorState

WORKLOADS = ("sectors_n2", "blocks_dense", "kernels_small", "orbits_dot")

# tolerances of the acceptance suite
RELATION_TOL = 1e-12
SHUFFLE_TOL = 1e-10
CANONICAL_TOL = 1e-10
SYMMETRY_TOL = 1e-11
TRACE_RTOL = 1e-9


@dataclass
class Task:
    """One call into the program and the check of its output."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    cli: bool = False           # output is (exit code, CLI stdout)


def run_cli(argv):
    """braidlab.cli.main in process; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_task(argv, check):
    return Task(" ".join(argv), lambda: run_cli(argv),
                lambda out: out[0] == 0 and check(out[1]), cli=True)


def _q(rng, lo=0.7, hi=2.0):
    return round(rng.uniform(lo, hi), 6)


# ---------------------------------------------------------------- oracles

def sector_count(N, k):
    """Number of sector-k eigenvalues of the n=2 chain: N!(N-2k+1)/(k!(N-k+1)!)."""
    return math.factorial(N) * (N - 2 * k + 1) // (math.factorial(k) * math.factorial(N - k + 1))


def chain_trace(n, N, q):
    """tr H = (N-1) n^(N-2) (n + n(n-1)/2 (1 - q^-2))."""
    return (N - 1) * n ** (N - 2) * (n + n * (n - 1) / 2 * (1 - q ** -2))


def multiset_permutations(word):
    if not word:
        return [()]
    out = []
    for x in sorted(set(word)):
        rest = list(word)
        rest.remove(x)
        out.extend((x,) + tail for tail in multiset_permutations(tuple(rest)))
    return out


def inversions(word):
    return sum(1 for i in range(len(word)) for j in range(i + 1, len(word))
               if word[i] > word[j])


def multinomial(parts):
    out = math.factorial(sum(parts))
    for p in parts:
        out //= math.factorial(p)
    return out


@lru_cache(maxsize=None)
def syt_count(shape):
    """Standard tableaux by removing the largest entry from each corner."""
    if sum(shape) <= 1:
        return 1
    total = 0
    for i, row in enumerate(shape):
        if i + 1 == len(shape) or shape[i + 1] < row:
            smaller = shape[:i] + (row - 1,) + shape[i + 1:]
            total += syt_count(tuple(p for p in smaller if p))
    return total


def ssyt_count(shape, n):
    """Hook-content formula: prod (n + j - i) / hook(i, j)."""
    cols = [sum(1 for r in shape if r > j) for j in range(shape[0])]
    out = Fraction(1)
    for i, row in enumerate(shape):
        for j in range(row):
            out *= Fraction(n + j - i, (row - j) + (cols[j] - i) - 1)
    return int(out)


def partitions(N, max_rows):
    def rec(remaining, cap, rows):
        if remaining == 0:
            yield ()
            return
        if rows == 0:
            return
        for part in range(min(cap, remaining), 0, -1):
            for tail in rec(remaining - part, part, rows - 1):
                yield (part,) + tail
    return list(rec(N, N, max_rows))


def relabelled_dihedral(n, rng):
    """Dihedral quandle op[a][b] = 2a - b mod n, conjugated by a seeded
    permutation of the labels; still a quandle, with the same work."""
    perm = list(range(n))
    rng.shuffle(perm)
    inv = {p: i for i, p in enumerate(perm)}
    return [[perm[(2 * inv[a] - inv[b]) % n] for b in range(n)] for a in range(n)]


def braid_step(op, word, j):
    """r at sites (j, j+1) on a 1-based word: (a, b) -> (b, b > a)."""
    a, b = word[j - 1] - 1, word[j] - 1
    return word[:j - 1] + (b + 1, op[b][a] + 1) + word[j + 1:]


def word_index(word, n):
    idx = 0
    for x in word:
        idx = idx * n + (x - 1)
    return idx


def parse_word(label):
    return tuple(int(x) for x in label.split("x")[1:])


# ------------------------------------------------------------ sectors_n2

SECTOR_N = 9


def _verify_task(N, q):
    def check(stdout):
        payload = json.loads(stdout)
        expected = {str(k): sector_count(N, k) for k in range(N // 2 + 1)}
        return (payload["ok"] is True and payload["total_dimension"] == 2 ** N
                and payload["sector_counts"] == expected)
    return _cli_task(["verify", "--n", "2", "--N", str(N), "--q", repr(q)], check)


def sectors_n2(rng):
    return [_verify_task(SECTOR_N, _q(rng))], [_verify_task(4, _q(rng))]


# ---------------------------------------------------------- blocks_dense

DENSE_SIZES = ((2, 12), (3, 7), (4, 6))


def _diagonalize_task(n, N, q):
    def check(deco):
        total = sum(c.multiplicity for c in deco.clusters)
        trace = sum(c.multiplicity * c.value for c in deco.clusters)
        expected = chain_trace(n, N, q)
        return total == n ** N and abs(trace - expected) <= TRACE_RTOL * max(1.0, abs(expected))
    return Task(f"diagonalize n={n} N={N} q={q!r}",
                lambda: spectra.diagonalize(spectra.OpenChain(n, N, q)), check)


def blocks_dense(rng):
    tasks = [_diagonalize_task(n, N, _q(rng)) for n, N in DENSE_SIZES]
    return tasks, [_diagonalize_task(2, 6, _q(rng))]


# --------------------------------------------------------- kernels_small

RELATION_SIZES = ((2, 4), (2, 5), (3, 4), (3, 5))
# (letter multiplicities, alphabet size): the seed assigns the letters
SHUFFLE_TYPES = (((2, 2, 1), 3), ((2, 2, 2), 3), ((3, 2, 2), 3), ((3, 3, 2), 3),
                 ((2, 2, 2, 2), 4))
TABLEAU_N, TABLEAU_ROWS, KOSTKA_CONTENTS = 10, 4, 3


def relations_residual(n, N, q):
    """Worst braid-relation and Hecke quadratic residual over basis words."""
    g = hecke.apply_generator
    c = 1 - q ** -2
    worst = 0.0
    for word in states.all_words(n, N):
        v = TensorState.basis(n, word)
        for i in range(1, N - 1):
            lhs = g(g(g(v, i, q), i + 1, q), i, q)
            rhs = g(g(g(v, i + 1, q), i, q), i + 1, q)
            worst = max(worst, lhs.sub(rhs).norm())
        for i in range(1, N):
            ri = g(v, i, q)
            worst = max(worst, g(ri, i, q).sub(ri.scale(c)).sub(v.scale(q ** -2)).norm())
    return worst


def _shuffle_task(content, n, q, z):
    def check(state):
        perms = multiset_permutations(content)
        prefactor = 1.0
        for k in (content.count(a) for a in set(content)):
            prefactor *= math.prod(sum(z ** t for t in range(m)) for m in range(1, k + 1))
        return len(state.amps) == len(perms) and all(
            math.isclose(state.amps.get(w, 0.0), prefactor * (z / q) ** inversions(w),
                         rel_tol=SHUFFLE_TOL, abs_tol=SHUFFLE_TOL) for w in perms)
    return Task(f"shuffle_apply {content} z={z!r} q={q!r}",
                lambda: hecke.shuffle_apply(TensorState.basis(n, content), z, q), check)


def canonical_action_residual(n, N, q):
    worst = 0.0
    for label in qalgebra.dicke_labels(n, N):
        for j in range(1, n):
            rep = qalgebra.verify_canonical_action(n, N, q, label, j)
            worst = max(worst, rep["residual_E"], rep["residual_qH"], rep["residual_F"] or 0.0)
    return worst


def _raising_task(n, N, q):
    def check(basis):
        if len(basis) != math.comb(N + n - 1, n - 1):
            return False
        for label, state in basis.items():
            ordered = tuple(a for a, m in enumerate(label, start=1) for _ in range(m))
            coeff = {w: q ** inversions(w) for w in multiset_permutations(ordered)}
            norm = math.sqrt(sum(c * c for c in coeff.values()))
            if set(state.amps) - set(coeff) or any(
                    abs(state.amps.get(w, 0.0) - c / norm) > CANONICAL_TOL
                    for w, c in coeff.items()):
                return False
        return True
    return Task(f"generate_basis_by_raising n={n} N={N} q={q!r}",
                lambda: qalgebra.generate_basis_by_raising(n, N, q), check)


def _tableaux_task(contents):
    def run():
        return (tableaux.dimension_table(TABLEAU_ROWS, TABLEAU_N),
                [[tableaux.kostka(lam, mu) for lam in tableaux.partitions_of(
                    TABLEAU_N, max_rows=TABLEAU_ROWS)] for mu in contents])

    def check(out):
        table, kostkas = out
        shapes = partitions(TABLEAU_N, TABLEAU_ROWS)
        if [tuple(r["partition"]) for r in table] != shapes:
            return False
        if any(r["syt_dim"] != syt_count(lam) or r["ssyt_dim"] != ssyt_count(lam, TABLEAU_ROWS)
               for lam, r in zip(shapes, table)):
            return False
        # RSK: words of content mu number sum_lambda f^lambda K_{lambda mu}
        return all(sum(syt_count(lam) * k for lam, k in zip(shapes, row)) == multinomial(mu)
                   for mu, row in zip(contents, kostkas))
    return Task(f"tableaux N={TABLEAU_N} n={TABLEAU_ROWS} kostka {contents}", run, check)


def _seeded_content(rng, counts, n):
    letters = rng.sample(range(1, n + 1), len(counts))
    return tuple(sorted(a for a, m in zip(letters, counts) for _ in range(m)))


def _composition(rng, N, parts):
    cuts = sorted(rng.sample(range(1, N + parts), parts - 1))
    bounds = [0] + cuts + [N + parts]
    return tuple(bounds[i + 1] - bounds[i] - 1 for i in range(parts))


def kernels_small(rng):
    below = lambda tol: (lambda r: r < tol)
    tasks = []
    for n, N in RELATION_SIZES:
        q = _q(rng)
        tasks.append(Task(f"braid+Hecke relations n={n} N={N} q={q!r}",
                          lambda n=n, N=N, q=q: relations_residual(n, N, q), below(RELATION_TOL)))
    for counts, n in SHUFFLE_TYPES:
        content = _seeded_content(rng, counts, n)
        q, z = _q(rng, 0.7, 1.5), _q(rng, 0.4, 1.6)
        tasks += [_shuffle_task(content, n, q, z), _shuffle_task(content, n, q, q * q)]
    q = _q(rng)
    tasks.append(Task(f"q-Dicke canonical action n=3 N=6 q={q!r}",
                      lambda: canonical_action_residual(3, 6, q), below(CANONICAL_TOL)))
    tasks.append(_raising_task(3, 7, _q(rng)))
    for n, N in ((3, 6), (2, 9)):
        q = _q(rng)
        tasks.append(Task(f"symmetry_residual n={n} N={N} q={q!r}",
                          lambda n=n, N=N, q=q: spectra.symmetry_residual(n, N, q),
                          below(SYMMETRY_TOL)))
    q = _q(rng)
    # the length-class sums commute at three strands and not at four
    tasks.append(Task(f"word-sum commutators N=3,4 q={q!r}",
                      lambda: (hecke.conjecture_commutator_check(3, 2, q),
                               hecke.conjecture_commutator_check(4, 2, q)),
                      lambda r: r[0] < 1e-10 and r[1] > 0.1))
    tasks.append(_tableaux_task([_composition(rng, TABLEAU_N, TABLEAU_ROWS)
                                 for _ in range(KOSTKA_CONTENTS)]))
    q = _q(rng)
    warmups = [Task("warm-up relations", lambda: relations_residual(2, 3, q), below(RELATION_TOL)),
               _shuffle_task((1, 1, 2), 2, q, q * q),
               Task("warm-up canonical action", lambda: canonical_action_residual(2, 3, q),
                    below(CANONICAL_TOL)),
               _raising_task(2, 3, q),
               Task("warm-up symmetry", lambda: spectra.symmetry_residual(2, 3, q),
                    below(SYMMETRY_TOL)),
               Task("warm-up commutators", lambda: hecke.conjecture_commutator_check(2, 2, q),
                    below(1e-10)),
               _tableaux_task([(2, 2, 3, 3)])]
    return tasks, warmups


# ------------------------------------------------------------ orbits_dot

ORBIT_JSON, ORBIT_DOT, CENTRALIZER, RUN_WORDS = (3, 7), (3, 6), (5, 5), (3, 6)
SPECTRUM_N, WORD_COUNT, WORD_LENGTH = 7, 100, 20


def _dihedral(n):
    return [[(2 * a - b) % n for b in range(n)] for a in range(n)]


def _orbits_json_task(n, N):
    op = _dihedral(n)

    def check(stdout):
        payload = json.loads(stdout)
        order = 1
        for j in range(1, N):
            cycles = [[parse_word(w) for w in cyc] for cyc in payload["cycles"][str(j)]]
            seen = [w for cyc in cycles for w in cyc]
            if len(seen) != n ** N or len(set(seen)) != n ** N:
                return False
            for cyc in cycles:
                if any(braid_step(op, w, j) != cyc[(t + 1) % len(cyc)]
                       for t, w in enumerate(cyc)):
                    return False
                order = math.lcm(order, len(cyc))
        return payload["order"] == order
    return _cli_task(["quandle", "orbits", "--n", str(n), "--N", str(N)], check)


def _orbits_dot_task(n, N):
    op = _dihedral(n)

    def check(stdout):
        labels, edges = {}, 0
        for line in stdout.splitlines():
            line = line.strip()
            if line.startswith("s") and "[shape=" in line:
                labels[line.split()[0]] = parse_word(line.split('label="')[1].rstrip('"];'))
            elif line.startswith("s") and "->" in line:
                src, _, dst, tag = line.split(maxsplit=3)
                j = int(tag.split('"')[1][1:])
                if braid_step(op, labels[src], j) != labels[dst]:
                    return False
                edges += 1
        return len(labels) == n ** N and edges == (N - 1) * n ** N
    return _cli_task(["quandle", "orbits", "--n", str(n), "--N", str(N), "--dot"], check)


def _spectrum_task(n):
    def check(stdout):
        payload = json.loads(stdout)
        roots = [complex(v["re"], v["im"]) for v in payload["eigenvalues"]]
        return (all(abs(z ** n - 1) < 1e-9 for z in roots) and len(roots) == n
                and payload["dimensions"] == [n - 1] * (n - 1) + [2 * n - 1])
    return _cli_task(["quandle", "dihedral", "--n", str(n), "--spectrum"], check)


def _centralizer_task(op):
    n, N = len(op), CENTRALIZER[1]
    return Task(f"centralizer_residual {op} N={N}",
                lambda: quandle.centralizer_residual(quandle.QuandleTable(n, op), N),
                lambda r: r == 0)


def _run_words_task(op, N, words):
    n = len(op)

    def run():
        table = quandle.QuandleTable(n, op)
        aut = quandle.orbit_to_automaton(quandle.orbit_automaton(table, N), table)
        return [automata.run_word(aut, w) for w in words]

    def check(vectors):
        for word, v in zip(words, vectors):
            cur = (1,) * N
            for letter in word:
                cur = braid_step(op, cur, int(letter[1:]))
            target = word_index(cur, n)
            if v[target] != 1.0 or abs(v).sum() != 1.0:
                return False
        return True
    return Task(f"run_word {len(words)} words on orbit automaton n={n} N={N}", run, check)


def _braid_words(rng, N, count, length):
    return [[f"s{rng.randint(1, N - 1)}" for _ in range(length)] for _ in range(count)]


def orbits_dot(rng):
    tasks = [_orbits_json_task(*ORBIT_JSON), _orbits_dot_task(*ORBIT_DOT),
             _centralizer_task(relabelled_dihedral(CENTRALIZER[0], rng)),
             _spectrum_task(SPECTRUM_N),
             _run_words_task(relabelled_dihedral(RUN_WORDS[0], rng), RUN_WORDS[1],
                             _braid_words(rng, RUN_WORDS[1], WORD_COUNT, WORD_LENGTH))]
    warmups = [_orbits_json_task(3, 3), _orbits_dot_task(3, 3),
               _centralizer_task(relabelled_dihedral(3, rng)), _spectrum_task(3),
               _run_words_task(relabelled_dihedral(3, rng), 3, _braid_words(rng, 3, 2, 4))]
    return tasks, warmups


def build(workload, seed):
    """(tasks, warm-up tasks) for a workload; every input comes from the seed."""
    rng = random.Random(f"{workload}/{seed}")
    if workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {workload!r}; choose from {WORKLOADS}")
    return globals()[workload](rng)
