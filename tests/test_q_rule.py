"""The one q rule (errors.check_q) at every public call that takes q."""

import ast
import re
import struct
from math import nextafter
from pathlib import Path

import numpy as np
import pytest

from braidlab import hecke, qalgebra, spectra
from braidlab.errors import BraidlabError, ValidationError, check_q
from braidlab.states import TensorState

SRC = Path(__file__).resolve().parent.parent / "src" / "braidlab"
RULE = re.compile(r"q = \S+ is too (large|small): (\d+ x )?q\^-?\d+(\.\d+)? overflows")

B = TensorState.basis


def _coproduct_block(n, N, kind):
    """coproduct_block of kind ("E" or "qH") from block (N, 0, ...) into the
    block it maps into."""
    source = (N,) + (0,) * (n - 1)
    target = (N - 1, 1) + (0,) * (n - 2) if kind == "E" else source
    return lambda q: spectra.coproduct_block(spectra.OpenChain(n, N, q), kind, 1,
                                             spectra.weight_basis(n, N, source),
                                             spectra.weight_basis(n, N, target))


# every public call that takes q, at two sizes each
ENTRY_POINTS = {
    "r_matrix": [lambda q, n=n: hecke.r_matrix(n, q) for n in (2, 3)],
    "apply_generator": [lambda q, w=w: hecke.apply_generator(B(2, w), 1, q)
                        for w in [(2, 1, 2), (2, 1, 1, 2, 1)]],
    "shuffle_apply": [lambda q, w=w: hecke.shuffle_apply(B(3, w), 0.5, q)
                      for w in [(2, 1, 2), (3, 2, 1, 1)]],
    "q_symmetrize": [lambda q, w=w: hecke.q_symmetrize(B(3, w), q)
                     for w in [(1, 2, 2), (1, 1, 2, 3)]],
    "q_antisymmetrize": [lambda q, w=w: hecke.q_antisymmetrize(B(3, w), q)
                         for w in [(1, 2, 2), (1, 1, 2, 3)]],
    "word_sum_operator": [lambda q, N=N: hecke.word_sum_operator(N, N - 1, q,
                                                                 B(2, (2,) + (1,) * (N - 1)))
                          for N in (3, 4)],
    "conjecture_commutator_check": [lambda q, N=N: hecke.conjecture_commutator_check(N, 2, q)
                                    for N in (2, 3)],
    "q_number": [lambda q, k=k: qalgebra.q_number(k, q) for k in (3, 7)],
    "q_factorial": [lambda q, k=k: qalgebra.q_factorial(k, q) for k in (3, 5)],
    "q_binomial": [lambda q, m=m: qalgebra.q_binomial(m, m // 2, q) for m in (4, 6)],
    "apply_E": [lambda q, N=N: qalgebra.apply_E(B(2, (1,) * N), 1, q) for N in (4, 6)],
    "apply_F": [lambda q, N=N: qalgebra.apply_F(B(2, (2,) * N), 1, q) for N in (4, 6)],
    "apply_qEps": [lambda q, N=N: qalgebra.apply_qEps(B(2, (1,) * N), 1, q) for N in (3, 6)],
    "apply_qH": [lambda q, N=N: qalgebra.apply_qH(B(2, (2,) * N), 1, q) for N in (3, 6)],
    "dicke_norm": [lambda q, label=label: qalgebra.dicke_norm(label, q)
                   for label in [(2, 1), (2, 1, 1)]],
    "q_dicke": [lambda q, n=n, label=label: qalgebra.q_dicke(n, sum(label), label, q)
                for n, label in [(2, (2, 1)), (3, (2, 1, 1))]],
    "verify_canonical_action": [
        lambda q, n=n, label=label: qalgebra.verify_canonical_action(n, sum(label), q, label, 1)
        for n, label in [(2, (2, 1)), (3, (2, 1, 1))]],
    "generate_basis_by_raising": [lambda q, n=n, N=N: qalgebra.generate_basis_by_raising(n, N, q)
                                  for n, N in [(2, 3), (3, 3)]],
    "crystal_automaton": [lambda q, n=n, N=N, labels=labels: qalgebra.crystal_automaton(
        n, N, q, labels) for n, N, labels in [(2, 3, "canonical"), (3, 4, "rescaled")]],
    "OpenChain": [lambda q, n=n, N=N: spectra.OpenChain(n, N, q) for n, N in [(2, 3), (3, 4)]],
    "block_matrix": [lambda q, n=n, c=c: spectra.block_matrix(
        spectra.OpenChain(n, sum(c), q), spectra.weight_basis(n, sum(c), c))
        for n, c in [(2, (2, 1)), (3, (2, 1, 1))]],
    "coproduct_block": [_coproduct_block(2, 3, "E"), _coproduct_block(3, 4, "qH")],
    "diagonalize": [lambda q, n=n, N=N: spectra.diagonalize(spectra.OpenChain(n, N, q))
                    for n, N in [(2, 3), (3, 4)]],
    "sector_hamiltonian": [lambda q, shape=shape: spectra.sector_hamiltonian(shape, q)
                           for shape in [(2, 1), (2, 2, 1)]],
    "sector_matrix": [lambda q, N=N: spectra.sector_matrix(N, q, 1) for N in (3, 6)],
    "classify_sectors": [lambda q, N=N: spectra.classify_sectors(spectra.OpenChain(2, N, q))
                         for N in (3, 6)],
    "verify_decomposition": [lambda q, n=n, N=N: spectra.verify_decomposition(n, N, q)
                             for n, N in [(2, 4), (3, 3)]],
    "symmetry_residual": [lambda q, n=n, N=N: spectra.symmetry_residual(n, N, q)
                          for n, N in [(2, 3), (3, 3)]],
}


# (entry point, side) that the rule never refuses, where the call forms no
# power of q past q^0: the generator step and the seminormal forms above 1,
# q^{eps_j} and the q-Dicke brackets below
NEVER_REFUSED = {(name, 1) for name in ("r_matrix", "apply_generator", "shuffle_apply",
                                        "q_antisymmetrize", "word_sum_operator",
                                        "conjecture_commutator_check", "sector_hamiltonian")}
NEVER_REFUSED |= {("apply_qEps", -1), ("dicke_norm", -1)}


def _refused_by_rule(call, q) -> bool:
    """True when call(q) is refused by the q rule; a result, or a refusal
    of another kind (a BraidlabError), is False, and any other exception
    escapes."""
    try:
        call(q)
    except BraidlabError as exc:
        return RULE.fullmatch(str(exc)) is not None
    return False


def _midpoint(a: float, b: float) -> float:
    """The float halfway between two positive floats in bit order."""
    bits = [struct.unpack("<q", struct.pack("<d", x))[0] for x in (a, b)]
    return struct.unpack("<d", struct.pack("<q", sum(bits) // 2))[0]


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_the_rule_refuses_every_q_past_its_edge(name):
    # walking outward over q = 10^(+-k), k = 1..300: once the rule refuses,
    # every q farther out is refused with its message, and at its edge, the
    # last admitted float, the call returns (inf or NaN included) or refuses
    # with a BraidlabError; nothing else escapes anywhere
    with np.errstate(all="ignore"):
        for call in ENTRY_POINTS[name]:
            for sign in (1, -1):
                qs = [float(f"1e{sign * k}") for k in range(1, 301)]
                refused = [_refused_by_rule(call, q) for q in qs]
                assert (True in refused) != ((name, sign) in NEVER_REFUSED), (name, sign)
                if True not in refused:
                    continue
                first = refused.index(True)
                assert all(refused[first:]), (name, sign, qs[refused.index(False, first)])
                inner, outer = (qs[first - 1] if first else 1.0), qs[first]
                while nextafter(inner, outer) != outer:
                    mid = _midpoint(inner, outer)
                    if _refused_by_rule(call, mid):
                        outer = mid
                    else:
                        inner = mid
                assert not _refused_by_rule(call, inner) and _refused_by_rule(call, outer)


def test_the_rule_names_q_and_the_power():
    check_q(1.3, -2, 0)
    check_q(7.46e-155, -2, 0)
    for args, message in [
            ((7.45e-155, -2, 0), "q = 7.45e-155 is too small: q^-2 overflows"),
            ((1e200, -2, 2), "q = 1e+200 is too large: q^2 overflows"),
            ((-1e-150, -2.5, 2.5), "q = -1e-150 is too small: q^-2.5 overflows"),
            ((1e-110, -3, 3, 6, True), "q = 1e-110 is too small: 6 x q^-3 overflows"),
            ((1.3, -2703, 2703, 2704), "q = 1.3 is too large: 2704 x q^2703 overflows"),
            ((0.0, -2, 0), "q must be nonzero and finite"),
            ((float("nan"), -2, 0), "q must be nonzero and finite"),
            ((-1.0, -2, 2, 1, True), "q must be positive and finite"),
            ((float("inf"), -2, 2, 1, True), "q must be positive and finite")]:
        with pytest.raises(ValidationError, match=re.escape(message)):
            check_q(*args)
    # numpy scalars are held to the same rule, with numpy's overflow raising
    with np.errstate(all="raise"), pytest.raises(ValidationError, match="q\\^2 overflows"):
        check_q(np.float64(1e200), -2, 2)


def test_the_former_open_gaps_refuse_by_the_rule():
    # an inf amplitude, a NaN residual and a refusal that did not name q
    with pytest.raises(ValidationError, match=re.escape("q = 1e-150 is too small: q^-2.5")):
        qalgebra.apply_E(TensorState.basis(2, (1,) * 6), 1, 1e-150)
    with pytest.raises(ValidationError, match=re.escape("q = 7.46e-155 is too small: q^-3")):
        spectra.symmetry_residual(2, 3, 7.46e-155)
    for (n, N), power, terms in [((2, 3), 3, 6), ((2, 4), 6, 24), ((3, 3), 3, 6)]:
        for q in (1e110, 1e-110, 1e150, 1e-150):
            side, sign = ("large", "") if q > 1 else ("small", "-")
            with pytest.raises(ValidationError, match=re.escape(
                    f"q = {q!r} is too {side}: {terms} x q^{sign}{power} overflows")):
                qalgebra.generate_basis_by_raising(n, N, q)


# OverflowError and the classes above it: each of these handlers catches it
CATCHES_OVERFLOW = {"OverflowError", "ArithmeticError", "Exception", "BaseException"}


def _overflow_handlers(tree: ast.Module) -> list:
    """The qualified names of the functions holding an except clause that
    catches OverflowError: bare, or naming it or a base class of it, alone
    or in a tuple."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            if isinstance(child, ast.ExceptHandler):
                types = (child.type.elts if isinstance(child.type, ast.Tuple)
                         else [child.type])
                if any(t is None or isinstance(t, ast.Name) and t.id in CATCHES_OVERFLOW
                       for t in types):
                    found.append(".".join(scope))
            visit(child, inner)

    visit(tree, ())
    return found


def test_overflow_is_handled_only_where_the_rule_allows():
    # the q rule refuses at the boundary, so no interior site handles float
    # overflow; the rule itself, the CLI's last-resort handler and the norm
    # of caller amplitudes are the three that stay
    allowed = {"errors.check_q", "cli.main", "states.TensorState.norm"}
    sites = [f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
             for name in _overflow_handlers(ast.parse(path.read_text(encoding="utf-8")))]
    assert sorted(set(sites) - allowed) == []
    # the walker sees a handler in a method, one in a tuple, a base class
    # and a bare except
    tree = ast.parse("class A:\n def f(self):\n  try: pass\n"
                     "  except (ValueError, OverflowError): pass\n"
                     "def g():\n try: pass\n except ArithmeticError: pass\n"
                     " try: pass\n except: pass\n"
                     "def h():\n try: pass\n except ValueError: pass\n")
    assert _overflow_handlers(tree) == ["A.f", "g", "g"]
