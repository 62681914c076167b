"""Command-line entry point.

Subcommands: automaton, tableaux, shuffle, dicke, crystal, spectrum, verify,
quandle.  JSON, CSV, or DOT goes to stdout and diagnostics to stderr; output
is deterministic for fixed inputs (floats at 12 significant digits, a
residual of rounding noise, kostka_residual and hw_residual, as its decade
bound, complex values as {re, im} pairs, stable key order).  Exit codes: 0 success,
2 validation error (overflowing q or z included), 1 guard rejection.
"""

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import automata, qalgebra, quandle, spectra, tableaux
from .automata import SCHEMA
from .errors import SizeGuardError, ValidationError, check_q
from .hecke import reduced_words_by_length, shuffle_apply
from .states import TensorState


def fnum(x) -> float:
    """Float rounded to 12 significant digits for stable output; a NaN or
    an infinity (q overflowing inside numpy) is an OverflowError."""
    x = float(x)
    if not math.isfinite(x):
        raise OverflowError(f"non-finite value {x} in the output")
    return float(f"{x:.12g}")


def decade(x) -> float:
    """The decade bound 10^ceil(log10 x) of a nonnegative x, 0.0 for 0: for
    a residual of rounding noise, whose digits change with the solver.  A
    NaN or an infinity is an OverflowError, as in fnum."""
    fnum(x)
    x = float(x)
    return 0.0 if x == 0 else fnum(10.0 ** math.ceil(math.log10(x)))


def cnum(z) -> dict:
    return {"re": fnum(z.real), "im": fnum(z.imag)}


def emit(payload) -> None:
    """Print payload as JSON; a NaN or infinity that bypassed fnum is an
    OverflowError, so no non-JSON float reaches stdout."""
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError as exc:
        raise OverflowError(exc) from None
    print(text)


def _parse_word(text: str, n: int) -> tuple:
    try:
        letters = [int(c) for c in text.replace(",", "")]
    except ValueError:
        raise ValidationError(f"state word {text!r} must be digits 1..{n}") from None
    if any(x < 1 or x > n for x in letters):
        raise ValidationError(f"state word {text!r} has letters outside [1,{n}]")
    return tuple(letters)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def cmd_automaton(args) -> None:
    if args.example:
        a = automata.example_exa01() if args.example == "exa01" else automata.example_e1()
    elif args.table:
        a = automata.from_json(_read(args.table))
    else:
        a = automata.from_json(sys.stdin.read())
    if args.run is not None:
        v = automata.run_word(a, args.run)
        payload = {"schema": SCHEMA, "word": args.run,
                   "vector": [cnum(complex(x)) if a.kind == "unitary" else fnum(x) for x in v]}
        if a.kind == "combinatorial":
            payload["accepts"] = automata.dfa_accepts(a, args.run)
        elif a.kind in ("stochastic", "unitary"):
            payload["acceptance_probability"] = fnum(automata.acceptance_probability(a, args.run))
        emit(payload)
    elif args.dot:
        sys.stdout.write(automata.to_dot(a))
    else:
        print(automata.to_json(a))


def cmd_tableaux(args) -> None:
    rows = tableaux.dimension_table(args.n, args.N)
    emit({"schema": SCHEMA, "n": args.n, "N": args.N,
          "schur_weyl_ok": tableaux.schur_weyl_check(args.n, args.N, rows),
          "table": rows})


def cmd_shuffle(args) -> None:
    if args.reduced_words:
        for length, words in sorted(reduced_words_by_length(args.N).items()):
            print(f"# length {length}")
            for w in words:
                print("e" if not w else " ".join(f"t{i}" for i in w))
        return
    if args.state is None:
        raise ValidationError("--state is required unless --reduced-words is given")
    word = _parse_word(args.state, args.n)
    if len(word) != args.N:
        raise ValidationError(f"state word length {len(word)} != N={args.N}")
    if args.z == "q2":
        check_q(args.q, -2, 2)     # the q rule of q_symmetrize, Y_N(q^2)
        z = args.q ** 2
    elif args.z == "minus1":
        z = -1.0
    else:
        try:
            z = float(args.z)
        except ValueError:
            raise ValidationError(f"--z must be q2, minus1, or a float, "
                                  f"got {args.z!r}") from None
        if not math.isfinite(z):
            raise ValidationError(f"--z must be finite, got {args.z!r}")
    out = shuffle_apply(TensorState.basis(args.n, word), z, args.q)
    coeffs = {"".join(map(str, w)): fnum(a) for w, a in sorted(out.amps.items())}
    emit({"schema": SCHEMA, "n": args.n, "N": args.N, "q": fnum(args.q),
          "z": fnum(z), "state": args.state, "coefficients": coeffs})


def cmd_dicke(args) -> None:
    try:
        label = tuple(int(x) for x in args.label.split(","))
    except ValueError:
        raise ValidationError(f"--label must be comma-separated integers, "
                              f"got {args.label!r}") from None
    state = qalgebra.q_dicke(args.n, args.N, label, args.q)
    coeffs = {"".join(map(str, w)): fnum(a) for w, a in sorted(state.amps.items())}
    emit({"schema": SCHEMA, "n": args.n, "N": args.N, "q": fnum(args.q),
          "label": list(label), "coefficients": coeffs,
          "norm_check": fnum(state.norm())})


def cmd_crystal(args) -> None:
    a = qalgebra.crystal_automaton(args.n, args.N, q=args.q, labels=args.labels)
    sys.stdout.write(automata.to_dot(a))


def _spectrum_rows(args):
    chain = spectra.OpenChain(args.n, args.N, args.q)
    if args.sector is not None and (args.n != 2 or not 0 <= args.sector <= args.N // 2):
        raise ValidationError(f"--sector takes n=2 and a sector k in 0..{args.N // 2}, "
                              f"got n={args.n}, k={args.sector}")
    # n = 2: the clusters of the sector sweep, each with its sector; else one per irrep run
    solved = spectra.classify_sectors(chain) if args.n == 2 else spectra.diagonalize(chain)
    rows = []
    for c in solved.clusters:
        if args.sector is not None and c.sector != args.sector:
            continue
        # a value within the clustering tolerance of 0 is 0 up to the solver's
        # rounding, whose digits would differ from one LAPACK routine to another
        value = 0.0 if abs(c.value) <= solved.tol else fnum(c.value)
        rows.append({"value": value, "multiplicity": c.multiplicity,
                     "sector": c.sector,
                     "hw_residual": decade(c.hw_residual) if c.hw_residual is not None else None})
    return rows


def cmd_spectrum(args) -> None:
    rows = _spectrum_rows(args)
    if args.format == "csv":
        print("value,multiplicity,sector,hw_residual")
        for r in rows:
            sector = "" if r["sector"] is None else r["sector"]
            hw = "" if r["hw_residual"] is None else f"{r['hw_residual']:.12g}"
            print(f"{r['value']:.12g},{r['multiplicity']},{sector},{hw}")
    else:
        emit({"schema": SCHEMA, "n": args.n, "N": args.N, "q": fnum(args.q),
              "eigenvalues": rows})


def cmd_verify(args) -> None:
    report = spectra.verify_decomposition(args.n, args.N, args.q)
    payload = {"schema": SCHEMA, "n": args.n, "N": args.N, "q": fnum(args.q),
               "ok": report.ok, "total_dimension": report.total_dimension,
               "expected_total": report.expected_total,
               "mismatches": report.mismatches}
    if report.sector_report is not None:
        payload["sector_counts"] = {str(k): v for k, v in
                                    sorted(report.sector_report.m_observed.items())}
        payload["warnings"] = report.sector_report.warnings
    if report.irreps:
        payload["irreps"] = [{"partition": list(lam), "syt_dim": len(irrep.values),
                              "ssyt_dim": irrep.multiplicity,
                              "kostka_residual": decade(irrep.residual)}
                             for lam, irrep in report.irreps.items()]
    emit(payload)
    print("PASS" if report.ok else "FAIL", file=sys.stderr)


def cmd_quandle(args) -> None:
    if args.quandle_cmd == "dihedral":
        table = quandle.dihedral(args.n)
        if args.spectrum:
            spec = quandle.dihedral_spectrum(args.n)
            emit({"schema": SCHEMA, "n": args.n,
                  "eigenvalues": [cnum(v) for v in spec.eigenvalues],
                  "dimensions": spec.dimensions})
        else:
            print(quandle.table_to_json(table))
    elif args.quandle_cmd == "validate":
        table = quandle.table_from_json(_read(args.table))
        emit({"schema": SCHEMA, "n": table.n, **quandle.validate(table)})
    elif args.quandle_cmd == "orbits":
        if args.table is not None:
            table = quandle.table_from_json(_read(args.table))
        elif args.n is not None:
            table = quandle.dihedral(args.n)
        else:
            raise ValidationError("quandle orbits needs --n or --table")
        if args.dot:
            quandle.check_orbit_dot(table, args.N)
        graph = quandle.orbit_automaton(table, args.N)
        if args.dot:
            sys.stdout.write(automata.to_dot(quandle.orbit_to_automaton(graph, table)))
        else:
            payload = {"schema": SCHEMA, "n": table.n, "N": args.N,
                       "order": graph.order,
                       "cycles": {str(j): [["".join(f"x{x}" for x in w) for w in cyc]
                                           for cyc in cycles]
                                  for j, cycles in graph.cycles.items()}}
            emit(payload)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="braidlab",
                                description="Braided automata, Hecke tensor "
                                            "representations, q-Dicke bases, open-chain "
                                            "spectra, quandle braid solutions.")
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("automaton", help="inspect, run, or export an automaton")
    a.add_argument("--table", help="JSON automaton description file (default: stdin)")
    a.add_argument("--example", choices=["exa01", "e1"], help="use a built-in example")
    a.add_argument("--run", help="word to run from the start state")
    a.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    a.set_defaults(fn=cmd_automaton)

    t = sub.add_parser("tableaux", help="partition/tableau dimension table")
    t.add_argument("--n", type=int, required=True)
    t.add_argument("--N", type=int, required=True)
    t.set_defaults(fn=cmd_tableaux)

    s = sub.add_parser("shuffle", help="apply the shuffle operator or dump reduced words")
    s.add_argument("--n", type=int, default=2)
    s.add_argument("--N", type=int, required=True)
    s.add_argument("--z", default="q2", help="q2, minus1, or a float")
    s.add_argument("--q", type=float, default=1.0)
    s.add_argument("--state", help="word over 1..n, e.g. 1122")
    s.add_argument("--reduced-words", action="store_true",
                   help="dump all reduced words grouped by length")
    s.set_defaults(fn=cmd_shuffle)

    d = sub.add_parser("dicke", help="q-Dicke state coefficients")
    d.add_argument("--n", type=int, required=True)
    d.add_argument("--N", type=int, required=True)
    d.add_argument("--q", type=float, required=True)
    d.add_argument("--label", required=True, help="comma-separated multiplicities")
    d.set_defaults(fn=cmd_dicke)

    c = sub.add_parser("crystal", help="DOT of the symmetric crystal automaton")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--N", type=int, required=True)
    c.add_argument("--q", type=float, default=None)
    c.add_argument("--labels", choices=["none", "canonical", "rescaled"], default="none")
    c.set_defaults(fn=cmd_crystal)

    sp = sub.add_parser("spectrum", help="eigenvalue table of the open chain")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--q", type=float, default=1.5)
    sp.add_argument("--sector", type=int, default=None)
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.set_defaults(fn=cmd_spectrum)

    v = sub.add_parser("verify", help="check spectrum against tableau bookkeeping")
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--N", type=int, required=True)
    v.add_argument("--q", type=float, default=1.5)
    v.set_defaults(fn=cmd_verify)

    qd = sub.add_parser("quandle", help="quandle tables, spectra, orbits")
    qsub = qd.add_subparsers(dest="quandle_cmd", required=True)
    qdih = qsub.add_parser("dihedral")
    qdih.add_argument("--n", type=int, required=True)
    qdih.add_argument("--spectrum", action="store_true")
    qval = qsub.add_parser("validate")
    qval.add_argument("--table", required=True)
    qorb = qsub.add_parser("orbits")
    qorb.add_argument("--n", type=int)
    qorb.add_argument("--N", type=int, required=True)
    qorb.add_argument("--table")
    qorb.add_argument("--dot", action="store_true")
    qd.set_defaults(fn=cmd_quandle)

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of build_parser, built once per process: parse_args keeps
    no state between calls."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            args.fn(args)
    except SizeGuardError as exc:
        print(f"braidlab: {exc}", file=sys.stderr)
        return 1
    except (ValidationError, OSError) as exc:
        print(f"braidlab: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, FloatingPointError) as exc:
        # a finite but extreme q (say 1e200) overflows float powers of q, or
        # numpy arithmetic into a NaN or infinity (errstate, fnum, emit)
        print(f"braidlab: numerical overflow, q or z out of range: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
