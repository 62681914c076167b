#!/usr/bin/env python3
"""Compare the CLI output of two braidlab source checkouts over a grid.

    python scripts/cli_diff.py OLD NEW --n 2 --N 1-12 --q 0.3,0.7,1.5

OLD and NEW are directories that hold src/braidlab (a clone or an exported
commit).  For every n, N and q of the grid the script runs `verify`,
`spectrum`, `spectrum --format csv`, `dicke` at the most even composition of
N into n parts (larger parts first) and `crystal` with `--labels
canonical` and `--labels rescaled`, so that the q-integers those print are
compared too.  The commands that take no --q run once per n and N:
`crystal` without labels, the `tableaux` dimension table (the standard
tableau counts that the n = 2 sector counts are), `quandle orbits` of the
dihedral quandle as JSON and as DOT, and `automaton --example` exa01 and e1
as JSON, as DOT and running a word of length N (see run_word).  The
dihedral quandle of order N runs once per N, whatever n: its table JSON
(`quandle dihedral --n N`) for N >= 2 and its `--spectrum` for odd N >= 3,
and the spectra of orders 101 and 301 run once per call.
For N <= 8 the shuffle operator runs too: `shuffle --z q2` and `shuffle
--z minus1` on the ordered word of that composition for every n and q, and
`shuffle --reduced-words` once per N.  Each checkout is imported
in its own Python subprocess, which runs every case in process through
braidlab.cli.main and returns its exit code, stdout and stderr.  BLAS runs
one thread in both unless OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or
MKL_NUM_THREADS is set.  Every case whose output differs is printed with its
differing lines (old "-", new "+"), then a count of the differing runs.
Exit code 0 when no run differs, 1 when one does, 2 on a bad argument or
a checkout that cannot run.
"""

import argparse
import difflib
import json
import os
import subprocess
import sys
from pathlib import Path

COMMANDS = (["verify"], ["spectrum"], ["spectrum", "--format", "csv"], ["dicke"],
            ["crystal", "--labels", "canonical"], ["crystal", "--labels", "rescaled"])
EXAMPLES = ("exa01", "e1")
SHUFFLE_MAX_N = 8

# run in the subprocess: argv lists on stdin, [code, stdout, stderr] per run on stdout
CHILD = r"""
import contextlib, io, json, sys
from pathlib import Path
src = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(src))
import braidlab
from braidlab import cli
if Path(braidlab.__file__).resolve().parent != src / "braidlab":
    sys.exit(f"cli_diff: imported braidlab from {braidlab.__file__}, not {src}")
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def int_list(text: str) -> list[int]:
    """"1-12" or "2,3,5" (or a mix, "1-3,7") as a list of integers."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def most_even(n: int, N: int) -> str:
    """The most even composition of N into n parts, larger parts first, as
    a --label value: "3,2" for n = 2, N = 5."""
    base, extra = divmod(N, n)
    return ",".join(map(str, [base + 1] * extra + [base] * (n - extra)))


def ordered_word(label: str) -> str:
    """The ordered word of a --label value: "11122" for "3,2"."""
    return "".join(str(letter) * int(m) for letter, m in enumerate(label.split(","), start=1))


def shuffle_cases(n: int, N: int, q: str) -> list[list[str]]:
    """shuffle at z = q^2 and z = -1 on the ordered word of the most even
    composition, for N <= SHUFFLE_MAX_N."""
    if N > SHUFFLE_MAX_N:
        return []
    word = ordered_word(most_even(n, N))
    return [["shuffle", "--n", str(n), "--N", str(N), "--q", q, "--z", z, "--state", word]
            for z in ("q2", "minus1")]


def run_word(n: int, N: int) -> str:
    """The automaton word of (n, N): n - 1 letters a, then b, repeated to
    length N ("abab" for n = 2, N = 4; "aab" for n = 3, N = 3)."""
    return (("a" * (n - 1) + "b") * N)[:N]


def automata_cases(n: int, N: int) -> list[list[str]]:
    """The commands of one (n, N) that take no --q."""
    size = ["--n", str(n), "--N", str(N)]
    cases = [["crystal", *size], ["tableaux", *size], ["quandle", "orbits", *size],
             ["quandle", "orbits", *size, "--dot"]]
    for example in EXAMPLES:
        cases += [["automaton", "--example", example, *extra]
                  for extra in ([], ["--dot"], ["--run", run_word(n, N)])]
    return cases


def dihedral_cases(N: int) -> list[list[str]]:
    """The quandle dihedral commands of order N: the table for N >= 2, and
    the spectrum too for odd N >= 3."""
    table = ["quandle", "dihedral", "--n", str(N)]
    return ([table] if N >= 2 else []) + ([table + ["--spectrum"]] if N >= 3 and N % 2 else [])


def fail(message: str):
    print(f"cli_diff: {message}", file=sys.stderr)
    raise SystemExit(2)


def run_checkout(root: Path, cases: list[list[str]]) -> list:
    src = root / "src"
    if not (src / "braidlab" / "__init__.py").is_file():
        fail(f"no braidlab sources under {src}")
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    done = subprocess.run([sys.executable, "-c", CHILD, str(src)], input=json.dumps(cases),
                          capture_output=True, text=True, env=env)
    if done.returncode != 0:
        fail(f"{root} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def differences(old, new) -> list[str]:
    """The differing lines of one run: exit code, then stdout, then stderr."""
    lines = []
    if old[0] != new[0]:
        lines += [f"-exit {old[0]}", f"+exit {new[0]}"]
    for stream, a, b in (("stdout", old[1], new[1]), ("stderr", old[2], new[2])):
        diff = [line for line in difflib.unified_diff(a.splitlines(), b.splitlines(),
                                                      lineterm="", n=0)
                if line[:1] in "-+" and not line.startswith(("---", "+++"))]
        lines += [f"{line[0]}{stream}: {line[1:]}" for line in diff]
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old", type=Path, help="checkout holding src/braidlab")
    p.add_argument("new", type=Path, help="checkout holding src/braidlab")
    p.add_argument("--n", type=int_list, default=[2], help="alphabet sizes, e.g. 2,3 or 2-4")
    p.add_argument("--N", type=int_list, default=int_list("1-8"), help="chain lengths, e.g. 1-12")
    p.add_argument("--q", default="0.3,0.7,0.8,1.0,1.5,2.0,3.0", help="comma-separated q values")
    args = p.parse_args(argv)
    cases = []
    for n in args.n:
        for N in args.N:
            cases += [command + ["--n", str(n), "--N", str(N), "--q", q]
                      + (["--label", most_even(n, N)] if command == ["dicke"] else [])
                      for q in args.q.split(",") for command in COMMANDS]
            cases += [case for q in args.q.split(",") for case in shuffle_cases(n, N, q)]
            cases += automata_cases(n, N)
    for N in args.N:
        cases += dihedral_cases(N)
        if N <= SHUFFLE_MAX_N:
            cases.append(["shuffle", "--N", str(N), "--reduced-words"])
    cases += [["quandle", "dihedral", "--n", str(n), "--spectrum"] for n in (101, 301)]
    old, new = run_checkout(args.old, cases), run_checkout(args.new, cases)
    differing = 0
    for case, a, b in zip(cases, old, new):
        lines = differences(a, b)
        if lines:
            differing += 1
            print(" ".join(case))
            print("\n".join(f"  {line}" for line in lines))
    print(f"{differing} of {len(cases)} runs differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
