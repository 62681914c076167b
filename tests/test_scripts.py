import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=path)).stdout


def test_sector_survey_residual_columns_line_up():
    # sectors 1..4 of N=8 have 7 to 28 eigenvalues, more than fit in the
    # eigenvalue field; the four residual columns must still line up
    lines = run_script("sector_survey.py", "--N", "8", "--q", "1.5").splitlines()
    header = lines[1]
    rows = [line for line in lines if re.match(r"\s*\d+\s", line)]
    assert len(rows) == 5
    ends = [m.end() for m in re.finditer(r"\S+", header)][-4:]
    for row in rows:
        assert [m.end() for m in re.finditer(r"\S+", row)][-4:] == ends, row


def test_sector_survey_passes_far_from_q_one():
    # at N = 12, q = 0.3 kappa reaches about 7e5; every ladder residual
    # stays at rounding and the survey exits 0 (run_script checks it)
    out = run_script("sector_survey.py", "--N", "12", "--q", "0.3")
    assert "warnings:" not in out


def test_sector_survey_keeps_close_sectors_apart():
    # at N = 10, q = 10 a sector-4 and a sector-5 value lie 7.6e-8 apart,
    # inside the clustering tolerance; the case passes (exit 0) and prints
    # the worst rank margin of its E_1 maps, then the worst rung residual
    # against the seminormal spectra, at rounding (its digits vary with the
    # BLAS build)
    lines = run_script("sector_survey.py", "--N", "10", "--q", "10").splitlines()
    assert lines[0] == "open chain n=2, N=10, q=10.0"
    at = lines.index("rank margin of E_1: 2.22e-04")
    label, value = lines[at + 1].split(": ")
    assert label == "rung residual" and 0.0 <= float(value) <= 1e-12
    assert lines[-2:] == ["PASS", "survey: 1 of 1 cases PASS"]


def test_sector_survey_runs_every_case_and_fails_if_one_does():
    # a range of N and a list of q, one table per case; q = 1e3 fails at N = 7
    # (a kappa residual of 9.1e-8) and at N = 8 (its sector counts), so the
    # survey exits 1
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "sector_survey.py"),
                           "--N", "7-8", "--q", "1.5,1e3"], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 1
    lines = done.stdout.splitlines()
    assert [line for line in lines if line.startswith("open chain")] == [
        f"open chain n=2, N={N}, q={q}" for N in (7, 8) for q in (1.5, 1000.0)]
    assert [line for line in lines if line in ("PASS", "FAIL")] == ["PASS", "FAIL"] * 2
    assert lines[-1] == "survey: 2 of 4 cases PASS"


def test_sector_survey_prints_a_refused_case_as_fail_and_goes_on():
    # at q = 1e150 N = 5 and N = 6 are refusals (the chain's q rule for
    # q^(+-N)); a refusal ended the survey in a traceback, and now it is
    # that case's FAIL, the survey goes on and exits 1
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "sector_survey.py"),
                           "--N", "5-6", "--q", "1e150"], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 1 and "Traceback" not in done.stderr
    lines = done.stdout.splitlines()
    at = lines.index("open chain n=2, N=6, q=1e+150")
    assert lines[at + 1:] == ["refused: q = 1e+150 is too large: q^6 overflows", "FAIL",
                              "survey: 0 of 2 cases PASS"]
    assert lines[at - 1] == "FAIL"


def test_distinctness_scan_reports_the_smallest_gap():
    # every weight block of N <= 6 at the default q values, through sector_matrix
    lines = run_script("distinctness_scan.py", "--max-N", "6").splitlines()
    assert lines[-1] == "distinct"
    assert lines[-2] == "smallest gap 1.366e-02 at (q, N, k) = (0.7, 6, 3)"


def test_word_sum_commutators_exact_q1_verdicts():
    # the exact group-algebra check: length sums commute for N = 2 and 3,
    # and four pairs stop commuting at N = 4 (run_script checks exit 0)
    lines = run_script("word_sum_commutators.py").splitlines()
    assert [line.strip() for line in lines if "exact q=1" in line] == [
        "exact q=1 group algebra: all length sums commute",
        "exact q=1 group algebra: all length sums commute",
        "exact q=1 group algebra: noncommuting pairs [(1, 2), (1, 4), (2, 5), (4, 5)]"]


def test_word_sum_commutators_overflow_reads_nan():
    # at q = 1e30 the four-strand sums overflow: the norm is inf, the
    # commutator NaN, and the script exits 0 (run_script checks it)
    lines = run_script("word_sum_commutators.py", "--q", "1e30").splitlines()
    assert [line.split("= ")[-1] for line in lines if line.startswith("N=4")] == ["nan"]


def test_cli_diff_finds_no_difference_between_a_checkout_and_itself():
    lines = run_script("cli_diff.py", str(ROOT), str(ROOT), "--n", "2,3", "--N", "1-3",
                       "--q", "0.7,1.5").splitlines()
    # 8 commands per (n, N, q) with the two shuffles, 10 commands without
    # q per (n, N), and per N the reduced words, with the dihedral table of
    # N = 2 and 3 and the spectrum of N = 3
    assert lines == ["0 of 162 runs differ"]


def test_cli_diff_prints_the_lines_that_differ(tmp_path):
    # a copy whose verify says PASSED on stderr: every verify run differs in
    # that line alone, the other runs not at all, and the exit code is 1
    shutil.copytree(ROOT / "src" / "braidlab", tmp_path / "src" / "braidlab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "braidlab" / "cli.py"
    text = cli.read_text()
    assert text.count('"PASS" if report.ok') == 1
    cli.write_text(text.replace('"PASS" if report.ok', '"PASSED" if report.ok'))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "cli_diff.py"), str(ROOT),
                           str(tmp_path), "--n", "2", "--N", "2,3", "--q", "1.5"],
                          capture_output=True, text=True)
    assert done.returncode == 1
    assert done.stdout.splitlines() == [
        "verify --n 2 --N 2 --q 1.5", "  -stderr: PASS", "  +stderr: PASSED",
        "verify --n 2 --N 3 --q 1.5", "  -stderr: PASS", "  +stderr: PASSED",
        "2 of 41 runs differ"]
