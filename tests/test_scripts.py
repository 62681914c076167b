import os
import re
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
