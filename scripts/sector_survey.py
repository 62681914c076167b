#!/usr/bin/env python3
"""Print the full sector bookkeeping of the open chain for n=2.

    python scripts/sector_survey.py --N 4-12 --q 0.1,0.15,0.2,5,7,10

For each chain length N and each q (a range or list of N and a list of q,
as in cli_diff.py) and each sector k: the predicted eigenvalue count m_k,
the ladder length d_k, the observed highest-weight eigenvalues, and the
worst of each ladder residual over the sector: highest weight
(|F_1 v|), closed-form kappa coefficient (|F_1 E_1 v - kappa v| / kappa,
relative), termination (|E_1 v| at the top rung) and eigenvalue
persistence, each per |v|.  Totals are checked against 2^N, followed by
the rank margin of E_1, min |R_ii| / max |R_ii| of its QR at the worst rung
(compared with no threshold), and the rung residual, the worst difference
on any rung up to the middle between the sorted open-ladder values and the
seminormal spectra of the sectors that rung holds; each case ends in PASS
or FAIL as its report does.  A case that classify_sectors refuses (a q
past the chain's q rule, say) prints the refusal and FAIL, and the survey
goes on.  Exits 1 when any case fails.
"""

import argparse
import sys

from braidlab import spectra
from braidlab.errors import BraidlabError
from cli_diff import int_list

# column header -> SectorLadder field
RESIDUALS = {"hw_res": "hw_residual", "kappa_res": "kappa_residual",
             "term_res": "termination_residual", "eigen_res": "eigen_residual"}
VALUES_WIDTH = 48


def _values_text(values) -> str:
    """As many leading eigenvalues as fit in VALUES_WIDTH characters,
    followed by the total count when some are left out."""
    shown = [f"{v:.6g}" for v in values]
    text, k = ", ".join(shown), len(shown)
    while len(text) > VALUES_WIDTH and k > 0:
        k -= 1
        text = ", ".join(shown[:k] + ["..."]) + f" ({len(shown)} total)"
    return text


def survey(N: int, q: float) -> bool:
    """Print the table of one chain; True when its report passes."""
    print(f"open chain n=2, N={N}, q={q}")
    try:
        rep = spectra.classify_sectors(spectra.OpenChain(2, N, q))
    except BraidlabError as exc:
        print(f"refused: {exc}")
        print("FAIL")
        return False
    print(f"{'k':>3} {'m_k':>5} {'d_k':>5} {'eigenvalues':<{VALUES_WIDTH}} "
          + " ".join(f"{name:>10}" for name in RESIDUALS))
    total = 0
    for k in sorted(rep.sectors):
        lads = rep.sectors[k]
        m_k = spectra.sector_multiplicity(N, k)
        d_k = spectra.sector_dimension(N, k)
        values = _values_text([lad.eigenvalue for lad in lads])
        worst = [max((getattr(lad, field) for lad in lads), default=0.0)
                 for field in RESIDUALS.values()]
        print(f"{k:>3} {m_k:>5} {d_k:>5} {values:<{VALUES_WIDTH}} "
              + " ".join(f"{w:>10.2e}" for w in worst))
        total += m_k * d_k
    print(f"sum m_k d_k = {total} = 2^{N}: {total == 2 ** N}")
    print(f"rank margin of E_1: {rep.rank_margin:.2e}")
    print(f"rung residual: {rep.rung_residual:.2e}")
    if rep.warnings:
        print("warnings:")
        for w in rep.warnings:
            print(" ", w)
    print("PASS" if rep.ok else "FAIL")
    return rep.ok


def float_list(text: str) -> list[float]:
    """"0.1,0.15,5" as a list of floats."""
    return [float(x) for x in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--N", type=int_list, default=[6], help="chain lengths, e.g. 8 or 4-12")
    ap.add_argument("--q", type=float_list, default=[1.5], help="q values, e.g. 0.1,0.15,5")
    args = ap.parse_args()
    cases = [(N, q) for N in args.N for q in args.q]
    passed = sum(survey(N, q) for N, q in cases)
    print(f"survey: {passed} of {len(cases)} cases PASS")
    return 0 if passed == len(cases) else 1


if __name__ == "__main__":
    sys.exit(main())
