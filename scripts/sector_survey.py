#!/usr/bin/env python3
"""Print the full sector bookkeeping of the open chain for n=2.

For each sector k: the predicted eigenvalue count m_k, the ladder length
d_k, the observed highest-weight eigenvalues, and the worst of each ladder
residual over the sector: highest weight (|F_1 v|), closed-form kappa
coefficient (|F_1 E_1 v - kappa v| / kappa, relative), termination
(|E_1 v| at the top rung) and eigenvalue persistence, each per |v|.
Totals are checked against 2^N.  Exits 1 when the report fails.
"""

import argparse
import sys

from braidlab import spectra

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


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--N", type=int, default=6)
    ap.add_argument("--q", type=float, default=1.5)
    args = ap.parse_args()

    deco = spectra.diagonalize(spectra.OpenChain(2, args.N, args.q), vectors=True)
    rep = spectra.classify_sectors(deco)
    print(f"open chain n=2, N={args.N}, q={args.q}")
    print(f"{'k':>3} {'m_k':>5} {'d_k':>5} {'eigenvalues':<{VALUES_WIDTH}} "
          + " ".join(f"{name:>10}" for name in RESIDUALS))
    total = 0
    for k in sorted(rep.sectors):
        lads = rep.sectors[k]
        m_k = spectra.sector_multiplicity(args.N, k)
        d_k = spectra.sector_dimension(args.N, k)
        values = _values_text([lad.eigenvalue for lad in lads])
        worst = [max((getattr(lad, field) for lad in lads), default=0.0)
                 for field in RESIDUALS.values()]
        print(f"{k:>3} {m_k:>5} {d_k:>5} {values:<{VALUES_WIDTH}} "
              + " ".join(f"{w:>10.2e}" for w in worst))
        total += m_k * d_k
    print(f"sum m_k d_k = {total} = 2^{args.N}: {total == 2 ** args.N}")
    if rep.warnings:
        print("warnings:")
        for w in rep.warnings:
            print(" ", w)
    return 0 if rep.ok else 1


if __name__ == "__main__":
    sys.exit(main())
