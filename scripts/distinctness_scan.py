#!/usr/bin/env python3
"""Scan the weight-block spectra for repeated eigenvalues.

Conjecture: each weight block of the n=2 chain has all-distinct eigenvalues.
The sector classification does not rely on it, since it reads the sectors
off the F_1 kernels.  This scan reports the smallest gap found over a grid
of N, k, and q; it is evidence for the conjecture at desk scale, not a proof.
"""

import argparse
import sys

import numpy as np

from braidlab import spectra


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-N", type=int, default=10)
    ap.add_argument("--q", type=float, nargs="+", default=[0.7, 1.3, 2.0])
    args = ap.parse_args()

    overall = (np.inf, None)
    print(f"{'q':>5} {'N':>3} {'k':>3} {'dim':>5} {'min gap':>12}")
    for q in args.q:
        for N in range(2, args.max_N + 1):
            for k in range(N // 2 + 1):
                vals = np.sort(np.linalg.eigvalsh(spectra.sector_matrix(N, q, k)))
                if len(vals) < 2:
                    continue
                gap = float(np.diff(vals).min())
                if gap < overall[0]:
                    overall = (gap, (q, N, k))
                    print(f"{q:>5} {N:>3} {k:>3} {len(vals):>5} {gap:>12.3e}  <- new minimum")
    gap, where = overall
    print(f"\nsmallest gap {gap:.3e} at (q, N, k) = {where}")
    print("distinct" if gap > 1e-9 else "DEGENERACY SUSPECTED")
    return 0 if gap > 1e-9 else 1


if __name__ == "__main__":
    sys.exit(main())
