import os
import sys

# one BLAS thread, as perfbench/run.py and scripts/cli_diff.py pin it; set
# before any test module imports numpy, and a value already set wins
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, os.path.dirname(__file__))
