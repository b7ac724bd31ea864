"""Pin BLAS pools to one thread for every test directory, before numpy loads.

OpenBLAS and its kin read their thread count once, when numpy first loads,
and start one thread per CPU by default; small matrix products then run
several times slower whenever another process holds a CPU. The variables
are the ones ``perfbench/run.py`` pins. Values already set win.
"""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("numpy was loaded before the root conftest.py could pin BLAS to one thread")

for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ.setdefault(_var, "1")
