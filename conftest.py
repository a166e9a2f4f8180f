"""Test-session setup shared by every test directory.

BLAS runs one thread per process, as in every ``rf-lab`` command
(``rf_lab.cli`` sets the same defaults, but only once it is imported).
Test modules may import NumPy first, and OpenBLAS reads its thread count
when it loads, so the defaults are set here, before any test module loads
NumPy; bit-exact tests then compare under the BLAS setting the commands use.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
