"""Test-session set-up.

The models' matrix products are small, so extra BLAS threads only contend
with each other and with other processes on the machine. One thread per
library is set here, before any test module imports numpy; a value already
in the environment wins.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
