import os

# One BLAS thread, set before numpy loads: the QBD's dense reduction runs
# about twice as slow with OpenBLAS's two threads on a 2-core machine.
# `freshsched` sets the same default on import, but test_ctmc.py and
# test_simulator.py import numpy first, so a run of either alone needs it here.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
