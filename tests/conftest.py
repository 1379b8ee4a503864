import os

# One BLAS thread, set before numpy loads: the QBD's dense reduction runs
# about twice as slow with OpenBLAS's two threads on a 2-core machine. The
# benchmark pins one thread too.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
