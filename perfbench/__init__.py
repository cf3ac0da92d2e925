"""Session benchmark for the dqc1kit CLI; see README.md in this directory.

Importing this package must not import numpy: ``run.py`` pins the BLAS
thread count in the environment first.
"""
