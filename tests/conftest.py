import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

import pytest


@pytest.fixture
def blas_at():
    """Sets the OpenBLAS thread count for one test and puts the one found
    back after it; skips where OpenBLAS cannot be set."""
    from vocalrestore import blas

    lib = blas._openblas()
    if lib is None:
        pytest.skip("OpenBLAS cannot be asked for its thread count")
    before = lib[0]()
    yield lib[1]
    lib[1](before)
