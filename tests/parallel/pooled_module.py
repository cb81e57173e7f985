"""A job module that records which process imported it (see
``test_runner.py``): a pooled job's worker should inherit it."""

import os

IMPORTED_BY = os.getpid()


def imported_before_fork(x):
    return {"x": x, "inherited": IMPORTED_BY != os.getpid()}
