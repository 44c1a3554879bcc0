"""Fixtures shared by the test modules."""

import sys

import pytest


@pytest.fixture
def int_str_limit():
    """``sys.set_int_max_str_digits`` for one test; the old limit is restored after it.

    CPython (3.11, and 3.10.7 on) refuses ``str`` of an int with more digits
    than the limit, 4,300 by default; 0 lifts it.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str digit limit")
    old = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(old)
