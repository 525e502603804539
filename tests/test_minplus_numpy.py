"""Every test of `test_minplus.py` again, with `conv_window` on its numpy
backend, the reference the compiled loop must equal bit for bit.  A
parametrized fixture would rename the tests of that module, so the module
is collected twice instead."""

from test_minplus import *  # noqa: F401,F403

BACKEND = "numpy"
