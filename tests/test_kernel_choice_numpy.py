"""Every test of `test_kernel_choice.py` again, with the min-plus kernel
and the Bellman-Ford hop on their numpy backend.  The module is
collected twice, as `test_baselines_numpy.py` does."""

from test_kernel_choice import *  # noqa: F401,F403

BACKEND = "numpy"
