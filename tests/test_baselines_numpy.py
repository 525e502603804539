"""Every test of `test_baselines.py` again, with the Bellman-Ford hop
(`relax`, `relax_hops`) on its numpy backend, the reference the compiled
loops must equal bit for bit.  The module is collected twice, as
`test_minplus_numpy.py` does for the min-plus kernel."""

from test_baselines import *  # noqa: F401,F403

BACKEND = "numpy"
