"""Every test of `test_values.py` again, with `pack_cells` and
`unpack_cells` on their numpy bodies, the references the compiled loops
must equal bit for bit.  The module is collected twice, as
`test_minplus_numpy.py` does for the min-plus kernel."""

from test_values import *  # noqa: F401,F403

BACKEND = "numpy"
