"""Every test of `test_snapshots.py` again, with the snapshot cell
conversions and the query scan on their numpy bodies, the fallback where
the compiled library does not load.  The module is collected twice, as
`test_values_numpy.py` does for the conversions alone."""

from test_snapshots import *  # noqa: F401,F403

BACKEND = "numpy"
