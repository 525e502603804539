import importlib.util
import re
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "digest", Path(__file__).resolve().parent.parent / "tools" / "digest.py"
)
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)


def test_digest_is_one_deterministic_sha256(capsys):
    outs = []
    for _ in range(2):
        assert digest.main() == 0
        outs.append(capsys.readouterr().out)
    assert re.fullmatch(r"[0-9a-f]{64}\n", outs[0])
    assert outs[0] == outs[1]
