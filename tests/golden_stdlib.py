"""The golden digests without pytest: ``python -S tests/golden_stdlib.py``.

Stubs the ``pytest`` module, imports ``test_golden.py`` beside this file and
checks its three seeds, so an interpreter with no pytest installed (``-S``
leaves site-packages off ``sys.path``) can still check the pinned outputs.
Exits 1 on a mismatch. Its name keeps pytest from collecting it.
"""

import sys
import tempfile
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
sys.modules["pytest"] = types.SimpleNamespace(
    mark=types.SimpleNamespace(parametrize=lambda *_: lambda test: test))

import test_golden  # noqa: E402

failed = 0
for seed, expected in sorted(test_golden.GOLDEN.items()):
    with tempfile.TemporaryDirectory() as outdir:
        match = test_golden.run_digests(Path(outdir), seed) == expected
    print(f"seed {seed}: {'ok' if match else 'MISMATCH'}")
    failed += not match
sys.exit(1 if failed else 0)
