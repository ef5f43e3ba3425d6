"""The golden digests without pytest: ``python -S tests/golden_stdlib.py``.

Stubs the ``pytest`` module, imports ``test_golden.py``, ``test_ledger.py``
and ``test_golden_deaths.py`` beside this file and checks the three golden
seeds, the pinned digest of a ``ledger.json`` dump and the pinned runs in
which UAVs die, so an interpreter with no pytest installed (``-S`` leaves
site-packages off ``sys.path``) can still check the pinned outputs.
It prints the interpreter's ``sys.version`` and the deflate build's
``zlib.ZLIB_RUNTIME_VERSION`` above its results, so a log shows which Python
and which zlib checked the pins (``compressed_size`` depends on the deflate
build). Exits 1 on a mismatch. Its name keeps pytest from collecting it.
"""

import sys
import tempfile
import types
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
sys.modules["pytest"] = types.SimpleNamespace(
    mark=types.SimpleNamespace(parametrize=lambda *_: lambda test: test))

import test_golden  # noqa: E402
import test_golden_deaths  # noqa: E402
import test_ledger  # noqa: E402


def ledger_dump_matches(outdir: Path) -> bool:
    try:
        test_ledger.test_ledger_dump_matches_pinned_digest(outdir)
    except AssertionError:
        return False
    return True


results = {}
for seed, expected in sorted(test_golden.GOLDEN.items()):
    with tempfile.TemporaryDirectory() as outdir:
        results[f"seed {seed}"] = test_golden.run_digests(Path(outdir), seed) == expected
with tempfile.TemporaryDirectory() as outdir:
    results["ledger dump"] = ledger_dump_matches(Path(outdir))
for name, expected in sorted(test_golden_deaths.GOLDEN.items()):
    with tempfile.TemporaryDirectory() as outdir:
        results[name] = test_golden_deaths.run_digests(Path(outdir), name) == expected
print(f"python {sys.version}")
print(f"zlib {zlib.ZLIB_RUNTIME_VERSION}")
for name, match in results.items():
    print(f"{name}: {'ok' if match else 'MISMATCH'}")
sys.exit(0 if all(results.values()) else 1)
