"""The golden table without pytest: ``python -S tests/golden_stdlib.py``.

Checks every entry of ``golden.json`` on an interpreter with no pytest
(``-S`` leaves site-packages off ``sys.path``). It prints ``sys.version`` and
``zlib.ZLIB_RUNTIME_VERSION`` (``compressed_size`` depends on the deflate
build) above one line per entry. Exits 1 on a mismatch. Its name keeps
pytest from collecting it.
"""

import sys
import tempfile
import zlib
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import golden  # noqa: E402

print(f"python {sys.version}")
print(f"zlib {zlib.ZLIB_RUNTIME_VERSION}")
problems = []
for name, entry in sorted(golden.load().items()):
    with tempfile.TemporaryDirectory() as outdir:
        problems.append(golden.check(name, entry, Path(outdir)))
    print(f"MISMATCH: {problems[-1]}" if problems[-1] else f"{name}: ok")
sys.exit(1 if any(problems) else 0)
