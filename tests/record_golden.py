"""Re-record the pinned run outputs: ``python -S tests/record_golden.py``.

Runs every entry of ``tests/golden.json`` twice, requires the two runs to
agree (else exits 1 and writes nothing), rewrites the table and prints per
entry the pinned files and streams that moved, are new and held. Quote that
in the notes of the change that meant to alter outputs.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import golden  # noqa: E402


def main() -> int:
    table = golden.load()
    for name, entry in sorted(table.items()):
        runs = []
        for _ in range(2):
            with tempfile.TemporaryDirectory() as outdir:
                runs.append(golden.run_entry(entry, Path(outdir)))
        if runs[0] != runs[1]:
            print(f"{name}: two runs disagree on "
                  f"{', '.join(golden.report(*runs)['moved'])}",
                  file=sys.stderr)
            return 1
        print(f"{name}: " + "; ".join(
            f"{state} {', '.join(names)}" for state, names
            in golden.report(entry, runs[0]).items() if names))
        table[name] = {**entry, **runs[0]}
    golden.TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    print(f"wrote {golden.TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
