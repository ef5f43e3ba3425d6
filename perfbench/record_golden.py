"""Record the golden output digests of every workload at the default seed.

    python3 perfbench/record_golden.py

It records every scenario seed that an untraced run at the default seed
measures. Run it only for a change that is meant to alter the simulator's
outputs, and say why in that change. Two untraced repetitions of each
scenario must agree byte for byte and pass the audit before their digests
are written to golden.json.
"""

from __future__ import annotations

import json
import sys

from run import GOLDEN, check, measure
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    golden = {}
    for name in WORKLOADS:
        reps = measure(name, DEFAULT_SEED, 0.0, trace=False)
        if check(reps, {}):
            print(f"{name}: repetitions failed or disagree: "
                  f"{[r['problems'] for r in reps]}", file=sys.stderr)
            return 1
        golden[name] = {str(rep["seed"]): rep["digests"] for rep in reps}
        print(f"{name}: {golden[name]}")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
