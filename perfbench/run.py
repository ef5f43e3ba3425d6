"""uavchain benchmark: repeat one workload in fresh processes for a fixed time.

    python3 perfbench/run.py --workload saturated --seed 1 --seconds 40 --trace 0

Each repetition runs ``worker.py`` in its own single-threaded process, one
after another. With ``--trace 0`` no repetition is traced; the repetitions
cycle through four scenario seeds derived from ``--seed`` and the
end-to-end metrics summarise them (see ``end_to_end``). With ``--trace 1``
every repetition runs the scenario ``--seed`` itself, alternating untraced
and traced; the per-layer metrics are medians over the traced ones, and
the tracing overhead is the median traced run time minus the median
untraced one.

A repetition fails when it raises, when the audit of its ledger dump reports
any finding, or when the sha256 of ``transactions.csv``, ``rounds.csv``,
``trust.csv`` or ``summary.json`` differs from ``golden.json`` (for a
scenario seed recorded there) or from the first repetition of the same
scenario (for any other).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller record, with
every repetition and the environment, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SCENARIOS = 4          # scenario seeds per untraced run
SEED_STRIDE = 1000     # scenario seeds of run seed n: n, n + 1000, ...
MIN_REPS = {False: 2 * SCENARIOS, True: 4}  # untraced / traced (two pairs)
HARD_LIMIT_S = 150.0   # stop starting repetitions after this
OVERHEAD = ("trace.overhead_s", "trace.overhead_ratio")


def scenario_seeds(seed: int, trace: bool) -> list[int]:
    """The scenarios one run measures, in the order its repetitions cycle.

    How much a scenario commits, and so how much work its run does, varies
    by up to 3x from seed to seed. An untraced run therefore measures
    several scenarios and reports their mean, so that one seed's luck moves
    the metrics less. A traced run measures the first only, so its counts
    repeat exactly.
    """
    return [seed] if trace else [seed + SEED_STRIDE * j for j in range(SCENARIOS)]


def launch_worker(workload: str, seed: int, outdir: Path, traced: bool,
                  timeout: float) -> dict:
    """Run one repetition in a child process and return its JSON record."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(outdir)]
    if traced:
        cmd.append("--trace")
    # subprocess.run kills and reaps the child if the timeout expires.
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(timeout, 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False, "error": f"worker exited with {proc.returncode}: "
                                      f"{proc.stderr[-2000:]}"}
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool,
            launch=launch_worker) -> list[dict]:
    """Repeat the workload until another repetition would pass ``seconds``.

    Repetitions cycle through ``scenario_seeds``; with ``trace`` they
    alternate untraced and traced.
    """
    seeds = scenario_seeds(seed, trace)
    reps: list[dict] = []
    began = time.monotonic()
    while True:
        traced = trace and len(reps) % 2 == 1
        scenario = seeds[len(reps) % len(seeds)]
        outdir = OUT / "work" / ("traced" if traced else "untraced")
        shutil.rmtree(outdir, ignore_errors=True)
        started = time.monotonic()
        try:
            rep = launch(workload, scenario, outdir, traced,
                         HARD_LIMIT_S + 20.0 - (started - began))
        except Exception as exc:  # a repetition that cannot report still counts
            rep = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        rep["seed"] = scenario
        rep["traced"] = traced
        rep["wall_s"] = time.monotonic() - started
        reps.append(rep)
        elapsed = time.monotonic() - began
        typical = statistics.median(r["wall_s"] for r in reps)
        if elapsed + typical > HARD_LIMIT_S:
            break
        if len(reps) >= MIN_REPS[trace] and elapsed + typical > seconds:
            break
    return reps


def check(reps: list[dict], golden: dict) -> int:
    """Mark each repetition's ``problems``; return how many failed.

    ``golden`` maps a scenario seed (as a string) to its digests. A
    scenario without golden digests must match its first repetition.
    """
    reference = dict(golden)
    for rep in reps:
        if rep.get("ok"):
            reference.setdefault(str(rep["seed"]), rep["digests"])
    for rep in reps:
        problems = []
        if not rep.get("ok"):
            problems.append(rep.get("error", "repetition failed"))
        else:
            if rep["audit_rc"] != 0:
                problems.append(f"audit exit code {rep['audit_rc']}")
            if rep["digests"] != reference[str(rep["seed"])]:
                problems.append("output digests differ from "
                                + ("golden.json" if str(rep["seed"]) in golden
                                   else "the scenario's first repetition"))
        rep["problems"] = problems
    return sum(1 for rep in reps if rep["problems"])


def end_to_end(reps: list[dict]) -> dict[str, float]:
    """Host-time metrics of the untraced repetitions.

    Every time is at the reference host speed (``worker.calibrate``). Per
    scenario, a phase's time is the median over every instance of it:
    one run and three emissions, dumps and audits per repetition. The run
    and its memory are then averaged over the scenarios. Emission, the
    ledger dump and the audit are summed over the scenarios and divided by
    the rows or transactions they handle, because those grow with what a
    seed happens to commit. Set-up, which takes milliseconds, is the median
    of every set-up in the run.
    """
    by_seed: dict[int, list[dict]] = {}
    for rep in reps:
        if rep.get("ok") and not rep["traced"]:
            by_seed.setdefault(rep["seed"], []).append(rep)
    median, mean = statistics.median, statistics.mean
    scenarios = list(by_seed.values())

    def per_unit(times, unit: str) -> float:
        """Summed per-scenario median of ``times(rep)``, in us per ``unit``."""
        total = sum(median(t for r in g for t in times(r)) for g in scenarios)
        return 1e6 * total / sum(max(g[0][unit], 1) for g in scenarios)

    return {
        "setup_s": median(s for g in scenarios for r in g for s in r["setup_ref_s"]),
        "run_s": mean(median(r["run_ref_s"] for r in g) for g in scenarios),
        "emit_us_per_row": per_unit(lambda r: [e - d for e, d in zip(
            r["emit_ref_s"], r["dump_ref_s"])], "csv_rows"),
        "dump_us_per_tx": per_unit(lambda r: r["dump_ref_s"], "committed"),
        "audit_us_per_tx": per_unit(lambda r: r["audit_ref_s"], "committed"),
        "run_peak_rss_mb": mean(median(r["run_rss_mb"] for r in g) for g in scenarios),
    }


def per_layer(reps: list[dict], names: list[str]) -> dict[str, float]:
    """Medians over the traced repetitions, and the tracing overhead.

    The overhead is the median traced run time minus the median untraced
    one, both at the reference host speed.
    """
    good = [r for r in reps if r.get("ok")]
    traced = [r for r in good if r["traced"]]
    untraced_run = statistics.median(r["run_ref_s"] for r in good
                                     if not r["traced"])
    overhead = statistics.median(r["run_ref_s"] for r in traced) - untraced_run
    values = {"trace.overhead_s": overhead,
              "trace.overhead_ratio": overhead / untraced_run}
    for name in names:
        if name not in OVERHEAD:
            values[name] = statistics.median(r["layers"].get(name, 0.0)
                                             for r in traced)
    return values


def git_sha(root: Path) -> str:
    """HEAD of a git checkout at ``root``, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    src_lines = sum(len(path.read_text(encoding="utf-8").splitlines())
                    for path in sorted((ROOT / "src").rglob("*.py")))
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "git_sha": git_sha(ROOT),
            "src_lines": src_lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "uavchain" / "__init__.py").is_file():
        print(f"perfbench: no uavchain sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    golden = json.loads(GOLDEN.read_text()).get(args.workload, {})

    trace = bool(args.trace)
    reps = measure(args.workload, args.seed, args.seconds, trace)
    failed = check(reps, golden)
    try:
        values = (per_layer(reps, [m["name"] for m in metric_specs]) if trace
                  else end_to_end(reps))
    except (ValueError, ZeroDivisionError):  # includes StatisticsError
        values = {}  # no usable repetition of a kind the metrics need
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in metric_specs if m["name"] in values}
    correct = failed == 0 and len(metrics) == len(metric_specs)

    env = environment()
    for rep in reps:
        status = "; ".join(rep["problems"]) or "ok"
        if rep.get("missing_hooks"):
            status += f" (not traced: {', '.join(rep['missing_hooks'])})"
        kind = "traced" if rep["traced"] else "untraced"
        print(f"repetition {kind} {rep['wall_s']:.2f} s: {status}")
    for name, metric in metrics.items():
        print(f"{name:45s} {metric['value']:.6g} {metric['unit']}")
    print("environment " + json.dumps(env, sort_keys=True))

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "golden": sorted({str(r["seed"]) for r in reps} & set(golden)),
              "environment": env,
              "correct": correct, "metrics": metrics, "repetitions": reps}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(json.dumps({"correct": correct, "attempted": len(reps),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
