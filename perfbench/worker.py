"""One benchmark repetition, run in a fresh process by ``run.py``.

The repetition builds the workload's scenario and constructs the simulation
several times (set-up), runs it, writes every output with the ledger dump
(emit) and audits that dump through the ``uavchain audit`` command (audit).
An untraced repetition emits and audits several times over. It prints one
JSON line: per-phase host seconds, the same scaled to the reference host
speed (``*_ref_s``, see ``calibrate``), peak RSS, output digests, the
audit's exit code and, when traced, the per-layer metrics. Any exception
is reported in the line as ``error`` instead of being raised.

    python3 perfbench/worker.py --workload saturated --seed 1 --out DIR [--trace]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from uavchain import cli, engine, ledger  # noqa: E402
from uavchain.config import ScenarioConfig, apply_override  # noqa: E402

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Output files pinned by the golden digests; manifest.json carries a
# timestamp and ledger.json is checked by the audit instead.
DIGESTED = ("transactions.csv", "rounds.csv", "trust.csv", "summary.json")
SETUPS_PER_REP = 5
EMITS_PER_REP = 3  # untraced; a traced repetition emits and audits once
# Called once per simulated mobility step. An untraced run calibrates at
# each call, so each slice of the run between two calls is scaled by the
# host's speed around it.
MARK = (engine.Simulation, "_handle_mobility")
CAL_LOOPS = 2000
# ``calibrate()`` on the 2-core VM the benchmark was written on
# (CPython 3.11), at the fastest speed that host showed.
REFERENCE_CAL_S = 200e-6
CAL_AROUND = 5

clock = time.perf_counter


def calibrate() -> float:
    """Host seconds of a fixed pure-Python loop: how fast the host is now.

    On a shared host the same work runs up to 2x slower for seconds at a
    time. A phase's seconds times ``REFERENCE_CAL_S / calibrate()`` (taken
    just before and after it) is its time at the reference speed, which
    varies far less from run to run than the raw seconds do.
    """
    start = clock()
    counts: dict[int, int] = {}
    for i in range(CAL_LOOPS):
        counts[i & 255] = counts.get(i & 255, 0) + i
    return clock() - start


def calibrate_around() -> float:
    """Median of several ``calibrate()``, for the ends of a short phase."""
    return statistics.median(calibrate() for _ in range(CAL_AROUND))


def to_ref(seconds: float, *cals: float) -> float:
    """``seconds`` scaled to the reference speed by calibrations around it."""
    return seconds * REFERENCE_CAL_S * len(cals) / sum(cals)


def build_config(workload: str, seed: int) -> ScenarioConfig:
    config = ScenarioConfig()
    for key, value in WORKLOADS[workload].items():
        apply_override(config, key, value)
    config.sim.master_seed = seed
    config.validate()
    return config


def digests(outdir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
            for name in DIGESTED}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _timed(tracer: Tracer, phase: str, fn):
    """Run ``fn`` inside a root span; return (result, host seconds)."""
    start = clock()
    index = tracer.open(phase, at=start)
    result = fn()
    end = clock()
    tracer.close(index, at=end)
    return result, end - start


@contextlib.contextmanager
def calibrating_marks(marks: list[tuple[float, float, float]]):
    """Calibrate at every call of ``MARK``; append (before, after, seconds).

    If the engine no longer has ``MARK`` the run is one slice.
    """
    owner, attr = MARK
    original = vars(owner).get(attr)
    if original is None:
        yield
        return

    def marked(*args, **kwargs):
        before = clock()
        seconds = calibrate()
        marks.append((before, clock(), seconds))
        return original(*args, **kwargs)

    setattr(owner, attr, marked)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def timed_run(tracer: Tracer, sim: engine.Simulation, trace: bool):
    """Run the simulation; return (result, host seconds, reference seconds).

    An untraced run is cut into slices at the calibrations, whose own time
    is left out; each slice is scaled by the calibrations at its two ends.
    A traced run is scaled as a whole.
    """
    marks: list[tuple[float, float, float]] = []
    first = calibrate_around()
    with contextlib.nullcontext() if trace else calibrating_marks(marks):
        result, _ = _timed(tracer, "run", sim.run)
    last = calibrate_around()
    (start, end), = tracer.spans_of("run")
    cuts = [(start, start, first)] + marks + [(end, end, last)]
    seconds = ref_seconds = 0.0
    for (_, left, left_cal), (right, _, right_cal) in zip(cuts, cuts[1:]):
        seconds += right - left
        ref_seconds += to_ref(right - left, left_cal, right_cal)
    return result, seconds, ref_seconds


def run_repetition(workload: str, seed: int, outdir: Path,
                   trace: bool) -> dict:
    """One repetition; when ``trace`` is set, the last set-up onwards is traced.

    An untraced repetition wraps only ``ledger.dump_ledger``, to split each
    emission into the ledger dump and the rest, and ``MARK``, to calibrate
    through the run.
    """
    record: dict = {key: [] for key in (
        "setup_s", "setup_ref_s", "emit_s", "emit_ref_s", "dump_ref_s",
        "audit_s", "audit_ref_s")}
    tracer = Tracer()
    try:
        for i in range(SETUPS_PER_REP):
            if trace and i == SETUPS_PER_REP - 1:
                layers.install(tracer, build_config(workload, seed).crypto.scheme)
            before = calibrate_around()
            sim, seconds = _timed(tracer, "setup", lambda: engine.Simulation(
                build_config(workload, seed)))
            record["setup_s"].append(seconds)
            record["setup_ref_s"].append(to_ref(seconds, before,
                                                calibrate_around()))
        if not trace:
            tracer.wrap(ledger, "dump_ledger", "ledger.dump_ledger")
        result, record["run_s"], record["run_ref_s"] = timed_run(tracer, sim, trace)
        record["run_rss_mb"] = peak_rss_mb()
        rc = 0
        for _ in range(1 if trace else EMITS_PER_REP):
            before = calibrate_around()
            _, emit_s = _timed(tracer, "emit", lambda: cli.write_run_outputs(
                result, outdir, dump_ledger=True))
            between = calibrate_around()
            audit_out = io.StringIO()
            with contextlib.redirect_stdout(audit_out):
                code, audit_s = _timed(tracer, "audit", lambda: cli.main(
                    ["audit", "--ledger", str(outdir / "ledger.json")]))
            after = calibrate_around()
            rc = rc or code
            record["emit_s"].append(emit_s)
            record["emit_ref_s"].append(to_ref(emit_s, before, between))
            record["audit_s"].append(audit_s)
            record["audit_ref_s"].append(to_ref(audit_s, between, after))
            if not trace:
                start, end = tracer.spans_of("ledger.dump_ledger")[-1]
                record["dump_ref_s"].append(to_ref(end - start, before, between))
    finally:
        tracer.uninstall()
    record["peak_rss_mb"] = peak_rss_mb()
    record["audit_rc"] = rc
    if rc != 0:
        record["audit_output"] = audit_out.getvalue()[-2000:]
    record["digests"] = digests(outdir)
    record["submitted"] = result.summary["submitted"]
    record["committed"] = result.summary["committed"]
    record["csv_rows"] = (len(result.metrics.transactions)
                          + len(result.metrics.rounds) + len(result.metrics.trust))
    if trace:
        record["layers"] = layers.layer_metrics(tracer, result.summary)
        record["spans"] = len(tracer.start)
        record["missing_hooks"] = tracer.missing
        tracer.write(outdir / "spans.bin")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    try:
        record = run_repetition(args.workload, args.seed, args.out, args.trace)
        record["ok"] = True
    except Exception:  # reported to the parent as a failed repetition
        record = {"ok": False, "error": traceback.format_exc()[-4000:]}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
