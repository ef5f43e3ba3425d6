"""The pinned run outputs of ``tests/``: one table, one runner, one report.

``golden.json`` holds one entry per pinned run, keyed by name (the golden
seeds by their seed): its ``overrides`` on the default scenario, its
``seed``, and the sha256 of each pinned file and, for a single run, of each
labelled random stream's end state, ``repr(rng.getstate())``, so a moved draw
names its stream even where no file moves. An entry with a ``figure`` pins
the CSV of ``uavchain figures`` at one replication per value. No pytest.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from uavchain import cli, engine
from uavchain.config import ScenarioConfig, apply_override

TABLE = Path(__file__).resolve().parent / "golden.json"
RUN_FILES = ("transactions.csv", "rounds.csv", "trust.csv", "summary.json",
             "ledger.json")
STREAMS = ("mobility", "workload", "committee", "network", "adversary",
           "placement")


def load() -> dict:
    return json.loads(TABLE.read_text(encoding="utf-8"))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def simulate(entry: dict) -> engine.Simulation:
    """The finished simulation of a single-run entry."""
    config = ScenarioConfig()
    for key, value in entry["overrides"].items():
        apply_override(config, key, value)
    config.validate()
    return engine.run(config, seed=entry["seed"])


def run_entry(entry: dict, outdir: Path) -> dict:
    """Run one entry into ``outdir`` and return its digests in the table's
    shape: ``files``, and ``streams`` for a single run."""
    if "figure" in entry:
        scenario = outdir / "golden.scenario"
        scenario.write_text("".join(f"{key} = {value}\n" for key, value
                                    in entry["overrides"].items()))
        with contextlib.redirect_stdout(io.StringIO()):   # "wrote <path>"
            code = cli.main(["figures", "--figure", entry["figure"],
                             "--config", str(scenario),
                             "--seed", str(entry["seed"]),
                             "--replications", "1", "--out", str(outdir)])
        if code != 0:
            raise RuntimeError(f"uavchain figures exited {code}")
        name = f"figure_{entry['figure']}.csv"
        return {"files": {name: _sha256((outdir / name).read_bytes())}}
    sim = simulate(entry)
    cli.write_run_outputs(sim, outdir, dump_ledger=True)
    return {"files": {name: _sha256((outdir / name).read_bytes())
                      for name in RUN_FILES},
            "streams": {label: _sha256(repr(getattr(
                sim, f"rng_{label}").getstate()).encode())
                for label in STREAMS}}


def report(expected: dict, got: dict) -> dict:
    """Each pinned file and stream (``"<label> stream"``) of an entry, sorted
    into ``moved`` (missing from ``got`` included), ``new`` and ``held``."""
    pinned, fresh = ({**pins.get("files", {}), **{
        f"{label} stream": digest for label, digest
        in pins.get("streams", {}).items()}} for pins in (expected, got))
    result = {"moved": [], "new": [], "held": []}
    for name in {**pinned, **fresh}:   # the pinned names first, in order
        result["new" if name not in pinned else "held"
               if fresh.get(name) == pinned[name] else "moved"].append(name)
    return result


def check(name: str, entry: dict, outdir: Path) -> str:
    """Run one entry: "" when its pins hold, else what moved or is new."""
    result = report(entry, run_entry(entry, outdir))
    moved = result["moved"] + result["new"]
    return f"{name} moved: {', '.join(moved)}" if moved else ""
