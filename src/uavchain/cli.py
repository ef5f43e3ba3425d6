"""Command-line front door: single runs, sweeps, figure data, ledger audit."""

from __future__ import annotations

import argparse
import platform
import sys
import time
import zlib
from pathlib import Path
from statistics import mean

from . import __version__, engine, ledger, metrics
from .config import (ConfigError, ScenarioConfig, apply_override,
                     config_to_flat_dict, load_config)
from .crypto import CryptoError, get_provider

# Figure catalog: output metrics per swept axis value. The performance
# figures pin adversaries to zero so forged timestamps and replays do not
# pollute the latency/throughput/energy bands; the resilience figure sweeps
# the compromised fraction and corrupts edges at the same rate as UAVs
# ("coupled" keys take the swept value too) so the committee vote path is
# actually exercised.
_CLEAN = {"workload.compromised_fraction": 0.0}
_BY_UAV_COUNT = {"axis": "network.uav_count", "values": [20, 40, 60, 80, 100],
                 "base_overrides": _CLEAN}
FIGURES = {
    "latency": {**_BY_UAV_COUNT, "metrics": ["mean_latency_s"]},
    "throughput": {
        "axis": "workload.arrival_rate_tps",
        "values": [10.0, 25.0, 50.0, 100.0, 200.0, 400.0, 600.0],
        "metrics": ["tps_committed", "tps_offered"],
        "base_overrides": _CLEAN,
    },
    "energy": {**_BY_UAV_COUNT, "metrics": ["energy_per_committed_tx_j"]},
    "success": {**_BY_UAV_COUNT, "metrics": ["validation_success_pct"]},
    "compression": {**_BY_UAV_COUNT, "metrics": ["mean_omega"]},
    "resilience": {
        "axis": "workload.compromised_fraction",
        "values": [0.0, 0.05, 0.10, 0.15, 0.20, 0.25],
        "metrics": ["validation_success_pct"],
        "base_overrides": {},
        "coupled": ("workload.malicious_edge_fraction",),
    },
}


def _load(config_path: str | None, seed: int | None,
          duration: float | None = None) -> ScenarioConfig:
    overrides = {"sim.master_seed": seed, "sim.duration_s": duration}
    return load_config(config_path, {key: value for key, value
                                     in overrides.items() if value is not None})


def write_run_outputs(result: engine.Simulation, outdir,
                      dump_ledger: bool = False) -> list[str]:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    outputs = result.metrics.write_csvs(outdir)
    metrics.write_summary(outdir, result.summary)
    outputs.append("summary.json")
    if dump_ledger:
        ledger.dump_ledger(outdir / "ledger.json",
                           [result.segments[e] for e in sorted(result.segments)],
                           result.registry, result.config.crypto.scheme,
                           result.config.sim.master_seed,
                           result.config.consensus.max_block_bytes)
        outputs.append("ledger.json")
    metrics.write_json(outdir / "manifest.json", {
        "tool": "uavchain",
        "version": __version__,
        "python": platform.python_version(),
        "zlib": zlib.ZLIB_RUNTIME_VERSION,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "master_seed": result.config.sim.master_seed,
        "config": config_to_flat_dict(result.config),
        "outputs": sorted(outputs),
    })
    return outputs


def cmd_run(args) -> int:
    config = _load(args.config, args.seed)
    result = engine.run(config)
    write_run_outputs(result, args.out, dump_ledger=args.dump_ledger)
    s = result.summary
    print(f"committed TPS      {s['tps_committed']:.2f}")
    print(f"mean latency       {s['mean_latency_s'] * 1000:.1f} ms")
    print(f"mean consensus dly {s['mean_delta_cons_s'] * 1000:.1f} ms")
    success = s["validation_success_pct"]
    print("validation success " + ("n/a (no decided round)" if success is None
                                   else f"{success:.1f} %"))
    print(f"mean compression   {s['mean_omega']:.3f}")
    print(f"energy/committed   {s['energy_per_committed_tx_j']:.3f} J")
    print(f"outputs in         {args.out}")
    return 0


def _write_sweep_csv(path: Path, rows: list[dict]) -> None:
    header = list(rows[0])
    metrics.write_csv(path, header, ([row[k] for k in header] for row in rows))


def cmd_sweep(args) -> int:
    config = _load(args.config, args.seed)
    values = []
    for raw in args.values.split(","):
        raw = raw.strip()
        try:
            values.append(int(raw))
        except ValueError:
            try:
                values.append(float(raw))
            except ValueError:
                raise ConfigError(f"--values: {raw!r} is not a number") from None
    rows = engine.sweep(config, args.axis, values,
                        replications=args.replications)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"sweep_{args.axis.replace('.', '_')}.csv"
    _write_sweep_csv(path, rows)
    print(f"wrote {path}")
    return 0


def trust_leadership_table(result: engine.Simulation) -> list[dict]:
    """Committed-transaction share per trust decile (decile 1 = highest)."""
    scores = result.trust_scores
    return [{
        "decile": decile,
        "mean_trust": mean(scores[u] for u in members),
        "committed_share_pct": 100.0 * share,
        "population_share_pct": 100.0 * len(members) / len(scores),
    } for decile, (members, share) in enumerate(
        metrics.trust_deciles(scores, result.metrics.transactions), start=1)]


def cmd_figures(args) -> int:
    if args.figure not in FIGURES and args.figure != "trustrank":
        raise ConfigError(f"unknown figure {args.figure!r}; choose from "
                          f"{sorted(FIGURES) + ['trustrank']}")
    config = _load(args.config, args.seed, args.duration)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"figure_{args.figure}.csv"
    if args.figure == "trustrank":
        rows = trust_leadership_table(engine.run(config))
    else:
        spec = FIGURES[args.figure]
        for key, value in spec["base_overrides"].items():
            apply_override(config, key, value)
        swept = engine.sweep(config, spec["axis"], spec["values"],
                             args.replications,
                             coupled=spec.get("coupled", ()))
        columns = [f"{metric}_{stat}" for metric in spec["metrics"]
                   for stat in ("mean", "std")]
        rows = [{"x": row["value"], **{c: row[c] for c in columns}}
                for row in swept]
    _write_sweep_csv(path, rows)
    print(f"wrote {path}")
    return 0


def cmd_audit(args) -> int:
    segments, registry, scheme, _, limit = ledger.load_ledger(args.ledger)
    provider = get_provider(scheme)
    failures = 0
    for segment in segments:
        findings = ledger.verify_segment(segment, registry, provider, limit)
        status = "PASS" if not findings else "FAIL"
        print(f"{status} segment {segment.owner} "
              f"({len(segment.chain)} blocks)")
        for finding in findings:
            print(f"  {finding}")
        failures += len(findings)
    print(f"audit {'passed' if failures == 0 else 'FAILED'} "
          f"({len(segments)} segments, {failures} findings)")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavchain",
        description="Trust-ranked, quantum-resilient UAV blockchain simulator")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and write metrics")
    p_run.add_argument("--config", help="scenario file (dotted-key format)")
    p_run.add_argument("--seed", type=int, help="override sim.master_seed")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument("--dump-ledger", action="store_true",
                       help="also write the auditable ledger dump")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep one config axis")
    p_sweep.add_argument("--config")
    p_sweep.add_argument("--seed", type=int)
    p_sweep.add_argument("--axis", required=True, help="dotted config key")
    p_sweep.add_argument("--values", required=True, help="comma-separated")
    p_sweep.add_argument("--replications", type=int, default=3)
    p_sweep.add_argument("--out", default="out")
    p_sweep.set_defaults(func=cmd_sweep)

    p_fig = sub.add_parser("figures", help="emit plot data for one figure")
    p_fig.add_argument("--figure", required=True,
                       help=f"one of {sorted(FIGURES) + ['trustrank']}")
    p_fig.add_argument("--config")
    p_fig.add_argument("--seed", type=int)
    p_fig.add_argument("--replications", type=int, default=5)
    p_fig.add_argument("--duration", type=float,
                       help="override sim.duration_s for the sweep")
    p_fig.add_argument("--out", default="out")
    p_fig.set_defaults(func=cmd_figures)

    p_audit = sub.add_parser("audit", help="re-verify a ledger dump")
    p_audit.add_argument("--ledger", required=True, help="ledger.json path")
    p_audit.set_defaults(func=cmd_audit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CryptoError, OSError, ledger.LedgerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
