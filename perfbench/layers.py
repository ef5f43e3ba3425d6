"""Which uavchain functions the traced run wraps, and the per-layer metrics.

Each hook names a module attribute or class method that the engine, the CLI
output path or the audit path calls. Internal calls resolve through the same
module globals and class attributes, so nested calls (``verify`` re-running
``sign``, ``make_block`` calling ``merkle_root``) become child spans.
"""

from __future__ import annotations

from pathlib import Path

from uavchain import consensus, crypto, ledger, metrics, netsim, trust, workload

from tracer import Tracer

def _csv_bytes(args, result) -> int:
    outdir = Path(args[1])
    return sum((outdir / name).stat().st_size for name in result)


def install(tracer: Tracer, scheme: str) -> None:
    """Wrap every hooked function; undo with ``tracer.uninstall()``."""
    provider = type(crypto.get_provider(scheme))
    hooks = [
        (provider, "sign", "crypto.sign", None),
        (provider, "verify", "crypto.verify",
         {"false": lambda a, r: r is False}),
        (provider, "encaps", "crypto.kem", None),
        (provider, "decaps", "crypto.kem", None),
        (provider, "keygen", "crypto.keygen", None),
        (ledger, "encode_tx_core", "ledger.encode_tx_core", None),
        (ledger.Transaction, "__post_init__", "ledger.tx_id", None),
        (ledger.Transaction, "wire_size", "ledger.wire_size", None),
        (ledger, "merkle_root", "ledger.merkle_root", None),
        (ledger, "make_block", "ledger.make_block", None),
        (ledger, "compress_block", "ledger.compress_block",
         {"bytes_in": lambda a, r: a[0].raw_size,
          "bytes_out": lambda a, r: a[0].compressed_size}),
        (ledger.LedgerSegment, "append_block", "ledger.append_block", None),
        (ledger, "verify_segment", "ledger.verify_segment", None),
        (ledger, "dump_ledger", "ledger.dump_ledger", None),
        (ledger, "load_ledger", "ledger.load_ledger", None),
        (consensus, "admit_transaction", "consensus.admit_transaction",
         {"accepted": lambda a, r: r is None}),
        (consensus, "assemble_block", "consensus.assemble_block",
         {"pool_txs": lambda a, r: len(a[0].admitted)}),
        (consensus, "run_round", "consensus.run_round",
         {"committed": lambda a, r: r is consensus.RoundOutcome.COMMITTED}),
        (consensus, "sample_committee", "consensus.committee", None),
        (consensus, "sample_proposer", "consensus.committee", None),
        (netsim, "step_mobility", "netsim.step_mobility", None),
        (netsim.CommGraph, "move", "netsim.move", None),
        (netsim.CommGraph, "nearest_edge", "netsim.nearest_edge", None),
        (netsim.CommGraph, "uav_neighbors", "netsim.uav_neighbors", None),
        (netsim, "deliver", "netsim.deliver",
         {"dropped": lambda a, r: r is None}),
        (netsim.EnergyAccount, "try_charge", "netsim.try_charge", None),
        (trust, "behavior_score", "trust.behavior_score", None),
        (trust, "update_trust", "trust.update_trust", None),
        (trust, "trust_rank", "trust.trust_rank", None),
        (trust, "edge_committee_weights", "trust.edge_committee_weights", None),
        (workload, "make_payload", "workload.make_payload",
         {"bytes": lambda a, r: len(r)}),
        (workload, "next_arrival", "workload.next_arrival", None),
        (metrics.MetricsCollector, "summary", "metrics.summary", None),
        (metrics.MetricsCollector, "write_csvs", "metrics.write_csvs",
         {"bytes": _csv_bytes}),
        (metrics, "write_summary", "metrics.write_summary", None),
    ]
    for owner, attr, name, tally in hooks:
        tracer.wrap(owner, attr, name, tally)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, summary: dict) -> dict[str, float]:
    """Per-layer metrics: ``<span>.calls`` and ``<span>.self_s`` for every
    hooked span name and phase, plus the derived counts and ratios below.

    Counts and self times cover the whole traced repetition (one set-up,
    the run, output emission and the audit). The ``per_*_tx`` ratios count
    only calls made inside ``Simulation.run`` and divide by that run's
    submitted or committed transactions.
    """
    stats = tracer.aggregate()
    empty = {"calls": 0, "self_s": 0.0, "phase_calls": {}}

    def calls(name):
        return stats.get(name, empty)["calls"]

    def self_s(name):
        return stats.get(name, empty)["self_s"]

    def run_calls(name):
        return stats.get(name, empty)["phase_calls"].get("run", 0)

    tally = tracer.tallies
    submitted, committed = summary["submitted"], summary["committed"]
    out = {
        "crypto.verify.false_ratio": _ratio(tally["crypto.verify.false"],
                                            calls("crypto.verify")),
        "crypto.verify.per_committed_tx": _ratio(run_calls("crypto.verify"),
                                                 committed),
        "ledger.encode_tx_core.per_submitted_tx": _ratio(
            run_calls("ledger.encode_tx_core"), submitted),
        "ledger.compress_block.bytes_in": tally["ledger.compress_block.bytes_in"],
        "ledger.compress_block.bytes_out": tally["ledger.compress_block.bytes_out"],
        "consensus.admit_transaction.accept_ratio": _ratio(
            tally["consensus.admit_transaction.accepted"],
            calls("consensus.admit_transaction")),
        "consensus.assemble_block.pool_txs_mean": _ratio(
            tally["consensus.assemble_block.pool_txs"],
            calls("consensus.assemble_block")),
        "consensus.assemble_block.builds_per_call": _ratio(
            tracer.count_children("ledger.make_block", "consensus.assemble_block"),
            calls("consensus.assemble_block")),
        "consensus.run_round.commit_ratio": _ratio(
            tally["consensus.run_round.committed"], calls("consensus.run_round")),
        "netsim.deliver.drop_ratio": _ratio(tally["netsim.deliver.dropped"],
                                            calls("netsim.deliver")),
        "trust.self_s": sum(s["self_s"] for n, s in stats.items()
                            if n.startswith("trust.")),
        "workload.payload_bytes": tally["workload.make_payload.bytes"],
        # The run phase's own time is the event loop, the heap and the
        # handler code between calls into the layers.
        "engine.self_s": self_s("run"),
        "engine.self_us_per_submitted_tx": _ratio(1e6 * self_s("run"), submitted),
        "metrics.csv_bytes": tally["metrics.write_csvs.bytes"],
    }
    for name in tracer.names:
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    return out
