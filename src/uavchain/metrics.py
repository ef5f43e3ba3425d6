"""Observation records, CSV emission and run-level summary statistics.

CSV schemas (documented for external plotting tools):

transactions.csv:
  seq, tx_id, sender, edge, submit_time_s, recv_time_s, latency_s, timely,
  status, reject_reason, energy_j
rounds.csv:
  window_id, time_s, committee, proposer, eta, zeta, theta_j, utility,
  outcome, approvals, delta_cons_s, raw_size, compressed_size, omega
trust.csv:
  window_id, node, chi, xi, rho

Floats are written with repr() (shortest round-trip form) so identical runs
produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from statistics import mean
from typing import Optional

TX_STATUSES = ("committed", "pending", "expired", "rejected", "dropped")


@dataclass
class TxRecord:
    seq: int
    tx_id: str
    sender: str
    submit_time: float
    edge: str = ""
    recv_time: Optional[float] = None
    latency: Optional[float] = None
    timely: Optional[bool] = None
    status: str = "pending"
    reject_reason: str = ""
    energy_j: float = 0.0


@dataclass
class RoundRecord:
    window_id: int
    time: float
    committee: str
    proposer: str
    eta: int = 0
    zeta: float = 0.0
    theta_j: float = 0.0
    utility: float = 0.0
    outcome: str = "skipped"
    approvals: int = 0
    delta_cons: float = 0.0
    raw_size: int = 0
    compressed_size: int = 0
    omega: float = 0.0


@dataclass
class TrustRecord:
    window_id: int
    node: str
    chi: float
    xi: float
    rho: float


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass
class MetricsCollector:
    transactions: list[TxRecord] = field(default_factory=list)
    rounds: list[RoundRecord] = field(default_factory=list)
    trust: list[TrustRecord] = field(default_factory=list)
    replication_bytes: int = 0
    infra_energy_j: float = 0.0

    def summary(self, duration_s: float, uav_energy_spent_j: float,
                top_decile_share: float) -> dict:
        counts = dict.fromkeys(TX_STATUSES, 0)
        for record in self.transactions:
            counts[record.status] += 1
        latencies = [r.latency for r in self.transactions if r.latency is not None]
        timely = [r.timely for r in self.transactions if r.timely is not None]
        committed_energy = [r.energy_j for r in self.transactions
                            if r.status == "committed"]
        decided = [r for r in self.rounds if r.outcome in ("committed", "aborted")]
        committed_rounds = [r for r in decided if r.outcome == "committed"]
        deltas = [r.delta_cons for r in committed_rounds]
        omegas = [r.omega for r in committed_rounds]
        return {
            "duration_s": duration_s,
            "submitted": len(self.transactions),
            "committed": counts["committed"],
            "pending": counts["pending"],
            "expired": counts["expired"],
            "rejected": counts["rejected"],
            "dropped": counts["dropped"],
            "tps_offered": len(self.transactions) / duration_s if duration_s else 0.0,
            "tps_committed": counts["committed"] / duration_s if duration_s else 0.0,
            "mean_latency_s": mean(latencies) if latencies else 0.0,
            "timely_pct": 100.0 * sum(timely) / len(timely) if timely else 0.0,
            "rounds_total": len(self.rounds),
            "rounds_committed": len(committed_rounds),
            "rounds_aborted": len(decided) - len(committed_rounds),
            "rounds_skipped": len(self.rounds) - len(decided),
            "validation_success_pct": (100.0 * len(committed_rounds) / len(decided)
                                       if decided else 100.0),
            "mean_delta_cons_s": mean(deltas) if deltas else 0.0,
            "mean_omega": mean(omegas) if omegas else 0.0,
            "energy_per_committed_tx_j": (mean(committed_energy)
                                          if committed_energy else 0.0),
            "uav_energy_spent_j": uav_energy_spent_j,
            "infra_energy_j": self.infra_energy_j,
            "replication_bytes": self.replication_bytes,
            "top_decile_share_pct": 100.0 * top_decile_share,
        }

    # --- file emission ----------------------------------------------------

    def write_csvs(self, outdir) -> list[str]:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        written = []

        def emit(name: str, header: list[str], rows) -> None:
            path = outdir / name
            with open(path, "w", newline="", encoding="utf-8") as handle:
                writer = csv.writer(handle)
                writer.writerow(header)
                for row in rows:
                    writer.writerow([_cell(v) for v in row])
            written.append(name)

        emit("transactions.csv",
             ["seq", "tx_id", "sender", "edge", "submit_time_s", "recv_time_s",
              "latency_s", "timely", "status", "reject_reason", "energy_j"],
             ([r.seq, r.tx_id, r.sender, r.edge, r.submit_time, r.recv_time,
               r.latency, r.timely, r.status, r.reject_reason, r.energy_j]
              for r in self.transactions))
        emit("rounds.csv",
             ["window_id", "time_s", "committee", "proposer", "eta", "zeta",
              "theta_j", "utility", "outcome", "approvals", "delta_cons_s",
              "raw_size", "compressed_size", "omega"],
             ([r.window_id, r.time, r.committee, r.proposer, r.eta, r.zeta,
               r.theta_j, r.utility, r.outcome, r.approvals, r.delta_cons,
               r.raw_size, r.compressed_size, r.omega]
              for r in self.rounds))
        emit("trust.csv",
             ["window_id", "node", "chi", "xi", "rho"],
             ([r.window_id, r.node, r.chi, r.xi, r.rho] for r in self.trust))
        return written


def trust_deciles(scores: dict[str, float], transactions: list[TxRecord],
                  ) -> list[tuple[list[str], float]]:
    """Committed-transaction share of each trust decile, highest trust first.

    Nodes are ranked by (-score, id) and cut into at most ten groups of
    max(1, n // 10); any remainder belongs to no decile. Each entry is
    (members, share of all committed transactions), and every share is 0.0
    when nothing committed.
    """
    ranked = sorted(scores, key=lambda node: (-scores[node], node))
    size = max(1, len(ranked) // 10)
    decile_of = {node: i // size for i, node in enumerate(ranked[:10 * size])}
    counts = [0] * ((len(decile_of) + size - 1) // size)
    total = 0
    for record in transactions:
        if record.status == "committed":
            total += 1
            decile = decile_of.get(record.sender)
            if decile is not None:
                counts[decile] += 1
    return [(ranked[i * size:(i + 1) * size], count / (total or 1))
            for i, count in enumerate(counts)]


def write_summary(outdir, summary: dict) -> None:
    with open(Path(outdir) / "summary.json", "w", encoding="utf-8") as handle:
        json.dump(summary, handle, sort_keys=True, indent=1)
        handle.write("\n")
