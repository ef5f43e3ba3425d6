"""Observation records, CSV and JSON emission, run-level summary statistics.

Each CSV's columns are its record's fields, in order: `TxRecord` is
transactions.csv, `RoundRecord` rounds.csv and `TrustRecord` trust.csv, so
renaming a field renames its column. `write_csv` is the one CSV writer and
`write_json` the one JSON writer of the reporting layer.

`write_csv` writes each line from one template per table: as many `%s`
cells as the header has columns, joined by commas and ended by CRLF. A
cell is written as its str(), which for a float is its shortest round-trip
repr(), and a None cell as an empty one. Those are the bytes the csv module
writes, so identical runs give byte-identical files, as long as no cell
needs quoting, and none does. The csv module quotes a cell holding a comma,
a quote, CR or LF, and the only string columns are node ids (`u000`,
`e00`), the `|`-joined committee, hex tx ids, status, reason and outcome
words, and the config keys of the sweep and figure CSVs. It also quotes the
lone empty cell of a one-column row, and every table here has at least two
columns. A bool would print as True/False, so records keep flags as 0/1
ints.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field, fields
from itertools import filterfalse
from pathlib import Path
from statistics import mean
from typing import Optional

TX_STATUSES = ("committed", "pending", "expired", "rejected", "dropped")


@dataclass(kw_only=True, slots=True)
class TxRecord:
    seq: int
    tx_id: str
    sender: str
    edge: str = ""
    submit_time_s: float
    recv_time_s: Optional[float] = None
    latency_s: Optional[float] = None
    timely: Optional[int] = None   # 1 if latency_s < tau_max_s, else 0
    status: str = "pending"
    reject_reason: str = ""
    energy_j: float = 0.0


@dataclass(slots=True)
class RoundRecord:
    window_id: int
    time_s: float
    committee: str
    proposer: str
    eta: int = 0
    zeta: float = 0.0
    theta_j: float = 0.0
    utility: float = 0.0
    outcome: str = "skipped"
    approvals: int = 0
    delta_cons_s: float = 0.0
    raw_size: int = 0
    compressed_size: int = 0
    omega: float = 0.0


@dataclass(slots=True)
class TrustRecord:
    window_id: int
    node: str
    chi: float
    xi: float
    rho: float


def write_csv(path, header, rows) -> None:
    """Write the header and each row (a tuple or list of cells) one line at
    a time; a row's None cells become empty ones."""
    line = ",".join(["%s"] * len(header)) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(line % tuple(header))
        handle.writelines(line % (tuple(["" if cell is None else cell
                                         for cell in row])
                                  if None in row else tuple(row))
                          for row in rows)


def write_json(path, data) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, sort_keys=True, indent=1)
        handle.write("\n")


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
        latencies = [r.latency_s for r in self.transactions
                     if r.latency_s is not None]
        timely = [r.timely for r in self.transactions if r.timely is not None]
        committed_energy = [r.energy_j for r in self.transactions
                            if r.status == "committed"]
        decided = [r for r in self.rounds if r.outcome in ("committed", "aborted")]
        committed_rounds = [r for r in decided if r.outcome == "committed"]
        deltas = [r.delta_cons_s for r in committed_rounds]
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
            # None (JSON null) when no round was decided: there is no ratio.
            "validation_success_pct": (100.0 * len(committed_rounds) / len(decided)
                                       if decided else None),
            "mean_delta_cons_s": mean(deltas) if deltas else 0.0,
            "mean_omega": mean(omegas) if omegas else 0.0,
            "energy_per_committed_tx_j": (mean(committed_energy)
                                          if committed_energy else 0.0),
            "uav_energy_spent_j": uav_energy_spent_j,
            "infra_energy_j": self.infra_energy_j,
            "replication_bytes": self.replication_bytes,
            "top_decile_share_pct": 100.0 * top_decile_share,
        }

    def _tables(self) -> dict:
        return {"transactions.csv": (TxRecord, self.transactions),
                "rounds.csv": (RoundRecord, self.rounds),
                "trust.csv": (TrustRecord, self.trust)}

    def first_non_finite(self, summary: dict) -> Optional[str]:
        """Where the outputs first hold inf or NaN, or None. Checks every
        summary float and every float column of the CSVs; of the optional
        ones, a receive time is the clock and the summary holds the mean
        latency."""
        for key, value in summary.items():
            if isinstance(value, float) and not math.isfinite(value):
                return f"summary.json {key} is {value!r}"
        for name, (record_type, records) in self._tables().items():
            for column in fields(record_type):
                if column.type == "float":
                    bad = next(filterfalse(math.isfinite, map(
                        operator.attrgetter(column.name), records)), None)
                    if bad is not None:
                        return f"{name} column {column.name} holds {bad!r}"
        return None

    # --- file emission ----------------------------------------------------

    def write_csvs(self, outdir) -> list[str]:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        tables = self._tables()
        for name, (record_type, records) in tables.items():
            columns = [f.name for f in fields(record_type)]
            write_csv(outdir / name, columns,
                      map(operator.attrgetter(*columns), records))
        return list(tables)


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
    write_json(Path(outdir) / "summary.json", summary)
