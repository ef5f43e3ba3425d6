"""CSV emission: the template writer against the csv module, on drawn rows
and on whole runs, and its memory."""

import csv
import io
import operator
import tracemalloc
from dataclasses import fields

import pytest

from uavchain import cli, engine, metrics
from uavchain.config import ScenarioConfig, apply_override
from uavchain.metrics import TX_STATUSES, MetricsCollector, TxRecord


def csv_module_bytes(header, rows) -> bytes:
    """The plain twin: what `csv.writer` writes for the same table."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8")


def columns(record_type) -> list[str]:
    return [f.name for f in fields(record_type)]


def test_write_csv_writes_the_csv_modules_bytes(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # Strings from the alphabet of node ids, committees, hex ids, status
    # words and config keys.
    words = st.text("abcdefghijklmnopqrstuvwxyz0123456789_.|-", max_size=8)
    cells = (st.none() | st.integers() | st.floats() | words
             | st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, 0.1 + 0.2]))

    def table(width):
        row = st.lists(cells, min_size=width, max_size=width)
        return st.tuples(st.lists(words, min_size=width, max_size=width),
                         st.lists(row | row.map(tuple), max_size=20))

    in_flight = TxRecord(seq=7, tx_id="ab12", sender="u003", edge="e01",
                         submit_time_s=29.5)
    sweep_header = ["axis", "value", "replications",
                    "validation_success_pct_mean", "validation_success_pct_std"]
    path = tmp_path / "table.csv"

    @hypothesis.settings(derandomize=True, max_examples=200, database=None,
                         deadline=None)
    @hypothesis.given(drawn=st.integers(2, 12).flatmap(table))
    @hypothesis.example(drawn=(columns(TxRecord), [operator.attrgetter(
        *columns(TxRecord))(in_flight)]))
    @hypothesis.example(drawn=(sweep_header,
                               [["sim.duration_s", 5, 1, None, None]]))
    def check(drawn):
        header, rows = drawn
        metrics.write_csv(path, header, rows)
        assert path.read_bytes() == csv_module_bytes(header, rows)

    check()


# Rejects (forged signatures, replays), out-of-range drops, expiries,
# aborted rounds (vote-reject edges) and, over slow links, uploads still in
# flight when the run ends.
EVERY_ROW_KIND = {
    "sim.duration_s": 60, "network.uav_count": 30, "network.range_m": 900,
    "network.bandwidth_bps": 2e4, "workload.arrival_rate_tps": 20,
    "workload.compromised_fraction": 0.3,
    "workload.malicious_edge_fraction": 0.4, "consensus.tau_max_s": 20,
    "consensus.max_block_txs": 40,
}


def test_run_and_sweep_csvs_are_what_the_csv_module_reads_and_writes(tmp_path):
    config = ScenarioConfig()
    for key, value in EVERY_ROW_KIND.items():
        apply_override(config, key, value)
    result = engine.run(config, seed=1)
    txs = result.metrics.transactions
    assert {r.status for r in txs} == set(TX_STATUSES)
    assert any(r.status == "pending" and r.edge and r.recv_time_s is None
               for r in txs)  # in flight: recv_time_s, latency_s, timely None
    assert {r.timely for r in txs} == {None, 0, 1}
    assert {r.outcome for r in result.metrics.rounds} == {
        "committed", "aborted", "skipped"}
    run_out, sweep_out = tmp_path / "run", tmp_path / "sweep"
    tables = result.metrics._tables()
    result.metrics.write_csvs(run_out)
    for name, (record_type, records) in tables.items():
        header = columns(record_type)
        assert (run_out / name).read_bytes() == csv_module_bytes(
            header, map(operator.attrgetter(*header), records))

    # 5 s ends before the first block interval: no round is decided, so the
    # success rate's mean and std are None.
    scenario = tmp_path / "short.scenario"
    scenario.write_text("sim.duration_s = 5\nnetwork.uav_count = 3\n")
    assert cli.main(["sweep", "--config", str(scenario), "--axis",
                     "network.uav_count", "--values", "3,4",
                     "--replications", "1", "--out", str(sweep_out)]) == 0

    sweep_csv = sweep_out / "sweep_network_uav_count.csv"
    with open(sweep_csv, newline="", encoding="utf-8") as handle:
        assert [row["validation_success_pct_std"]
                for row in csv.DictReader(handle)] == ["", ""]
    for path in [run_out / name for name in tables] + [sweep_csv]:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        # No cell needs quoting, so none was quoted and none was missed.
        assert not any(set(cell) & set(',"\r\n') for row in rows for cell in row)
        assert {len(row) for row in rows} == {len(rows[0])}
        assert path.read_bytes() == csv_module_bytes(rows[0], rows[1:])


def test_write_csvs_never_holds_a_table_text(tmp_path):
    collector = MetricsCollector(transactions=[
        TxRecord(seq=i, tx_id=f"{i:064x}", sender=f"u{i % 100:03d}",
                 edge="e00", submit_time_s=i / 600, energy_j=0.25,
                 **({} if i % 3 else {"recv_time_s": i / 600 + 0.01,
                                      "latency_s": 0.01, "timely": 1}))
        for i in range(12_000)])
    tracemalloc.start()
    try:
        collector.write_csvs(tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (tmp_path / "transactions.csv").stat().st_size / 4
