"""Simulation loop: determinism, stream isolation, invariants, adversaries."""

import copy
import csv
import filecmp
import json
import logging
import subprocess
import sys
from pathlib import Path

import pytest

from uavchain import engine, ledger, netsim
from uavchain.config import ConfigError, ScenarioConfig
from uavchain.consensus import utility_score
from uavchain.crypto import MockProvider
from uavchain.metrics import (MetricsCollector, RoundRecord, TrustRecord, TxRecord,
                              write_summary)
from uavchain.workload import Behavior


def small_config(**overrides) -> ScenarioConfig:
    cfg = ScenarioConfig()
    cfg.sim.duration_s = 120.0
    cfg.network.uav_count = 40
    for key, value in overrides.items():
        section, field = key.split("__")
        setattr(getattr(cfg, section), field, value)
    return cfg


def test_stream_seed_labels_are_independent():
    assert engine.stream_seed(1, "mobility") != engine.stream_seed(1, "workload")
    assert engine.stream_seed(1, "mobility") != engine.stream_seed(2, "mobility")
    assert engine.stream_seed(1, "mobility") == engine.stream_seed(1, "mobility")


def test_zero_duration_run_is_empty_but_valid():
    cfg = ScenarioConfig()
    cfg.sim.duration_s = 0.0
    result = engine.run(cfg)
    assert result.summary["submitted"] == 0
    assert result.summary["rounds_total"] == 0
    assert all(not seg.chain for seg in result.segments.values())


def test_periodic_events_queue_one_at_a_time(monkeypatch):
    # Each periodic handler queues its own next run, so an hour keeps a short
    # heap; queued up front, this run's heap held over 3,600 events.
    lengths = []
    schedule = engine.Simulation._schedule

    def tracked(self, *args):
        schedule(self, *args)
        lengths.append(len(self._events))

    monkeypatch.setattr(engine.Simulation, "_schedule", tracked)
    sim = engine.run(small_config(sim__duration_s=3600.0, network__uav_count=5,
                                  workload__arrival_rate_tps=0.1))
    assert len(lengths) > 3600 + 360 + 240
    assert max(lengths) <= 8
    assert len(sim.metrics.rounds) == 240
    assert len(sim.metrics.trust) == 360 * 5
    # Set-up queues nothing: a queued bound handler would tie the unrun
    # simulation in a reference cycle that only the cyclic GC frees.
    assert engine.Simulation(small_config())._events == []


def test_an_event_before_now_is_refused_and_queues_nothing():
    # The one clock guard: the run loop pops events in time order and trusts
    # that none lies before now.
    sim = engine.Simulation(small_config())
    sim.now = 5.0
    with pytest.raises(engine.SimulationInvariantError, match="in the past"):
        sim._schedule(4.999, engine._PRIO_MOBILITY, sim._handle_mobility)
    assert sim._events == [] and sim._event_seq == 0
    sim._schedule(5.0, engine._PRIO_MOBILITY, sim._handle_mobility)
    assert len(sim._events) == 1


def test_smoke_run_commits_transactions():
    result = engine.run(small_config())
    s = result.summary
    assert s["submitted"] > 0
    assert s["committed"] > 0
    assert s["rounds_committed"] > 0
    assert 0.0 < s["mean_omega"] < 1.0
    assert s["mean_latency_s"] > 0.0


def test_transaction_status_reconciliation():
    result = engine.run(small_config())
    s = result.summary
    total = (s["committed"] + s["pending"] + s["expired"] + s["rejected"]
             + s["dropped"])
    assert total == s["submitted"]


def test_runs_are_deterministic_and_csv_byte_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        outdir = tmp_path / name
        outdir.mkdir()
        result = engine.run(small_config())
        result.metrics.write_csvs(outdir)
        outs.append(outdir)
    for csv_name in ("transactions.csv", "rounds.csv", "trust.csv"):
        assert filecmp.cmp(outs[0] / csv_name, outs[1] / csv_name,
                           shallow=False)


def test_seed_changes_the_run():
    a = engine.run(small_config(), seed=1).summary
    b = engine.run(small_config(), seed=2).summary
    assert a != b


def test_workload_stream_does_not_perturb_mobility():
    # Changing only the arrival rate must leave trajectories untouched.
    slow = engine.run(small_config(workload__arrival_rate_tps=2.0))
    fast = engine.run(small_config(workload__arrival_rate_tps=10.0))
    assert slow.graph.positions == fast.graph.positions


def test_ledger_segments_audit_clean():
    result = engine.run(small_config())
    provider = MockProvider()
    for segment in result.segments.values():
        assert ledger.verify_segment(segment, result.registry, provider,
                                     result.config.consensus.max_block_bytes) == []


def test_energy_accounts_conserve_and_bound():
    result = engine.run(small_config())
    budget = result.config.energy.uav_budget_j
    for node, account in result.accounts.items():
        if node.startswith("u"):
            assert 0.0 <= account.remaining <= budget


def test_forged_transactions_never_commit():
    cfg = small_config(workload__compromised_fraction=0.3,
                       workload__behaviors="forge-signature")
    result = engine.run(cfg)
    forgers = {u for u, b in result.uav_behaviors.items()
               if b is Behavior.FORGE_SIGNATURE}
    assert forgers
    committed_senders = {r.sender for r in result.metrics.transactions
                         if r.status == "committed"}
    assert not committed_senders & forgers
    rejected = [r for r in result.metrics.transactions
                if r.status == "rejected" and r.sender in forgers]
    assert rejected
    assert all(r.reject_reason == "bad-signature" for r in rejected)


def test_replayed_transactions_are_rejected_as_duplicates():
    cfg = small_config(workload__compromised_fraction=0.3,
                       workload__behaviors="replay")
    result = engine.run(cfg)
    reasons = {r.reject_reason for r in result.metrics.transactions
               if r.status == "rejected"}
    assert "duplicate" in reasons


def test_backdated_transactions_expire_without_committing():
    cfg = small_config(workload__compromised_fraction=0.3,
                       workload__behaviors="delay-injection")
    result = engine.run(cfg)
    delayers = {u for u, b in result.uav_behaviors.items()
                if b is Behavior.DELAY_INJECTION}
    statuses = {r.status for r in result.metrics.transactions
                if r.sender in delayers}
    assert "committed" not in statuses
    assert "expired" in statuses


def test_malicious_edge_minority_cannot_abort_rounds():
    cfg = small_config(workload__malicious_edge_fraction=0.1)
    result = engine.run(cfg)
    assert len(result.malicious_edges) == 1
    assert result.summary["rounds_aborted"] == 0


def test_replication_bytes_count_each_committed_block_once_per_replica(tmp_path):
    cfg = small_config(sim__duration_s=60.0, workload__malicious_edge_fraction=0.4)
    result = engine.run(cfg)
    result.metrics.write_csvs(tmp_path)
    write_summary(tmp_path, result.summary)
    with open(tmp_path / "rounds.csv", newline="") as handle:
        rounds = list(csv.DictReader(handle))
    assert {"committed", "aborted"} <= {row["outcome"] for row in rounds}
    committed = sum(int(row["compressed_size"]) for row in rounds
                    if row["outcome"] == "committed")
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["replication_bytes"] == cfg.ledger.replication * committed


def test_each_proposal_is_checked_once_and_sets_the_honest_votes(monkeypatch):
    checked = []

    def counting_check_block(block, *args):
        checked.append(block)
        return real_check_block(block, *args)

    real_check_block = ledger.check_block
    monkeypatch.setattr(ledger, "check_block", counting_check_block)
    result = engine.run(small_config(workload__malicious_edge_fraction=0.4))
    proposed = [r for r in result.metrics.rounds if r.outcome != "skipped"]
    chain_blocks = sum(len(s.chain) for s in result.segments.values())
    # Once in its round, and each committed block once more in the
    # end-of-run audit.
    assert proposed and len(checked) == len(proposed) + chain_blocks
    for row in proposed:
        honest = [m for m in row.committee.split("|")
                  if m == row.proposer or m not in result.malicious_edges]
        assert row.approvals == len(honest)


def test_csv_headers_are_the_record_fields(tmp_path):
    # Each column is a record field: renaming a field renames its column.
    assert MetricsCollector().write_csvs(tmp_path) == [
        "transactions.csv", "rounds.csv", "trust.csv"]
    assert (tmp_path / "transactions.csv").read_bytes() == (
        b"seq,tx_id,sender,edge,submit_time_s,recv_time_s,latency_s,timely,"
        b"status,reject_reason,energy_j\r\n")
    assert (tmp_path / "rounds.csv").read_bytes() == (
        b"window_id,time_s,committee,proposer,eta,zeta,theta_j,utility,"
        b"outcome,approvals,delta_cons_s,raw_size,compressed_size,omega\r\n")
    assert (tmp_path / "trust.csv").read_bytes() == (
        b"window_id,node,chi,xi,rho\r\n")


def test_committed_round_rows_match_their_blocks(tmp_path):
    sim = engine.run(small_config())
    sim.metrics.write_csvs(tmp_path)
    with open(tmp_path / "rounds.csv", newline="", encoding="utf-8") as handle:
        committed = [row for row in csv.DictReader(handle)
                     if row["outcome"] == "committed"]
    # Each committed round appends one block to its proposer's segment.
    heights = dict.fromkeys(sim.edge_ids, 0)
    for row in committed:
        block = sim.segments[row["proposer"]].chain[heights[row["proposer"]]]
        heights[row["proposer"]] += 1
        eta = int(row["eta"])
        assert block.metadata.timestamp == float(row["time_s"])
        assert len(block.transactions) == eta
        assert block.raw_size == int(row["raw_size"])
        assert block.compressed_size == int(row["compressed_size"])
        assert block.utility == float(row["utility"]) == utility_score(
            sim.config.consensus, eta, float(row["zeta"]), float(row["theta_j"]))
    assert committed
    assert heights == {edge: len(s.chain) for edge, s in sim.segments.items()}


def test_each_link_is_measured_once(monkeypatch):
    # An upload's range rule, transmit energy and delay all read the distance
    # that nearest_edge measured, and no upload measures again; a round's
    # energy, block down and vote up share one distance per non-proposer
    # member.
    handler = [""]
    calls, links, sent, spent = [], [], [], []
    distance = netsim.CommGraph.distance
    nearest_edge = netsim.CommGraph.nearest_edge
    deliver = netsim.deliver

    def tagged(name):
        inner = getattr(engine.Simulation, name)

        def run(self, *args):
            handler[0] = name
            rows = len(self.metrics.transactions)
            inner(self, *args)
            if name == "_handle_submit" and len(self.metrics.transactions) > rows:
                spent.append(self.metrics.transactions[-1].energy_j)
            handler[0] = ""
        return run

    def counted(self, a, b):
        calls.append(handler[0])
        return distance(self, a, b)

    def recorded(self, node):
        pair = nearest_edge(self, node)
        if handler[0] == "_handle_submit":
            links.append(pair)
        return pair

    def recording(size, distance_m, *args):
        if handler[0] == "_handle_submit":
            sent.append(distance_m)
        return deliver(size, distance_m, *args)

    for name in ("_handle_submit", "_handle_round"):
        monkeypatch.setattr(engine.Simulation, name, tagged(name))
    monkeypatch.setattr(netsim.CommGraph, "distance", counted)
    monkeypatch.setattr(netsim.CommGraph, "nearest_edge", recorded)
    monkeypatch.setattr(netsim, "deliver", recording)
    sim = engine.run(small_config(workload__compromised_fraction=0.0))
    cfg = sim.config
    assert not sim.death_times   # so every row with an edge was sent
    rows = sim.metrics.transactions
    # Each row's upload asks for its link once, and each row is signed.
    assert len(links) == len(spent) == len(rows)
    uploads = []
    for row, (edge, length), energy in zip(rows, links, spent):
        assert row.edge == (edge if length <= cfg.network.range_m else "")
        if row.edge:
            uploads.append(length)
            assert energy == cfg.crypto.sign_j + cfg.energy.tx_energy(length)
    assert sent == uploads
    members = sum(row.committee.count("|") for row in sim.metrics.rounds
                  if row.outcome != "skipped")
    assert uploads and members > 0
    assert calls == ["_handle_round"] * members


def test_dead_uavs_stop_everything():
    cfg = small_config(energy__uav_budget_j=2.0,
                       sim__duration_s=300.0)
    result = engine.run(cfg)
    dead = [u for u in result.uav_states if result.accounts[u].depleted]
    assert dead
    for account in (result.accounts[u] for u in dead):
        assert account.remaining == 0.0


def test_alive_list_drops_uavs_as_they_run_out_of_energy(caplog):
    sim = engine.Simulation(small_config(energy__uav_budget_j=2.0,
                                         sim__duration_s=300.0))
    assert sim.graph.uav_ids == sim.uav_ids
    with caplog.at_level(logging.WARNING):
        sim.run()
    assert sim.graph.uav_ids == [u for u in sim.uav_ids
                                 if not sim.accounts[u].depleted]
    # Every UAV is dead long before the end; that is logged once, not on
    # every later trust window.
    assert not sim.graph.uav_ids
    last = max(sim.death_times.values())
    assert [r.getMessage() for r in caplog.records] == [
        f"every UAV is out of energy at t={last:.1f} s"]


def test_a_sender_drained_by_its_transmit_charge_sends_nothing():
    # Sign 0.5 J + encaps 0.25 J + transmit 0.25 J drain a 1 J battery to
    # exactly 0 J: the charges are paid, and the upload is dropped.
    cfg = small_config(sim__duration_s=30.0, network__uav_count=10,
                       energy__uav_budget_j=1.0, crypto__sign_j=0.5,
                       crypto__encaps_j=0.25, energy__eps0_j=0.25,
                       energy__eps1_j_per_m2=0.0,
                       workload__compromised_fraction=0.0)
    sim = engine.run(cfg)
    drained = [r for r in sim.metrics.transactions if r.edge]
    assert len(drained) == 9
    for row in drained:
        assert (row.status, row.reject_reason) == ("dropped", "no-link")
        assert row.energy_j == 0.75 and row.recv_time_s is None
        assert sim.death_times[row.sender] == row.submit_time_s


def _finalize_after(monkeypatch, corrupt):
    """Apply `corrupt` to the simulation just before its end-of-run checks."""
    finalize = engine.Simulation._finalize

    def corrupted_finalize(self):
        corrupt(self)
        return finalize(self)

    monkeypatch.setattr(engine.Simulation, "_finalize", corrupted_finalize)


def test_unattributed_infra_energy_raises(monkeypatch):
    def extra_charge(sim):
        sim.metrics.infra_energy_j += sim.config.crypto.verify_j

    _finalize_after(monkeypatch, extra_charge)
    with pytest.raises(engine.SimulationInvariantError,
                       match="infrastructure energy"):
        engine.run(small_config(sim__duration_s=60.0))


def _swap_pool_entry(sim, tx, seq, edge):
    """Pool (tx, seq) at `edge` in place of some pooled entry, so the pooled
    and pending counts still agree."""
    pool = next(p for p in sim.pools.values() if p.admitted)
    del pool.admitted[next(iter(pool.admitted))]
    sim.pools[edge].admitted[tx.id] = (tx, seq)


def test_pool_entry_without_a_pending_row_raises(monkeypatch):
    def pool_committed_row(sim):
        tx = sim.committed_recent[0]
        seq = next(r.seq for r in sim.metrics.transactions
                   if r.tx_id == tx.id.hex() and r.status == "committed")
        _swap_pool_entry(sim, tx, seq, sim.metrics.transactions[seq].edge)

    def pool_under_wrong_edge(sim):
        edge, pool = next((e, p) for e, p in sim.pools.items() if p.admitted)
        tx, seq = pool.admitted[next(iter(pool.admitted))]
        _swap_pool_entry(sim, tx, seq,
                         next(e for e in sim.edge_ids if e != edge))

    for corrupt in (pool_committed_row, pool_under_wrong_edge):
        with monkeypatch.context() as patch:
            _finalize_after(patch, corrupt)
            with pytest.raises(engine.SimulationInvariantError,
                               match=r"e\d+ pools tx \w+ against row \d+"):
                engine.run(small_config(sim__duration_s=60.0))


def test_uav_marked_dead_without_depletion_raises(monkeypatch):
    def kill_first_uav(sim):
        uav = sim.graph.uav_ids[0]
        sim.graph.remove_uav(uav)
        sim.death_times[uav] = sim.now

    _finalize_after(monkeypatch, kill_first_uav)
    with pytest.raises(engine.SimulationInvariantError,
                       match=r"u\d+ liveness disagrees with its energy account"):
        engine.run(small_config(sim__duration_s=60.0))


@pytest.mark.parametrize("dead", [False, True], ids=["alive", "dead"])
def test_a_uav_outside_the_area_raises(monkeypatch, dead):
    # The check reads the graph's positions, where a dead UAV keeps its last.
    def fly_out(sim):
        uav = sim.graph.uav_ids[-1]
        if dead:
            sim._charge_uav(uav, sim.accounts[uav].remaining + 1.0)
        _, y, z = sim.graph.positions[uav]
        sim.graph.move({uav: (-1.0, y, z)})

    _finalize_after(monkeypatch, fly_out)
    with pytest.raises(engine.SimulationInvariantError,
                       match=r"u\d+ left the area"):
        engine.run(small_config(sim__duration_s=60.0))


@pytest.mark.parametrize("table,column,value", [
    ("transactions", "energy_j", float("inf")),
    ("transactions", "submit_time_s", float("-inf")),
    ("rounds", "zeta", float("nan")),
    ("trust", "chi", float("nan")),   # ahead of the [0,1] invariant
    ("trust", "rho", float("nan")),
])
def test_a_non_finite_output_ends_the_run_before_anything_is_written(
        monkeypatch, table, column, value):
    def overflow_last_row(sim):
        setattr(getattr(sim.metrics, table)[-1], column, value)

    _finalize_after(monkeypatch, overflow_last_row)
    file = f"{table}.csv column {column}"
    with pytest.raises(ConfigError, match=f"overflow a float: {file} holds"):
        engine.run(small_config(sim__duration_s=60.0))


def test_sweep_aggregates_replications():
    cfg = small_config(sim__duration_s=60.0)
    rows = engine.sweep(cfg, "network.uav_count", [10, 20], replications=2)
    assert len(rows) == 2
    assert rows[0]["value"] == 10
    assert "tps_committed_mean" in rows[0]
    assert "tps_committed_std" in rows[0]
    with pytest.raises(ValueError):
        engine.sweep(cfg, "network.uav_count", [10], replications=0)


@pytest.mark.parametrize("axis, coupled", [
    ("sim.master_seed", ()), ("network.uav_count", ("sim.master_seed",))])
def test_sweep_refuses_to_sweep_the_master_seed(monkeypatch, axis, coupled):
    # Replication i runs master_seed + i, which would overwrite every value.
    jobs = []
    monkeypatch.setattr(engine, "_run_summary", jobs.append)
    with pytest.raises(ConfigError, match=r"^sim\.master_seed .* master_seed \+ i"):
        engine.sweep(small_config(), axis, [1, 2, 3], coupled=coupled)
    assert jobs == []


@pytest.mark.parametrize("field", ["chi", "xi"])
def test_trust_row_outside_the_unit_interval_raises(monkeypatch, field):
    def inflate_first_row(sim):
        setattr(sim.metrics.trust[0], field, 1.5)

    _finalize_after(monkeypatch, inflate_first_row)
    with pytest.raises(engine.SimulationInvariantError,
                       match=r"u\d+ trust row of window \d+ .* outside \[0,1\]"):
        engine.run(small_config(sim__duration_s=60.0))


def test_behavior_weights_past_one_within_tolerance_run_to_completion():
    # validate lets the weights sum to 1 within 1e-9, so a flawless UAV's mix
    # is 1.0000000005 here; behavior_score clamps it to 1.0.
    cfg = small_config(sim__duration_s=60.0, trust__weight_uptime=0.2000000005)
    cfg.validate()
    rows = engine.run(cfg).metrics.trust
    assert max(r.chi for r in rows) == 1.0
    assert all(0.0 <= r.chi <= 1.0 and 0.0 <= r.xi <= 1.0 for r in rows)


def test_trust_scores_are_the_live_scores_of_the_last_window():
    result = engine.run(small_config(sim__duration_s=60.0))
    assert list(result.trust_scores) == result.uav_ids
    last = {r.node: r.xi for r in result.metrics.trust if r.window_id == 6}
    assert result.trust_scores == last


def test_no_decided_round_reports_no_validation_success():
    cfg = small_config(sim__duration_s=5.0, network__uav_count=3,
                       workload__arrival_rate_tps=0.01)
    summary = engine.run(cfg).summary
    assert summary["rounds_committed"] + summary["rounds_aborted"] == 0
    assert summary["validation_success_pct"] is None


def test_sweep_averages_only_the_replications_that_report_a_number(monkeypatch):
    # Odd seeds decide no round; seed 2 reports 40.0 and seed 4 reports 80.0.
    def fake_summary(cfg):
        seed = cfg.sim.master_seed
        return {"validation_success_pct": None if seed % 2 else 20.0 * seed,
                "submitted": seed}

    monkeypatch.delenv("UAVCHAIN_WORKERS", raising=False)
    monkeypatch.setattr(engine, "_run_summary", fake_summary)
    cfg = small_config(sim__master_seed=1)
    mixed, silent = (engine.sweep(cfg, "network.uav_count", [10], replications=n)
                     for n in (4, 1))
    assert mixed[0]["validation_success_pct_mean"] == 60.0
    assert mixed[0]["validation_success_pct_std"] == pytest.approx(28.2842712)
    assert mixed[0]["submitted_mean"] == 2.5
    assert silent[0]["validation_success_pct_mean"] is None
    assert silent[0]["validation_success_pct_std"] is None
    assert list(silent[0]) == list(mixed[0])


def test_sweep_starts_no_more_workers_than_jobs(monkeypatch):
    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(engine, "_run_summary", lambda cfg: {"submitted": 1})
    monkeypatch.setenv("UAVCHAIN_WORKERS", "64")
    engine.sweep(small_config(), "network.uav_count", [10], replications=2)
    assert started == [2]


def test_importing_the_engine_starts_no_process_pool_machinery():
    # The pool is imported only by a sweep with more than one worker.
    code = "import sys, uavchain.engine; print('multiprocessing' in sys.modules)"
    src = str(Path(engine.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={"PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_tx_record_has_slots_and_deep_copies_equal():
    # All three CSV records: a run holds one per tx, round and trust row.
    for record in (TxRecord(seq=3, tx_id="ab", sender="u001", submit_time_s=1.5),
                   RoundRecord(window_id=2, time_s=4.0, committee="e00|e01",
                               proposer="e01", outcome="committed"),
                   TrustRecord(window_id=1, node="u001", chi=0.5, xi=0.25,
                               rho=0.75)):
        assert not hasattr(record, "__dict__")
        clone = copy.deepcopy(record)
        assert clone == record and clone is not record
