"""Deterministic discrete-event simulation core.

Binds mobility, workload, admission, trust and consensus into one
single-threaded event loop. All randomness flows from per-subsystem streams
derived from the master seed by labeled hashing, so the full output is a
pure function of (config, seed) and changing one axis does not perturb the
other subsystems' draws.

Cadence: transaction admission is continuous; consensus rounds run every
block interval; trust updates, UAV-to-edge reassignment and committee
resampling happen every consensus window.
"""

from __future__ import annotations

import copy
import hashlib
import heapq
import logging
import math
import os
from collections import deque
from dataclasses import dataclass
from random import Random
from statistics import mean, stdev
from typing import Optional

from . import consensus, ledger, left_sum, netsim, trust, workload
from .config import EVENT_SLACK_S, ConfigError, ScenarioConfig, apply_override
from .crypto import get_provider
from .ledger import LedgerSegment, Transaction, genesis_metadata
from .metrics import (MetricsCollector, RoundRecord, TrustRecord, TxRecord,
                      trust_deciles)
from .netsim import CommGraph, EnergyAccount, UavState

log = logging.getLogger(__name__)

# Event priorities at equal timestamps: move first, then the window
# bookkeeping, then the consensus round, then message traffic.
_PRIO_MOBILITY = 0
_PRIO_WINDOW = 1
_PRIO_ROUND = 2
_PRIO_SUBMIT = 3
_PRIO_RECV = 4


class SimulationInvariantError(RuntimeError):
    """An internal consistency check failed; the run output is not trustworthy."""


def stream_seed(master_seed: int, label: str) -> int:
    digest = hashlib.sha256(f"uavchain:{master_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def make_stream(master_seed: int, label: str) -> Random:
    return Random(stream_seed(master_seed, label))


@dataclass
class _WindowStats:
    """A UAV's counters for the current consensus window. Each window update
    zeroes them in place, so nothing holds one across a window boundary."""

    submitted: int = 0
    accepted: int = 0
    timely: int = 0


class Simulation:
    """One run of a validated config: the loaders (``load_config``, the
    CLI) and ``sweep`` validate, so the simulation does not check again."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        seed = config.sim.master_seed
        self.rng_mobility = make_stream(seed, "mobility")
        self.rng_workload = make_stream(seed, "workload")
        self.rng_committee = make_stream(seed, "committee")
        self.rng_network = make_stream(seed, "network")
        self.rng_adversary = make_stream(seed, "adversary")
        self.rng_placement = make_stream(seed, "placement")

        self.provider = get_provider(config.crypto.scheme)
        self.metrics = MetricsCollector()
        self.now = 0.0
        self._event_seq = 0
        self._events: list = []

        self._setup_nodes()
        self._setup_protocol_state()

    # --- construction -----------------------------------------------------

    def _setup_nodes(self) -> None:
        cfg = self.config
        side = cfg.area_side_m()
        self.uav_ids = [f"u{i:03d}" for i in range(cfg.network.uav_count)]
        self.edge_ids = [f"e{i:02d}" for i in range(cfg.network.edge_count)]

        # Edge stations sit on a jittered grid: planned deployments space
        # their sites roughly evenly, and near-equal cells keep coverage and
        # proposal opportunity from concentrating on a few stations.
        cols = math.ceil(math.sqrt(len(self.edge_ids)))
        rows = math.ceil(len(self.edge_ids) / cols)
        cell_w, cell_h = side / cols, side / rows
        sites = {}
        for index, edge in enumerate(self.edge_ids):
            cx = (index % cols + 0.5) * cell_w
            cy = (index // cols + 0.5) * cell_h
            sites[edge] = (cx + self.rng_placement.uniform(-0.2, 0.2) * cell_w,
                           cy + self.rng_placement.uniform(-0.2, 0.2) * cell_h, 0.0)

        draw = self.rng_mobility.uniform
        starts = {}
        self.uav_states: dict[str, UavState] = {}
        for uav in self.uav_ids:   # draw order pinned by the digests
            starts[uav] = (draw(0.0, side), draw(0.0, side),
                           draw(cfg.mobility.alt_min_m, cfg.mobility.alt_max_m))
            heading = draw(-math.pi, math.pi)
            self.uav_states[uav] = UavState(uav, cfg.mobility.mean_speed_mps,
                                            heading, heading)
        # graph.uav_ids holds the alive UAVs; _charge_uav removes each death.
        self.graph = CommGraph(cfg.network, sites, starts)

        # Keys are provisioned at scenario start for every node.
        self.keys = {}
        self.registry: dict[str, bytes] = {}
        for node in self.uav_ids + self.edge_ids + ["base"]:
            pair = self.provider.keygen(
                stream_seed(cfg.sim.master_seed, f"key:{node}"))
            self.keys[node] = pair
            self.registry[node] = pair.public_key

        self.accounts = {uav: EnergyAccount(cfg.energy.uav_budget_j)
                         for uav in self.uav_ids}

    def _setup_protocol_state(self) -> None:
        cfg = self.config
        seed = cfg.sim.master_seed
        self.segments = {edge: LedgerSegment(owner=edge,
                                             genesis=genesis_metadata(seed))
                         for edge in self.edge_ids}
        self.pools = {edge: consensus.ValidationPool(owner=edge)
                      for edge in self.edge_ids}
        self.trust_scores = dict.fromkeys(self.uav_ids, cfg.trust.initial_score)
        self.uav_behaviors, self.malicious_edges = workload.assign_adversaries(
            self.uav_ids, self.edge_ids, cfg.workload, cfg.behavior_list(),
            self.rng_adversary)

        self.window_stats = {uav: _WindowStats() for uav in self.uav_ids}
        self.death_times: dict[str, float] = {}
        self.sessions: set[tuple[str, str]] = set()
        self.committed_recent: deque[Transaction] = deque(maxlen=1000)
        self.edge_weights: dict[str, float] = {}
        self.committee: list[str] = []
        self._window_update(0)

    # --- event plumbing -----------------------------------------------------

    def _schedule(self, time: float, prio: int, handler, *args) -> None:
        """Queue `handler(*args)` at `time`; `prio` breaks timestamp ties."""
        if time < self.now:
            raise SimulationInvariantError("event scheduled in the past")
        self._event_seq += 1
        heapq.heappush(self._events, (time, prio, self._event_seq, handler, args))

    def run(self) -> Simulation:
        """Run to `sim.duration_s`, check the invariants and return self."""
        cfg = self.config
        duration = cfg.sim.duration_s
        # Each periodic handler queues its own next run. Window 0 ran at setup.
        self._schedule(cfg.sim.mobility_step_s, _PRIO_MOBILITY,
                       self._handle_mobility)
        self._schedule(cfg.consensus.window_s, _PRIO_WINDOW,
                       self._window_update, 1)
        self._schedule(cfg.consensus.block_interval_s, _PRIO_ROUND,
                       self._handle_round, 1)
        if duration > 0:
            self._schedule(workload.next_arrival(
                cfg.workload.arrival_rate_tps, self.rng_workload),
                _PRIO_SUBMIT, self._handle_submit)

        while self._events:
            time, _, _, handler, args = heapq.heappop(self._events)
            if time > duration + EVENT_SLACK_S:
                break
            self.now = time   # _schedule queues nothing before now
            handler(*args)

        self.now = duration
        self._finalize()
        return self

    # --- handlers -----------------------------------------------------------

    def _handle_mobility(self) -> None:
        self._schedule(self.now + self.config.sim.mobility_step_s,
                       _PRIO_MOBILITY, self._handle_mobility)
        graph = self.graph
        graph.move(netsim.step_mobility(
            map(self.uav_states.__getitem__, graph.uav_ids), graph.positions,
            self.config.sim.mobility_step_s, self.config.mobility,
            self.config.area_side_m(), self.rng_mobility))

    def _charge_uav(self, uav: str, amount: float) -> bool:
        account = self.accounts[uav]
        ok = account.try_charge(amount)
        if account.depleted and uav not in self.death_times:
            self.death_times[uav] = self.now
            self.graph.remove_uav(uav)
            if not self.graph.uav_ids:
                log.warning("every UAV is out of energy at t=%.1f s", self.now)
        return ok

    def _ensure_session(self, uav: str, edge: str) -> bool:
        """Establish the KEM session key on first contact of a pair."""
        if (uav, edge) in self.sessions:
            return True
        costs = self.config.crypto
        if not self._charge_uav(uav, costs.encaps_j):
            return False
        # Each session's encapsulation seed is its 1-based ordinal.
        ciphertext, _ = self.provider.encaps(self.registry[edge],
                                             len(self.sessions) + 1)
        self.provider.decaps(self.keys[edge].private_key, ciphertext)
        self.metrics.infra_energy_j += costs.decaps_j
        self.sessions.add((uav, edge))
        return True

    def _handle_submit(self) -> None:
        cfg = self.config
        self._schedule(self.now + workload.next_arrival(
            cfg.workload.arrival_rate_tps, self.rng_workload),
            _PRIO_SUBMIT, self._handle_submit)
        if not self.graph.uav_ids:
            return
        uavs = self.graph.uav_ids
        uav = uavs[workload.randbelow(self.rng_workload, len(uavs))]
        payload = workload.make_payload(cfg.workload, self.rng_workload)
        behavior = self.uav_behaviors.get(uav)
        costs = cfg.crypto

        sign_spend = 0.0
        if behavior is workload.Behavior.REPLAY and self.committed_recent:
            tx = self.committed_recent[workload.randbelow(
                self.rng_adversary, len(self.committed_recent))]
        else:
            submit_time = self.now
            if behavior is workload.Behavior.DELAY_INJECTION:
                submit_time -= workload.BACKDATE_TAUS * cfg.consensus.tau_max_s
            tx = Transaction(sender=uav, payload=payload,
                             submit_time=submit_time, signature=b"")
            if behavior is workload.Behavior.FORGE_SIGNATURE:
                tx.signature = self.rng_adversary.randbytes(
                    self.provider.signature_len)
            else:
                tx.signature = self.provider.sign(self.keys[uav].private_key,
                                                  tx.id)
            if not self._charge_uav(uav, costs.sign_j):
                return
            sign_spend = costs.sign_j

        seq = len(self.metrics.transactions)
        record = TxRecord(seq=seq, tx_id=tx.id.hex(), sender=tx.sender,
                          submit_time_s=tx.submit_time)
        self.metrics.transactions.append(record)

        edge, distance = self.graph.nearest_edge(uav)
        reason = "no-link"
        if distance <= cfg.network.range_m:
            record.edge = edge
            reason = "energy-exhausted"
            spend = cfg.energy.tx_energy(distance)
            if self._ensure_session(uav, edge) and self._charge_uav(uav, spend):
                record.energy_j += sign_spend + spend
                # A transmit charge that drains the sender to exactly 0 J is
                # paid, but the sender is dead: it has no link to send on.
                if uav not in self.death_times:
                    delay = netsim.deliver(tx.wire_size(), distance,
                                           cfg.network.bandwidth_bps, edge,
                                           self.graph, self.rng_network)
                    self._schedule(self.now + delay, _PRIO_RECV,
                                   self._handle_recv, tx, edge, seq, uav)
                    return
                reason = "no-link"
        record.status = "dropped"
        record.reject_reason = reason
        # Behavior stats count at resolution (drop here or later arrival), so
        # a window never sees an attempt whose outcome lands in the next one.
        self.window_stats[uav].submitted += 1

    def _handle_recv(self, tx: Transaction, edge: str, seq: int, emitter: str) -> None:
        cfg = self.config
        record = self.metrics.transactions[seq]
        record.recv_time_s = self.now
        record.latency_s = self.now - tx.submit_time
        record.timely = int(record.latency_s < cfg.consensus.tau_max_s)
        stats = self.window_stats[emitter]
        stats.submitted += 1
        stats.timely += record.timely

        self.metrics.infra_energy_j += cfg.crypto.verify_j
        reason = consensus.admit_transaction(
            self.pools[edge], tx, seq, self.registry, self.provider,
            self.segments[edge].committed_ids,
            (cfg.workload.payload_min_bytes, cfg.workload.payload_max_bytes))
        if reason is None:
            record.energy_j += cfg.crypto.verify_j
            stats.accepted += 1
        else:
            record.status = "rejected"
            record.reject_reason = reason.value

    def _expire_pool_txs(self) -> None:
        tau = self.config.consensus.tau_max_s
        for pool in self.pools.values():
            stale = [tx_id for tx_id, (tx, _) in pool.admitted.items()
                     if self.now - tx.submit_time > tau]
            for tx_id in stale:
                _, seq = pool.admitted.pop(tx_id)
                self.metrics.transactions[seq].status = "expired"

    def _handle_round(self, round_index: int) -> None:
        cfg = self.config
        self._schedule((round_index + 1) * cfg.consensus.block_interval_s,
                       _PRIO_ROUND, self._handle_round, round_index + 1)
        self._expire_pool_txs()
        committee = self.committee
        proposer = consensus.sample_proposer(committee, self.edge_weights,
                                             self.rng_committee)
        record = RoundRecord(window_id=int(self.now // cfg.consensus.window_s),
                             time_s=self.now, committee="|".join(committee),
                             proposer=proposer)
        self.metrics.rounds.append(record)

        pool, segment = self.pools[proposer], self.segments[proposer]
        block = consensus.assemble_block(pool, cfg.consensus, cfg.ledger,
                                         self.now, segment.head(), proposer)
        if block is None:
            return
        costs = cfg.crypto
        members = [m for m in committee if m != proposer]
        distances = [self.graph.distance(proposer, m) for m in members]
        eta = record.eta = len(block.transactions)
        record.zeta = consensus.freshness(block.transactions, self.now,
                                          cfg.consensus.tau_max_s)
        record.theta_j = netsim.round_energy(
            cfg.energy, distances, [eta * costs.verify_j] * len(members))
        block.utility = record.utility = consensus.utility_score(
            cfg.consensus, eta, record.zeta, record.theta_j)
        record.raw_size = block.raw_size
        record.compressed_size = block.compressed_size
        record.omega = ledger.compression_ratio(block.raw_size,
                                                block.compressed_size)

        # Honest members all check the same block against the same head, so
        # one check stands for each of their votes; the proposer approves its
        # own block and malicious edges say no.
        valid = not ledger.check_block(block, segment.head(), self.registry,
                                       self.provider, cfg.consensus.max_block_bytes,
                                       segment.committed_ids)
        approvals = record.approvals = valid * (
            1 + sum(m not in self.malicious_edges for m in members))
        outcome = consensus.run_round(approvals, len(committee))

        slowest = self.now
        backhaul = cfg.network.backhaul_bps
        for member, distance in zip(members, distances):
            down = netsim.deliver(block.compressed_size, distance, backhaul,
                                  member, self.graph, self.rng_network)
            up = netsim.deliver(cfg.network.vote_size_bytes, distance, backhaul,
                                proposer, self.graph, self.rng_network)
            slowest = max(slowest, self.now + down + eta * costs.verify_s + up)
        record.delta_cons_s = slowest - self.now
        # The mains-powered infrastructure tier pays the round energy.
        self.metrics.infra_energy_j += left_sum(cfg.energy.tx_energy(d)
                                                for d in distances)
        for _ in members:
            self.metrics.infra_energy_j += eta * costs.verify_j

        record.outcome = outcome.value
        if outcome is not consensus.RoundOutcome.COMMITTED:
            return

        segment.append_block(block)
        share = record.theta_j / eta
        for tx in block.transactions:
            _, seq = pool.admitted.pop(tx.id)
            row = self.metrics.transactions[seq]
            row.status = "committed"
            row.energy_j += share
            self.committed_recent.append(tx)
        self.metrics.replication_bytes += block.compressed_size * cfg.ledger.replication

    def _uptime_fraction(self, uav: str, window_start: float) -> float:
        died = self.death_times.get(uav)
        if died is None:
            return 1.0
        span = self.now - window_start
        if span <= 0:
            return 0.0
        return min(1.0, max(0.0, (died - window_start) / span))

    def _window_update(self, window_index: int) -> None:
        cfg = self.config
        scores = self.trust_scores
        if window_index > 0:
            self._schedule((window_index + 1) * cfg.consensus.window_s,
                           _PRIO_WINDOW, self._window_update, window_index + 1)
            window_start = self.now - cfg.consensus.window_s
            chis = []
            for uav, stats in self.window_stats.items():
                chi = trust.behavior_score(
                    stats.submitted, stats.accepted, stats.timely,
                    self._uptime_fraction(uav, window_start), cfg.trust)
                chis.append(chi)
                scores[uav] = trust.update_trust(scores[uav], chi, cfg.trust)
                stats.submitted = stats.accepted = stats.timely = 0
            ranks = trust.trust_rank(scores)
            self.metrics.trust.extend(
                TrustRecord(window_index, uav, chi, scores[uav], ranks[uav])
                for uav, chi in zip(self.window_stats, chis))

        assignment: dict[str, list[str]] = {edge: [] for edge in self.edge_ids}
        nearest_edge = self.graph.nearest_edge
        for uav in self.graph.uav_ids:
            assignment[nearest_edge(uav)[0]].append(uav)
        self.edge_weights = trust.edge_committee_weights(assignment, scores)
        self.committee = consensus.sample_committee(
            self.edge_weights, cfg.consensus.committee_size, self.rng_committee)

    # --- completion ---------------------------------------------------------

    def _finalize(self) -> None:
        _, top_share = trust_deciles(self.trust_scores,
                                     self.metrics.transactions)[0]
        self.summary = self.metrics.summary(
            duration_s=self.config.sim.duration_s,
            uav_energy_spent_j=left_sum(a.initial - a.remaining
                                        for a in self.accounts.values()),
            top_decile_share=top_share)
        # validate cannot foresee every product of large values; a run whose
        # outputs overflow a float ends here, before anything is written.
        where = self.metrics.first_non_finite(self.summary)
        if where is not None:
            raise ConfigError(f"the scenario's values overflow a float: {where}")
        self._check_invariants()

    def _check_invariants(self) -> None:
        rows = self.metrics.transactions
        arrived = [r for r in rows if r.recv_time_s is not None]
        # A row still in flight is pending too, but has no recv time.
        waiting = sum(1 for r in arrived if r.status == "pending")
        pooled = sum(len(pool.admitted) for pool in self.pools.values())
        if waiting != pooled:
            raise SimulationInvariantError(
                f"transaction accounting mismatch: {waiting} pending rows "
                f"arrived, {pooled} pooled")
        for pool in self.pools.values():
            for tx_id, (_, seq) in pool.admitted.items():
                row = rows[seq]
                if (row.status != "pending" or row.recv_time_s is None
                        or row.edge != pool.owner or row.tx_id != tx_id.hex()):
                    raise SimulationInvariantError(
                        f"{pool.owner} pools tx {tx_id.hex()[:16]} against "
                        f"row {seq}, a {row.status} row of edge {row.edge}")
        budget = self.config.energy.uav_budget_j
        alive = set(self.graph.uav_ids)
        for uav, account in self.accounts.items():
            dead = (uav in self.death_times, uav not in alive)
            if (set(dead) != {account.depleted}
                    or not 0.0 <= account.remaining <= budget):
                raise SimulationInvariantError(
                    f"{uav} liveness disagrees with its energy account: "
                    f"{account.remaining} J of {budget} J left, dead in "
                    f"{sum(dead)} of 2 liveness records")
        costs = self.config.crypto
        attributed = (left_sum(r.theta_j for r in self.metrics.rounds)
                      + costs.verify_j * len(arrived)
                      + costs.decaps_j * len(self.sessions))
        if not math.isclose(self.metrics.infra_energy_j, attributed):
            raise SimulationInvariantError(
                f"infrastructure energy {self.metrics.infra_energy_j} J does "
                f"not match its attribution {attributed} J")
        for row in self.metrics.trust:
            if not (0.0 <= row.chi <= 1.0 and 0.0 <= row.xi <= 1.0):
                raise SimulationInvariantError(
                    f"{row.node} trust row of window {row.window_id} has chi "
                    f"{row.chi}, xi {row.xi} outside [0,1]")
        side = self.config.area_side_m()
        for uav in self.uav_ids:   # a dead UAV keeps its last point
            x, y, _ = self.graph.positions[uav]
            if not (0.0 <= x <= side and 0.0 <= y <= side):
                raise SimulationInvariantError(f"{uav} left the area")
        for edge in self.edge_ids:
            findings = ledger.verify_segment(
                self.segments[edge], self.registry, self.provider,
                self.config.consensus.max_block_bytes)
            if findings:
                raise SimulationInvariantError(
                    f"ledger audit failed: {findings[0]}")


def run(config: ScenarioConfig, seed: Optional[int] = None) -> Simulation:
    """Run one validated scenario and return the finished simulation;
    `seed` overrides the config's master seed."""
    config = copy.deepcopy(config)
    if seed is not None:
        config.sim.master_seed = seed
    return Simulation(config).run()


def _run_summary(config: ScenarioConfig) -> dict:
    return Simulation(config).run().summary


def sweep(base_config: ScenarioConfig, axis: str, values: list,
          replications: int = 1, coupled: tuple[str, ...] = ()) -> list[dict]:
    """Replicated parameter sweep; replication i uses master_seed + i, so
    `sim.master_seed` may be neither the axis nor a `coupled` key.

    Each `coupled` key is set to the swept value too. Returns one row per
    axis value with mean/std aggregates of every summary metric, taken over
    the replications that report a number (None when none does).
    Aggregation order is deterministic regardless of worker count, which
    is the integer in the UAVCHAIN_WORKERS environment variable (1 if unset).
    """
    if replications < 1:
        raise ConfigError("replications must be >= 1")
    if "sim.master_seed" in (axis, *coupled):
        raise ConfigError("sim.master_seed cannot be swept: replication i "
                          "uses master_seed + i; --seed sets the base seed")
    raw_workers = os.environ.get("UAVCHAIN_WORKERS", "1")
    try:
        workers = int(raw_workers)
    except ValueError:
        raise ConfigError(f"UAVCHAIN_WORKERS: {raw_workers!r} is not an "
                          "integer") from None
    jobs: list[ScenarioConfig] = []
    for value in values:
        for rep in range(replications):
            cfg = copy.deepcopy(base_config)
            for key in (axis, *coupled):
                apply_override(cfg, key, value)
            cfg.sim.master_seed = base_config.sim.master_seed + rep
            cfg.validate()
            jobs.append(cfg)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        # With fork, the pool starts all its workers at once; cap them.
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            summaries = list(pool.map(_run_summary, jobs))
    else:
        summaries = [_run_summary(cfg) for cfg in jobs]

    rows = []
    for i, value in enumerate(values):
        group = summaries[i * replications:(i + 1) * replications]
        row: dict = {"axis": axis, "value": value, "replications": replications}
        for key in group[0]:
            samples = [s[key] for s in group if s[key] is not None]
            row[f"{key}_mean"] = mean(samples) if samples else None
            row[f"{key}_std"] = (stdev(samples) if len(samples) > 1
                                 else 0.0 if samples else None)
        rows.append(row)
    return rows

