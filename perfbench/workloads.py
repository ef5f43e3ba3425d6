"""The benchmark's named workloads: scenario overrides on the built-in defaults.

Arrivals inside the simulation are open-loop Poisson at the stated
network-wide rate; on the host each repetition is one closed-loop process
that runs the scenario start to finish. Each repetition's scenario seed
(``run.scenario_seeds``) becomes the scenario's ``sim.master_seed``, so the
same seed gives byte-identical inputs and outputs.

Durations are short enough for two or three repetitions of each of four
scenarios in one benchmark run, and long enough to commit hundreds to
thousands of transactions.
"""

DEFAULT_SEED = 1

WORKLOADS = {
    # The per-transaction path: sign and verify, tx encoding and id,
    # admission, greedy packing plus zlib, CSV rows. Mobility is light.
    "saturated": {
        "sim.duration_s": 30.0,
        "workload.arrival_rate_tps": 600.0,
        "workload.compromised_fraction": 0.0,
    },
    # Gauss-Markov steps, nearest-edge scans, contention counts and trust
    # windows over 1000 UAVs; crypto and ledger stay nearly idle.
    "swarm": {
        "sim.duration_s": 120.0,
        "network.uav_count": 1000,
        "workload.arrival_rate_tps": 6.0,
        "workload.compromised_fraction": 0.0,
    },
    # Forged signatures fail verify, replays are rejected as duplicates,
    # back-dated transactions expire, and vote-reject edges abort rounds so
    # pools stay deep and are re-packed and re-compressed.
    "hostile": {
        "sim.duration_s": 120.0,
        "workload.arrival_rate_tps": 100.0,
        "workload.compromised_fraction": 0.30,
        "workload.malicious_edge_fraction": 0.40,
    },
}
