"""Cross-version determinism guard: every entry of ``golden.json``.

Criterion 11 compares two runs of one build; these tests compare each pinned
run with digests recorded by an earlier version and name the files and
random streams that moved. An intentional output change re-records the table
with ``python -S tests/record_golden.py`` and says why. In ``drain`` all 40
UAVs die mid-run; in ``zero`` a UAV's sign charge drains it to exactly 0 J,
so its next charge fails; in ``zero2`` the transmit charge does, and the
upload is dropped for want of a link.
"""

import builtins
import collections

import pytest

import golden
from uavchain import engine

TABLE = golden.load()


@pytest.mark.parametrize("name", sorted(TABLE))
def test_outputs_match_golden_digests(tmp_path, monkeypatch, name):
    # A figure's sweep runs serially here; test_cli checks a pool of workers.
    monkeypatch.delenv("UAVCHAIN_WORKERS", raising=False)
    problem = golden.check(name, TABLE[name], tmp_path)
    assert not problem, problem


def neumaier_sum(values, start=0):
    """``sum()`` as CPython 3.12 and later compute it: compensated over
    floats, exact over everything else."""
    total, compensation, floats = start, 0.0, False
    for value in values:
        if not isinstance(value, float):
            total += value
            continue
        floats = True
        partial = total + value
        if abs(total) >= abs(value):
            compensation += (total - partial) + value
        else:
            compensation += (value - partial) + total
        total = partial
    return total + compensation if floats else total


def test_outputs_do_not_depend_on_how_builtin_sum_adds_floats(tmp_path,
                                                              monkeypatch):
    # Outputs must match on every supported CPython: a float sum taken with
    # the builtin sum() would follow 3.12's compensated summation there.
    monkeypatch.setattr(builtins, "sum", neumaier_sum)
    problems = [golden.check(name, entry, tmp_path / name)
                for name, entry in TABLE.items() if "figure" not in entry]
    assert not any(problems), "; ".join(filter(None, problems))


def test_a_stream_fingerprint_names_a_draw_that_no_file_shows(tmp_path,
                                                             monkeypatch):
    finalize = engine.Simulation._finalize

    def draw_first(sim):
        sim.rng_committee.random()
        finalize(sim)

    monkeypatch.setattr(engine.Simulation, "_finalize", draw_first)
    assert (golden.check("1", TABLE["1"], tmp_path)
            == "1 moved: committee stream")


def test_the_report_names_exactly_a_hand_edited_file_digest(tmp_path):
    entry = TABLE["zero"]
    edited = {**entry, "files": {**entry["files"], "rounds.csv": "0" * 64}}
    assert golden.check("zero", edited, tmp_path) == "zero moved: rounds.csv"


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_no_tx_id_commits_in_two_segments():
    # A replay that reaches another edge commits there again.
    sim = golden.simulate(TABLE["1"])
    commits = collections.Counter(tx_id for segment in sim.segments.values()
                                  for tx_id in segment.committed_ids)
    assert [tx_id.hex() for tx_id, n in commits.items() if n > 1] == []
