"""The Theorem 4 and Lemma 2 reports, pinned exactly.

Both impossibility experiments are pre-GST schedules run through the
simulator, so any change to how a delay model draws or holds a message
shows up here as a moved message count or decision.  The figures are the
ones the experiments have always reported; a schedule refactor must leave
every one of them in place.  The Lemma 2 report carries decisions only, so
the simulation behind it is recorded and its message count and last
decision time are pinned as well: a change to the held-links draws that
leaves both sides' decisions alone still moves them.
"""

import pytest

from repro.analysis import partitioning, run_lower_bound_experiment, run_partitioning_attack
from repro.core import SystemConfig


def _theorem4(n, t, threshold, universal_messages):
    return {
        "n": n,
        "t": t,
        "threshold_(t/2)^2": threshold,
        "cheap_protocol_messages": n,
        "cheap_protocol_disagrees": True,
        "universal_messages": universal_messages,
        "universal_disagrees": False,
        "universal_above_threshold": True,
    }


@pytest.mark.parametrize(
    "n, seed, expected",
    [
        (4, 1, _theorem4(4, 1, 1, 402)),
        (7, 1, _theorem4(7, 2, 1, 1_895)),
        (10, 1, _theorem4(10, 3, 4, 3_356)),
        (13, 1, _theorem4(13, 4, 4, 3_939)),
        (16, 1, _theorem4(16, 5, 9, 5_209)),
        (7, 2, _theorem4(7, 2, 1, 2_376)),
    ],
)
def test_theorem4_summary_is_pinned(n, seed, expected):
    assert run_lower_bound_experiment(n=n, seed=seed).summary() == expected


def _cheap(n, leader_followers):
    return {pid: "L" if pid == 0 or pid in leader_followers else f"own-{pid}" for pid in range(n)}


@pytest.mark.parametrize(
    "n, expected",
    [
        (7, _cheap(7, ())),
        (10, _cheap(10, (8,))),
        (13, _cheap(13, (8, 9))),
    ],
)
def test_theorem4_cheap_decisions_are_pinned(n, expected):
    assert run_lower_bound_experiment(n=n).cheap_decisions == expected


@pytest.fixture
def recorded_simulations(monkeypatch):
    """Every ``Simulation`` that ``run_partitioning_attack`` builds, in order."""
    built = []

    class RecordedSimulation(partitioning.Simulation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(partitioning, "Simulation", RecordedSimulation)
    return built


@pytest.mark.parametrize(
    "kwargs, groups, decisions_a, decisions_c, violated, messages, latency",
    [
        (
            dict(t=2),
            ((0, 1), (2, 3), (4, 5)),
            {0: 0, 1: 0},
            {2: 1, 3: 1},
            True,
            140,
            20.827673980012865,
        ),
        (
            dict(t=2, system=SystemConfig(7, 2)),
            ((0, 1), (2, 3, 4), (5, 6)),
            {0: 1, 1: 1},
            {2: 1, 3: 1, 4: 1},
            False,
            149,
            400.58409343613283,
        ),
        (dict(t=1, seed=2), ((0,), (1,), (2,)), {0: 0}, {1: 1}, True, 51, 13.072596954014001),
        (
            dict(t=2, system=SystemConfig(7, 2), seed=2),
            ((0, 1), (2, 3, 4), (5, 6)),
            {0: 1, 1: 1},
            {2: 1, 3: 1, 4: 1},
            False,
            142,
            400.28943104482613,
        ),
    ],
    ids=["n=6", "n=7", "n=3-seed2", "n=7-seed2"],
)
def test_lemma2_report_is_pinned(
    recorded_simulations, kwargs, groups, decisions_a, decisions_c, violated, messages, latency
):
    report = run_partitioning_attack(**kwargs)
    (simulation,) = recorded_simulations
    assert simulation.metrics.total_messages == messages
    assert simulation.metrics.decision_latency() == latency
    assert (report.group_a, report.group_c, report.byzantine_group) == groups
    assert report.decisions_a == decisions_a
    assert report.decisions_c == decisions_c
    system = kwargs.get("system") or SystemConfig.without_byzantine_resilience(kwargs["t"])
    assert report.summary() == {
        "n": system.n,
        "t": system.t,
        "group_a_decisions": sorted({str(value) for value in decisions_a.values()}),
        "group_c_decisions": sorted({str(value) for value in decisions_c.values()}),
        "agreement_violated": violated,
        "all_correct_decided": True,
    }
