"""The production event loop against the naive reference loop.

``reference_simulation.py`` keeps the obvious simulator: one
``delivery_time`` call and one ``record_message`` call per receiver, every
message queued (non-listeners included) and delivered through
``Process.deliver_message``, and a full scan for "every correct process
decided" after every event.  Hypothesis draws a protocol, an adversary, a
delay model, ``n`` in 4..10 with ``n > 3t``, a seed and a GST, runs the
scenario through ``execute_run`` once on each loop, and requires the same
result, the same metrics and the same events: production's
``events_processed`` is the reference's event count less its deliveries to
processes that never listen.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_simulation import ReferenceSimulation
from repro.experiments import execute
from repro.experiments.scenario import ADVERSARIES, DELAY_MODELS, PROTOCOLS, make_scenario
from repro.sim.simulation import Simulation

# Where each delay model reads its GST (or the time it plays that role).
GST_PARAM = {
    "eventual": "gst",
    "jittered": "gst",
    "partition": "release_time",
    "stalled": "stall_until",
    "synchronous": None,
}


def _execute(spec, seed, simulation_class):
    made = []

    class Recorded(simulation_class):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(execute, "Simulation", Recorded)
        result = execute.execute_run(spec, seed)
    (simulation,) = made
    return result, simulation


@st.composite
def scenarios(draw):
    protocol = draw(st.sampled_from(sorted(PROTOCOLS)))
    adversaries = sorted(key for key in ADVERSARIES if key != "splitbrain" or protocol == "quad")
    adversary = draw(st.sampled_from(adversaries))
    delay = draw(st.sampled_from(sorted(DELAY_MODELS)))
    n = draw(st.integers(4, 10))
    t = draw(st.integers(1, (n - 1) // 3))
    gst = draw(st.sampled_from((0.0, 1.5, 4.0, 9.0)))
    params = {GST_PARAM[delay]: gst} if GST_PARAM[delay] else None
    spec = make_scenario(protocol, adversary, delay, n=n, t=t, params=params, max_events=200_000)
    return spec, draw(st.integers(0, 2**16))


@given(scenarios())
@settings(max_examples=120, deadline=None)
def test_production_loop_matches_the_reference(drawn):
    spec, seed = drawn
    assert set(GST_PARAM) == set(DELAY_MODELS)
    result, simulation = _execute(spec, seed, Simulation)
    expected, reference = _execute(spec, seed, ReferenceSimulation)
    assert result.canonical_json() == expected.canonical_json()
    assert simulation.metrics == reference.metrics
    assert simulation.events_processed == reference.reference_events - reference.unheard_deliveries
