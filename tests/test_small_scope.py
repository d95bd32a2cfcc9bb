"""Small-scope schedule check: every registered protocol under every held set of at most 2 links.

At n = 4, t = 1 there are 12 directed links, so 79 held sets of at most two
(1 + 12 + 66).  Each set is held until 20.0 (= GST) by a
:class:`~repro.sim.HeldLinksDelayModel`; every other message is prompt.  Each
set runs against every registered protocol × {none, silent, equivocation,
crash} through ``execute_run`` — 1,580 runs, all inside the partial-synchrony
contract, each of which must decide, agree and satisfy validity.  Bounding
the adversary by the number of links it holds is delay-bounded scheduling
(Emmi, Qadeer, Rakamarić, POPL 2011).

Two links catch every known bug except the two ``none`` cells, which need
three; their shared witness ``0→1, 1→2, 2→0`` runs as its own case.

The 77 cases that fail, all by no decision, are marked ``xfail(strict=True)``:
Quad has no view synchronizer yet (ROADMAP item 1(b)), and Universal inherits
its liveness.  Strict means a fix turns them into failures that ask for the
marks to go, and a mark on a case that passes fails too; a marked case that
failed any other way (disagreement, an invalid decision, an error) fails.
"""

import itertools

import pytest

from repro.experiments import PROTOCOLS, execute_run, make_scenario
from repro.experiments.scenario import DELAY_MODELS
from repro.sim import HeldLinksDelayModel

N, T, SEED, RELEASE = 4, 1, 2023, 20.0
ADVERSARIES = ("none", "silent", "equivocation", "crash")
CORRECT = range(N - T)  # the adversary corrupts the last t indices
LINKS = [(sender, receiver) for sender in range(N) for receiver in range(N) if sender != receiver]
HELD_SETS = [frozenset(links) for size in range(3) for links in itertools.combinations(LINKS, size)]

LIVENESS = "no decision: Quad has no view synchronizer (ROADMAP 1(b))"


class NoDecision(Exception):
    """A run that stayed safe but in which some correct process never decided."""


def _between_correct(held):
    return any(sender in CORRECT and receiver in CORRECT for sender, receiver in held)


def _two_into_one_correct(held):
    receivers = {receiver for _, receiver in held}
    return len(held) == 2 and len(receivers) == 1 and receivers <= set(CORRECT)


# The cases that fail today, by (protocol, adversary): 57 + 9 + 9 + 2.
KNOWN_FAILURES = {
    ("universal-authenticated", "silent"): _between_correct,
    ("universal-authenticated", "equivocation"): _two_into_one_correct,
    ("universal-authenticated", "crash"): _two_into_one_correct,
    ("universal-compact", "crash"): {frozenset({(0, 1), (2, 1)}), frozenset({(0, 2), (1, 2)})}.__contains__,
}


def _fails_today(protocol, adversary, held):
    known = KNOWN_FAILURES.get((protocol, adversary))
    return known is not None and known(held)


def _label(held):
    return ",".join(f"{sender}>{receiver}" for sender, receiver in sorted(held)) or "{}"


def _cases():
    for protocol in sorted(PROTOCOLS):
        for adversary in ADVERSARIES:
            for held in HELD_SETS:
                marks = []
                if _fails_today(protocol, adversary, held):
                    marks.append(pytest.mark.xfail(strict=True, raises=NoDecision, reason=LIVENESS))
                label = f"{protocol}-{adversary}-{_label(held)}"
                yield pytest.param(protocol, adversary, held, marks=marks, id=label)
    for protocol in ("quad", "universal-authenticated"):
        held = frozenset({(0, 1), (1, 2), (2, 0)})
        yield pytest.param(protocol, "none", held, id=f"{protocol}-none-{_label(held)}")


def run_held(monkeypatch, protocol, adversary, held):
    monkeypatch.setitem(
        DELAY_MODELS, "held-links", lambda spec, seed: HeldLinksDelayModel(held, release=RELEASE, seed=seed)
    )
    spec = make_scenario(protocol, adversary=adversary, delay="held-links", n=N, t=T, name="held")
    return execute_run(spec, SEED)


def test_the_sweep_covers_79_held_sets_and_77_known_failures():
    assert len(LINKS) == 12 and len(HELD_SETS) == len(set(HELD_SETS)) == 79
    assert len(PROTOCOLS) == 5
    known = [
        (protocol, adversary, held)
        for protocol in PROTOCOLS
        for adversary in ADVERSARIES
        for held in HELD_SETS
        if _fails_today(protocol, adversary, held)
    ]
    assert len(known) == 77


@pytest.mark.parametrize("protocol, adversary, held", _cases())
def test_every_held_schedule_decides_agrees_and_is_valid(monkeypatch, protocol, adversary, held):
    result = run_held(monkeypatch, protocol, adversary, held)
    assert result.agreement, result.decisions
    assert result.error is None, result.error
    if not result.completed:
        raise NoDecision(result.violations)
    assert result.ok, result.violations
