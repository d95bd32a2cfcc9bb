"""The paper's checkable claims, one test or class per theorem or algorithm.

Civit et al., *On the Validity of Consensus* (PODC 2023): Figure 1's
landscape, Theorem 1 (``n <= 3t`` makes solvable = trivial), Theorem 3
(``C_S``), Theorem 4 (the Omega(t^2) lower bound), Theorem 5 (Universal's
O(n^2) messages), Algorithm 3 (non-authenticated vector consensus),
Algorithm 6 (sub-cubic communication), Section 5.2 (every variant from
vector consensus, and backend latency), Appendix C (External Validity),
and the adversarial corners of the partially synchronous model.

Every sweep seeds from :data:`repro.experiments.DEFAULT_SEED` /
:func:`~repro.experiments.sweep_seeds`, the same path
``python -m repro.experiments run`` uses, so each number here is the one
the CLI measures for the same scenario.
"""

from repro.analysis import (
    figure1_report,
    fit_growth_exponent,
    run_lower_bound_experiment,
    run_partitioning_attack,
)
from repro.consensus import universal_process_factory
from repro.core import (
    ConvexHullValidity,
    CorrectProposalValidity,
    InputConfiguration,
    StrongValidity,
    SystemConfig,
    UniversalSpec,
    ValidityProperty,
    WeakValidity,
    check_similarity_condition,
    classify,
    count_validity_properties,
    enumerated_property,
)
from repro.core.extended import (
    ClientWallet,
    ExtendedInputConfiguration,
    TransactionVerifier,
    batch_decision_rule,
    external_validity_property,
)
from repro.experiments import (
    DEFAULT_SEED,
    Runner,
    aggregate,
    make_scenario,
    sweep_seeds,
)
from repro.sim import Simulation, SynchronousDelayModel, silent_factory


def _run_all_ok(scenarios, seeds=(DEFAULT_SEED,)):
    results = Runner().run(scenarios, seeds=seeds)
    assert all(result.ok for result in results), [
        (result.scenario, result.error, result.violations) for result in results if not result.ok
    ]
    return results


# ----------------------------------------------------------------------
# Figure 1: trivial ⊂ solvable ⊂ all; n <= 3t collapses solvable to trivial
# ----------------------------------------------------------------------
class TestFigure1Classification:
    def test_named_and_sampled_properties_at_high_resilience(self):
        report = figure1_report(SystemConfig(4, 1), (0, 1), 40, 1)
        rows = {row["property"]: row for row in report.named_rows()}
        # Figure 1 containments hold on the sampled population.
        assert report.sampled.consistent_with_figure_1(SystemConfig(4, 1))
        # Named properties land where the literature says they do.
        assert rows["strong"]["solvable"] and not rows["strong"]["trivial"]
        assert rows["weak"]["solvable"]
        assert rows["free"]["trivial"] and rows["free"]["solvable"]
        assert rows["constant"]["trivial"]

    def test_low_resilience_collapses_to_trivial(self):
        report = figure1_report(SystemConfig(3, 1), (0, 1), 40, 2)
        assert report.sampled.consistent_with_figure_1(SystemConfig(3, 1))
        # With n <= 3t the solvable-non-trivial region of Figure 1 is empty.
        assert report.sampled.solvable_non_trivial == 0
        for row in report.named_rows():
            if row["solvable"]:
                assert row["trivial"], row

    def test_theorem1_over_every_property_of_the_smallest_system(self):
        # (2, 1) over {0, 1}: |I| = 8, so 3^8 properties.  A value admissible
        # everywhere leaves 2 choices per configuration: 2^8 for each of the two
        # values, minus the one property admitting both everywhere.
        system, domain = SystemConfig(2, 1), [0, 1]
        total = count_validity_properties(system, 2, 2)
        assert total == 6_561
        solvable = trivial = 0
        for index in range(total):
            verdict = classify(enumerated_property(system, domain, domain, index), system, domain)
            assert verdict.trivial or not verdict.solvable, verdict.property_name
            solvable += verdict.solvable
            trivial += verdict.trivial
        assert solvable == trivial == 2 * 2**8 - 1


# ----------------------------------------------------------------------
# Theorem 1: with n <= 3t the split-brain adversary breaks Agreement
# ----------------------------------------------------------------------
def test_theorem1_split_brain_succeeds_at_n_equal_3t():
    report = run_partitioning_attack(2)
    assert report.system.n == 3 * report.system.t
    assert report.all_correct_decided
    assert report.agreement_violated
    assert set(report.decisions_a.values()) == {0}
    assert set(report.decisions_c.values()) == {1}


def test_theorem1_split_brain_fails_when_n_gt_3t():
    report = run_partitioning_attack(2, "strong", 0, 1, 400.0, 1, SystemConfig(7, 2))
    assert not report.agreement_violated
    assert report.all_correct_decided


# ----------------------------------------------------------------------
# Theorem 3: every solvable property satisfies C_S
# ----------------------------------------------------------------------
class TestTheorem3SimilarityCondition:
    def test_solvable_named_properties_satisfy_cs(self):
        system = SystemConfig(4, 1)
        domain = [0, 1]
        for name, prop in {
            "strong": StrongValidity(domain),
            "weak": WeakValidity(system, domain),
            "convex-hull": ConvexHullValidity(domain),
            "correct-proposal": CorrectProposalValidity(domain),
        }.items():
            verdict = classify(prop, system, domain)
            if verdict.solvable:
                assert verdict.satisfies_similarity_condition, name

    def test_fitzi_garay_threshold(self):
        # Correct-Proposal Validity loses C_S exactly when n <= (|V| + 1) t.
        for n in (4, 5):
            for domain_size in (2, 3):
                domain = list(range(domain_size))
                holds = check_similarity_condition(
                    CorrectProposalValidity(domain), SystemConfig(n, 1), domain
                ).holds
                assert holds == (n > (domain_size + 1) * 1), (n, domain_size)


# ----------------------------------------------------------------------
# Theorem 4: non-trivial consensus needs more than (t/2)^2 messages
# ----------------------------------------------------------------------
class TestTheorem4LowerBound:
    def test_cheap_protocol_is_broken_universal_is_not(self):
        report = run_lower_bound_experiment(10)
        assert report.cheap_agreement_violated
        assert not report.universal_agreement_violated
        assert report.universal_exceeds_threshold
        assert report.cheap_messages < report.threshold * 4

    def test_threshold_vs_universal_across_sizes(self):
        for n in (7, 10, 13):
            summary = run_lower_bound_experiment(n=n).summary()
            assert summary["universal_messages"] > summary["threshold_(t/2)^2"], n
            assert not summary["universal_disagrees"], n
            assert summary["cheap_protocol_disagrees"], n


# ----------------------------------------------------------------------
# Theorem 5 / Algorithms 1-2: authenticated Universal costs O(n^2) messages
# ----------------------------------------------------------------------
THM5_SIZES = (4, 7, 10, 13)


def _size_sweep(backend, sizes, property_key="strong"):
    """Universal on one backend over ``sizes``: silent faults, synchronous network, t = (n - 1) // 3."""
    return _run_all_ok(
        [
            make_scenario(
                f"universal-{backend}",
                adversary="silent",
                delay="synchronous",
                n=n,
                t=(n - 1) // 3,
                property_key=property_key,
                name=f"{backend}:{property_key}:n={n}",
            )
            for n in sizes
        ]
    )


def test_theorem5_universal_messages_grow_quadratically():
    messages = [result.message_complexity for result in _size_sweep("authenticated", THM5_SIZES)]
    exponent = fit_growth_exponent(THM5_SIZES, messages)
    # Quadratic shape: the fitted exponent stays clearly below cubic and above linear.
    assert 1.2 < exponent < 2.8
    # Monotone in n.
    assert all(earlier < later for earlier, later in zip(messages, messages[1:]))


def test_theorem5_other_validity_properties_same_cost_shape():
    for key in ("weak", "convex-hull"):
        messages = [result.message_complexity for result in _size_sweep("authenticated", THM5_SIZES[:3], key)]
        assert fit_growth_exponent(THM5_SIZES[:3], messages) < 2.8, key


# ----------------------------------------------------------------------
# Algorithm 3: the non-authenticated variant is polynomially more expensive
# ----------------------------------------------------------------------
def test_algorithm3_costs_more_than_authenticated_and_the_gap_widens():
    sizes = (4, 7)
    auth, non_auth = (
        [result.message_complexity for result in _size_sweep(backend, sizes)]
        for backend in ("authenticated", "non-authenticated")
    )
    ratios = [na / max(1, a) for a, na in zip(auth, non_auth)]
    # Strictly more expensive, and the gap widens with n.
    assert all(ratio > 2 for ratio in ratios)
    assert ratios[-1] > ratios[0]
    # Its growth is also steeper than the authenticated one's.
    assert fit_growth_exponent(sizes, non_auth) > fit_growth_exponent(sizes, auth)


# ----------------------------------------------------------------------
# Algorithm 6: sub-cubic communication, bounded words per message
# ----------------------------------------------------------------------
def test_algorithm6_words_grow_no_faster_than_algorithm1():
    sizes = (4, 7, 10)
    auth, compact = (_size_sweep(backend, sizes) for backend in ("authenticated", "compact"))
    auth_exponent = fit_growth_exponent(sizes, [run.communication_complexity for run in auth])
    compact_exponent = fit_growth_exponent(sizes, [run.communication_complexity for run in compact])
    assert compact_exponent <= auth_exponent + 0.3
    # Algorithm 1 ships full vectors, so its words per message grow with n.
    auth_payload = [run.communication_complexity / max(1, run.message_complexity) for run in auth]
    assert auth_payload[-1] > auth_payload[0]


# ----------------------------------------------------------------------
# Section 5.2: every solvable variant from vector consensus, same cost
# ----------------------------------------------------------------------
def test_section52_universal_solves_every_standard_variant_at_one_cost():
    properties = ("strong", "weak", "correct-proposal", "median", "convex-hull", "interval")
    proposals = ((0, 3), (1, 3), (2, 3), (3, 5), (4, 1), (5, 3), (6, 9))
    scenarios = [
        make_scenario(
            "universal-authenticated",
            adversary="silent",
            delay="synchronous",
            n=7,
            t=2,
            property_key=key,
            name=f"variant:{key}",
            params={"proposals": proposals},
        )
        for key in properties
    ]
    reports = Runner().run(scenarios, seeds=(DEFAULT_SEED,))
    for report in reports:
        assert report.ok, (report.scenario, report.error, report.violations)
        assert report.agreement and report.completed, report.scenario
        assert report.validity_ok, report.scenario
    message_counts = [report.message_complexity for report in reports]
    # Same backend, same workload: the variant only changes Lambda, not the cost.
    assert max(message_counts) - min(message_counts) <= 0.2 * max(message_counts)


def test_section52_compact_backend_is_the_slowest():
    # Footnote 5 / Appendix B.3: Algorithms 1 and 3 have linear latency;
    # Algorithm 6 pays for its word savings with slow broadcast.
    backends = ("authenticated", "non-authenticated", "compact")
    scenarios = [
        make_scenario(
            f"universal-{backend}",
            adversary="none",
            delay="synchronous",
            n=n,
            t=(n - 1) // 3,
            name=f"latency:n={n}:{backend}",
        )
        for n in (4, 7)
        for backend in backends
    ]
    latency = {
        name: summary.latency.mean
        for name, summary in aggregate(_run_all_ok(scenarios, sweep_seeds(5))).items()
    }
    for n in (4, 7):
        compact = latency[f"latency:n={n}:compact"]
        assert compact > latency[f"latency:n={n}:authenticated"]
        assert compact > latency[f"latency:n={n}:non-authenticated"]


# ----------------------------------------------------------------------
# Partial synchrony: equivocation never breaks a run, partitions delay it
# ----------------------------------------------------------------------
def test_adversarial_region_partition_delays_decisions_past_release():
    adversaries = ("none", "silent", "equivocation")
    release_time = 5.0
    scenarios = [
        make_scenario(
            "universal-authenticated",
            adversary=adversary,
            delay=delay,
            name=f"adv:{adversary}:{delay}",
        )
        for adversary in adversaries
        for delay in ("synchronous", "partition", "jittered")
    ]
    latency = {
        name: summary.latency.mean
        for name, summary in aggregate(_run_all_ok(scenarios, sweep_seeds(5))).items()
    }
    for adversary in adversaries:
        # A partition healing at GST forces decisions after the release time,
        # strictly later than the synchronous execution of the same adversary.
        assert latency[f"adv:{adversary}:partition"] > release_time
        assert latency[f"adv:{adversary}:partition"] > latency[f"adv:{adversary}:synchronous"]


# ----------------------------------------------------------------------
# Appendix C: External Validity on a committee blockchain
# ----------------------------------------------------------------------
def test_appendix_c_external_validity_blockchain_round():
    system = SystemConfig(4, 1)
    verifier = TransactionVerifier()
    wallets = {name: ClientWallet(name) for name in ("alice", "bob", "carol")}
    hidden = wallets["carol"].issue(9, "known only to the Byzantine server")
    proposals = {
        0: (wallets["alice"].issue(1, "pay bob"), wallets["bob"].issue(1, "pay carol")),
        1: (wallets["alice"].issue(1, "pay bob"),),
        2: (wallets["carol"].issue(1, "pay alice"), wallets["bob"].issue(1, "pay carol")),
        3: (hidden,),
    }

    class BatchValidity(ValidityProperty):
        name = "external-validity-projection"

        def is_admissible(self, config, value):
            return verifier.batch_is_valid(value)

    spec = UniversalSpec(
        system=system, validity=BatchValidity(), decision_rule=batch_decision_rule(verifier)
    )
    simulation = Simulation(system, delay_model=SynchronousDelayModel(seed=13))
    simulation.populate(
        universal_process_factory(spec, proposals), faulty=[3], faulty_factory=silent_factory
    )
    simulation.run_until_all_correct_decide(until=5_000)
    batch = next(iter(simulation.decisions().values()))
    extended = ExtendedInputConfiguration.build(
        InputConfiguration.from_mapping({pid: proposals[pid] for pid in simulation.correct_processes}),
        adversary_pool=[hidden],
    )
    prop = external_validity_property(verifier)

    assert simulation.agreement_holds() and simulation.all_correct_decided()
    assert verifier.batch_is_valid(batch)
    assert prop.is_admissible(extended, batch)
    # Canonical execution (silent faulty server): the hidden transaction cannot be ordered.
    assert prop.execution_respects_assumptions(extended, batch, canonical=True)
    assert hidden not in batch
