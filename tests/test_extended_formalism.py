"""Tests for the Appendix C extended formalism and the committee-blockchain example."""

import pytest

from repro.core import InputConfiguration, SystemConfig, UniversalSpec, ValidityProperty
from repro.core.extended import (
    ClientWallet,
    DiscoveryModel,
    ExtendedInputConfiguration,
    TransactionVerifier,
    batch_decision_rule,
    batch_discovery,
    external_validity_property,
)
from repro.consensus import universal_process_factory
from repro.sim import Simulation, SynchronousDelayModel, silent_factory


@pytest.fixture()
def wallets():
    return {name: ClientWallet(name) for name in ("alice", "bob", "carol")}


@pytest.fixture()
def verifier():
    return TransactionVerifier()


class TestTransactions:
    def test_issued_transactions_verify(self, wallets, verifier):
        tx = wallets["alice"].issue(1, "pay bob 5")
        assert verifier.transaction_is_valid(tx)

    def test_forged_transactions_rejected(self, wallets, verifier):
        tx = wallets["alice"].issue(1, "pay bob 5")
        forged = type(tx)(client="alice", sequence_number=2, payload="pay mallory 99", signature=tx.signature)
        assert not verifier.transaction_is_valid(forged)

    def test_batch_validity_rejects_double_spend(self, wallets, verifier):
        tx1 = wallets["alice"].issue(1, "pay bob 5")
        tx2 = wallets["alice"].issue(1, "pay carol 5")
        assert verifier.batch_is_valid((tx1,))
        assert not verifier.batch_is_valid((tx1, tx2)), "same (client, sequence) twice is a double spend"

    def test_batch_validity_rejects_non_batches(self, verifier):
        assert not verifier.batch_is_valid("not a batch")


class TestDiscovery:
    def test_discovery_contains_concatenations(self, wallets, verifier):
        tx1 = wallets["alice"].issue(1, "a")
        tx2 = wallets["bob"].issue(1, "b")
        discovered = batch_discovery({tx1, tx2})
        assert (tx1,) in discovered
        assert (tx1, tx2) in discovered and (tx2, tx1) in discovered

    def test_discovery_ignores_invalid_inputs(self, wallets, verifier):
        tx = wallets["alice"].issue(1, "a")
        model = external_validity_property(verifier).discovery
        discovered = model.discover({tx, "garbage"})
        assert all(all(isinstance(item, type(tx)) for item in batch) for batch in discovered)

    def test_discovery_is_monotone(self, wallets, verifier):
        tx1 = wallets["alice"].issue(1, "a")
        tx2 = wallets["bob"].issue(1, "b")
        model = external_validity_property(verifier).discovery
        for smaller, larger in [({tx1}, {tx1, tx2}), (set(), {tx1})]:
            assert model.discover(smaller) <= model.discover(larger)


class TestExtendedConfigurationsAndAssumptions:
    def test_adversary_pool_must_be_empty_when_all_correct(self, wallets):
        config = InputConfiguration.from_mapping({0: (), 1: (), 2: (), 3: ()})
        tx = wallets["alice"].issue(1, "a")
        with pytest.raises(ValueError):
            ExtendedInputConfiguration.build(config, adversary_pool=[tx], n=4)
        ExtendedInputConfiguration.build(config, adversary_pool=[], n=4)

    def test_assumptions_distinguish_hidden_adversary_knowledge(self, wallets, verifier):
        tx_public = wallets["alice"].issue(1, "a")
        tx_hidden = wallets["bob"].issue(1, "b")
        prop = external_validity_property(verifier)
        config = InputConfiguration.from_mapping({0: (tx_public,), 1: (tx_public,), 2: (tx_public,)})
        extended = ExtendedInputConfiguration.build(config, adversary_pool=[tx_hidden], n=4)

        batch_with_hidden = (tx_public, tx_hidden)
        # Admissible (discoverable with the adversary pool), hence Assumption 1 holds...
        assert prop.is_admissible(extended, batch_with_hidden)
        assert prop.execution_respects_assumptions(extended, batch_with_hidden, canonical=False)
        # ...but in a canonical execution the hidden transaction cannot be used.
        assert not prop.execution_respects_assumptions(extended, batch_with_hidden, canonical=True)
        assert prop.execution_respects_assumptions(extended, (tx_public,), canonical=True)

    def test_invalid_batches_are_never_admissible(self, wallets, verifier):
        tx = wallets["alice"].issue(1, "a")
        prop = external_validity_property(verifier)
        config = InputConfiguration.from_mapping({0: (tx,), 1: (tx,), 2: (tx,)})
        extended = ExtendedInputConfiguration.build(config, n=4)
        double_spend = (tx, wallets["alice"].issue(1, "conflicting"))
        assert not prop.is_admissible(extended, double_spend)


class TestBlockchainConsensusEndToEnd:
    def test_universal_decides_an_externally_valid_batch(self, wallets, verifier):
        """Servers run Universal; the decided batch satisfies External Validity."""
        system = SystemConfig(4, 1)
        transactions = {
            0: (wallets["alice"].issue(1, "pay bob 5"),),
            1: (wallets["bob"].issue(1, "pay carol 2"), wallets["alice"].issue(1, "pay bob 5")),
            2: (wallets["carol"].issue(1, "pay alice 1"),),
            3: (wallets["bob"].issue(1, "pay carol 2"),),
        }

        class BatchValidity(ValidityProperty):
            name = "external-validity-projection"

            def is_admissible(self, config, value):
                return verifier.batch_is_valid(value)

        spec = UniversalSpec(
            system=system,
            validity=BatchValidity(),
            decision_rule=batch_decision_rule(verifier),
        )
        sim = Simulation(system, delay_model=SynchronousDelayModel(seed=3))
        sim.populate(
            universal_process_factory(spec, transactions),
            faulty=[3],
            faulty_factory=silent_factory,
        )
        sim.run_until_all_correct_decide(until=5_000)
        assert sim.all_correct_decided()
        assert sim.agreement_holds()
        decided_batch = next(iter(sim.decisions().values()))
        assert verifier.batch_is_valid(decided_batch)
        assert len(decided_batch) >= 1

        prop = external_validity_property(verifier)
        extended = ExtendedInputConfiguration.build(
            InputConfiguration.from_mapping({pid: transactions[pid] for pid in sim.correct_processes})
        )
        assert prop.execution_respects_assumptions(extended, decided_batch, canonical=True)
