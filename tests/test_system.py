"""Unit tests for :mod:`repro.core.system`."""

import pytest

from repro.core import SystemConfig


class TestSystemConfigValidation:
    def test_rejects_zero_t(self):
        with pytest.raises(ValueError):
            SystemConfig(n=4, t=0)

    def test_rejects_t_equal_n(self):
        with pytest.raises(ValueError):
            SystemConfig(n=4, t=4)

    def test_rejects_t_above_n(self):
        with pytest.raises(ValueError):
            SystemConfig(n=4, t=5)

    def test_rejects_tiny_system(self):
        with pytest.raises(ValueError):
            SystemConfig(n=1, t=0)

    def test_accepts_minimal_valid_system(self):
        system = SystemConfig(n=2, t=1)
        assert system.quorum == 1

    def test_validate_process_rejects_out_of_range(self):
        system = SystemConfig(n=4, t=1)
        with pytest.raises(ValueError):
            system.validate_process(4)
        with pytest.raises(ValueError):
            system.validate_process(-1)
        system.validate_process(0)
        system.validate_process(3)


class TestDerivedQuantities:
    def test_quorum_is_n_minus_t(self):
        assert SystemConfig(n=7, t=2).quorum == 5

    def test_configuration_size_bounds(self):
        system = SystemConfig(n=10, t=3)
        assert system.min_configuration_size == 7
        assert system.max_configuration_size == 10
        assert list(system.valid_configuration_sizes()) == [7, 8, 9, 10]

    def test_processes_range(self):
        assert list(SystemConfig(n=4, t=1).processes) == [0, 1, 2, 3]

    def test_byzantine_resilience_predicate(self):
        assert SystemConfig(n=4, t=1).tolerates_byzantine_faults()
        assert not SystemConfig(n=3, t=1).tolerates_byzantine_faults()
        assert not SystemConfig(n=6, t=2).tolerates_byzantine_faults()
        assert SystemConfig(n=7, t=2).tolerates_byzantine_faults()

    def test_quorums_share_a_correct_process_iff_n_gt_3t(self):
        # Two quorums of n - t overlap in 2(n - t) - n processes; at least one
        # of them is correct exactly when the overlap exceeds t.
        for n in range(2, 14):
            for t in range(1, n):
                system = SystemConfig(n=n, t=t)
                overlap = 2 * system.quorum - system.n
                assert (overlap > system.t) == system.tolerates_byzantine_faults(), (n, t)


class TestConstructors:
    def test_with_optimal_resilience(self):
        system = SystemConfig.with_optimal_resilience(10)
        assert system.n == 10
        assert system.t == 3
        assert system.tolerates_byzantine_faults()

    def test_with_optimal_resilience_boundary(self):
        assert SystemConfig.with_optimal_resilience(4).t == 1
        assert SystemConfig.with_optimal_resilience(7).t == 2
        assert SystemConfig.with_optimal_resilience(13).t == 4

    def test_with_optimal_resilience_rejects_small_n(self):
        with pytest.raises(ValueError):
            SystemConfig.with_optimal_resilience(3)

    def test_without_byzantine_resilience(self):
        system = SystemConfig.without_byzantine_resilience(2)
        assert system.n == 6
        assert system.t == 2
        assert not system.tolerates_byzantine_faults()

    def test_without_byzantine_resilience_rejects_zero(self):
        with pytest.raises(ValueError):
            SystemConfig.without_byzantine_resilience(0)

    def test_frozen(self):
        system = SystemConfig(n=4, t=1)
        with pytest.raises(Exception):
            system.n = 5
