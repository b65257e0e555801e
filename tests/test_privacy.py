"""Tests for the differential-privacy extension (clip + Gaussian noise)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.partition import IIDPartitioner
from repro.fl.client import Client, ClientConfig
from repro.fl.privacy import GaussianDPMechanism, PrivacyAccountant
from repro.ml.models import MLP
from repro.ml.tensor_utils import subtract_weights, weights_norm


class TestPrivacyAccountant:
    def test_epsilon_decreases_with_noise(self):
        low_noise = PrivacyAccountant(noise_multiplier=0.1)
        high_noise = PrivacyAccountant(noise_multiplier=1.0)
        assert high_noise.epsilon_per_round() < low_noise.epsilon_per_round()

    def test_epsilon_composes_linearly(self):
        accountant = PrivacyAccountant(noise_multiplier=0.5)
        assert accountant.epsilon_after(10) == pytest.approx(10 * accountant.epsilon_per_round())

    def test_zero_noise_is_infinite_epsilon(self):
        assert PrivacyAccountant(noise_multiplier=0.0).epsilon_per_round() == float("inf")

    def test_negative_rounds_rejected(self):
        with pytest.raises(ValueError):
            PrivacyAccountant(noise_multiplier=0.5).epsilon_after(-1)


class TestGaussianDPMechanism:
    def test_clipping_bounds_update_norm(self):
        mechanism = GaussianDPMechanism(clip_norm=1.0, noise_multiplier=0.0, rng=np.random.default_rng(0))
        update = [np.full((10,), 5.0)]
        private = mechanism.privatize_update(update)
        assert weights_norm(private) == pytest.approx(1.0)

    def test_small_update_unchanged_without_noise(self):
        mechanism = GaussianDPMechanism(clip_norm=10.0, noise_multiplier=0.0, rng=np.random.default_rng(0))
        update = [np.array([0.1, -0.2])]
        private = mechanism.privatize_update(update)
        assert np.allclose(private[0], update[0])

    def test_noise_changes_update(self):
        mechanism = GaussianDPMechanism(clip_norm=1.0, noise_multiplier=0.5, rng=np.random.default_rng(1))
        update = [np.zeros(50)]
        private = mechanism.privatize_update(update)
        assert not np.allclose(private[0], 0.0)

    def test_noise_scale_matches_multiplier(self):
        rng = np.random.default_rng(2)
        mechanism = GaussianDPMechanism(clip_norm=2.0, noise_multiplier=0.5, rng=rng)
        samples = [mechanism.privatize_update([np.zeros(2000)])[0] for _ in range(3)]
        observed_std = np.std(np.concatenate(samples))
        assert observed_std == pytest.approx(1.0, rel=0.1)  # 0.5 * clip_norm 2.0

    def test_privatize_weights_round_trip_structure(self):
        rng = np.random.default_rng(3)
        mechanism = GaussianDPMechanism(clip_norm=1.0, noise_multiplier=0.0, rng=rng)
        global_weights = [np.zeros((3, 3)), np.zeros(3)]
        new_weights = [np.full((3, 3), 0.01), np.full(3, 0.01)]
        private = mechanism.privatize_weights(global_weights, new_weights)
        assert [w.shape for w in private] == [(3, 3), (3,)]
        # Without noise and with a generous clip bound the result is unchanged.
        assert all(np.allclose(a, b) for a, b in zip(private, new_weights))

    def test_applications_and_epsilon_accumulate(self):
        mechanism = GaussianDPMechanism(clip_norm=1.0, noise_multiplier=0.5, rng=np.random.default_rng(4))
        for _ in range(3):
            mechanism.privatize_update([np.ones(4)])
        assert mechanism.spent_epsilon() == pytest.approx(3 * mechanism.accountant.epsilon_per_round())

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GaussianDPMechanism(clip_norm=0.0)
        with pytest.raises(ValueError):
            GaussianDPMechanism(clip_norm=1.0, noise_multiplier=-1.0)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.1, 5.0))
    def test_property_clipped_norm_never_exceeds_bound(self, clip_norm):
        mechanism = GaussianDPMechanism(clip_norm=clip_norm, noise_multiplier=0.0, rng=np.random.default_rng(5))
        update = [np.random.default_rng(6).normal(size=(20,)) * 10]
        private = mechanism.privatize_update(update)
        assert weights_norm(private) <= clip_norm + 1e-9


class TestDPClient:
    def test_client_config_validation(self):
        with pytest.raises(ValueError):
            ClientConfig(dp_clip_norm=0.0)
        with pytest.raises(ValueError):
            ClientConfig(dp_noise_multiplier=-0.5)
        with pytest.raises(ValueError, match="dp_noise_multiplier.*dp_clip_norm"):
            ClientConfig(dp_noise_multiplier=0.5)

    def test_dp_client_reports_clipped_update(self, tabular_dataset):
        model = MLP(input_dim=10, hidden_dims=(16,), num_classes=3, seed=0)
        partition = IIDPartitioner(2, seed=0).partition(tabular_dataset)[0]
        config = ClientConfig(
            local_epochs=1, batch_size=16, learning_rate=0.5, seed=1,
            dp_clip_norm=0.5, dp_noise_multiplier=0.0,
        )
        client = Client("dp", model.clone(), partition, config=config)
        global_weights = model.get_weights()
        result = client.fit(global_weights)
        update_norm = weights_norm(subtract_weights(result.weights, global_weights))
        assert update_norm <= 0.5 + 1e-6
        assert "dp_epsilon_spent" in result.metrics

    def test_non_dp_client_has_no_epsilon_metric(self, tabular_dataset):
        model = MLP(input_dim=10, hidden_dims=(16,), num_classes=3, seed=0)
        partition = IIDPartitioner(2, seed=0).partition(tabular_dataset)[0]
        client = Client("plain", model.clone(), partition, config=ClientConfig(local_epochs=1, batch_size=16))
        result = client.fit(model.get_weights())
        assert "dp_epsilon_spent" not in result.metrics

    def test_dp_noise_degrades_but_does_not_break_learning(self, tabular_dataset):
        """Moderate DP noise: the federation still learns, just less sharply."""
        from repro.core.baselines import SingleLevelFL
        from repro.ml.evaluation import Evaluator

        model = MLP(input_dim=10, hidden_dims=(16,), num_classes=3, seed=0)
        parts = IIDPartitioner(3, seed=0).partition(tabular_dataset)

        def run(dp: bool) -> float:
            config = ClientConfig(
                local_epochs=1, batch_size=16, learning_rate=0.05, seed=2,
                dp_clip_norm=5.0 if dp else None, dp_noise_multiplier=0.05 if dp else 0.0,
            )
            clients = [Client(f"c{i}", model.clone(), p, config=config) for i, p in enumerate(parts)]
            federation = SingleLevelFL(clients, model.get_weights(), Evaluator(model), tabular_dataset)
            return federation.run(6).global_accuracy

        noisy = run(dp=True)
        clean = run(dp=False)
        assert noisy > 0.4  # still learns under DP
        assert clean >= noisy - 0.1  # and DP does not mysteriously beat the clean run by much
