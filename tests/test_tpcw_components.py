"""Tests for the TPC-W catalogue, mixes, CBMG and contention process."""

from __future__ import annotations

import numpy as np
import pytest

from repro.tpcw import (
    BROWSING_MIX,
    ORDERING_MIX,
    SHOPPING_MIX,
    STANDARD_MIXES,
    ContentionConfig,
    ContentionProcess,
    CustomerBehaviorGraph,
    TRANSACTION_CATALOG,
    TransactionClass,
    TransactionMix,
)
from repro.tpcw.transactions import browsing_transactions, ordering_transactions


class TestCatalog:
    def test_fourteen_transactions(self):
        assert len(TRANSACTION_CATALOG) == 14

    def test_class_partition_matches_table3(self):
        assert len(browsing_transactions()) == 6
        assert len(ordering_transactions()) == 8

    def test_best_sellers_always_two_db_calls(self):
        assert TRANSACTION_CATALOG["Best Sellers"].max_db_calls == 2

    def test_home_is_sensitive(self):
        assert TRANSACTION_CATALOG["Home"].contention_sensitive
        assert TRANSACTION_CATALOG["Best Sellers"].contention_sensitive

    def test_non_browsing_types_insensitive(self):
        assert not TRANSACTION_CATALOG["Buy Confirm"].contention_sensitive

    def test_all_demands_positive(self):
        for transaction in TRANSACTION_CATALOG.values():
            assert transaction.front_demand > 0
            assert transaction.db_demand >= 0


class TestMixes:
    def test_weights_normalised(self):
        for mix in STANDARD_MIXES.values():
            assert sum(mix.weights.values()) == pytest.approx(1.0, abs=1e-9)

    def test_browsing_fractions_match_spec(self):
        assert BROWSING_MIX.browsing_fraction() == pytest.approx(0.95, abs=0.01)
        assert SHOPPING_MIX.browsing_fraction() == pytest.approx(0.80, abs=0.01)
        assert ORDERING_MIX.browsing_fraction() == pytest.approx(0.50, abs=0.01)

    def test_browsing_mix_heaviest_at_database(self):
        assert (
            BROWSING_MIX.mean_db_demand()
            > SHOPPING_MIX.mean_db_demand()
            > ORDERING_MIX.mean_db_demand()
        )

    def test_sensitive_demand_ordering(self):
        assert (
            BROWSING_MIX.sensitive_db_demand()
            > SHOPPING_MIX.sensitive_db_demand()
            > ORDERING_MIX.sensitive_db_demand()
        )

    def test_probability_accessor(self):
        assert BROWSING_MIX.probability("Best Sellers") == pytest.approx(0.11, abs=1e-6)
        assert BROWSING_MIX.probability("Unknown") == 0.0

    def test_as_arrays_consistent(self):
        names, probabilities = SHOPPING_MIX.as_arrays()
        assert len(names) == len(probabilities)
        assert probabilities.sum() == pytest.approx(1.0)

    def test_unknown_transaction_rejected(self):
        with pytest.raises(ValueError):
            TransactionMix("bad", {"Nonexistent": 1.0})

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            TransactionMix("bad", {"Home": 0.0})


class TestCustomerBehaviorGraph:
    def test_sessions_start_at_home(self):
        cbmg = CustomerBehaviorGraph(BROWSING_MIX)
        assert cbmg.initial_transaction() == "Home"
        assert cbmg.next_transaction(None, np.random.default_rng(0)) == "Home"

    def test_stationary_distribution_matches_mix(self, rng):
        cbmg = CustomerBehaviorGraph(ORDERING_MIX)
        current = None
        counts = {}
        for _ in range(30000):
            current = cbmg.next_transaction(current, rng)
            counts[current] = counts.get(current, 0) + 1
        for name, weight in ORDERING_MIX.weights.items():
            if weight > 0.05:
                assert counts.get(name, 0) / 30000 == pytest.approx(weight, rel=0.15)

    def test_stickiness_preserves_stationary_mix(self, rng):
        cbmg = CustomerBehaviorGraph(SHOPPING_MIX, stickiness=0.5)
        current = None
        count_home = 0
        total = 40000
        for _ in range(total):
            current = cbmg.next_transaction(current, rng)
            count_home += current == "Home"
        assert count_home / total == pytest.approx(SHOPPING_MIX.probability("Home"), rel=0.2)

    def test_transition_matrix_rows_sum_to_one(self):
        names, matrix = CustomerBehaviorGraph(BROWSING_MIX, stickiness=0.3).transition_matrix()
        assert len(names) == matrix.shape[0]
        assert np.allclose(matrix.sum(axis=1), 1.0)

    def test_invalid_stickiness_rejected(self):
        with pytest.raises(ValueError):
            CustomerBehaviorGraph(BROWSING_MIX, stickiness=1.0)

    def test_invalid_start_rejected(self):
        with pytest.raises(ValueError):
            CustomerBehaviorGraph(BROWSING_MIX, start_transaction="Nope")

    def test_negative_mix_weight_rejected(self):
        # Generator.choice rejected it on every draw; the CDF is checked once.
        mix = TransactionMix("negative", {"Home": 2.0, "Best Sellers": -0.5})
        with pytest.raises(ValueError, match="non-negative"):
            CustomerBehaviorGraph(mix)

    @pytest.mark.parametrize("stickiness", [0.0, 0.3])
    @pytest.mark.parametrize("mix", list(STANDARD_MIXES.values()), ids=list(STANDARD_MIXES))
    def test_next_transaction_matches_generator_choice_draw_for_draw(self, mix, stickiness):
        draws = 200_000
        names, probabilities = mix.as_arrays()
        cbmg = CustomerBehaviorGraph(mix, stickiness=stickiness)
        rng = np.random.default_rng(2024)
        current = "Home"
        sampled = []
        for _ in range(draws):
            current = cbmg.next_transaction(current, rng)
            sampled.append(current)
        reference = np.random.default_rng(2024)
        if stickiness == 0.0:
            # One vectorised choice consumes the same doubles as scalar calls.
            indices = reference.choice(len(names), size=draws, p=probabilities)
            expected = [names[index] for index in indices]
        else:
            current = "Home"
            expected = []
            for _ in range(draws):
                if reference.random() >= stickiness:
                    current = names[reference.choice(len(names), p=probabilities)]
                expected.append(current)
        assert sampled == expected
        assert rng.random() == reference.random()


class TestContention:
    def test_fraction(self):
        config = ContentionConfig(normal_mean_duration=80.0, contention_mean_duration=20.0)
        assert config.contention_fraction == pytest.approx(0.2)

    def test_disabled_has_no_episodes(self, rng):
        config = ContentionConfig(enabled=False)
        process = ContentionProcess(config, 1000.0, rng)
        assert process.episodes == []
        assert not process.is_contended(500.0)
        assert config.contention_fraction == 0.0

    def test_episode_fraction_close_to_config(self, rng):
        config = ContentionConfig(normal_mean_duration=50.0, contention_mean_duration=10.0)
        process = ContentionProcess(config, 50_000.0, rng)
        fraction = process.contended_time() / 50_000.0
        assert fraction == pytest.approx(config.contention_fraction, rel=0.25)

    def test_is_contended_matches_episodes(self, rng):
        process = ContentionProcess(ContentionConfig(), 2000.0, rng)
        for start, end in process.episodes:
            middle = (start + end) / 2.0
            assert process.is_contended(middle)

    @pytest.mark.parametrize("start_in_contention", [False, True])
    def test_is_contended_boundaries(self, start_in_contention):
        process = ContentionProcess(
            ContentionConfig(), 5000.0, np.random.default_rng(7), start_in_contention
        )
        episodes = process.episodes
        assert len(episodes) > 5
        for start, end in episodes:
            assert process.is_contended(start)
            assert process.is_contended(np.nextafter(end, -np.inf))
            assert not process.is_contended(end)
        first_start, last_end = episodes[0][0], episodes[-1][1]
        if start_in_contention:
            assert first_start == 0.0
        else:
            assert not process.is_contended(0.0)
            assert not process.is_contended(np.nextafter(first_start, -np.inf))
        assert not process.is_contended(-1.0)
        assert not process.is_contended(last_end + 1.0)
        assert not process.is_contended(1e9)

    def test_disabled_is_never_contended(self):
        process = ContentionProcess(
            ContentionConfig(enabled=False), 1000.0, np.random.default_rng(7), True
        )
        best_sellers = TRANSACTION_CATALOG["Best Sellers"]
        for time in (-1.0, 0.0, 500.0, 1000.0, 1e9):
            assert not process.is_contended(time)
            assert process.db_factor(time, best_sellers, sensitive_jobs_at_db=50) == 1.0
            assert process.front_factor(time, best_sellers) == 1.0

    def test_factor_outside_episode_is_one(self, rng):
        process = ContentionProcess(ContentionConfig(), 500.0, rng, start_in_contention=False)
        best_sellers = TRANSACTION_CATALOG["Best Sellers"]
        if process.episodes:
            before_first = process.episodes[0][0] - 1e-6
        else:
            before_first = 250.0
        if before_first > 0:
            assert process.db_factor(before_first, best_sellers) == 1.0

    def test_factor_during_episode(self, rng):
        process = ContentionProcess(ContentionConfig(), 5000.0, rng, start_in_contention=True)
        start, end = process.episodes[0]
        middle = (start + end) / 2.0
        best_sellers = TRANSACTION_CATALOG["Best Sellers"]
        assert process.db_factor(middle, best_sellers) == pytest.approx(
            best_sellers.contention_db_factor
        )
        assert process.front_factor(middle, best_sellers) == pytest.approx(
            best_sellers.contention_front_factor
        )

    def test_insensitive_transaction_unaffected(self, rng):
        process = ContentionProcess(ContentionConfig(), 5000.0, rng, start_in_contention=True)
        start, end = process.episodes[0]
        middle = (start + end) / 2.0
        buy_confirm = TRANSACTION_CATALOG["Buy Confirm"]
        assert process.db_factor(middle, buy_confirm, sensitive_jobs_at_db=50) == 1.0

    def test_cascade_amplifies_with_backlog(self, rng):
        config = ContentionConfig(cascade_coefficient=0.15, cascade_threshold=3, cascade_cap=3.0)
        process = ContentionProcess(config, 5000.0, rng, start_in_contention=True)
        start, end = process.episodes[0]
        middle = (start + end) / 2.0
        best_sellers = TRANSACTION_CATALOG["Best Sellers"]
        light = process.db_factor(middle, best_sellers, sensitive_jobs_at_db=1)
        heavy = process.db_factor(middle, best_sellers, sensitive_jobs_at_db=40)
        assert light == pytest.approx(best_sellers.contention_db_factor)
        assert heavy == pytest.approx(best_sellers.contention_db_factor * 3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ContentionConfig(normal_mean_duration=0.0)
        with pytest.raises(ValueError):
            ContentionConfig(cascade_coefficient=-1.0)
        with pytest.raises(ValueError):
            ContentionConfig(cascade_cap=0.5)
        with pytest.raises(ValueError):
            ContentionProcess(ContentionConfig(), 0.0, np.random.default_rng(0))
