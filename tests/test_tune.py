"""The Parzen-estimator search: densities, splits, suggestion, optimization."""

import dataclasses
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonizer.config import SEARCH_SPACE, TUNED, PipelineConfig
from harmonizer.errors import ConfigError
from harmonizer.tune import (
    ParzenEstimator,
    Trial,
    TrialHistory,
    optimize,
    split_trials,
    suggest,
)


def trial(trial_id, objective, **params):
    return Trial(trial_id=trial_id, params=params, objective=objective, seed=0, elapsed_s=0.0, error=None)


class TestSearchSpace:
    def test_default_space(self):
        # TUNED's box in its order, each dimension a finite lo < hi.
        assert SEARCH_SPACE == tuple((name, lo, hi) for name, (_, lo, hi) in TUNED.items())
        assert ("threshold", 0.5, 5.0) in SEARCH_SPACE
        assert all(math.isfinite(lo) and math.isfinite(hi) and lo < hi for _, lo, hi in SEARCH_SPACE)

    def test_uniform_within_bounds(self):
        # Start-up points: one uniform draw per dimension, in the box's order.
        space = [("x", -2.0, -1.0), ("y", 10.0, 20.0)]
        rng, want = random.Random(0), random.Random(0)
        for _ in range(100):
            point = suggest([], space, 1, rng)
            assert point == {"x": want.uniform(-2.0, -1.0), "y": want.uniform(10.0, 20.0)}
            assert -2.0 <= point["x"] <= -1.0
            assert 10.0 <= point["y"] <= 20.0


class TestTrial:
    def test_json_round_trip(self):
        t = trial(3, 0.75, x=0.2, y=1.5)
        assert json.loads(t.to_json()) == dataclasses.asdict(t)

    def test_error_survives_round_trip(self):
        t = Trial(trial_id=1, params={"x": 0.1}, objective=0.0, seed=0, elapsed_s=0.5, error="ValueError: nope")
        assert json.loads(t.to_json())["error"] == "ValueError: nope"


class TestTpeConfig:
    # The TPE's settings, the tune section, are checked as the config loads.
    @pytest.mark.parametrize("kwargs", [{"n_startup": -10}, {"n_startup": -2}, {"n_startup": -1}])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError, match="tune.n_startup must be >= 0"):
            PipelineConfig.load(None, environ={}, overrides={"tune": kwargs})


class TestSplitTrials:
    def test_ceil_quantile(self):
        history = [trial(i, float(i), x=0.0) for i in range(10)]
        good, bad = split_trials(history, 0.25)
        # ceil(0.25 * 10) = 3 best objectives: trials 9, 8, 7.
        assert [t.trial_id for t in good] == [9, 8, 7]
        assert len(bad) == 7

    def test_ties_break_by_trial_id(self):
        history = [trial(i, 1.0, x=0.0) for i in range(4)]
        good, _ = split_trials(history, 0.25)
        assert [t.trial_id for t in good] == [0]

    def test_empty(self):
        assert split_trials([], 0.25) == ([], [])


class TestParzenEstimator:
    def test_empty_is_exactly_uniform(self):
        est = ParzenEstimator([], 0.0, 2.0)
        xs = [0.0, 0.123, 1.0, 1.999, 2.0]
        for x in xs:
            assert abs(est.pdf(x) - 0.5) < 1e-12

    def test_zero_outside_bounds(self):
        est = ParzenEstimator([0.5], 0.0, 1.0)
        assert est.pdf(-0.01) == 0.0
        assert est.pdf(1.01) == 0.0

    def test_integrates_to_one(self):
        est = ParzenEstimator([0.2, 0.8, 0.85], 0.0, 1.0)
        n = 20000
        total = sum(est.pdf((i + 0.5) / n) for i in range(n)) / n
        assert abs(total - 1.0) < 1e-6

    def test_density_concentrates_near_samples(self):
        est = ParzenEstimator([0.5], 0.0, 1.0)
        assert est.pdf(0.5) > est.pdf(0.1)

    def test_sample_within_bounds(self):
        est = ParzenEstimator([0.1, 0.9], -1.0, 1.0)
        rng = random.Random(1)
        for _ in range(500):
            assert -1.0 <= est.sample(rng) <= 1.0

    def test_bandwidth_shrinks_with_samples(self):
        wide = ParzenEstimator([0.5], 0.0, 1.0)
        narrow = ParzenEstimator([0.5] * 50, 0.0, 1.0)
        assert narrow.bandwidth < wide.bandwidth

    def test_bandwidth_floor(self):
        est = ParzenEstimator([0.5] * 10000, 0.0, 1.0)
        assert est.bandwidth >= 1e-3 * 1.0


class TestSuggest:
    def _history(self, n=20):
        rng = random.Random(7)
        out = []
        for i in range(n):
            x = rng.uniform(0.0, 1.0)
            out.append(trial(i, -(x - 0.3) ** 2, x=x))
        return out

    def test_startup_is_uniform_sampling(self):
        space = [("x", 0.0, 1.0)]
        point = suggest(self._history(5), space, 10, random.Random(0))
        assert 0.0 <= point["x"] <= 1.0

    def test_post_startup_in_bounds(self):
        space = [("x", 0.0, 1.0)]
        for seed in range(20):
            point = suggest(self._history(30), space, 10, random.Random(seed))
            assert 0.0 <= point["x"] <= 1.0

    def test_deterministic_given_rng_state(self):
        space = [("x", 0.0, 1.0)]
        p1 = suggest(self._history(30), space, 10, random.Random(42))
        p2 = suggest(self._history(30), space, 10, random.Random(42))
        assert p1 == p2

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_always_in_bounds_property(self, seed):
        space = [("x", -3.0, -1.0), ("y", 5.0, 6.0)]
        rng = random.Random(seed)
        history = [
            trial(i, rng.random(), x=rng.uniform(-3.0, -1.0), y=rng.uniform(5.0, 6.0))
            for i in range(15)
        ]
        point = suggest(history, space, 5, rng)
        assert -3.0 <= point["x"] <= -1.0
        assert 5.0 <= point["y"] <= 6.0


class TestOptimize:
    def test_quadratic_converges_reasonably(self):
        space = [("x", 0.0, 1.0)]
        history = optimize(
            lambda p: -((p["x"] - 0.3) ** 2), space, 40, n_startup=10, seed=11, initial=[], store_path=None
        )
        assert len(history.trials) == 40
        assert abs(history.best.params["x"] - 0.3) < 0.15

    def test_initial_points_run_first(self):
        space = [("x", 0.0, 1.0)]
        history = optimize(
            lambda p: p["x"], space, 5, n_startup=10, seed=0, initial=[{"x": 0.123}, {"x": 0.456}], store_path=None
        )
        assert history.trials[0].params == {"x": 0.123}
        assert history.trials[1].params == {"x": 0.456}

    def test_failing_objective_recorded(self):
        space = [("x", 0.0, 1.0)]

        def boom(params):
            raise RuntimeError("kaput")

        history = optimize(boom, space, 3, n_startup=10, seed=0, initial=[], store_path=None)
        assert all(t.objective == 0.0 for t in history.trials)
        assert all("kaput" in t.error for t in history.trials)

    def test_best_tie_goes_to_lowest_id(self):
        history = TrialHistory(trials=[trial(0, 1.0, x=0.1), trial(1, 1.0, x=0.9)])
        assert history.best.trial_id == 0

    def test_store_round_trip(self, tmp_path):
        space = [("x", 0.0, 1.0)]
        store = tmp_path / "trials.jsonl"
        history = optimize(lambda p: p["x"], space, 4, n_startup=10, seed=3, initial=[], store_path=store)
        lines = store.read_text(encoding="utf-8").splitlines()
        assert lines == [t.to_json() for t in history.trials]
        assert [json.loads(line) for line in lines] == [dataclasses.asdict(t) for t in history.trials]

    def test_zero_trials_rejected(self):
        # The trial budget is checked as the config loads.
        with pytest.raises(ConfigError, match="tune.trials must be >= 1, got 0"):
            PipelineConfig.load(None, environ={}, overrides={"tune": {"trials": 0}})

    def test_deterministic_with_seed(self):
        space = [("x", 0.0, 1.0)]
        h1 = optimize(lambda p: -((p["x"] - 0.6) ** 2), space, 15, n_startup=10, seed=5, initial=[], store_path=None)
        h2 = optimize(lambda p: -((p["x"] - 0.6) ** 2), space, 15, n_startup=10, seed=5, initial=[], store_path=None)
        assert [t.params for t in h1.trials] == [t.params for t in h2.trials]
