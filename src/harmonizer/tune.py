"""Hyperparameter search: a self-contained Tree-structured Parzen Estimator.

Maximizes a black-box objective over a box-bounded space. Completed trials
split into a good quantile and the rest; each dimension gets two Parzen
mixtures (truncated Gaussian kernel per sample plus a flat prior component
over the bounds), and the next point maximizes the density ratio l(x)/g(x)
over candidates drawn from l. No external optimization framework involved.
"""

from __future__ import annotations

import json
import logging
import math
import random
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from statistics import NormalDist
from typing import Callable, Optional, Sequence

log = logging.getLogger(__name__)

_STD_NORMAL = NormalDist()

# The good quantile's share of the history, and the draws from l per
# dimension; both are hyperopt's defaults.
GAMMA = 0.25
N_CANDIDATES = 24


@dataclass(frozen=True)
class Trial:
    trial_id: int
    params: dict[str, float]
    objective: float
    seed: int
    elapsed_s: float
    error: Optional[str]

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def split_trials(history: Sequence[Trial], gamma: float) -> tuple[list[Trial], list[Trial]]:
    """Top ceil(gamma * n) trials by objective (ties by trial_id) vs the rest."""
    n_good = math.ceil(gamma * len(history))
    ranked = sorted(history, key=lambda t: (-t.objective, t.trial_id))
    return list(ranked[:n_good]), list(ranked[n_good:])


class ParzenEstimator:
    """1-D mixture over [lo, hi]: one truncated Gaussian per sample, each
    in [lo, hi], plus a flat prior component, all equally weighted.
    Integrates to 1 over the bounds; with no samples the density is exactly
    uniform."""

    def __init__(self, samples: Sequence[float], lo: float, hi: float):
        self.lo = lo
        self.hi = hi
        self.samples = list(samples)
        interval = hi - lo
        self.bandwidth = max(interval / min(100, len(self.samples) + 1), 1e-3 * interval)
        # Per-kernel truncation mass for the normalization of each Gaussian.
        self._masses = [
            _STD_NORMAL.cdf((hi - mu) / self.bandwidth) - _STD_NORMAL.cdf((lo - mu) / self.bandwidth)
            for mu in self.samples
        ]

    def pdf(self, x: float) -> float:
        if x < self.lo or x > self.hi:
            return 0.0
        k = len(self.samples)
        weight = 1.0 / (k + 1)
        density = weight / (self.hi - self.lo)  # flat prior component
        for mu, mass in zip(self.samples, self._masses):
            z = (x - mu) / self.bandwidth
            density += weight * _STD_NORMAL.pdf(z) / (self.bandwidth * mass)
        return density

    def sample(self, rng: random.Random) -> float:
        k = len(self.samples)
        choice = rng.randrange(k + 1)
        if choice == k:
            return rng.uniform(self.lo, self.hi)
        mu = self.samples[choice]
        a = _STD_NORMAL.cdf((self.lo - mu) / self.bandwidth)
        b = _STD_NORMAL.cdf((self.hi - mu) / self.bandwidth)
        u = rng.uniform(a, b)
        # Guard the open interval; inv_cdf rejects 0 and 1.
        u = min(max(u, 1e-12), 1.0 - 1e-12)
        x = mu + self.bandwidth * _STD_NORMAL.inv_cdf(u)
        return min(max(x, self.lo), self.hi)


def suggest(
    history: Sequence[Trial],
    space: Sequence[tuple[str, float, float]],
    n_startup: int,
    rng: random.Random,
) -> dict[str, float]:
    """Next point to try in the box ``space``, one (name, lo, hi) per
    dimension in draw order. Uniform during startup; afterwards, per
    dimension, the candidate maximizing l(x)/g(x) among draws from l."""
    if len(history) < n_startup:
        return {name: rng.uniform(lo, hi) for name, lo, hi in space}
    good, bad = split_trials(history, GAMMA)
    point: dict[str, float] = {}
    for name, lo, hi in space:
        l_est = ParzenEstimator([t.params[name] for t in good], lo, hi)
        g_est = ParzenEstimator([t.params[name] for t in bad], lo, hi)
        best_x = None
        best_ratio = -math.inf
        for _ in range(N_CANDIDATES):
            x = l_est.sample(rng)
            ratio = l_est.pdf(x) / g_est.pdf(x)  # g > 0 inside bounds (prior)
            if ratio > best_ratio:
                best_ratio = ratio
                best_x = x
        point[name] = best_x
    return point


@dataclass
class TrialHistory:
    trials: list[Trial] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def best(self) -> Trial:
        return max(self.trials, key=lambda t: (t.objective, -t.trial_id))


def optimize(
    objective: Callable[[dict[str, float]], float],
    space: Sequence[tuple[str, float, float]],
    n_trials: int,
    *,
    n_startup: int,
    seed: int,
    initial: Sequence[dict[str, float]],
    store_path: str | Path | None,
) -> TrialHistory:
    """Run n_trials sequential trials and return them all plus the argmax.

    The ``initial`` points, each inside ``space`` (``tune_pipeline`` passes
    the incumbent config clipped into the box), are evaluated first. A
    trial whose objective raises is recorded with objective 0.0 and the
    error message; it still counts toward the budget.
    """
    rng = random.Random(seed)
    history = TrialHistory()
    store = Path(store_path).open("a", encoding="utf-8") if store_path else None
    t_start = time.perf_counter()
    try:
        for trial_id in range(n_trials):
            if trial_id < len(initial):
                params = dict(initial[trial_id])
            else:
                params = suggest(history.trials, space, n_startup, rng)
            t0 = time.perf_counter()
            error = None
            try:
                value = float(objective(params))
            except Exception as exc:  # objective bugs must not kill the search
                value = 0.0
                error = f"{type(exc).__name__}: {exc}"
                log.warning("trial %d failed: %s", trial_id, error)
            trial = Trial(
                trial_id=trial_id,
                params=params,
                objective=value,
                seed=seed,
                elapsed_s=time.perf_counter() - t0,
                error=error,
            )
            history.trials.append(trial)
            if store is not None:
                store.write(trial.to_json() + "\n")
                store.flush()
    finally:
        if store is not None:
            store.close()
    history.elapsed_s = time.perf_counter() - t_start
    return history
