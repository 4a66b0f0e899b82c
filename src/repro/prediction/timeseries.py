"""Time-series predictors: last-value, windowed mean, autoregressive.

The predictor families RPS ships.  All share a two-method protocol:
``fit(history)`` then ``predict(steps)`` which returns forecasts for the
next ``steps`` samples.  :func:`evaluate_predictor` measures one-step
mean squared error by walking forward through a series, which is how a
grid application would pick the best model for a host's load signal.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.simulation.kernel import SimulationError

__all__ = [
    "LastValuePredictor",
    "WindowedMeanPredictor",
    "ArPredictor",
    "evaluate_predictor",
]


class LastValuePredictor:
    """Predicts that the future equals the most recent sample.

    Hard to beat at one step on strongly autocorrelated signals like
    host load — the observation that motivated RPS's model selection.
    """

    def __init__(self):
        self._last = 0.0
        self._fitted = False

    def fit(self, history: Sequence[float]) -> "LastValuePredictor":
        if len(history) < 1:
            raise SimulationError("need at least one sample")
        self._last = float(history[-1])
        self._fitted = True
        return self

    def predict(self, steps: int = 1) -> List[float]:
        if not self._fitted:
            raise SimulationError("fit() first")
        return [self._last] * steps


class WindowedMeanPredictor:
    """Predicts the mean of the last ``window`` samples."""

    def __init__(self, window: int = 8):
        if window < 1:
            raise SimulationError("window must be >= 1")
        self.window = int(window)
        self._mean = 0.0
        self._fitted = False

    def fit(self, history: Sequence[float]) -> "WindowedMeanPredictor":
        if len(history) < 1:
            raise SimulationError("need at least one sample")
        tail = list(history[-self.window:])
        self._mean = float(sum(tail) / len(tail))
        self._fitted = True
        return self

    def predict(self, steps: int = 1) -> List[float]:
        if not self._fitted:
            raise SimulationError("fit() first")
        return [self._mean] * steps


class ArPredictor:
    """An AR(p) model fit by least squares (RPS's workhorse family)."""

    def __init__(self, order: int = 4):
        if order < 1:
            raise SimulationError("order must be >= 1")
        self.order = int(order)
        self._coeffs = None  # numpy array of lag weights, set by fit()
        self._intercept = 0.0
        self._tail: List[float] = []

    def fit(self, history: Sequence[float]) -> "ArPredictor":
        # numpy is imported here, not with the module: the middleware
        # scheduler imports this module on every artifact run, and only
        # an AR fit needs numpy.
        import numpy as np

        values = np.asarray(history, dtype=float)
        if len(values) < self.order + 2:
            raise SimulationError("need at least order+2 samples")
        # Design matrix of lagged values: predict x[t] from x[t-1..t-p].
        rows = []
        targets = []
        for t in range(self.order, len(values)):
            rows.append(values[t - self.order:t][::-1])
            targets.append(values[t])
        design = np.column_stack([np.ones(len(rows)), np.asarray(rows)])
        solution, *_rest = np.linalg.lstsq(design, np.asarray(targets),
                                           rcond=None)
        self._intercept = float(solution[0])
        self._coeffs = solution[1:]
        self._tail = [float(v) for v in values[-self.order:]]
        return self

    def predict(self, steps: int = 1) -> List[float]:
        if not self._tail:
            raise SimulationError("fit() first")
        import numpy as np

        tail = list(self._tail)
        out = []
        for _i in range(steps):
            lags = np.asarray(tail[-self.order:][::-1])
            nxt = float(self._intercept + self._coeffs @ lags)
            out.append(nxt)
            tail.append(nxt)
        return out


def evaluate_predictor(predictor_factory, series: Sequence[float],
                       warmup: int = 16) -> float:
    """Walk-forward one-step mean squared error.

    ``predictor_factory`` builds a fresh predictor; it is refit on the
    history prefix before each one-step forecast.
    """
    if len(series) <= warmup + 1:
        raise SimulationError("series too short for evaluation")
    errors = []
    for t in range(warmup, len(series) - 1):
        predictor = predictor_factory()
        predictor.fit(series[:t + 1])
        forecast = predictor.predict(1)[0]
        errors.append((forecast - series[t + 1]) ** 2)
    return float(sum(errors) / len(errors))
