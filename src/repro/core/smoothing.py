"""Moving-average smoothing of time series and explanation cubes.

Section 7.4: "For very fuzzy datasets, we apply a moving average to smooth
it before explaining it."  Smoothing must be applied consistently to the
overall series *and* to every candidate's included/excluded series so that
the decomposition ``overall = slice + rest`` is preserved; that is why the
cube-level helper exists rather than smoothing the aggregate alone.
"""

from __future__ import annotations

import numpy as np

from repro.cube.datacube import ExplanationCube
from repro.exceptions import QueryError
from repro.relation.timeseries import TimeSeries


def moving_average(values: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average with shrinking windows at the edges.

    Every output point averages the input points within ``window // 2``
    steps on each side, clipped to the series bounds — so the output has
    the same length and no NaN padding, and a window of 1 is the identity.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise QueryError(f"moving_average expects 1-D values, got {values.shape}")
    if window < 1:
        raise QueryError(f"window must be >= 1, got {window}")
    return _moving_average_rows(values[None, :], window)[0]


def _moving_average_rows(values: np.ndarray, window: int) -> np.ndarray:
    """:func:`moving_average` of every row of a 2-D array at once."""
    n = values.shape[1]
    if window == 1 or n <= 1:
        return values.copy()
    half = window // 2
    prefix = np.zeros((values.shape[0], n + 1))
    np.cumsum(values, axis=1, out=prefix[:, 1:])
    left = np.maximum(np.arange(n) - half, 0)
    right = np.minimum(np.arange(n) + half, n - 1)
    return (prefix[:, right + 1] - prefix[:, left]) / (right - left + 1)


def smooth_series(series: TimeSeries, window: int) -> TimeSeries:
    """A moving-average smoothed copy of a time series."""
    return TimeSeries(moving_average(series.values, window), series.labels)


def smooth_cube(cube: ExplanationCube, window: int) -> ExplanationCube:
    """A cube whose overall/included/excluded series are all smoothed.

    Because the moving average is linear, smoothing the included and
    excluded series separately keeps ``overall = included + excluded``
    exact for SUM/COUNT cubes.
    """
    if window == 1:
        return cube
    overall = moving_average(cube.overall_values, window)
    included = _moving_average_rows(
        np.asarray(cube.included_values, dtype=np.float64), window
    )
    excluded = _moving_average_rows(
        np.asarray(cube.excluded_values, dtype=np.float64), window
    )
    return ExplanationCube.from_arrays(
        aggregate=cube.aggregate,
        measure=cube.measure,
        explain_by=cube.explain_by,
        labels=cube.labels,
        overall=overall,
        explanations=cube.explanations,
        supports=cube.supports,
        included=included,
        excluded=excluded,
    )
