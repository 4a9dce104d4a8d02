"""Circular (angular) statistics helpers.

Reader phases live on the circle; medians and means must respect the
wrap-around.  These helpers are shared by calibration and tests.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi


def wrap_2pi(angles: np.ndarray | float) -> np.ndarray:
    """Wrap angles into ``[0, 2*pi)``.

    ``np.mod`` alone can return exactly ``2*pi`` for tiny negative
    inputs (floating-point rounding); that boundary case is folded to 0.
    """
    out = np.mod(angles, TWO_PI)
    return np.where(out >= TWO_PI, 0.0, out)


def wrap_pm_pi(angles: np.ndarray | float) -> np.ndarray:
    """Wrap angles into ``(-pi, pi]``."""
    return np.mod(np.asarray(angles) + np.pi, TWO_PI) - np.pi


def fold_double(phase: np.ndarray | float) -> np.ndarray:
    """Collapse the reader's pi ambiguity by doubling the phase.

    The R420 reports either the true phase or the true phase plus pi
    (Section V).  Doubling maps both onto the same point of the circle:
    ``2*(phi + pi) = 2*phi (mod 2*pi)``.  All downstream array
    processing happens in this doubled-phase domain, which also doubles
    the phase-per-metre and is why the antennas are spaced lambda/8.

    Args:
        phase: reported phase(s) in radians.

    Returns:
        Doubled phase(s) in ``[0, 2*pi)``.
    """
    return wrap_2pi(2.0 * np.asarray(phase, dtype=np.float64))


def circular_mean(angles: np.ndarray) -> float:
    """Mean direction of a sample of angles.

    Raises:
        ValueError: on an empty sample.
    """
    arr = np.asarray(angles, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("circular_mean of empty sample")
    return float(np.angle(np.exp(1j * arr).mean()))


def circular_median(angles: np.ndarray) -> float:
    """Robust median direction.

    Rotates the sample by its circular mean, takes the linear median of
    the wrapped residuals, and rotates back — the standard fast
    approximation, exact whenever the sample spans less than a
    half-circle around its mean (true for per-channel phase samples of
    a stationary tag, which is what calibration feeds in).

    Returns:
        Median angle in ``[0, 2*pi)``.

    Raises:
        ValueError: on an empty sample.
    """
    arr = np.asarray(angles, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("circular_median of empty sample")
    centre = circular_mean(arr)
    residuals = wrap_pm_pi(arr - centre)
    return float(wrap_2pi(centre + np.median(residuals)))


def grouped_circular_median(
    angles: np.ndarray, keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`circular_median` of every group of angles sharing a key.

    Groups are gathered by one stable sort, so each keeps its angles in
    input order, and groups of equal size are reduced together as one
    ``(G, n)`` block along its rows.  A row reduction takes the same
    pairwise sum as the 1-D reduction of one group, so every median is
    bit-identical to ``circular_median(angles[keys == key])``.

    Args:
        angles: ``(R,)`` angles in radians.
        keys: ``(R,)`` integer group key of every angle.

    Returns:
        ``(unique_keys, medians)``: the ``(G,)`` distinct keys in
        ascending order and each group's median in ``[0, 2*pi)``.

    Raises:
        ValueError: when ``angles`` and ``keys`` are not matching 1-D
            arrays.
    """
    arr = np.asarray(angles, dtype=np.float64)
    keys = np.asarray(keys)
    if arr.ndim != 1 or keys.shape != arr.shape:
        raise ValueError(
            f"angles and keys must be matching 1-D arrays, got {arr.shape} "
            f"and {keys.shape}"
        )
    if arr.size == 0:
        return keys, np.empty(0)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    values = arr[order]
    starts = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
    sizes = np.diff(np.r_[starts, arr.size])
    medians = np.empty(starts.size)
    for size in np.unique(sizes):
        groups = np.flatnonzero(sizes == size)
        block = values[starts[groups, None] + np.arange(size)]
        centre = np.angle(np.exp(1j * block).mean(axis=1))
        residuals = wrap_pm_pi(block - centre[:, None])
        medians[groups] = wrap_2pi(centre + np.median(residuals, axis=1))
    return sorted_keys[starts], medians


def circular_distance(a: np.ndarray | float, b: np.ndarray | float) -> np.ndarray:
    """Absolute angular distance in ``[0, pi]``."""
    return np.abs(wrap_pm_pi(np.asarray(a) - np.asarray(b)))
