"""MUSIC pseudospectrum estimation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dsp import (
    MusicResult,
    estimate_n_sources,
    music_pseudospectrum,
    spatial_covariance,
    steering_matrix,
)
from tests.dsp.covariance_oracle import forward_backward

N_ANT = 4
SPACING = 0.04
LAMBDA = 0.32


def snapshots_from_angles(
    angles_deg, amplitudes, n_snapshots=32, noise=0.01, rng=None, coherent=False
):
    """Synthesise doubled-phase snapshots from plane waves."""
    rng = rng or np.random.default_rng(0)
    a = steering_matrix(np.asarray(angles_deg), N_ANT, SPACING, LAMBDA)
    z = np.zeros((n_snapshots, N_ANT), dtype=complex)
    phases = rng.uniform(0, 2 * np.pi, len(angles_deg))
    for k in range(n_snapshots):
        if not coherent:
            phases = rng.uniform(0, 2 * np.pi, len(angles_deg))
        s = np.asarray(amplitudes) * np.exp(1j * phases)
        z[k] = a @ s
    z += noise * (rng.normal(size=z.shape) + 1j * rng.normal(size=z.shape))
    return z


class TestSteering:
    def test_shape(self):
        a = steering_matrix(np.arange(0.5, 180.5), N_ANT, SPACING, LAMBDA)
        assert a.shape == (N_ANT, 180)

    def test_unit_magnitude(self):
        a = steering_matrix(np.array([30.0, 90.0]), N_ANT, SPACING, LAMBDA)
        np.testing.assert_allclose(np.abs(a), 1.0)

    def test_broadside_is_flat(self):
        a = steering_matrix(np.array([90.0]), N_ANT, SPACING, LAMBDA)
        np.testing.assert_allclose(a[:, 0], 1.0, atol=1e-12)

    def test_lambda_8_spacing_unambiguous(self):
        """With d = lambda/8 and the x4 multiplier, no grating lobes
        inside the operational field of view: distinct angles give
        distinct steering vectors.  (Like any ULA, the endfire edges
        cos(theta) -> +/-1 remain mutually ambiguous, which is why the
        people stand broadside to the array.)"""
        grid = np.arange(20.0, 161.0, 2.0)
        a = steering_matrix(grid, N_ANT, SPACING, LAMBDA)
        gram = np.abs(a.conj().T @ a) / N_ANT
        # Angles within 15 degrees are legitimately hard to resolve
        # with 4 elements; ambiguity means *distant* angles colliding.
        separation = np.abs(grid[:, None] - grid[None, :])
        gram[separation < 15.0] = 0.0
        assert gram.max() < 0.99


class TestSourceCount:
    def test_single_source(self):
        z = snapshots_from_angles([60.0], [1.0])
        cov = spatial_covariance(z)
        eigvals = np.linalg.eigvalsh(cov)[::-1]
        assert estimate_n_sources(eigvals) == 1

    def test_two_sources(self):
        z = snapshots_from_angles([40.0, 120.0], [1.0, 0.8])
        cov = spatial_covariance(z)
        eigvals = np.linalg.eigvalsh(cov)[::-1]
        assert estimate_n_sources(eigvals) == 2

    def test_capped_below_n(self):
        eigvals = np.ones(4)
        assert estimate_n_sources(eigvals) <= 3

    def test_stack_counts_each_row(self):
        rows = np.array([[4.0, 1e-3, 1e-3, 1e-3], [4.0, 3.0, 1e-3, 1e-3], np.ones(4)])
        np.testing.assert_array_equal(estimate_n_sources(rows), [1, 2, 3])


class TestPseudospectrum:
    @pytest.mark.parametrize("true_angle", [30.0, 60.0, 90.0, 135.0])
    def test_single_source_peak(self, true_angle):
        z = snapshots_from_angles([true_angle], [1.0])
        cov = spatial_covariance(z)
        result = music_pseudospectrum(cov, SPACING, LAMBDA)
        peak_angle = result.peaks(1)[0][0]
        assert peak_angle == pytest.approx(true_angle, abs=2.0)

    def test_two_sources_resolved(self):
        z = snapshots_from_angles([45.0, 125.0], [1.0, 1.0])
        cov = spatial_covariance(z)
        result = music_pseudospectrum(cov, SPACING, LAMBDA, n_sources=2)
        top_two = sorted(a for a, _p in result.peaks(2))
        assert top_two[0] == pytest.approx(45.0, abs=4.0)
        assert top_two[1] == pytest.approx(125.0, abs=4.0)

    def test_coherent_sources_need_forward_backward(self):
        """Multipath copies are coherent; FB averaging restores rank."""
        z = snapshots_from_angles([50.0, 120.0], [1.0, 0.9], coherent=True)
        plain = spatial_covariance(z, use_forward_backward=False)
        fb = spatial_covariance(z, use_forward_backward=True)
        eig_plain = np.linalg.eigvalsh(plain)[::-1]
        eig_fb = np.linalg.eigvalsh(fb)[::-1]
        # FB raises the second eigenvalue relative to the first.
        assert eig_fb[1] / eig_fb[0] > eig_plain[1] / eig_plain[0]

    def test_spectrum_positive(self):
        z = snapshots_from_angles([75.0], [1.0])
        result = music_pseudospectrum(spatial_covariance(z), SPACING, LAMBDA)
        assert (result.spectrum > 0).all()

    def test_default_grid_180_points(self):
        z = snapshots_from_angles([75.0], [1.0])
        result = music_pseudospectrum(spatial_covariance(z), SPACING, LAMBDA)
        assert len(result.angles_deg) == 180

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            music_pseudospectrum(np.zeros((3, 4)), SPACING, LAMBDA)

    def test_forced_n_sources(self):
        z = snapshots_from_angles([75.0], [1.0])
        result = music_pseudospectrum(
            spatial_covariance(z), SPACING, LAMBDA, n_sources=2
        )
        assert result.n_sources == 2


class TestForwardBackward:
    def test_preserves_hermitian(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(10, 4)) + 1j * rng.normal(size=(10, 4))
        r = x.conj().T @ x
        fb = forward_backward(r)
        np.testing.assert_allclose(fb, fb.conj().T)

    def test_idempotent_on_persymmetric(self):
        r = np.eye(4, dtype=complex)
        np.testing.assert_allclose(forward_backward(r), r)


class TestPeaks:
    """MusicResult.peaks: plateaus collapse, endpoints count."""

    def _result(self, values):
        values = np.asarray(values, dtype=float)
        return MusicResult(
            angles_deg=np.arange(values.size, dtype=float),
            spectrum=values,
            n_sources=1,
            eigenvalues=np.ones(4),
        )

    def test_isolated_maxima(self):
        peaks = self._result([0, 3, 0, 5, 0]).peaks()
        assert peaks == [(3.0, 5.0), (1.0, 3.0)]

    def test_plateau_collapses_to_one_centroid_peak(self):
        # The naive s[i-1] <= s[i] >= s[i+1] scan reported all three
        # plateau samples as separate peaks; the plateau is one maximum.
        peaks = self._result([0, 2, 2, 2, 0]).peaks()
        assert peaks == [(2.0, 2.0)]

    def test_even_plateau_uses_lower_centroid(self):
        peaks = self._result([0, 4, 4, 0]).peaks()
        assert peaks == [(1.0, 4.0)]

    def test_endpoint_maximum_is_reported(self):
        # The naive interior scan could never see index 0 or n-1.
        peaks = self._result([5, 1, 0, 1, 3]).peaks()
        assert peaks == [(0.0, 5.0), (4.0, 3.0)]

    def test_plateau_at_endpoint(self):
        peaks = self._result([4, 4, 1, 0]).peaks()
        assert peaks == [(0.0, 4.0)]

    def test_rising_shoulder_is_not_a_peak(self):
        # A plateau with a higher neighbour on either side is a ledge.
        peaks = self._result([0, 2, 2, 3, 0]).peaks()
        assert peaks == [(3.0, 3.0)]

    def test_strongest_first_and_capped(self):
        peaks = self._result([0, 1, 0, 3, 0, 2, 0]).peaks(max_peaks=2)
        assert peaks == [(3.0, 3.0), (5.0, 2.0)]

    def test_constant_spectrum_is_one_plateau(self):
        peaks = self._result([1, 1, 1, 1]).peaks()
        assert peaks == [(1.0, 1.0)]

    def test_empty_spectrum(self):
        assert self._result([]).peaks() == []
