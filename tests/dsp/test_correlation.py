"""Spatial covariance estimation.

Each step of the pipeline is pinned through the production kernel:
with ``use_forward_backward=False, loading=0`` it is the plain sample
covariance, and toggling either option isolates that step.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dsp import spatial_covariance

RNG = np.random.default_rng(0)


def random_snapshots(k=20, n=4):
    return RNG.normal(size=(k, n)) + 1j * RNG.normal(size=(k, n))


def sample_covariance(z, valid=None):
    return spatial_covariance(z, valid, use_forward_backward=False, loading=0.0)


def forward_backward_covariance(z):
    return spatial_covariance(z, use_forward_backward=True, loading=0.0)


class TestSampleCovariance:
    def test_hermitian(self):
        r = sample_covariance(random_snapshots())
        np.testing.assert_allclose(r, r.conj().T)

    def test_positive_semidefinite(self):
        r = sample_covariance(random_snapshots())
        eigvals = np.linalg.eigvalsh(r)
        assert (eigvals >= -1e-12).all()

    def test_definition(self):
        z = random_snapshots(k=5, n=3)
        r = sample_covariance(z)
        manual = np.zeros((3, 3), dtype=complex)
        for row in z:
            manual += np.outer(row, row.conj())
        np.testing.assert_allclose(r, manual / 5)

    def test_valid_mask_filters(self):
        z = random_snapshots(k=4, n=3)
        valid = np.ones((4, 3), dtype=bool)
        valid[1, 0] = False  # snapshot 1 incomplete
        r = sample_covariance(z, valid)
        np.testing.assert_allclose(r, sample_covariance(z[[0, 2, 3]]))

    def test_no_snapshots_rejected(self):
        with pytest.raises(ValueError):
            sample_covariance(np.zeros((0, 4), dtype=complex))
        with pytest.raises(ValueError):
            sample_covariance(random_snapshots(3), np.zeros((3, 4), dtype=bool))

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            sample_covariance(np.zeros(4, dtype=complex))


class TestForwardBackward:
    def test_hermitian_preserved(self):
        fb = forward_backward_covariance(random_snapshots())
        np.testing.assert_allclose(fb, fb.conj().T)

    def test_trace_preserved(self):
        z = random_snapshots()
        assert np.trace(forward_backward_covariance(z)) == pytest.approx(
            np.trace(sample_covariance(z))
        )

    def test_persymmetric_output(self):
        fb = forward_backward_covariance(random_snapshots())
        n = fb.shape[0]
        j = np.eye(n)[::-1]
        np.testing.assert_allclose(fb, j @ fb.conj() @ j)


class TestDiagonalLoading:
    def test_raises_smallest_eigenvalue(self):
        z = np.array([[np.sqrt(3.0), 0.0, 0.0]], dtype=complex)  # rank one
        assert np.linalg.eigvalsh(sample_covariance(z)).min() <= 0
        loaded = spatial_covariance(z, use_forward_backward=False, loading=1e-3)
        assert np.linalg.eigvalsh(loaded).min() > 0

    def test_full_pipeline_shape(self):
        z = random_snapshots()
        r = spatial_covariance(z)
        assert r.shape == (4, 4)
        assert np.isfinite(r).all()
