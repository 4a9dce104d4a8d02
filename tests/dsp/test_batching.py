"""Stacked DSP kernels: bit-close equivalence with the scalar oracles.

The batching contract (DESIGN.md section 10): every stacked kernel
must reproduce the scalar loop it replaced to ``rtol=1e-12`` — same
LAPACK kernels, same selection semantics.  Those loops live on as the
oracles in :mod:`tests.dsp.covariance_oracle` and
:mod:`tests.dsp.spectrum_oracle`; these tests sweep random dwell
stacks, degraded masks and forced subspace dimensions and compare
element-wise against them; the MUSIC and periodogram sweeps also take
every observed dwell of one small simulated recording.  The
single-dwell names in ``src/`` are batches of one of the kernels,
which the last class pins byte for byte.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp import (
    STEERING_CACHE_MAXSIZE,
    uncalibrated,
    cached_steering_matrix,
    clear_steering_cache,
    masked_pseudospectrum,
    masked_spectra_batch,
    music_pseudospectrum,
    music_spectra_batch,
    spatial_covariance,
    spatial_covariance_stack,
    spatial_periodogram,
    spatial_periodogram_batch,
    steering_cache_info,
    steering_matrix,
)
from repro.dsp.snapshots import build_snapshots_many, frame_count
from tests.dsp import covariance_oracle, spectrum_oracle

RTOL = 1e-12
SPACING = 0.04


def random_dwells(seed: int, n_windows=None, n_rounds=None, n_ant=None):
    """A random snapshot stack with a mixed validity profile.

    Windows cycle through the three selection regimes the kernels
    distinguish: fully observed, some-complete-rows (incomplete rows
    must be dropped), and no-complete-row (gaps must be zero-filled).
    """
    rng = np.random.default_rng(seed)
    w = int(n_windows if n_windows is not None else rng.integers(3, 12))
    k = int(n_rounds if n_rounds is not None else rng.integers(2, 6))
    n = int(n_ant if n_ant is not None else rng.integers(3, 6))
    z = rng.normal(size=(w, k, n)) + 1j * rng.normal(size=(w, k, n))
    valid = np.ones((w, k, n), dtype=bool)
    for i in range(w):
        regime = i % 3
        if regime == 1:  # incomplete rows alongside complete ones
            valid[i, rng.integers(0, k), rng.integers(0, n)] = False
        elif regime == 2:  # every row has a gap -> zero-fill fallback
            for row in range(k):
                valid[i, row, rng.integers(0, n)] = False
    # Garbage in unobserved slots must never leak into any output.
    z[~valid] = 1e6 * (1.0 + 1.0j)
    wavelengths = rng.uniform(0.31, 0.34, size=w)
    return z, valid, wavelengths


def recorded_dwells(log):
    """Every observed dwell of a simulated recording, stacked.

    The dwells carry what random stacks do not: real multipath
    structure, hopped wavelengths and the reader's own read gaps.
    """
    z, valid, wavelength, _frame_time = build_snapshots_many(
        [log], [uncalibrated(log)], frame_count(log)
    )
    # The (tag, dwell)s that saw >= 2 ports, tag-major.
    usable = valid[0].any(axis=2).sum(axis=2) >= 2
    return z[0][usable], valid[0][usable], wavelength[0][usable]


def dwells(request, source):
    """``random_dwells(source)``, or the ``small_log`` recording's dwells."""
    if source == "recording":
        return recorded_dwells(request.getfixturevalue("small_log"))
    return random_dwells(source)


SOURCES = [*range(6), "recording"]


class TestCovarianceStack:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_scalar(self, seed):
        z, valid, _ = random_dwells(seed)
        stack = spatial_covariance_stack(z, valid)
        for w in range(z.shape[0]):
            np.testing.assert_allclose(
                stack[w], covariance_oracle.spatial_covariance(z[w], valid[w]),
                rtol=RTOL,
            )

    def test_matches_scalar_without_mask(self):
        z, _, _ = random_dwells(3)
        z = z.real + 1j * z.imag  # strip the injected garbage pattern
        stack = spatial_covariance_stack(z)
        for w in range(z.shape[0]):
            np.testing.assert_allclose(
                stack[w], covariance_oracle.spatial_covariance(z[w]), rtol=RTOL
            )

    def test_forward_backward_toggle(self):
        z, valid, _ = random_dwells(4)
        stack = spatial_covariance_stack(z, valid, use_forward_backward=False)
        for w in range(z.shape[0]):
            np.testing.assert_allclose(
                stack[w],
                covariance_oracle.spatial_covariance(
                    z[w], valid[w], use_forward_backward=False
                ),
                rtol=RTOL,
            )

    def test_empty_stack(self):
        assert spatial_covariance_stack(np.zeros((0, 4, 4), complex)).shape == (0, 4, 4)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            spatial_covariance_stack(np.zeros((4, 4), complex))

    def test_rejects_fully_unobserved_window(self):
        z = np.ones((2, 3, 4), dtype=complex)
        valid = np.ones((2, 3, 4), dtype=bool)
        valid[1] = False
        with pytest.raises(ValueError):
            spatial_covariance_stack(z, valid)

    def test_rejects_zero_round_stack(self):
        """A window with no rounds raises like the scalar oracle, not NaN."""
        with pytest.raises(ValueError, match="no valid snapshots"):
            spatial_covariance_stack(np.zeros((2, 0, 4), complex))
        with pytest.raises(ValueError, match="no valid snapshots"):
            spatial_covariance(np.zeros((0, 4), complex))


def _assert_music_matches_oracle(spectra, dims, eigvals, covs, wl, **kwargs):
    for w in range(covs.shape[0]):
        scalar = spectrum_oracle.music_pseudospectrum(covs[w], SPACING, wl[w], **kwargs)
        np.testing.assert_allclose(spectra[w], scalar.spectrum, rtol=RTOL)
        np.testing.assert_allclose(eigvals[w], scalar.eigenvalues, rtol=RTOL)
        assert dims[w] == scalar.n_sources


class TestMusicBatch:
    @pytest.mark.parametrize("seed", SOURCES)
    def test_matches_scalar(self, request, seed):
        z, valid, wl = dwells(request, seed)
        covs = spatial_covariance_stack(z, valid)
        _assert_music_matches_oracle(*music_spectra_batch(covs, SPACING, wl), covs, wl)

    @pytest.mark.parametrize("seed", range(3))
    def test_forced_n_sources_per_window(self, seed):
        z, valid, wl = random_dwells(seed, n_ant=4)
        covs = spatial_covariance_stack(z, valid)
        rng = np.random.default_rng(seed + 100)
        forced = rng.integers(1, 4, size=covs.shape[0])
        spectra, dims, _eigs = music_spectra_batch(covs, SPACING, wl, n_sources=forced)
        np.testing.assert_array_equal(dims, forced)
        for w in range(covs.shape[0]):
            scalar = spectrum_oracle.music_pseudospectrum(
                covs[w], SPACING, wl[w], n_sources=int(forced[w])
            )
            np.testing.assert_allclose(spectra[w], scalar.spectrum, rtol=RTOL)

    def test_forced_n_sources_scalar_broadcasts(self):
        z, valid, wl = random_dwells(7, n_ant=4)
        covs = spatial_covariance_stack(z, valid)
        _spectra, dims, _eigs = music_spectra_batch(covs, SPACING, wl, n_sources=2)
        assert (dims == 2).all()

    def test_shared_scalar_wavelength(self):
        z, valid, _ = random_dwells(5)
        covs = spatial_covariance_stack(z, valid)
        wl = np.full(covs.shape[0], 0.328)
        _assert_music_matches_oracle(
            *music_spectra_batch(covs, SPACING, 0.328), covs, wl
        )

    def test_element_indices_subarray(self):
        z, valid, wl = random_dwells(9, n_ant=4)
        idx = np.array([0, 1, 3])  # ragged surviving subarray
        covs = spatial_covariance_stack(
            z[:, :, idx], valid[:, :, idx], use_forward_backward=False
        )
        _assert_music_matches_oracle(
            *music_spectra_batch(covs, SPACING, wl, element_indices=idx),
            covs, wl, element_indices=idx,
        )

    def test_empty_stack(self):
        spectra, dims, eigvals = music_spectra_batch(np.zeros((0, 4, 4)), SPACING, 0.328)
        assert spectra.shape == (0, 180)
        assert dims.shape == (0,)
        assert eigvals.shape == (0, 4)

    def test_rejects_non_stack(self):
        with pytest.raises(ValueError):
            music_spectra_batch(np.zeros((4, 4)), SPACING, 0.328)
        with pytest.raises(ValueError):
            music_spectra_batch(np.zeros((2, 3, 4)), SPACING, 0.328)


class TestMaskedBatch:
    @pytest.mark.parametrize(
        "live",
        [
            [True, True, True, True],
            [True, True, False, True],  # ragged: no forward-backward
            [True, False, True, False],  # uniform stride 2
            [False, True, True, False],
        ],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_scalar(self, seed, live):
        z, valid, wl = random_dwells(seed, n_ant=4)
        live = np.asarray(live)
        valid[:, :, ~live] = False
        spectra, dims, eigvals = masked_spectra_batch(z, valid, live, SPACING, wl)
        for w in range(z.shape[0]):
            scalar = spectrum_oracle.masked_pseudospectrum(
                z[w], valid[w], live, SPACING, wl[w]
            )
            np.testing.assert_allclose(spectra[w], scalar.spectrum, rtol=RTOL)
            # The oracle drops incomplete rows where the kernel
            # zero-weights them, so the covariances differ in the last
            # bit; eigenvalues are accurate relative to the largest one.
            np.testing.assert_allclose(
                eigvals[w], scalar.eigenvalues, rtol=RTOL,
                atol=RTOL * scalar.eigenvalues[0],
            )
            assert dims[w] == scalar.n_sources

    def test_fewer_than_two_live_ports_rejected(self):
        z, valid, wl = random_dwells(1, n_ant=4)
        with pytest.raises(ValueError, match="two live ports"):
            masked_spectra_batch(
                z, valid, np.array([False, True, False, False]), SPACING, wl
            )


class TestPeriodogramBatch:
    @pytest.mark.parametrize("seed", SOURCES)
    def test_matches_scalar(self, request, seed):
        z, valid, _ = dwells(request, seed)
        batch = spatial_periodogram_batch(z, valid)
        for w in range(z.shape[0]):
            np.testing.assert_allclose(
                batch[w], spectrum_oracle.spatial_periodogram(z[w], valid[w]),
                rtol=RTOL,
            )

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_scalar_dead_ports(self, seed):
        z, valid, _ = random_dwells(seed, n_ant=4)
        live = np.array([True, True, False, True])
        valid[:, :, ~live] = False
        batch = spatial_periodogram_batch(z, valid, liveness=live)
        for w in range(z.shape[0]):
            np.testing.assert_allclose(
                batch[w],
                spectrum_oracle.spatial_periodogram(z[w], valid[w], liveness=live),
                rtol=RTOL,
            )

    def test_matches_scalar_without_mask(self):
        z, _, _ = random_dwells(2)
        batch = spatial_periodogram_batch(z)
        for w in range(z.shape[0]):
            np.testing.assert_allclose(
                batch[w], spectrum_oracle.spatial_periodogram(z[w]), rtol=RTOL
            )

    def test_empty_stack(self):
        assert spatial_periodogram_batch(np.zeros((0, 4, 4), complex)).shape == (0, 4)

    def test_rejects_fully_unobserved_window(self):
        z = np.ones((2, 3, 4), dtype=complex)
        valid = np.ones((2, 3, 4), dtype=bool)
        valid[0] = False
        with pytest.raises(ValueError):
            spatial_periodogram_batch(z, valid)

    def test_rejects_zero_round_stack(self):
        """A window with no rounds raises like the scalar oracle, not NaN."""
        with pytest.raises(ValueError, match="no valid snapshots"):
            spatial_periodogram_batch(np.zeros((2, 0, 4), complex))
        with pytest.raises(ValueError, match="no valid snapshots"):
            spatial_periodogram(np.zeros((0, 4), complex))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            spatial_periodogram_batch(np.zeros((4, 4), complex))
        with pytest.raises(ValueError):
            spatial_periodogram_batch(
                np.zeros((2, 3, 4), complex), np.ones((2, 3, 3), bool)
            )


@st.composite
def dwell_stacks(draw):
    """A random dwell stack plus the kernel options a caller can pass."""
    n_ant = draw(st.integers(min_value=3, max_value=5))
    z, valid, wl = random_dwells(
        draw(st.integers(min_value=0, max_value=2**32 - 1)),
        n_windows=draw(st.integers(min_value=1, max_value=13)),
        n_rounds=draw(st.integers(min_value=1, max_value=13)),
        n_ant=n_ant,
    )
    live = np.zeros(n_ant, dtype=bool)
    live[sorted(draw(st.sets(st.integers(0, n_ant - 1), min_size=2)))] = True
    # A dead port is never observed; with at most N-2 dead ports and one
    # gap per row, every row keeps an observed live entry.
    valid[:, :, ~live] = False
    forced = draw(
        st.none()
        | st.lists(
            st.integers(min_value=1, max_value=n_ant - 1),
            min_size=z.shape[0],
            max_size=z.shape[0],
        ).map(np.asarray)
    )
    return z, valid, wl, live, forced


class TestBatchOfOneIsASlice:
    """``kernel(stack)[i]`` is byte-equal to ``kernel(stack[i:i+1])[0]``,
    and each single-dwell name is byte-equal to its kernel."""

    @given(dwell_stacks(), st.booleans(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_covariance(self, case, masked, fb):
        z, valid, _wl, _live, _forced = case
        mask = valid if masked else None
        stack = spatial_covariance_stack(z, mask, use_forward_backward=fb)
        for i in range(z.shape[0]):
            one = None if mask is None else mask[i]
            np.testing.assert_array_equal(
                stack[i],
                spatial_covariance_stack(
                    z[i : i + 1], None if mask is None else mask[i : i + 1],
                    use_forward_backward=fb,
                )[0],
            )
            np.testing.assert_array_equal(
                stack[i], spatial_covariance(z[i], one, use_forward_backward=fb)
            )

    @given(dwell_stacks())
    @settings(max_examples=60, deadline=None)
    def test_music(self, case):
        z, valid, wl, _live, forced = case
        covs = spatial_covariance_stack(z, valid)
        spectra, dims, eigvals = music_spectra_batch(covs, SPACING, wl, n_sources=forced)
        for i in range(z.shape[0]):
            n_src = None if forced is None else int(forced[i])
            one = music_spectra_batch(covs[i : i + 1], SPACING, wl[i], n_sources=n_src)
            single = music_pseudospectrum(covs[i], SPACING, wl[i], n_sources=n_src)
            for got in (one, (single.spectrum[None], [single.n_sources],
                              single.eigenvalues[None])):
                np.testing.assert_array_equal(spectra[i], got[0][0])
                assert dims[i] == got[1][0]
                np.testing.assert_array_equal(eigvals[i], got[2][0])

    @given(dwell_stacks())
    @settings(max_examples=60, deadline=None)
    def test_masked_music(self, case):
        z, valid, wl, live, forced = case
        spectra, dims, eigvals = masked_spectra_batch(
            z, valid, live, SPACING, wl, n_sources=forced
        )
        for i in range(z.shape[0]):
            n_src = None if forced is None else int(forced[i])
            one = masked_spectra_batch(
                z[i : i + 1], valid[i : i + 1], live, SPACING, wl[i], n_sources=n_src
            )
            single = masked_pseudospectrum(
                z[i], valid[i], live, SPACING, wl[i], n_sources=n_src
            )
            for got in (one, (single.spectrum[None], [single.n_sources],
                              single.eigenvalues[None])):
                np.testing.assert_array_equal(spectra[i], got[0][0])
                assert dims[i] == got[1][0]
                np.testing.assert_array_equal(eigvals[i], got[2][0])

    @given(dwell_stacks(), st.booleans(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_periodogram(self, case, masked, with_liveness):
        z, valid, _wl, live, _forced = case
        mask = valid if masked else None
        liveness = live if with_liveness else None
        stack = spatial_periodogram_batch(z, mask, liveness=liveness)
        for i in range(z.shape[0]):
            np.testing.assert_array_equal(
                stack[i],
                spatial_periodogram_batch(
                    z[i : i + 1], None if mask is None else mask[i : i + 1],
                    liveness=liveness,
                )[0],
            )
            np.testing.assert_array_equal(
                stack[i],
                spatial_periodogram(
                    z[i], None if mask is None else mask[i], liveness=liveness
                ),
            )


class TestSteeringCache:
    def setup_method(self):
        clear_steering_cache()

    def teardown_method(self):
        clear_steering_cache()

    def test_hit_matches_uncached(self):
        grid = np.arange(0.5, 180.5, 1.0)
        a = cached_steering_matrix(grid, 4, SPACING, 0.328)
        np.testing.assert_array_equal(a, steering_matrix(grid, 4, SPACING, 0.328))

    def test_hit_returns_same_readonly_object(self):
        grid = np.arange(0.5, 180.5, 1.0)
        a = cached_steering_matrix(grid, 4, SPACING, 0.328)
        b = cached_steering_matrix(grid, 4, SPACING, 0.328)
        assert a is b
        assert not a.flags.writeable
        assert steering_cache_info()["size"] == 1

    def test_element_indices_are_part_of_the_key(self):
        grid = np.arange(0.5, 180.5, 1.0)
        full = cached_steering_matrix(grid, 3, SPACING, 0.328)
        sparse = cached_steering_matrix(
            grid, 3, SPACING, 0.328, element_indices=np.array([0, 1, 3])
        )
        assert steering_cache_info()["size"] == 2
        assert not np.allclose(full, sparse)

    def test_bounded_under_randomized_grids(self):
        """The CI guard: adversarial inputs cannot grow the cache."""
        rng = np.random.default_rng(0)
        for _ in range(STEERING_CACHE_MAXSIZE + 64):
            grid = np.sort(rng.uniform(0.0, 180.0, size=rng.integers(8, 32)))
            cached_steering_matrix(grid, 4, SPACING, rng.uniform(0.31, 0.34))
            info = steering_cache_info()
            assert info["size"] <= info["maxsize"]
        assert steering_cache_info()["size"] == STEERING_CACHE_MAXSIZE

    def test_lru_keeps_hot_entries(self):
        base = np.arange(0.5, 180.5, 1.0)
        hot = cached_steering_matrix(base, 4, SPACING, 0.328)
        for i in range(STEERING_CACHE_MAXSIZE):
            cached_steering_matrix(base, 4, SPACING, 0.31 + i * 1e-4)
            cached_steering_matrix(base, 4, SPACING, 0.328)  # keep it hot
        assert steering_cache_info()["size"] == STEERING_CACHE_MAXSIZE
        # The hot entry survived a full capacity's worth of insertions
        # (identity proves it was never evicted and rebuilt).
        assert cached_steering_matrix(base, 4, SPACING, 0.328) is hot
