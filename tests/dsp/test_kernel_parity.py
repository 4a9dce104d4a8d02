"""The vectorised featurisation kernels against their plain bodies, byte for byte.

Each test feeds production and :mod:`tests.dsp.kernel_oracle` the same
inputs and compares the outputs' bytes (NaN where the oracle is NaN).
The inputs aim at what the vectorised plumbing can get wrong: duplicate
bins (the last read in log order wins, its wavelength too), reads off
the frame grid, empty and one-read windows, signed zeros through the
forward-backward flip, zero and NaN spectra, dead-port subarrays and
forced subspace dimensions.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.channel.params import SPEED_OF_LIGHT
from repro.dsp import build_spectrum_frames_many, uncalibrated
from repro.dsp.correlation import spatial_covariance_stack
from repro.dsp.frames import normalize_pseudospectrum
from repro.dsp.music import masked_spectra_batch, music_spectra_batch
from repro.dsp.snapshots import build_snapshots_many, frame_count
from repro.hardware.llrp import ReaderMeta, ReadLog
from tests.dsp import frames_oracle, kernel_oracle

DWELL_S = 0.4
SLOT_S = 0.025
N_ANT = 4
FREQS_HZ = np.array([902.75e6, 908.25e6, 915.25e6, 927.25e6])
META = ReaderMeta(
    n_antennas=N_ANT,
    slot_s=SLOT_S,
    dwell_s=DWELL_S,
    spacing_m=0.041,
    frequencies_hz=FREQS_HZ,
    reference_channel=0,
)
# floor(6.8 / 0.4) * 0.4 rounds above 6.8, so a window whose first read
# is at 6.8 puts that read one dwell before its own grid origin.
ORIGINS_S = (0.0, 6.8, 13.6)
GRID = np.arange(0.5, 180.5, 1.0)
COMPONENTS = (0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 1e-3, 3.0)


def assert_same_bytes(got: np.ndarray, want: np.ndarray) -> None:
    """Equal shape, dtype and bytes; NaN exactly where ``want`` is NaN."""
    got = np.ascontiguousarray(got)
    want = np.ascontiguousarray(want)
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    if want.dtype.kind in "fc":
        g = got.view(np.float64)
        w = want.view(np.float64)
        nan = np.isnan(w)
        np.testing.assert_array_equal(np.isnan(g), nan)
        assert g[~nan].tobytes() == w[~nan].tobytes()
    else:
        assert got.tobytes() == want.tobytes()


def make_log(reads: list[tuple[int, int, int, float, float, float]], n_tags: int) -> ReadLog:
    """A log of ``(tag, antenna, channel, t, phase, rssi)`` reads, in order."""
    cols = list(zip(*reads)) if reads else [()] * 6
    tag, ant, ch, t, phase, rssi = (np.asarray(c) for c in cols)
    ch = ch.astype(int)
    return ReadLog(
        epcs=tuple(f"tag-{k}" for k in range(n_tags)),
        tag_index=tag.astype(int),
        antenna=ant.astype(int),
        channel=ch,
        frequency_hz=FREQS_HZ[ch],
        timestamp_s=t.astype(np.float64),
        phase_rad=phase.astype(np.float64),
        rssi_dbm=rssi.astype(np.float64),
        meta=META,
    )


@st.composite
def read_logs(draw, n_tags: int, max_reads: int = 40) -> ReadLog:
    """Reads on a few slots so bins collide; may start before its grid."""
    origin = draw(st.sampled_from(ORIGINS_S))
    read = st.tuples(
        st.integers(0, n_tags - 1),
        st.integers(0, N_ANT - 1),
        st.integers(0, FREQS_HZ.size - 1),
        st.integers(0, 60).map(lambda j: origin + j * SLOT_S),
        st.floats(0.0, 6.28),
        st.floats(-80.0, -30.0),
    )
    return make_log(draw(st.lists(read, max_size=max_reads)), n_tags)


@st.composite
def window_batches(draw):
    """1-4 windows of one geometry, repeats included, plus a frame count."""
    n_tags = draw(st.integers(1, 3))
    logs = draw(st.lists(read_logs(n_tags), min_size=1, max_size=3))
    order = draw(st.lists(st.integers(0, len(logs) - 1), min_size=1, max_size=4))
    windows = [logs[i] for i in order]
    n_frames = draw(
        st.one_of(st.integers(1, 3), st.just(max(frame_count(w) for w in windows)))
    )
    return windows, n_frames


class TestBinning:
    @settings(max_examples=150, deadline=None)
    @given(window_batches())
    def test_matches_two_unique_binner(self, batch):
        logs, n_frames = batch
        psis = [uncalibrated(log) for log in logs]
        got = build_snapshots_many(logs, psis, n_frames)
        want = kernel_oracle.build_snapshots_many(logs, psis, n_frames)
        for g, w in zip(got, want):
            assert_same_bytes(g, w)

    def test_duplicates_keep_the_last_read_and_its_wavelength(self):
        # Two reads in one bin on different channels, then the same log
        # as a second window: each window keeps its own last read.
        log = make_log(
            [(0, 1, 0, 0.05, 1.0, -50.0), (0, 1, 3, 0.05, 2.0, -40.0)], n_tags=1
        )
        z, valid, wavelength, _ = build_snapshots_many(
            [log, log], [uncalibrated(log)] * 2, 1
        )
        assert valid.sum() == 2
        for w in range(2):
            assert np.angle(z[w, 0, 0, 0, 1]) == pytest.approx(2.0)
            assert wavelength[w, 0, 0] == SPEED_OF_LIGHT / FREQS_HZ[3]

    def test_read_before_the_grid_is_dropped(self):
        log = make_log(
            [(0, 0, 0, 6.8, 1.0, -50.0), (0, 1, 0, 6.85, 1.0, -50.0)], n_tags=1
        )
        psi = uncalibrated(log)
        _z, valid, _wl, frame_time = build_snapshots_many([log], [psi], 1)
        assert frame_time[0, 0] > 6.8
        assert valid.sum() == 1
        for g, w in zip(
            build_snapshots_many([log], [psi], 1),
            kernel_oracle.build_snapshots_many([log], [psi], 1),
        ):
            assert_same_bytes(g, w)

    def test_empty_batch_raises_like_the_oracle(self):
        for binner in (build_snapshots_many, kernel_oracle.build_snapshots_many):
            with pytest.raises(IndexError):
                binner([], [], 1)


class TestFrames:
    @settings(max_examples=60, deadline=None)
    @given(window_batches(), st.sampled_from([None, (2,), (0,), (1, 3)]))
    def test_pooled_frames_match_per_window_oracle(self, batch, dead):
        logs, n_frames = batch
        if dead is not None:
            logs = [log.select(~np.isin(log.antenna, dead)) for log in logs]
        windows = [(log, uncalibrated(log), n_frames) for log in logs]
        for (log, psi, frames), pooled in zip(
            windows, build_spectrum_frames_many(windows)
        ):
            want = frames_oracle.build_spectrum_frames(log, psi, frames)
            for name, values in want.channels.items():
                assert_same_bytes(pooled.channels[name], values)


def complex_stacks(w: int, k: int, n: int):
    """Complex ``(w, k, n)`` arrays with signed zeros and zero imaginary parts."""
    parts = hnp.arrays(
        np.float64,
        (w, k, n),
        elements=st.one_of(st.sampled_from(COMPONENTS), st.floats(-4.0, 4.0)),
    )
    real_only = hnp.arrays(np.float64, (w, k, n), elements=st.sampled_from((0.0, -0.0)))
    return st.tuples(parts, st.one_of(parts, real_only)).map(
        lambda ri: _complex(*ri)
    )


def _complex(real: np.ndarray, imag: np.ndarray) -> np.ndarray:
    out = np.empty(real.shape, dtype=np.complex128)
    out.real = real
    out.imag = imag
    return out


@st.composite
def snapshot_stacks(draw, min_n: int = 2):
    w = draw(st.integers(1, 6))
    k = draw(st.integers(1, 4))
    n = draw(st.integers(min_n, 4))
    x = draw(complex_stacks(w, k, n))
    valid = draw(hnp.arrays(np.bool_, (w, k, n)))
    # Every window keeps at least one observed entry.
    valid[:, 0, 0] |= ~valid.any(axis=(1, 2))
    return x, valid


class TestCovariance:
    @settings(max_examples=200, deadline=None)
    @given(
        snapshot_stacks(),
        st.booleans(),
        st.booleans(),
        st.sampled_from([1e-6, 0.0, -0.0, 1.0]),
    )
    def test_flip_matches_exchange_matrix(self, stack, masked, fb, loading):
        # loading=-0.0 adds -0.0 to every real part, so the sign of each
        # real zero the forward-backward step leaves reaches the output.
        x, valid = stack
        mask = valid if masked else None
        got = spatial_covariance_stack(x, mask, use_forward_backward=fb, loading=loading)
        want = kernel_oracle.spatial_covariance_stack(
            x, mask, use_forward_backward=fb, loading=loading
        )
        assert_same_bytes(got, want)

    def test_window_without_reads_raises_like_the_oracle(self):
        x = np.ones((2, 2, 3), dtype=np.complex128)
        valid = np.ones(x.shape, dtype=bool)
        valid[1] = False
        for kernel in (spatial_covariance_stack, kernel_oracle.spatial_covariance_stack):
            with pytest.raises(ValueError):
                kernel(x, valid)

    def test_zero_windows(self):
        x = np.zeros((0, 4, 4), dtype=np.complex128)
        assert_same_bytes(
            spatial_covariance_stack(x, np.zeros(x.shape, dtype=bool)),
            kernel_oracle.spatial_covariance_stack(x, np.zeros(x.shape, dtype=bool)),
        )


@st.composite
def music_inputs(draw):
    x, valid = draw(snapshot_stacks())
    w, _k, n = x.shape
    covs = kernel_oracle.spatial_covariance_stack(x, valid)
    wavelengths = np.asarray(
        draw(st.lists(st.sampled_from([0.31, 0.328, 0.332]), min_size=w, max_size=w))
    )
    n_sources = draw(
        st.one_of(
            st.none(),
            st.integers(-1, n + 1),
            st.lists(st.integers(0, n), min_size=w, max_size=w).map(np.asarray),
        )
    )
    elements = draw(
        st.one_of(st.none(), st.sampled_from([(0, 1, 3, 4), (1, 2, 3, 4), (0, 2, 4, 6)]))
    )
    if elements is not None:
        elements = np.asarray(elements[:n])
    return covs, wavelengths, n_sources, elements


class TestMusic:
    @settings(max_examples=150, deadline=None)
    @given(music_inputs())
    def test_sorted_groups_match_dict_groups(self, inputs):
        covs, wavelengths, n_sources, elements = inputs
        got = music_spectra_batch(
            covs, 0.041, wavelengths, angles_deg=GRID, n_sources=n_sources,
            element_indices=elements,
        )
        want = kernel_oracle.music_spectra_batch(
            covs, 0.041, wavelengths, angles_deg=GRID, n_sources=n_sources,
            element_indices=elements,
        )
        for g, w in zip(got, want):
            assert_same_bytes(g, w)

    @settings(max_examples=80, deadline=None)
    @given(
        snapshot_stacks(min_n=4),
        st.sampled_from(
            [
                (True, True, True, True),
                (False, True, True, True),  # uniform survivors: FB on
                (True, False, True, False),  # uniform, gap 2: FB on
                (True, True, False, True),  # ragged survivors: FB off
                (False, True, False, True),
                (True, False, False, True),
            ]
        ),
        st.one_of(st.none(), st.integers(1, 3)),
    )
    def test_dead_port_subarrays(self, stack, liveness, n_sources):
        x, valid = stack
        live = np.asarray(liveness)
        # Each window keeps an observation on a live port.
        valid[:, 0, np.flatnonzero(live)[0]] = True
        wavelengths = np.full(x.shape[0], 0.328)
        got = masked_spectra_batch(
            x, valid, live, 0.041, wavelengths, angles_deg=GRID, n_sources=n_sources
        )
        want = kernel_oracle.masked_spectra_batch(
            x, valid, live, 0.041, wavelengths, angles_deg=GRID, n_sources=n_sources
        )
        for g, w in zip(got, want):
            assert_same_bytes(g, w)

    def test_zero_entries(self):
        covs = np.zeros((0, 4, 4), dtype=np.complex128)
        for g, w in zip(
            music_spectra_batch(covs, 0.041, 0.328),
            kernel_oracle.music_spectra_batch(covs, 0.041, 0.328),
        ):
            assert_same_bytes(g, w)


SPECIAL = (0.0, -0.0, np.nan, np.inf, 1e-300, 5e-324, 1e300, -1.0, 1.0, 0.25)


class TestNormalisation:
    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=8),
            elements=st.one_of(st.sampled_from(SPECIAL), st.floats(0.0, 1e6)),
        )
    )
    def test_in_place_matches_clip(self, spectra):
        with np.errstate(all="ignore"):
            got = normalize_pseudospectrum(spectra)
            want = kernel_oracle.normalize_pseudospectrum(spectra)
        assert_same_bytes(got, want)

    def test_zero_and_nan_rows(self):
        spectra = np.array([np.zeros(6), [np.nan, 1.0, 2.0, 0.0, 0.5, 1.0]])
        got = normalize_pseudospectrum(spectra)
        assert_same_bytes(got, kernel_oracle.normalize_pseudospectrum(spectra))
        np.testing.assert_array_equal(got[0], np.ones(6))
        assert np.isnan(got[1]).all()

    def test_input_is_left_alone(self):
        spectra = np.array([[1.0, 4.0, 0.0]])
        before = spectra.copy()
        normalize_pseudospectrum(spectra)
        np.testing.assert_array_equal(spectra, before)

    def test_zero_rows_and_zero_angles(self):
        no_rows = np.zeros((0, 180))
        assert_same_bytes(
            normalize_pseudospectrum(no_rows),
            kernel_oracle.normalize_pseudospectrum(no_rows),
        )
        for normalise in (normalize_pseudospectrum, kernel_oracle.normalize_pseudospectrum):
            with pytest.raises(ValueError):
                normalise(np.zeros((2, 0)))
