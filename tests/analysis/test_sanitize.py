"""Runtime sanitizer: anomalies are pinned to the offending stage, and
clean nn/DSP runs raise nothing (no false positives).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.sanitize import AnomalyError, anomaly_detection
from repro.core import M2AINet, M2AIPipeline
from repro.core.model import ConvBranch
from repro.core.streaming import StreamingIdentifier
from repro.dsp import calibration, music, periodogram
from repro.dsp.calibration import PhaseCalibrator
from repro.dsp.features import M2AIFeaturizer
from repro.dsp.frames import build_spectrum_frames
from repro.faults import FaultSpec, apply_faults
from repro.nn.conv import CHUNK, Conv1d
from repro.nn.layers import Dense, ReLU
from repro.nn.module import Module, Sequential
from repro.nn.recurrent import LSTM
from tests.core.test_trainer_pipeline import TINY_CFG
from tests.nn.gradcheck import check_module_gradients

NAN_PHASE_NOISE = FaultSpec(kind="phase_noise", severity=1.0, magnitude=float("nan"))


@pytest.fixture(scope="module")
def calibrator(small_log) -> PhaseCalibrator:
    return PhaseCalibrator.fit(small_log)


@pytest.fixture()
def nan_log(small_log):
    """The calibration-ablation nightmare: every phase driven to NaN."""
    corrupted = apply_faults(small_log, [NAN_PHASE_NOISE], seed=3)
    assert not np.isfinite(corrupted.phase_rad).any()
    return corrupted


class TestStreamingPinpointsInjection:
    def test_nan_phase_noise_is_pinned_to_calibration(self, calibrator, nan_log):
        pipeline = M2AIPipeline()
        pipeline.model = object()  # identify() bails into calibrate before any predict
        identifier = StreamingIdentifier(
            pipeline=pipeline, calibrator=calibrator, window_s=2.0, min_reads=4
        )
        with anomaly_detection():
            with pytest.raises(AnomalyError) as excinfo:
                identifier.identify(nan_log)
        assert excinfo.value.kind == "non_finite"
        assert "PhaseCalibrator.calibrate" in excinfo.value.stage

    def test_uncalibrated_path_is_pinned_too(self, nan_log):
        # NB: call through the module — the sanitizer patches every
        # repro-internal alias, but a from-import captured by a caller
        # outside repro (like this test) keeps the unwrapped function.
        with anomaly_detection():
            with pytest.raises(AnomalyError) as excinfo:
                calibration.uncalibrated(nan_log)
        assert excinfo.value.kind == "non_finite"
        assert excinfo.value.stage.endswith("uncalibrated")

    def test_disarmed_after_exit(self, calibrator, nan_log):
        with anomaly_detection():
            pass
        psi = calibrator.calibrate(nan_log)  # silent again: no wrapper left armed
        assert not np.isfinite(psi).any()

    def test_clean_stream_has_no_false_positives(self, calibrator, small_log):
        with anomaly_detection():
            psi = calibrator.calibrate(small_log)
            frames = build_spectrum_frames(small_log, psi, n_frames=4)
        assert all(np.isfinite(v).all() for v in frames.channels.values())


class TestDspWrappers:
    def test_music_rejects_nan_covariance_by_stage(self):
        cov = np.full((4, 4), np.nan, dtype=np.complex128)
        with anomaly_detection():
            with pytest.raises(AnomalyError) as excinfo:
                music.music_pseudospectrum(cov, spacing_m=0.04, wavelength_m=0.33)
        assert excinfo.value.kind == "non_finite"
        assert "music_pseudospectrum" in excinfo.value.stage

    def test_stacked_kernels_reject_nan_input_by_stage(self):
        # Call through the modules: the sanitizer patches repro-internal
        # aliases, not names a caller outside repro imported itself.
        covs = np.full((2, 4, 4), np.nan, dtype=np.complex128)
        snapshots = np.full((2, 3, 4), np.nan, dtype=np.complex128)
        with anomaly_detection():
            with pytest.raises(AnomalyError) as music_exc:
                music.music_spectra_batch(covs, spacing_m=0.04, wavelength_m=0.33)
            with pytest.raises(AnomalyError) as period_exc:
                periodogram.spatial_periodogram_batch(snapshots)
        assert music_exc.value.kind == "non_finite"
        assert "music_spectra_batch" in music_exc.value.stage
        assert period_exc.value.kind == "non_finite"
        assert "spatial_periodogram_batch" in period_exc.value.stage

    def test_transform_many_pins_nan_phases_to_a_dsp_stage(self, calibrator, nan_log):
        psi = calibrator.calibrate(nan_log)  # unarmed: NaN flows on silently
        with anomaly_detection():
            with pytest.raises(AnomalyError) as excinfo:
                M2AIFeaturizer().transform_many([(nan_log, psi, 4)])
        assert excinfo.value.kind == "non_finite"
        assert excinfo.value.stage.startswith("repro.dsp.")

    def test_music_clean_covariance_passes(self, small_log, calibrator):
        psi = calibrator.calibrate(small_log)
        frames = build_spectrum_frames(small_log, psi, n_frames=2)
        with anomaly_detection():
            again = build_spectrum_frames(small_log, psi, n_frames=2)
        for name, channel in frames.channels.items():
            np.testing.assert_allclose(channel, again.channels[name])


class TestModuleWrappers:
    def test_non_finite_input_named_by_layer(self):
        rng = np.random.default_rng(0)
        net = Sequential(Dense(4, 3, rng), ReLU())
        x = np.ones((2, 4))
        x[0, 0] = np.inf
        with anomaly_detection():
            with pytest.raises(AnomalyError) as excinfo:
                net.forward(x)
        assert excinfo.value.kind == "non_finite"

    def test_dtype_drift_flagged(self):
        rng = np.random.default_rng(0)
        layer = Dense(4, 3, rng)
        x32 = np.ones((2, 4), dtype=np.float64).astype("float32")
        with anomaly_detection():
            with pytest.raises(AnomalyError) as excinfo:
                layer.forward(x32)
        assert excinfo.value.kind == "dtype_drift"
        assert "Dense.forward" in excinfo.value.stage

    def test_exploding_gradient_flagged(self):
        rng = np.random.default_rng(0)
        layer = Dense(4, 3, rng)
        x = np.ones((2, 4))
        with anomaly_detection(max_grad_norm=1e-6):
            y = layer.forward(x)
            with pytest.raises(AnomalyError) as excinfo:
                layer.backward(np.ones_like(y))
        assert excinfo.value.kind == "exploding_gradient"

    def test_forward_backward_shape_mismatch_flagged(self):
        class BadShape(Module):
            def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
                return x * 2.0

            def backward(self, grad: np.ndarray) -> np.ndarray:
                return grad[..., :1]

        layer = BadShape()
        x = np.ones((2, 4))
        with anomaly_detection():
            y = layer.forward(x)
            with pytest.raises(AnomalyError) as excinfo:
                layer.backward(np.ones_like(y))
        assert excinfo.value.kind == "shape_mismatch"
        assert "BadShape.backward" in excinfo.value.stage

    def test_nan_in_fused_conv_weight_named_by_branch(self):
        # ConvBranch runs its convolutions inline (Conv1d.forward never
        # runs), so its own wrapper checks the fused layers' weights.
        net = M2AINet({"pseudo": (2, 40), "period": (2, 4)}, 3, cfg=TINY_CFG)
        pseudo = net.branches[net.channel_names.index("pseudo")]
        assert isinstance(pseudo, ConvBranch)
        pseudo.conv1.weight.value[0, 0, 0] = np.nan
        rng = np.random.default_rng(0)
        inputs = {
            "pseudo": rng.normal(size=(2, 3, 2, 40)),
            "period": rng.normal(size=(2, 3, 2, 4)),
        }
        with anomaly_detection():
            with pytest.raises(AnomalyError) as excinfo:
                net.forward(inputs, training=True)
        assert excinfo.value.kind == "non_finite"
        assert excinfo.value.stage == "repro.core.model.ConvBranch.forward"
        assert "pseudo.conv1.W" in excinfo.value.detail

    def test_nested_activation_is_single_armed(self):
        rng = np.random.default_rng(0)
        layer = Dense(2, 2, rng)
        original_forward = Dense.__dict__["forward"]
        with anomaly_detection():
            assert Dense.__dict__["forward"] is not original_forward
            with anomaly_detection():
                layer.forward(np.ones((1, 2)))
        # fully restored after the outermost exit, even when nested
        assert Dense.__dict__["forward"] is original_forward
        layer.forward(np.full((1, 2), np.nan))  # disarmed: must not raise


class TestGradcheckUnderAnomalyMode:
    """The recurrent/conv layers pass gradcheck with the sanitizer armed:
    correct gradients AND zero false positives from the tripwires."""

    def test_lstm_gradcheck(self):
        rng = np.random.default_rng(5)
        with anomaly_detection():
            errors = check_module_gradients(
                LSTM(3, 4, rng), rng.normal(0.0, 1.0, (2, 5, 3)), rng
            )
        assert max(errors.values()) < 1e-6

    def test_conv_branch_gradcheck(self):
        rng = np.random.default_rng(7)
        with anomaly_detection():
            errors = check_module_gradients(
                ConvBranch(2, 40, TINY_CFG, rng, "pseudo"),
                rng.normal(0.0, 1.0, (CHUNK + 2, 2, 40)),
                rng,
            )
        assert max(errors.values()) < 1e-6

    def test_conv_gradcheck(self):
        rng = np.random.default_rng(6)
        with anomaly_detection():
            errors = check_module_gradients(
                Conv1d(2, 3, 3, rng, stride=1, padding=1),
                rng.normal(0.0, 1.0, (2, 2, 8)),
                rng,
            )
        assert max(errors.values()) < 1e-6
