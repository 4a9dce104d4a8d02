"""Runtime numerical sanitizer ("anomaly mode") for the nn/DSP stack.

Silent NaN/Inf propagation is how phase-unwrap and MUSIC
eigen-decomposition bugs hide: a single non-finite phase poisons the
covariance, the pseudospectrum, the feature frames, and finally the
softmax — and the pipeline happily emits a confident wrong label.
:func:`anomaly_detection` arms instrumentation that fails *at the
first stage* the corruption appears, naming it.

While armed, every :class:`repro.nn.module.Module` subclass's
``forward``/``backward`` and the key DSP entry points (phase
calibration, MUSIC, periodogram, spectrum-frame assembly) are wrapped
to detect:

* non-finite values in inputs, outputs, and parameter gradients;
* dtype drift away from :data:`repro.nn.module.DEFAULT_DTYPE`
  (float64) or complex128 — in inputs, outputs, *and parameter
  values*, so a cast-once float32 serve model run outside
  :func:`repro.nn.module.inference_mode` trips at its first layer;
* exploding gradient norms;
* a ``backward`` input-gradient shape that no longer matches the
  shape ``forward`` consumed.

Only classes already imported when the context manager arms are
wrapped; import your model before entering.  The instrumentation is
process-global and restored on exit, so arm it in tests and debugging
sessions, not concurrently from multiple threads.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.analysis.dataflow.shapes import (
    ContractParseError,
    ShapeContract,
    extract_contracts,
)
from repro.nn.module import (
    DEFAULT_DTYPE,
    INFERENCE_DTYPE,
    Module,
    Parameter,
    in_inference_mode,
)

__all__ = [
    "AnomalyError",
    "DEFAULT_COMPLEX_DTYPE",
    "INFERENCE_COMPLEX_DTYPE",
    "anomaly_detection",
]

DEFAULT_COMPLEX_DTYPE = np.dtype(np.complex128)
"""Complex companion of :data:`repro.nn.module.DEFAULT_DTYPE`."""

INFERENCE_COMPLEX_DTYPE = np.dtype(np.complex64)  # reprolint: disable=RPR012 -- sanctioned complex companion of INFERENCE_DTYPE, named once here
"""Complex companion of :data:`repro.nn.module.INFERENCE_DTYPE`.

Accepted by the dtype checks only while :func:`repro.nn.module.inference_mode`
is active on the calling thread.
"""

_FORWARD_SHAPE_ATTR = "_sanitizer_forward_shape"


class AnomalyError(RuntimeError):
    """A numerical anomaly, pinned to the stage that produced it.

    Attributes:
        stage: dotted name of the wrapped function/method that tripped.
        kind: ``non_finite``, ``dtype_drift``, ``exploding_gradient``
            or ``shape_mismatch``.
        detail: human-readable specifics (counts, dtypes, shapes).
    """

    def __init__(self, stage: str, kind: str, detail: str) -> None:
        self.stage = stage
        self.kind = kind
        self.detail = detail
        super().__init__(f"[{kind}] {stage}: {detail}")


@dataclass(frozen=True)
class _Config:
    max_grad_norm: float
    check_dtypes: bool
    check_shapes: bool
    check_contracts: bool


def _check_array(arr: object, stage: str, where: str, cfg: _Config) -> None:
    """Raise on a non-finite or precision-drifted array; ignore the rest."""
    if not isinstance(arr, np.ndarray):
        return
    kind = arr.dtype.kind
    if kind not in "fc":
        return
    bad = int(np.size(arr) - np.count_nonzero(np.isfinite(arr)))
    if bad:
        raise AnomalyError(
            stage, "non_finite", f"{where} contains {bad} non-finite value(s)"
        )
    if not cfg.check_dtypes:
        return
    # Inside inference_mode() the sanctioned narrow pair is also legal —
    # the runtime twin of the RPR012 scope rule.
    if kind == "f" and arr.dtype != DEFAULT_DTYPE:
        if in_inference_mode() and arr.dtype == INFERENCE_DTYPE:
            return
        raise AnomalyError(
            stage, "dtype_drift", f"{where} is {arr.dtype}, expected {DEFAULT_DTYPE}"
        )
    if kind == "c" and arr.dtype != DEFAULT_COMPLEX_DTYPE:
        if in_inference_mode() and arr.dtype == INFERENCE_COMPLEX_DTYPE:
            return
        raise AnomalyError(
            stage,
            "dtype_drift",
            f"{where} is {arr.dtype}, expected {DEFAULT_COMPLEX_DTYPE}",
        )


def _check_norm(arr: np.ndarray, stage: str, where: str, cfg: _Config) -> None:
    norm = float(np.linalg.norm(np.asarray(arr).ravel()))
    if norm > cfg.max_grad_norm:
        raise AnomalyError(
            stage,
            "exploding_gradient",
            f"{where} norm {norm:.3e} exceeds limit {cfg.max_grad_norm:.3e}",
        )


def _walk_module_classes() -> list[type[Module]]:
    classes: list[type[Module]] = [Module]
    stack: list[type[Module]] = [Module]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub not in classes:
                classes.append(sub)
                stack.append(sub)
    return classes


def _wrap_forward(cls: type[Module], orig: Callable, cfg: _Config) -> Callable:
    stage = f"{cls.__module__}.{cls.__qualname__}.forward"

    @functools.wraps(orig)
    def forward(self: Module, *args: object, **kwargs: object) -> object:
        x = args[0] if args else kwargs.get("x")
        _check_array(x, stage, "input", cfg)
        if cfg.check_dtypes:
            # Own parameters only: each wrapped layer checks its own, so
            # a narrow serve model trips at the first layer that runs
            # without paying a full recursive walk per call.  Layers a
            # module runs inline (``Module.fused``) never enter their own
            # wrapper, so their parameters are checked here.
            for attr_name, attr in vars(self).items():
                if isinstance(attr, Parameter):
                    _check_array(
                        attr.value, stage, f"value of {attr.name or attr_name}", cfg
                    )
            for child in self.fused:
                for p in getattr(self, child).parameters():
                    _check_array(p.value, stage, f"value of {p.name or child}", cfg)
        out = orig(self, *args, **kwargs)
        _check_array(out, stage, "output", cfg)
        if isinstance(x, np.ndarray):
            setattr(self, _FORWARD_SHAPE_ATTR, x.shape)
        return out

    return forward


def _wrap_backward(cls: type[Module], orig: Callable, cfg: _Config) -> Callable:
    stage = f"{cls.__module__}.{cls.__qualname__}.backward"

    @functools.wraps(orig)
    def backward(self: Module, *args: object, **kwargs: object) -> object:
        grad = args[0] if args else kwargs.get("grad")
        _check_array(grad, stage, "upstream gradient", cfg)
        out = orig(self, *args, **kwargs)
        _check_array(out, stage, "input gradient", cfg)
        if isinstance(out, np.ndarray):
            _check_norm(out, stage, "input gradient", cfg)
            fwd_shape = getattr(self, _FORWARD_SHAPE_ATTR, None)
            if cfg.check_shapes and fwd_shape is not None and out.shape != fwd_shape:
                raise AnomalyError(
                    stage,
                    "shape_mismatch",
                    f"input gradient shape {out.shape} does not match the "
                    f"forward input shape {fwd_shape}",
                )
        for p in self.parameters():
            pname = p.name or "parameter"
            _check_array(p.grad, stage, f"grad of {pname}", cfg)
            _check_norm(p.grad, stage, f"grad of {pname}", cfg)
        return out

    return backward


def _return_contracts(orig: Callable) -> tuple[ShapeContract, ...]:
    """Parse the wrapped function's documented return contracts.

    Malformed tags are ignored here — the static checker (RPR015)
    reports those; the runtime check only asserts tags that parse.
    """
    try:
        return extract_contracts(getattr(orig, "__doc__", None)).returns
    except ContractParseError:
        return ()


def _check_contract(
    out: object, stage: str, contracts: tuple[ShapeContract, ...]
) -> None:
    """Assert the output shape against the docstring contracts.

    A function may document several return channels; the output passes
    when *any* contract admits its shape.
    """
    arr = out if isinstance(out, np.ndarray) else getattr(out, "spectrum", None)
    if not isinstance(arr, np.ndarray) or not contracts:
        return
    details = []
    for contract in contracts:
        detail = contract.matches(arr.shape)
        if detail is None:
            return
        details.append(detail)
    raise AnomalyError(stage, "contract_violation", details[0])


def _wrap_function(
    orig: Callable, stage: str, result_check: Callable, cfg: _Config
) -> Callable:
    contracts = _return_contracts(orig) if cfg.check_contracts else ()

    @functools.wraps(orig)
    def wrapper(*args: object, **kwargs: object) -> object:
        for i, arg in enumerate(args):
            _check_array(arg, stage, f"input[{i}]", cfg)
        for key, value in kwargs.items():
            _check_array(value, stage, f"input {key!r}", cfg)
        out = orig(*args, **kwargs)
        result_check(out, stage, cfg)
        if contracts:
            _check_contract(out, stage, contracts)
        return out

    return wrapper


def _check_ndarray_result(out: object, stage: str, cfg: _Config) -> None:
    _check_array(out, stage, "output", cfg)


def _check_music_result(out: object, stage: str, cfg: _Config) -> None:
    _check_array(getattr(out, "spectrum", None), stage, "pseudospectrum", cfg)
    _check_array(getattr(out, "eigenvalues", None), stage, "eigenvalues", cfg)


def _check_tuple_result(out: tuple, stage: str, cfg: _Config) -> None:
    for i, item in enumerate(out):
        _check_array(item, stage, f"output[{i}]", cfg)


def _check_frames_result(out: object, stage: str, cfg: _Config) -> None:
    for frames in out if isinstance(out, list) else [out]:
        for name, channel in getattr(frames, "channels", {}).items():
            _check_array(channel, stage, f"channel {name!r}", cfg)


def _patch_everywhere(
    orig: Callable, wrapped: Callable, undo: list[Callable[[], None]]
) -> None:
    """Replace every reference to ``orig`` across loaded repro modules.

    Functions like ``music_pseudospectrum`` are imported by name into
    sibling modules (``repro.dsp.frames``, the ``repro.dsp`` package
    namespace); patching only the defining module would leave those
    call sites unwrapped.
    """
    for module in list(sys.modules.values()):
        if module is None or not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, wrapped)
                undo.append(
                    lambda m=module, a=attr, o=orig: setattr(m, a, o)
                )


def _arm_modules(cfg: _Config, undo: list[Callable[[], None]]) -> None:
    for cls in _walk_module_classes():
        if "forward" in cls.__dict__:
            orig = cls.__dict__["forward"]
            setattr(cls, "forward", _wrap_forward(cls, orig, cfg))
            undo.append(lambda c=cls, o=orig: setattr(c, "forward", o))
        if "backward" in cls.__dict__:
            orig = cls.__dict__["backward"]
            setattr(cls, "backward", _wrap_backward(cls, orig, cfg))
            undo.append(lambda c=cls, o=orig: setattr(c, "backward", o))


def _arm_dsp(cfg: _Config, undo: list[Callable[[], None]]) -> None:
    from repro.dsp import calibration, frames, music, periodogram

    # The stacked kernels are what featurisation, streaming and the
    # fleet run; the single-item names are batch-of-one slices of them,
    # wrapped too so a caller of a slice sees the slice's stage name.
    targets: list[tuple[Callable, str, Callable]] = [
        (music.music_spectra_batch, "repro.dsp.music.music_spectra_batch", _check_tuple_result),
        (
            music.masked_spectra_batch,
            "repro.dsp.music.masked_spectra_batch",
            _check_tuple_result,
        ),
        (music.music_pseudospectrum, "repro.dsp.music.music_pseudospectrum", _check_music_result),
        (
            music.masked_pseudospectrum,
            "repro.dsp.music.masked_pseudospectrum",
            _check_music_result,
        ),
        (
            periodogram.spatial_periodogram_batch,
            "repro.dsp.periodogram.spatial_periodogram_batch",
            _check_ndarray_result,
        ),
        (
            periodogram.periodogram_psd,
            "repro.dsp.periodogram.periodogram_psd",
            _check_ndarray_result,
        ),
        (
            periodogram.spatial_periodogram,
            "repro.dsp.periodogram.spatial_periodogram",
            _check_ndarray_result,
        ),
        (
            frames.build_spectrum_frames_many,
            "repro.dsp.frames.build_spectrum_frames_many",
            _check_frames_result,
        ),
        (
            frames.build_spectrum_frames,
            "repro.dsp.frames.build_spectrum_frames",
            _check_frames_result,
        ),
        (calibration.uncalibrated, "repro.dsp.calibration.uncalibrated", _check_ndarray_result),
    ]
    for orig, stage, checker in targets:
        _patch_everywhere(orig, _wrap_function(orig, stage, checker, cfg), undo)

    orig_calibrate = calibration.PhaseCalibrator.calibrate
    wrapped = _wrap_function(
        orig_calibrate,
        "repro.dsp.calibration.PhaseCalibrator.calibrate",
        _check_ndarray_result,
        cfg,
    )
    setattr(calibration.PhaseCalibrator, "calibrate", wrapped)
    undo.append(
        lambda: setattr(calibration.PhaseCalibrator, "calibrate", orig_calibrate)
    )


_armed = False


@contextmanager
def anomaly_detection(
    max_grad_norm: float = 1e6,
    check_dtypes: bool = True,
    check_shapes: bool = True,
    check_contracts: bool = False,
    wrap_nn: bool = True,
    wrap_dsp: bool = True,
) -> Iterator[None]:
    """Arm the runtime sanitizer for the enclosed block.

    Args:
        max_grad_norm: gradient-norm ceiling before an
            ``exploding_gradient`` anomaly is raised.
        check_dtypes: flag drift from float64/complex128.  Inside an
            active :func:`repro.nn.module.inference_mode` scope the
            sanctioned narrow pair (float32/complex64) is also
            accepted.
        check_shapes: flag forward/backward shape disagreements.
        check_contracts: additionally assert wrapped DSP outputs
            against the ``shape: (...)`` contracts parsed from their
            own docstrings (the runtime twin of lint rule RPR015).
            Opt-in because it re-parses docstrings at arm time.
        wrap_nn: instrument ``Module.forward``/``backward`` of every
            imported subclass.
        wrap_dsp: instrument calibration, MUSIC, periodogram, and
            spectrum-frame entry points.

    Raises:
        AnomalyError: (from the wrapped code) at the first stage a
            numerical anomaly appears.  Contract violations use
            ``kind="contract_violation"``.

    Nested activations are no-ops: the outermost context owns the
    instrumentation.
    """
    global _armed
    if _armed:
        yield
        return
    cfg = _Config(
        max_grad_norm=max_grad_norm,
        check_dtypes=check_dtypes,
        check_shapes=check_shapes,
        check_contracts=check_contracts,
    )
    undo: list[Callable[[], None]] = []
    _armed = True
    try:
        if wrap_nn:
            _arm_modules(cfg, undo)
        if wrap_dsp:
            _arm_dsp(cfg, undo)
        yield
    finally:
        for restore in reversed(undo):
            restore()
        _armed = False
