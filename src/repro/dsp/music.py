"""MUSIC pseudospectrum estimation (Section III-C.1, Eq. 7-12).

MUltiple SIgnal Classification splits the spatial covariance into
signal and noise subspaces and scans a steering vector over candidate
angles; the pseudospectrum peaks where the steering vector falls inside
the signal subspace (Eq. 12).

One backscatter-specific twist: phases here live in the *doubled*
domain (round-trip propagation x2, pi-ambiguity folding x2), so the
per-element steering phase is ``4 * 2*pi*D*cos(theta)/lambda`` rather
than the textbook ``2*pi*D*cos(theta)/lambda``.  With the paper's
D = lambda/8 spacing this lands exactly on the unambiguous half-
wavelength design point.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.dsp.correlation import spatial_covariance_stack
from repro.obs.metrics import counter
from repro.obs.tracing import span

PHASE_MULTIPLIER = 4.0
"""Round-trip (x2) times ambiguity folding (x2)."""

DEFAULT_ANGLES_DEG = np.arange(0.5, 180.5, 1.0)
"""The paper's 180-point angle grid."""

STEERING_CACHE_MAXSIZE = 256
"""Upper bound on cached steering matrices (LRU eviction beyond it).

A session touches one angle grid, one array geometry and one channel
table (~50 carriers), plus the occasional degraded-subarray layout, so
256 entries hold every matrix a real deployment ever asks for while
keeping worst-case memory at a few hundred 180xN complex matrices.
"""

_steering_cache: "OrderedDict[tuple, np.ndarray]" = OrderedDict()

_steering_cache_lock = threading.Lock()
"""Guards every hit/insert/evict mutation of the LRU bookkeeping —
fleet shards hammer the cache from concurrent threads, and an unlocked
``move_to_end`` racing a ``popitem`` corrupts the ordered dict."""


def steering_matrix(
    angles_deg: np.ndarray,
    n_antennas: int,
    spacing_m: float,
    wavelength_m: float,
    phase_multiplier: float = PHASE_MULTIPLIER,
    element_indices: np.ndarray | None = None,
) -> np.ndarray:
    """Array steering vectors (Eq. 8) for a grid of angles.

    Args:
        angles_deg: candidate arrival angles, degrees from the array
            axis.
        n_antennas: number of ULA elements.
        spacing_m: element spacing.
        wavelength_m: carrier wavelength.
        phase_multiplier: phase-per-metre multiplier of the measurement
            domain (4 for calibrated doubled backscatter phases).
        element_indices: positions (in units of ``spacing_m``) of the
            elements actually used — a *sparse* subarray when ports are
            dead.  Defaults to the full ULA ``0..n_antennas-1``; when
            given, its length must be ``n_antennas``.

    Returns:
        ``(N, A)`` complex matrix, one column per angle.
    """
    angles = np.deg2rad(np.asarray(angles_deg, dtype=np.float64))
    per_element = (
        phase_multiplier * 2.0 * np.pi * spacing_m * np.cos(angles) / wavelength_m
    )
    if element_indices is None:
        idx = np.arange(n_antennas)[:, None]
    else:
        idx = np.asarray(element_indices, dtype=np.float64)[:, None]
        if idx.shape[0] != n_antennas:
            raise ValueError("element_indices must match n_antennas")
    # Sign convention: element i sits at +i*D along the array axis, so a
    # source at angle theta (measured from that axis) is *closer* to
    # higher-index elements by i*D*cos(theta); the measured propagation
    # phase -k*d therefore *grows* with i.
    return np.exp(+1j * idx * per_element[None, :])


def _steering_key(
    angles_deg: np.ndarray,
    n_antennas: int,
    spacing_m: float,
    wavelength_m: float,
    phase_multiplier: float,
    element_indices: np.ndarray | None,
) -> tuple:
    grid = np.ascontiguousarray(angles_deg, dtype=np.float64)
    elements = (
        None
        if element_indices is None
        else np.ascontiguousarray(element_indices, dtype=np.float64).tobytes()
    )
    return (
        grid.tobytes(),
        int(n_antennas),
        float(spacing_m),
        float(wavelength_m),
        float(phase_multiplier),
        elements,
    )


def cached_steering_matrix(
    angles_deg: np.ndarray,
    n_antennas: int,
    spacing_m: float,
    wavelength_m: float,
    phase_multiplier: float = PHASE_MULTIPLIER,
    element_indices: np.ndarray | None = None,
) -> np.ndarray:
    """Memoised :func:`steering_matrix` (bounded LRU, read-only result).

    The hot path evaluates the same ``(grid, geometry, carrier)``
    combination for every frame of every window — the matrix only
    depends on the dwell's carrier, not on the data — so the 180xN
    complex-exponential build is paid once per distinct key instead of
    once per frame.  The cache is bounded at
    :data:`STEERING_CACHE_MAXSIZE` entries with least-recently-used
    eviction, so adversarial inputs (randomised grids, sweeping
    carriers) cannot grow it without bound.

    Returns:
        The same ``(N, A)`` complex matrix :func:`steering_matrix`
        produces, marked read-only because it is shared across callers.
    """
    key = _steering_key(
        angles_deg, n_antennas, spacing_m, wavelength_m, phase_multiplier,
        element_indices,
    )
    with _steering_cache_lock:
        hit = _steering_cache.get(key)
        if hit is not None:
            _steering_cache.move_to_end(key)
            return hit
    # Build outside the lock: the matrix is pure in its key, so two
    # threads racing the same miss waste one build, never correctness.
    a = steering_matrix(
        angles_deg, n_antennas, spacing_m, wavelength_m, phase_multiplier,
        element_indices=element_indices,
    )
    a.setflags(write=False)
    with _steering_cache_lock:
        winner = _steering_cache.setdefault(key, a)
        _steering_cache.move_to_end(key)
        while len(_steering_cache) > STEERING_CACHE_MAXSIZE:
            _steering_cache.popitem(last=False)
    return winner


def steering_cache_info() -> dict[str, int]:
    """Current size and capacity of the steering-matrix cache."""
    with _steering_cache_lock:
        return {
            "size": len(_steering_cache),
            "maxsize": STEERING_CACHE_MAXSIZE,
        }


def clear_steering_cache() -> None:
    """Drop every cached steering matrix (tests and benchmarks)."""
    with _steering_cache_lock:
        _steering_cache.clear()


DEFAULT_GAP_RATIO = 0.08
"""Eigenvalue-gap threshold of :func:`estimate_n_sources`."""


def estimate_n_sources(eigenvalues: np.ndarray) -> int | np.ndarray:
    """Signal-subspace dimension from the eigenvalue profile.

    Counts eigenvalues above :data:`DEFAULT_GAP_RATIO` of the largest
    — a simple, robust rule for small arrays (MDL/AIC need more
    snapshots than a 4-element dwell provides).  The count is clipped
    to ``[1, N-1]``.

    Args:
        eigenvalues: one profile ``(N,)`` or a stack ``(W, N)``.

    Returns:
        An int for one profile, a ``(W,)`` int array for a stack.
    """
    lam = np.sort(np.abs(np.asarray(eigenvalues)), axis=-1)[..., ::-1]
    n = lam.shape[-1]
    counts = np.sum(lam > DEFAULT_GAP_RATIO * lam[..., :1], axis=-1)
    dims = np.clip(counts, 1, max(1, n - 1))
    return int(dims) if dims.ndim == 0 else dims


@dataclass(frozen=True)
class MusicResult:
    """Pseudospectrum plus the subspace split that produced it.

    Attributes:
        angles_deg: the evaluation grid.
        spectrum: pseudospectrum values (Eq. 12), same length.
        n_sources: estimated signal-subspace dimension.
        eigenvalues: covariance eigenvalues, descending.
    """

    angles_deg: np.ndarray
    spectrum: np.ndarray
    n_sources: int
    eigenvalues: np.ndarray

    def peaks(self, max_peaks: int = 5) -> list[tuple[float, float]]:
        """Local maxima as ``(angle_deg, power)``, strongest first.

        A flat plateau (a run of equal values higher than both
        neighbouring values) counts as *one* peak, reported at the
        run's centroid index, and a maximum sitting on a grid endpoint
        is reported too — the naive ``s[i-1] <= s[i] >= s[i+1]`` scan
        would emit every plateau sample separately and could never see
        an endpoint.
        """
        s = np.asarray(self.spectrum, dtype=np.float64)
        n = s.size
        if n == 0:
            return []
        # Run-length encode equal-value runs, then keep runs strictly
        # above both neighbouring runs (a missing neighbour at a grid
        # endpoint never disqualifies).
        boundaries = np.flatnonzero(np.diff(s) != 0.0) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [n]))  # exclusive
        idx: list[int] = []
        for lo, hi in zip(starts, ends):
            value = s[lo]
            if lo > 0 and s[lo - 1] >= value:
                continue
            if hi < n and s[hi] >= value:
                continue
            idx.append(int((lo + hi - 1) // 2))
        idx.sort(key=lambda i: -s[i])
        return [(float(self.angles_deg[i]), float(s[i])) for i in idx[:max_peaks]]


def music_pseudospectrum(
    covariance: np.ndarray,
    spacing_m: float,
    wavelength_m: float,
    angles_deg: np.ndarray | None = None,
    n_sources: int | None = None,
    phase_multiplier: float = PHASE_MULTIPLIER,
    element_indices: np.ndarray | None = None,
) -> MusicResult:
    """The MUSIC pseudospectrum of one covariance matrix.

    A batch of one of :func:`music_spectra_batch`, wrapped in a
    :class:`MusicResult`.

    Args:
        covariance: ``(N, N)`` Hermitian spatial covariance.
        spacing_m: array element spacing.
        wavelength_m: carrier wavelength of the dwell.
        angles_deg: evaluation grid (paper default: 180 angles).
        n_sources: force the signal-subspace dimension; estimated from
            the eigenvalue gap when None.
        phase_multiplier: see :func:`steering_matrix`.
        element_indices: physical positions of the covariance's
            elements, for a covariance already shrunk to the *live*
            ports of a degraded array (see
            :func:`masked_pseudospectrum`).  None means the full
            contiguous ULA.

    Returns:
        A :class:`MusicResult` whose spectrum has shape: ``(A,)`` for
        ``A`` grid angles (paper default 180).

    Raises:
        ValueError: for a non-square covariance.
    """
    r = np.asarray(covariance, dtype=np.complex128)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError("covariance must be square")
    grid = DEFAULT_ANGLES_DEG if angles_deg is None else np.asarray(angles_deg)
    spectra, dims, eigvals = music_spectra_batch(
        r[None],
        spacing_m,
        wavelength_m,
        angles_deg=grid,
        n_sources=n_sources,
        phase_multiplier=phase_multiplier,
        element_indices=element_indices,
    )
    return MusicResult(
        angles_deg=np.asarray(grid, dtype=np.float64),
        spectrum=spectra[0],
        n_sources=int(dims[0]),
        eigenvalues=eigvals[0],
    )


def music_spectra_batch(
    covariances: np.ndarray,
    spacing_m: float,
    wavelength_m: float | np.ndarray,
    angles_deg: np.ndarray | None = None,
    n_sources: int | np.ndarray | None = None,
    phase_multiplier: float = PHASE_MULTIPLIER,
    element_indices: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The MUSIC kernel: pseudospectra of a stack of covariances.

    Splits each covariance into signal and noise subspaces (one stacked
    ``np.linalg.eigh``, eigenvalues sorted descending) and scans the
    steering vectors against the noise subspace (Eq. 12).  The noise
    projection runs as one matmul per *distinct* ``(subspace dim,
    wavelength)`` pair rather than per entry.  Cross-stream serving
    pools every (tag, dwell) of every window of every stream into this
    call, so the entry count reaches the thousands while hop sequences
    revisit the same ~50 carriers — grouping turns thousands of 4x180
    matmuls into dozens of stacked ones.

    Args:
        covariances: ``(W, N, N)`` Hermitian covariance stack.
        spacing_m: array element spacing (shared by the batch).
        wavelength_m: scalar or ``(W,)`` per-entry carrier wavelength
            (frequency hopping changes the carrier per dwell).
        angles_deg: evaluation grid shared by the batch.
        n_sources: forced subspace dimension — a scalar or ``(W,)``
            per entry — or None to estimate per entry from the
            eigenvalue gap (:func:`estimate_n_sources`).
        phase_multiplier: see :func:`steering_matrix`.
        element_indices: physical element positions (shared), for
            covariances already shrunk to a degraded subarray.

    Returns:
        ``(spectra, n_sources, eigenvalues)`` with shapes ``(W, A)``,
        ``(W,)`` and ``(W, N)`` — eigenvalues sorted descending.

    Raises:
        ValueError: for a non-``(W, N, N)`` stack.
    """
    r = np.asarray(covariances, dtype=np.complex128)
    if r.ndim != 3 or r.shape[1] != r.shape[2]:
        raise ValueError("covariances must be a (W, N, N) stack")
    n_windows, n = r.shape[0], r.shape[1]
    grid = DEFAULT_ANGLES_DEG if angles_deg is None else np.asarray(angles_deg)
    wavelengths = np.broadcast_to(
        np.asarray(wavelength_m, dtype=np.float64), (n_windows,)
    )
    if n_windows == 0:
        return np.empty((0, grid.size)), np.empty(0, dtype=int), np.empty((0, n))
    with span("dsp.music.batch", windows=n_windows, elements=n):
        eigvals, eigvecs = np.linalg.eigh(r)
        # eigh returns ascending order; subspaces are split descending.
        eigvals = eigvals[:, ::-1].real
        eigvecs = eigvecs[:, :, ::-1]
        if n_sources is None:
            dims = estimate_n_sources(eigvals)
        else:
            forced = np.broadcast_to(
                np.asarray(n_sources, dtype=np.int64), (n_windows,)
            )
            dims = np.clip(forced, 1, max(1, n - 1))
        # Entries sorted by (dim, wavelength): each group is one run.
        order = np.lexsort((wavelengths, dims))
        dims_sorted = np.asarray(dims)[order]
        wl_sorted = wavelengths[order]
        starts = np.flatnonzero(
            np.concatenate(
                ([True], (dims_sorted[1:] != dims_sorted[:-1])
                 | (wl_sorted[1:] != wl_sorted[:-1]))
            )
        )
        ends = np.append(starts[1:], n_windows)
        vecs_sorted = eigvecs[order]  # (W, N, N), columns descending
        spectra = np.empty((n_windows, grid.size))
        for lo, hi in zip(starts.tolist(), ends.tolist()):
            m = int(dims_sorted[lo])
            a = cached_steering_matrix(
                grid, n, spacing_m, float(wl_sorted[lo]), phase_multiplier,
                element_indices=element_indices,
            )
            # conj() copies the noise columns C-contiguous.  Keep that
            # operand layout: BLAS picks its kernel by layout, and a
            # strided view changes the last bits of 2- and 3-element
            # subarray spectra.
            noise = vecs_sorted[lo:hi, :, m:].conj()  # (G, N, N-m)
            proj = np.matmul(noise.transpose(0, 2, 1), a)  # (G, N-m, A)
            power = np.abs(proj)  # (G, N-m, A)
            np.square(power, out=power)
            denom = power.sum(axis=1)
            np.maximum(denom, 1e-12, out=denom)
            np.divide(1.0, denom, out=denom)
            spectra[order[lo:hi]] = denom
    return spectra, np.asarray(dims, dtype=int), eigvals


def masked_spectra_batch(
    snapshots: np.ndarray,
    valid: np.ndarray,
    liveness: np.ndarray,
    spacing_m: float,
    wavelength_m: float | np.ndarray,
    angles_deg: np.ndarray | None = None,
    n_sources: int | np.ndarray | None = None,
    phase_multiplier: float = PHASE_MULTIPLIER,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """MUSIC over the live subarray of a degraded array, for a stack of dwells.

    Instead of silently ingesting zero columns for dead ports (which
    biases the covariance and plants spurious nulls), the correlation
    matrices are shrunk to the surviving elements and the steering
    vectors are evaluated at their true, possibly non-contiguous
    positions.  With every port live this is exactly the full-array
    pipeline: no column copy and ``element_indices=None``.

    Args:
        snapshots: ``(W, K, N)`` complex snapshots over the *full*
            array.
        valid: ``(W, K, N)`` observation mask.
        liveness: ``(N,)`` port-liveness mask shared by the stack; at
            least two ports must be live for an angle spectrum to
            exist.
        spacing_m: full-array element spacing.
        wavelength_m: scalar or ``(W,)`` carrier wavelength.
        angles_deg: evaluation grid.
        n_sources: forced signal-subspace dimension (scalar or
            ``(W,)``).
        phase_multiplier: see :func:`steering_matrix`.

    Returns:
        ``(spectra, n_sources, eigenvalues)`` as
        :func:`music_spectra_batch` returns them; spectra are
        ``(W, A)`` regardless of how many ports survive.

    Raises:
        ValueError: when fewer than two ports are live.
    """
    live = np.asarray(liveness, dtype=bool)
    if int(live.sum()) < 2:
        raise ValueError("need at least two live ports for AoA")
    indices = None
    uniform = True
    if not live.all():
        counter("dsp.music.masked_total").inc(len(snapshots))
        indices = np.flatnonzero(live)
        snapshots = np.asarray(snapshots)[:, :, indices]
        valid = np.asarray(valid)[:, :, indices]
        # Forward-backward averaging requires a mirror-symmetric element
        # layout; a ragged surviving subarray (e.g. ports 0, 1, 3) is
        # not, so FB is only kept when the survivors stay uniformly
        # spaced.
        gaps = np.diff(indices)
        uniform = bool(gaps.size == 0 or np.all(gaps == gaps[0]))
    covs = spatial_covariance_stack(
        snapshots, valid, use_forward_backward=uniform
    )
    return music_spectra_batch(
        covs,
        spacing_m,
        wavelength_m,
        angles_deg=angles_deg,
        n_sources=n_sources,
        phase_multiplier=phase_multiplier,
        element_indices=indices,
    )


def masked_pseudospectrum(
    snapshots: np.ndarray,
    valid: np.ndarray,
    liveness: np.ndarray,
    spacing_m: float,
    wavelength_m: float,
    angles_deg: np.ndarray | None = None,
    n_sources: int | None = None,
    phase_multiplier: float = PHASE_MULTIPLIER,
) -> MusicResult:
    """MUSIC over the live subarray of one degraded dwell.

    A batch of one of :func:`masked_spectra_batch`.

    Args:
        snapshots: ``(K, N)`` complex snapshots over the *full* array.
        valid: ``(K, N)`` observation mask.
        liveness: ``(N,)`` port-liveness mask; at least two ports must
            be live for an angle spectrum to exist.
        spacing_m: full-array element spacing.
        wavelength_m: carrier wavelength.
        angles_deg: evaluation grid.
        n_sources: forced signal-subspace dimension.
        phase_multiplier: see :func:`steering_matrix`.

    Returns:
        A :class:`MusicResult` whose spectrum has shape: ``(A,)`` for
        ``A`` grid angles, regardless of how many ports survive.

    Raises:
        ValueError: when fewer than two ports are live.
    """
    grid = DEFAULT_ANGLES_DEG if angles_deg is None else np.asarray(angles_deg)
    spectra, dims, eigvals = masked_spectra_batch(
        np.asarray(snapshots)[None],
        np.asarray(valid)[None],
        liveness,
        spacing_m,
        wavelength_m,
        angles_deg=grid,
        n_sources=n_sources,
        phase_multiplier=phase_multiplier,
    )
    return MusicResult(
        angles_deg=np.asarray(grid, dtype=np.float64),
        spectrum=spectra[0],
        n_sources=int(dims[0]),
        eigenvalues=eigvals[0],
    )
