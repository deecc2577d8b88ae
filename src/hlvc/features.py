"""Video-level feature normalization.

Features arrive pooled, one vector per video: a converter of frame-level
data pools before it writes a shard, and ``data.video_feature`` appends the
audio vector. The (N, D) feature matrix is normalized with either
per-dimension standardization ("znorm") or PCA whitening ("pca"), optionally
followed by L2 normalization. Fitting sums ``BLOCK_ROWS``-row slices of the
matrix, such as the float32 view ``data.Shard.features`` returns, upcast to
float64 and shifted by its first row.
"""

from __future__ import annotations

import dataclasses

import numpy as np

DEFAULT_EPSILON = 1e-6

# Norm floor below which a vector is considered degenerate and left unscaled.
L2_FLOOR = 1e-12

NORMALIZER_KINDS = ("znorm", "pca")

# Rows per block wherever a shard's videos are walked in blocks (the
# normalizer fit, the CLI's normalization and its predict writer): a block
# costs a few array operations, not one per row, and no temporary outgrows it.
BLOCK_ROWS = 512


class ConvergenceError(RuntimeError):
    """LAPACK's eigensolver failed to converge; the CLI maps it to exit 3."""


def nonfinite_rows(a: np.ndarray) -> np.ndarray:
    """Ascending indices of the rows of the 2-D float array ``a`` that hold
    a NaN or an infinity, found from N float64 row sums, not an (N, D) mask.

    A row's sum is non-finite whenever the row is, and no float64 sum of
    finite float32 values overflows. Rows whose sums are not finite are
    checked value by value, which clears a float64 row whose sum overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        rows = np.flatnonzero(~np.isfinite(a.sum(axis=1, dtype=np.float64)))
    return rows[~np.isfinite(a[rows]).all(axis=1)] if rows.size else rows


def l2_normalize(x) -> tuple[np.ndarray, np.ndarray]:
    """Scale rows to unit Euclidean norm.

    Returns (normalized, degenerate) where degenerate marks rows with norm
    at or below L2_FLOOR; those rows are returned unchanged.
    """
    x = np.array(x, dtype=np.float64)
    return x, _l2_divide(x)


def _l2_divide(x: np.ndarray) -> np.ndarray:
    """Divide the rows of the float64 array ``x`` in place by their Euclidean
    norms (``np.linalg.norm``'s sum of squares), leaving rows with norm at or
    below L2_FLOOR unchanged; returns the mask of those rows."""
    norms = np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True))
    degenerate = norms <= L2_FLOOR
    norms[degenerate] = 1.0
    x /= norms
    return degenerate[..., 0]


@dataclasses.dataclass
class NormalizerStats:
    """Fitted normalization parameters.

    For kind "znorm", ``scale`` is the (D,) per-dimension standard deviation
    clamped from below by epsilon, and the transform is (x - mean) / scale.
    For kind "pca", ``scale`` is the (D, D) whitening matrix whose rows are
    eigenvectors of the fitted covariance divided by sqrt(eigenvalue +
    epsilon), and the transform is scale @ (x - mean).
    """

    kind: str
    mean: np.ndarray
    scale: np.ndarray
    epsilon: float = DEFAULT_EPSILON
    l2_after: bool = True

    def __post_init__(self) -> None:
        if self.kind not in NORMALIZER_KINDS:
            raise ValueError(f"unknown normalizer kind {self.kind!r}")
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.scale = np.asarray(self.scale, dtype=np.float64)
        if self.mean.ndim != 1:
            raise ValueError("mean must be 1-D")
        d = self.mean.shape[0]
        want = (d,) if self.kind == "znorm" else (d, d)
        if self.scale.shape != want:
            raise ValueError(f"scale shape {self.scale.shape}, expected {want}")
        if not (np.isfinite(self.mean).all() and np.isfinite(self.scale).all()):
            raise ValueError("non-finite normalizer statistics")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def _shifted_moments(data, diagonal: bool):
    """Moment sums of the rows of (N, D) data shifted by its first row.

    Returns (count, shift, s1, s2): s1 sums the shifted rows and s2 their
    outer products, or only their squares when ``diagonal``. Only ``shape``
    and row slices of ``data`` are read, ``BLOCK_ROWS`` rows at a time.

    Each block is upcast as it is shifted into one float64 buffer (so a
    float32 matrix gives the sums of its float64 upcast) and squared there
    when ``diagonal``. Besides the sums the loop holds that buffer and the
    block ``data`` returns, and ``data`` is never written.
    """
    shape = getattr(data, "shape", None)
    if shape is None or len(shape) != 2:
        raise ValueError(f"expected (N, D) data, got shape {shape}")
    count, d = shape
    if count < 2:
        raise ValueError(f"need at least 2 samples to fit a normalizer, got {count}")
    shift = data[:1][0].astype(np.float64)
    s1 = np.zeros(d)
    s2 = np.zeros(d) if diagonal else np.zeros((d, d))
    buf = np.empty((min(BLOCK_ROWS, count), d))
    for start in range(0, count, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, count)
        block = np.subtract(data[start:stop], shift, out=buf[: stop - start])
        s1 += block.sum(axis=0)
        s2 += np.square(block, out=block).sum(axis=0) if diagonal else block.T @ block
    return count, shift, s1, s2


def fit_znorm(data, *, epsilon: float = DEFAULT_EPSILON, l2_after: bool = True) -> NormalizerStats:
    """Fit per-dimension standardization to (N, D) data (see ``_shifted_moments``).

    Variance is the population variance (divide by N), from sums shifted by
    the first sample for stability. Needs at least two samples; dimensions
    with standard deviation below epsilon are clamped to epsilon so constant
    dimensions map to zero.
    """
    count, shift, s1, s2 = _shifted_moments(data, diagonal=True)
    mean_shifted = s1 / count
    var = np.maximum(s2 / count - mean_shifted * mean_shifted, 0.0)
    scale = np.maximum(np.sqrt(var), epsilon)
    return NormalizerStats(
        "znorm", shift + mean_shifted, scale, epsilon=epsilon, l2_after=l2_after
    )


def fit_pca_whitening(data, *, epsilon: float = DEFAULT_EPSILON, l2_after: bool = True) -> NormalizerStats:
    """Fit a PCA whitening transform to (N, D) data (see ``_shifted_moments``).

    The covariance is accumulated shifted by the first sample for stability,
    then diagonalized by LAPACK through jacobi_eigh. Whitening rows are
    eigenvectors scaled by 1/sqrt(eigenvalue + epsilon), eigenvalues clamped
    at zero and sorted in decreasing order.
    """
    count, shift, s1, s2 = _shifted_moments(data, diagonal=False)
    mean_shifted = s1 / count
    cov = s2 / count - np.outer(mean_shifted, mean_shifted)
    cov = (cov + cov.T) / 2.0
    eigvals, eigvecs = jacobi_eigh(cov)
    inv_std = 1.0 / np.sqrt(np.maximum(eigvals, 0.0) + epsilon)
    transform = eigvecs.T * inv_std[:, None]
    return NormalizerStats(
        "pca", shift + mean_shifted, transform, epsilon=epsilon, l2_after=l2_after
    )


def apply_normalizer(stats: NormalizerStats, x, out=None) -> np.ndarray:
    """Apply fitted normalization to one vector (D,) or a batch (N, D).

    Centering, the znorm division and the L2 division work in place on one
    float64 array: ``out``, a float64 array of ``x``'s shape, or else a new
    one. That array is returned, except that PCA's product is a second,
    new array.
    """
    x = np.asarray(x)
    if x.shape[-1] != stats.dim:
        raise ValueError(f"feature dim {x.shape[-1]} does not match fitted dim {stats.dim}")
    out = np.subtract(x, stats.mean, out=out, dtype=np.float64)
    if stats.kind == "znorm":
        out /= stats.scale
    else:
        out = out @ stats.scale.T
    if stats.l2_after:
        _l2_divide(out)
    return out


# Named for its original algorithm: bench/tracer.py wraps features.jacobi_eigh by name.
def jacobi_eigh(matrix):
    """Eigen-decomposition of a symmetric matrix by LAPACK (``np.linalg.eigh``).

    Returns (eigenvalues, eigenvectors) in decreasing eigenvalue order,
    eigenvectors as columns with a deterministic sign (largest-magnitude
    entry positive).

    Raises ConvergenceError when LAPACK fails to converge.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-8 * max(1.0, np.abs(a).max())):
        raise ValueError("matrix is not symmetric")
    try:
        eigvals, eigvecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition did not converge: {exc}") from None
    eigvals = eigvals[::-1]
    eigvecs = eigvecs[:, ::-1]
    flips = np.sign(eigvecs[np.abs(eigvecs).argmax(axis=0), np.arange(a.shape[0])])
    flips[flips == 0] = 1.0
    return eigvals, eigvecs * flips
