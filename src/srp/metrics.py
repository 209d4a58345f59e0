"""Image quality metrics with fixed, golden-stable conventions.

PSNR uses a caller-supplied peak; an exact match, or any value at or above
99 dB, reports 99 dB with a flag instead of infinity, and an estimate whose
squared error overflows reports -inf dB. ``psnr`` scores one estimate;
``psnr_db`` applies the same rule to row-wise errors of a block. SSIM is the
uniform-window variant, window 7, C1 = (0.01 peak)², C2 = (0.03 peak)²,
averaged over windows fully inside the image. These are module constants,
not parameters; ``report.json``'s notes state the SSIM ones.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.ndimage import uniform_filter

from .operators import deinterleave

_PSNR_CAP_DB = 99.0
_SSIM_WINDOW = 7
_SSIM_K1, _SSIM_K2 = 0.01, 0.03


class PsnrValue(NamedTuple):
    db: float
    capped: bool


def magnitude(v):
    """Per-pixel magnitude of an interleaved complex vector."""
    z = deinterleave(v)
    return np.abs(z)


def mean_squared_error(x_hat, x_true):
    """Mean of (x_hat - x_true)² over the last axis, row by row; inf where
    the squares overflow."""
    with np.errstate(over="ignore"):
        return np.mean((x_hat - x_true) ** 2, axis=-1)


def psnr_db(mse, peak):
    """(dB, capped) of mean squared errors against positive peaks, scalars
    or arrays that broadcast: 10 log10(peak² / mse), where an exact match
    (mse 0) or any value at or above 99 dB reads 99 dB and is flagged, and
    an overflowed mse (inf) reads -inf dB."""
    with np.errstate(over="ignore", divide="ignore"):
        value = 10.0 * np.log10(np.multiply(peak, peak) / mse)
    capped = value >= _PSNR_CAP_DB
    return np.where(capped, _PSNR_CAP_DB, value), capped


def psnr(x_hat, x_true, peak):
    """10 log10(peak² / MSE); an exact match returns (99.0, True)."""
    x_hat = np.asarray(x_hat, dtype=float).ravel()
    x_true = np.asarray(x_true, dtype=float).ravel()
    if x_hat.shape != x_true.shape:
        raise ValueError(f"shape mismatch {x_hat.shape} vs {x_true.shape}")
    if peak <= 0:
        raise ValueError("peak must be positive")
    value, capped = psnr_db(mean_squared_error(x_hat, x_true), peak)
    return PsnrValue(float(value), bool(capped))


def ssim(x_hat, x_true, peak):
    """Mean local structural similarity over uniform sliding windows."""
    a = np.asarray(x_hat, dtype=float)
    b = np.asarray(x_true, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    if a.ndim != 2:
        raise ValueError("ssim expects 2-D images")
    if min(a.shape) < _SSIM_WINDOW:
        raise ValueError(f"image smaller than the {_SSIM_WINDOW}x{_SSIM_WINDOW} window")
    c1 = (_SSIM_K1 * peak) ** 2
    c2 = (_SSIM_K2 * peak) ** 2

    uf = lambda img: uniform_filter(img, size=_SSIM_WINDOW, mode="constant")
    mu_a = uf(a)
    mu_b = uf(b)
    var_a = uf(a * a) - mu_a * mu_a
    var_b = uf(b * b) - mu_b * mu_b
    cov = uf(a * b) - mu_a * mu_b

    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    smap = num / den

    # keep windows fully inside the image
    r = _SSIM_WINDOW // 2
    return float(np.mean(smap[r : a.shape[0] - r, r : a.shape[1] - r]))
