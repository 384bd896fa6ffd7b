"""Interleaved real coordinates (x1, y1, ..., xm, ym) for C^m, batched."""

from __future__ import annotations

import numpy as np


def to_real(z: np.ndarray) -> np.ndarray:
    """(..., m) complex -> (..., 2m) real, interleaving re/im per coordinate."""
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape[:-1] + (2 * z.shape[-1],))
    out[..., 0::2] = z.real
    out[..., 1::2] = z.imag
    return out


def to_complex(x: np.ndarray) -> np.ndarray:
    """(..., 2m) real -> (..., m) complex."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] % 2:
        raise ValueError("real vector length must be even")
    return x[..., 0::2] + 1j * x[..., 1::2]
