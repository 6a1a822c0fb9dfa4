"""Adaptive background estimate and binary foreground extraction.

The background is a per-pixel exponential running average: on every frame
``estimate = (1-alpha)*estimate + alpha*frame``. Foreground is any pixel whose
absolute difference from the estimate exceeds a fixed threshold. Moving
objects are not masked out of the update; entrance scenes are background most
of the time, so the estimate stays clean and the update stays a pure linear
recurrence with a provable convergence rate.

Both per-frame steps work in place: the model owns one float64 scratch buffer
the size of a frame, so the only frame-sized array a frame allocates is its
boolean mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .frame_io import Frame

DEFAULT_ALPHA = 0.02
DEFAULT_THRESHOLD = 25.0
DEFAULT_WARMUP = 30


@dataclass(eq=False)
class BinaryMask:
    """Boolean foreground map, shape ``(height, width)``, True = foreground."""

    bits: np.ndarray

    def __post_init__(self):
        if self.bits.dtype != np.bool_ or self.bits.ndim != 2:
            raise ValueError("mask bits must be a 2-D boolean array")

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    @property
    def height(self) -> int:
        return self.bits.shape[0]


def check_params(alpha: float, threshold: float, warmup: int) -> None:
    """Raise ConfigError unless 0 < alpha < 1, 0 < threshold <= 255 and
    warmup >= 0; the chained comparisons are false for nan and infinities."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0,1), got {alpha}")
    if not 0.0 < threshold <= 255.0:
        raise ConfigError(f"threshold must be in (0,255], got {threshold}")
    if warmup < 0:
        raise ConfigError(f"warmup must be >= 0, got {warmup}")


class BackgroundModel:
    """Running-average intensity model for one frame stream.

    The estimate is kept in float64 so small learning rates do not stall on
    integer quantization. Beside it the model owns a float64 scratch buffer of
    the same shape, which ``update`` and ``subtract`` overwrite on every call;
    neither step allocates a frame-sized temporary. The steps stay separate
    and are not folded algebraically (``|f - e'| = (1-a)|f - e|`` rounds
    differently), so the estimate and every mask are bit-identical to the
    textbook formulas. One model per stream; it is single-owner mutable
    state, scratch buffer included, and not safe to share between
    concurrently processed streams.
    """

    def __init__(self, first: Frame, alpha: float = DEFAULT_ALPHA,
                 threshold: float = DEFAULT_THRESHOLD, warmup: int = DEFAULT_WARMUP):
        check_params(alpha, threshold, warmup)
        self.width = first.width
        self.height = first.height
        self.alpha = float(alpha)
        self.threshold = float(threshold)
        self.warmup = int(warmup)
        self.estimate = first.pixels.astype(np.float64)
        self._scratch = np.empty_like(self.estimate)

    def _check_geometry(self, frame: Frame) -> None:
        if (frame.height, frame.width) != (self.height, self.width):
            raise ShapeError(
                f"frame is {frame.width}x{frame.height}, "
                f"model is {self.width}x{self.height}"
            )

    def update(self, frame: Frame) -> "BackgroundModel":
        """Blend the frame into the estimate: (1-alpha)*estimate + alpha*frame,
        in place, with alpha*frame formed in the scratch buffer."""
        self._check_geometry(frame)
        np.multiply(frame.pixels, self.alpha, out=self._scratch)
        self.estimate *= 1.0 - self.alpha
        self.estimate += self._scratch
        return self

    def subtract(self, frame: Frame) -> BinaryMask:
        """Foreground mask: |frame - estimate| > threshold, per pixel.

        The difference is taken in the scratch buffer; the returned mask is a
        fresh array that shares memory with nothing the model keeps. Computed
        unconditionally; during warmup (frame.index < warmup) the caller is
        expected to discard the result.
        """
        self._check_geometry(frame)
        diff = np.subtract(frame.pixels, self.estimate, out=self._scratch)
        np.abs(diff, out=diff)
        return BinaryMask(diff > self.threshold)


def _sweep(bits: np.ndarray, radius: int, combine) -> np.ndarray:
    # a square element is separable: run the 1-D window along rows, then
    # columns; out-of-image pixels count as background
    h, w = bits.shape
    padded = np.pad(bits, ((0, 0), (radius, radius)), constant_values=False)
    rows = padded[:, 2 * radius:2 * radius + w].copy()
    for k in range(2 * radius):
        combine(rows, padded[:, k:k + w], out=rows)
    padded = np.pad(rows, ((radius, radius), (0, 0)), constant_values=False)
    out = padded[2 * radius:2 * radius + h].copy()
    for k in range(2 * radius):
        combine(out, padded[k:k + h], out=out)
    return out


def _erode(bits: np.ndarray, radius: int) -> np.ndarray:
    return _sweep(bits, radius, np.logical_and)


def _dilate(bits: np.ndarray, radius: int) -> np.ndarray:
    return _sweep(bits, radius, np.logical_or)


def morph_open(mask: BinaryMask, radius: int = 1) -> BinaryMask:
    """Morphological opening (erosion then dilation) with a square
    (2*radius+1)^2 structuring element; removes speckle noise smaller than
    the element while preserving larger solid regions."""
    if radius < 1:
        raise ConfigError(f"opening radius must be >= 1, got {radius}")
    return BinaryMask(_dilate(_erode(mask.bits, radius), radius))
