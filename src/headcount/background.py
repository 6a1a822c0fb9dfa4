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


def check_params(alpha: float, threshold: float) -> None:
    """Raise ConfigError unless 0 < alpha < 1 and 0 < threshold <= 255; the
    chained comparisons are false for nan and infinities."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0,1), got {alpha}")
    if not 0.0 < threshold <= 255.0:
        raise ConfigError(f"threshold must be in (0,255], got {threshold}")


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
                 threshold: float = DEFAULT_THRESHOLD):
        check_params(alpha, threshold)
        self.width = first.width
        self.height = first.height
        self.alpha = float(alpha)
        self.threshold = float(threshold)
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
        fresh array that shares memory with nothing the model keeps.
        """
        self._check_geometry(frame)
        diff = np.subtract(frame.pixels, self.estimate, out=self._scratch)
        np.abs(diff, out=diff)
        return BinaryMask(diff > self.threshold)


# Opening works on bit-packed rows. np.packbits puts column c at bit
# 63 - c % 64 of word c // 64 once the bytes are read as big-endian uint64, so
# one shift moves 64 mask pixels by a column. Every row gets w // 64 + 1 words,
# so it ends in at least one zero pad bit, and the rows lie end to end in one
# flat array: a one-column shift of the whole array carries each word's edge
# bit into its neighbour, and a row's first and last columns see a pad bit,
# that is background, beside them.
_ONE = np.uint64(1)
_LAST = np.uint64(63)


def _pack(bits: np.ndarray) -> np.ndarray:
    h, w = bits.shape
    packed = np.zeros((h, (w // 64 + 1) * 8), dtype=np.uint8)
    packed[:, :(w + 7) // 8] = np.packbits(bits, axis=1)
    return packed.view(">u8").astype(np.uint64)


def _unpack(words: np.ndarray, width: int) -> np.ndarray:
    packed = words.astype(">u8", copy=False).view(np.uint8)
    return np.unpackbits(packed, axis=1, count=width).view(np.bool_)


def _step(words: np.ndarray, combine) -> np.ndarray:
    """Combine every pixel of the packed rows with its 8 neighbours by
    ``combine`` (np.bitwise_and erodes, np.bitwise_or dilates): first each
    word with its one-column left and right shifts, then each row with the
    rows above and below. The top and bottom rows see only their one
    neighbouring row; the caller handles what lies beyond them."""
    flat = words.reshape(-1)
    left = flat >> _ONE
    left[1:] |= flat[:-1] << _LAST
    right = flat << _ONE
    right[:-1] |= flat[1:] >> _LAST
    combine(left, flat, out=left)
    combine(left, right, out=left)
    rows = left.reshape(words.shape)
    out = right.reshape(words.shape)
    out[...] = rows
    combine(out[1:], rows[:-1], out=out[1:])
    combine(out[:-1], rows[1:], out=out[:-1])
    return out


def morph_open(mask: BinaryMask, radius: int = 1) -> BinaryMask:
    """Morphological opening (erosion then dilation) with a square
    (2*radius+1)^2 structuring element; removes speckle noise smaller than
    the element while preserving larger solid regions.

    Out-of-image pixels count as background. The square element is the 3x3
    one applied ``radius`` times, so the opening is ``radius`` 3x3 erosions
    and then ``radius`` 3x3 dilations, each on bit-packed rows. The result is
    a fresh mask; the input is not modified.
    """
    if radius < 1:
        raise ConfigError(f"opening radius must be >= 1, got {radius}")
    h, w = mask.bits.shape
    if 2 * radius + 1 > min(h, w):
        # the element fits nowhere inside the image, so every pixel erodes
        return BinaryMask(np.zeros((h, w), dtype=bool))
    words = _pack(mask.bits)
    for _ in range(radius):
        words = _step(words, np.bitwise_and)
        words[0] = 0
        words[-1] = 0
    # every pixel left lies at least radius pixels inside the image, so the
    # dilations never spread past its edge and the pad bits stay zero
    for _ in range(radius):
        words = _step(words, np.bitwise_or)
    return BinaryMask(_unpack(words, w))
