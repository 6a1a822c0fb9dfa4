"""Adaptive background estimate and binary foreground extraction.

The background is a per-pixel exponential running average, updated on every
frame after the first in the incremental form ``estimate += alpha*(frame -
estimate)``. Foreground is any pixel whose absolute difference from the
estimate updated with the frame exceeds a fixed threshold. The update shrinks
that difference by exactly ``1 - alpha`` before rounding, so ``subtract``
compares the difference from the estimate as it stood before the frame with
``threshold / (1 - alpha)``, and one walk over the frame both masks and
updates it. Moving objects are not masked out of the update; entrance scenes
are background most of the time, so the estimate stays clean and the update
stays a pure linear recurrence with a provable convergence rate.

The estimate is float32, or float64 where alpha is so small that float32
would stall short of the threshold (``BackgroundModel`` gives the rule and
how the threshold is rounded). Each per-frame step walks the frame in blocks
of rows, in place: the model owns two scratch buffers of one block, in the
estimate's dtype, so each block's passes run on data still in cache. Beyond
one block of booleans, the only per-pixel array a frame allocates is its
bit-packed mask.

A mask is stored as bit-packed rows, 64 pixels to a word: ``subtract`` packs
each block of rows as it compares it, the opening works on the words, and
labeling reads run edges from them. A boolean array is unpacked only on
request.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError
from .frame_io import Frame

DEFAULT_ALPHA = 0.02
DEFAULT_THRESHOLD = 25.0
DEFAULT_MORPH_RADIUS = 1
# pixels per block of rows in a per-frame step: a block is
# max(1, BLOCK_PIXELS // width) rows, 51 at 640 wide (128 kB of float32)
BLOCK_PIXELS = 2**15


class BinaryMask:
    """Foreground map of ``height`` rows of ``width`` pixels, as packed rows.

    ``BinaryMask(bits)`` packs a 2-D boolean array, True = foreground, once.
    ``words`` holds the rows in the packed layout described at ``_pack``,
    with every pad bit zero; it is the mask's one stored form. ``bits`` unpacks
    a fresh read-only boolean array on each access, so writing into it raises
    instead of leaving the mask unchanged.
    """

    __slots__ = ("words", "width")

    def __init__(self, bits: np.ndarray):
        if bits.dtype != np.bool_ or bits.ndim != 2:
            raise ValueError("mask bits must be a 2-D boolean array")
        self.words = _pack([(0, bits)], *bits.shape)
        self.width = bits.shape[1]

    @classmethod
    def packed(cls, words: np.ndarray, width: int) -> "BinaryMask":
        """The mask whose packed rows are ``words``, kept without a copy."""
        mask = cls.__new__(cls)
        mask.words, mask.width = words, width
        return mask

    @property
    def height(self) -> int:
        return len(self.words)

    @property
    def bits(self) -> np.ndarray:
        bits = _unpack(self.words, self.width)
        bits.flags.writeable = False
        return bits

    def run_edges(self) -> tuple[np.ndarray, int]:
        """Keys ``row*stride + column`` of every pixel that differs from its
        left neighbour, ascending, and ``stride``, at least ``width + 1``.
        Pad bits close every row, so each row's keys alternate run start,
        exclusive run end. One shift and one exclusive-or find the changes 64
        pixels at a time; only the bytes holding one are unpacked, so that
        np.flatnonzero runs on a short boolean array, its fast case.
        """
        flat = self.words.reshape(-1)
        edges = _shift_right(flat)
        edges ^= flat
        edge_bytes = _bytes(edges)
        changed = np.flatnonzero(edge_bytes != 0)
        bit = np.flatnonzero(np.unpackbits(edge_bytes[changed]).view(np.bool_))
        # a change's index among all bits of the rows' bytes is its key
        return (changed[bit >> 3] << 3) | (bit & 7), 64 * self.words.shape[1]


def check_params(alpha: float, threshold: float) -> None:
    """Raise ConfigError unless 0 < alpha < 1 and 0 < threshold <= 255; the
    chained comparisons are false for nan and infinities."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0,1), got {alpha}")
    if not 0.0 < threshold <= 255.0:
        raise ConfigError(f"threshold must be in (0,255], got {threshold}")


def _floor_to(dtype, value: float):
    """The largest ``dtype`` value that is not above ``value``."""
    rounded = dtype(value)
    # compare as Python floats: under NEP 50 a Python float meeting a float32
    # scalar is rounded to float32 first, and the two would compare equal
    return np.nextafter(rounded, dtype(-np.inf)) if float(rounded) > value else rounded


class BackgroundModel:
    """Running-average intensity model for one frame stream.

    Each frame after the first takes one call: ``update`` while it only
    settles the estimate (warm-up), ``subtract`` when its mask is wanted.
    The first frame, given on construction, only seeds the estimate.

    The estimate and two scratch buffers of one block of its rows are
    float32, which halves the bytes each step streams. An incremental update
    is lost once ``alpha*(frame - estimate)`` is under half a float32 spacing
    of the estimate, at most 2**-17 near 255, so float32 can stall ``2**-17 /
    alpha`` levels short of a constant frame (0.76 at alpha 1e-5). The model
    is float32 only while that gap is under ``threshold / 2``, that is for
    ``alpha > 2**-16 / threshold``, and float64 otherwise, with the same
    operations. The blend form ``(1-alpha)*estimate + alpha*frame`` is not
    used: it rounds twice per step and its rounded ``1-alpha`` moves the
    fixed point, so it has no such bound.

    Alpha and the mask's threshold are kept as scalars of the estimate's
    dtype, so no step is promoted to float64. The mask's threshold is the
    largest such value not above ``threshold / (1 - alpha)``: then a mask
    equals ``|frame - estimate| > threshold / (1 - alpha)`` for the
    difference rounded to the dtype, also where float32 cannot hold the
    quotient exactly.

    ``update`` and ``subtract`` walk the frame one block of rows at a time.
    Each block casts the frame's rows into a scratch buffer (exact for
    uint8) and subtracts the estimate's rows there, the same IEEE operations
    as one whole-frame step, so the block size never changes a result.
    Neither step allocates a float temporary. One model per stream; it is
    single-owner mutable state, scratch buffers included, and not safe to
    share between concurrently processed streams.
    """

    def __init__(self, first: Frame, alpha: float = DEFAULT_ALPHA,
                 threshold: float = DEFAULT_THRESHOLD):
        check_params(alpha, threshold)
        dtype = np.float32 if alpha > 2.0**-16 / threshold else np.float64
        self.estimate = first.pixels.astype(dtype)
        height, width = self.estimate.shape
        block = max(1, BLOCK_PIXELS // width)
        self._scratch = np.empty((min(block, height), width), dtype=dtype)
        self._magnitude = np.empty_like(self._scratch)
        self._alpha = dtype(alpha)
        self._threshold = _floor_to(dtype, float(threshold) / (1.0 - alpha))

    def _differences(self, frame: Frame):
        """Yield (top row, estimate rows, frame rows - estimate rows) for each
        block of rows in turn; the difference is in the scratch buffer, so it
        is overwritten by the next block."""
        if frame.pixels.shape != self.estimate.shape:
            height, width = self.estimate.shape
            raise ShapeError(f"frame {frame.index} is {frame.width}x{frame.height}, "
                             f"model is {width}x{height}")
        pixels, estimate, scratch = frame.pixels, self.estimate, self._scratch
        block = len(scratch)
        for top in range(0, len(pixels), block):
            rows = estimate[top:top + block]
            diff = scratch[:len(rows)]
            np.copyto(diff, pixels[top:top + block])
            diff -= rows
            yield top, rows, diff

    def update(self, frame: Frame) -> "BackgroundModel":
        """Move the estimate toward the frame: estimate += alpha*(frame -
        estimate), in place, with each block's step formed in the scratch
        buffer. For a frame whose mask is not wanted; ``subtract`` makes the
        same step."""
        alpha = self._alpha
        for _, rows, step in self._differences(frame):
            step *= alpha
            rows += step
        return self

    def subtract(self, frame: Frame) -> BinaryMask:
        """Foreground mask of the frame, then the frame's update: per pixel,
        |frame - estimate| > threshold / (1 - alpha) against the estimate
        before this frame, then estimate += alpha*(frame - estimate).

        Each block of rows is differenced once: its magnitude, in the second
        scratch buffer, is compared and the comparison packed into the mask's
        rows, and the signed difference makes the update, all while the block
        is in cache. The estimate ends bit for bit as ``update`` leaves it,
        and the returned mask shares memory with nothing the model keeps.
        """
        alpha, threshold, magnitude = self._alpha, self._threshold, self._magnitude
        height, width = self.estimate.shape

        def blocks():
            for top, rows, diff in self._differences(frame):
                bits = np.abs(diff, out=magnitude[:len(rows)]) > threshold
                diff *= alpha
                rows += diff
                yield top, bits

        return BinaryMask.packed(_pack(blocks(), height, width), width)


# Masks are bit-packed rows. np.packbits puts column c at bit 63 - c % 64 of
# word c // 64 once the bytes are read as big-endian uint64, so one shift
# moves 64 mask pixels by a column. Every row gets w // 64 + 1 words, so it
# ends in at least one zero pad bit, and the rows lie end to end in one flat
# array: a one-column shift of the whole array carries each word's edge bit
# into its neighbour, and a row's first and last columns see a pad bit, that
# is background, beside them.
_ONE = np.uint64(1)
_LAST = np.uint64(63)


def _pack(blocks, height: int, width: int) -> np.ndarray:
    """Packed rows of a ``height`` x ``width`` mask given as (top row,
    boolean rows) blocks that together cover it."""
    packed = np.zeros((height, (width // 64 + 1) * 8), dtype=np.uint8)
    for top, bits in blocks:
        packed[top:top + len(bits), :(width + 7) // 8] = np.packbits(bits, axis=1)
    return packed.view(">u8").astype(np.uint64)


def _bytes(words: np.ndarray) -> np.ndarray:
    """The bytes of packed rows in column order: bit 7 - c % 8 of byte
    c // 8 of a row is column c, as np.packbits lays them out."""
    return words.astype(">u8", copy=False).view(np.uint8)


def _unpack(words: np.ndarray, width: int) -> np.ndarray:
    return np.unpackbits(_bytes(words), axis=1, count=width).view(np.bool_)


def _shift_right(flat: np.ndarray) -> np.ndarray:
    """Packed rows ``flat`` moved one column to the right, as a new array:
    each word's low bit carries into the next word's high bit, and the first
    word takes in background."""
    shifted = flat >> _ONE
    shifted[1:] |= flat[:-1] << _LAST
    return shifted


def _step(words: np.ndarray, combine) -> np.ndarray:
    """Combine every pixel of the packed rows with its 8 neighbours by
    ``combine`` (np.bitwise_and erodes, np.bitwise_or dilates): first each
    word with its one-column left and right shifts, then each row with the
    rows above and below. The top and bottom rows see only their one
    neighbouring row; the caller handles what lies beyond them."""
    flat = words.reshape(-1)
    left = _shift_right(flat)
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


def morph_open(mask: BinaryMask, radius: int = DEFAULT_MORPH_RADIUS) -> BinaryMask:
    """Morphological opening (erosion then dilation) with a square
    (2*radius+1)^2 structuring element; removes speckle noise smaller than
    the element while preserving larger solid regions.

    Out-of-image pixels count as background. The square element is the 3x3
    one applied ``radius`` times, so the opening is ``radius`` 3x3 erosions
    and then ``radius`` 3x3 dilations, each on the packed rows. The result is
    a fresh mask; the input is not modified.
    """
    if radius < 1:
        raise ConfigError(f"opening radius must be >= 1, got {radius}")
    words, w = mask.words, mask.width
    if 2 * radius + 1 > min(mask.height, w):
        # the element fits nowhere inside the image, so every pixel erodes
        return BinaryMask.packed(np.zeros_like(words), w)
    for _ in range(radius):
        words = _step(words, np.bitwise_and)
        words[0] = 0
        words[-1] = 0
    # every pixel left lies at least radius pixels inside the image, so the
    # dilations never spread past its edge and the pad bits stay zero
    for _ in range(radius):
        words = _step(words, np.bitwise_or)
    return BinaryMask.packed(words, w)
