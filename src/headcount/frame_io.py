"""Grayscale frame I/O: binary PGM (P5) files, frame sequences, debug overlays.

Sequences come either from a directory of numbered ``.pgm`` files or from a
single headerless file of concatenated raw frames whose geometry is supplied
by the caller.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Sequence, TYPE_CHECKING

import numpy as np

from .errors import (ConfigError, EmptySequence, ParseError, TruncatedStream,
                     UnsupportedFormat, digits, quote)

if TYPE_CHECKING:
    from .blobs import BlobKeypoint
    from .counting import LinePair

# whitespace and '#' comments, each running to the end of its line, may
# stand before a header token; the token runs to the next whitespace
_TOKEN = re.compile(rb"(?:[ \t\r\n\v\f]+|#[^\n]*)*([^ \t\r\n\v\f]*)")


@dataclass(frozen=True, eq=False)
class Frame:
    """One 8-bit grayscale frame.

    ``index`` is the frame's ordinal within its sequence; ``pixels`` is a
    row-major ``(height, width)`` uint8 array, the one record of the frame's
    size.
    """

    index: int
    pixels: np.ndarray

    def __post_init__(self):
        if self.pixels.dtype != np.uint8 or self.pixels.ndim != 2:
            raise ValueError("pixels must be a 2-D uint8 array")
        if self.index < 0:
            raise ValueError("frame index must be >= 0")

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass
class SequenceSpec:
    """Where a frame sequence lives and how to read it.

    ``source`` is either a directory of ``.pgm`` files (frame order = file
    names in natural order, see ``open_sequence``), which takes no ``width``
    or ``height``, or a raw file of concatenated frames, which needs both.
    Nothing in the pipeline is time-based, so a sequence has no frame rate.
    """

    source: Path
    width: Optional[int] = None
    height: Optional[int] = None

    def __post_init__(self):
        self.source = Path(self.source)


def _read_header_token(path, data: bytes, pos: int) -> tuple[bytes, int]:
    match = _TOKEN.match(data, pos)
    if not match.group(1):
        raise ParseError(f"{path}: unexpected end of PGM header")
    return match.group(1), match.end()


def _byte_count(size: int) -> int | str:
    # width * height can run to thousands of digits, past what str() takes
    return size if size <= 10**20 else "over 10**20"


def load_frame(path, index: int = 0) -> Frame:
    """Read one binary PGM (P5, maxval 255) file.

    Raises ParseError for anything that is not well-formed binary PGM
    (including ASCII "P2" files) and UnsupportedFormat when maxval is not 255.
    """
    data = Path(path).read_bytes()
    magic, pos = _read_header_token(path, data, 0)
    if magic == b"P2":
        raise ParseError(f"{path}: ASCII PGM (P2) is not supported, use binary P5")
    if magic != b"P5":
        raise ParseError(f"{path}: not a binary PGM file (magic {quote(magic)})")
    fields = []
    for name in ("width", "height", "maxval"):
        token, pos = _read_header_token(path, data, pos)
        try:
            value = digits(token)
        except ValueError:
            raise ParseError(f"{path}: non-numeric {name} field {quote(token)}") from None
        if value <= 0:
            raise ParseError(f"{path}: {name} must be positive, got {value}")
        fields.append(value)
    width, height, maxval = fields
    if maxval != 255:
        raise UnsupportedFormat(f"{path}: maxval {quote(token)} unsupported (need 255)")
    if not data[pos:pos + 1].isspace():  # _TOKEN's six bytes; b"" is not space
        raise ParseError(f"{path}: missing whitespace after maxval")
    start = pos + 1  # the raster follows that one byte
    size = width * height
    if len(data) - start < size:
        raise ParseError(f"{path}: truncated pixel data "
                         f"({len(data) - start} of {_byte_count(size)} bytes)")
    pixels = np.frombuffer(data, dtype=np.uint8, count=size, offset=start)
    return Frame(index, pixels.reshape(height, width).copy())


def write_frame(frame: Frame, path) -> None:
    """Write a frame as binary PGM (P5, maxval 255)."""
    header = f"P5\n{frame.width} {frame.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + frame.pixels.tobytes())


def _natural_key(path: Path) -> tuple:
    # digit groups compare as integers, so f2 precedes f10; the name itself
    # breaks ties such as f1 and f01
    parts = re.split(r"(\d+)", path.name)
    parts[1::2] = map(int, parts[1::2])
    return parts, path.name


def open_sequence(spec: SequenceSpec) -> Iterator[Frame]:
    """Stream frames from a SequenceSpec, indices 0,1,2,... in order.

    Directory sources yield their ``.pgm`` files in natural name order, with
    digit groups compared as numbers (``f2`` before ``f10``; zero-padded
    names keep their lexicographic order); raw sources are split into
    width*height chunks. Raises EmptySequence when the source holds no frames
    and TruncatedStream when a raw file's size is not a multiple of the frame
    size.
    """
    src = spec.source
    if not src.exists():
        raise FileNotFoundError(f"sequence source {src} does not exist")
    if src.is_dir():
        if (spec.width, spec.height) != (None, None):
            raise ConfigError(f"{src} is a directory of frames, which takes no geometry")
        paths = sorted((p for p in src.iterdir() if p.suffix.lower() == ".pgm"),
                       key=_natural_key)
        if not paths:
            raise EmptySequence(f"no .pgm files in {src}")
        for i, p in enumerate(paths):
            yield load_frame(p, index=i)
        return

    if spec.width is None or spec.height is None:
        raise ConfigError("raw sequences need explicit width and height")
    if spec.width < 1 or spec.height < 1:
        raise ConfigError(f"raw frame geometry must be positive, "
                          f"got {spec.width}x{spec.height}")
    frame_size = spec.width * spec.height
    total = src.stat().st_size
    if total % frame_size != 0:
        raise TruncatedStream(f"{src}: size {total} is not a multiple of "
                              f"frame size {_byte_count(frame_size)}")
    count = total // frame_size
    if count == 0:
        raise EmptySequence(f"{src} holds no complete frames")
    with open(src, "rb") as fh:
        for i in range(count):
            pixels = np.empty((spec.height, spec.width), dtype=np.uint8)
            got = fh.readinto(pixels)
            if got != frame_size:
                raise TruncatedStream(f"{src}: frame {i} ends after {got} of "
                                      f"{frame_size} bytes")
            yield Frame(i, pixels)


def circle_points(radius: int) -> list[tuple[int, int]]:
    """Integer offsets of a one-pixel-wide circle outline of the given radius.

    Midpoint rasterization: for each x in the first octant pick the y nearest
    to the true circle, then mirror into all eight octants.
    """
    pts = set()
    x = 0
    while True:
        y = round(math.sqrt(radius * radius - x * x))
        if x > y:
            break
        for px, py in ((x, y), (y, x)):
            pts.update({(px, py), (-px, py), (px, -py), (-px, -py)})
        x += 1
    return sorted(pts)


def write_annotated(frame: Frame, keypoints: Sequence["BlobKeypoint"],
                    lines: "LinePair", path) -> None:
    """Write a debug copy of ``frame`` with keypoint circles and both counting
    lines burned in at intensity 255. The input frame is left untouched."""
    for kp in keypoints:
        x, y = kp.centroid
        if not (0 <= x < frame.width and 0 <= y < frame.height):
            raise ValueError(f"keypoint centroid {kp.centroid} outside frame bounds")
    if not (0 <= lines.line_in_y < frame.height and 0 <= lines.line_out_y < frame.height):
        raise ValueError("counting lines outside frame bounds")

    out = frame.pixels.copy()
    out[lines.line_in_y, :] = 255
    out[lines.line_out_y, :] = 255
    for kp in keypoints:
        cx = int(round(kp.centroid[0]))
        cy = int(round(kp.centroid[1]))
        radius = max(1, int(round(kp.diameter_s / 2.0)))
        for dx, dy in circle_points(radius):
            px, py = cx + dx, cy + dy
            if 0 <= px < frame.width and 0 <= py < frame.height:
                out[py, px] = 255
    write_frame(Frame(frame.index, out), path)
