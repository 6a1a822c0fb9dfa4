import io

import numpy as np
import pytest

from headcount import frame_io
from headcount import (Frame, LinePair, SequenceSpec, circle_points, load_frame,
                       open_sequence, write_annotated, write_frame)
from headcount.errors import (ConfigError, EmptySequence, ParseError,
                              TruncatedStream, UnsupportedFormat)

from conftest import make_frame, uniform_frame
from oracles import midpoint_circle_points, read_header_token


def pgm_bytes(width, height, pixels, magic=b"P5", maxval=255):
    return magic + f"\n{width} {height}\n{maxval}\n".encode() + bytes(pixels)


def test_load_four_by_four_zeros(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(pgm_bytes(4, 4, [0] * 16))
    frame = load_frame(path)
    assert (frame.width, frame.height, frame.index) == (4, 4, 0)
    assert not frame.pixels.any()


def test_load_preserves_pixel_values(tmp_path):
    values = list(range(12))
    path = tmp_path / "a.pgm"
    path.write_bytes(pgm_bytes(4, 3, values))
    frame = load_frame(path, index=7)
    assert frame.index == 7
    assert frame.pixels.tolist() == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]]


def test_load_skips_header_comments(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n# a comment\n2 2\n# another\n255\n" + bytes([9, 8, 7, 6]))
    frame = load_frame(path)
    assert frame.pixels.tolist() == [[9, 8], [7, 6]]


def test_ascii_pgm_rejected(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(ParseError):
        load_frame(path)


def test_unknown_magic_rejected(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
    with pytest.raises(ParseError):
        load_frame(path)


def test_wrong_maxval_rejected(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(pgm_bytes(2, 2, [0, 0, 0, 0], maxval=65535))
    with pytest.raises(UnsupportedFormat):
        load_frame(path)


def test_truncated_raster_rejected(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(pgm_bytes(4, 4, [0] * 10))
    with pytest.raises(ParseError, match=r"truncated pixel data \(10 of 16 bytes\)"):
        load_frame(path)


def test_long_header_token_is_quoted_in_part(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n" + b"9" * 5000 + b" 4\n255\n" + bytes(16))
    with pytest.raises(ParseError) as info:
        load_frame(path)
    message = str(info.value)
    assert "non-numeric width field b'99999999999999999999'... (5000 bytes)" in message
    assert len(message) < len(str(path)) + 100
    path.write_bytes(b"X" * 5000)
    with pytest.raises(ParseError, match=r"\(magic b'X{20}'\.\.\. \(5000 bytes\)\)$"):
        load_frame(path)
    # 4000 digits is under the interpreter's digit limit, so it parses
    path.write_bytes(b"P5\n4 4\n" + b"9" * 4000 + b"\n" + bytes(16))
    with pytest.raises(UnsupportedFormat, match=r"maxval b'9{20}'\.\.\. \(4000 bytes\) "):
        load_frame(path)


def test_header_tokens_match_the_byte_scanner_oracle(rng):
    # random headers over whitespace, '#', digits, letters and the two byte
    # extremes, read from random start positions
    path = "a.pgm"
    alphabet = np.frombuffer(b" \t\r\n\v\f#5Pa\x00\xff", dtype=np.uint8)
    for _ in range(20000):
        data = rng.choice(alphabet, size=int(rng.integers(0, 24))).tobytes()
        pos = int(rng.integers(0, len(data) + 1))
        want = read_header_token(data, pos)
        if want is None:
            with pytest.raises(ParseError) as info:
                frame_io._read_header_token(path, data, pos)
            assert str(info.value) == f"{path}: unexpected end of PGM header"
        else:
            assert frame_io._read_header_token(path, data, pos) == want


@pytest.mark.parametrize("header,match", [
    (b"P5\n6#4 64\n255\n", r"non-numeric width field b'6#4'$"),
    (b"P5#c\n4 4\n255\n", r"\(magic b'P5#c'\)$"),
    (b"P5\n4 4 # no maxval\n", "unexpected end of PGM header$"),
    (b"P5\n4 4\n255#", r"non-numeric maxval field b'255#'$"),
])
def test_a_token_runs_to_the_next_whitespace(tmp_path, header, match):
    # '#' starts a comment only where whitespace may stand, not inside a token
    path = tmp_path / "a.pgm"
    path.write_bytes(header)
    with pytest.raises(ParseError, match=match):
        load_frame(path)


@pytest.mark.parametrize("header", [
    b"P5\v2\f2\r\n255\n",
    b"P5\r\n2\r\n2\r\n255\r",
    b"P5\f# comment\v\n2\t2\n#\n255\v",
    b"P5" + b" \t\n\r" * 2**18 + b"2 2\n255\n",
    b"P5\n#" + b"x" * 2**22 + b"\n2 2\n255\f",
    b"P5" + b"\n#" * 2**10 + b"\n2 2 255\n",
], ids=["vt-ff-crlf", "crlf", "comments", "1mb-whitespace", "4mb-comment", "many-comments"])
def test_header_separators_and_long_headers(tmp_path, header):
    # any of the six whitespace bytes separates tokens, and exactly one of
    # them ends the header
    path = tmp_path / "a.pgm"
    path.write_bytes(header + bytes([10, 20, 30, 40]))
    assert load_frame(path).pixels.tolist() == [[10, 20], [30, 40]]


@pytest.mark.parametrize("width,height,need", [
    (b"9" * 4000, b"64", r"over 10\*\*20"),
    (b"9" * 4000, b"9" * 4000, r"over 10\*\*20"),  # past the digits str() takes
    (b"100000000001", b"1000000000", r"over 10\*\*20"),
    (b"100000000000", b"1000000000", "100000000000000000000"),
])
def test_truncation_message_bounds_a_huge_frame_size(tmp_path, width, height, need):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n" + width + b" " + height + b"\n255\n" + bytes(4096))
    with pytest.raises(ParseError, match=rf"truncated pixel data \(4096 of {need} bytes\)$"):
        load_frame(path)


def test_loaded_pixels_own_their_memory(tmp_path, rng):
    # one copy out of the file's bytes for a PGM, none for a raw file: each
    # frame's pixels are a writable array of their own
    pixels = rng.integers(0, 256, size=(5, 7), dtype=np.uint8)
    write_frame(make_frame(pixels), tmp_path / "a.pgm")
    (tmp_path / "b.raw").write_bytes(pixels.tobytes() * 2)
    frames = [load_frame(tmp_path / "a.pgm"),
              *open_sequence(SequenceSpec(source=tmp_path / "b.raw", width=7, height=5))]
    for frame in frames:
        assert np.array_equal(frame.pixels, pixels)
        assert frame.pixels.base is None and frame.pixels.flags.writeable
    assert not np.shares_memory(frames[1].pixels, frames[2].pixels)


def test_write_then_load_roundtrip(tmp_path, rng):
    for trial in range(5):
        pixels = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        frame = make_frame(pixels, index=trial)
        path = tmp_path / f"{trial}.pgm"
        write_frame(frame, path)
        back = load_frame(path, index=trial)
        assert np.array_equal(back.pixels, pixels)
        assert (back.width, back.height) == (16, 16)


def test_open_sequence_directory_order(tmp_path):
    # zero-padded names define the order regardless of creation order
    write_frame(uniform_frame(8, 8, 20), tmp_path / "0002.pgm")
    write_frame(uniform_frame(8, 8, 10), tmp_path / "0001.pgm")
    frames = list(open_sequence(SequenceSpec(source=tmp_path)))
    assert [f.index for f in frames] == [0, 1]
    assert frames[0].pixels[0, 0] == 10
    assert frames[1].pixels[0, 0] == 20


def test_open_sequence_sorts_unpadded_names_by_number(tmp_path):
    # lexicographic order would read f10 and f11 before f2
    for i in (11, 2, 0, 10, 1, 9):
        write_frame(uniform_frame(8, 8, i), tmp_path / f"f{i}.pgm")
    for i in (3, 4, 5, 6, 7, 8):
        write_frame(uniform_frame(8, 8, i), tmp_path / f"f{i}.PGM")
    frames = list(open_sequence(SequenceSpec(source=tmp_path)))
    assert [f.pixels[0, 0] for f in frames] == list(range(12))
    assert [f.index for f in frames] == list(range(12))


def test_open_sequence_indices_consecutive(tmp_path):
    for i in range(5):
        write_frame(uniform_frame(8, 8, i), tmp_path / f"{i:04d}.pgm")
    indices = [f.index for f in open_sequence(SequenceSpec(source=tmp_path))]
    assert indices == list(range(5))


def test_open_sequence_empty_directory(tmp_path):
    with pytest.raises(EmptySequence):
        list(open_sequence(SequenceSpec(source=tmp_path)))


@pytest.mark.parametrize("width,height", [(8, 8), (8, None), (None, 8), (0, 0)])
def test_open_sequence_directory_takes_no_geometry(tmp_path, width, height):
    write_frame(uniform_frame(8, 8, 10), tmp_path / "0001.pgm")
    with pytest.raises(ConfigError):
        list(open_sequence(SequenceSpec(source=tmp_path, width=width, height=height)))


def test_open_sequence_raw(tmp_path, rng):
    data = rng.integers(0, 256, size=3 * 64 * 48, dtype=np.uint8)
    path = tmp_path / "frames.raw"
    path.write_bytes(data.tobytes())
    frames = list(open_sequence(SequenceSpec(source=path, width=64, height=48)))
    assert [f.index for f in frames] == [0, 1, 2]
    assert np.array_equal(frames[1].pixels.ravel(), data[64 * 48:2 * 64 * 48])


def test_open_sequence_raw_misaligned(tmp_path):
    path = tmp_path / "frames.raw"
    path.write_bytes(bytes(100))
    with pytest.raises(TruncatedStream):
        list(open_sequence(SequenceSpec(source=path, width=64, height=48)))


def test_open_sequence_raw_empty_file(tmp_path):
    # zero bytes is a multiple of every frame size, but holds no frame
    path = tmp_path / "frames.raw"
    path.write_bytes(b"")
    with pytest.raises(EmptySequence, match="holds no complete frames"):
        list(open_sequence(SequenceSpec(source=path, width=8, height=8)))


def test_open_sequence_raw_shrinking_file(tmp_path, monkeypatch):
    # the size is checked before reading; a file cut short meanwhile ends
    # the stream at the short read instead of yielding unread pixels
    path = tmp_path / "frames.raw"
    path.write_bytes(bytes(3 * 64 * 48))
    monkeypatch.setattr(frame_io, "open", lambda *args: io.BytesIO(bytes(64 * 48 + 10)),
                        raising=False)
    frames = open_sequence(SequenceSpec(source=path, width=64, height=48))
    assert next(frames).index == 0
    with pytest.raises(TruncatedStream, match="frame 1 ends after 10 of 3072 bytes"):
        next(frames)


def test_open_sequence_raw_needs_geometry(tmp_path):
    path = tmp_path / "frames.raw"
    path.write_bytes(bytes(64 * 48))
    with pytest.raises(ConfigError):
        list(open_sequence(SequenceSpec(source=path)))


@pytest.mark.parametrize("width,height", [(0, 48), (64, 0), (-64, 48), (0, 0)])
def test_open_sequence_raw_geometry_must_be_positive(tmp_path, width, height):
    path = tmp_path / "frames.raw"
    path.write_bytes(bytes(64 * 48))
    with pytest.raises(ConfigError):
        list(open_sequence(SequenceSpec(source=path, width=width, height=height)))


def test_frame_shape_validation():
    # the pixels are the one record of the size: 2-D uint8 only
    for pixels in (np.zeros(4, dtype=np.uint8), np.zeros((4, 5, 1), dtype=np.uint8),
                   np.zeros((4, 5), dtype=np.int32)):
        with pytest.raises(ValueError):
            Frame(index=0, pixels=pixels)
    with pytest.raises(ValueError):
        Frame(index=-1, pixels=np.zeros((4, 5), dtype=np.uint8))
    frame = Frame(index=3, pixels=np.zeros((4, 5), dtype=np.uint8))
    assert (frame.width, frame.height, frame.index) == (5, 4, 3)


def test_annotate_lines_only(tmp_path):
    frame = uniform_frame(32, 32, 0)
    out = tmp_path / "ann.pgm"
    write_annotated(frame, [], LinePair(10, 20), out)
    img = load_frame(out).pixels
    assert (img[10] == 255).all()
    assert (img[20] == 255).all()
    untouched = np.delete(np.arange(32), [10, 20])
    assert not img[untouched].any()
    assert not frame.pixels.any()  # input frame left unmodified


def test_annotate_circle_matches_midpoint_oracle(tmp_path):
    from headcount import BlobKeypoint
    frame = uniform_frame(33, 33, 0)
    kp = BlobKeypoint(centroid=(16.0, 16.0), diameter_s=4.0)
    out = tmp_path / "ann.pgm"
    write_annotated(frame, [kp], LinePair(30, 31), out)
    img = load_frame(out).pixels
    ring = {(x - 16, y - 16) for y, x in zip(*np.nonzero(img == 255)) if y < 30}
    assert ring == midpoint_circle_points(2)
    assert len(ring) == 12


def test_annotate_centroid_out_of_bounds(tmp_path):
    from headcount import BlobKeypoint
    frame = uniform_frame(16, 16, 0)
    kp = BlobKeypoint(centroid=(20.0, 8.0), diameter_s=4.0)
    with pytest.raises(ValueError):
        write_annotated(frame, [kp], LinePair(4, 8), tmp_path / "ann.pgm")


def test_annotate_lines_out_of_bounds(tmp_path):
    frame = uniform_frame(16, 16, 0)
    with pytest.raises(ValueError, match="counting lines"):
        write_annotated(frame, [], LinePair(4, 16), tmp_path / "ann.pgm")
    assert not (tmp_path / "ann.pgm").exists()


def test_circle_points_radius_one():
    assert circle_points(1) == [(-1, 0), (0, -1), (0, 1), (1, 0)]
