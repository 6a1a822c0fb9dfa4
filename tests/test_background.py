import itertools
import tracemalloc

import numpy as np
import pytest

from headcount import (ActorSpec, BackgroundModel, BinaryMask, SceneSpec, morph_open,
                       render_scene)
from headcount.background import BLOCK_PIXELS, DEFAULT_ALPHA, DEFAULT_THRESHOLD
from headcount.errors import ConfigError, ShapeError

from conftest import make_frame, uniform_frame
from oracles import (background_step_reference, dilate_bruteforce, erode_bruteforce,
                     floor_to_dtype, subtract_bruteforce, update_then_subtract)


def mask_threshold(threshold, alpha, dtype=np.float32) -> float:
    """The threshold a mask compares the difference from the estimate before
    its frame with: threshold / (1 - alpha), floored to the dtype."""
    return float(floor_to_dtype(dtype, threshold / (1 - alpha)))


def test_init_copies_first_frame():
    model = BackgroundModel(uniform_frame(8, 8, 128), alpha=0.02)
    assert (model.estimate == 128.0).all()
    assert model.estimate.dtype == np.float32


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1])
def test_alpha_out_of_range(alpha):
    with pytest.raises(ConfigError):
        BackgroundModel(uniform_frame(8, 8, 0), alpha=alpha)


@pytest.mark.parametrize("threshold", [0.0, 256.0, -5.0])
def test_threshold_out_of_range(threshold):
    with pytest.raises(ConfigError):
        BackgroundModel(uniform_frame(8, 8, 0), threshold=threshold)


def test_update_formula_midpoint():
    model = BackgroundModel(uniform_frame(8, 8, 100), alpha=0.5)
    model.update(uniform_frame(8, 8, 200))
    assert (model.estimate == 150.0).all()


def test_update_fixed_point_is_exact():
    frame = uniform_frame(8, 8, 77)
    model = BackgroundModel(frame, alpha=0.02)
    for _ in range(50):
        model.update(frame)
    assert (model.estimate == 77.0).all()


def test_update_matches_scalar_recurrence():
    # 200 constant-input updates; the remaining gap is ~3.5, not < 1. The
    # float32 estimate is spaced 2**-16 (1.5e-5) near 200, so it may sit a
    # few of those spacings from the float64 recurrence
    model = BackgroundModel(uniform_frame(8, 8, 0), alpha=0.02)
    frame = uniform_frame(8, 8, 200)
    expected = 0.0
    for _ in range(200):
        model.update(frame)
        expected = (1.0 - 0.02) * expected + 0.02 * 200.0
    assert model.estimate[3, 3] == pytest.approx(expected, abs=1e-4)
    assert 200.0 - expected == pytest.approx(3.51758932, abs=1e-6)


def test_update_geometry_mismatch():
    model = BackgroundModel(uniform_frame(8, 8, 0))
    with pytest.raises(ShapeError, match="^frame 3 is 9x8, model is 8x8$"):
        model.update(uniform_frame(9, 8, 0, index=3))
    with pytest.raises(ShapeError, match="^frame 0 is 8x9, model is 8x8$"):
        model.subtract(uniform_frame(8, 9, 0))


def test_estimate_stays_in_range(rng):
    model = BackgroundModel(make_frame(rng.integers(0, 256, (12, 12), dtype=np.uint8)),
                            alpha=0.3)
    for i in range(100):
        model.update(make_frame(rng.integers(0, 256, (12, 12), dtype=np.uint8), index=i))
        assert model.estimate.min() >= 0.0
        assert model.estimate.max() <= 255.0


def test_convergence_bound_holds():
    # worst-case start one unit shy of the extreme gap keeps the bound strict
    model = BackgroundModel(uniform_frame(8, 8, 1), alpha=0.02)
    frame = uniform_frame(8, 8, 255)
    for k in range(1, 301):
        model.update(frame)
        gap = np.abs(model.estimate - 255.0).max()
        assert gap <= 255.0 * (1.0 - 0.02) ** k


def test_subtract_equal_frames_all_background():
    frame = uniform_frame(8, 8, 93)
    model = BackgroundModel(frame)
    assert not model.subtract(frame).bits.any()


def test_subtract_threshold_is_strict():
    # at alpha 0.5 the mask's threshold 12.5 / (1 - 0.5) is exactly 25. A
    # subtract also updates the estimate, so each probe gets a fresh model
    assert mask_threshold(12.5, 0.5) == 25.0
    for value, foreground in ((125, False),   # |diff| == 25: background
                              (126, True)):
        first, frame = uniform_frame(8, 8, 100), uniform_frame(8, 8, value)
        model = BackgroundModel(first, alpha=0.5, threshold=12.5)
        bits = model.subtract(frame).bits
        expected = subtract_bruteforce(frame.pixels, first.pixels, 25.0)
        assert np.array_equal(bits, expected)
        assert bits.all() if foreground else not bits.any()
        assert np.array_equal(model.estimate, background_step_reference(
            first.pixels.astype(np.float32), frame.pixels, 0.5))


def test_subtract_single_pixel():
    base = np.full((8, 8), 40, dtype=np.uint8)
    model = BackgroundModel(make_frame(base), threshold=25.0)
    changed = base.copy()
    changed[2, 5] = 66  # diff 26, above 25 / (1 - alpha) = 25.51
    mask = model.subtract(make_frame(changed))
    assert mask.bits.sum() == 1
    assert mask.bits[2, 5]


def test_subtract_matches_bruteforce(rng):
    for _ in range(10):
        a = rng.integers(0, 256, (12, 12), dtype=np.uint8)
        b = rng.integers(0, 256, (12, 12), dtype=np.uint8)
        model = BackgroundModel(make_frame(a), threshold=25.0)
        mask = model.subtract(make_frame(b))
        expected = subtract_bruteforce(b, a, mask_threshold(25.0, DEFAULT_ALPHA))
        assert np.array_equal(mask.bits, expected)


def test_subtract_symmetric_in_roles(rng):
    a = rng.integers(0, 256, (10, 10), dtype=np.uint8)
    b = rng.integers(0, 256, (10, 10), dtype=np.uint8)
    forward = BackgroundModel(make_frame(a), threshold=30.0).subtract(make_frame(b))
    backward = BackgroundModel(make_frame(b), threshold=30.0).subtract(make_frame(a))
    assert np.array_equal(forward.bits, backward.bits)


def noise_frames(rng, count, shape=(36, 48), level=100, amplitude=40):
    for i in range(count):
        noise = rng.integers(-amplitude, amplitude + 1, shape)
        yield make_frame(level + noise, index=i)


def test_estimate_and_masks_equal_reference_bit_for_bit(rng):
    # ten warm-up frames that only update, then frames that are masked
    # against the estimate before them and update it
    frames = list(noise_frames(rng, 101))
    model = BackgroundModel(frames[0], alpha=0.02, threshold=38.0)
    estimate = frames[0].pixels.astype(np.float32)
    threshold = mask_threshold(38.0, 0.02)
    flagged = 0
    for frame in frames[1:]:
        if frame.index <= 10:
            model.update(frame)
        else:
            mask = model.subtract(frame)
            expected = subtract_bruteforce(frame.pixels, estimate, threshold)
            assert np.array_equal(mask.bits, expected)
            flagged += int(expected.sum())
        estimate = background_step_reference(estimate, frame.pixels, 0.02)
        assert np.array_equal(model.estimate, estimate)
    assert 0 < flagged < 90 * 36 * 48


@pytest.mark.parametrize("threshold", [25.0, 25.1, 38.0])
@pytest.mark.parametrize("alpha, dtype", [(0.02, np.float32), (1e-7, np.float64)])
def test_one_walk_is_update_then_subtract_up_to_rounding(rng, alpha, dtype, threshold):
    # the update shrinks |frame - estimate| by exactly 1 - alpha before
    # rounding, so comparing the difference before it with threshold /
    # (1 - alpha) is the two-pass rule: a mask may differ from it only where
    # rounding meets the threshold, and the estimates are the same steps
    rescaled = threshold / (1 - alpha)
    frames = noise_frames(rng, 2001)
    first = next(frames)
    model = BackgroundModel(first, alpha=alpha, threshold=threshold)
    assert model.estimate.dtype == dtype
    estimate = first.pixels.astype(dtype)
    for frame in frames:
        before = np.abs(frame.pixels - estimate.astype(np.float64))
        estimate, expected = update_then_subtract(estimate, frame.pixels, alpha, threshold)
        mask = model.subtract(frame).bits
        assert np.array_equal(model.estimate, estimate)
        assert (np.abs(before[mask != expected] - rescaled) <= 1e-4).all()


def test_one_walk_is_update_then_subtract_on_a_rendered_scene():
    scene = SceneSpec(width=96, height=72, frames=60, background_intensity=60,
                      noise_amplitude=6, seed=5,
                      actors=[ActorSpec(radius=9, start=(30.0, 4.0), velocity=(0.5, 1.2),
                                        spawn_frame=5, despawn_frame=None, intensity=200),
                              ActorSpec(radius=6, start=(80.0, 70.0), velocity=(-1.0, -1.0),
                                        spawn_frame=10, despawn_frame=50, intensity=120)])
    frames = render_scene(scene)
    first = next(frames)
    model = BackgroundModel(first)
    estimate = first.pixels.astype(np.float32)
    flagged = 0
    for frame in frames:
        estimate, expected = update_then_subtract(estimate, frame.pixels, DEFAULT_ALPHA,
                                                  DEFAULT_THRESHOLD)
        mask = model.subtract(frame).bits
        assert np.array_equal(model.estimate, estimate)
        assert np.count_nonzero(mask != expected) == 0
        flagged += int(expected.sum())
    assert flagged > 0


def assert_steps_equal_reference(frames, alpha, threshold, dtype):
    model = BackgroundModel(frames[0], alpha=alpha, threshold=threshold)
    assert model.estimate.dtype == dtype
    estimate = frames[0].pixels.astype(dtype)
    rescaled = mask_threshold(threshold, alpha, dtype)
    for frame in frames[1:]:
        expected = subtract_bruteforce(frame.pixels, estimate, rescaled)
        assert np.array_equal(model.subtract(frame).bits, expected)
        estimate = background_step_reference(estimate, frame.pixels, alpha)
        assert np.array_equal(model.estimate, estimate)
    return model


BLOCK_640 = BLOCK_PIXELS // 640


@pytest.mark.parametrize("height", [1, BLOCK_640 - 1, BLOCK_640, BLOCK_640 + 1,
                                    2 * BLOCK_640 + 3])
@pytest.mark.parametrize("alpha, dtype", [(0.02, np.float32),
                                          (1e-7, np.float64)])  # stall guard
def test_row_blocks_equal_whole_frame_reference(rng, height, alpha, dtype):
    frames = list(noise_frames(rng, 6, shape=(height, 640)))
    model = assert_steps_equal_reference(frames, alpha, 38.0, dtype)
    # one block of rows, max(1, BLOCK_PIXELS // width) of them, at most the
    # frame's height
    assert model._scratch.shape == (min(height, BLOCK_640), 640)
    assert model._scratch.dtype == dtype


@pytest.mark.parametrize("height", [1, 2, 3])
def test_rows_wider_than_a_block_go_one_at_a_time(rng, height):
    width = BLOCK_PIXELS + 5
    frames = list(noise_frames(rng, 4, shape=(height, width)))
    model = assert_steps_equal_reference(frames, 0.02, 38.0, np.float32)
    assert model._scratch.shape == (1, width)


def test_float32_estimate_stays_near_float64_recurrence(rng):
    # each step shrinks earlier rounding errors by (1 - alpha), so they do not
    # pile up over a long stream
    frames = noise_frames(rng, 10_001, shape=(48, 64))
    first = next(frames)
    model = BackgroundModel(first, alpha=0.02)
    assert model.estimate.dtype == np.float32
    estimate = first.pixels.astype(np.float64)
    drift = 0.0
    for frame in frames:
        model.update(frame)
        estimate = (1.0 - 0.02) * estimate + 0.02 * frame.pixels
        drift = max(drift, float(np.abs(model.estimate - estimate).max()))
    assert drift < 1e-3


@pytest.mark.parametrize("threshold", [1.0, 25.0, 25.1, 255.0])
def test_float32_only_above_the_stall_boundary(threshold):
    # float32 stalls within 2**-17 / alpha levels of a constant input, and is
    # used only while that gap is under threshold / 2
    boundary = 2.0**-16 / threshold
    frame = uniform_frame(4, 4, 0)
    at = BackgroundModel(frame, alpha=boundary, threshold=threshold)
    above = BackgroundModel(frame, alpha=np.nextafter(boundary, 1.0), threshold=threshold)
    for model, dtype in ((at, np.float64), (above, np.float32)):
        assert model.estimate.dtype == dtype
        assert model._scratch.dtype == dtype


@pytest.mark.parametrize("alpha, threshold, dtype", [
    (1e-5, 25.0, np.float32),                # stalls at most 0.76 levels short
    (2.0**-16 / 254.0, 254.0, np.float64),   # on the boundary
])
def test_step_edge_clears_mask_at_small_alpha(alpha, threshold, dtype):
    model = BackgroundModel(uniform_frame(1, 1, 0), alpha=alpha, threshold=threshold)
    assert model.estimate.dtype == dtype
    step = uniform_frame(1, 1, 255)
    assert model.subtract(step).bits.all()
    # enough updates to close a 255-level gap to the threshold, 2% to spare
    update = model.update
    for _ in range(int(1.02 * np.log(255.0 / threshold) / alpha)):
        update(step)
    assert not model.subtract(step).bits.any()


def test_subtract_threshold_float32_cannot_hold(rng):
    # the mask's threshold 25.1 / (1 - 0.02) rounds up to float32: a
    # difference equal to the rounded value is foreground and one float32
    # spacing below it is not
    quotient = 25.1 / (1 - 0.02)
    assert float(np.float32(quotient)) > quotient
    spaced = (np.float32(quotient).view(np.int32) + np.arange(-4, 5, dtype=np.int32))
    diffs = spaced.view(np.float32)
    # the estimate lies below the frame in the first half and above it in the
    # second, each differing from it by exactly one of ``diffs``
    pixels = np.array([[50] * 9 + [0] * 9], dtype=np.uint8)
    model = BackgroundModel(make_frame(pixels), threshold=25.1)
    model.estimate[0] = np.concatenate([np.float32(50) - diffs, diffs])
    mask = model.subtract(make_frame(pixels)).bits
    assert np.array_equal(mask[0], np.tile(np.arange(-4, 5) >= 0, 2))
    # and on noise: the float64 comparison of the float32 differences with
    # the unrounded quotient
    frames = list(noise_frames(rng, 40))
    model = BackgroundModel(frames[0], alpha=0.02, threshold=25.1)
    estimate = frames[0].pixels.astype(np.float32)
    for frame in frames[1:]:
        diff = np.abs(frame.pixels.astype(np.float32) - estimate)
        expected = diff.astype(np.float64) > quotient
        assert np.array_equal(model.subtract(frame).bits, expected)
        estimate = background_step_reference(estimate, frame.pixels, 0.02)
        assert np.array_equal(model.estimate, estimate)


def test_subtract_masks_share_no_memory_and_frames_stay_untouched(rng):
    first, second, third = noise_frames(rng, 3)
    model = BackgroundModel(first, threshold=20.0)
    kept = [f.pixels.copy() for f in (second, third)]
    mask_a = model.subtract(second).words
    snapshot = mask_a.copy()
    mask_b = model.subtract(third).words
    owned = (model.estimate, model._scratch, model._magnitude)
    for mask in (mask_a, mask_b):
        for array in owned:
            assert not np.shares_memory(mask, array)
    assert not np.shares_memory(mask_a, mask_b)
    for pair in itertools.combinations(owned, 2):
        assert not np.shares_memory(*pair)
    assert np.array_equal(mask_a, snapshot)
    assert np.array_equal(second.pixels, kept[0])
    assert np.array_equal(third.pixels, kept[1])


def test_update_and_subtract_allocate_no_float_frame(rng):
    # both steps work in the model's one-block scratch buffers: update may
    # allocate no more than numpy's fixed-size casting buffer (64 kB), and
    # subtract that beside two arrays the size of its packed mask (11 words
    # per 640-pixel row), one of bytes and one of words; a block of booleans
    # is smaller than the buffer
    first, frame = noise_frames(rng, 2, shape=(480, 640))
    model = BackgroundModel(first)
    buffer = 64 * 1024
    tracemalloc.start()
    try:
        for step, allowed in ((model.update, buffer),
                              (model.subtract, 2 * 480 * 11 * 8 + buffer)):
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            step(frame)
            _, peak = tracemalloc.get_traced_memory()
            assert peak - base < allowed, step.__name__
    finally:
        tracemalloc.stop()


def packed_columns(mask):
    """Every bit of the mask's packed rows, one column each: word k of a row
    holds columns 64k to 64k+63 from its highest bit down."""
    return np.unpackbits(mask.words.astype(">u8").view(np.uint8), axis=1).view(bool)


@pytest.mark.parametrize("width", [1, 63, 64, 65, 127, 128, 129])
def test_mask_bits_round_trip_through_packed_rows(rng, width):
    # rows of 63 and 127 columns end in one pad bit, 64 and 128 in a pad word
    for height in (1, 5):
        for bits in _open_masks(rng, height, width).values():
            mask = BinaryMask(bits)
            assert mask.words.dtype == np.uint64
            assert mask.words.shape == (height, width // 64 + 1)
            assert (mask.height, mask.width) == (height, width)
            columns = packed_columns(mask)
            assert np.array_equal(columns[:, :width], bits)
            assert not columns[:, width:].any()
            assert np.array_equal(mask.bits, bits)
            assert mask.bits.dtype == np.bool_


@pytest.mark.parametrize("width", [63, 64, 65, 127, 128, 129])
def test_subtract_and_open_leave_every_pad_bit_zero(rng, width):
    shape = (9, width)
    model = BackgroundModel(uniform_frame(width, 9, value=0), threshold=20.0)
    frames = [uniform_frame(width, 9, value=255),
              make_frame(rng.integers(0, 256, shape)),
              make_frame(np.where(rng.random(shape) < 0.9, 255, 0))]
    for frame in frames:
        expected = subtract_bruteforce(frame.pixels, model.estimate,
                                       mask_threshold(20.0, DEFAULT_ALPHA))
        mask = model.subtract(frame)
        assert not packed_columns(mask)[:, width:].any()
        assert np.array_equal(mask.bits, expected)
        for radius in (1, 2):
            opened = morph_open(mask, radius)
            assert opened.words.shape == mask.words.shape
            assert not packed_columns(opened)[:, width:].any()
    # a full mask stays full: every pixel lies in some square inside it
    assert morph_open(model.subtract(frames[0])).bits.all()


def test_mask_bits_are_read_only(rng):
    # the words are a mask's one stored form, so a write into its boolean
    # view must fail rather than never reach labeling
    bits = rng.random((6, 70)) < 0.5
    first, frame = noise_frames(rng, 2, shape=(6, 70))
    model = BackgroundModel(first)
    for mask in (BinaryMask(bits), model.subtract(frame), morph_open(BinaryMask(bits))):
        view = mask.bits
        with pytest.raises(ValueError):
            view[0, 0] = True
        with pytest.raises(ValueError):
            view |= True
    # the mask packed its input and keeps no reference to it
    mask, kept = BinaryMask(bits), bits.copy()
    bits[:] = True
    assert np.array_equal(mask.bits, kept)


def test_open_removes_isolated_pixel():
    bits = np.zeros((9, 9), dtype=bool)
    bits[4, 4] = True
    assert not morph_open(BinaryMask(bits), radius=1).bits.any()


def test_open_preserves_solid_block():
    bits = np.zeros((16, 16), dtype=bool)
    bits[3:13, 2:12] = True
    opened = morph_open(BinaryMask(bits), radius=1)
    expected = dilate_bruteforce(erode_bruteforce(bits, 1), 1)
    assert np.array_equal(opened.bits, expected)
    assert np.array_equal(opened.bits, bits)  # the 10x10 block survives intact


def test_open_matches_bruteforce_on_random_masks(rng):
    for _ in range(8):
        bits = rng.random((14, 14)) < 0.45
        opened = morph_open(BinaryMask(bits), radius=1)
        expected = dilate_bruteforce(erode_bruteforce(bits, 1), 1)
        assert np.array_equal(opened.bits, expected)


def test_open_empty_is_empty():
    bits = np.zeros((8, 8), dtype=bool)
    assert not morph_open(BinaryMask(bits), radius=1).bits.any()


def test_open_idempotent(rng):
    for _ in range(8):
        bits = rng.random((20, 20)) < 0.5
        once = morph_open(BinaryMask(bits), radius=1)
        twice = morph_open(once, radius=1)
        assert np.array_equal(once.bits, twice.bits)


def test_open_never_exceeds_dilation(rng):
    for _ in range(8):
        bits = rng.random((20, 20)) < 0.4
        opened = morph_open(BinaryMask(bits), radius=1).bits
        dilated = dilate_bruteforce(bits, 1)
        assert not (opened & ~dilated).any()


def test_open_radius_validation():
    with pytest.raises(ConfigError):
        morph_open(BinaryMask(np.zeros((8, 8), dtype=bool)), radius=0)


# widths on both sides of the 64-column word boundaries of the packed rows
OPEN_WIDTHS = [1, 63, 64, 65, 127, 128, 129]


def _open_masks(rng, height, width):
    speckle = rng.random((height, width)) < 0.5
    solid = speckle.copy()
    for _ in range(3):
        r0, c0 = rng.integers(height), rng.integers(width)
        solid[r0:r0 + rng.integers(3, 10), c0:c0 + rng.integers(3, 40)] = True
    # two columns at each side: no square fits, but one would if a row's
    # last column touched the next row's first
    edges = np.zeros((height, width), dtype=bool)
    edges[:, :2] = edges[:, -2:] = True
    return {"full": np.ones((height, width), dtype=bool),
            "empty": np.zeros((height, width), dtype=bool),
            "speckle": speckle, "solid": solid, "edges": edges}


def _check_open(bits, radius):
    before = bits.copy()
    opened = morph_open(BinaryMask(bits), radius=radius).bits
    assert np.array_equal(opened, dilate_bruteforce(erode_bruteforce(bits, radius), radius))
    assert opened.dtype == np.bool_ and opened.flags.c_contiguous
    assert not np.shares_memory(opened, bits)
    assert np.array_equal(bits, before)


@pytest.mark.parametrize("width", OPEN_WIDTHS)
@pytest.mark.parametrize("radius", [1, 2, 3])
def test_open_matches_bruteforce_across_word_boundaries(rng, radius, width):
    # heights 1-3 leave no room for a 5x5 or 7x7 element; 7 and 9 leave some
    for height in (1, 2, 3, 7, 9):
        for bits in _open_masks(rng, height, width).values():
            _check_open(bits, radius)


@pytest.mark.parametrize("shape", [(1, 1), (2, 3), (3, 2), (4, 7), (7, 4)])
def test_open_radius_larger_than_mask(rng, shape):
    radius = max(shape) + 1
    for bits in _open_masks(rng, *shape).values():
        _check_open(bits, radius)


def test_open_radius_larger_than_wide_mask():
    bits = np.ones((3, 129), dtype=bool)
    assert not erode_bruteforce(bits, 200).any()
    assert not morph_open(BinaryMask(bits), radius=200).bits.any()
    assert bits.all()
