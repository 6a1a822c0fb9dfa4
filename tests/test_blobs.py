import math

import numpy as np
import pytest

from headcount import (BinaryMask, BlobFilterParams, BlobKeypoint, BlobMeasurements,
                       LinePair, PipelineConfig, circularity, convexity, detect_blobs,
                       inertia_ratio, label_components, measure)
from headcount.errors import ConfigError, DegenerateBlob, NotFound

import headcount.blobs
from oracles import (crofton_perimeter, disk_mask, disk_pixel_count, flood_fill_labels,
                     hull_pixel_count, label_image, measure_fullframe, row_runs)


def mask_of(bits):
    return BinaryMask(np.asarray(bits, dtype=bool))


def blob_mask(points, shape):
    bits = np.zeros(shape, dtype=bool)
    for x, y in points:
        bits[y, x] = True
    return BinaryMask(bits)


# ---------------------------------------------------------------- labeling

def test_label_empty_mask():
    labels = label_components(mask_of(np.zeros((8, 8))), 8)
    assert labels.count == 0
    assert not label_image(labels, (8, 8)).any()


def test_label_diagonal_connectivity():
    bits = np.zeros((4, 4), dtype=bool)
    bits[1, 1] = bits[2, 2] = True
    assert label_components(mask_of(bits), 4).count == 2
    assert label_components(mask_of(bits), 8).count == 1


def test_label_order_is_raster_first_encounter():
    bits = np.zeros((5, 7), dtype=bool)
    bits[0, 5] = True          # first in raster order
    bits[2, 0:3] = True
    bits[4, 6] = True
    image = label_image(label_components(mask_of(bits), 8), bits.shape)
    assert image[0, 5] == 1
    assert image[2, 0] == 2
    assert image[4, 6] == 3


def test_label_deterministic():
    rng = np.random.default_rng(5)
    bits = rng.random((32, 32)) < 0.5
    first = label_image(label_components(mask_of(bits), 8), bits.shape)
    second = label_image(label_components(mask_of(bits), 8), bits.shape)
    assert np.array_equal(first, second)


def test_label_bad_connectivity():
    # a config checks connectivity by the same rule, with the same message
    for value in (6, 0, 2**70):
        with pytest.raises(ConfigError) as labeling:
            label_components(mask_of(np.zeros((4, 4))), value)
        with pytest.raises(ConfigError) as config:
            PipelineConfig(lines=LinePair(1, 2), connectivity=value)
        assert str(config.value) == str(labeling.value)
        message = str(labeling.value)
        assert message.startswith(f"connectivity must be 4 or 8, got {str(value)[:20]}")
        assert len(message) < 80


def test_label_matches_flood_fill_oracle(rng):
    for _ in range(60):
        density = rng.uniform(0.1, 0.9)
        bits = rng.random((32, 32)) < density
        for conn in (4, 8):
            got = label_components(mask_of(bits), conn)
            expected = flood_fill_labels(bits, conn)
            assert np.array_equal(label_image(got, bits.shape), expected)
            assert got.count == int(expected.max())


def spiral_mask(h, w):
    # one-pixel path walked clockwise inward with a one-pixel gap between
    # arms: a single long, thin component spread over every row
    bits = np.zeros((h, w), dtype=bool)
    y, x, dy, dx = 0, 0, 0, 1
    bits[0, 0] = True
    while True:
        for _ in range(2):  # straight on, else turn clockwise
            ny, nx = y + dy, x + dx
            ay, ax = y + 2 * dy, x + 2 * dx
            if (0 <= ny < h and 0 <= nx < w and not bits[ny, nx]
                    and not (0 <= ay < h and 0 <= ax < w and bits[ay, ax])):
                y, x = ny, nx
                bits[y, x] = True
                break
            dy, dx = dx, -dy
        else:
            return bits


def comb_mask(h, w):
    # one-pixel teeth every other column, joined only by the last row, so
    # every tooth starts as its own tree and all merge at the bottom
    bits = np.zeros((h, w), dtype=bool)
    bits[:, ::2] = True
    bits[-1] = True
    return bits


def staircase_mask(n, descending):
    bits = np.eye(n, dtype=bool)
    return bits if descending else bits[:, ::-1].copy()


LABEL_SHAPES = {
    "spiral": lambda: spiral_mask(480, 640),
    "comb": lambda: comb_mask(40, 81),
    "comb_upside_down": lambda: comb_mask(40, 81)[::-1].copy(),
    "staircase_down": lambda: staircase_mask(50, True),
    "staircase_up": lambda: staircase_mask(50, False),
    "checkerboard": lambda: np.indices((31, 40)).sum(axis=0) % 2 == 0,
    "full": lambda: np.ones((30, 40), dtype=bool),
    "empty": lambda: np.zeros((30, 40), dtype=bool),
    "row": lambda: np.arange(57)[None, :] % 5 < 3,
    "column": lambda: np.arange(57)[:, None] % 5 < 3,
    "single_pixel": lambda: np.ones((1, 1), dtype=bool),
}


@pytest.mark.parametrize("conn", [4, 8])
@pytest.mark.parametrize("shape", sorted(LABEL_SHAPES))
def test_label_matches_flood_fill_on_stress_shapes(shape, conn):
    bits = LABEL_SHAPES[shape]()
    got = label_components(mask_of(bits), conn)
    expected = flood_fill_labels(bits, conn)
    assert got.count == int(expected.max())
    # each run's component is the oracle label of its first pixel, and the
    # painted image checks that the runs cover exactly the labeled pixels
    assert np.array_equal(got.run_component, expected[got.srow, got.scol])
    assert np.array_equal(label_image(got, bits.shape), expected)


# widths on both sides of the 64-column words of the packed rows: rows of
# 63 and 127 columns end in one pad bit, rows of 64 and 128 in a whole pad word
WORD_WIDTHS = [63, 64, 65, 127, 128, 129]


@pytest.mark.parametrize("conn", [4, 8])
@pytest.mark.parametrize("width", [1, 2, 3, 9] + WORD_WIDTHS)
def test_label_matches_flood_fill_on_runs_ending_in_the_last_column(rng, width, conn):
    # a run ending in column w-1 ends, exclusively, in the row's first pad
    # bit: with nw = w // 64 + 1 words per row its key row*64*nw + w is the
    # largest of its row, and at widths 63 and 127 it lies right below the
    # next row's first key (row+1)*64*nw. On masks one or two columns wide
    # every run touches an edge, and a full mask is one run per row
    for density in (0.2, 0.5, 0.8, 1.0):
        bits = rng.random((40, width)) < density
        bits[::3, -1] = True
        got = label_components(mask_of(bits), conn)
        expected = flood_fill_labels(bits, conn)
        assert got.count == int(expected.max())
        assert np.array_equal(label_image(got, bits.shape), expected)


@pytest.mark.parametrize("width", [1, 2] + WORD_WIDTHS)
def test_run_table_matches_the_padded_copy_oracle(rng, width):
    for height in (1, 2, 17):
        for density in (0.0, 0.05, 0.5, 0.95, 1.0):
            bits = rng.random((height, width)) < density
            bits[rng.random(height) < 0.3, 0] = True
            for conn in (4, 8):
                got = label_components(mask_of(bits), conn)
                for column, want in zip((got.srow, got.scol, got.ecol), row_runs(bits)):
                    assert column.dtype == want.dtype
                    assert np.array_equal(column, want)


def test_label_stress_shapes_have_the_intended_components():
    assert flood_fill_labels(spiral_mask(480, 640), 4).max() == 1
    assert flood_fill_labels(comb_mask(40, 81), 4).max() == 1
    assert flood_fill_labels(staircase_mask(50, False), 8).max() == 1
    assert flood_fill_labels(staircase_mask(50, False), 4).max() == 50


def test_component_areas_sum_to_foreground(rng):
    bits = rng.random((40, 40)) < 0.5
    labels = label_components(mask_of(bits), 8)
    total = sum(m.area for m in measure(labels, range(1, labels.count + 1)))
    assert total == int(bits.sum())


# ---------------------------------------------------------------- measure

def test_measure_single_pixel():
    labels = label_components(blob_mask([(3, 7)], (10, 10)), 8)
    m = measure(labels, [1])[0]
    assert m.area == 1
    assert m.centroid == (3.0, 7.0)


def test_measure_two_by_two_block():
    labels = label_components(blob_mask([(0, 0), (1, 0), (0, 1), (1, 1)], (6, 6)), 8)
    m = measure(labels, [1])[0]
    assert m.area == 4
    assert m.centroid == (0.5, 0.5)


def test_measure_disk_radius_ten():
    labels = label_components(BinaryMask(disk_mask(10)), 8)
    m = measure(labels, [1])[0]
    assert m.area == disk_pixel_count(10) == 317
    assert abs(m.area - math.pi * 100) / (math.pi * 100) < 0.03
    center = disk_mask(10).shape[0] // 2
    assert abs(m.centroid[0] - center) < 0.1
    assert abs(m.centroid[1] - center) < 0.1


def test_measure_invalid_id():
    # ids out of range, unsorted or repeated, on a 1- and a 3-component mask
    one = label_components(blob_mask([(1, 1)], (4, 4)), 8)
    three = label_components(mask_of(drawn("#.##.###")), 8)
    for labels, ids in ((one, [2]), (one, [0]), (one, [1, 0]), (one, [1, 2, 1]),
                        (one, [-1, 1]), (three, [3, 1]), (three, [1, 1]),
                        (three, [1, 2, 2]), (three, [2, 4])):
        with pytest.raises(NotFound):
            measure(labels, ids)
    # ids that are not integers, though each would convert to a valid one
    for labels, ids in ((one, [1.5]), (one, [1.0]), (one, [True]), (one, ["1"]),
                        (three, [1, 2.0]), (three, [1, True]), (three, [np.float64(1)]),
                        (three, np.array([1.0, 2.0])), (three, np.array([True])),
                        (three, [np.True_])):
        with pytest.raises(NotFound):
            measure(labels, ids)
    # integers of any integer type are ids
    assert [m.area for m in measure(three, [np.int64(1), np.uint8(3)])] == [1, 3]
    assert [m.area for m in measure(three, np.array([2], dtype=np.int32))] == [2]


# ------------------------------------------- run-based measure vs oracle

def assert_same_measurements(got, want):
    assert got.area == want.area
    assert got.perimeter == want.perimeter
    assert got.box == want.box
    assert got.hull_area == want.hull_area
    assert got.centroid == want.centroid
    scale = max(want.second_moments[0], want.second_moments[1])
    for g, w in zip(got.second_moments, want.second_moments):
        assert abs(g - w) <= 1e-12 * scale


def assert_same_keypoints(got, want):
    # the scores behind the filter come from measurements compared one by one
    assert [(g.centroid, g.diameter_s) for g in got] == \
        [(w.centroid, w.diameter_s) for w in want]


def measure_each_fullframe(labels, component_ids):
    return [measure_fullframe(labels, cid) for cid in component_ids]


def detect_recorded(monkeypatch, measure_fn, mask, params, connectivity=8):
    """detect_blobs with ``measure_fn`` in place of measure; returns the
    keypoints and every measurement taken, by component id."""
    measured = {}

    def recording(labels, component_ids):
        got = measure_fn(labels, component_ids)
        measured.update(zip(np.asarray(component_ids).tolist(), got))
        return got

    with monkeypatch.context() as m:
        m.setattr(headcount.blobs, "measure", recording)
        return detect_blobs(mask, params, connectivity), measured


def assert_detect_matches_oracle(monkeypatch, mask, params, connectivity=8):
    got, got_m = detect_recorded(monkeypatch, measure, mask, params, connectivity)
    want, want_m = detect_recorded(monkeypatch, measure_each_fullframe, mask, params,
                                   connectivity)
    assert_same_keypoints(got, want)
    assert got_m.keys() == want_m.keys()
    for cid, m in want_m.items():
        assert_same_measurements(got_m[cid], m)
    return got


def many_disks_mask(rng, count=150):
    bits = np.zeros((480, 640), dtype=bool)
    yy, xx = np.ogrid[:480, :640]
    for _ in range(count):
        r = rng.uniform(2.0, 30.0)
        cx, cy = rng.uniform(-10, 650), rng.uniform(-10, 490)
        bits |= (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r
    return bits


def test_measure_matches_fullframe_oracle_on_random_masks(monkeypatch):
    # the masks of the acceptance labeling suite; the every-pixel hull makes
    # the oracle slow, so here only components of 10 or more pixels are
    # compared, and the small-mask test below compares every component
    rng = np.random.default_rng(20250811)
    for _ in range(1000):
        density = rng.uniform(0.1, 0.9)
        mask = mask_of(rng.random((64, 64)) < density)
        for conn in (4, 8):
            assert_detect_matches_oracle(monkeypatch, mask, relaxed(min_area=10), conn)


def test_measure_matches_fullframe_oracle_on_small_masks(rng):
    for _ in range(200):
        bits = rng.random((16, 16)) < rng.uniform(0.1, 0.9)
        for conn in (4, 8):
            labels = label_components(mask_of(bits), conn)
            ids = range(1, labels.count + 1)
            for cid, got in zip(ids, measure(labels, ids)):
                assert_same_measurements(got, measure_fullframe(labels, cid))


def test_measure_matches_fullframe_oracle_on_disks():
    for radius in range(5, 31):
        for center in (None, (radius + 3.5, radius + 3.25)):
            labels = label_components(BinaryMask(disk_mask(radius, center=center)), 8)
            assert labels.count == 1
            assert_same_measurements(measure(labels, [1])[0], measure_fullframe(labels, 1))


def test_detect_matches_fullframe_oracle_on_many_disks(monkeypatch):
    mask = BinaryMask(many_disks_mask(np.random.default_rng(11)))
    for params in (BlobFilterParams(), relaxed()):
        assert len(assert_detect_matches_oracle(monkeypatch, mask, params)) > 20


def test_detect_measures_every_candidate_in_one_call(monkeypatch):
    calls = []

    def spy(labels, component_ids):
        calls.append(np.asarray(component_ids).tolist())
        return measure(labels, component_ids)

    monkeypatch.setattr(headcount.blobs, "measure", spy)
    detect_blobs(BinaryMask(many_disks_mask(np.random.default_rng(11))))
    assert len(calls) == 1 and len(calls[0]) > 20
    assert calls[0] == sorted(set(calls[0]))
    calls.clear()
    assert detect_blobs(blob_mask([(1, 1)], (8, 8))) == []
    assert calls == []


def drawn(*rows):
    """Boolean mask from rows of text, '#' for foreground."""
    return np.array([[c == "#" for c in row] for row in rows])


def assert_batch_matches_oracle(bits, conn):
    labels = label_components(mask_of(bits), conn)
    ids = range(1, labels.count + 1)
    for cid, got in zip(ids, measure(labels, ids)):
        assert_same_measurements(got, measure_fullframe(labels, cid))
    return labels.count


def test_measure_runs_meeting_only_at_a_corner():
    # at connectivity 4 the second run of row 1 meets row 0's run only at a
    # corner and joins its component through row 2; in the last mask the
    # corner-to-corner pixels are separate components
    bits = drawn("###..",
                 "#..#.",
                 "####.")
    assert assert_batch_matches_oracle(bits, 4) == 1
    assert assert_batch_matches_oracle(bits, 8) == 1
    assert assert_batch_matches_oracle(drawn("#.#", ".#.", "#.#"), 4) == 5


def test_measure_components_interleaved_in_the_same_rows():
    # two combs whose teeth alternate along rows 2 to 5
    bits = drawn("#########",
                 "#...#...#",
                 "#.#.#.#.#",
                 "#.#.#.#.#",
                 "#.#.#.#.#",
                 "#.#.#.#.#",
                 "..#...#..",
                 "..#####..")
    for conn in (4, 8):
        assert assert_batch_matches_oracle(bits, conn) == 2


def test_measure_subset_equals_the_full_batch(rng):
    for _ in range(20):
        bits = rng.random((24, 32)) < rng.uniform(0.2, 0.8)
        for conn in (4, 8):
            labels = label_components(mask_of(bits), conn)
            full = measure(labels, range(1, labels.count + 1))
            subset = rng.choice(labels.count, size=(labels.count + 2) // 3,
                                replace=False) + 1
            subset.sort()
            assert measure(labels, subset) == [full[cid - 1] for cid in subset]


def test_measure_follows_the_order_of_the_ids():
    # one measurement per id, in the ascending order detect_blobs passes;
    # unsorted or repeated ids are rejected, never reordered
    labels = label_components(mask_of(drawn("#.##.###")), 8)
    full = measure(labels, [1, 2, 3])
    assert [m.area for m in full] == [1, 2, 3]
    for ids in ([1, 3], [2], [2, 3]):
        assert measure(labels, ids) == [full[cid - 1] for cid in ids]
        assert measure(labels, np.array(ids)) == [full[cid - 1] for cid in ids]
    assert measure(labels, []) == []
    for ids in ([3, 1], [1, 1]):
        with pytest.raises(NotFound):
            measure(labels, ids)


def test_measure_is_exact_on_a_frame_two_to_the_21_wide():
    # per run, last*(last+1)*(2*last+1) passes 2**63 here, and the sums of
    # x^2 pass 2**64: the measurements must still come from exact sums
    w = 2**21
    spans = [(y, 2 + y * 2**15, w - 8 - y * 2**15) for y in range(8)]
    bits = np.zeros((8, w), dtype=bool)
    for y, a, b in spans:
        bits[y, a:b + 1] = True
    bits[:3, w - 3:] = True
    labels = label_components(mask_of(bits), 8)
    assert labels.count == 2
    big, block = measure(labels, [1, 2])

    area = sx = sy = sxx = syy = sxy = 0
    for y, a, b in spans:
        n = b - a + 1
        rx = (a + b) * n // 2
        area += n
        sx += rx
        sy += y * n
        sxx += (b * (b + 1) * (2 * b + 1) - (a - 1) * a * (2 * a - 1)) // 6
        syy += y * y * n
        sxy += y * rx
    assert sxx > 2**64
    nn = area * area
    assert big.area == area
    assert big.centroid == (sx / area, sy / area)
    assert big.second_moments == ((area * sxx - sx * sx) / nn, (area * syy - sy * sy) / nn,
                                  (area * sxy - sx * sy) / nn)
    assert big.perimeter == crofton_perimeter(bits[:, spans[0][1]:spans[0][2] + 1])
    corners = [(x, y) for y, a, b in spans for x in (a, b)]
    assert big.hull_area == hull_pixel_count(corners)
    assert block.area == 9
    assert block.centroid == (w - 2.0, 1.0)
    assert block.perimeter == crofton_perimeter(np.ones((3, 3), dtype=bool))


def test_label_image_is_painted_from_runs_on_demand(rng):
    # the runs of cid are exactly the pixels the oracle painter gives cid, in
    # raster order; the touching pairs are exactly the pairs of runs holding
    # two pixels of one component in adjacent rows at most one column apart,
    # ordered by the lower run; and the labeling keeps nothing else
    for _ in range(20):
        bits = rng.random((24, 40)) < rng.uniform(0.1, 0.9)
        h, w = bits.shape
        for conn in (4, 8):
            labels = label_components(mask_of(bits), conn)
            image = label_image(labels, bits.shape)
            run_of = np.full(bits.shape, -1)
            for i, (y, s, e) in enumerate(zip(labels.srow.tolist(), labels.scol.tolist(),
                                              labels.ecol.tolist())):
                run_of[y, s:e] = i
            touching = {(run_of[y, x], run_of[y + 1, x + d])
                        for y in range(h - 1) for x in range(w) for d in (-1, 0, 1)
                        if 0 <= x + d < w and image[y, x]
                        and image[y, x] == image[y + 1, x + d]}
            pairs = list(zip(labels.above.tolist(), labels.below.tolist()))
            assert len(pairs) == len(touching) and set(pairs) == touching
            assert (np.diff(labels.below) >= 0).all()
            for cid in range(1, labels.count + 1):
                idx = np.flatnonzero(labels.run_component == cid)
                rows, starts, ends = labels.srow[idx], labels.scol[idx], labels.ecol[idx]
                painted = np.zeros_like(bits)
                for y, s, e in zip(rows.tolist(), starts.tolist(), ends.tolist()):
                    painted[y, s:e] = True
                assert np.array_equal(painted, image == cid)
                keys = rows * w + starts
                assert (np.diff(keys) > 0).all()
            assert set(vars(labels)) == {"srow", "scol", "ecol", "run_component", "count",
                                         "above", "below"}


# ------------------------------------------------------------ shape metrics

def outline(area, perimeter):
    """Measurements with the given area and perimeter; the rest is unread."""
    return BlobMeasurements(area=area, perimeter=perimeter, centroid=(0, 0),
                            second_moments=(1, 1, 0), box=(1, 1), row_ends=([0], [0]))


def test_circularity_ideal_circle_is_one():
    r = 6.0
    m = outline(int(math.pi * r * r), 2 * math.pi * r)
    # feed the continuous-circle identity through the formula directly
    assert circularity(m) == pytest.approx(4 * math.pi * m.area / m.perimeter ** 2)
    exact = outline(100, 2 * math.sqrt(100 * math.pi))
    assert circularity(exact) == pytest.approx(1.0, abs=1e-12)


def test_circularity_ideal_square():
    k = 9
    m = outline(k * k, 4.0 * k)
    assert circularity(m) == pytest.approx(math.pi / 4.0, abs=1e-12)


def test_circularity_zero_perimeter():
    m = outline(1, 0.0)
    with pytest.raises(DegenerateBlob):
        circularity(m)


def test_circularity_measured_disk():
    labels = label_components(BinaryMask(disk_mask(15)), 8)
    value = circularity(measure(labels, [1])[0])
    assert abs(value - 1.0) <= 0.15
    assert value == pytest.approx(0.9576, abs=5e-3)  # recorded estimator output


def test_convexity_solid_rectangle():
    bits = np.zeros((12, 12), dtype=bool)
    bits[2:9, 3:11] = True
    labels = label_components(mask_of(bits), 8)
    assert convexity(measure(labels, [1])[0]) == pytest.approx(1.0, abs=1e-12)


def test_convexity_plus_shape():
    # 15x15 plus with 5-wide arms: area 125, hull covers 165 pixels
    bits = np.zeros((17, 17), dtype=bool)
    bits[5:10, 0:15] = True
    bits[0:15, 5:10] = True
    labels = label_components(mask_of(bits), 8)
    m = measure(labels, [1])[0]
    assert m.area == 125
    assert m.hull_area == 165.0
    value = convexity(m)
    assert value == pytest.approx(125 / 165, abs=1e-12)
    assert value < 0.8


def test_convexity_collinear_pixels_degenerate():
    for pts in ([(1, 1), (2, 1), (3, 1)],        # horizontal
                [(0, 0), (1, 1), (2, 2)],        # diagonal
                [(4, 2), (4, 5)]):               # two pixels
        labels = label_components(blob_mask(pts, (8, 8)), 8)
        with pytest.raises(DegenerateBlob):
            convexity(measure(labels, [1])[0])


# shapes whose hulls the per-row extremes must get right; the collinear ones
# span no hull
COLLINEAR_SHAPES = {
    "single_row": ["#####"],
    "single_column": ["#", "#", "#", "#"],
    "diagonal": ["#...", ".#..", "..#.", "...#"],
    "two_pixels_across": ["##"],
    "two_pixels_down": ["#", "#"],
    "two_pixels_diagonal": ["#.", ".#"],
}
HULL_SHAPES = {
    **COLLINEAR_SHAPES,
    # a row's leftmost and rightmost pixels lie in different runs
    "u": ["#...#", "#...#", "#...#", "#####"],
    "c": ["#####", "#....", "#....", "#####"],
    "comb": ["#.#.#.#", "#.#.#.#", "#.#.#.#", "#######"],
    "concave_left": ["######", "...###", "....##", "...###", "######"],
    "concave_left_steps": ["..####", "....##", "....##", ".#####", "######"],
    # rows whose leftmost and rightmost pixels are the same pixel
    "diamond": ["..#..", ".###.", "#####", ".###.", "..#.."],
    "hourglass": ["#####", ".###.", "..#..", ".###.", "#####"],
    "offset_tips": ["...#", "####", "#..."],
    "l_corner": ["#..", "#..", "###"],
}


@pytest.mark.parametrize("name", sorted(HULL_SHAPES))
def test_hull_area_equals_every_pixel_oracle(name):
    bits = np.pad([[c == "#" for c in row] for row in HULL_SHAPES[name]], 2)
    for conn in (4, 8):
        labels = label_components(mask_of(bits), conn)
        image = label_image(labels, bits.shape)
        for cid in range(1, labels.count + 1):
            ys, xs = np.nonzero(image == cid)
            want = hull_pixel_count(list(zip(xs.tolist(), ys.tolist())))
            assert measure(labels, [cid])[0].hull_area == want
    labels = label_components(mask_of(bits), 8)
    assert labels.count == 1
    m = measure(labels, [1])[0]
    if name in COLLINEAR_SHAPES:
        with pytest.raises(DegenerateBlob):
            convexity(m)
    else:
        assert m.hull_area >= m.area


def test_convexity_never_exceeds_one(rng):
    for _ in range(20):
        bits = rng.random((20, 20)) < 0.6
        labels = label_components(mask_of(bits), 8)
        for cid in range(1, labels.count + 1):
            m = measure(labels, [cid])[0]
            if m.hull_area > 0:
                assert convexity(m) <= 1.0
                assert m.hull_area >= m.area


def test_inertia_ratio_disk_is_one():
    labels = label_components(BinaryMask(disk_mask(12)), 8)
    assert inertia_ratio(measure(labels, [1])[0]) == pytest.approx(1.0, abs=0.1)


def test_inertia_ratio_thin_bar_exactly_zero():
    labels = label_components(blob_mask([(x, 3) for x in range(20)], (8, 24)), 8)
    assert inertia_ratio(measure(labels, [1])[0]) == 0.0


def test_inertia_ratio_two_by_twenty_bar():
    pts = [(x, y) for x in range(20) for y in (0, 1)]
    labels = label_components(blob_mask(pts, (4, 22)), 8)
    got = inertia_ratio(measure(labels, [1])[0])
    # moment oracle: variances of the coordinate lists
    xs = np.array([p[0] for p in pts], dtype=float)
    ys = np.array([p[1] for p in pts], dtype=float)
    expected = np.var(ys) / np.var(xs)
    assert got == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.25 / (399 / 12), abs=1e-12)


def test_inertia_ratio_single_pixel_degenerate():
    labels = label_components(blob_mask([(2, 2)], (6, 6)), 8)
    with pytest.raises(DegenerateBlob):
        inertia_ratio(measure(labels, [1])[0])


# ------------------------------------------------------------- detect_blobs

def relaxed(**overrides):
    params = dict(min_area=1, max_area=None, min_circularity=0.0,
                  min_convexity=0.0, min_inertia=0.0)
    params.update(overrides)
    return BlobFilterParams(**params)


def test_detect_single_disk_default_params():
    # canvas much larger than the blob so the quarter-frame max_area is lax
    bits = disk_mask(10, pad=22)
    keypoints = detect_blobs(BinaryMask(bits))
    assert len(keypoints) == 1
    kp = keypoints[0]
    assert abs(kp.diameter_s - 20.0) / 20.0 < 0.03
    center = bits.shape[0] // 2
    assert kp.centroid == (float(center), float(center))


def test_detect_inertia_filter_drops_bar():
    # disk on the left, 2x30 bar on the right
    yy, xx = np.ogrid[:40, :80]
    bits = (xx - 15) ** 2 + (yy - 20) ** 2 <= 100
    bits[19:21, 45:75] = True
    keypoints = detect_blobs(BinaryMask(bits), relaxed(min_inertia=0.3))
    assert len(keypoints) == 1
    assert keypoints[0].centroid[0] == pytest.approx(15.0, abs=0.1)


def test_detect_degenerate_line_never_emitted():
    yy, xx = np.ogrid[:40, :80]
    bits = (xx - 15) ** 2 + (yy - 20) ** 2 <= 100
    bits[20, 45:75] = True  # one-pixel line is degenerate, filtered regardless
    keypoints = detect_blobs(BinaryMask(bits), relaxed())
    assert len(keypoints) == 1


def test_detect_empty_mask():
    assert detect_blobs(BinaryMask(np.zeros((16, 16), dtype=bool))) == []


def test_detect_max_area_defaults_to_quarter_frame():
    bits = np.ones((16, 16), dtype=bool)  # area 256 > 64
    assert detect_blobs(BinaryMask(bits), relaxed()) == []
    assert len(detect_blobs(BinaryMask(bits), relaxed(max_area=256))) == 1


def test_detect_diameter_area_identity(rng):
    bits = rng.random((48, 48)) < 0.55
    for kp in detect_blobs(BinaryMask(bits), relaxed()):
        implied_area = math.pi * (kp.diameter_s / 2.0) ** 2
        assert implied_area == pytest.approx(round(implied_area), abs=1e-9)


def test_detect_filters_are_monotone(rng):
    bits = rng.random((48, 48)) < 0.55
    mask = BinaryMask(bits)
    baseline = {kp.centroid for kp in detect_blobs(mask, relaxed())}
    for tighter in (relaxed(min_area=5), relaxed(min_circularity=0.4),
                    relaxed(min_convexity=0.6), relaxed(min_inertia=0.4),
                    relaxed(max_area=40)):
        subset = {kp.centroid for kp in detect_blobs(mask, tighter)}
        assert subset <= baseline


def test_translation_invariance():
    yy, xx = np.ogrid[:60, :60]
    base = (xx - 12) ** 2 + (yy - 14) ** 2 <= 64
    base[10:13, 30:34] = True
    moved = np.roll(np.roll(base, 7, axis=0), 9, axis=1)
    kp_a = detect_blobs(BinaryMask(base), relaxed())
    kp_b = detect_blobs(BinaryMask(moved), relaxed())
    assert len(kp_a) == len(kp_b) == 2
    for a, b in zip(kp_a, kp_b):
        assert b.centroid[0] - a.centroid[0] == 9.0
        assert b.centroid[1] - a.centroid[1] == 7.0
        assert b.diameter_s == a.diameter_s
    labels_a = label_components(BinaryMask(base), 8)
    labels_b = label_components(BinaryMask(moved), 8)
    for a, b in zip(measure(labels_a, [1, 2]), measure(labels_b, [1, 2])):
        for score in (circularity, convexity, inertia_ratio):
            assert score(b) == score(a)


# ------------------------------------------- convexity settled by the box

CONVEXITY_BOUNDS = (0.0, 0.5, 0.7, math.pi / 4, 0.8, 0.95, 1.0)


def filter_params():
    """Every min_convexity above, with the other two shape filters off and
    at their defaults; any area passes."""
    defaults = BlobFilterParams()
    return [relaxed(min_convexity=c, **other) for c in CONVEXITY_BOUNDS
            for other in ({}, {"min_circularity": defaults.min_circularity,
                               "min_inertia": defaults.min_inertia})]


def filter_hull_always(measured, params, max_area):
    """The three shape filters on the every-pixel oracle's measurements, the
    hull built for every candidate, in the order circularity, convexity,
    inertia; returns the keypoints and how many candidates passed the
    circularity and inertia filters."""
    keypoints, reached_convexity = [], 0
    for m in measured:
        if not params.min_area <= m.area <= max_area:
            continue
        try:
            reached_convexity += (circularity(m) >= params.min_circularity
                                  and inertia_ratio(m) >= params.min_inertia)
        except DegenerateBlob:
            pass
        try:
            if (circularity(m) < params.min_circularity
                    or convexity(m) < params.min_convexity
                    or inertia_ratio(m) < params.min_inertia):
                continue
        except DegenerateBlob:
            continue
        keypoints.append(BlobKeypoint(m.centroid, 2.0 * math.sqrt(m.area / math.pi)))
    return keypoints, reached_convexity


def count_hulls(monkeypatch):
    """Patch in a hull that records the rows of every component it is built
    for, in the list returned."""
    hull, calls = headcount.blobs._hull_pixel_count, []

    def counted(lefts, rights):
        calls.append(len(lefts))
        return hull(lefts, rights)

    monkeypatch.setattr(headcount.blobs, "_hull_pixel_count", counted)
    return calls


def assert_box_bound_is_exact(monkeypatch, bits, connectivity=8):
    """detect_blobs gives the hull-always keypoints under every filter set;
    returns how many hulls it built and how many candidates reached the
    convexity filter."""
    mask = mask_of(bits)
    labels = label_components(mask, connectivity)
    measured = [measure_fullframe(labels, cid) for cid in range(1, labels.count + 1)]
    reached = 0
    with monkeypatch.context() as patch:
        hulls = count_hulls(patch)
        for params in filter_params():
            want, n = filter_hull_always(measured, params, mask.width * mask.height // 4)
            assert_same_keypoints(detect_blobs(mask, params, connectivity), want)
            reached += n
    return len(hulls), reached


def test_box_bound_agrees_with_the_hull_on_random_masks(monkeypatch, rng):
    built = reached = 0
    for _ in range(60):
        bits = rng.random((24, 24)) < rng.uniform(0.2, 0.8)
        for conn in (4, 8):
            b, r = assert_box_bound_is_exact(monkeypatch, bits, conn)
            built, reached = built + b, reached + r
    yy, xx = np.ogrid[:48, :48]
    for _ in range(60):  # disks and ellipses, whose bound sits near the hull's
        bits = np.zeros((48, 48), dtype=bool)
        for _ in range(4):
            cx, cy, rx, ry = rng.uniform(0, 48), rng.uniform(0, 48), *rng.uniform(1, 12, 2)
            bits |= ((xx - cx) / rx) ** 2 + ((yy - cy) / ry) ** 2 <= 1
        b, r = assert_box_bound_is_exact(monkeypatch, bits)
        built, reached = built + b, reached + r
    # the box settled some candidates and left others to the hull
    assert 0 < built < reached


def test_box_bound_agrees_with_the_hull_on_drawn_shapes(monkeypatch):
    shapes = {"row": np.ones((1, 5), dtype=bool), "column": np.ones((4, 1), dtype=bool),
              "block": np.ones((2, 2), dtype=bool)}
    for n in range(2, 21):
        # a diagonal line meets each row and column once: its box ratio is
        # 1/n, yet it spans no hull
        shapes[f"diagonal{n}"] = np.eye(n, dtype=bool)
        shapes[f"antidiagonal{n}"] = np.eye(n, dtype=bool)[::-1]
    for name, shape in shapes.items():
        bits = np.pad(shape, 2 * max(shape.shape))
        built, reached = assert_box_bound_is_exact(monkeypatch, bits)
        labels = label_components(mask_of(bits), 8)
        assert labels.count == 1
        if name == "block":  # convexity 1, settled by the box every time
            assert built == 0 and reached == len(filter_params())
            assert len(detect_blobs(mask_of(bits), relaxed(min_convexity=1.0))) == 1
        else:  # collinear: the hull is built, and rejects
            assert built == reached
            assert detect_blobs(mask_of(bits), relaxed()) == []


def test_head_sized_disks_build_no_hull(monkeypatch):
    # a rasterized disk's box ratio is below pi/4: 0.662-0.682 for radii 5
    # to 8, 0.701 at 9 (the bench's head radius) and 0.748 at 20, so the box
    # settles the default min_convexity 0.7 from radius 9 up
    def no_hull(lefts, rights):
        raise AssertionError("convex hull built")

    monkeypatch.setattr(headcount.blobs, "_hull_pixel_count", no_hull)
    for radius in range(9, 21):
        mask = BinaryMask(disk_mask(radius, pad=radius))
        keypoints = detect_blobs(mask)
        assert len(keypoints) == 1
        area = disk_pixel_count(radius)
        assert keypoints[0].diameter_s == 2.0 * math.sqrt(area / math.pi)


def test_small_disks_and_tight_bounds_build_the_hull(monkeypatch):
    calls = count_hulls(monkeypatch)
    cases = [(radius, BlobFilterParams()) for radius in range(5, 9)]
    cases += [(radius, BlobFilterParams(min_convexity=0.9)) for radius in range(5, 21)]
    for radius, params in cases:
        calls.clear()
        assert len(detect_blobs(BinaryMask(disk_mask(radius, pad=radius)), params)) == 1
        assert calls == [2 * radius + 1]


def test_filter_params_validation():
    with pytest.raises(ConfigError):
        BlobFilterParams(min_area=0)
    with pytest.raises(ConfigError):
        BlobFilterParams(min_circularity=1.5)
    with pytest.raises(ConfigError):
        BlobFilterParams(min_area=100, max_area=50)


@pytest.mark.parametrize("name", ["min_circularity", "min_convexity",
                                  "min_inertia"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_filter_params_reject_non_finite(name, value):
    with pytest.raises(ConfigError):
        BlobFilterParams(**{name: value})
