"""Independent reference implementations used as test oracles.

Everything here is deliberately written with different algorithms than the
package (flood fill instead of run-based union-find, brute-force window scans
instead of vectorized morphology, string search instead of a per-frame state
machine, full-frame scans and every-pixel hulls instead of run tables, a
byte-by-byte scanner instead of a compiled pattern, value changes along a
padded boolean copy instead of packed words, a track list rebuilt each frame
instead of tracks aged in place, an update and then a comparison with the
updated estimate instead of one walk that compares first) so agreement
between the two is meaningful.
"""

import math
from dataclasses import dataclass

import numpy as np


def flood_fill_labels(bits: np.ndarray, connectivity: int) -> np.ndarray:
    """Label components by stack-based flood fill, numbered in raster order
    of their first pixel."""
    h, w = bits.shape
    grid = bits.tolist()
    labels = [[0] * w for _ in range(h)]
    if connectivity == 8:
        neighbors = ((-1, -1), (-1, 0), (-1, 1), (0, -1),
                     (0, 1), (1, -1), (1, 0), (1, 1))
    else:
        neighbors = ((-1, 0), (0, -1), (0, 1), (1, 0))
    current = 0
    for r0 in range(h):
        row = grid[r0]
        lrow = labels[r0]
        for c0 in range(w):
            if not row[c0] or lrow[c0]:
                continue
            current += 1
            stack = [(r0, c0)]
            labels[r0][c0] = current
            while stack:
                r, c = stack.pop()
                for dr, dc in neighbors:
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < h and 0 <= cc < w and grid[rr][cc] \
                            and not labels[rr][cc]:
                        labels[rr][cc] = current
                        stack.append((rr, cc))
    return np.array(labels, dtype=np.int32)


def erode_bruteforce(bits: np.ndarray, radius: int) -> np.ndarray:
    h, w = bits.shape
    out = np.zeros_like(bits)
    for r in range(h):
        for c in range(w):
            keep = True
            for dr in range(-radius, radius + 1):
                for dc in range(-radius, radius + 1):
                    rr, cc = r + dr, c + dc
                    inside = 0 <= rr < h and 0 <= cc < w
                    if not (inside and bits[rr, cc]):
                        keep = False
                        break
                if not keep:
                    break
            out[r, c] = keep
    return out


def dilate_bruteforce(bits: np.ndarray, radius: int) -> np.ndarray:
    h, w = bits.shape
    out = np.zeros_like(bits)
    for r in range(h):
        for c in range(w):
            hit = False
            for dr in range(-radius, radius + 1):
                for dc in range(-radius, radius + 1):
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < h and 0 <= cc < w and bits[rr, cc]:
                        hit = True
                        break
                if hit:
                    break
            out[r, c] = hit
    return out


def subtract_bruteforce(frame: np.ndarray, estimate: np.ndarray,
                        threshold: float) -> np.ndarray:
    h, w = frame.shape
    out = np.zeros((h, w), dtype=bool)
    for r in range(h):
        for c in range(w):
            out[r, c] = abs(float(frame[r, c]) - float(estimate[r, c])) > threshold
    return out


def background_step_reference(estimate: np.ndarray, pixels: np.ndarray,
                              alpha: float) -> np.ndarray:
    """One running-average step, estimate + alpha*(frame - estimate), written
    as the plain formula over whole fresh arrays, with alpha and the frame in
    the estimate's dtype: the same IEEE operations in the same order as an
    in-place update, so the results must agree bit for bit."""
    dtype = estimate.dtype.type
    return estimate + dtype(alpha) * (pixels.astype(dtype) - estimate)


def floor_to_dtype(dtype, value: float):
    """The largest ``dtype`` value not above ``value``: step down from the
    nearest one until a value not above it is reached."""
    candidate = dtype(value)
    while float(candidate) > value:
        candidate = np.nextafter(candidate, dtype(-np.inf))
    return candidate


def update_then_subtract(estimate: np.ndarray, pixels: np.ndarray, alpha: float,
                         threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """The background step in two passes, update first: the updated
    estimate, and the mask |frame - updated estimate| > threshold, computed
    in the estimate's dtype with the threshold floored to it."""
    dtype = estimate.dtype.type
    updated = background_step_reference(estimate, pixels, alpha)
    difference = np.abs(pixels.astype(dtype) - updated)
    return updated, difference > floor_to_dtype(dtype, threshold)


def scan_zone_events(zones: str) -> list:
    """Full-traversal events from a zone string, located by substring search:
    from an A (or B) origin, the event fires at the next occurrence of the
    opposite zone, which then becomes the new origin."""
    if not zones:
        return []
    events = []
    origin = zones[0]
    pos = 1
    while origin in "AB":
        target = "B" if origin == "A" else "A"
        hit = zones.find(target, pos)
        if hit == -1:
            break
        events.append((hit, "IN" if origin == "A" else "OUT"))
        origin = target
        pos = hit + 1
    return events


def greedy_match_bruteforce(tracks: list, keypoints: list, max_dist: float) -> list:
    """Greedy nearest pairing by repeated full scans over remaining pairs.

    ``tracks`` is [(track_id, (x, y))]; returns [(track_id, keypoint_index)].
    """
    remaining_t = list(tracks)
    remaining_k = list(enumerate(keypoints))
    matches = []
    while remaining_t and remaining_k:
        best = None
        for tid, (tx, ty) in remaining_t:
            for k, (kx, ky) in remaining_k:
                d = math.hypot(kx - tx, ky - ty)
                if d <= max_dist and (best is None or (d, tid, k) < best):
                    best = (d, tid, k)
        if best is None:
            break
        _, tid, k = best
        matches.append((tid, k))
        remaining_t = [t for t in remaining_t if t[0] != tid]
        remaining_k = [p for p in remaining_k if p[0] != k]
    return matches


def track_bruteforce(frames: list, max_dist: float, max_missed: int) -> list:
    """A tracker kept as a plain list of (id, position, missed) tuples and
    rebuilt each frame from greedy_match_bruteforce's pairs: a paired track
    takes its keypoint's position and a miss count of 0, any other counts one
    more miss and is dropped past ``max_missed``, and each unpaired keypoint,
    in index order, starts a track with the next id.

    ``frames`` is [[(x, y)]]; returns per frame (spawned ids, expired ids,
    the live [(id, (x, y), missed)] in list order).
    """
    live, next_id, history = [], 0, []
    for points in frames:
        pairs = dict(greedy_match_bruteforce([(tid, pos) for tid, pos, _ in live],
                                             points, max_dist))
        kept, expired = [], []
        for tid, pos, missed in live:
            if tid in pairs:
                kept.append((tid, points[pairs[tid]], 0))
            elif missed + 1 > max_missed:
                expired.append(tid)
            else:
                kept.append((tid, pos, missed + 1))
        spawned = []
        for k, point in enumerate(points):
            if k not in pairs.values():
                spawned.append(next_id)
                kept.append((next_id, point, 0))
                next_id += 1
        live = kept
        history.append((spawned, expired, live))
    return history


def disk_mask(radius: float, pad: int = 3, center=None) -> np.ndarray:
    """Boolean mask of a rasterized disk (pixel centers within the radius)."""
    side = 2 * (int(math.ceil(radius)) + pad) + 1
    if center is None:
        center = (side // 2, side // 2)
    cx, cy = center
    yy, xx = np.ogrid[:side, :side]
    return (xx - cx) ** 2 + (yy - cy) ** 2 <= radius * radius


def disk_pixel_count(radius: float) -> int:
    """Exact pixel count of a rasterized disk, by enumeration."""
    rad = int(math.ceil(radius)) + 1
    return sum(1 for y in range(-rad, rad + 1) for x in range(-rad, rad + 1)
               if x * x + y * y <= radius * radius)


def midpoint_circle_points(radius: int) -> set:
    """Circle outline offsets: nearest-y-per-x in the first octant, mirrored."""
    pts = set()
    for x in range(0, radius + 1):
        y = round(math.sqrt(radius * radius - x * x))
        if x > y:
            break
        for px, py in ((x, y), (y, x)):
            pts.update({(px, py), (-px, py), (px, -py), (-px, -py)})
    return pts


def crofton_perimeter(comp: np.ndarray) -> float:
    """Cauchy-Crofton boundary length of a boolean crop: boundary crossings
    along rows, columns and both diagonals, diagonal families spaced
    1/sqrt(2)."""
    p = np.pad(comp, 1).astype(np.int8)
    n_h = int(np.abs(np.diff(p, axis=1)).sum())
    n_v = int(np.abs(np.diff(p, axis=0)).sum())
    n_d = int(np.abs(p[1:, 1:] - p[:-1, :-1]).sum())
    n_d += int(np.abs(p[1:, :-1] - p[:-1, 1:]).sum())
    return math.pi / 8.0 * (n_h + n_v + n_d / math.sqrt(2.0))


def hull_pixel_count(points: list) -> int:
    """Pixels covered by the convex hull of integer (x, y) points, 0 when
    they are collinear: Andrew's monotone chain with strict turns, then the
    shoelace area plus Pick's theorem (covered = area + boundary/2 + 1)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return 0

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    hull = []
    for chain in (pts, pts[::-1]):
        base = len(hull)
        for p in chain:
            while len(hull) - base >= 2 and cross(hull[-2], hull[-1], p) <= 0:
                hull.pop()
            hull.append(p)
        hull.pop()
    if len(hull) < 3:
        return 0
    twice_area = 0
    boundary = 0
    for (x1, y1), (x2, y2) in zip(hull, hull[1:] + hull[:1]):
        twice_area += x1 * y2 - x2 * y1
        boundary += math.gcd(abs(x2 - x1), abs(y2 - y1))
    return (abs(twice_area) + boundary + 2) // 2


def row_runs(bits: np.ndarray):
    """Every horizontal run of a boolean image, in raster order, as (rows,
    start columns, exclusive end columns): the value changes along a copy
    with one background column before and two after each row."""
    h, w = bits.shape
    stride = w + 2
    ext = np.zeros((h, w + 3), dtype=bool)
    ext[:, 1:w + 1] = bits
    keys = np.flatnonzero(ext[:, 1:] != ext[:, :-1])
    srow = keys[0::2] // stride
    return srow, keys[0::2] - srow * stride, keys[1::2] - srow * stride


def label_image(labels, shape: tuple[int, int]) -> np.ndarray:
    """Per-pixel component ids (0 = background) of a ``shape`` frame painted
    from a run table: +id at each run start and -id just past each run end,
    then a prefix sum over the flattened frame."""
    h, w = shape
    delta = np.zeros(h * w + 1, dtype=np.int32)
    delta[labels.srow * w + labels.scol] += labels.run_component
    delta[labels.srow * w + labels.ecol] -= labels.run_component
    return np.cumsum(delta[:-1], dtype=np.int32).reshape(h, w)


@dataclass(frozen=True)
class FullframeMeasurements:
    """The fields of ``BlobMeasurements`` that the shape filters read, with
    ``hull_area`` taken once, over every pixel."""

    area: int
    perimeter: float
    centroid: tuple
    hull_area: float
    second_moments: tuple
    box: tuple


def measure_fullframe(labels, component_id: int) -> FullframeMeasurements:
    """Measure one component by scanning the whole painted label image (of
    the smallest frame that holds every run) and taking float means, the
    extent and the hull over every one of its pixels."""
    image = label_image(labels, (int(labels.srow.max()) + 1, int(labels.ecol.max())))
    ys, xs = np.nonzero(image == component_id)
    area = len(xs)
    y0, y1 = ys.min(), ys.max()
    x0, x1 = xs.min(), xs.max()
    perimeter = crofton_perimeter(image[y0:y1 + 1, x0:x1 + 1] == component_id)
    # float sums of integers stay exact, so the means are correctly rounded
    dx = xs - float(xs.sum()) / area
    dy = ys - float(ys.sum()) / area
    return FullframeMeasurements(
        area=area,
        perimeter=perimeter,
        centroid=(float(xs.sum()) / area, float(ys.sum()) / area),
        hull_area=float(hull_pixel_count(list(zip(xs.tolist(), ys.tolist())))),
        second_moments=(float(dx @ dx) / area, float(dy @ dy) / area,
                        float(dx @ dy) / area),
        box=(int(x1 - x0) + 1, int(y1 - y0) + 1),
    )


def read_header_token(data: bytes, pos: int):
    """One PGM header token by a byte-by-byte scan: skip whitespace and '#'
    comments (each up to, not including, its newline), then take bytes up to
    the next whitespace. Returns (token, end), or None when the token is
    empty."""
    whitespace = b" \t\r\n\v\f"
    n = len(data)
    while pos < n:
        c = data[pos:pos + 1]
        if c in whitespace:
            pos += 1
        elif c == b"#":
            while pos < n and data[pos:pos + 1] != b"\n":
                pos += 1
        else:
            break
    start = pos
    while pos < n and data[pos:pos + 1] not in whitespace:
        pos += 1
    return None if start == pos else (data[start:pos], pos)
