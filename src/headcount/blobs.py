"""Connected-component blob extraction and head-shaped keypoint filtering.

Foreground is split into horizontal row runs, whose starts and ends the
mask reads from its packed rows (``BinaryMask.run_edges``), so labeling
never builds a per-pixel array. A vectorized overlap search
(two binary searches per run over keyed run starts and ends) pairs every run
with the runs it touches in the row above, and rounds of root hooking and
pointer jumping merge those pairs into connected components, with no Python
loop over runs. The run table (row, start column, exclusive end column and
component of every run) and the touching pairs are the labeling: no
per-pixel label image is ever built. A frame's candidate components are
measured together, in a fixed number of array passes over their runs and
pairs alone: area, centroid and second moments from exact power sums, the
boundary length from the column overlaps of each touching pair, the bounding
box and the outermost pixels of each row. Components are scored with the
usual shape metrics (circularity, convexity, inertia ratio) and filtered to
the round compact blobs a head produces. The convex hull, built from the
rows' outermost pixels, lies inside the bounding box, so the box settles
convexity for most components and the hull is built only for those it
leaves open. Coordinates are (x, y) with x the column and y the row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .background import BinaryMask
from .errors import ConfigError, DegenerateBlob, NotFound, quote

DEFAULT_CONNECTIVITY = 8
_SQRT2 = math.sqrt(2.0)
_SHIFTS = np.array([-1, 0, 1]).reshape(3, 1)


@dataclass(eq=False)
class ComponentLabels:
    """Connected components of a mask as a table of horizontal runs.

    Run ``i`` covers row ``srow[i]``, columns ``scol[i]`` up to but excluding
    ``ecol[i]``, and belongs to component ``run_component[i]``. Runs are in
    raster order; components are numbered 1..count in the raster order of
    their first run, so equal masks always give identical tables. Pair k is
    runs ``above[k]`` and ``below[k]`` (ascending in ``below``) of one component
    in adjacent rows, touching under 8-connectivity. Nothing per pixel is kept.
    """

    srow: np.ndarray
    scol: np.ndarray
    ecol: np.ndarray
    run_component: np.ndarray
    count: int
    above: np.ndarray
    below: np.ndarray


@dataclass(frozen=True)
class BlobMeasurements:
    """Raw geometry of one component.

    ``perimeter`` is a boundary-length estimate, ``second_moments`` are the
    central (co)variances (mxx, myy, mxy) of the pixel coordinates, ``box``
    the (width, height) of the bounding box in pixels, and ``row_ends`` the
    first and last column of each row, top to bottom. ``hull_area``, the
    pixels covered by the convex hull (0 when the component is too small or
    collinear to span a hull), is built from ``row_ends`` each time it is
    read.
    """

    area: int
    perimeter: float
    centroid: tuple[float, float]
    second_moments: tuple[float, float, float]
    box: tuple[int, int]
    row_ends: tuple[list[int], list[int]]

    @property
    def hull_area(self) -> float:
        return float(_hull_pixel_count(*self.row_ends))


@dataclass(frozen=True)
class BlobKeypoint:
    """A detected blob: centroid (x, y) and equivalent-circle diameter."""

    centroid: tuple[float, float]
    diameter_s: float


@dataclass
class BlobFilterParams:
    """Thresholds a component must pass to become a keypoint.

    ``max_area=None`` means a quarter of the mask area, resolved per call.
    Defaults are tuned for head-sized round blobs.
    """

    min_area: int = 80
    max_area: Optional[int] = None
    min_circularity: float = 0.5
    min_convexity: float = 0.7
    min_inertia: float = 0.3

    def __post_init__(self):
        if self.min_area < 1:
            raise ConfigError(f"min_area must be >= 1, got {self.min_area}")
        if self.max_area is not None and self.max_area < self.min_area:
            raise ConfigError("max_area must be >= min_area")
        for name in ("min_circularity", "min_convexity", "min_inertia"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0,1], got {v}")


def check_connectivity(connectivity: int) -> None:
    """Raise ConfigError unless ``connectivity`` is 4 or 8."""
    if connectivity not in (4, 8):
        raise ConfigError(f"connectivity must be 4 or 8, got {quote(connectivity)}")


def label_components(mask: BinaryMask,
                     connectivity: int = DEFAULT_CONNECTIVITY) -> ComponentLabels:
    """Label connected foreground regions.

    The mask is split into horizontal runs, read from its packed rows by
    ``BinaryMask.run_edges``. A vectorized overlap search finds every pair of
    runs in adjacent rows that touch under 8-connectivity: with each run
    start and exclusive end keyed by ``row*stride + column``, at least
    ``w+1`` keys per row, two binary searches give the contiguous range of
    runs in the row above that a run touches. The pairs (at 4-connectivity,
    those that share a column) are resolved in rounds: the larger of each
    disagreeing pair's roots is hooked under the smaller, and pointer
    jumping flattens every tree, until both runs of every pair share a root. Each root is then its component's lowest run index, so
    numbering the roots in run order numbers components by the raster
    position of their first run. Returns the run table and the pairs inside
    components; no per-pixel image is built.
    """
    check_connectivity(connectivity)
    keys, stride = mask.run_edges()
    skey, ekey = keys[0::2], keys[1::2]
    srow = skey // stride
    row_start = srow * stride
    scol = skey - row_start
    ecol = ekey - row_start
    n_runs = len(srow)

    # run i in the row above touches run j when scol[i] <= ecol[j] and
    # scol[j] <= ecol[i]; a row's runs are sorted and disjoint, so the runs j
    # touches are contiguous. A query column lies in [-1, w+1] and a row has
    # stride >= w+1 slots, so no query reaches a start in the run's own row or
    # an end two rows up.
    first = np.searchsorted(ekey, skey - stride - 1, side="right")
    stop = np.searchsorted(skey, ekey - stride + 1, side="left")
    n_above = np.maximum(stop - first, 0)
    below = np.repeat(np.arange(n_runs), n_above)
    offset = np.cumsum(n_above) - n_above
    above = np.arange(len(below)) - np.repeat(offset - first, n_above)
    a, b = above, below
    if connectivity == 4:  # only runs that share a column join
        share = (scol[above] < ecol[below]) & (scol[below] < ecol[above])
        a, b = above[share], below[share]

    # every pointer goes to a lower run index, so the root of each tree is its
    # lowest run; after the jumping every run points straight at its root
    root = np.arange(n_runs)
    while True:
        ra, rb = root[a], root[b]
        split = ra != rb
        if not split.any():
            break
        ra, rb = ra[split], rb[split]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
        a, b = a[split], b[split]
    if connectivity == 4:  # drop corner contacts between two components
        above, below = np.compress(root[above] == root[below], (above, below), axis=1)

    is_root = root == np.arange(n_runs)
    run_component = np.cumsum(is_root, dtype=np.int32)[root]
    return ComponentLabels(srow, scol, ecol, run_component, int(is_root.sum()),
                           above, below)


def _hull_pixel_count(lefts: list[int], rights: list[int]) -> int:
    """Pixels covered by the convex hull of a component whose row y spans
    columns lefts[y]..rights[y], for rows y = 0, 1, ...; 0 if collinear.

    The hull's right side is the chain of the rightmost pixels taken down
    the rows, its left side that of the leftmost pixels taken back up, each
    keeping strict turns only; the rows come in order, so nothing is sorted.
    Integer-exact via the shoelace polygon area plus Pick's theorem:
    covered = interior + boundary = area + boundary/2 + 1.
    """
    n = len(lefts)
    hull: list[tuple[int, int]] = []
    for side in (zip(rights, range(n)), zip(reversed(lefts), range(n - 1, -1, -1))):
        base = len(hull) + 1
        for p in side:
            x, y = p
            while len(hull) > base:
                (ox, oy), (ax, ay) = hull[-2], hull[-1]
                if (ax - ox) * (y - oy) > (ay - oy) * (x - ox):
                    break
                hull.pop()
            hull.append(p)
    twice_area = boundary = 0
    for (x1, y1), (x2, y2) in zip(hull, hull[1:] + hull[:1]):
        twice_area += x1 * y2 - x2 * y1
        boundary += math.gcd(x2 - x1, y2 - y1)
    if twice_area == 0:
        return 0
    # twice_area and boundary are both even or both odd, sum below is integral
    return (abs(twice_area) + boundary + 2) // 2


def _power_sums(yse: np.ndarray, first: np.ndarray) -> list[list]:
    """Per group of runs (rows, starts and exclusive ends in ``yse``, groups
    from ``first``), in the dtype of ``yse``: the sums of k, k^2, y*k, k^3,
    y^2*k and y*k^2 at each run's end k less those at its start."""
    y, k = yse[0], yse[1:]
    k2, yk = k * k, y * k
    sums = np.add.reduceat(np.array((k, k2, yk, k2 * k, y * yk, y * k2)), first, axis=2)
    return (sums[:, 1] - sums[:, 0]).T.tolist()


def measure(labels: ComponentLabels, component_ids) -> list[BlobMeasurements]:
    """Measure the given components together, in one pass over runs and pairs.

    ``component_ids`` must be integers (not bools), ascending and distinct,
    each in 1..count, as ``detect_blobs`` passes them; returns one
    BlobMeasurements per id, in that order. Raises NotFound for any other
    ids. The hull is not built here; see ``BlobMeasurements.hull_area``.
    """
    ids = (component_ids.tolist() if isinstance(component_ids, np.ndarray)
           else list(component_ids))
    if not ids:
        return []
    if (not all(isinstance(i, (int, np.integer)) and not isinstance(i, bool) for i in ids)
            or ids[0] < 1 or ids[-1] > labels.count
            or any(b <= a for a, b in zip(ids, ids[1:]))):
        raise NotFound(f"ids {quote(ids)} not ascending integers in 1..{labels.count}")
    comp_ids = np.array(ids)
    wanted = np.zeros(labels.count + 1, dtype=bool)
    wanted[comp_ids] = True

    # the wanted runs grouped by component, each group in raster order
    runs = np.flatnonzero(np.take(wanted, labels.run_component))
    comp = labels.run_component[runs]
    order = np.argsort(comp, kind="stable")
    runs, comp = runs[order], comp[order]
    yse = np.array((labels.srow[runs], labels.scol[runs], labels.ecol[runs]))
    y, s, e = yse
    first = np.searchsorted(comp, comp_ids)

    # exact power sums: wrapping uint64 arithmetic gives each one modulo
    # 2**64, and float64 to within 2**62 on any frame of up to 2**24 pixels
    sums = [[w + ((int(f) - w + 2**63) >> 64 << 64) for w, f in zip(ws, fs)]
            for ws, fs in zip(_power_sums(yse.view(np.uint64), first),
                              _power_sums(yse.astype(np.float64), first))]

    # each run's overlap with its component's runs in the row above, with the
    # run shifted by -1, 0 and +1 columns, summed per id: labeling's touching
    # pairs hold every run a shift of at most one column can overlap
    pair = np.take(wanted, labels.run_component[labels.below])
    above, below = labels.above[pair], labels.below[pair]
    slot = np.searchsorted(comp_ids, labels.run_component[below])
    scol, ecol = labels.scol, labels.ecol
    overlap = np.maximum(np.minimum(ecol[above], ecol[below] + _SHIFTS)
                         - np.maximum(scol[above], scol[below] + _SHIFTS), 0)
    overlaps = np.int64([np.bincount(slot, o, len(ids)) for o in overlap]).T.tolist()

    # each row's outermost pixels, one slice per component
    head = np.empty(len(runs), dtype=bool)
    np.not_equal(y[1:], y[:-1], out=head[1:])
    head[first] = True
    heads = np.flatnonzero(head)
    lefts = s[heads].tolist()
    rights = (np.maximum.reduceat(e, heads) - 1).tolist()
    row_bounds = np.searchsorted(heads, first).tolist() + [len(heads)]
    run_bounds = first.tolist() + [len(runs)]

    out = []
    for i in range(len(ids)):
        # a run [s, e) sums 1, 2x and 6x^2 to k, k^2 - k and 2k^3 - 3k^2 + k
        # at k = e less at k = s
        area, k2, sy, k3, syy, yk2 = sums[i]
        sx, sxx, sxy = (k2 - area) // 2, (2 * k3 - 3 * k2 + area) // 6, (yk2 - sy) // 2
        # Cauchy-Crofton over rows, columns and both diagonals, diagonals
        # spaced 1/sqrt(2): pixel pairs that are not both in the component
        left, straight, right = overlaps[i]
        n_h = 2 * (run_bounds[i + 1] - run_bounds[i])
        n_v = 2 * area - 2 * straight
        n_d = 4 * area - 2 * (left + right)
        top, bottom = row_bounds[i], row_bounds[i + 1]
        row_left, row_right = lefts[top:bottom], rights[top:bottom]
        # central moments as one exact integer ratio each: n*S_xy - S_x*S_y over n^2
        nn = area * area
        out.append(BlobMeasurements(
            area=area,
            perimeter=math.pi / 8.0 * (n_h + n_v + n_d / _SQRT2),
            # one rounding of the exact coordinate sum, as a mean over pixels gives
            centroid=(sx / area, sy / area),
            second_moments=((area * sxx - sx * sx) / nn,
                            (area * syy - sy * sy) / nn,
                            (area * sxy - sx * sy) / nn),
            box=(max(row_right) - min(row_left) + 1, bottom - top),
            row_ends=(row_left, row_right),
        ))
    return out


def circularity(m: BlobMeasurements) -> float:
    """4*pi*area / perimeter^2; 1 for an ideal disk."""
    if m.perimeter <= 0.0:
        raise DegenerateBlob("zero perimeter")
    return 4.0 * math.pi * m.area / (m.perimeter * m.perimeter)


def convexity(m: BlobMeasurements) -> float:
    """area / hull_area, in (0, 1]; hulls are degenerate for collinear blobs."""
    hull_area = m.hull_area
    if hull_area <= 0.0:
        raise DegenerateBlob("convex hull is degenerate (collinear blob)")
    return m.area / hull_area


def inertia_ratio(m: BlobMeasurements) -> float:
    """Ratio of the smaller to the larger principal second moment, in [0,1].

    1 for rotationally symmetric blobs, 0 for one-pixel-thin lines.
    """
    if m.area < 2:
        raise DegenerateBlob("inertia ratio needs at least 2 pixels")
    mxx, myy, mxy = m.second_moments
    mean = (mxx + myy) / 2.0
    # hypot keeps lmin exactly 0 when the cross moment vanishes
    half_spread = math.hypot((mxx - myy) / 2.0, mxy)
    lmax = mean + half_spread
    lmin = mean - half_spread
    if lmax <= 0.0:
        raise DegenerateBlob("zero spread")
    return max(0.0, lmin) / lmax


def detect_blobs(mask: BinaryMask, params: Optional[BlobFilterParams] = None,
                 connectivity: int = DEFAULT_CONNECTIVITY) -> list[BlobKeypoint]:
    """Extract keypoints for every component passing all shape filters.

    Components whose shape metrics are undefined (single pixels, one-pixel
    lines) are never emitted. Output order follows component label order.
    A component that passes circularity and inertia builds its convex hull
    only if its bounding box leaves convexity open.
    """
    if params is None:
        params = BlobFilterParams()
    labels = label_components(mask, connectivity)
    max_area = params.max_area
    if max_area is None:
        max_area = (mask.width * mask.height) // 4

    areas = np.bincount(labels.run_component, weights=labels.ecol - labels.scol,
                        minlength=labels.count + 1)
    candidates = np.flatnonzero((areas >= params.min_area) & (areas <= max_area))
    if not len(candidates):  # spare the batch's fixed cost
        return []
    keypoints = []
    for m in measure(labels, candidates):
        width, height = m.box
        try:  # the first score below its bound rejects; undefined ones too
            # the hull lies in the box, so area / box pixels is at most the
            # convexity, unless the component is collinear: one row, one
            # column or a diagonal line, which meets each row and column once
            if (circularity(m) < params.min_circularity
                    or inertia_ratio(m) < params.min_inertia
                    or not (1 < min(width, height) < m.area
                            and m.area / (width * height) >= params.min_convexity)
                    and convexity(m) < params.min_convexity):
                continue
        except DegenerateBlob:
            continue
        keypoints.append(BlobKeypoint(m.centroid, 2.0 * math.sqrt(m.area / math.pi)))
    return keypoints
