import pytest

from headcount import (Counters, CrossEvent, Direction, LinePair, Track, Zone,
                       advance, apply_event, classify_zone)
from headcount.errors import ConfigError

from oracles import scan_zone_events

LINES = LinePair(100, 200)

# representative y per zone; M includes both boundary rows
ZONE_YS = {"A": [0.0, 50.0, 99.9], "M": [100.0, 150.0, 200.0], "B": [200.1, 250.0, 300.0]}


def walk(zones, rng=None, track_id=0):
    """Feed a zone string through advance(), returning (index, direction) events."""
    track = Track(track_id, (10.0, 0.0))
    events = []
    for i, z in enumerate(zones):
        ys = ZONE_YS[z]
        y = ys[int(rng.integers(len(ys)))] if rng is not None else ys[1]
        track.position = (10.0, y)
        event = advance(track, LINES, i)
        if event is not None:
            events.append((event.frame, event.direction.value))
    return events


def test_line_pair_order_enforced():
    with pytest.raises(ConfigError):
        LinePair(300, 180)
    with pytest.raises(ConfigError):
        LinePair(100, 100)


@pytest.mark.parametrize("line_in_y", [-1, -5, 0])
def test_line_pair_rejects_negative_rows(line_in_y):
    # a line on or above row 0 leaves zone A unreachable, so nothing could count
    with pytest.raises(ConfigError):
        LinePair(line_in_y, 80)


@pytest.mark.parametrize("build", [
    lambda: LinePair(1, int("9" * 4000)).check_fits(64),
    lambda: LinePair(int("9" * 4000), 5),
    lambda: LinePair(-int("9" * 4000), 5),
], ids=["check_fits", "above", "below-row-1"])
def test_line_pair_quotes_huge_rows_in_part(build):
    # the library can build a pair past the 64-bit bound of from_json
    with pytest.raises(ConfigError, match=r"9{19}\.\.\. \(400[01] characters\)") as info:
        build()
    assert len(str(info.value)) < 200


def test_line_pair_from_json():
    assert LinePair.from_json([100, 200]) == LINES
    assert LinePair.from_json([1, 2**63 - 1]) == LinePair(1, 2**63 - 1)


@pytest.mark.parametrize("value,match", [
    ("100,200", "JSON array"), ((100, 200), "JSON array"), (None, "JSON array"),
    ([100], "two integers"), ([100, 200, 300], "two integers"), ([], "two integers"),
    ([100.0, 200], "JSON integer"), ([100, True], "JSON integer"), ([100, "200"], "JSON integer"),
    ([1, 2**63], "64-bit"), ([1, int("9" * 4000)], r"64-bit integer, got '?9{20}\.\.\. "),
    ([200, 100], "must be above"), ([0, 100], ">= 1"),
])
def test_line_pair_from_json_rejects(value, match):
    with pytest.raises(ConfigError, match=match) as info:
        LinePair.from_json(value)
    assert len(str(info.value)) < 200


def test_classify_zones():
    assert classify_zone((5.0, 0.0), LINES) is Zone.A
    assert classify_zone((5.0, 300.0), LINES) is Zone.B
    assert classify_zone((5.0, 150.0), LINES) is Zone.M
    # boundary rows belong to the middle zone
    assert classify_zone((5.0, 100.0), LINES) is Zone.M
    assert classify_zone((5.0, 200.0), LINES) is Zone.M


def test_full_traversal_counts_in():
    assert walk("AMB") == [(2, "IN")]


def test_full_traversal_counts_out():
    assert walk("BMA") == [(2, "OUT")]


def test_oscillation_across_one_line_never_counts():
    assert walk("AMAMA") == []
    assert walk("BMBMB") == []


def test_zone_jump_still_counts():
    assert walk("AB") == [(1, "IN")]


def test_round_trip_counts_both_directions():
    assert walk("AMBMA") == [(2, "IN"), (4, "OUT")]
    assert walk("ABAB") == [(1, "IN"), (2, "OUT"), (3, "IN")]


def test_middle_origin_never_counts():
    assert walk("MBAB") == []
    assert walk("MAMB") == []


def test_dwell_between_lines_is_free():
    assert walk("AMMMMMMB") == [(7, "IN")]
    assert walk("AMMMMMMA") == []


def test_walks_match_string_scan_oracle(rng):
    for _ in range(2000):
        n = int(rng.integers(1, 30))
        zones = "".join(rng.choice(list("AMB"), n))
        assert walk(zones, rng) == scan_zone_events(zones)


def test_inserting_middle_dwell_preserves_events(rng):
    for _ in range(200):
        n = int(rng.integers(2, 15))
        zones = "".join(rng.choice(list("AMB"), n))
        baseline = [d for _, d in walk(zones)]
        pos = int(rng.integers(1, len(zones)))  # interior insertion
        padded = zones[:pos] + "M" * int(rng.integers(1, 5)) + zones[pos:]
        assert [d for _, d in walk(padded)] == baseline


def test_simultaneous_tracks_count_separately():
    a, b = Track(0, (10.0, 0.0)), Track(1, (160.0, 0.0))
    events = []
    for frame, (ya, yb) in enumerate([(50.0, 250.0), (150.0, 150.0), (250.0, 50.0)]):
        for track, x, y in ((a, 10.0, ya), (b, 160.0, yb)):
            track.position = (x, y)
            event = advance(track, LINES, frame)
            if event:
                events.append(event)
    assert len(events) == 2
    assert {e.track_id for e in events} == {0, 1}
    assert {e.direction for e in events} == {Direction.IN, Direction.OUT}
    assert events[0].frame == events[1].frame == 2


def test_apply_event_in():
    counters = apply_event(Counters(), CrossEvent(0, 0, Direction.IN))
    assert (counters.in_count, counters.out_count, counters.total_count) == (1, 0, 1)


def test_apply_event_reaches_table_row_one():
    counters = Counters(in_count=8, out_count=7)
    apply_event(counters, CrossEvent(500, 3, Direction.OUT))
    assert (counters.in_count, counters.out_count, counters.total_count) == (8, 8, 16)


def test_apply_event_mixed_sequence(rng):
    directions = [Direction.IN] * 9 + [Direction.OUT] * 12
    rng.shuffle(directions)
    counters = Counters()
    previous = (0, 0, 0)
    for frame, d in enumerate(directions):
        apply_event(counters, CrossEvent(frame, 0, d))
        state = (counters.in_count, counters.out_count, counters.total_count)
        assert counters.total_count == counters.in_count + counters.out_count
        assert all(now >= before for now, before in zip(state, previous))
        previous = state
    assert previous == (9, 12, 21)


def test_direction_flip():
    assert Direction.IN.flipped() is Direction.OUT
    assert Direction.OUT.flipped() is Direction.IN
