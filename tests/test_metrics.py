import json
import math

import pytest

from headcount import (CountReport, Counters, CrossEvent, Direction, GroundTruth,
                       accuracy_pct, build_report)
from headcount.errors import ConfigError, UndefinedAccuracy


def test_accuracy_exact_match_rows():
    # the consistent published cells are exact ratios
    assert accuracy_pct(8, 8) == 100.0
    assert accuracy_pct(9, 9) == 100.0
    assert accuracy_pct(12, 12) == 100.0
    assert accuracy_pct(21, 21) == 100.0
    assert accuracy_pct(16, 16) == 100.0


def test_accuracy_forty_five_of_forty_eight():
    value = accuracy_pct(45, 48)
    assert value == 93.75
    assert round(value) == 94
    assert math.floor(value) == 93


def test_accuracy_zero_count():
    assert accuracy_pct(0, 5) == 0.0


def test_accuracy_overcount_exceeds_hundred():
    assert accuracy_pct(25, 20) == 125.0


def test_accuracy_both_zero_is_perfect():
    assert accuracy_pct(0, 0) == 100.0


def test_accuracy_undefined():
    with pytest.raises(UndefinedAccuracy):
        accuracy_pct(3, 0)


@pytest.mark.parametrize("count,true_count", [(10**400, 1), (10**307, 1)])
def test_accuracy_beyond_float_range_is_undefined(count, true_count):
    # the first quotient overflows int / int, the second only its * 100
    with pytest.raises(UndefinedAccuracy):
        accuracy_pct(count, true_count)
    assert accuracy_pct(count, count) == 100.0


def test_accuracy_negative_truth_rejected():
    with pytest.raises(ConfigError):
        accuracy_pct(3, -1)


def test_accuracy_identity_for_all_counts():
    for x in range(1, 51):
        assert accuracy_pct(x, x) == 100.0


def test_accuracy_scale_invariant():
    for a, b in ((1, 3), (7, 9), (13, 48), (5, 7)):
        for k in (2, 3, 10):
            assert accuracy_pct(k * a, k * b) == accuracy_pct(a, b)


def test_ground_truth_sum_enforced():
    with pytest.raises(ConfigError):
        GroundTruth(3, 4, 8)
    with pytest.raises(ConfigError):
        GroundTruth(-1, 1, 0)


def test_report_without_truth_has_no_accuracy_keys():
    report = build_report(Counters(), [], params={"alpha": 0.02})
    doc = report.to_dict()
    assert doc["in"] == doc["out"] == doc["total"] == 0
    for key in ("true_in", "true_out", "true_total",
                "in_accuracy", "out_accuracy", "tc_accuracy"):
        assert key not in doc


def test_report_accuracies_table_row_two():
    counters = Counters(in_count=9, out_count=12, total_count=21)
    report = build_report(counters, [], GroundTruth(9, 12, 21))
    assert report.in_accuracy == 100.0
    assert report.out_accuracy == 100.0
    assert report.tc_accuracy == 100.0


def test_report_overcount_representable():
    counters = Counters(in_count=25, out_count=28, total_count=53)
    report = build_report(counters, [], GroundTruth(20, 28, 48))
    assert report.in_accuracy == 125.0
    assert report.out_accuracy == 100.0
    assert report.tc_accuracy == pytest.approx(53 / 48 * 100)


def test_report_propagates_undefined_accuracy():
    counters = Counters(in_count=3, out_count=0, total_count=3)
    with pytest.raises(UndefinedAccuracy):
        build_report(counters, [], GroundTruth(0, 3, 3))


def test_report_json_schema_keys():
    counters = Counters(in_count=1, out_count=2, total_count=3)
    events = [CrossEvent(40, 0, Direction.IN), CrossEvent(55, 1, Direction.OUT)]
    report = build_report(counters, events, GroundTruth(1, 2, 3), {"warmup": 30})
    doc = json.loads(report.to_json())
    assert set(doc) == {"in", "out", "total", "true_in", "true_out", "true_total",
                        "in_accuracy", "out_accuracy", "tc_accuracy",
                        "events", "params"}
    assert doc["events"][0] == {"frame": 40, "track_id": 0, "direction": "IN"}
    assert doc["params"] == {"warmup": 30}


def test_report_round_trips_losslessly():
    counters = Counters(in_count=45, out_count=3, total_count=48)
    events = [CrossEvent(12, 4, Direction.IN), CrossEvent(19, 5, Direction.OUT)]
    report = build_report(counters, events, GroundTruth(48, 3, 51),
                          {"alpha": 0.02, "lines": [100, 140]})
    reparsed = CountReport.from_json(report.to_json())
    assert reparsed.to_dict() == report.to_dict()
    assert reparsed.counters == report.counters
    assert reparsed.events == report.events
    assert reparsed.ground_truth == report.ground_truth
    assert reparsed.in_accuracy == report.in_accuracy
