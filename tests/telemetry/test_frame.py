"""TelemetryFrame: sink behaviour, queries, legacy adaptation."""

import pytest

from repro.telemetry.frame import TelemetryFrame
from repro.telemetry.sample import Sample


def s(name, t, v, unit="ns", run_id="r"):
    return Sample(
        name=name, instance="locality#0/total", timestamp_ns=t, value=v, unit=unit, run_id=run_id
    )


@pytest.fixture
def frame():
    f = TelemetryFrame()
    f.emit(s("/a/x", 10, 1.0))
    f.emit(s("/b/y", 10, 5.0, unit="0.01%"))
    f.emit(s("/a/x", 20, 2.0))
    f.emit(s("/b/y", 20, 6.0, unit="0.01%"))
    return f


def test_emit_and_container_protocol(frame):
    assert len(frame) == 4
    assert [x.value for x in frame] == [1.0, 5.0, 2.0, 6.0]
    frame.close()  # no-op, part of the sink interface
    assert len(frame) == 4


def test_names_in_first_appearance_order(frame):
    assert frame.names() == ["/a/x", "/b/y"]


def test_series_and_value(frame):
    assert [x.value for x in frame.series("/a/x")] == [1.0, 2.0]
    assert frame.value("/b/y") == 6.0


def test_value_keyerror_lists_known_names(frame):
    with pytest.raises(KeyError, match="/a/x"):
        frame.value("/missing")


def test_totals_last_value_wins(frame):
    assert frame.totals() == {"/a/x": 2.0, "/b/y": 6.0}


def test_units_and_timestamps(frame):
    assert frame.units() == {"/a/x": "ns", "/b/y": "0.01%"}
    assert frame.timestamps() == [10, 20]


def test_rows_round_trip(frame):
    clone = TelemetryFrame.from_rows(frame.to_rows())
    assert clone.samples == frame.samples

