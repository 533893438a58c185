"""Sample record model: round trips."""

import pytest

from repro.telemetry.sample import SAMPLE_FIELDS, Sample


def test_to_row_uses_sample_field_order():
    sample = Sample(
        name="/threads{locality#0/total}/time/average",
        instance="locality#0/total",
        timestamp_ns=1234,
        value=56.25,
        unit="ns",
        run_id="fib/hpx/c4",
    )
    row = sample.to_row()
    assert tuple(row) == SAMPLE_FIELDS
    assert row["timestamp_ns"] == 1234
    assert row["value"] == 56.25


def test_row_round_trip_is_lossless():
    sample = Sample(
        name="/papi{locality#0/total}/OFFCORE_REQUESTS:ALL_DATA_RD",
        instance="locality#0/total",
        timestamp_ns=987654321,
        value=0.1 + 0.2,  # a float that doesn't round-trip through :g
        unit="",
        run_id="",
    )
    assert Sample.from_row(sample.to_row()) == sample


def test_from_row_defaults_optional_fields():
    sample = Sample.from_row(
        {"name": "/runtime{locality#0/total}/uptime", "timestamp_ns": 5, "value": 1}
    )
    assert sample.instance == ""
    assert sample.unit == ""
    assert sample.run_id == ""
    assert sample.value == 1.0


def test_samples_are_frozen():
    sample = Sample(name="/x/y", instance="", timestamp_ns=0, value=0.0)
    with pytest.raises(AttributeError):
        sample.value = 1.0

