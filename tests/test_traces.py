import csv

import pytest

from carbonrun.meter import EnergyCounterReading
from carbonrun.traces import TraceError, TraceSource, parse_trace

from conftest import MAX_RANGE_UJ, constant_trace


def drain(source):
    return list(iter(source.next_instant, None))


def test_parse_groups_rows_into_instants():
    instants = parse_trace(constant_trace(5.0, 3, domains=("a", "b")))
    assert len(instants) == 4
    assert set(instants[0]) == {"a", "b"}
    assert instants[1]["a"].energy_uj == 5_000_000


def test_header_row_tolerated():
    text = "timestamp_s,domain_id,energy_uj,max_range_uj\n" + constant_trace(1.0, 2)
    assert len(parse_trace(text)) == 3


def test_span_covers_recording():
    source = TraceSource.from_csv(constant_trace(1.0, 30, interval_s=0.5))
    assert source.span_s == pytest.approx(30.0)
    assert source.domain_ids == ["pkg-0"]


def test_exhaustion_returns_none():
    source = TraceSource.from_csv(constant_trace(1.0, 2))
    assert source.next_instant() is not None
    assert source.next_instant() is not None
    assert source.next_instant() is not None
    assert source.next_instant() is None


def test_from_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(constant_trace(2.0, 5))
    assert TraceSource.from_file(str(path)).span_s == pytest.approx(5.0)


MALFORMED_TRACES = [
    "0,pkg-0,0\n1,pkg-0,10\n",  # wrong field count
    "0,pkg-0,zero,100\n1,pkg-0,10,100\n",  # non-numeric energy
    "1,pkg-0,0,100\n0,pkg-0,10,100\n",  # decreasing time
    "0,pkg-0,0,100\n",  # single instant
    "0,pkg-0,0,100\n0,pkg-0,5,100\n1,pkg-0,9,100\n",  # repeated domain
    "0,pkg-0,0,100\n1,pkg-1,5,100\n",  # inconsistent domain sets
    "0,pkg-0,0,100\n1,pkg-0,5,100\nnan,pkg-0,9,100\n",  # timestamp not a number
    "0,pkg-0,0,100\ninf,pkg-0,5,100\n",  # infinite timestamp
    "0,pkg-0,-5,100\n1,pkg-0,5,100\n",  # negative counter
    f"0,pkg-0,{2**63},100\n1,pkg-0,{2**63 + 5},100\n",  # counter beyond 64 bits
]

# the bytes of a file that is not UTF-8 text
NON_UTF8_TRACE = b"0,pkg-0,0,100\n1,pkg-\xff0,5,100\n"


@pytest.mark.parametrize("text", MALFORMED_TRACES)
def test_malformed_traces_rejected(text):
    with pytest.raises(TraceError):
        parse_trace(text)


def test_non_utf8_file_rejected(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(NON_UTF8_TRACE)
    with pytest.raises(TraceError, match="not UTF-8"):
        TraceSource.from_file(str(path))


def test_csv_error_becomes_trace_error():
    oversized = "1" * (csv.field_size_limit() + 1)
    with pytest.raises(TraceError, match="field larger than field limit"):
        parse_trace(f"0,pkg-0,{oversized},100\n1,pkg-0,5,100\n")


def test_instants_round_trip_through_constructor():
    text = constant_trace(3.0, 4, domains=("a", "b"))
    instants = parse_trace(text)
    assert drain(TraceSource(instants)) == instants
    assert instants[2]["b"] == EnergyCounterReading("b", 6_000_000, MAX_RANGE_UJ, 2.0)
