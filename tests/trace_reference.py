"""Row-by-row trace parser, the reference for `carbonrun.traces`.

It tokenises with `csv.reader` over text split into lines the way a file
opened with `newline=""` splits them, then validates and groups one row at
a time.  The columnar loader must accept exactly the traces this accepts,
with the same instants, and name the same error for a trace with one
defect.
"""

import csv
import io
import math
from array import array

from carbonrun.meter import EnergyCounterReading
from carbonrun.traces import TraceError


def reference_parse(text):
    """Every instant of the trace in `text`, or TraceError."""
    try:
        return _load(_instants(csv.reader(io.StringIO(text, newline=""))))
    except csv.Error as exc:
        raise TraceError(str(exc)) from None


def _instants(rows):
    """Validate CSV rows and group them into (timestamp, {domain: (energy, range)})."""
    group = {}
    group_ts = None
    for lineno, row in enumerate(rows, start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if lineno == 1 and row[0].strip().lower().startswith("timestamp"):
            continue
        if len(row) != 4:
            raise TraceError(f"line {lineno}: expected 4 fields, got {len(row)}")
        try:
            ts = float(row[0])
            energy = int(row[2])
            max_range = int(row[3])
        except ValueError as exc:
            raise TraceError(f"line {lineno}: {exc}") from None
        if not math.isfinite(ts):
            raise TraceError(f"line {lineno}: timestamp {row[0].strip()} is not finite")
        domain = row[1].strip()
        if energy < 0 or max_range <= 0:
            raise TraceError(f"line {lineno}: counter values out of range")
        if ts != group_ts:
            if group_ts is not None:
                if ts < group_ts:
                    raise TraceError(f"line {lineno}: timestamps must not decrease")
                yield group_ts, group
            group = {}
            group_ts = ts
        if domain in group:
            raise TraceError(f"line {lineno}: domain {domain} repeated at {ts}")
        group[domain] = (energy, max_range)
    if group:
        yield group_ts, group


def _load(groups):
    timestamps = array("d")
    columns = []
    domains = set()
    for index, (ts, group) in enumerate(groups):
        if index == 0:
            columns = [(d, array("q"), array("q")) for d in group]
            domains = set(group)
        elif group.keys() != domains:
            raise TraceError(f"instant {index} does not cover domains {sorted(domains)}")
        try:
            for domain, energies, ranges in columns:
                energy, max_range = group[domain]
                energies.append(energy)
                ranges.append(max_range)
        except OverflowError:
            raise TraceError(f"instant {index}: counter values out of range") from None
        timestamps.append(ts)
    if len(timestamps) < 2:
        raise TraceError("trace needs at least two instants to form a sample")
    return [
        {d: EnergyCounterReading(d, energies[i], ranges[i], ts) for d, energies, ranges in columns}
        for i, ts in enumerate(timestamps)
    ]
