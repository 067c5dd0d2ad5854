"""Row-by-row trace parser and whole-trace fold, the reference for
`carbonrun.traces`.

The parser tokenises with `csv.reader` over text split into lines the way
a file opened with `newline=""` splits them, then validates and groups one
row at a time.  The chunked loader must accept exactly the traces this
accepts, with the same instants, and name the same error for any other
trace.  The fold integrates the whole trace's columns at once; the
batched fold of `TraceSource` (`meter.ColumnFold`) must give the same
totals to the last bit.
"""

import csv
import heapq
import io
import math
from array import array
from itertools import chain, compress, count, groupby, islice
from operator import ge, gt, sub

from carbonrun.meter import UJ_PER_J, Energy
from carbonrun.traces import EnergyCounterReading, TraceError


def reference_parse(text):
    """Every instant of the trace in `text`, or TraceError."""
    return _load(_instants(_records(csv.reader(io.StringIO(text, newline="")))))


def _records(reader):
    """The record number and fields of each record; a record `reader`
    cannot read is a TraceError on its line."""
    lineno = 0
    try:
        for lineno, row in enumerate(reader, start=1):
            yield lineno, row
    except csv.Error as exc:
        raise TraceError(f"line {lineno + 1}: {exc}") from None


def _instants(records):
    """Validate CSV records and group them into (timestamp, {domain: (energy, range)})."""
    group = {}
    group_ts = None
    for lineno, row in records:
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
        if not (0 <= energy < 2**63 and 0 < max_range < 2**63):
            raise TraceError(f"line {lineno}: counter values out of range")
        if ts != group_ts:
            if group_ts is None:
                first_ts = ts
            else:
                if ts < group_ts:
                    raise TraceError(f"line {lineno}: timestamps must not decrease")
                yield group_ts, group
                if not math.isfinite(ts - first_ts):
                    raise TraceError(
                        f"line {lineno}: the span from {first_ts!r} to {ts!r} is not finite")
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
        for domain, energies, ranges in columns:
            energy, max_range = group[domain]
            energies.append(energy)
            ranges.append(max_range)
        timestamps.append(ts)
    if len(timestamps) < 2:
        raise TraceError("trace needs at least two instants to form a sample")
    return [
        {d: EnergyCounterReading(d, energies[i], ranges[i], ts) for d, energies, ranges in columns}
        for i, ts in enumerate(timestamps)
    ]


def reference_totals(text):
    """Joules, seconds, kept pairs, dropped pairs and span of the trace in
    `text`, folded whole; or TraceError, also for a power or an energy that
    is not finite."""
    instants = reference_parse(text)
    timestamps = [next(iter(instant.values())).timestamp for instant in instants]
    energies = [[instant[d].energy_uj for instant in instants] for d in instants[0]]
    energy = fold_columns(timestamps, energies)
    span_s = timestamps[-1] - timestamps[0]
    if not math.isfinite(energy.watts):
        raise TraceError(
            f"the trace's power, {energy.joules!r} J over {energy.seconds!r} s, is not finite")
    if not math.isfinite(energy.watts * span_s):
        raise TraceError(
            f"the trace's energy, {energy.watts!r} W over {span_s!r} s, is not finite")
    return (*energy, span_s)


def _pairs(column, start):
    """Iterators over column[j] and column[j + 1] for j >= start, uncopied."""
    return islice(column, start, None), islice(column, start + 1, None)


def fold_columns(timestamps, energies, start=0):
    """The `Energy` of every pair of consecutive instants from index `start`
    on, given the instants' timestamps and one counter column (µJ) per
    domain, with the pair rule of `meter.fold_columns`, over whole columns."""
    last = len(timestamps) - 1
    if last <= start:
        return Energy()
    if any(map(ge, *_pairs(timestamps, start))):
        raise ValueError("readings must be in increasing time order")
    falls = heapq.merge(*(
        compress(count(start), map(gt, *_pairs(column, start))) for column in energies
    ))
    dropped = [j for j, _ in groupby(falls)]
    kept_uj = sum(column[last] - column[start] for column in energies) - sum(
        column[j + 1] - column[j] for j in dropped for column in energies
    )
    earlier, later = _pairs(timestamps, start)
    seconds = math.fsum(chain(
        map(sub, later, earlier),
        (timestamps[j] - timestamps[j + 1] for j in dropped),
    ))
    kept = last - start - len(dropped)
    return Energy(kept_uj / UJ_PER_J, seconds, kept, len(dropped))
