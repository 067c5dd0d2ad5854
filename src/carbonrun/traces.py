"""Replay recorded energy counter traces instead of live sysfs reads.

A trace is CSV text, one row `timestamp_s,domain_id,energy_uj,max_range_uj`
per domain per instant.  Consecutive rows sharing a timestamp form one
instant (a snapshot of every domain, in any order); every instant covers
the domain set of the first one and timestamps strictly increase.  A first line whose
first field starts with `timestamp` is a header, and blank or
whitespace-only lines are skipped.  Lines end in LF, CRLF or a lone CR,
fields may be quoted as `csv.reader` quotes them, and a line break inside
a quoted field reads as LF.

The text is parsed in columns, a chunk at a time.  Each chunk of about
`_CHUNK_CHARS` characters, cut at a line break, becomes one flat field
list.  `csv.reader` tokenises it, skipping the header and blank lines and
counting fields; a record still open at the chunk's end reads on a line at
a time until it closes.  A chunk every line of which is four plain fields
(three commas, no quote, no NUL) reads the same split at commas and line
breaks, and is split so by `str.split`, which is about three times as
fast: that is nearly every chunk of a recorded trace.  The four columns are
stride slices of the field list, converted by `float` and `int` mapped over
a whole column, and every check runs on a whole column.  Only when a check
fails is the offending row located, to name its line.  The rows of an
instant cut by a chunk border wait for the next chunk, so parsing holds one
chunk, the rest of a record open at its end and the rows of one instant on
top of the finished columns: one array of timestamps, and per domain one
array of counter values and one of ranges.

An instant is rebuilt only when `next_instant` serves it; a replay session
instead folds the columns into the energy integral in one pass
(`fold_into`), so it builds no per-instant object at all.
"""

from __future__ import annotations

import csv
import io
import math
from array import array
from collections.abc import Iterable, Iterator
from itertools import chain, compress, count, islice, repeat
from operator import add, lt, mod, ne, sub
from typing import TextIO

from .meter import EnergyCounterReading, EnergyIntegral, fold_columns

# Text parsed at a time.  Larger chunks parse no faster, and from 16k on the
# chunk's temporaries fragment the heap while the columns grow: a 100k-instant
# parse then raised peak RSS by 1-1.7 MB more than the columns need.
_CHUNK_CHARS = 8 * 1024
_INT64_MAX = 2**63 - 1

# one batch of data rows, as columns: timestamps, domains, counter values,
# ranges, and each row's line number as `csv.reader` counts records
_Batch = tuple[array, list[str], list[int], list[int], list[int]]


class TraceError(Exception):
    """The trace file is malformed."""


class TraceSource:
    """Drop-in counter source that serves pre-recorded instants.

    Runs in virtual time: `next_instant` returns the next recorded snapshot
    immediately and None once the trace is exhausted, and `fold_into`
    integrates every snapshot not yet served in one pass over the columns.
    `span_s` is the time covered by the recording and stands in for
    wall-clock duration.
    """

    virtual_time = True

    def __init__(self, instants: Iterable[dict[str, EnergyCounterReading]]):
        """Serve `instants`, each stamped with its first reading's timestamp."""
        timestamps = array("d")
        columns: list[tuple[str, array, array]] = []
        for index, instant in enumerate(instants):
            if index == 0:
                columns = [(d, array("q"), array("q")) for d in instant]
                domains = instant.keys()
            elif instant.keys() != domains:
                raise _uncovered(index, domains)
            try:
                for domain, energies, ranges in columns:
                    energies.append(instant[domain].energy_uj)
                    ranges.append(instant[domain].max_range_uj)
            except OverflowError:
                raise _out_of_range(index) from None
            timestamps.append(next(iter(instant.values())).timestamp)
        self._set_columns(timestamps, columns)

    @classmethod
    def from_csv(cls, text: str) -> "TraceSource":
        return cls._read(io.StringIO(text, newline=None))

    @classmethod
    def from_file(cls, path: str) -> "TraceSource":
        with open(path, encoding="utf-8") as fh:
            try:
                return cls._read(fh)
            except UnicodeDecodeError as exc:
                raise TraceError(f"{path} is not UTF-8 text: {exc.reason}") from None

    @classmethod
    def _read(cls, fh: TextIO) -> "TraceSource":
        """Parse text read with universal newlines (every line break is LF)."""
        loader = _Loader()
        try:
            for batch in _batches(fh):
                loader.add(*batch)
        except csv.Error as exc:
            raise TraceError(str(exc)) from None
        loader.finish()
        source = cls.__new__(cls)
        source._set_columns(loader.timestamps, loader.columns)
        return source

    def _set_columns(self, timestamps: array, columns: list[tuple[str, array, array]]) -> None:
        if len(timestamps) < 2:
            raise TraceError("trace needs at least two instants to form a sample")
        self._timestamps = timestamps
        self._columns = columns
        self._cursor = 0
        self.span_s = timestamps[-1] - timestamps[0]

    @property
    def domain_ids(self) -> list[str]:
        return sorted(domain for domain, _, _ in self._columns)

    def next_instant(self) -> dict[str, EnergyCounterReading] | None:
        i = self._cursor
        if i >= len(self._timestamps):
            return None
        self._cursor = i + 1
        ts = self._timestamps[i]
        return {
            domain: EnergyCounterReading(domain, energies[i], ranges[i], ts)
            for domain, energies, ranges in self._columns
        }

    def fold_into(self, integral: EnergyIntegral) -> None:
        """Fold the pairs of every instant not yet served into `integral`
        (see `fold_columns`); the trace is exhausted afterwards."""
        energies = [column for _, column, _ in self._columns]
        fold_columns(integral, self._timestamps, energies, self._cursor)
        self._cursor = len(self._timestamps)


def _uncovered(index: int, domains: Iterable[str]) -> TraceError:
    return TraceError(f"instant {index} does not cover domains {sorted(domains)}")


def _out_of_range(index: int) -> TraceError:
    return TraceError(f"instant {index}: counter values out of range")


def _chunks(fh: TextIO) -> Iterator[str]:
    """The text of `fh` in pieces of about `_CHUNK_CHARS` characters, each
    ending with a line break, except a last line that has none."""
    while chunk := fh.read(_CHUNK_CHARS):
        if not chunk.endswith("\n"):
            chunk += fh.readline()
        yield chunk


def _batches(fh: TextIO) -> Iterator[_Batch]:
    """The data rows of the text of `fh`, one converted batch per chunk."""
    first = 1  # record number of the chunk's first line
    for chunk in _chunks(fh):
        batch, records = _batch(chunk, fh, first)
        first += records
        yield batch


def _batch(chunk: str, fh: TextIO, first: int) -> tuple[_Batch, int]:
    """The converted data rows of `chunk`, whose first line is record
    `first`, and the number of records read.  (A function of its own, so
    that the chunk's field list is freed before the batch is handed on.)"""
    fields = _plain_fields(chunk) if first > 1 else None
    if fields is None:
        fields, numbers, records = _csv_fields(chunk, fh, first)
    else:
        records = len(fields) // 4
        numbers = list(range(first, first + records))
    return _convert(fields, numbers), records


# bytes.translate deletes these: all but the comma and the line feed
_NOT_DELIMITER = bytes(b for b in range(256) if b not in b",\n")


def _plain_fields(chunk: str) -> list[str] | None:
    """The fields of `chunk` split at commas and line breaks, if each of its
    lines is four fields that `csv.reader` would split the same way: no
    quote, no NUL, none longer than `csv.field_size_limit()`.  Else None."""
    if not chunk.endswith("\n"):
        chunk += "\n"
    if ('"' in chunk or "\0" in chunk or len(chunk) > csv.field_size_limit()
            or chunk.encode().translate(None, _NOT_DELIMITER) != b",,,\n" * chunk.count("\n")):
        return None
    fields = chunk.replace("\n", ",").split(",")
    fields.pop()  # after the last line's break
    return fields


def _csv_fields(chunk: str, fh: TextIO, first: int) -> tuple[list[str], list[int], int]:
    """Tokenise `chunk` with `csv.reader`; a record still open at its end
    reads on in `fh`, a line at a time, until it closes.  Returns the fields
    of the data rows, their record numbers and the number of records read.
    Blank lines and a header on record 1 are skipped."""
    lines = io.StringIO(chunk).readlines()
    reader = csv.reader(chain(lines, fh))
    fields: list[str] = []
    numbers: list[int] = []
    number = first - 1
    for number, row in enumerate(reader, first):
        if row and not (len(row) == 1 and not row[0].strip()) and not (
                number == 1 and row[0].strip().lower().startswith("timestamp")):
            if len(row) != 4:
                raise TraceError(f"line {number}: expected 4 fields, got {len(row)}")
            fields += row
            numbers.append(number)
        if reader.line_num >= len(lines):
            break
    return fields, numbers, number - first + 1


def _convert(fields: list[str], numbers: list[int]) -> _Batch:
    """Convert each column in one pass; check every row's values."""
    try:
        stamps = array("d", map(float, fields[0::4]))
        energies = list(map(int, fields[2::4]))
        ranges = list(map(int, fields[3::4]))
    except ValueError:
        valid = False
    else:
        valid = (all(map(math.isfinite, stamps)) and min(energies, default=0) >= 0
                 and min(ranges, default=1) > 0)
    if not valid:
        _raise_row_error(fields, numbers)
    return stamps, list(map(str.strip, fields[1::4])), energies, ranges, numbers


def _raise_row_error(fields: list[str], numbers: list[int]) -> None:
    """Raise for the first row whose values do not convert or are out of range."""
    for i, number in enumerate(numbers):
        stamp, _, energy, max_range = fields[4 * i:4 * i + 4]
        try:
            ts, e, r = float(stamp), int(energy), int(max_range)
        except ValueError as exc:
            raise TraceError(f"line {number}: {exc}") from None
        if not math.isfinite(ts):
            raise TraceError(f"line {number}: timestamp {stamp.strip()} is not finite")
        if e < 0 or r <= 0:
            raise TraceError(f"line {number}: counter values out of range")
    raise AssertionError("a column check failed but no row fails it")


def _no_rows() -> _Batch:
    return array("d"), [], [], [], []


class _Loader:
    """Checks batches of rows for the instant structure and appends them to
    the trace's columns.

    Valid rows form blocks of D rows, D being the size of the first instant:
    each block shares one timestamp, block timestamps strictly increase, and
    each block lists the first instant's domains, in any order.  The rows
    after a batch's last whole block wait for the next batch.
    """

    def __init__(self) -> None:
        self.timestamps = array("d")
        # per domain, in the first instant's row order: energies and ranges
        self.columns: list[tuple[str, array, array]] = []
        self._pending = _no_rows()
        self._first_domains: set[str] = set()  # of the first instant, while it waits

    def add(self, stamps: array, domains: list[str], energies: list[int],
            ranges: list[int], numbers: list[int], last: bool = False) -> None:
        held = len(self._pending[0])  # rows waiting since earlier batches
        if held:
            for waiting, new in zip(self._pending, (stamps, domains, energies, ranges, numbers)):
                waiting.extend(new)
            stamps, domains, energies, ranges, numbers = self._pending
        rows = len(stamps)
        if not self.columns:
            if not rows:
                return
            # the first instant ends where the timestamp first changes; the
            # rows held so far share its timestamp, so only new rows are scanned
            width = next(compress(count(held), map(
                ne, islice(stamps, held, None), repeat(stamps[0]))), None)
            if width is None and not last:
                self._first_domains.update(domains[held:])
                if len(self._first_domains) < rows:  # a domain repeated
                    self._raise_group_error(stamps, domains, numbers, rows)
                self._pending = (stamps, domains, energies, ranges, numbers)
                return
            width = width or rows
            if len(set(domains[:width])) < width:
                self._raise_group_error(stamps, domains, numbers, width)
            self.columns = [(d, array("q"), array("q")) for d in domains[:width]]
        width = len(self.columns)
        whole = rows - rows % width  # the rows of whole blocks
        block_stamps = stamps[0:whole:width]
        since_last = self.timestamps[-1:] + block_stamps
        valid = (
            (whole == rows or not last)  # the trace does not end inside an instant
            and all(stamps[j:whole:width] == block_stamps for j in range(1, width))
            and all(map(lt, since_last, islice(since_last, 1, None)))
        )
        self._pending = (stamps[whole:], domains[whole:], energies[whole:],
                         ranges[whole:], numbers[whole:])
        ordered = [d for d, _, _ in self.columns]
        if valid and not all(domains[j:whole:width].count(d) == whole // width
                             for j, d in enumerate(ordered)):
            order = _block_order(domains, ordered, whole)  # domains in another order
            valid = order is not None
            if valid:
                energies = list(map(energies.__getitem__, order))
                ranges = list(map(ranges.__getitem__, order))
        if not valid:
            self._raise_group_error(stamps, domains, numbers, rows if last else whole)
        try:
            for j, (_, energy_column, range_column) in enumerate(self.columns):
                energy_column.fromlist(energies[j:whole:width])
                range_column.fromlist(ranges[j:whole:width])
        except OverflowError:
            first_bad = next(i for i, (e, r) in enumerate(zip(energies, ranges))
                             if max(e, r) > _INT64_MAX)
            raise _out_of_range(len(self.timestamps) + first_bad // width) from None
        self.timestamps.extend(block_stamps)

    def finish(self) -> None:
        """Take in the rows still waiting: the trace ends here."""
        self.add(*_no_rows(), last=True)

    def _raise_group_error(self, stamps: array, domains: list[str],
                           numbers: list[int], rows: int) -> None:
        """Raise the error a row-by-row reading meets first among the first
        `rows` rows, which fail a block check; their last instant counts as
        complete."""
        covered = {d for d, _, _ in self.columns} or None
        index = len(self.timestamps) - 1  # the instant the rows continue
        group_ts = self.timestamps[-1] if self.timestamps else None
        group = set(covered or ())
        for ts, domain, number in islice(zip(stamps, domains, numbers), rows):
            if ts != group_ts:
                if group_ts is not None:
                    if ts < group_ts:
                        raise TraceError(f"line {number}: timestamps must not decrease")
                    covered = _check_cover(index, group, covered)
                group_ts, group, index = ts, set(), index + 1
            if domain in group:
                raise TraceError(f"line {number}: domain {domain} repeated at {ts}")
            group.add(domain)
        _check_cover(index, group, covered)
        raise AssertionError("a block check failed but no row-by-row check does")


def _check_cover(index: int, group: set[str], covered: set[str] | None) -> set[str]:
    """The first instant's domains; raise if instant `index` does not cover them."""
    if covered is None:
        return group
    if group != covered:
        raise _uncovered(index, covered)
    return covered


def _block_order(domains: list[str], ordered: list[str], whole: int) -> list[int] | None:
    """Row indices that list each block of the first `whole` rows in the
    order of `ordered`, or None when some block is not a permutation of it."""
    width = len(ordered)
    slot = dict(zip(ordered, range(width)))
    slots = list(map(slot.get, domains[:whole], repeat(width)))
    if whole and max(slots) >= width:
        return None
    rows = range(whole)
    targets = list(map(add, slots, map(sub, rows, map(mod, rows, repeat(width)))))
    if len(set(targets)) < whole:
        return None
    return sorted(rows, key=targets.__getitem__)


def parse_trace(text: str) -> list[dict[str, EnergyCounterReading]]:
    """Every instant of a trace, validated, as `TraceSource` serves them."""
    return list(iter(TraceSource.from_csv(text).next_instant, None))
