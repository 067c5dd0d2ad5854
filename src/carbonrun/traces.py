"""Replay recorded energy counter traces instead of live sysfs reads.

A trace is CSV text, one row `timestamp_s,domain_id,energy_uj,max_range_uj`
per domain per instant.  Consecutive rows sharing a timestamp form one
instant (a snapshot of every domain, in any order); every instant covers
the domain set of the first one and timestamps strictly increase.  A first line whose
first field starts with `timestamp` is a header, and blank or
whitespace-only lines are skipped.  Lines end in LF, CRLF or a lone CR,
fields may be quoted as `csv.reader` quotes them, and a line break inside
a quoted field reads as LF.

The text is read in one streaming pass, a chunk at a time.  Each chunk of
about `_CHUNK_CHARS` characters, cut at a line break, becomes one flat
field list.  `csv.reader` tokenises it, skipping the header and blank lines
and counting fields; a record still open at the chunk's end reads on a line
at a time until it closes.  A chunk every line of which is four plain
fields (three commas, no quote, no NUL) reads the same split at commas and
line breaks, and is split so by `str.split`, which is about three times as
fast: that is nearly every chunk of a recorded trace.  The four columns
are stride slices of the field list; timestamps and counter values are
converted by `float` and `int` mapped over a whole column, and each
distinct range text is converted once.  Every check runs on a whole column,
and only when one fails is the offending row located, to name its line.

The rows of an instant cut by a chunk border wait for the next chunk.  A
replay (`TraceSource`) folds each chunk's instants into the energy integral
as soon as they are checked, carrying only the chunk's last instant over to
pair it with the next chunk's first, so reading holds one chunk, the rest
of a record open at its end, the rows of one instant and the integral's
totals, however long the trace.  `parse_trace` builds the instants of the
same checked chunks instead.
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

from .meter import UJ_PER_J, EnergyCounterReading, EnergyIntegral, fold_columns

# Text parsed at a time.  Reading and folding a 100k-instant trace took about
# as long at 16k to 64k characters, ~10 % longer at 8k and ~twice as long at
# 128k.
_CHUNK_CHARS = 32 * 1024
_INT64_MAX = 2**63 - 1

# one batch of data rows, as columns: timestamps, domains, counter values,
# ranges, and each row's line number as `csv.reader` counts records
_Batch = tuple[array, list[str], list[int], list[int], list[int]]
# the checked instants of a batch: their timestamps and, per domain in the
# first instant's row order, their counter values and their ranges
_Instants = tuple[array, list[list[int]], list[list[int]]]


class TraceError(Exception):
    """The trace file is malformed."""


class TraceSource:
    """Counter source that replays a recorded trace in virtual time.

    The trace is checked and integrated while it is read (see `fold_columns`
    for the pair rule): each chunk's instants are folded as soon as they are
    checked, and only the last one is kept, for the pair it forms with the
    next chunk's first.  The kept µJ stay one exact integer and every term
    of the kept seconds goes to one `math.fsum`, so the totals equal a fold
    of the whole trace at once.  `fold_into` adds them to an integral.
    `span_s` is the time covered by the recording and stands in for
    wall-clock duration.
    """

    virtual_time = True

    def __init__(self, fh: TextIO):
        """Read and fold the trace text of `fh`, read with universal
        newlines (every line break is LF)."""
        self._kept_uj = self._pairs = self._dropped = 0
        self._first_ts = 0.0
        self._last: tuple[array, list[int]] | None = None
        self._seconds = math.fsum(chain.from_iterable(map(self._fold, _Loader().read(fh))))
        self.span_s = self._last[0][0] - self._first_ts

    @classmethod
    def from_csv(cls, text: str) -> "TraceSource":
        return cls(io.StringIO(text, newline=None))

    @classmethod
    def from_file(cls, path: str) -> "TraceSource":
        with open(path, encoding="utf-8") as fh:
            try:
                return cls(fh)
            except UnicodeDecodeError as exc:
                raise TraceError(f"{path} is not UTF-8 text: {exc.reason}") from None

    def _fold(self, instants: _Instants) -> Iterator[float]:
        """Fold the pairs of a batch's instants, and the pair joining them to
        the last batch's; return the terms of their kept seconds."""
        stamps, energies, _ = instants
        if self._last is None:
            self._first_ts = stamps[0]
        else:
            last_stamp, last_energies = self._last
            stamps = last_stamp + stamps
            energies = [[e] + column for e, column in zip(last_energies, energies)]
        self._last = stamps[-1:], [column[-1] for column in energies]
        kept_uj, kept, dropped, seconds = fold_columns(stamps, energies)
        self._kept_uj += kept_uj
        self._pairs += kept
        self._dropped += dropped
        return seconds

    def fold_into(self, integral: EnergyIntegral) -> None:
        """Add the trace's pairs to `integral`."""
        integral.add_totals(self._kept_uj / UJ_PER_J, self._seconds, self._pairs, self._dropped)


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
    """Convert each column in one pass; check every row's values.  A trace
    repeats each domain's range, so each distinct range text converts once."""
    range_texts = fields[3::4]
    try:
        stamps = array("d", map(float, fields[0::4]))
        energies = list(map(int, fields[2::4]))
        range_of = {text: int(text) for text in set(range_texts)}
    except ValueError:
        valid = False
    else:
        valid = (all(map(math.isfinite, stamps)) and min(energies, default=0) >= 0
                 and min(range_of.values(), default=1) > 0)
    if not valid:
        _raise_row_error(fields, numbers)
    return (stamps, list(map(str.strip, fields[1::4])), energies,
            list(map(range_of.__getitem__, range_texts)), numbers)


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
    """Checks batches of rows for the instant structure and hands on their
    whole instants.

    Valid rows form blocks of D rows, D being the size of the first instant:
    each block shares one timestamp, block timestamps strictly increase, and
    each block lists the first instant's domains, in any order.  The rows
    after a batch's last whole block wait for the next batch.
    """

    def __init__(self) -> None:
        self.domains: list[str] = []  # of the first instant, in its row order
        self.instants = 0  # checked so far
        self._last_stamp = array("d")  # of the last instant checked
        self._pending = _no_rows()
        self._first_domains: set[str] = set()  # of the first instant, while it waits

    def read(self, fh: TextIO) -> Iterator[_Instants]:
        """The instants of the trace text of `fh`, checked, a batch at a time."""
        try:
            for batch in _batches(fh):
                if instants := self.add(*batch):
                    yield instants
        except csv.Error as exc:
            raise TraceError(str(exc)) from None
        if instants := self.add(*_no_rows(), last=True):
            yield instants
        if self.instants < 2:
            raise TraceError("trace needs at least two instants to form a sample")

    def add(self, stamps: array, domains: list[str], energies: list[int],
            ranges: list[int], numbers: list[int], last: bool = False) -> _Instants | None:
        """Check a batch of rows; return its whole instants, if any.  With
        `last`, the trace ends here."""
        held = len(self._pending[0])  # rows waiting since earlier batches
        if held:
            for waiting, new in zip(self._pending, (stamps, domains, energies, ranges, numbers)):
                waiting.extend(new)
            stamps, domains, energies, ranges, numbers = self._pending
        rows = len(stamps)
        if not self.domains:
            if not rows:
                return None
            # the first instant ends where the timestamp first changes; the
            # rows held so far share its timestamp, so only new rows are scanned
            width = next(compress(count(held), map(
                ne, islice(stamps, held, None), repeat(stamps[0]))), None)
            if width is None and not last:
                self._first_domains.update(domains[held:])
                if len(self._first_domains) < rows:  # a domain repeated
                    self._raise_group_error(stamps, domains, numbers, rows)
                self._pending = (stamps, domains, energies, ranges, numbers)
                return None
            width = width or rows
            if len(set(domains[:width])) < width:
                self._raise_group_error(stamps, domains, numbers, width)
            self.domains = domains[:width]
        width = len(self.domains)
        whole = rows - rows % width  # the rows of whole blocks
        block_stamps = stamps[0:whole:width]
        since_last = self._last_stamp + block_stamps
        valid = (
            (whole == rows or not last)  # the trace does not end inside an instant
            and all(stamps[j:whole:width] == block_stamps for j in range(1, width))
            and all(map(lt, since_last, islice(since_last, 1, None)))
        )
        self._pending = (stamps[whole:], domains[whole:], energies[whole:],
                         ranges[whole:], numbers[whole:])
        if whole < rows:
            energies, ranges = energies[:whole], ranges[:whole]
        if valid and not all(domains[j:whole:width].count(d) == whole // width
                             for j, d in enumerate(self.domains)):
            order = _block_order(domains, self.domains, whole)  # domains in another order
            valid = order is not None
            if valid:
                energies = list(map(energies.__getitem__, order))
                ranges = list(map(ranges.__getitem__, order))
        if not valid:
            self._raise_group_error(stamps, domains, numbers, rows if last else whole)
        if not whole:
            return None
        if max(energies) > _INT64_MAX or max(ranges) > _INT64_MAX:
            first_bad = next(i for i, (e, r) in enumerate(zip(energies, ranges))
                             if max(e, r) > _INT64_MAX)
            raise _out_of_range(self.instants + first_bad // width)
        self.instants += whole // width
        self._last_stamp = block_stamps[-1:]
        return (block_stamps, [energies[j::width] for j in range(width)],
                [ranges[j::width] for j in range(width)])

    def _raise_group_error(self, stamps: array, domains: list[str],
                           numbers: list[int], rows: int) -> None:
        """Raise the error a row-by-row reading meets first among the first
        `rows` rows, which fail a block check; their last instant counts as
        complete."""
        covered = set(self.domains) or None
        index = self.instants - 1  # the instant the rows continue
        group_ts = self._last_stamp[0] if self._last_stamp else None
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
    """Every instant of a trace, checked as `TraceSource` checks it."""
    loader = _Loader()
    return [
        {d: EnergyCounterReading(d, e, r, ts) for d, e, r in zip(loader.domains, energies, ranges)}
        for stamps, energy_columns, range_columns in loader.read(io.StringIO(text, newline=None))
        for ts, energies, ranges in zip(stamps, zip(*energy_columns), zip(*range_columns))
    ]
