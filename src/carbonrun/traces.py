"""Replay recorded energy counter traces instead of live sysfs reads.

A trace is CSV text, one row `timestamp_s,domain_id,energy_uj,max_range_uj`
per domain per instant.  Consecutive rows sharing a timestamp form one
instant (a snapshot of every domain, in any order); every instant covers
the domain set of the first one, timestamps strictly increase, and the
time from the first to the last is a finite float.  A first line whose
first field starts with `timestamp` is a header, and blank or
whitespace-only lines are skipped.  Lines end in LF, CRLF or a lone CR,
fields may be quoted as `csv.reader` quotes them, and a line break inside
a quoted field reads as LF.

The text is read in one streaming pass, a chunk at a time.  Each chunk of
about `_CHUNK_CHARS` characters, cut at a line break, becomes one flat
field list.  `csv.reader` tokenises it, skipping the header and blank
lines; a record still open at the chunk's end reads on a line at a time
until it closes, and one that is not four fields, or that `csv.reader`
cannot read, ends the chunk's rows with its error.  A chunk every line of
which is four plain fields (three commas, no quote, no NUL) reads the same
split at commas and line breaks, and is split so by `str.split`, which is
about three times as fast: that is nearly every chunk of a recorded trace.

One walk reads rows one at a time, in line order: each row's values, then
its place in its instant.  It reads the first instant, which fixes the
domains.  The rows of an instant cut by a chunk border are carried, as
text, to the next chunk's batch, so a batch holds whole instants.  A batch
in the shape a recorder writes, each instant listing the first instant's
domain texts in its order, under one timestamp text, converts one `float`
per instant, one `int` column per domain (stride slices of the field list)
and each distinct range text once, and checks them: time strictly
increases, the span from the first instant is a finite float, counters are
in [0, 2^63 - 1] and ranges in [1, 2^63 - 1].  The first batch in any
other shape, whose values fail those checks or that ends in a record
error, and the rows of a trace that ends inside an instant, hand the rest
of the trace to the walk: it reads on from there to the end, a batch at a
time, and names the first defect by line, as a row-by-row parser would.
The hand-off is one-way, so the rest of an irregular trace reads 2 to 2.5
times slower; a trace as a recorder writes it never is.  No range goes
further: a replay folds timestamps and counters alone.

A replay (`TraceSource`) folds each batch's instants (`meter.ColumnFold`)
as soon as they are checked, carrying only the last one over to pair it
with the next batch's first, so reading holds one chunk, the rest of a
record open at its end, the rows of one instant and the integral's totals,
however long the trace.  `parse_trace` reads a trace through the walk
alone, which checks every row and yields each instant, ranges included.
"""

from __future__ import annotations

import csv
import io
import math
from array import array
from collections.abc import Iterator
from itertools import chain, groupby, islice
from operator import itemgetter, lt
from typing import Any, NamedTuple, TextIO

from .meter import ColumnFold

# Text parsed at a time.  Reading and folding a 100k-instant trace took about
# as long at 32k and 64k characters, ~7 % longer at 16k, ~18 % longer at 8k
# and ~70 % longer at 128k.
_CHUNK_CHARS = 32 * 1024
_INT64_MAX = 2**63 - 1  # the largest counter or range a trace may hold


class TraceError(Exception):
    """The trace file is malformed."""


# a batch of data rows as read: their fields, four to a row, each row's line
# number as `csv.reader` counts records, and the error of the record after
# them if it cannot be read as a data row, which ends the readable trace
_Batch = tuple[list[str], list[int], TraceError | None]
# the checked instants of a batch, as `ColumnFold` takes them: their
# timestamps and, per domain in the first instant's row order, their counters
_Instants = tuple[array, list[list[int]]]


class TraceSource:
    """Counter source that replays a recorded trace in virtual time.

    The trace is checked and integrated while it is read: each chunk's
    instants are folded as soon as they are checked, by the `ColumnFold` a
    live session uses, which keeps only the last one, for the pair it forms
    with the next chunk's first.  The totals, `energy`, equal a fold of the
    whole trace at once.  `span_s` is the time covered by the recording: the
    run's duration, as a live session's is the span of its reads.  A trace
    whose power, or power times span, is not a finite float is rejected
    here, before any child runs, since no report could give its figures.
    """

    virtual_time = True

    def __init__(self, fh: TextIO):
        """Read and fold the trace text of `fh`, read with universal
        newlines (every line break is LF)."""
        fold = ColumnFold(_Loader().read(fh))
        self.energy, self.span_s = energy, span_s = fold.energy, fold.span_s
        if not math.isfinite(energy.watts):
            raise TraceError(f"the trace's power, {energy.joules!r} J over "
                             f"{energy.seconds!r} s, is not finite")
        if not math.isfinite(energy.watts * span_s):
            raise TraceError(f"the trace's energy, {energy.watts!r} W over {span_s!r} s, "
                             "is not finite")

    @classmethod
    def from_csv(cls, text: str) -> "TraceSource":
        return cls(io.StringIO(text, newline=None))

    @classmethod
    def from_file(cls, path: str) -> "TraceSource":
        """Replay the trace file `path`; a leading byte-order mark is dropped."""
        with open(path, encoding="utf-8-sig") as fh:
            try:
                return cls(fh)
            except UnicodeDecodeError as exc:
                raise TraceError(f"{path} is not UTF-8 text: {exc.reason}") from None


def _chunks(fh: TextIO) -> Iterator[str]:
    """The text of `fh` in pieces of about `_CHUNK_CHARS` characters, each
    ending with a line break, except a last line that has none."""
    while chunk := fh.read(_CHUNK_CHARS):
        if not chunk.endswith("\n"):
            chunk += fh.readline()
        yield chunk


def _batches(fh: TextIO) -> Iterator[_Batch]:
    """The data rows of the text of `fh`, one batch per chunk."""
    first = 1  # record number of the chunk's first line
    for chunk in _chunks(fh):
        fields = _plain_fields(chunk) if first > 1 else None
        if fields is None:
            fields, numbers, records, error = _csv_fields(chunk, fh, first)
        else:
            records, error = len(fields) // 4, None
            numbers = list(range(first, first + records))
        first += records
        yield fields, numbers, error


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


def _csv_fields(chunk: str, fh: TextIO,
                first: int) -> tuple[list[str], list[int], int, TraceError | None]:
    """Tokenise `chunk` with `csv.reader`; a record still open at its end
    reads on in `fh`, a line at a time, until it closes.  Returns the fields
    of the data rows, their record numbers, the number of records read and,
    if a record is not four fields or `csv.reader` cannot read it, its
    error: the rows end before it.  Blank lines and a header on record 1
    are skipped."""
    # each line keeps its break, which `csv.reader` reads inside a quoted
    # field; `io.StringIO` would copy the chunk at 4 bytes per character
    lines = [line + "\n" for line in chunk.split("\n")]
    if chunk.endswith("\n"):
        lines.pop()  # the empty text after the last break
    else:
        lines[-1] = lines[-1][:-1]
    reader = csv.reader(chain(lines, fh))
    fields: list[str] = []
    numbers: list[int] = []
    number = first - 1
    try:
        for number, row in enumerate(reader, first):
            if row and not (len(row) == 1 and not row[0].strip()) and not (
                    number == 1 and row[0].strip().lower().startswith("timestamp")):
                if len(row) != 4:
                    return fields, numbers, number - first, TraceError(
                        f"line {number}: expected 4 fields, got {len(row)}")
                fields += row
                numbers.append(number)
            if reader.line_num >= len(lines):
                break
    except csv.Error as exc:
        return fields, numbers, number - first, TraceError(f"line {number + 1}: {exc}")
    return fields, numbers, number - first + 1, None


def _in_range(values: list[int], least: int) -> bool:
    """Whether every value is from `least` to `_INT64_MAX`."""
    return least <= min(values, default=least) and max(values, default=least) <= _INT64_MAX


class _Loader:
    """Checks batches of data rows for the instant structure and hands on
    their whole instants, converted.

    One row-by-row walk, `_walk`, reads the first instant, which fixes the
    domains.  After it, valid rows form blocks of D rows, D being the size
    of the first instant, each an instant.  `read` takes each batch's whole
    blocks; the rows after them wait, as text, for the next batch.  Blocks
    that list the first instant's domain texts in its order, each under one
    timestamp text, convert as columns.  From the first batch that does
    not, fails a value check or ends in a record error, or from rows still
    waiting at the trace's end, the walk reads to the end, one-way.
    """

    def __init__(self) -> None:
        self.domains: list[str] = []  # of the first instant, in its row order
        self._spelled: list[str] = []  # the same domains, as its rows spell them
        self.instants = 0  # checked so far
        self._first_stamp = 0.0  # of the first instant
        self._last_stamp = array("d")  # of the last instant checked

    def read(self, fh: TextIO) -> Iterator[_Instants]:
        """The instants of the trace text of `fh`, checked, a batch at a time."""
        batches = _batches(fh)
        batch, at, stamp, instant = next(self._walk(batches))
        self.domains = list(instant)
        self._spelled = [spelled for spelled, _, _ in instant.values()]
        self._last_stamp = array("d", [stamp])
        self.instants = 1
        yield self._last_stamp, [[counter] for _, counter, _ in instant.values()]
        del instant, batch[0][:4 * at], batch[1][:at]  # hold the first instant no more
        width = len(self.domains)
        held_fields: list[str] = []  # the rows after the last whole instant, for the next batch
        held_numbers: list[int] = []
        while batch:  # the rest of its batch, then each batch after it
            fields, numbers, error = batch
            if len(held_numbers) > len(numbers):  # a wide instant: append, not copy its rows again
                held_fields += fields
                held_numbers += numbers
                fields, numbers = held_fields, held_numbers
            else:  # a short tail: prepend, not copy the batch
                fields[:0] = held_fields
                numbers[:0] = held_numbers
            whole = len(numbers) - len(numbers) % width  # the rows of whole instants
            if error is not None or whole and (
                    instants := self._whole_instants(fields, whole)) is None:
                break
            held_fields, held_numbers = fields[4 * whole:], numbers[whole:]
            del fields, numbers  # while the instants fold, hold only the rows waiting
            if whole:
                self.instants += len(instants[0])
                self._last_stamp = instants[0][-1:]
                yield instants
                del instants  # nor the instants, while the next rows gather
            batch = next(batches, None)
        else:  # every batch is read; rows still waiting end the trace inside an instant
            if not held_numbers:
                return
            fields, numbers, error = held_fields, held_numbers, None
        # the walk reads the rest, a batch of instants per source batch (`chain` keeps its
        # arguments, but an exhausted list iterator lets go of its list)
        walk = self._walk(chain(iter([(fields, numbers, error)]), batches))
        del batch, fields, numbers, held_fields, held_numbers  # the walk alone holds them
        next(walk)  # the last instant checked, carried into the batch
        for _, steps in groupby(walk, itemgetter(0)):
            instants = [(stamp, instant) for _, _, stamp, instant in steps]
            yield (array("d", [stamp for stamp, _ in instants]),
                   [[instant[domain][1] for _, instant in instants] for domain in self.domains])

    def _whole_instants(self, fields: list[str], whole: int) -> _Instants | None:
        """The instants of the first `whole` rows, converted and checked, if
        they list the first instant's domain texts, spelled and ordered as it
        does, under one timestamp text per instant, and their values pass the
        checks; else None."""
        width = len(self.domains)
        end, stride = 4 * whole, 4 * width
        stamp_texts = fields[0:end:stride]
        if fields[1:end:4] != self._spelled * (whole // width) or any(
                fields[j:end:stride] != stamp_texts for j in range(4, stride, 4)):
            return None
        try:
            stamps = array("d", map(float, stamp_texts))
            columns = [list(map(int, fields[j:end:stride])) for j in range(2, stride, 4)]
            ranges = list(map(int, set(fields[3:end:4])))
        except ValueError:
            return None
        # time strictly increases from the first instant's stamp, which is
        # finite, so every stamp is finite if the span to the last is
        since_last = self._last_stamp + stamps
        if (all(map(lt, since_last, islice(since_last, 1, None)))
                and math.isfinite(stamps[-1] - self._first_stamp)
                and all(_in_range(column, 0) for column in columns)
                and _in_range(ranges, 1)):
            return stamps, columns
        return None

    def _walk(self, batches: Iterator) -> Iterator[tuple[_Batch, int, float, dict[str, Any]]]:
        """Read the rows of `batches` one at a time, as
        `tests/trace_reference.py` does, continuing the instants checked so
        far (rows that begin the trace set `_first_stamp`), to the trace's
        end, and raise the first defect, at the end the last instant's cover
        or the count of instants.  Yield each instant once it is checked, at
        the first row of the next or at the trace's end: the batch and index
        of that row (at the end, the batch's length), by which `read` groups
        them, its timestamp and, per domain in row order, its spelling,
        counter and range text (None if checked before the walk)."""
        covered = set(self.domains) or None
        index = self.instants - 1  # the instant the rows continue
        group_ts = self._last_stamp[0] if self._last_stamp else None
        group = dict.fromkeys(self.domains)
        for batch in batches:
            fields, numbers, error = batch
            for i, number in enumerate(numbers):
                stamp, spelled, energy, max_range = fields[4 * i:4 * i + 4]
                try:
                    ts, e, r = float(stamp), int(energy), int(max_range)
                except ValueError as exc:
                    raise TraceError(f"line {number}: {exc}") from None
                if not math.isfinite(ts):
                    raise TraceError(f"line {number}: timestamp {stamp.strip()} is not finite")
                if not (0 <= e <= _INT64_MAX and 0 < r <= _INT64_MAX):
                    raise TraceError(f"line {number}: counter values out of range")
                if ts != group_ts:
                    if group_ts is None:  # the rows begin the trace
                        self._first_stamp = ts
                    else:
                        if ts < group_ts:
                            raise TraceError(f"line {number}: timestamps must not decrease")
                        covered = _check_cover(index, group, covered)
                        if not math.isfinite(ts - self._first_stamp):
                            raise TraceError(f"line {number}: the span from "
                                             f"{self._first_stamp!r} to {ts!r} is not finite")
                        yield batch, i, group_ts, group
                    group_ts, group, index = ts, {}, index + 1
                domain = spelled.strip()
                if domain in group:
                    raise TraceError(f"line {number}: domain {domain} repeated at {ts}")
                group[domain] = spelled, e, max_range
            if error is not None:
                raise error
        _check_cover(index, group, covered)
        if index < 1:
            raise TraceError("trace needs at least two instants to form a sample")
        yield batch, len(batch[1]), group_ts, group


def _check_cover(index: int, group: dict[str, Any], covered: set[str] | None) -> set[str]:
    """The first instant's domains; raise if instant `index`, `group`, does not cover them."""
    if covered is None:
        return set(group)
    if group.keys() != covered:
        raise TraceError(f"instant {index} does not cover domains {sorted(covered)}")
    return covered


class EnergyCounterReading(NamedTuple):  # one row of a trace
    domain_id: str
    energy_uj: int
    max_range_uj: int
    timestamp: float  # seconds of trace time


def parse_trace(text: str) -> list[dict[str, EnergyCounterReading]]:
    """Every instant of a trace, checked row by row as `TraceSource` checks
    it: the rows of each, one per domain, in the order the trace lists them."""
    return [
        {domain: EnergyCounterReading(domain, energy, int(max_range), stamp)
         for domain, (_, energy, max_range) in instant.items()}
        for _, _, stamp, instant in _Loader()._walk(_batches(io.StringIO(text, newline=None)))
    ]
