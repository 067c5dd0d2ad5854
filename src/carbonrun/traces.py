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
field list.  `csv.reader` tokenises it, skipping the header and blank lines
and counting fields; a record still open at the chunk's end reads on a line
at a time until it closes.  A chunk every line of which is four plain
fields (three commas, no quote, no NUL) reads the same split at commas and
line breaks, and is split so by `str.split`, which is about three times as
fast: that is nearly every chunk of a recorded trace.

Conversion is per instant.  The rows of an instant cut by a chunk border
are carried, as text, to the next chunk's batch, so a batch holds whole
instants.  The first instant, which fixes the domains, is found on
converted values.  After it, a batch in which every instant lists the
first instant's domain texts in the same order and repeats its first
row's timestamp text, as a recorded trace's instants do, is checked on the
text: it converts one `float` per instant, one `int` column per domain
(stride slices of the field list) and each distinct range text once, and
strips no domain.  Any other batch (domains in another order, a padded
field, one timestamp spelled two ways) converts every row, `float`,
`int` and `str.strip` each mapped over a whole column, and its instants
are checked on the values.  Either way each value is checked where it is
converted: a finite timestamp, a counter in [0, 2^63 - 1] and a range in
[1, 2^63 - 1].  Only when a check fails is the offending row located, by
a row-by-row reading, to name its line, so the error does not depend on
which way a batch went.  No range goes further: a replay folds timestamps
and counters alone.

A replay (`TraceSource`) folds each batch's instants (`meter.ColumnFold`)
as soon as they are checked, carrying only the last one over to pair it
with the next batch's first, so reading holds one chunk, the rest of a
record open at its end, the rows of one instant and the integral's totals,
however long the trace.  `parse_trace` checks a trace the same way, then
reads it again, converting every row, range included, to group its rows
into instants.
"""

from __future__ import annotations

import csv
import io
import math
from array import array
from collections.abc import Iterator
from itertools import chain, compress, count, groupby, islice, repeat
from operator import add, itemgetter, lt, mod, ne, sub
from typing import NamedTuple, NoReturn, TextIO

from .meter import ColumnFold

# Text parsed at a time.  Reading and folding a 100k-instant trace took about
# as long at 32k and 64k characters, ~7 % longer at 16k, ~18 % longer at 8k
# and ~70 % longer at 128k.
_CHUNK_CHARS = 32 * 1024
_INT64_MAX = 2**63 - 1  # the largest counter or range a trace may hold

# a batch of data rows as read: their fields, four to a row, and each row's
# line number as `csv.reader` counts records
_Rows = tuple[list[str], list[int]]
# the checked instants of a batch, as `ColumnFold` takes them: their
# timestamps and, per domain in the first instant's row order, their counters
_Instants = tuple[array, list[list[int]]]


class TraceError(Exception):
    """The trace file is malformed."""


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


def _batches(fh: TextIO) -> Iterator[_Rows]:
    """The data rows of the text of `fh`, one batch per chunk."""
    first = 1  # record number of the chunk's first line
    for chunk in _chunks(fh):
        fields = _plain_fields(chunk) if first > 1 else None
        if fields is None:
            fields, numbers, records = _csv_fields(chunk, fh, first)
        else:
            records = len(fields) // 4
            numbers = list(range(first, first + records))
        first += records
        yield fields, numbers


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


def _convert(fields: list[str], numbers: list[int]) -> tuple[array, list[str], list[int]]:
    """The timestamps, stripped domains and counter values of each row,
    each column converted in one pass, and every row's values checked.  A
    trace repeats each domain's range, so each distinct range text converts
    once, to be checked, and goes no further."""
    try:
        stamps = array("d", map(float, fields[0::4]))
        energies = list(map(int, fields[2::4]))
        ranges = list(map(int, set(fields[3::4])))
    except ValueError:
        valid = False
    else:
        valid = (all(map(math.isfinite, stamps)) and _in_range(energies, 0)
                 and _in_range(ranges, 1))
    if not valid:
        _raise_row_error(fields, numbers)
    return stamps, list(map(str.strip, fields[1::4])), energies


def _in_range(values: list[int], least: int) -> bool:
    """Whether every value is from `least` to `_INT64_MAX`."""
    return least <= min(values, default=least) and max(values, default=least) <= _INT64_MAX


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
        if not (0 <= e <= _INT64_MAX and 0 < r <= _INT64_MAX):
            raise TraceError(f"line {number}: counter values out of range")
    raise AssertionError("a column check failed but no row fails it")


class _Loader:
    """Checks batches of data rows for the instant structure and hands on
    their whole instants, converted.

    Valid rows form blocks of D rows, D being the size of the first instant:
    each block shares one timestamp, block timestamps strictly increase, and
    each block lists the first instant's domains, in any order.  A batch in
    which every block spells the first instant's domains in its row order
    and repeats its first row's timestamp text is checked on the text and
    converted once per instant and once per domain column; any other batch
    is converted row by row and checked on the values.  The rows after a
    batch's last whole block wait, as text, for the next batch.
    """

    def __init__(self) -> None:
        self.domains: list[str] = []  # of the first instant, in its row order
        self._spelled: list[str] = []  # the same domains, as its rows spell them
        self.instants = 0  # checked so far
        self._first_stamp = 0.0  # of the first instant
        self._last_stamp = array("d")  # of the last instant checked
        self._held: _Rows = [], []  # the rows waiting for the next batch
        self._first_domains: set[str] = set()  # of the first instant, while it waits

    def read(self, fh: TextIO) -> Iterator[_Instants]:
        """The instants of the trace text of `fh`, checked, a batch at a time."""
        try:
            for fields, numbers in _batches(fh):
                if instants := self.add(fields, numbers):
                    yield instants
        except csv.Error as exc:
            raise TraceError(str(exc)) from None
        if instants := self.add([], [], last=True):
            yield instants
        if self.instants < 2:
            raise TraceError("trace needs at least two instants to form a sample")

    def add(self, fields: list[str], numbers: list[int],
            last: bool = False) -> _Instants | None:
        """Check a batch of rows, after the rows waiting from earlier
        batches; return its whole instants, if any.  With `last`, the trace
        ends here."""
        held_fields, held_numbers = self._held
        held = len(held_numbers)
        if held:
            fields[:0] = held_fields
            numbers = held_numbers + numbers
        if not self.domains and not self._first_instant(fields, numbers, held, last):
            self._held = fields, numbers
            return None
        rows = len(numbers)
        whole = rows - rows % len(self.domains)  # the rows of whole blocks
        if whole < rows and last:  # the trace ends inside an instant
            self._raise_group_error(fields, numbers, rows)
        self._held = fields[4 * whole:], numbers[whole:]
        if not whole:
            return None
        instants = self._by_text(fields, whole) or self._by_row(fields, numbers, whole)
        stamps = instants[0]
        if not math.isfinite(stamps[-1] - self._first_stamp):
            self._raise_group_error(fields, numbers, whole)
        self.instants += len(stamps)
        self._last_stamp = stamps[-1:]
        return instants

    def _first_instant(self, fields: list[str], numbers: list[int],
                       held: int, last: bool) -> bool:
        """Find the first instant in a batch whose first `held` rows are
        its own so far; False while it has not ended.  Only the new rows
        are converted, and checked."""
        stamps, domains, _ = _convert(fields[4 * held:], numbers[held:])
        rows = len(numbers)
        if not rows:
            return False
        if not held:
            self._first_stamp = stamps[0]
        # the first instant ends where the timestamp first changes
        width = next(compress(count(held), map(ne, stamps, repeat(self._first_stamp))), None)
        if width is None and not last:
            self._first_domains.update(domains)
            if len(self._first_domains) < rows:  # a domain repeated
                self._raise_group_error(fields, numbers, rows)
            return False
        width = width or rows
        spelled = fields[1:4 * width:4]
        domains = list(map(str.strip, spelled))
        if len(set(domains)) < width:
            self._raise_group_error(fields, numbers, width)
        self.domains, self._spelled = domains, spelled
        return True

    def _by_text(self, fields: list[str], whole: int) -> _Instants | None:
        """The instants of the first `whole` rows, if each spells the first
        instant's domains in their order and repeats its first row's
        timestamp text, and their values check; else None.  One timestamp
        converts per instant and one counter column per domain."""
        end, stride = 4 * whole, 4 * len(self.domains)
        stamp_texts = fields[0:end:stride]
        if fields[1:end:4] != self._spelled * len(stamp_texts) or any(
                fields[j:end:stride] != stamp_texts for j in range(4, stride, 4)):
            return None
        try:
            stamps = array("d", map(float, stamp_texts))
            columns = [list(map(int, fields[j:end:stride])) for j in range(2, stride, 4)]
            ranges = list(map(int, set(fields[3:end:4])))
        except ValueError:
            return None
        # time strictly increases from a finite stamp, the last instant's or
        # the first instant's (checked when it was found), so every stamp is
        # finite if the last one is
        since_last = self._last_stamp + stamps
        if (all(map(lt, since_last, islice(since_last, 1, None))) and math.isfinite(stamps[-1])
                and all(_in_range(column, 0) for column in columns) and _in_range(ranges, 1)):
            return stamps, columns
        return None

    def _by_row(self, fields: list[str], numbers: list[int], whole: int) -> _Instants:
        """The instants of the first `whole` rows, converted row by row and
        checked on the values: the domains may come in any order."""
        stamps, domains, energies = _convert(fields[:4 * whole], numbers[:whole])
        width = len(self.domains)
        block_stamps = stamps[::width]
        since_last = self._last_stamp + block_stamps
        valid = (all(stamps[j::width] == block_stamps for j in range(1, width))
                 and all(map(lt, since_last, islice(since_last, 1, None))))
        if valid and not all(domains[j::width].count(d) == len(block_stamps)
                             for j, d in enumerate(self.domains)):
            order = _block_order(domains, self.domains)  # domains in another order
            valid = order is not None
            if valid:
                energies = list(map(energies.__getitem__, order))
        if not valid:
            self._raise_group_error(fields, numbers, whole)
        return block_stamps, [energies[j::width] for j in range(width)]

    def _raise_group_error(self, fields: list[str], numbers: list[int], rows: int) -> NoReturn:
        """Raise the error a row-by-row reading meets first among the first
        `rows` rows, which fail a block check or reach an instant whose time
        since the first is not finite (the span overflows a float); their
        last instant counts as complete.  A value that does not check is
        named first."""
        stamps, domains, _ = _convert(fields[:4 * rows], numbers[:rows])
        covered = set(self.domains) or None
        index = self.instants - 1  # the instant the rows continue
        group_ts = self._last_stamp[0] if self._last_stamp else None
        group = set(covered or ())
        for ts, domain, number in zip(stamps, domains, numbers):
            if ts != group_ts:
                if group_ts is not None:
                    if ts < group_ts:
                        raise TraceError(f"line {number}: timestamps must not decrease")
                    covered = _check_cover(index, group, covered)
                    if not math.isfinite(ts - self._first_stamp):
                        raise TraceError(f"line {number}: the span from "
                                         f"{self._first_stamp!r} to {ts!r} is not finite")
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
        raise TraceError(f"instant {index} does not cover domains {sorted(covered)}")
    return covered


def _block_order(domains: list[str], ordered: list[str]) -> list[int] | None:
    """Row indices that list each block of `domains` in the order of
    `ordered`, or None when some block is not a permutation of it."""
    width = len(ordered)
    slot = dict(zip(ordered, range(width)))
    slots = list(map(slot.get, domains, repeat(width)))
    if max(slots) >= width:
        return None
    rows = range(len(domains))
    targets = list(map(add, slots, map(sub, rows, map(mod, rows, repeat(width)))))
    if len(set(targets)) < len(domains):
        return None
    return sorted(rows, key=targets.__getitem__)


class EnergyCounterReading(NamedTuple):  # one row of a trace
    domain_id: str
    energy_uj: int
    max_range_uj: int
    timestamp: float  # seconds of trace time


def parse_trace(text: str) -> list[dict[str, EnergyCounterReading]]:
    """Every instant of a trace, checked as `TraceSource` checks it: the
    rows of each, one per domain, in the order the trace lists them."""
    for _ in _Loader().read(io.StringIO(text, newline=None)):
        pass
    rows = chain.from_iterable(
        zip(map(float, fields[0::4]), map(str.strip, fields[1::4]), map(int, fields[2::4]),
            map(int, fields[3::4]))
        for fields, _ in _batches(io.StringIO(text, newline=None)))
    return [
        {d: EnergyCounterReading(d, e, r, ts) for ts, d, e, r in instant}
        for _, instant in groupby(rows, itemgetter(0))
    ]
