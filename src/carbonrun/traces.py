"""Replay recorded energy counter traces instead of live sysfs reads.

Trace files are CSV with rows `timestamp_s,domain_id,energy_uj,max_range_uj`.
Rows sharing a timestamp form one instant (a snapshot of every domain); each
instant must cover the same domain set and timestamps must strictly increase.
An optional header row is tolerated.

A trace is parsed in one pass into compact columns: one array of
timestamps, and per domain one array of counter values and one of ranges.
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

from .meter import EnergyCounterReading, EnergyIntegral, fold_columns

# one instant as the parser yields it: timestamp, {domain: (energy, range)}
_Group = tuple[float, dict[str, tuple[int, int]]]


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
        self._load(
            (next(iter(instant.values())).timestamp,
             {d: (r.energy_uj, r.max_range_uj) for d, r in instant.items()})
            for instant in instants
        )

    @classmethod
    def from_csv(cls, text: str) -> "TraceSource":
        return cls._from_rows(csv.reader(io.StringIO(text)))

    @classmethod
    def from_file(cls, path: str) -> "TraceSource":
        with open(path, newline="", encoding="utf-8") as fh:
            try:
                return cls._from_rows(csv.reader(fh))
            except UnicodeDecodeError as exc:
                raise TraceError(f"{path} is not UTF-8 text: {exc.reason}") from None

    @classmethod
    def _from_rows(cls, rows: Iterable[list[str]]) -> "TraceSource":
        source = cls.__new__(cls)
        try:
            source._load(_instants(rows))
        except csv.Error as exc:
            raise TraceError(str(exc)) from None
        return source

    def _load(self, groups: Iterable[_Group]) -> None:
        timestamps = array("d")
        columns: list[tuple[str, array, array]] = []
        domains: set[str] = set()
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


def _instants(rows: Iterable[list[str]]) -> Iterator[_Group]:
    """Validate CSV rows and group them into instants, in one pass."""
    group: dict[str, tuple[int, int]] = {}
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


def parse_trace(text: str) -> list[dict[str, EnergyCounterReading]]:
    """Every instant of a trace, validated, as `TraceSource` serves them."""
    return list(iter(TraceSource.from_csv(text).next_instant, None))
