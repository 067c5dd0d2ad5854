"""CPU package and DRAM energy metering via the Linux powercap counters.

The kernel exposes monotonically increasing energy counters (microjoules)
under /sys/class/powercap/intel-rapl.  Energy is integrated from counter
deltas over every pair of consecutive instants, each (timestamp, [counter
of each domain]), and power is joules over seconds.  Counters wrap; a pair
in which one fell is dropped rather than reconstructed, because it may have
wrapped more than once between reads, and `summarize` bridges its time at
the integrated mean power.  A live run and a replayed trace are folded by
one `ColumnFold`, a batch of instants at a time, so a recorded run replays
to the same `Energy`: joules, seconds, kept pairs and dropped pairs.  The
idle baseline and the child's run are sampled by one loop on the main
thread (`SamplingSession`), which holds at most one batch, so memory stays
constant however long the run.  A replay is folded while it is read.
"""

from __future__ import annotations

import math
import os
import re
import select
import shutil
import time
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, compress, count, islice, starmap
from operator import gt, sub
from typing import NamedTuple

from .records import Checked

POWERCAP_ROOT = "/sys/class/powercap/intel-rapl"
UJ_PER_J = 1_000_000
KWH_PER_J = 1.0 / 3_600_000.0

GPU_QUERY = [
    "nvidia-smi",
    "--query-gpu=power.draw",
    "--format=csv,noheader,nounits",
]

# Counter files update on a millisecond-ish cadence; sampling much faster
# than this just reads the same value twice and produces zero/noise deltas.
MIN_SAMPLE_INTERVAL_S = 0.01

# The most instants a live session holds before it folds them (256: ~50 µs)
BATCH_INSTANTS = 256

# The longest timeout `select.poll` accepts, in ms (a C int; ~24.8 days):
# longer ones raise OverflowError.
_POLL_MAX_MS = 2**31 - 1
MAX_WAIT_S = _POLL_MAX_MS / 1000

_DOMAIN_DIR = re.compile(r"intel-rapl:\d+$")
_SUBDOMAIN_DIR = re.compile(r"intel-rapl:\d+:\d+$")


class NoPowercapInterface(Exception):
    """The host does not expose any readable package energy counters."""


class ReadFailure(Exception):
    """An energy counter file existed at setup time but could not be read."""

    def __init__(self, path: str, cause: Exception):
        super().__init__(f"cannot read {path}: {cause}")
        self.path = path


class EmptyProcessSamples(Exception):
    """No counter pair of the measured process was kept, or the kept pairs
    give no finite figure."""


class Energy(NamedTuple):
    """What the counters recorded over a run: the kept pairs' joules and
    seconds, and the numbers of kept and dropped pairs."""

    joules: float = 0.0
    seconds: float = 0.0
    pairs: int = 0
    dropped: int = 0

    @property
    def watts(self) -> float:
        """Mean power over the kept pairs; 0 W when none was kept."""
        return self.joules / self.seconds if self.pairs else 0.0


class _Config(NamedTuple):
    sample_interval_s: float = 0.1
    psu_efficiency: float = 0.8
    baseline_duration_s: float = 5.0
    gpu_enabled: bool = False


class MeterConfig(Checked, _Config):
    __slots__ = ()

    def _check(self):
        if not 0.0 < self.psu_efficiency <= 1.0:
            raise ValueError(
                f"psu_efficiency must be in (0, 1], got {self.psu_efficiency}"
            )
        # the sampling loop waits in `select.poll`; NaN fails both comparisons
        for name, value, least in (
            ("sample interval", self.sample_interval_s, MIN_SAMPLE_INTERVAL_S),
            ("baseline duration", self.baseline_duration_s, 0.0),
        ):
            if not least <= value <= MAX_WAIT_S:
                raise ValueError(f"{name} must be between {least}s and "
                                 f"{MAX_WAIT_S:g}s, got {value}")


class MeasurementSummary(NamedTuple):
    baseline_watts: float
    total_watts: float
    process_watts: float
    duration_s: float
    measured_kwh: float
    adjusted_kwh: float
    psu_efficiency: float
    negative_clamped: bool = False


# sysfs serves an attribute in at most one page
_SYSFS_PAGE = 4096


def _read_int(path: str) -> int:
    """The integer a counter file holds, read with one open/read/close.

    The file is reopened on every read instead of held open and re-read
    with pread: a writer may replace it atomically (rename over it, as the
    synthetic trees in the tests and the benchmark do), and a held
    descriptor would keep reading the replaced inode's stale value forever.
    Raw `os` calls skip the buffered text layers `open()` builds per call,
    which cost more than the syscalls on the sampler's hot path.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            return int(os.read(fd, _SYSFS_PAGE))
        finally:
            os.close(fd)
    except (OSError, ValueError) as exc:
        raise ReadFailure(path, exc) from None


def _domain_name(path: str) -> str:
    """The `name` a powercap domain directory gives itself ("" if unreadable)."""
    try:
        with open(os.path.join(path, "name")) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def enumerate_package_domains(root: str = POWERCAP_ROOT) -> list[str]:
    """Return paths of the domains whose counters add up to the machine's
    energy under *root*: each package and its DRAM.

    Packages are the directories named intel-rapl:<N> whose `name` file
    starts with "package-".  A package's subdomains are nested in it as
    intel-rapl:<N>:<M>.  RAPL meters `dram` outside the package count, so
    each subdomain named "dram" is enumerated after its package.  The others,
    such as core and uncore, are parts of the package count and would be
    double-counted, and psys (a top-level domain, not a package) covers the
    packages, so they are never enumerated.

    Raises NoPowercapInterface when the hierarchy is absent or holds no
    readable package domain.
    """
    if not os.path.isdir(root):
        raise NoPowercapInterface(
            f"{root} does not exist; this kernel exposes no energy counters"
        )
    domains = []
    for entry in sorted(os.listdir(root)):
        path = os.path.join(root, entry)
        if not _DOMAIN_DIR.match(entry) or not _domain_name(path).startswith("package-"):
            continue
        domains.append(path)
        domains += [
            os.path.join(path, sub) for sub in sorted(os.listdir(path))
            if _SUBDOMAIN_DIR.match(sub) and _domain_name(os.path.join(path, sub)) == "dram"
        ]
    if not domains:
        raise NoPowercapInterface(f"no package-* domains found under {root}")
    return domains


def _pairs(column: Sequence) -> tuple[Iterator, Iterator]:
    """Iterators over column[j] and column[j + 1] for every j, uncopied."""
    return iter(column), islice(column, 1, None)


def fold_columns(
    timestamps: Sequence[float], energies: Sequence[Sequence[int]]
) -> tuple[int, int, int, Iterator[float]]:
    """Integrate every pair of consecutive instants, given their timestamps
    and one counter column (µJ) per domain (at least one).  Time strictly
    increases, as checked where instants are read: the trace loader rejects
    a batch whose stamps do not, counting from the instant it carries over,
    and `SamplingSession._read` skips a read that does not advance.  The
    pair rule: a pair in which any counter fell (a wrap or a reset) is
    dropped whole, in every column; equal counters are kept.

    Returns the kept µJ, the numbers of kept and dropped pairs, and the kept
    seconds as terms whose exact sum (`math.fsum`) they are: every pair's
    interval, and each dropped pair's interval negated.  Kept µJ are each
    domain's net advance minus the dropped pairs' advances.  The pairs where
    a counter fell are found by C-level iterators, one pass per column,
    nothing copied, and gathered in one sorted set.  Columns cut into pieces
    that overlap by one instant fold to the same totals when the pieces' µJ
    are added and all their terms go to one `fsum`, since `fsum` is exactly
    rounded whatever the order.  The terms are lazy over the columns given.
    """
    if len(timestamps) < 2:
        return 0, 0, 0, iter(())
    dropped = sorted(set(chain.from_iterable(
        compress(count(), map(gt, *_pairs(column))) for column in energies)))
    kept_uj = sum(column[-1] - column[0] for column in energies) - sum(
        column[j + 1] - column[j] for j in dropped for column in energies
    )
    earlier, later = _pairs(timestamps)
    seconds = chain(
        map(sub, later, earlier),
        (timestamps[j] - timestamps[j + 1] for j in dropped),
    )
    return kept_uj, len(timestamps) - 1 - len(dropped), len(dropped), seconds


class ColumnFold:
    """The `Energy` and span of instants that come in batches of columns
    (timestamps, and one µJ column per domain; at least one instant each).
    `fold_columns` folds each batch after the last instant of the one before
    it, all that is kept of it.  The kept µJ add up as one integer and every
    seconds term goes to one `math.fsum`, so the totals are those of one
    fold of all the instants.  A batch may change once the next is asked for."""

    def __init__(self, batches: Iterable[tuple[Sequence[float], Sequence[list[int]]]]):
        self._kept_uj = self._pairs = self._dropped = 0
        self._first = self.span_s = 0.0  # from the first instant to the last
        self._last: tuple[Sequence[float], list[int]] | None = None
        seconds = math.fsum(chain.from_iterable(starmap(self._add, batches)))
        self.energy = Energy(self._kept_uj / UJ_PER_J, seconds, self._pairs, self._dropped)

    def _add(self, stamps: Sequence[float], energies: Sequence[list[int]]) -> Iterator[float]:
        """Fold one batch; return the terms of its kept seconds."""
        if self._last is None:
            self._first = stamps[0]
        else:
            last_stamp, last_energies = self._last
            stamps = last_stamp + stamps
            energies = [[e] + column for e, column in zip(last_energies, energies)]
        self._last = stamps[-1:], [column[-1] for column in energies]
        self.span_s = stamps[-1] - self._first
        kept_uj, kept, dropped, seconds = fold_columns(stamps, energies)
        self._kept_uj += kept_uj
        self._pairs += kept
        self._dropped += dropped
        return seconds


def read_gpu_power(command: list[str] | None = None) -> float | None:
    """Instantaneous GPU board power in watts summed across all GPUs, or None.

    Any failure (driver missing, tool absent, output that is not a finite,
    non-negative number per line) means the GPU contribution is simply
    unavailable; it never aborts a measurement.
    """
    import subprocess  # only `--gpu` runs a tool

    cmd = command or GPU_QUERY
    if shutil.which(cmd[0]) is None:
        return None
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=2.0, check=False)
        watts = [float(line) for line in proc.stdout.splitlines() if line.strip()]
    except (OSError, subprocess.TimeoutExpired, ValueError):
        return None
    # NaN fails both comparisons
    if proc.returncode != 0 or not watts or not all(0 <= w < math.inf for w in watts):
        return None
    return sum(watts)


class PowercapSource:
    """Live counter source: an instant is (`time.monotonic()`, [energy_uj
    of each domain, in `enumerate_package_domains` order]).  Every counter
    is also read once here, so one that cannot be read stops the run before
    the child starts."""

    virtual_time = False

    def __init__(self, root: str = POWERCAP_ROOT):
        self._paths = [os.path.join(d, "energy_uj") for d in enumerate_package_domains(root)]
        for path in self._paths:
            _read_int(path)

    def next_instant(self) -> tuple[float, list[int]]:
        return time.monotonic(), list(map(_read_int, self._paths))


class SamplingSession:
    """The one loop that samples both the idle baseline (`collect_baseline`)
    and the child's run.  It runs on the calling thread, with no thread or
    lock beside it: the sampler's CPU lands in the counters it reads.

    For a live source `start()` takes the first instant and `wait(pid)`
    the rest: it sleeps in `select.poll` on a pidfd of the child until the
    next deadline, `sample_interval_s` after the last one, or now if a read
    ran past it, so reads never burst to catch up.  The wake that reports
    the exit takes the trailing instant, which covers the last partial
    interval; without a pidfd (Linux before 5.3) each wake asks `os.waitid`
    with `WNOHANG`.  The child is never reaped here, so its pid cannot be
    recycled while the caller may still signal it.  Reads go to columns,
    and each `BATCH_INSTANTS` of them, and the rest at the end, to the
    `ColumnFold` a replay uses.  A read whose timestamp does not follow the
    last one's (a coarse clock) is skipped: its µJ land in the next pair.
    Under `gpu_enabled` the GPU is one more column, a virtual µJ counter
    that each read advances by the watts polled at the read before over the
    pair's seconds.  `span_s`, the run's duration, is the `ColumnFold` span
    of the reads, first to last.  A replay samples nothing and polls no GPU:
    `stop()` returns the trace's `Energy`, and `span_s` is the trace's.  A
    counter that turns unreadable (`ReadFailure`) ends the loop, and
    `stop()` raises it.
    """

    def __init__(self, source, config: MeterConfig):
        self._source = source
        self._config = config
        self._failure: ReadFailure | None = None
        self._energy = source.energy if source.virtual_time else Energy()
        self.span_s = source.span_s if source.virtual_time else 0.0
        # the batch being read: timestamps, and µJ per domain, then the GPU's
        self._stamps, self._columns = [], []
        self._last_stamp = -math.inf
        self._gpu_uj, self._gpu_watts = 0, 0.0  # watts polled at the last read
        self._started = 0.0

    def start(self) -> None:
        """Take the first instant of a live source."""
        if not self._source.virtual_time:
            self._started = time.monotonic()
            self._read()

    def wait(self, pid: int) -> None:
        """Sample until the child `pid` exits, and return without reaping it.
        A replay, or a run whose sampling stopped early, waits for the exit."""
        self._sample(pid=pid)
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)

    def sample_for(self, seconds: float) -> None:
        """Sample until `seconds` after `start()`; the wake that reaches the
        end takes the last read.  A replay reads nothing."""
        self._sample(seconds)

    def stop(self) -> Energy:
        """What the counters recorded, or the `ReadFailure` that ended
        sampling early, raised."""
        if self._failure is not None:
            raise self._failure
        return self._energy

    def _read(self) -> bool:
        """Append one instant to the batch; False once a counter failed."""
        try:
            stamp, counters = self._source.next_instant()
        except ReadFailure as exc:
            self._failure = exc
            return False
        if stamp <= self._last_stamp:
            return True
        if self._config.gpu_enabled:
            if self._gpu_watts:  # none is polled before the first read
                self._gpu_uj += round(self._gpu_watts * (stamp - self._last_stamp) * UJ_PER_J)
            self._gpu_watts = read_gpu_power() or 0.0
            counters = [*counters, self._gpu_uj]
        self._last_stamp = stamp
        self._stamps.append(stamp)
        self._columns = self._columns or [[] for _ in counters]
        for column, uj in zip(self._columns, counters):
            column.append(uj)
        return True

    def _sample(self, seconds: float = math.inf, pid: int | None = None) -> None:
        """Read an instant at each deadline until `seconds` after `start()`,
        or until the child `pid` exits."""
        if not self._source.virtual_time:
            fold = ColumnFold(self._loop(seconds, pid))
            self._energy, self.span_s = fold.energy, fold.span_s

    def _loop(self, seconds: float, pid: int | None) -> Iterator[tuple]:
        """The loop of `_sample`: yields each full batch it reads, then the rest."""
        poller = select.poll()
        pidfd = None
        if pid is not None:
            try:
                pidfd = os.pidfd_open(pid)
            except (AttributeError, OSError):
                pass  # no pidfd: each wake asks for the exit instead
            else:
                poller.register(pidfd, select.POLLIN)
        until = self._started + seconds
        interval = self._config.sample_interval_s
        deadline = self._started
        sampling = self._failure is None
        try:
            while sampling:
                now = time.monotonic()
                deadline = max(deadline + interval, now)
                wake = min(deadline, until)
                # a negative timeout waits forever; rounding may push one past the ceiling
                ended = poller.poll(min(max(wake - now, 0.0) * 1000, _POLL_MAX_MS))
                if pid is not None and pidfd is None:
                    flags = os.WEXITED | os.WNOHANG | os.WNOWAIT
                    ended = os.waitid(os.P_PID, pid, flags) is not None
                sampling = self._read() and not ended and wake < until
                if self._stamps and (len(self._stamps) == BATCH_INSTANTS or not sampling):
                    yield self._stamps, self._columns
                    self._stamps, self._columns = [], []
        finally:
            if pidfd is not None:
                os.close(pidfd)


def collect_baseline(source, config: MeterConfig) -> Energy:
    """Integrate idle power for `baseline_duration_s` before the process
    starts, with the sampling loop of the run itself (`SamplingSession`).

    Returns the idle `Energy`; a zero one, with no counter read, when the
    duration is 0 or the source is a replay, which recorded no idle time.  A
    counter that turns unreadable ends the wait early; its `ReadFailure` is raised.
    """
    if config.baseline_duration_s == 0 or source.virtual_time:
        return Energy()
    session = SamplingSession(source, config)
    session.start()
    session.sample_for(config.baseline_duration_s)
    return session.stop()


def summarize(
    baseline: Energy, process: Energy, duration_s: float, config: MeterConfig
) -> MeasurementSummary:
    """Reduce the idle and the process `Energy` to the quantities the
    report needs.

    Each one's power is its joules over its kept seconds; a baseline that
    kept no pair counts as 0 W, and a process that kept none raises
    `EmptyProcessSamples`, worded for why.  Process power is total minus
    baseline power, clamped at zero (noise can push the difference negative
    for near-idle workloads; the clamp is flagged so the report can say so).
    Energy is power times `duration_s`, the span of the run's reads, so
    time no kept pair covers (a pair dropped for a wrap) is bridged at the
    mean.  The wall-plug figure divides by PSU efficiency since the counters
    sit downstream of the power supply.  A power or an energy that is not a
    finite float raises `EmptyProcessSamples`: no report could give it.
    """
    if process.dropped and not process.pairs:
        raise EmptyProcessSamples(
            f"every counter pair ({process.dropped}) was dropped: a counter fell "
            "between reads (wrap or reset); nothing to report"
        )
    if not process.pairs:
        raise EmptyProcessSamples(
            "process exited before one full sampling interval; "
            "nothing to report (try a smaller --sample-interval)"
        )
    if duration_s <= 0:  # checked last: a run that kept no pair spans 0 s
        raise ValueError(f"non-positive duration: {duration_s}")
    baseline_watts = baseline.watts
    total_watts = process.watts
    raw = total_watts - baseline_watts
    process_watts = max(raw, 0.0)
    measured_kwh = process_watts * duration_s * KWH_PER_J
    adjusted_kwh = measured_kwh / config.psu_efficiency
    if not all(map(math.isfinite, (baseline_watts, total_watts, measured_kwh, adjusted_kwh))):
        raise EmptyProcessSamples(
            f"the counters give {total_watts!r} W over {duration_s!r} s against "
            f"{baseline_watts!r} W idle, not a finite energy; nothing to report"
        )
    return MeasurementSummary(
        baseline_watts=baseline_watts,
        total_watts=total_watts,
        process_watts=process_watts,
        duration_s=duration_s,
        measured_kwh=measured_kwh,
        adjusted_kwh=adjusted_kwh,
        psu_efficiency=config.psu_efficiency,
        negative_clamped=raw < 0,
    )
