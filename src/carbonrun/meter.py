"""CPU package and DRAM energy metering via the Linux powercap counters.

The kernel exposes monotonically increasing energy counters (microjoules)
under /sys/class/powercap/intel-rapl.  Energy is integrated from counter
deltas: every pair of consecutive whole-machine reads adds the joules its
counters advanced and the seconds it covers to a running total, and power
is joules over seconds.  Counters wrap at max_energy_range_uj; a wrapped
pair is dropped rather than reconstructed, because the counter may have
wrapped more than once between reads, and `summarize` bridges its time at
the integrated mean power.  A live run keeps only the previous read, so
memory stays constant however long the run.  A replayed trace runs in
virtual time and is integrated while it is read: `fold_columns` folds each
chunk of its instants with the same pair rule, so a replay, too, keeps only
the instant that joins one chunk to the next.
"""

from __future__ import annotations

import heapq
import math
import os
import re
import shutil
import subprocess
import threading
import time
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import chain, compress, count, groupby, islice
from operator import ge, gt, sub

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
    """The measured process exited before a single power sample completed."""


@dataclass(frozen=True, slots=True)
class EnergyCounterReading:
    domain_id: str
    energy_uj: int
    max_range_uj: int
    timestamp: float  # seconds, monotonic or trace time


@dataclass(frozen=True)
class PowerSample:
    watts: float
    interval_s: float

    def __post_init__(self):
        if self.watts < 0:
            raise ValueError(f"negative power sample: {self.watts}")
        if self.interval_s <= 0:
            raise ValueError(f"non-positive sample interval: {self.interval_s}")


@dataclass(frozen=True)
class MeterConfig:
    sample_interval_s: float = 0.1
    psu_efficiency: float = 0.8
    baseline_duration_s: float = 5.0
    gpu_enabled: bool = False

    def __post_init__(self):
        if not 0.0 < self.psu_efficiency <= 1.0:
            raise ValueError(
                f"psu_efficiency must be in (0, 1], got {self.psu_efficiency}"
            )
        if self.sample_interval_s < MIN_SAMPLE_INTERVAL_S:
            raise ValueError(
                f"sample interval {self.sample_interval_s}s is below the "
                f"{MIN_SAMPLE_INTERVAL_S}s counter update granularity"
            )
        if self.baseline_duration_s < 0:
            raise ValueError("baseline duration cannot be negative")


@dataclass(frozen=True)
class MeasurementSummary:
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


def read_counter(
    domain_path: str, max_range_uj: int | None = None
) -> EnergyCounterReading:
    """Read one domain's cumulative energy counter (microjoules).

    The counter's range is read from max_energy_range_uj unless the caller
    already knows it.
    """
    timestamp = time.monotonic()
    energy = _read_int(os.path.join(domain_path, "energy_uj"))
    if max_range_uj is None:
        max_range_uj = _read_int(os.path.join(domain_path, "max_energy_range_uj"))
    return EnergyCounterReading(domain_path, energy, max_range_uj, timestamp)


def pair_energy(
    prev: dict[str, EnergyCounterReading], cur: dict[str, EnergyCounterReading]
) -> tuple[float, float] | None:
    """Joules all domains recorded between two whole-machine instants, and
    the seconds the pair covers (the mean of the per-domain intervals).

    Returns None when the pair must be dropped: a domain wrapped (the wrap
    count between reads is unknowable, and a partial sum would understate
    machine energy), a domain vanished, or there is no domain at all.
    """
    if not prev:
        return None
    delta_uj = 0
    seconds = 0.0
    for domain_id, first in prev.items():
        second = cur.get(domain_id)
        if second is None:
            return None
        if second.timestamp <= first.timestamp:
            raise ValueError("readings must be in increasing time order")
        if second.energy_uj < first.energy_uj:
            return None
        delta_uj += second.energy_uj - first.energy_uj
        seconds += second.timestamp - first.timestamp
    return delta_uj / UJ_PER_J, seconds / len(prev)


def _pairs(column: Sequence) -> tuple[Iterator, Iterator]:
    """Iterators over column[j] and column[j + 1] for every j, uncopied."""
    return iter(column), islice(column, 1, None)


def fold_columns(
    timestamps: Sequence[float], energies: Sequence[Sequence[int]]
) -> tuple[int, int, int, Iterator[float]]:
    """Integrate every pair of consecutive instants, given the instants'
    timestamps and one counter column (µJ) per domain (at least one), with
    the pair rule of `pair_energy`.

    Returns the kept µJ, the numbers of kept and dropped pairs, and the kept
    seconds as terms whose exact sum (`math.fsum`) they are: every pair's
    interval, and each dropped pair's interval negated.  Kept µJ are each
    domain's net advance minus the dropped pairs' advances.  The pairs where
    a counter fell are found by C-level iterators over the columns: one pass
    per column, nothing copied, memory O(domains).  Columns cut into pieces
    that overlap by one instant fold to the same totals when the pieces' µJ
    are added and all their terms go to one `fsum`, since `fsum` is exactly
    rounded whatever the order.
    """
    if len(timestamps) < 2:
        return 0, 0, 0, iter(())
    if any(map(ge, *_pairs(timestamps))):
        raise ValueError("readings must be in increasing time order")
    falls = heapq.merge(*(compress(count(), map(gt, *_pairs(column))) for column in energies))
    dropped = [j for j, _ in groupby(falls)]
    kept_uj = sum(column[-1] - column[0] for column in energies) - sum(
        column[j + 1] - column[j] for j in dropped for column in energies
    )
    earlier, later = _pairs(timestamps)
    seconds = chain(
        map(sub, later, earlier),
        (timestamps[j] - timestamps[j + 1] for j in dropped),
    )
    return kept_uj, len(timestamps) - 1 - len(dropped), len(dropped), seconds


def read_gpu_power(
    interval_s: float = 1.0, command: list[str] | None = None
) -> PowerSample | None:
    """Sum instantaneous GPU board power across all GPUs, or None.

    Any failure (driver missing, tool absent, unparseable output) means the
    GPU contribution is simply unavailable; it never aborts a measurement.
    """
    cmd = command or GPU_QUERY
    if shutil.which(cmd[0]) is None:
        return None
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=2.0, check=False
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    total = 0.0
    seen = False
    for line in proc.stdout.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            total += float(line)
        except ValueError:
            return None
        seen = True
    if not seen or total < 0:
        return None
    return PowerSample(watts=total, interval_s=interval_s)


class PowercapSource:
    """Live counter source reading every package domain per instant.

    A domain's max_energy_range_uj is fixed, so it is read once here and an
    instant reads one file per domain.
    """

    virtual_time = False

    def __init__(self, root: str = POWERCAP_ROOT):
        self._max_ranges = {
            path: _read_int(os.path.join(path, "max_energy_range_uj"))
            for path in enumerate_package_domains(root)
        }

    def next_instant(self) -> dict[str, EnergyCounterReading] | None:
        return {d: read_counter(d, r) for d, r in self._max_ranges.items()}


class EnergyIntegral:
    """Running joules and seconds over a stream of whole-machine instants.

    Only the previous instant is kept: each new one closes a pair that is
    either added to the totals or counted as dropped (see `pair_energy`).
    GPU watts polled after instant i price pair (i, i+1) over its seconds.
    """

    def __init__(self):
        self.joules = 0.0
        self.seconds = 0.0
        self.pairs = 0
        self.dropped = 0
        self._prev: dict[str, EnergyCounterReading] | None = None
        self._prev_gpu_watts = 0.0

    def add(self, instant: dict[str, EnergyCounterReading], gpu_watts: float = 0.0) -> None:
        prev, self._prev = self._prev, instant
        prev_gpu_watts, self._prev_gpu_watts = self._prev_gpu_watts, gpu_watts
        if prev is None:
            return
        pair = pair_energy(prev, instant)
        if pair is None:
            self.dropped += 1
            return
        joules, seconds = pair
        self.joules += joules + prev_gpu_watts * seconds
        self.seconds += seconds
        self.pairs += 1

    def add_totals(self, joules: float, seconds: float, pairs: int, dropped: int) -> None:
        """Add pairs already integrated elsewhere (see `TraceSource`)."""
        self.joules += joules
        self.seconds += seconds
        self.pairs += pairs
        self.dropped += dropped

    def samples(self) -> list[PowerSample]:
        """The integral as one sample (watts = joules / seconds), or none."""
        if not self.pairs:
            return []
        return [PowerSample(watts=self.joules / self.seconds, interval_s=self.seconds)]


class SamplingSession:
    """Background sampler that polls a counter source until stopped.

    For a live source the loop sleeps `sample_interval_s` between instants
    and takes one final instant when stopped, so short-lived processes still
    get a trailing partial sample; instants are folded into an
    `EnergyIntegral` as they arrive.  A trace source runs in virtual time
    and was integrated while it was read, before the child started: the
    thread only adds its totals to the integral (`TraceSource.fold_into`).
    `pairs` and `dropped` count the pairs kept and dropped.

    The sampler's CPU lands in the counters it reads, so each tick is kept
    cheap.  The stop gate is a plain lock the session holds until `stop()`
    releases it: the loop's `acquire(timeout=interval)` is one C call per
    tick, where `Event.wait` runs `Condition.wait` in Python and allocates
    a waiter lock every time.  A counter that turns unreadable mid-run
    (`ReadFailure`) stops the polling, and `stop()` raises it rather than
    returning a partial integral.

    GPU power is polled in wall-clock time, so it cannot price a replayed
    trace: a virtual-time source with `gpu_enabled` raises ValueError.
    """

    def __init__(self, source, config: MeterConfig):
        if source.virtual_time and config.gpu_enabled:
            raise ValueError("GPU power is polled in wall-clock time; "
                             "it cannot be added to a replayed trace")
        self._source = source
        self._config = config
        self._gate = threading.Lock()
        self._gate.acquire()
        self._stopped = False
        self._failure: ReadFailure | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._integral = EnergyIntegral()

    @property
    def pairs(self) -> int:
        return self._integral.pairs

    @property
    def dropped(self) -> int:
        return self._integral.dropped

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> list[PowerSample]:
        """Stop sampling; return the integrated sample (empty if no pair was kept).

        Raises the `ReadFailure` that stopped the sampler early, if any.
        """
        if not self._stopped:
            self._stopped = True
            self._gate.release()
        self._thread.join()
        if self._failure is not None:
            raise self._failure
        return self._integral.samples()

    def _poll_once(self) -> bool:
        instant = self._source.next_instant()
        if instant is None:
            return False
        gpu_watts = 0.0
        if self._config.gpu_enabled:
            sample = read_gpu_power(interval_s=self._config.sample_interval_s)
            gpu_watts = sample.watts if sample else 0.0
        self._integral.add(instant, gpu_watts)
        return True

    def _run(self) -> None:
        if self._source.virtual_time:
            self._source.fold_into(self._integral)
            return
        interval = self._config.sample_interval_s
        stopped = self._gate.acquire
        try:
            self._poll_once()
            while not stopped(timeout=interval):
                if not self._poll_once():
                    return
            self._poll_once()  # trailing read covers the last partial interval
        except ReadFailure as exc:
            self._failure = exc


def collect_baseline(source, config: MeterConfig) -> list[PowerSample]:
    """Integrate idle power for `baseline_duration_s` before the process starts.

    Returns the integrated sample, or an empty list when no pair was kept.
    """
    if config.baseline_duration_s == 0:
        return []
    integral = EnergyIntegral()
    deadline = time.monotonic() + config.baseline_duration_s
    instant = source.next_instant()
    if instant is not None:
        integral.add(instant)
    while time.monotonic() < deadline:
        time.sleep(config.sample_interval_s)
        instant = source.next_instant()
        if instant is None:
            break
        integral.add(instant)
    return integral.samples()


def _mean_watts(samples: list[PowerSample]) -> float:
    """Time-weighted mean power: sum of watts * seconds over total seconds."""
    joules = math.fsum(s.watts * s.interval_s for s in samples)
    return joules / math.fsum(s.interval_s for s in samples)


def summarize(
    baseline: list[PowerSample],
    process: list[PowerSample],
    duration_s: float,
    config: MeterConfig,
) -> MeasurementSummary:
    """Reduce two sample streams to the quantities the report needs.

    Each stream's power is its time-weighted mean, sum(w * dt) / sum(dt);
    for the integrated sample `SamplingSession.stop` returns, that is joules
    over covered seconds.  Process power is total minus baseline power,
    clamped at zero (noise can push the difference negative for near-idle
    workloads; the clamp is flagged so the report can say so).  Energy is
    power times wall duration, so time no kept pair covers (a pair dropped
    for a wrap or a vanished domain) is bridged at the mean.  The wall-plug
    figure divides by PSU efficiency since the counters sit downstream of
    the power supply.
    """
    if duration_s <= 0:
        raise ValueError(f"non-positive duration: {duration_s}")
    if not process:
        raise EmptyProcessSamples(
            "process exited before one full sampling interval; "
            "nothing to report (try a smaller --sample-interval)"
        )
    baseline_watts = _mean_watts(baseline) if baseline else 0.0
    total_watts = _mean_watts(process)
    raw = total_watts - baseline_watts
    process_watts = max(raw, 0.0)
    measured_kwh = process_watts * duration_s * KWH_PER_J
    return MeasurementSummary(
        baseline_watts=baseline_watts,
        total_watts=total_watts,
        process_watts=process_watts,
        duration_s=duration_s,
        measured_kwh=measured_kwh,
        adjusted_kwh=measured_kwh / config.psu_efficiency,
        psu_efficiency=config.psu_efficiency,
        negative_clamped=raw < 0,
    )
