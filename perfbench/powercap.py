"""Synthetic powercap tree and the counter writer that drives it.

`make_tree` lays out what `/sys/class/powercap/intel-rapl` looks like to the
meter on a two-socket host: package domains `intel-rapl:0` and `intel-rapl:1`
(names `package-0`, `package-1`), plus a top-level
non-package domain (`psys`) and an `intel-rapl:N:M` subdomain (`core`),
both of which `enumerate_package_domains` must ignore.

`python3 perfbench/powercap.py ROOT FLAG` runs the writer: a process of its
own, so the wrapper's CPU stays its own.  Every tick it advances each
domain's `energy_uj` at IDLE_W per package, plus BUSY_W - IDLE_W for the part
of the tick between the wall-clock times the child writes into `FLAG.start`
and `FLAG.end`.  Splitting a tick at those times keeps the counters exact
when the writer is descheduled across the child's start or end.  Files are
replaced atomically and the counters never go backwards while the writer
lives, so no pair is ever dropped as a wrap.

A descheduled writer still leaves the counters stale until it runs again,
which RAPL never does.  The meter's baseline sees such a stall as missing
idle energy, so idle power is kept small next to the child's extra power.
"""

from __future__ import annotations

import argparse
import os
import signal
import time

PACKAGES = 2
IDLE_W, BUSY_W = 4.0, 36.0  # per package
MAX_RANGE_UJ = 262_143_328_850
TICK_S = 0.005  # RAPL updates about every 1 ms; coarser keeps the writer light
START_UJ = 5_000_000_000
UJ_PER_J = 1_000_000

# (directory, name file contents, share of the package power it reports)
EXTRA_DOMAINS = (("intel-rapl:{n}", "psys", 1.5), ("intel-rapl:0:0", "core", 0.6))


def package_dirs(root: str) -> list[str]:
    return [os.path.join(root, f"intel-rapl:{i}") for i in range(PACKAGES)]


def make_tree(root: str) -> list[str]:
    """Create the tree under `root`; return every directory holding a counter."""
    dirs = [(path, f"package-{i}") for i, path in enumerate(package_dirs(root))]
    for pattern, name, _ in EXTRA_DOMAINS:
        dirs.append((os.path.join(root, pattern.format(n=PACKAGES)), name))
    for path, name in dirs:
        os.makedirs(path)
        _write(os.path.join(path, "name"), name)
        _write(os.path.join(path, "max_energy_range_uj"), str(MAX_RANGE_UJ))
        _write(os.path.join(path, "energy_uj"), str(START_UJ))
    return [path for path, _ in dirs]


def _write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text + "\n")
    os.replace(tmp, path)


def _stamp(path: str) -> float | None:
    """The wall-clock time the child wrote to `path`, or None if not (yet) there."""
    try:
        with open(path) as fh:
            return float(fh.read())
    except (OSError, ValueError):  # absent, or created but not yet written
        return None


def package_joules(last: float, now: float, start: float | None, end: float | None) -> float:
    """One package's energy from `last` to `now`, busy between `start` and `end`."""
    busy_s = 0.0
    if start is not None:
        busy_s = max(0.0, min(now, end if end is not None else now) - max(last, start))
    return IDLE_W * (now - last) + (BUSY_W - IDLE_W) * busy_s


def run_writer(root: str, flag: str) -> None:
    """Advance the counters until SIGTERM."""
    counters = [os.path.join(p, "energy_uj") for p in package_dirs(root)]
    shares = [1.0] * PACKAGES
    for pattern, _, share in EXTRA_DOMAINS:
        counters.append(os.path.join(root, pattern.format(n=PACKAGES), "energy_uj"))
        shares.append(share)
    energy_j = [0.0] * len(counters)
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    last = time.time()  # the child's stamps are wall-clock times
    while not stop:
        time.sleep(TICK_S)
        now = max(time.time(), last)  # a wall-clock step back must not rewind a counter
        start = _stamp(flag + ".start")
        joules = package_joules(last, now, start, _stamp(flag + ".end") if start is not None else None)
        for i, path in enumerate(counters):
            energy_j[i] += joules * shares[i]
            _write(path, str((START_UJ + int(energy_j[i] * UJ_PER_J)) % MAX_RANGE_UJ))
        last = now


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description="Advance a synthetic powercap tree.")
    parser.add_argument("root")
    parser.add_argument("flag", help="the child writes its start and end times to FLAG.start and FLAG.end")
    args = parser.parse_args(argv)
    run_writer(args.root, args.flag)


if __name__ == "__main__":
    main()
