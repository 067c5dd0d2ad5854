"""Seeded generator of live-shaped counter traces with exact ground truth.

A trace is what `carbonrun run --trace` replays: CSV rows
`timestamp_s,domain_id,energy_uj,max_range_uj`, one row per package domain
per instant.  The generator models what a live run records:

* each domain draws a piecewise-constant power (phases of a few seconds at
  a seeded level) with a little per-interval noise;
* the counter only advances on a 1 ms update tick, as RAPL counters do
  (Khan et al., "RAPL in Action", TOMPECS 2018), so a read sees the value
  of the last tick, not of the read instant;
* intervals between reads are 0.1 s (optionally jittered), and the last
  interval is short, as the trailing read of every live run is;
* optionally, domain 0 starts close to its range limit so it wraps exactly
  once.

The ground truth is the energy the counters recorded between the first and
the last instant: the sum of consecutive integer deltas, with the wrap
bridged by the range.  It is computed from the written rows alone, so the
program under test only ever receives the CSV.

Run `python3 perfbench/gentrace.py --help` for the command-line form.
"""

from __future__ import annotations

import argparse
import json
import math
import random
from dataclasses import dataclass

MAX_RANGE_UJ = 262_143_328_850  # a real package domain's max_energy_range_uj
UPDATE_TICK_S = 0.001
INTERVAL_S = 0.1  # the CLI's default sample interval
TRAILING_SHARE = (0.05, 0.3)  # the trailing interval, as a share of INTERVAL_S
MIN_TRAILING_S = 0.003  # longer than one update tick
UJ_PER_J = 1_000_000


@dataclass(frozen=True)
class TraceSpec:
    instants: int
    domains: int = 1
    jitter: float = 0.0  # intervals are INTERVAL_S * (1 +- jitter)
    wrap: bool = False

    def __post_init__(self):
        if self.instants < 3:
            raise ValueError("a trace needs at least 3 instants")
        if self.domains < 1:
            raise ValueError("a trace needs at least one domain")
        if not 0.0 <= self.jitter < 0.9:
            raise ValueError("jitter must be in [0, 0.9)")


def domain_id(index: int) -> str:
    return f"intel-rapl:{index}"


def generate(spec: TraceSpec, seed: int) -> tuple[str, dict]:
    """Return (CSV text, ground truth) for `spec`; the same seed, the same bytes."""
    rng = random.Random(seed)
    # read times: nominal (jittered) intervals, then one short trailing one
    times = [0.0]
    for _ in range(spec.instants - 2):
        step = INTERVAL_S * (1.0 + rng.uniform(-spec.jitter, spec.jitter))
        times.append(times[-1] + step)
    trailing = INTERVAL_S * rng.uniform(*TRAILING_SHARE)
    times.append(times[-1] + max(trailing, MIN_TRAILING_S))
    times = [round(t, 6) for t in times]

    span_s = times[-1] - times[0]
    rows_by_domain = []
    for d in range(spec.domains):
        levels = _phase_levels(rng, span_s)
        energy_j = 0.0  # continuous energy at the previous read time
        seen_uj = [0]
        for i in range(1, len(times)):
            prev, now = times[i - 1], times[i]
            watts = levels(prev) * (1.0 + rng.uniform(-0.05, 0.05))
            tick = math.floor(now / UPDATE_TICK_S) * UPDATE_TICK_S
            seen_uj.append(int((energy_j + watts * (tick - prev)) * UJ_PER_J))
            energy_j += watts * (now - prev)
        start_uj = rng.randrange(10**9, 10**10)
        if spec.wrap and d == 0:
            # start so that the single wrap lands 30-60 % of the way through
            start_uj = MAX_RANGE_UJ - int(seen_uj[-1] * rng.uniform(0.3, 0.6))
        rows_by_domain.append([(start_uj + e) % MAX_RANGE_UJ for e in seen_uj])

    lines = ["timestamp_s,domain_id,energy_uj,max_range_uj"]
    for i, ts in enumerate(times):
        for d in range(spec.domains):
            lines.append(f"{ts:.6f},{domain_id(d)},{rows_by_domain[d][i]},{MAX_RANGE_UJ}")
    text = "\n".join(lines) + "\n"
    return text, ground_truth(text)


def _phase_levels(rng: random.Random, span_s: float):
    """Piecewise-constant power: phases of 1-5 s at 5-35 W."""
    bounds, levels = [], []
    t = 0.0
    while t <= span_s:
        bounds.append(t)
        levels.append(rng.uniform(5.0, 35.0))
        t += rng.uniform(1.0, 5.0)
    cursor = [0]

    def level(t: float) -> float:
        i = cursor[0]
        while i + 1 < len(bounds) and bounds[i + 1] <= t:
            i += 1
        cursor[0] = i  # times are visited in order
        return levels[i]

    return level


def ground_truth(csv_text: str) -> dict:
    """Integrate a trace's counter deltas exactly, bridging each wrap by its range."""
    last: dict[str, int] = {}
    uj: dict[str, int] = {}
    wraps = 0
    timestamps = []
    for line in csv_text.splitlines()[1:]:
        ts, dom, energy, max_range = line.split(",")
        energy, max_range = int(energy), int(max_range)
        if not timestamps or timestamps[-1] != ts:
            timestamps.append(ts)
        if dom in last:
            delta = energy - last[dom]
            if delta < 0:
                delta += max_range
                wraps += 1
            uj[dom] += delta
        else:
            uj[dom] = 0
        last[dom] = energy
    return {
        "joules": sum(uj.values()) / UJ_PER_J,
        "joules_by_domain": {dom: v / UJ_PER_J for dom, v in uj.items()},
        "instants": len(timestamps),
        "span_s": float(timestamps[-1]) - float(timestamps[0]),
        "wraps": wraps,
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--instants", type=int, required=True)
    parser.add_argument("--domains", type=int, default=1)
    parser.add_argument("--jitter", type=float, default=0.0)
    parser.add_argument("--wrap", action="store_true")
    parser.add_argument("--out", required=True, help="trace CSV to write")
    parser.add_argument("--truth", required=True, help="ground-truth JSON to write")
    args = parser.parse_args(argv)
    spec = TraceSpec(args.instants, args.domains, args.jitter, args.wrap)
    text, truth = generate(spec, args.seed)
    with open(args.out, "w") as fh:
        fh.write(text)
    with open(args.truth, "w") as fh:
        json.dump(truth, fh, indent=2)


if __name__ == "__main__":
    main()
