import gc
import os

import pytest

import carbonrun
from carbonrun.griddata import DatasetSnapshot
from carbonrun.meter import PowerSample, pair_energy

MAX_RANGE_UJ = 262_143_328_850


def constant_trace(watts, duration_s, interval_s=1.0, domains=("pkg-0",), start_uj=0):
    """Trace CSV for a machine drawing `watts` per domain, constantly."""
    segments = [(watts, duration_s)]
    return piecewise_trace(segments, interval_s, domains=domains, start_uj=start_uj)


def piecewise_trace(segments, interval_s=1.0, domains=("pkg-0",), start_uj=0):
    """Trace CSV for piecewise-constant power: [(watts, seconds), ...]."""
    lines = []
    t = 0.0
    energy = {d: float(start_uj) for d in domains}
    for d in domains:
        lines.append(f"{t},{d},{int(energy[d])},{MAX_RANGE_UJ}")
    for watts, seconds in segments:
        steps = int(round(seconds / interval_s))
        for _ in range(steps):
            t += interval_s
            for d in domains:
                energy[d] += watts * 1_000_000 * interval_s
                lines.append(f"{t},{d},{int(energy[d])},{MAX_RANGE_UJ}")
    return "\n".join(lines) + "\n"


def short_tail_trace():
    """Trace CSV of 9 s at 10 W, then a 10 ms interval carrying 10 J: 100 J.

    Live runs always end with such a short trailing interval.  An unweighted
    mean of per-interval watts, (9 * 10 + 1000) / 10 W over 9.01 s, reads 982 J.
    """
    rows = [f"{t},pkg-0,{t * 10_000_000},{MAX_RANGE_UJ}" for t in range(10)]
    rows.append(f"9.01,pkg-0,100000000,{MAX_RANGE_UJ}")
    return "\n".join(rows) + "\n"


def power_from_readings(first, second):
    """Average power between two reads of one domain; None if it wrapped."""
    pair = pair_energy({first.domain_id: first}, {first.domain_id: second})
    if pair is None:
        return None
    joules, seconds = pair
    return PowerSample(watts=joules / seconds, interval_s=seconds)


def combine_instants(instants):
    """One power sample per kept pair of consecutive instants, the per-pair
    reference for the running integral that metering keeps instead.

    Watts are the pair's joules over its seconds (see `pair_energy`);
    dropped pairs yield no sample.
    """
    samples = []
    for prev, cur in zip(instants, instants[1:]):
        pair = pair_energy(prev, cur)
        if pair is not None:
            joules, seconds = pair
            samples.append(PowerSample(watts=joules / seconds, interval_s=seconds))
    return samples


@pytest.fixture(scope="session")
def snapshot():
    return DatasetSnapshot.load()


@pytest.fixture(scope="session", autouse=True)
def child_pythonpath():
    """Let `python -m carbonrun` children import the package under test,
    also from a checkout that is not installed."""
    package_root = os.path.dirname(os.path.dirname(carbonrun.__file__))
    paths = [package_root, os.environ.get("PYTHONPATH", "")]
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(p for p in paths if p))
        yield


@pytest.fixture(autouse=True)
def unfreeze_heap():
    """`carbonrun run` freezes the heap right before it exits; undo that after
    an in-process run so the rest of the session's garbage is still collected."""
    yield
    gc.unfreeze()
