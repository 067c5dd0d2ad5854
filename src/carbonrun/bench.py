"""Synthetic CPU workloads with known complexity, for meter validation.

Each workload is a busy loop of integer additions: `n` work units for the
linear shape, `n^2` for quadratic, `2^n` for exponential, at 50 million
additions per unit by default.  Known shapes make it possible to check that
measured energy grows with work actually done.

`python -m carbonrun.bench SHAPE N UNIT_OPS` runs one workload and prints
its checksum.  `carbonrun bench` measures that child, which loads neither
the CLI nor its imports.
"""

from __future__ import annotations

import os
import sys
from enum import Enum
from typing import NamedTuple

from .records import Checked

DEFAULT_UNIT_OPS = 50_000_000

# 2^31 work units would run for years; refuse early instead of wedging a host.
EXP_MAX_N = 30

_CHUNK = 10_000_000


class GuardExceeded(Exception):
    """Workload size is outside the allowed range."""


class WorkloadShape(Enum):
    LINEAR = "linear"
    QUADRATIC = "quadratic"
    EXPONENTIAL = "exp"


class _Spec(NamedTuple):
    shape: WorkloadShape
    n: int
    unit_ops: int = DEFAULT_UNIT_OPS


class WorkloadSpec(Checked, _Spec):
    __slots__ = ()

    def _check(self):
        if self.n < 0:
            raise GuardExceeded(f"workload size must be non-negative, got {self.n}")
        if self.shape is WorkloadShape.EXPONENTIAL and self.n > EXP_MAX_N:
            raise GuardExceeded(
                f"exp workloads are capped at n={EXP_MAX_N} (2^{self.n} units "
                "would never finish)"
            )
        if self.unit_ops <= 0:
            raise GuardExceeded(f"unit_ops must be positive, got {self.unit_ops}")

    def total_additions(self) -> int:
        if self.shape is WorkloadShape.LINEAR:
            units = self.n
        elif self.shape is WorkloadShape.QUADRATIC:
            units = self.n * self.n
        else:
            units = 2**self.n
        return units * self.unit_ops


def run_workload(spec: WorkloadSpec) -> int:
    """Perform the workload's additions and return a checksum.

    The accumulator is seeded from the process id and returned so the loop
    has an observable result and cannot be optimized away.
    """
    acc = os.getpid() % 1009
    remaining = spec.total_additions()
    while remaining > 0:
        chunk = min(remaining, _CHUNK)
        for _ in range(chunk):
            acc += 1
        remaining -= chunk
    return acc


if __name__ == "__main__":
    try:
        shape, n, unit_ops = sys.argv[1:]
        spec = WorkloadSpec(WorkloadShape(shape), int(n), int(unit_ops))
    except (ValueError, GuardExceeded) as exc:
        print(f"carbonrun: error: {exc}", file=sys.stderr)
        sys.exit(2)
    print(f"checksum {run_workload(spec)}")
