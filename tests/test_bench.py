import os

import pytest

from carbonrun.bench import (
    DEFAULT_UNIT_OPS,
    GuardExceeded,
    WorkloadShape,
    WorkloadSpec,
    run_workload,
)


class TestSpec:
    def test_linear_counts(self):
        assert WorkloadSpec(WorkloadShape.LINEAR, 3, unit_ops=10).total_additions() == 30

    def test_linear_zero(self):
        assert WorkloadSpec(WorkloadShape.LINEAR, 0).total_additions() == 0

    def test_quadratic_equals_linear_squared(self):
        quad = WorkloadSpec(WorkloadShape.QUADRATIC, 3, unit_ops=7)
        lin = WorkloadSpec(WorkloadShape.LINEAR, 9, unit_ops=7)
        assert quad.total_additions() == lin.total_additions()

    def test_exponential_counts(self):
        assert WorkloadSpec(WorkloadShape.EXPONENTIAL, 3, unit_ops=5).total_additions() == 40

    def test_default_unit_ops(self):
        assert WorkloadSpec(WorkloadShape.LINEAR, 1).total_additions() == DEFAULT_UNIT_OPS

    def test_exp_guard(self):
        WorkloadSpec(WorkloadShape.EXPONENTIAL, 30, unit_ops=1)  # boundary ok
        with pytest.raises(GuardExceeded):
            WorkloadSpec(WorkloadShape.EXPONENTIAL, 31)

    def test_negative_n_guard(self):
        with pytest.raises(GuardExceeded):
            WorkloadSpec(WorkloadShape.LINEAR, -1)

    def test_bad_unit_ops(self):
        with pytest.raises(GuardExceeded):
            WorkloadSpec(WorkloadShape.LINEAR, 1, unit_ops=0)


class TestRunWorkload:
    def test_checksum_reflects_addition_count(self):
        spec = WorkloadSpec(WorkloadShape.LINEAR, 4, unit_ops=1000)
        seed = os.getpid() % 1009
        assert run_workload(spec) - seed == spec.total_additions()

    def test_zero_work_returns_seed(self):
        spec = WorkloadSpec(WorkloadShape.LINEAR, 0)
        assert run_workload(spec) == os.getpid() % 1009

    def test_chunking_preserves_count(self):
        # crosses the internal chunk boundary
        spec = WorkloadSpec(WorkloadShape.LINEAR, 1, unit_ops=10_000_001)
        seed = os.getpid() % 1009
        assert run_workload(spec) - seed == 10_000_001
