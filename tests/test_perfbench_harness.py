"""The benchmark harness in `perfbench/` runs the package in-process and binds
names in `carbonrun.cli` (`perfbench/traced.py`).  Its own tests are not part
of this suite, so a change to the package that breaks those names would go
unseen; one tiny per-layer run of each workload catches that.  The
live-meter run also drives `perfbench/live_driver.py`'s source, which counts
its reads, and `traced.py`'s session subclass over a synthetic counter tree
written by a helper process."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN_PY = Path(__file__).parent.parent / "perfbench" / "run.py"
# A process's peak RSS (ru_maxrss) starts at its spawner's peak, and the
# harness checks that the wrapper's is above its own.  This test's process
# peaks above the wrapper, so the harness runs as the child of a launcher,
# whose own small peak is what it starts from.
LAUNCHER = [sys.executable, "-S", "-c",
            "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"]


@pytest.mark.parametrize("workload", ["startup", "long-trace", "live-meter"])
def test_tiny_per_layer_run_is_correct(workload):
    proc = subprocess.run(
        [*LAUNCHER, sys.executable, str(RUN_PY), "--workload", workload, "--tiny",
         "--trace", "1", "--seconds", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
