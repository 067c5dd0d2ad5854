"""Tests of the benchmark's own helpers: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import gentrace  # noqa: E402
import powercap  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402
from carbonrun import report  # noqa: E402
from carbonrun.emissions import load_equivalency_factors  # noqa: E402
from carbonrun.griddata import DatasetSnapshot  # noqa: E402
from carbonrun.locate import resolve_location  # noqa: E402
from carbonrun.meter import MeasurementSummary, enumerate_package_domains  # noqa: E402
from carbonrun.traces import parse_trace  # noqa: E402


def integrate(instants) -> float:
    """Joules from consecutive counter deltas, a negative delta bridged by the range."""
    total_uj = 0
    for prev, cur in zip(instants, instants[1:]):
        for dom, first in prev.items():
            delta = cur[dom].energy_uj - first.energy_uj
            total_uj += delta if delta >= 0 else delta + cur[dom].max_range_uj
    return total_uj / 1e6


@pytest.mark.parametrize("spec", [
    gentrace.TraceSpec(100, 1),
    gentrace.TraceSpec(3_000, 2, jitter=0.3, wrap=True),
    gentrace.TraceSpec(500, 3, jitter=0.5),
])
def test_ground_truth_equals_direct_integration(spec):
    text, truth = gentrace.generate(spec, seed=5)
    instants = parse_trace(text)
    assert len(instants) == truth["instants"] == spec.instants
    assert truth["joules"] == pytest.approx(integrate(instants), rel=1e-12)
    assert truth["wraps"] == (1 if spec.wrap else 0)
    times = [next(iter(i.values())).timestamp for i in instants]
    assert times[-1] - times[-2] < gentrace.INTERVAL_S * (1 - spec.jitter)  # short trailing read


def test_generator_is_seeded():
    spec = gentrace.TraceSpec(200, 2, jitter=0.3, wrap=True)
    assert gentrace.generate(spec, 1) == gentrace.generate(spec, 1)
    assert gentrace.generate(spec, 1)[0] != gentrace.generate(spec, 2)[0]


def test_enumeration_finds_exactly_the_packages(tmp_path):
    root = str(tmp_path / "powercap")
    counters = powercap.make_tree(root)
    assert len(counters) == powercap.PACKAGES + 2  # the packages, psys, a core subdomain
    assert enumerate_package_domains(root) == powercap.package_dirs(root)


def test_writer_advances_counters_atomically(tmp_path):
    root = str(tmp_path / "powercap")
    powercap.make_tree(root)
    flag = str(tmp_path / "busy")
    counter = Path(root, "intel-rapl:0", "energy_uj")
    writer = subprocess.Popen([sys.executable, str(BENCH_DIR / "powercap.py"), root, flag])
    try:
        readings = []
        deadline = time.monotonic() + 0.6
        while time.monotonic() < deadline:
            readings.append(int(counter.read_text()))  # never a partial file
            if len(readings) == 50:
                Path(flag + ".start").write_text(f"{time.time()}\n")
    finally:
        writer.terminate()
        writer.wait(timeout=10)
    assert writer.returncode is not None
    assert readings == sorted(readings) and readings[-1] > readings[0]


def test_writer_splits_a_tick_at_the_child_start_and_end():
    idle, extra = powercap.IDLE_W, powercap.BUSY_W - powercap.IDLE_W
    assert powercap.package_joules(10.0, 12.0, None, None) == 2 * idle
    assert powercap.package_joules(10.0, 12.0, 11.5, None) == 2 * idle + 0.5 * extra
    assert powercap.package_joules(10.0, 12.0, 9.0, 10.25) == 2 * idle + 0.25 * extra
    assert powercap.package_joules(10.0, 12.0, 8.0, 9.0) == 2 * idle


def test_self_times_subtract_child_spans():
    spans = [{"name": "a", "start": 0.0, "end": 10.0, "parent": None},
             {"name": "b", "start": 1.0, "end": 4.0, "parent": 0},
             {"name": "c", "start": 2.0, "end": 3.0, "parent": 1},
             {"name": "b", "start": 5.0, "end": 6.0, "parent": 0}]
    assert traced.self_times(spans) == {"a": 6.0, "b": 3.0, "c": 1.0}


@pytest.fixture(scope="module")
def document():
    snapshot = DatasetSnapshot.load()
    resolution = resolve_location(snapshot, explicit="de", offline=True, environ={})
    summary = MeasurementSummary(2.0, 12.0, 10.0, 36.0, 1e-4, 1.25e-4, 0.8)
    return report.build_report(summary, resolution, snapshot, load_equivalency_factors(),
                               command="bash", arguments=("child.sh",))


def test_good_reports_pass(document):
    assert run.check_report("json", report.render_json(document), "de") == 1e-4
    text = report.render_text(document).encode()
    assert run.check_report("text", text, "de") == pytest.approx(1e-4, rel=0.01)
    html = report.render_html(document)
    assert run.check_report("html", html, "de") == pytest.approx(1e-4, rel=0.01)


@pytest.mark.parametrize("fmt, mangle", [
    ("json", lambda b: b),  # priced elsewhere than requested
    ("text", lambda b: b.replace(b"Emission Comparisons", b"Comparisons")),
    ("html", lambda b: b.replace(b"</head>", b"<link rel='stylesheet' href='x.css'></head>")),
    ("html", lambda b: b.replace(b"<footer>", b"<footer><img src='https://x/y.png'>")),
])
def test_bad_reports_fail(document, fmt, mangle):
    payload = {"json": report.render_json, "html": report.render_html,
               "text": lambda d: report.render_text(d).encode()}[fmt](document)
    region = "fr" if fmt == "json" else "de"
    with pytest.raises(run.CheckFailed):
        run.check_report(fmt, mangle(payload), region)


def test_contract_file_is_well_formed():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert [w["name"] for w in contract["workloads"]] == list(run.WORKLOADS)
    assert list(run.TINY) == list(run.WORKLOADS)
    setup = next(m for m in contract["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"]) <= 0.25


def test_smoke_runs_every_workload_in_both_modes():
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1]) == {"smoke": "pass"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "startup",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=60, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": ""})
    assert proc.returncode != 0
    assert not proc.stdout.strip()
