import csv
import functools
import gc
import importlib
import json
import os
import random
import re
import runpy
import signal
import subprocess
import sys
import time

import pytest

from carbonrun import cli, emissions, griddata, meter, report, traces

from conftest import constant_trace, short_tail_trace
from test_griddata import uniform_generation_us_text
from test_meter import make_package_tree
from test_traces import MALFORMED_TRACES, NON_FINITE_ENERGY_TRACES, NON_UTF8_TRACE

CLI = [sys.executable, "-m", "carbonrun"]
# `cli.main` as a program of its own, ending in a full interpreter shutdown
MAIN = [sys.executable, "-c", "from carbonrun.cli import main; main()"]
# the child `carbonrun bench` measures
BENCH_CHILD = [sys.executable, "-m", "carbonrun.bench"]
PYPROJECT = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
REGIONS_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "regions.txt")


def run_cli(*args, env_extra=None, timeout=60, entry=CLI, text=True):
    env = dict(os.environ)
    env.pop("ENERGYUSAGE_REGION", None)
    # stdout into a pipe is block-buffered, as it is for most users
    env.pop("PYTHONUNBUFFERED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [*entry, *args], capture_output=True, text=text, env=env, timeout=timeout
    )


@pytest.fixture()
def trace_file(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(constant_trace(10.0, 30))
    return str(path)


def measured_run(trace_file, *extra, child=("true",), fmt="json"):
    return run_cli(
        "run", "--trace", trace_file, "--offline", "--format", fmt,
        "--report-to", "stdout", *extra, "--", *child,
    )


def jittered_wrap_trace():
    """Two domains, 12 W and 3 W, over 200 instants about 0.1 s apart with up
    to 20 ms of jitter each; pkg-1 starts 20 J below its range and wraps once."""
    rng = random.Random(15)
    max_range = 1_000_000_000
    t, counters = 0.0, [7_000_000, max_range - 20_000_000]
    rows = []
    for _ in range(200):
        rows += [f"{t!r},pkg-{d},{c},{max_range}" for d, c in enumerate(counters)]
        dt = 0.1 + rng.uniform(-0.02, 0.02)
        t += dt
        counters = [(c + int(w * dt * 1_000_000)) % max_range
                    for c, w in zip(counters, (12.0, 3.0))]
    return "\n".join(rows) + "\n"


def latin1_data_file(tmp_path, name):
    """The packaged data file `name` with its first data row's second field
    starting with an e-acute saved in Latin-1, as in a name like "Curaçao"."""
    header, first, rest = griddata.read_data(None, name).split("\n", 2)
    path = tmp_path / name
    text = "\n".join([header, first.replace(",", ",\xe9", 1), rest])
    path.write_bytes(text.encode("latin-1"))
    return str(path)


def oversized_field_data_file(tmp_path, name):
    """The packaged data file `name` with a 200,000-character field, above
    `csv.field_size_limit()`, on line 2."""
    header, first, rest = griddata.read_data(None, name).split("\n", 2)
    path = tmp_path / name
    path.write_text("\n".join([header, first.replace(",", "," + "x" * 200_000, 1), rest]))
    return str(path)


def closed_entry(redirect, entry=CLI):
    """`entry` started with a standard descriptor closed (`>&-` or `2>&-`)."""
    return ("sh", "-c", f'exec "$@" {redirect}', "sh", *entry)


def no_europe_data_file(tmp_path):
    """A country snapshot whose only country is outside Europe."""
    path = tmp_path / "no-europe.csv"
    path.write_text(",".join(griddata.EIA_HEADER) + "\nzz,Testland,false,0.5,0.1,0.2,0.2\n")
    return str(path)


class TestExitCodes:
    def test_child_success(self, trace_file):
        assert measured_run(trace_file).returncode == 0

    def test_child_failure_propagates(self, trace_file):
        proc = measured_run(trace_file, child=("false",))
        assert proc.returncode == 1

    def test_specific_child_code(self, trace_file):
        proc = measured_run(
            trace_file, child=(sys.executable, "-c", "raise SystemExit(42)")
        )
        assert proc.returncode == 42

    def test_spawn_failure_127(self, trace_file):
        proc = measured_run(trace_file, child=("/no/such/binary-xyz",))
        assert proc.returncode == 127
        assert "cannot run" in proc.stderr

    def test_no_powercap_without_trace(self):
        if os.path.isdir("/sys/class/powercap/intel-rapl"):
            pytest.skip("host has powercap; the error path needs it absent")
        proc = run_cli("run", "--offline", "--", "true")
        assert proc.returncode == 2
        assert "--trace" in proc.stderr

    def test_missing_command_usage_error(self, trace_file):
        proc = run_cli("run", "--trace", trace_file, "--offline")
        assert proc.returncode == 2

    def test_unknown_location(self, trace_file):
        proc = run_cli(
            "run", "--trace", trace_file, "--offline",
            "--location", "wioming", "--", "true",
        )
        assert proc.returncode == 2
        assert "did you mean" in proc.stderr.lower()

    def test_bad_efficiency(self, trace_file):
        proc = run_cli(
            "run", "--trace", trace_file, "--offline",
            "--efficiency", "1.5", "--", "true",
        )
        assert proc.returncode == 2

    def test_interrupt_before_the_child_exits_1(self, trace_file, monkeypatch, capsys):
        def interrupted(*args):
            raise KeyboardInterrupt
        monkeypatch.setattr(cli, "collect_baseline", interrupted)
        with pytest.raises(SystemExit) as exited:
            cli.main(["run", "--trace", trace_file, "--offline", "--", "true"])
        assert exited.value.code == 1
        assert capsys.readouterr().err == "\nAborted!\n"

    def test_every_pair_dropped_names_the_fall(self, tmp_path):
        trace = tmp_path / "fall.csv"
        trace.write_text("0,pkg-0,500,1000\n1,pkg-0,100,1000\n")
        proc = measured_run(str(trace), child=("sh", "-c", "exit 3"))
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == (
            "carbonrun: error: every counter pair (1) was dropped: a counter fell "
            "between reads (wrap or reset); nothing to report\n"
        )

    @pytest.mark.parametrize(
        "payload", [text.encode() for text in MALFORMED_TRACES] + [NON_UTF8_TRACE]
    )
    def test_bad_trace_exits_2_before_child(self, tmp_path, payload):
        trace = tmp_path / "bad.csv"
        trace.write_bytes(payload)
        marker = tmp_path / "child-ran"
        proc = run_cli(
            "run", "--trace", str(trace), "--offline", "--", "touch", str(marker),
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("carbonrun: error: ")
        assert "Traceback" not in proc.stderr
        assert not marker.exists()

    @pytest.mark.parametrize("fmt", ["text", "json", "html"])
    @pytest.mark.parametrize("text,message", NON_FINITE_ENERGY_TRACES)
    def test_a_trace_beyond_a_float_exits_2_before_child(self, tmp_path, fmt, text, message):
        trace = tmp_path / "huge.csv"
        trace.write_text(text)
        marker = tmp_path / "child-ran"
        proc = run_cli("run", "--trace", str(trace), "--offline", "--format", fmt,
                       "--", "touch", str(marker))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"carbonrun: error: {message}\n"
        assert not marker.exists()

    @pytest.mark.parametrize("flag,name", [
        ("--us-data", griddata.US_DATA_FILE),
        ("--intl-data", griddata.INTL_DATA_FILE),
        ("--equivalencies", emissions.EQUIV_DATA_FILE),
    ])
    def test_non_utf8_data_file_exits_2_before_child(self, trace_file, tmp_path, flag, name):
        data = latin1_data_file(tmp_path, name)
        marker = tmp_path / "child-ran"
        proc = measured_run(trace_file, flag, data, child=("touch", str(marker)))
        assert proc.returncode == 2
        assert proc.stderr == (
            f"carbonrun: error: {data} is not UTF-8 text: invalid continuation byte\n")
        assert not marker.exists()

    @pytest.mark.parametrize("flag,name", [
        ("--us-data", griddata.US_DATA_FILE),
        ("--intl-data", griddata.INTL_DATA_FILE),
        ("--equivalencies", emissions.EQUIV_DATA_FILE),
    ])
    def test_oversized_field_in_data_file_exits_2_before_child(
            self, trace_file, tmp_path, flag, name):
        data = oversized_field_data_file(tmp_path, name)
        marker = tmp_path / "child-ran"
        proc = measured_run(trace_file, flag, data, child=("touch", str(marker)))
        assert proc.returncode == 2
        assert proc.stderr == (
            f"carbonrun: error: line 2: field larger than field limit ({csv.field_size_limit()})\n")
        assert not marker.exists()

    # the equivalency table is read by the grid snapshots' rule
    @pytest.mark.parametrize("header,line", [
        ("value,key,unit,source", None),
        ("key,value,unit,source,note", None),
        ("key,value,unit,source", "kg_per_km,0.25,kg CO2 per km,x\nKG_PER_KM,0.3,u,s\n"),
    ], ids=["reordered", "extra-column", "repeated-key"])
    def test_equivalency_table_by_the_grid_rule_exits_2_before_child(
            self, trace_file, tmp_path, header, line):
        text = griddata.read_data(None, emissions.EQUIV_DATA_FILE)
        factors, marker = tmp_path / "factors.csv", tmp_path / "child-ran"
        factors.write_text(text.replace("key,value,unit,source", header, 1) + (line or ""))
        proc = measured_run(trace_file, "--equivalencies", str(factors),
                            child=("touch", str(marker)))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "carbonrun: error: " + (
            f"bad header: expected key,value,unit,source, got {header}\n" if line is None
            else "line 6: duplicate equivalency key 'kg_per_km'\n")
        assert not marker.exists()

    @pytest.mark.parametrize("flag", ["--sample-interval", "--baseline-duration"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_wait_exits_2_before_child(self, tmp_path, flag, value):
        marker = tmp_path / "child-ran"
        proc = run_cli("run", "--offline", flag, value, "--", "touch", str(marker))
        assert proc.returncode == 2
        assert proc.stderr.startswith("carbonrun: error: ")
        assert "must be between" in proc.stderr
        assert not marker.exists()

    @pytest.mark.parametrize("skip", ["--trace", "--no-baseline"])
    def test_negative_baseline_duration_exits_2_whatever_skips_the_baseline(
            self, trace_file, tmp_path, skip):
        # a replay and --no-baseline take no baseline, but the value is still checked
        marker = tmp_path / "child-ran"
        flags = (skip, trace_file) if skip == "--trace" else (skip,)
        proc = run_cli("run", "--offline", *flags, "--baseline-duration", "-1",
                       "--", "touch", str(marker))
        assert proc.returncode == 2
        assert proc.stderr.startswith("carbonrun: error: baseline duration must be between")
        assert not marker.exists()

    def test_empty_region_group_exits_2_before_child(self, trace_file, tmp_path):
        marker = tmp_path / "child-ran"
        proc = measured_run(trace_file, "--intl-data", no_europe_data_file(tmp_path),
                            child=("sh", "-c", f"touch '{marker}'"))
        assert proc.returncode == 2
        assert proc.stderr == "carbonrun: error: no regions in group 'europe'\n"
        assert not marker.exists()

    def test_us_data_with_no_fossil_generation_exits_2_before_child(self, trace_file, tmp_path):
        us_data, marker = tmp_path / "no-fossil.csv", tmp_path / "child-ran"
        us_data.write_text(uniform_generation_us_text(0.0))
        proc = measured_run(trace_file, "--us-data", str(us_data),
                            "--default-region", "us", child=("touch", str(marker)))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            "carbonrun: error: no US state reports fossil generation "
            "to weight the US average by\n")
        assert not marker.exists()

    def test_us_data_whose_weighted_sums_overflow_exits_2_before_child(
            self, trace_file, tmp_path):
        # 1e308 MWh per fuel in every state: each value finite, their sums not
        us_data, marker = tmp_path / "overflow.csv", tmp_path / "child-ran"
        us_data.write_text(uniform_generation_us_text(1e308))
        message = ("carbonrun: error: the US states' generation is too large "
                   "to weight the US average by\n")
        proc = measured_run(trace_file, "--us-data", str(us_data),
                            "--default-region", "us", child=("touch", str(marker)))
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)
        assert not marker.exists()
        proc = run_cli("regions", "--us-data", str(us_data))
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)

    def test_defect_on_the_last_line_of_a_long_trace_exits_2_before_child(self, tmp_path):
        # the whole file is read before the child starts, however many chunks
        # it is read in: the child must not run
        lines = constant_trace(10.0, 20_000).splitlines()
        lines[-1] = lines[-1].replace(",pkg-0,", ",pkg-0,x", 1)
        text = "\n".join(lines) + "\n"
        assert len(text) > 8 * traces._CHUNK_CHARS
        trace = tmp_path / "bad-end.csv"
        trace.write_text(text)
        marker = tmp_path / "child-ran"
        proc = run_cli(
            "run", "--trace", str(trace), "--offline", "--", "touch", str(marker),
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"carbonrun: error: line {len(lines)}: invalid literal")
        assert not marker.exists()


class TestStdioTransparency:
    def test_child_stdout_untouched(self, trace_file):
        proc = run_cli(
            "run", "--trace", trace_file, "--offline", "--", "echo", "payload",
        )
        assert proc.stdout == "payload\n"
        assert "Energy Usage Report" in proc.stderr

    def test_report_to_stdout_flag(self, trace_file):
        proc = run_cli(
            "run", "--trace", trace_file, "--offline", "--report-to", "stdout",
            "--", "true",
        )
        assert "Energy Usage Report" in proc.stdout

    def test_out_file(self, trace_file, tmp_path):
        out = tmp_path / "report.html"
        proc = run_cli(
            "run", "--trace", trace_file, "--offline", "--format", "html",
            "--out", str(out), "--", "true",
        )
        assert proc.returncode == 0
        assert out.read_bytes().startswith(b"<!DOCTYPE html>")

    @pytest.mark.parametrize("parent", ["missing", "a-file"])
    def test_out_outside_a_directory_exits_2_before_child(self, trace_file, tmp_path, parent):
        (tmp_path / "a-file").write_text("")
        out = tmp_path / parent / "report.txt"
        marker = tmp_path / "child-ran"
        proc = run_cli("run", "--trace", trace_file, "--offline", "--out", str(out),
                       "--", "touch", str(marker))
        assert proc.returncode == 2
        assert f"the directory of file {str(out)!r} does not exist" in proc.stderr
        assert not marker.exists()

    # a file that is not writable is refused too, but not for root, which
    # `os.access` lets write any file
    @pytest.mark.parametrize("flag,name,problem", [
        ("--trace", "missing.csv", "does not exist"),
        ("--trace", "folder", "is a directory"),
        ("--us-data", "missing.csv", "does not exist"),
        ("--out", "folder", "is a directory"),
    ])
    def test_a_missing_file_or_a_directory_exits_2_before_child(
            self, trace_file, tmp_path, flag, name, problem):
        (tmp_path / "folder").mkdir()
        path = str(tmp_path / name)
        files = {"--trace": trace_file, flag: path}
        proc = run_cli("run", "--offline", *[a for item in files.items() for a in item],
                       "--", "echo", "the child ran")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.endswith(
            f"\ncarbonrun run: error: argument {flag}: file {path!r} {problem}\n")

    def test_empty_out_exits_2_before_child(self, trace_file, tmp_path):
        marker = tmp_path / "child-ran"
        proc = run_cli("run", "--trace", trace_file, "--offline", "--out", "",
                       "--", "touch", str(marker))
        assert proc.returncode == 2
        assert "argument --out: the report file name is empty" in proc.stderr
        assert "Energy Usage Report" not in proc.stderr
        assert not marker.exists()

    @pytest.mark.parametrize("fmt", ["text", "json", "html"])
    @pytest.mark.parametrize("overflow", ["tv_minute_factor", "efficiency"])
    def test_a_figure_beyond_a_float_writes_no_report(self, tmp_path, fmt, overflow):
        # each input is finite and accepted, but a derived figure is not finite
        trace, out = tmp_path / "trace.csv", tmp_path / "report"
        if overflow == "tv_minute_factor":  # 0.1 kJ at 1e-320 kg CO2 per TV minute
            factors = tmp_path / "factors.csv"
            factors.write_text(emissions.read_data(None, emissions.EQUIV_DATA_FILE).replace(
                "kg_per_tv_minute,0.0016182,", "kg_per_tv_minute,1e-320,"))
            trace.write_text("0,pkg,0,1000000000000\n1,pkg,100000000,1000000000000\n")
            flags = ("--equivalencies", str(factors), "--location", "us-wy")
        else:  # 3.6 kJ from a supply 3e-310 efficient
            trace.write_text("0,pkg,0,1000000000000\n1,pkg,3600000000,1000000000000\n")
            flags = ("--efficiency", "3e-310")
        proc = run_cli("run", "--trace", str(trace), "--offline", "--format", fmt,
                       "--out", str(out), *flags, "--", "sh", "-c", "exit 3")
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == (
            "carbonrun: error: the report's tv_minutes is inf, not a finite number; "
            "nothing to report\n")
        assert not out.exists()

    def test_unwritable_report_keeps_the_child_exit_code(self, trace_file, tmp_path):
        folder = tmp_path / "gone"
        folder.mkdir()
        out = folder / "report.txt"
        proc = run_cli("run", "--trace", trace_file, "--offline", "--out", str(out),
                       "--", "sh", "-c", f"rmdir '{folder}'; exit 3")
        assert proc.returncode == 3
        assert proc.stderr.startswith("carbonrun: error: cannot write report: ")
        assert "Traceback" not in proc.stderr


class TestMeasurement:
    def test_json_report_values(self, trace_file):
        proc = measured_run(trace_file, "--location", "wyoming")
        doc = json.loads(proc.stdout)
        # 10 W for 30 s = 300 J at the counter
        assert doc["readings"]["total_watts"] == pytest.approx(10.0)
        assert doc["readings"]["measured_kwh"] == pytest.approx(300 / 3.6e6, rel=1e-9)
        assert doc["readings"]["adjusted_kwh"] == pytest.approx(
            doc["readings"]["measured_kwh"] * 1.25, rel=1e-12
        )
        assert doc["resolution"]["method"] == "explicit"
        assert doc["mix"]["region_id"] == "us-wy"

    def test_short_trailing_interval_is_time_weighted(self, tmp_path):
        trace = tmp_path / "tail.csv"
        trace.write_text(short_tail_trace())
        proc = measured_run(str(trace), "--efficiency", "1.0")
        doc = json.loads(proc.stdout)
        assert doc["readings"]["measured_kwh"] == pytest.approx(100 / 3.6e6, rel=1e-9)

    def test_replayed_readings_are_pinned(self, tmp_path):
        # 198 kept pairs and one dropped for the wrap; every field exactly as
        # a replay of this trace has always reported it
        trace = tmp_path / "jittered.csv"
        trace.write_text(jittered_wrap_trace())
        proc = measured_run(str(trace), "--efficiency", "0.8")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["readings"] == {
            "adjusted_kwh": 0.00010434253752251895,
            "baseline_watts": 0.0,
            "duration_s": 20.033780938016196,
            "measured_kwh": 8.347403001801517e-05,
            "negative_clamped": False,
            "process_watts": 14.999989717098886,
            "psu_efficiency": 0.8,
            "total_watts": 14.999989717098886,
        }

    def test_gpu_has_no_effect_on_a_replay(self, trace_file, tmp_path, monkeypatch):
        # a trace records no GPU column, so `--gpu` changes neither the
        # report nor the exit code, even with a GPU to poll
        stub = tmp_path / "bin" / "nvidia-smi"
        stub.parent.mkdir()
        stub.write_text("#!/bin/sh\necho 50\n")
        stub.chmod(0o755)
        monkeypatch.setenv("PATH", f"{stub.parent}{os.pathsep}{os.environ['PATH']}")
        assert meter.read_gpu_power() == 50.0
        monkeypatch.setattr(cli, "build_report", functools.partial(
            cli.build_report, generated_at="2019-11-20T00:00:00Z"))

        def run(*flags):
            out = tmp_path / f"report{len(flags)}.json"
            with pytest.raises(SystemExit) as exited:
                cli.main(["run", "--trace", trace_file, "--offline", "--format", "json",
                          "--out", str(out), *flags, "--", "sh", "-c", "exit 3"])
            return exited.value.code, out.read_bytes()

        assert run("--gpu") == run()

    def test_env_var_region(self, trace_file):
        proc = run_cli(
            "run", "--trace", trace_file, "--format", "json",
            "--report-to", "stdout", "--", "true",
            env_extra={"ENERGYUSAGE_REGION": "germany"},
        )
        doc = json.loads(proc.stdout)
        assert doc["resolution"]["method"] == "environment"
        assert doc["mix"]["region_id"] == "de"

    def test_offline_defaults_to_world(self, trace_file):
        doc = json.loads(measured_run(trace_file).stdout)
        assert doc["resolution"]["method"] == "default_fallback"
        assert doc["mix"]["region_id"] == "world-average"

    def test_default_region_choice(self, trace_file):
        proc = measured_run(trace_file, "--default-region", "europe")
        doc = json.loads(proc.stdout)
        assert doc["mix"]["region_id"] == "europe-average"

    def test_efficiency_flag(self, trace_file):
        proc = measured_run(trace_file, "--efficiency", "1.0")
        doc = json.loads(proc.stdout)
        assert doc["readings"]["adjusted_kwh"] == doc["readings"]["measured_kwh"]

    def test_interrupt_forwarded_with_partial_report(self, trace_file):
        env = dict(os.environ)
        env.pop("ENERGYUSAGE_REGION", None)
        proc = subprocess.Popen(
            [*CLI, "run", "--trace", trace_file, "--offline", "--",
             sys.executable, "-c", "import time; time.sleep(30)"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        time.sleep(1.5)
        proc.send_signal(signal.SIGINT)
        stdout, stderr = proc.communicate(timeout=15)
        assert proc.returncode != 0  # child died by signal, not success
        assert "Energy Usage Report" in stderr

    @pytest.mark.parametrize("sig", [signal.SIGHUP, signal.SIGQUIT], ids=lambda s: s.name)
    def test_hangup_and_quit_forwarded_with_partial_report(self, trace_file, tmp_path, sig):
        started = tmp_path / "child-started"
        # the child takes the signal's default action (no core file), even
        # where the test runner ignores SIGHUP
        child = (
            "import pathlib, resource, signal, sys, time; "
            "resource.setrlimit(resource.RLIMIT_CORE, (0, 0)); "
            f"signal.signal({int(sig)}, signal.SIG_DFL); "
            "pathlib.Path(sys.argv[1]).touch(); time.sleep(30)"
        )
        env = dict(os.environ)
        env.pop("ENERGYUSAGE_REGION", None)
        proc = subprocess.Popen(
            [*CLI, "run", "--trace", trace_file, "--offline", "--",
             sys.executable, "-c", child, str(started)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        deadline = time.monotonic() + 15
        while not started.exists() and time.monotonic() < deadline:
            time.sleep(0.05)
        time.sleep(0.2)
        proc.send_signal(sig)
        stdout, stderr = proc.communicate(timeout=15)
        assert proc.returncode == 128 + sig
        assert "Energy Usage Report" in stderr

    def test_interrupt_during_the_first_read_goes_to_the_child(
            self, tmp_path, monkeypatch, capsys):
        root, _ = make_package_tree(tmp_path)

        class InterruptedSource(meter.PowercapSource):
            reads = 0

            def next_instant(self):
                self.reads += 1
                if self.reads == 1:
                    os.kill(os.getpid(), signal.SIGINT)
                return super().next_instant()

        def reached_the_wrapper(signum, frame):
            raise AssertionError("SIGINT reached the wrapper, not the child")

        monkeypatch.setattr(cli, "PowercapSource", lambda: InterruptedSource(str(root)))
        previous = signal.signal(signal.SIGINT, reached_the_wrapper)
        try:
            options = cli._parser("carbonrun").parse_args(
                ["run", "--offline", "--no-baseline", "--sample-interval", "0.05",
                 "sleep", "5"])
            started = time.monotonic()
            code, _ = cli.run_measured(options.command, options)
        finally:
            signal.signal(signal.SIGINT, previous)
        assert code == 128 + signal.SIGINT
        assert time.monotonic() - started < 4.0

    def test_a_live_run_that_keeps_no_pair_says_why(self, monkeypatch, capsys):
        # a clock that never advances: every read after the first is
        # skipped, so the run keeps no pair and spans 0 s
        class Stopped:
            virtual_time = False

            def next_instant(self):
                return 1.0, [0]

        monkeypatch.setattr(cli, "PowercapSource", Stopped)
        options = cli._parser("carbonrun").parse_args(
            ["run", "--offline", "--no-baseline", "sh", "-c", "exit 3"])
        assert cli.run_measured(options.command, options) == (3, None)
        assert capsys.readouterr().err == (
            "carbonrun: error: process exited before one full sampling interval; "
            "nothing to report (try a smaller --sample-interval)\n")

    def test_terminate_forwarded_while_sampling_a_live_run(self, tmp_path):
        root, _ = make_package_tree(tmp_path)
        started = tmp_path / "child-started"
        # `carbonrun.cli` bound to a synthetic powercap tree
        wrapper = ("import sys; from carbonrun import cli, meter; "
                   "cli.PowercapSource = lambda: meter.PowercapSource(sys.argv[1]); "
                   "cli.main(sys.argv[2:])")
        env = dict(os.environ)
        env.pop("ENERGYUSAGE_REGION", None)
        proc = subprocess.Popen(
            [sys.executable, "-c", wrapper, str(root), "run", "--offline", "--no-baseline",
             "--sample-interval", "0.05", "--", "sh", "-c", 'touch "$0"; exec sleep 30',
             str(started)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        deadline = time.monotonic() + 15
        while not started.exists() and time.monotonic() < deadline:
            time.sleep(0.05)
        time.sleep(0.2)  # the wrapper waits in `poll` between reads
        proc.send_signal(signal.SIGTERM)
        stdout, stderr = proc.communicate(timeout=15)
        assert proc.returncode == 128 + signal.SIGTERM
        assert "Energy Usage Report" in stderr


class TestChildCommandLine:
    @pytest.mark.parametrize("separator", [("--",), ()])
    def test_every_argument_from_the_command_word_on_reaches_the_child(
            self, trace_file, separator):
        child_args = ["a", "--", "b", "--format", "json", "--offline", "--help"]
        proc = run_cli(
            "run", "--trace", trace_file, "--offline", *separator,
            sys.executable, "-c", "import json, sys; print(json.dumps(sys.argv[1:]))",
            *child_args,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == child_args
        assert "Energy Usage Report" in proc.stderr  # a text report: --format stayed the child's

    @pytest.mark.parametrize("fmt", ["text", "json", "html"])
    def test_an_argument_that_is_not_utf8_shows_as_an_escape(self, trace_file, fmt):
        proc = run_cli("run", "--trace", trace_file, "--offline", "--format", fmt,
                       "--report-to", "stdout", "--", "sh", "-c", "exit 3", b"a\xffb",
                       text=False)
        assert (proc.returncode, proc.stderr) == (3, b"")
        if fmt == "json":  # JSON keeps the argument as Python reads it, and gives it back
            doc = report.parse_report_json(proc.stdout)
            assert doc.header.arguments == ("-c", "exit 3", "a\udcffb")
            assert report.render_json(doc) == proc.stdout
        else:  # valid UTF-8, with the byte spelled out
            assert "sh -c exit 3 a\\xffb" in proc.stdout.decode("utf-8")


class TestChildStart:
    def test_sigpipe_and_sigxfsz_start_at_their_defaults(self, trace_file):
        # Python ignores both for itself; the child must not inherit that.
        # Only these two bits: a libc may leave its own internal signals ignored.
        proc = run_cli("run", "--trace", trace_file, "--offline", "--",
                       "grep", "SigIgn", "/proc/self/status")
        assert proc.returncode == 0, proc.stderr
        ignored = int(proc.stdout.split()[1], 16)
        assert ignored & (1 << (signal.SIGPIPE - 1)) == 0
        assert ignored & (1 << (signal.SIGXFSZ - 1)) == 0

    def test_inherited_descriptors_reach_the_child(self, trace_file):
        # as under `time`: a descriptor handed to carbonrun, such as make's
        # jobserver pipe, is open in the child too
        read_end, write_end = os.pipe()
        with open(read_end, "rb") as reader:
            try:
                proc = subprocess.run(
                    [*CLI, "run", "--trace", trace_file, "--offline", "--", sys.executable,
                     "-c", "import os, sys; os.write(int(sys.argv[1]), b'reached')",
                     str(write_end)],
                    capture_output=True, text=True, timeout=60, pass_fds=(write_end,),
                    env={k: v for k, v in os.environ.items() if k != "ENERGYUSAGE_REGION"})
            finally:
                os.close(write_end)
            assert proc.returncode == 0, proc.stderr
            assert reader.read() == b"reached"

    def test_an_ignored_sigchld_loses_neither_the_child_nor_its_code(self, trace_file):
        # an ignored SIGCHLD survives exec: the child would be reaped unasked
        proc = subprocess.run(
            [*CLI, "run", "--offline", "--location", "de", "--trace", trace_file, "--",
             "sh", "-c", "grep SigIgn /proc/self/status; exit 3"],
            capture_output=True, text=True, timeout=60,
            preexec_fn=lambda: signal.signal(signal.SIGCHLD, signal.SIG_IGN))
        assert proc.returncode == 3, proc.stderr
        assert "Energy Usage Report" in proc.stderr
        assert int(proc.stdout.split()[1], 16) & (1 << (signal.SIGCHLD - 1)) == 0


class TestDependencies:
    def test_import_loads_no_third_party_package(self):
        third_party = ["requests", "urllib3", "charset_normalizer", "idna", "click"]
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, carbonrun.cli; "
             f"print(sorted(set({third_party!r}) & set(sys.modules)))"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_import_leaves_out_dataclasses_inspect_and_difflib(self):
        # -S: no site hook, so only the CLI's own imports count
        heavy = ["dataclasses", "inspect", "difflib", "html", "subprocess", "heapq"]
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        proc = subprocess.run(
            [sys.executable, "-S", "-c",
             "import sys, carbonrun.cli; "
             f"print(sorted(set({heavy!r}) & set(sys.modules)))"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_run_help_names_every_option(self):
        proc = run_cli("run", "--help")
        assert proc.returncode == 0
        for option in ("--format", "--out", "--report-to", "--efficiency",
                       "--sample-interval", "--baseline-duration", "--no-baseline",
                       "--gpu", "--trace", "--location", "--default-region",
                       "--offline", "--us-data", "--intl-data", "--equivalencies"):
            assert option in proc.stdout

    def test_version(self):
        proc = run_cli("--version")
        assert proc.returncode == 0
        assert proc.stdout == "carbonrun, version 0.1.0\n"


class TestExitFreeze:
    def test_heap_frozen_after_the_report_with_the_same_bytes(
            self, trace_file, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "build_report", functools.partial(
            cli.build_report, generated_at="2019-11-20T00:00:00Z"))
        freeze = gc.freeze

        def run(out):
            with pytest.raises(SystemExit) as exited:
                cli.main([
                    "run", "--trace", trace_file, "--offline", "--format", "html",
                    "--out", str(out), "--", "true"])
            assert exited.value.code == 0
            return out.read_bytes()

        with monkeypatch.context() as mp:
            mp.setattr(gc, "freeze", lambda: None)
            unfrozen = run(tmp_path / "unfrozen.html")
        assert gc.get_freeze_count() == 0

        out = tmp_path / "frozen.html"
        report_written = []
        monkeypatch.setattr(gc, "freeze", lambda: (report_written.append(out.exists()), freeze()))
        assert run(out) == unfrozen
        assert report_written == [True]
        assert gc.get_freeze_count() > 0


class TestProgramEntry:
    def test_script_and_dash_m_call_the_same_function(self, monkeypatch):
        # read as text: tomllib is not in Python 3.10
        with open(PYPROJECT) as fh:
            scripts = fh.read().split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        module, name = re.search(r'^carbonrun = "([\w.]+):(\w+)"$', scripts, re.M).groups()
        called = []
        monkeypatch.setattr(cli, "program", lambda: called.append("program"))
        runpy.run_module("carbonrun", run_name="__main__")
        assert called == ["program"]
        assert getattr(importlib.import_module(module), name) is cli.program

    def test_atexit_handler_registered_before_the_entry_runs(self, trace_file):
        script = (
            "import atexit, sys; "
            "atexit.register(print, 'handler ran'); "
            "from carbonrun.cli import program; program()"
        )
        proc = run_cli(
            "run", "--trace", trace_file, "--offline", "--", "true",
            entry=[sys.executable, "-c", script],
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "handler ran\n"
        assert "Energy Usage Report" in proc.stderr

    def test_every_byte_of_the_report_reaches_a_pipe(self, trace_file):
        proc = run_cli(
            "run", "--trace", trace_file, "--offline", "--format", "json",
            "--report-to", "stdout", "--", "true", text=False,
        )
        assert proc.returncode == 0
        assert report.render_json(report.parse_report_json(proc.stdout)) == proc.stdout

    @pytest.mark.parametrize(
        "args,code",
        [
            (("run", "--", "sh", "-c", "exit 3"), 3),
            (("run", "--no-such-flag", "--", "true"), 2),
            (("run", "--", "/no/such/binary-xyz"), 127),
            (("run", "--", "sh", "-c", "kill -TERM $$"), 128 + signal.SIGTERM),
        ],
        ids=["child-3", "usage", "spawn", "sigterm"],
    )
    def test_exit_codes_match_main(self, trace_file, args, code):
        command, *rest = args
        full = (command, "--trace", trace_file, "--offline", *rest)
        program, main = run_cli(*full), run_cli(*full, entry=MAIN)
        assert (program.returncode, main.returncode) == (code, code)
        assert program.stdout == main.stdout

    def test_version_matches_main(self):
        program, main = run_cli("--version"), run_cli("--version", entry=MAIN)
        assert (program.returncode, main.returncode) == (0, 0)
        assert program.stdout == main.stdout == "carbonrun, version 0.1.0\n"

    def test_the_version_has_one_source(self):
        # read as text, as above: the build takes it from the package
        with open(PYPROJECT) as fh:
            project = fh.read()
        assert 'dynamic = ["version"]' in project.split("\n[", 2)[1]
        assert '\n[tool.setuptools.dynamic]\nversion = {attr = "carbonrun.__version__"}\n' in project

    def test_help_into_a_closed_pipe_exits_1_quietly(self):
        env = dict(os.environ)
        env.pop("PYTHONUNBUFFERED", None)
        codes, errors = [], []
        for entry in (CLI, MAIN):
            proc = subprocess.Popen([*entry, "--help"], stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE, env=env, text=True)
            proc.stdout.close()
            errors.append(proc.communicate(timeout=60)[1])
            codes.append(proc.returncode)
        assert codes == [1, 1]
        assert errors == ["", ""]

    @pytest.mark.parametrize("entry", [CLI, MAIN], ids=["program", "main"])
    @pytest.mark.parametrize("closed,report_to,code,report_on", [
        (">&-", "stderr", 3, "stderr"),
        ("2>&-", "stdout", 3, "stdout"),
        (">&-", "stdout", 1, None),
        ("2>&-", "stderr", 1, None),
    ], ids=["stdout-closed-report-on-stderr", "stderr-closed-report-on-stdout",
            "stdout-closed-report-on-it", "stderr-closed-report-on-it"])
    def test_a_closed_stream_costs_the_exit_code_only_when_the_report_goes_there(
            self, trace_file, entry, closed, report_to, code, report_on):
        # closed before carbonrun starts, not redirected; the child finds it
        # closed too: its echo fails, and it exits 3
        child = "echo lost 2>/dev/null || exit 3" if closed == ">&-" else "exit 3"
        proc = run_cli("run", "--trace", trace_file, "--offline", "--report-to", report_to,
                       "--", "sh", "-c", child, entry=closed_entry(closed, entry))
        assert proc.returncode == code
        streams = {"stdout": proc.stdout, "stderr": proc.stderr}
        if report_on:
            assert streams.pop(report_on).startswith("=" * 24 + " Energy Usage Report")
        assert set(streams.values()) == {""}

    @pytest.mark.parametrize("entry", [CLI, MAIN], ids=["program", "main"])
    @pytest.mark.parametrize("args", [("regions",), ("--help",), ("--version",),
                                      ("run", "--help")])
    def test_output_into_a_closed_stdout_exits_1_quietly(self, entry, args):
        proc = run_cli(*args, entry=closed_entry(">&-", entry))
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "")

    def test_json_report_equals_the_one_main_writes(self, trace_file, tmp_path, monkeypatch):
        monkeypatch.setattr(gc, "freeze", lambda: None)
        args = ["run", "--trace", trace_file, "--offline", "--location", "wyoming",
                "--format", "json", "--out"]
        with pytest.raises(SystemExit) as exited:
            cli.main([*args, str(tmp_path / "main.json"), "--", "true"])
        assert exited.value.code == 0
        proc = run_cli(*args, str(tmp_path / "program.json"), "--", "true")
        assert proc.returncode == 0, proc.stderr
        main, program = (
            json.loads((tmp_path / name).read_bytes()) for name in ("main.json", "program.json"))
        main.pop("generated_at")
        program.pop("generated_at")
        assert program == main


class TestRegionsCommand:
    def test_listing_count_matches_snapshot(self):
        proc = run_cli("regions")
        assert proc.returncode == 0
        # 51 states + 186 countries + 3 aggregates
        assert len(proc.stdout.strip().splitlines()) == 240

    def test_listing_matches_golden(self):
        proc = run_cli("regions", text=False)
        assert (proc.returncode, proc.stderr) == (0, b"")
        with open(REGIONS_GOLDEN, "rb") as fh:
            assert proc.stdout == fh.read()

    def test_extremes_us(self):
        proc = run_cli("regions", "--extremes", "us")
        lines = proc.stdout.strip().splitlines()
        assert [l.split()[0] for l in lines] == ["lowest", "median", "highest"]
        assert "Vermont" in lines[0]
        assert "Mississippi" in lines[1]
        assert "Wyoming" in lines[2]

    def test_extremes_print_the_intensity_a_report_prices_at(self, trace_file):
        doc = report.parse_report_json(measured_run(trace_file, "--location", "wyoming").stdout)
        highest = run_cli("regions", "--extremes", "us").stdout.splitlines()[2]
        kg_mwh = f"{doc.summary.intensity_kg_per_kwh * 1000:7.1f} kg/MWh"
        assert highest == f"highest  us-wy          {kg_mwh}  Wyoming"

    def test_closed_stdout_exits_1_quietly(self):
        proc = subprocess.Popen([*CLI, "regions"], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert stderr == ""

    def test_extremes_unknown_group(self):
        proc = run_cli("regions", "--extremes", "mars")
        assert proc.returncode == 2

    def test_extremes_of_an_empty_group_exits_2(self, tmp_path):
        proc = run_cli("regions", "--extremes", "europe",
                       "--intl-data", no_europe_data_file(tmp_path))
        assert proc.returncode == 2
        assert proc.stderr == "carbonrun: error: no regions in group 'europe'\n"

    @pytest.mark.parametrize("flag,name", [
        ("--us-data", griddata.US_DATA_FILE),
        ("--intl-data", griddata.INTL_DATA_FILE),
    ])
    def test_non_utf8_data_file_exits_2(self, tmp_path, flag, name):
        data = latin1_data_file(tmp_path, name)
        proc = run_cli("regions", flag, data)
        assert proc.returncode == 2
        assert proc.stderr == (
            f"carbonrun: error: {data} is not UTF-8 text: invalid continuation byte\n")

    @pytest.mark.parametrize("flag,name", [
        ("--us-data", griddata.US_DATA_FILE),
        ("--intl-data", griddata.INTL_DATA_FILE),
    ])
    def test_oversized_field_in_data_file_exits_2(self, tmp_path, flag, name):
        proc = run_cli("regions", flag, oversized_field_data_file(tmp_path, name))
        assert proc.returncode == 2
        assert proc.stderr == (
            f"carbonrun: error: line 2: field larger than field limit ({csv.field_size_limit()})\n")


class TestBenchCommand:
    def test_guard_exit_2(self):
        proc = run_cli("bench", "exp", "31")
        assert proc.returncode == 2
        assert "capped" in proc.stderr

    def test_unknown_shape_exits_2_before_child(self, trace_file):
        proc = run_cli("bench", "cubic", "2", "--unit-ops", "1000",
                       "--trace", trace_file, "--offline")
        assert (proc.returncode, proc.stdout) == (2, "")  # no workload checksum
        assert "argument SHAPE: invalid choice: 'cubic'" in proc.stderr

    def test_bench_under_trace(self, trace_file):
        proc = run_cli(
            "bench", "linear", "2", "--unit-ops", "1000",
            "--trace", trace_file, "--offline",
        )
        assert proc.returncode == 0
        assert "checksum" in proc.stdout  # workload child output
        assert "bench linear n=2" in proc.stdout  # summary line
        assert "Energy Usage Report" in proc.stderr
        line = next(line for line in proc.stderr.splitlines() if "for the command `" in line)
        assert line.endswith(" -m carbonrun.bench linear 2 1000`.")

    def test_workload_checksum_line(self):
        proc = run_cli("linear", "1", "500", entry=BENCH_CHILD)
        assert proc.returncode == 0
        assert re.fullmatch(r"checksum \d+\n", proc.stdout)

    def test_bench_module_guard_exit_2(self):
        proc = run_cli("exp", "31", "1", entry=BENCH_CHILD)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == ("carbonrun: error: exp workloads are capped at n=30 "
                               "(2^31 units would never finish)\n")

    def test_bench_module_loads_neither_the_cli_nor_http(self):
        proc = run_cli("-X", "importtime", "-m", "carbonrun.bench", "linear", "0", "1",
                       entry=[sys.executable])
        assert proc.returncode == 0
        imported = {line.rsplit("|", 1)[1].strip()
                    for line in proc.stderr.splitlines() if line.startswith("import time:")}
        assert "carbonrun.records" in imported  # the listing is read
        assert not imported & {"carbonrun.cli", "http.client"}

    def test_the_workload_subcommand_is_gone(self):
        proc = run_cli("workload", "linear", "1")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "invalid choice: 'workload'" in proc.stderr
