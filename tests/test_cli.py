import csv
import functools
import gc
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from carbonrun import cli, traces

from conftest import constant_trace, short_tail_trace
from test_traces import MALFORMED_TRACES, NON_UTF8_TRACE

CLI = [sys.executable, "-m", "carbonrun"]


def run_cli(*args, env_extra=None, timeout=60):
    env = dict(os.environ)
    env.pop("ENERGYUSAGE_REGION", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [*CLI, *args], capture_output=True, text=True, env=env, timeout=timeout
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


class TestRegionsCommand:
    def test_listing_count_matches_snapshot(self):
        proc = run_cli("regions")
        assert proc.returncode == 0
        # 51 states + 186 countries + 3 aggregates
        assert len(proc.stdout.strip().splitlines()) == 240

    def test_extremes_us(self):
        proc = run_cli("regions", "--extremes", "us")
        lines = proc.stdout.strip().splitlines()
        assert [l.split()[0] for l in lines] == ["lowest", "median", "highest"]
        assert "Vermont" in lines[0]
        assert "Mississippi" in lines[1]
        assert "Wyoming" in lines[2]

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


class TestBenchCommand:
    def test_guard_exit_2(self):
        proc = run_cli("bench", "exp", "31")
        assert proc.returncode == 2
        assert "capped" in proc.stderr

    def test_bench_under_trace(self, trace_file):
        proc = run_cli(
            "bench", "linear", "2", "--unit-ops", "1000",
            "--trace", trace_file, "--offline",
        )
        assert proc.returncode == 0
        assert "checksum" in proc.stdout  # workload child output
        assert "bench linear n=2" in proc.stdout  # summary line
        assert "Energy Usage Report" in proc.stderr

    def test_workload_checksum_line(self):
        proc = run_cli("workload", "linear", "1", "--unit-ops", "500")
        assert proc.returncode == 0
        assert proc.stdout.startswith("checksum ")
