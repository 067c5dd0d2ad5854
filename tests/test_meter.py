import math
import os
import stat
import threading
import time
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from carbonrun import cli, meter
from carbonrun.meter import (
    EmptyProcessSamples,
    EnergyCounterReading,
    EnergyIntegral,
    MeterConfig,
    NoPowercapInterface,
    PowerSample,
    ReadFailure,
    enumerate_package_domains,
    fold_columns,
    read_counter,
    read_gpu_power,
    summarize,
    _read_int,
)
from carbonrun.traces import TraceSource, parse_trace

from conftest import (
    combine_instants,
    constant_trace,
    piecewise_trace,
    power_from_readings,
    short_tail_trace,
)


def reading(energy_uj, t, domain="pkg-0", max_range=10**12):
    return EnergyCounterReading(domain, energy_uj, max_range, t)


class TestPowerFromReadings:
    def test_delta_over_time(self):
        sample = power_from_readings(reading(1_000_000, 0.0), reading(3_000_000, 1.0))
        assert sample.watts == 2.0
        assert sample.interval_s == 1.0

    def test_zero_delta_is_valid_idle(self):
        sample = power_from_readings(reading(5_000_000, 0.0), reading(5_000_000, 0.1))
        assert sample.watts == 0.0

    def test_wrap_is_discarded(self):
        assert power_from_readings(reading(900, 0.0), reading(100, 1.0)) is None

    def test_time_must_increase(self):
        with pytest.raises(ValueError):
            power_from_readings(reading(0, 1.0), reading(10, 1.0))

    def test_negative_watts_impossible_by_construction(self):
        with pytest.raises(ValueError):
            PowerSample(watts=-1.0, interval_s=0.1)


class TestMeterConfig:
    def test_defaults(self):
        config = MeterConfig()
        assert config.sample_interval_s == 0.1
        assert config.psu_efficiency == 0.8
        assert config.baseline_duration_s == 5.0

    @pytest.mark.parametrize("eff", [0.0, -0.1, 1.5])
    def test_bad_efficiency(self, eff):
        with pytest.raises(ValueError):
            MeterConfig(psu_efficiency=eff)

    def test_full_efficiency_allowed(self):
        assert MeterConfig(psu_efficiency=1.0).psu_efficiency == 1.0

    def test_interval_below_counter_granularity(self):
        with pytest.raises(ValueError):
            MeterConfig(sample_interval_s=0.001)


class TestSysfsReads:
    def make_domain(self, root, name, label, energy=123456, max_range=10**12):
        d = root / name
        d.mkdir(parents=True)
        (d / "name").write_text(label + "\n")
        (d / "energy_uj").write_text(f"{energy}\n")
        (d / "max_energy_range_uj").write_text(f"{max_range}\n")
        return d

    def test_enumerate_skips_subdomains_and_nonpackage(self, tmp_path):
        root = tmp_path / "intel-rapl"
        self.make_domain(root, "intel-rapl:0", "package-0")
        self.make_domain(root, "intel-rapl:1", "package-1")
        self.make_domain(root, "intel-rapl:0:0", "core")
        self.make_domain(root, "intel-rapl:2", "psys")
        domains = enumerate_package_domains(str(root))
        assert [os.path.basename(d) for d in domains] == [
            "intel-rapl:0",
            "intel-rapl:1",
        ]

    def test_enumerate_adds_each_package_dram_but_no_other_subdomain(self, tmp_path):
        root = tmp_path / "intel-rapl"
        for n in range(2):
            package = self.make_domain(root, f"intel-rapl:{n}", f"package-{n}")
            self.make_domain(package, f"intel-rapl:{n}:0", "core")
            self.make_domain(package, f"intel-rapl:{n}:1", "uncore")
            self.make_domain(package, f"intel-rapl:{n}:2", "dram")
        self.make_domain(root, "intel-rapl:2", "psys")
        domains = enumerate_package_domains(str(root))
        assert [os.path.relpath(d, root) for d in domains] == [
            "intel-rapl:0",
            os.path.join("intel-rapl:0", "intel-rapl:0:2"),
            "intel-rapl:1",
            os.path.join("intel-rapl:1", "intel-rapl:1:2"),
        ]

    def test_missing_hierarchy(self, tmp_path):
        with pytest.raises(NoPowercapInterface):
            enumerate_package_domains(str(tmp_path / "nope"))

    def test_no_package_domains(self, tmp_path):
        root = tmp_path / "intel-rapl"
        self.make_domain(root, "intel-rapl:0", "psys")
        with pytest.raises(NoPowercapInterface):
            enumerate_package_domains(str(root))

    def test_read_counter_tolerates_trailing_newline(self, tmp_path):
        root = tmp_path / "intel-rapl"
        domain = self.make_domain(root, "intel-rapl:0", "package-0", energy=123456)
        r = read_counter(str(domain))
        assert r.energy_uj == 123456
        assert r.max_range_uj == 10**12

    def test_read_counter_failure_carries_path(self, tmp_path):
        root = tmp_path / "intel-rapl"
        domain = self.make_domain(root, "intel-rapl:0", "package-0")
        (domain / "energy_uj").unlink()
        with pytest.raises(ReadFailure) as err:
            read_counter(str(domain))
        assert "energy_uj" in str(err.value)

    def test_read_counter_garbage_is_read_failure(self, tmp_path):
        root = tmp_path / "intel-rapl"
        domain = self.make_domain(root, "intel-rapl:0", "package-0")
        (domain / "energy_uj").write_text("not-a-number\n")
        with pytest.raises(ReadFailure):
            read_counter(str(domain))

    def test_empty_counter_file_is_read_failure(self, tmp_path):
        path = tmp_path / "energy_uj"
        path.write_bytes(b"")
        with pytest.raises(ReadFailure) as err:
            _read_int(str(path))
        assert str(path) in str(err.value)

    def test_reread_sees_a_file_replaced_atomically(self, tmp_path):
        # writers rename a new file over the counter; a read must reopen the
        # path, not re-read a descriptor on the replaced inode
        path = tmp_path / "energy_uj"
        path.write_text("100\n")
        assert _read_int(str(path)) == 100
        scratch = tmp_path / "energy_uj.tmp"
        scratch.write_text("250\n")
        os.replace(scratch, path)
        assert _read_int(str(path)) == 250

    def test_source_reads_max_range_once(self, tmp_path):
        root = tmp_path / "intel-rapl"
        domain = self.make_domain(root, "intel-rapl:0", "package-0", energy=42)
        source = meter.PowercapSource(str(root))
        (domain / "max_energy_range_uj").unlink()
        reading = source.next_instant()[str(domain)]
        assert (reading.energy_uj, reading.max_range_uj) == (42, 10**12)

    def test_unreadable_max_range_exits_2_with_path(self, tmp_path, monkeypatch, capsys):
        root = tmp_path / "intel-rapl"
        domain = self.make_domain(root, "intel-rapl:0", "package-0")
        (domain / "max_energy_range_uj").write_text("garbage\n")
        monkeypatch.setattr(cli, "PowercapSource", lambda: meter.PowercapSource(str(root)))
        options = cli._parser("carbonrun").parse_args(["run", "--offline", "true"])
        code, doc = cli.run_measured(options.command, options)
        assert (code, doc) == (2, None)
        assert str(domain / "max_energy_range_uj") in capsys.readouterr().err

    def test_counter_unreadable_mid_run_stops_with_path(self, tmp_path, monkeypatch, capsys):
        root = tmp_path / "intel-rapl"
        self.make_domain(root, "intel-rapl:0", "package-0")
        domain = self.make_domain(root, "intel-rapl:1", "package-1")
        counter = domain / "energy_uj"
        thread_errors = []
        monkeypatch.setattr(threading, "excepthook", thread_errors.append)
        monkeypatch.setattr(cli, "PowercapSource", lambda: meter.PowercapSource(str(root)))
        child = ["sh", "-c", f"sleep 0.15; rm '{counter}'; sleep 0.15; exit 3"]
        options = cli._parser("carbonrun").parse_args(
            ["run", "--offline", "--no-baseline", "--sample-interval", "0.01", *child])
        code, doc = cli.run_measured(options.command, options)
        assert (code, doc) == (3, None)
        err = capsys.readouterr().err
        assert f"carbonrun: error: sampling stopped: cannot read {counter}" in err
        assert thread_errors == []


class TestGpu:
    def make_stub(self, tmp_path, body):
        path = tmp_path / "nvidia-smi"
        path.write_text(f"#!/bin/sh\n{body}\n")
        path.chmod(path.stat().st_mode | stat.S_IEXEC)
        return str(path)

    def test_sums_one_line_per_gpu(self, tmp_path):
        stub = self.make_stub(tmp_path, "printf '41.73\\n12.27\\n'")
        sample = read_gpu_power(interval_s=0.5, command=[stub])
        assert sample.watts == pytest.approx(54.0)
        assert sample.interval_s == 0.5

    def test_absent_utility(self):
        assert read_gpu_power(command=["definitely-not-on-path-xyz"]) is None

    def test_garbage_output(self, tmp_path):
        stub = self.make_stub(tmp_path, "echo 'N/A watts'")
        assert read_gpu_power(command=[stub]) is None

    def test_nonzero_exit(self, tmp_path):
        stub = self.make_stub(tmp_path, "exit 9")
        assert read_gpu_power(command=[stub]) is None


class TestCombine:
    def test_multi_domain_additivity(self):
        samples = combine_instants(parse_trace(
            constant_trace(7.0, 10, domains=("pkg-0", "pkg-1"))
        ))
        assert len(samples) == 10
        for s in samples:
            assert s.watts == pytest.approx(14.0)

    def test_partial_wrap_drops_whole_instant(self):
        # pkg-1 wraps between t=1 and t=2; pkg-0 keeps counting. The summed
        # machine power for that pair is unknowable, so the pair must go.
        rows = [
            "0,pkg-0,0,1000000000",
            "0,pkg-1,900000000,1000000000",
            "1,pkg-0,5000000,1000000000",
            "1,pkg-1,905000000,1000000000",
            "2,pkg-0,10000000,1000000000",
            "2,pkg-1,5000,1000000000",
            "3,pkg-0,15000000,1000000000",
            "3,pkg-1,5005000,1000000000",
        ]
        samples = combine_instants(parse_trace("\n".join(rows)))
        assert len(samples) == 2
        for s in samples:
            assert s.watts == pytest.approx(10.0)


class TestSummarize:
    def make_samples(self, watts, count=10, interval=0.1):
        return [PowerSample(watts=watts, interval_s=interval) for _ in range(count)]

    def test_reference_readings(self):
        summary = summarize(
            self.make_samples(2.35),
            self.make_samples(15.53),
            duration_s=1000.0,
            config=MeterConfig(),
        )
        assert summary.process_watts == pytest.approx(13.18, abs=1e-12)
        assert summary.measured_kwh == pytest.approx(0.003661111, abs=1e-7)

    def test_clamps_negative_process_power(self):
        summary = summarize(
            self.make_samples(5.0),
            self.make_samples(4.0),
            duration_s=10.0,
            config=MeterConfig(),
        )
        assert summary.process_watts == 0.0
        assert summary.measured_kwh == 0.0
        assert summary.negative_clamped

    def test_empty_baseline_means_zero(self):
        summary = summarize([], self.make_samples(3.0), 10.0, MeterConfig())
        assert summary.baseline_watts == 0.0
        assert summary.process_watts == pytest.approx(3.0)
        assert not summary.negative_clamped

    def test_empty_process_is_an_error(self):
        with pytest.raises(EmptyProcessSamples, match="--sample-interval"):
            summarize([], [], 10.0, MeterConfig())

    def test_non_positive_duration(self):
        with pytest.raises(ValueError):
            summarize([], self.make_samples(1.0), 0.0, MeterConfig())

    def test_psu_identity_at_full_efficiency(self):
        summary = summarize(
            [], self.make_samples(8.0), 100.0, MeterConfig(psu_efficiency=1.0)
        )
        assert summary.adjusted_kwh == summary.measured_kwh

    def test_psu_simple_division(self):
        summary = summarize(
            [], self.make_samples(8.0), 360.0, MeterConfig(psu_efficiency=0.8)
        )
        assert summary.measured_kwh == pytest.approx(0.0008)
        assert summary.adjusted_kwh == pytest.approx(0.001)

    @given(
        eff_low=st.floats(min_value=0.05, max_value=1.0),
        eff_high=st.floats(min_value=0.05, max_value=1.0),
    )
    def test_adjusted_monotone_in_efficiency(self, eff_low, eff_high):
        if eff_low > eff_high:
            eff_low, eff_high = eff_high, eff_low
        samples = [PowerSample(watts=12.0, interval_s=0.1)] * 5
        at_low = summarize([], samples, 60.0, MeterConfig(psu_efficiency=eff_low))
        at_high = summarize([], samples, 60.0, MeterConfig(psu_efficiency=eff_high))
        assert at_low.adjusted_kwh >= at_high.adjusted_kwh >= at_high.measured_kwh

    def test_piecewise_trace_matches_integral(self):
        # 5 W for 10 s + 20 W for 10 s + 1 W for 10 s = 260 J
        text = piecewise_trace([(5.0, 10), (20.0, 10), (1.0, 10)], interval_s=1.0)
        source = TraceSource.from_csv(text)
        samples = combine_instants(parse_trace(text))
        summary = summarize(
            [], samples, source.span_s, MeterConfig(psu_efficiency=1.0)
        )
        expected = 260.0 / 3.6e6
        assert math.isclose(summary.measured_kwh, expected, rel_tol=1e-6)


class TestSamplingSession:
    def test_trace_session_collects_everything(self):
        source = TraceSource.from_csv(constant_trace(10.0, 30))
        session = meter.SamplingSession(source, MeterConfig())
        session.start()
        samples = session.stop()
        assert (session.pairs, session.dropped) == (30, 0)
        assert [(s.watts, s.interval_s) for s in samples] == [
            (pytest.approx(10.0), pytest.approx(30.0))
        ]

    def test_short_trailing_interval_is_time_weighted(self):
        source = TraceSource.from_csv(short_tail_trace())
        session = meter.SamplingSession(source, MeterConfig())
        session.start()
        samples = session.stop()
        summary = summarize(
            [], samples, source.span_s, MeterConfig(psu_efficiency=1.0)
        )
        assert summary.measured_kwh * 3.6e6 == pytest.approx(100.0, rel=1e-9)

    def test_wrapped_pair_is_counted_and_bridged(self):
        rows = [f"{t},pkg-0,{e},1000000000" for t, e in
                [(0, 0), (1, 5_000_000), (2, 2_000), (3, 5_002_000)]]
        source = TraceSource.from_csv("\n".join(rows))
        session = meter.SamplingSession(source, MeterConfig())
        session.start()
        samples = session.stop()
        assert (session.pairs, session.dropped) == (2, 1)
        summary = summarize(
            [], samples, source.span_s, MeterConfig(psu_efficiency=1.0)
        )
        assert summary.measured_kwh * 3.6e6 == pytest.approx(15.0)

    def test_pair_with_one_falling_domain_is_dropped_whole(self):
        # pkg-1 falls over the 2 s pair (1, 3) while pkg-0 advances: the whole
        # pair goes, and neither its joules nor its seconds are counted
        rows = [f"{t},{d},{e},10000000000" for t, pkg0, pkg1 in
                [(0, 0, 900), (1, 4_000_000, 1_000_900), (3, 12_000_000, 100),
                 (4, 16_000_000, 1_000_100)]
                for d, e in (("pkg-0", pkg0), ("pkg-1", pkg1))]
        source = TraceSource.from_csv("\n".join(rows))
        session = meter.SamplingSession(source, MeterConfig())
        session.start()
        [sample] = session.stop()
        assert (session.pairs, session.dropped) == (2, 1)
        assert sample.interval_s == 2.0
        assert sample.watts == 5.0  # (4 + 1) J per second over 2 s

    def test_fold_rejects_time_that_does_not_increase(self):
        with pytest.raises(ValueError, match="increasing time order"):
            fold_columns([1.0, 1.0], [[0, 10]])

    def test_gpu_polling_on_a_replayed_trace_is_rejected(self):
        source = TraceSource.from_csv(constant_trace(10.0, 3))
        with pytest.raises(ValueError, match="wall-clock"):
            meter.SamplingSession(source, MeterConfig(gpu_enabled=True))

    @given(
        domains=st.integers(min_value=1, max_value=3),
        first_ts=st.floats(min_value=0.0, max_value=1e5),
        steps=st.lists(
            st.tuples(
                st.floats(min_value=1e-3, max_value=5.0),
                st.lists(st.integers(min_value=-10**7, max_value=10**8),
                         min_size=3, max_size=3),
            ),
            min_size=1, max_size=40,
        ),
        served=st.integers(min_value=0, max_value=42),
    )
    def test_column_fold_matches_per_instant_loop(self, domains, first_ts, steps, served):
        ts, counters = first_ts, [10**12] * domains
        rows = [f"{ts!r},pkg-{d},{counters[d]},{2**62}" for d in range(domains)]
        for interval, deltas in steps:
            ts += interval
            counters = [c + delta for c, delta in zip(counters, deltas)]
            rows += [f"{ts!r},pkg-{d},{counters[d]},{2**62}" for d in range(domains)]
        # the instants from `served` on, as the loop and as columns
        instants = parse_trace("\n".join(rows))[served:]
        timestamps = [instant["pkg-0"].timestamp for instant in instants]
        energies = [[instant[f"pkg-{d}"].energy_uj for instant in instants]
                    for d in range(domains)]

        folded, looped = EnergyIntegral(), EnergyIntegral()
        kept_uj, kept, dropped, seconds = fold_columns(timestamps, energies)
        folded.add_totals(kept_uj / meter.UJ_PER_J, math.fsum(seconds), kept, dropped)
        for instant in instants:
            looped.add(instant)

        assert (folded.pairs, folded.dropped) == (looped.pairs, looped.dropped)
        assert math.isclose(folded.joules, looped.joules, rel_tol=1e-12)
        assert math.isclose(folded.seconds, looped.seconds, rel_tol=1e-12)

    def test_replay_memory_does_not_grow_with_trace_length(self):
        def session_peak_bytes(instants):
            source = TraceSource.from_csv(constant_trace(10.0, instants))
            tracemalloc.start()
            try:
                session = meter.SamplingSession(source, MeterConfig())
                session.start()
                session.stop()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        session_peak_bytes(10)  # first-use allocations
        assert session_peak_bytes(50_000) <= session_peak_bytes(5_000) + 16 * 1024

    def test_live_session_with_fake_sysfs(self, tmp_path):
        root = tmp_path / "intel-rapl"
        domain = root / "intel-rapl:0"
        domain.mkdir(parents=True)
        (domain / "name").write_text("package-0\n")
        (domain / "max_energy_range_uj").write_text("1000000000000\n")
        (domain / "energy_uj").write_text("0\n")

        source = meter.PowercapSource(str(root))
        config = MeterConfig(sample_interval_s=0.02)
        session = meter.SamplingSession(source, config)

        import threading
        import time

        stop_feeding = threading.Event()

        def feed():
            # grow the counter at ~2 W; rename keeps each read atomic, like
            # the kernel's own sysfs files
            start = time.monotonic()
            scratch = domain / "energy_uj.tmp"
            while not stop_feeding.is_set():
                uj = int((time.monotonic() - start) * 2_000_000)
                scratch.write_text(f"{uj}\n")
                os.replace(scratch, domain / "energy_uj")
                time.sleep(0.005)

        feeder = threading.Thread(target=feed)
        feeder.start()
        session.start()
        time.sleep(0.3)
        samples = session.stop()
        stop_feeding.set()
        feeder.join()

        assert session.pairs >= 5
        assert 0.5 < samples[0].watts < 4.0

    def test_live_session_sums_package_and_dram(self, tmp_path):
        # 1 W package, 10 W DRAM beside it, and a 100 W core counter inside
        # the package: the machine draws 11 W, which neither the package
        # alone (1 W) nor a count with the core (111 W) comes near
        root = tmp_path / "intel-rapl"
        package = root / "intel-rapl:0"
        watts = {package: 1.0, package / "intel-rapl:0:0": 100.0,
                 package / "intel-rapl:0:1": 10.0}
        for domain, name in zip(watts, ("package-0", "core", "dram")):
            domain.mkdir(parents=True)
            (domain / "name").write_text(f"{name}\n")
            (domain / "max_energy_range_uj").write_text("1000000000000\n")
            (domain / "energy_uj").write_text("0\n")
        source = meter.PowercapSource(str(root))
        session = meter.SamplingSession(source, MeterConfig(sample_interval_s=0.02))
        stop_feeding = threading.Event()

        def feed():
            start = time.monotonic()
            while not stop_feeding.is_set():
                elapsed = time.monotonic() - start
                for domain, w in watts.items():
                    scratch = domain / "energy_uj.tmp"
                    scratch.write_text(f"{int(elapsed * w * 1_000_000)}\n")
                    os.replace(scratch, domain / "energy_uj")
                time.sleep(0.005)

        feeder = threading.Thread(target=feed)
        feeder.start()
        try:
            session.start()
            time.sleep(0.4)
            [sample] = session.stop()
        finally:
            stop_feeding.set()
            feeder.join(timeout=5)
        assert not feeder.is_alive()
        assert session.pairs >= 5
        assert 8.0 < sample.watts < 14.0


def make_package_tree(tmp_path, packages=1):
    """A powercap tree of idle package domains; returns (root, domain dirs)."""
    root = tmp_path / "intel-rapl"
    domains = []
    for n in range(packages):
        domain = root / f"intel-rapl:{n}"
        domain.mkdir(parents=True)
        (domain / "name").write_text(f"package-{n}\n")
        (domain / "max_energy_range_uj").write_text("1000000000000\n")
        (domain / "energy_uj").write_text("0\n")
        domains.append(domain)
    return root, domains


class TestSessionStop:
    def test_stop_does_not_wait_out_a_long_interval(self, tmp_path):
        root, _ = make_package_tree(tmp_path)
        session = meter.SamplingSession(
            meter.PowercapSource(str(root)), MeterConfig(sample_interval_s=0.5))
        session.start()
        time.sleep(0.05)
        started = time.monotonic()
        samples = session.stop()
        assert time.monotonic() - started < 0.25
        assert session.pairs == 1  # the first read and the trailing one
        assert samples[0].watts == 0.0

    def test_stop_after_the_thread_exited_and_twice(self):
        source = TraceSource.from_csv(constant_trace(10.0, 5))
        session = meter.SamplingSession(source, MeterConfig(baseline_duration_s=0.0))
        session.start()
        session._thread.join(timeout=5)
        assert not session._thread.is_alive()
        first = session.stop()
        assert session.stop() == first
        assert first[0].watts == pytest.approx(10.0)

    def test_counter_vanishing_mid_run_is_raised_by_stop(self, tmp_path, monkeypatch):
        root, domains = make_package_tree(tmp_path, packages=2)
        counter = domains[1] / "energy_uj"
        thread_errors = []
        monkeypatch.setattr(threading, "excepthook", thread_errors.append)
        session = meter.SamplingSession(
            meter.PowercapSource(str(root)), MeterConfig(sample_interval_s=0.01))
        session.start()
        time.sleep(0.05)
        counter.unlink()
        time.sleep(0.05)
        for _ in range(2):
            with pytest.raises(ReadFailure) as err:
                session.stop()
            assert err.value.path == str(counter)
        assert thread_errors == []
