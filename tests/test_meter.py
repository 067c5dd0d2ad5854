import errno
import math
import os
import random
import select
import signal
import stat
import subprocess
import threading
import time
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from carbonrun import cli, meter
from carbonrun.meter import (
    EmptyProcessSamples,
    Energy,
    MeterConfig,
    NoPowercapInterface,
    ReadFailure,
    enumerate_package_domains,
    fold_columns,
    read_gpu_power,
    summarize,
    _read_int,
)
from carbonrun.traces import TraceSource, parse_trace

from conftest import (
    combine_instants,
    constant_trace,
    piecewise_trace,
    short_tail_trace,
)


def sample_child(source, config, argv=("sleep", "0.3")):
    """Sample `source` while a child runs `argv`, the way `cli.run_measured`
    does, then reap the child; returns the session and its return code."""
    session = meter.SamplingSession(source, config)
    with subprocess.Popen(argv) as child:
        session.start()
        session.wait(child.pid)
        returncode = child.wait()
    return session, returncode


def fold(*instants):
    """The `Energy` that `fold_columns` gives `instants`, each (timestamp,
    [µJ per domain])."""
    stamps, counters = zip(*instants)
    kept_uj, kept, dropped, seconds = fold_columns(stamps, list(zip(*counters)))
    return Energy(kept_uj / meter.UJ_PER_J, math.fsum(seconds), kept, dropped)


class Script:
    """A live source that serves `instants`, each (timestamp, [µJ per
    domain]), in order.  As it serves the last but one it ends `child`, so
    the wake that sees the exit takes the last, and the run reads each
    instant once."""

    virtual_time = False

    def __init__(self, instants):
        self.instants = list(instants)
        self.served = 0
        self.child = self.session = None

    def next_instant(self):
        self.served += 1
        if self.served == len(self.instants) - 1:
            self.child.kill()
            # dead but not reaped: the next wake sees the exit at once
            os.waitid(os.P_PID, self.child.pid, os.WEXITED | os.WNOWAIT)
        return self.instants[self.served - 1]


def run_script(source, config=MeterConfig(sample_interval_s=0.01)):
    """Sample a `Script` while a child runs until the script ends it; the
    child is reaped.  Returns the session."""
    session = source.session = meter.SamplingSession(source, config)
    with subprocess.Popen(["sleep", "30"]) as child:
        source.child = child
        session.start()
        session.wait(child.pid)
        assert child.wait() == -signal.SIGKILL
    assert child.poll() == -signal.SIGKILL
    assert source.served == len(source.instants)
    return session


def scripted_gpu(monkeypatch, *watts):
    """GPU power polled as `watts`, one value per read; the config that polls it."""
    monkeypatch.setattr(meter, "read_gpu_power", iter(watts).__next__)
    return MeterConfig(sample_interval_s=0.01, gpu_enabled=True)


def random_walk(seed, instants, domains=2):
    """Instants whose counters advance by a seeded random walk and now and
    then fall (a wrap or a reset), at uneven timestamps."""
    rng = random.Random(seed)
    stamp = rng.uniform(0.0, 1e5)
    counters = [rng.randrange(10**12) for _ in range(domains)]
    walk = []
    for _ in range(instants):
        walk.append((stamp, counters))
        stamp += rng.uniform(1e-4, 0.05)
        counters = [rng.randrange(10**6) if rng.random() < 0.1 else c + rng.randrange(10**7)
                    for c in counters]
    return walk


def replay(instants):
    """A session that replays `instants` written as a trace, with `repr`
    timestamps, as `cli.run_measured` runs it."""
    rows = [f"{stamp!r},pkg-{d},{uj},{2**62}"
            for stamp, counters in instants for d, uj in enumerate(counters)]
    session = meter.SamplingSession(TraceSource.from_csv("\n".join(rows)), MeterConfig())
    session.start()
    return session


class TestPowerFromReadings:
    def test_delta_over_time(self):
        energy = fold((0.0, [1_000_000]), (1.0, [3_000_000]))
        assert energy == Energy(joules=2.0, seconds=1.0, pairs=1, dropped=0)
        assert energy.watts == 2.0

    def test_zero_delta_is_valid_idle(self):
        energy = fold((0.0, [5_000_000]), (0.1, [5_000_000]))
        assert (energy.pairs, energy.watts) == (1, 0.0)

    def test_wrap_is_discarded(self):
        energy = fold((0.0, [900]), (1.0, [100]))
        assert energy == Energy(dropped=1)
        assert energy.watts == 0.0

    def test_one_falling_domain_drops_the_pair_and_seconds_span_the_instants(self):
        energy = fold((0.0, [0, 500]), (1.0, [4_000_000, 100]), (3.0, [8_000_000, 2_000_100]))
        assert energy == Energy(joules=6.0, seconds=2.0, pairs=1, dropped=1)

    def test_gpu_watts_price_the_pair_they_open(self, monkeypatch):
        config = scripted_gpu(monkeypatch, 30.0, 50.0)
        session = run_script(Script([(0.0, [0]), (2.0, [2_000_000])]), config)
        assert session.stop() == Energy(joules=62.0, seconds=2.0, pairs=1)

    def test_a_pair_dropped_for_a_fall_drops_its_gpu_share(self, monkeypatch):
        # the package falls over (0, 1), so the GPU's 30 J there go too; the
        # pair (1, 3) keeps 2 mJ of package and 2 s at 50 W of GPU
        config = scripted_gpu(monkeypatch, 30.0, 50.0, 70.0)
        session = run_script(Script([(0.0, [1_000]), (1.0, [500]), (3.0, [2_500])]), config)
        assert session.stop() == Energy(joules=100.002, seconds=2.0, pairs=1, dropped=1)

    def test_negative_watts_impossible_by_construction(self):
        # pkg-1 falls by more than pkg-0 rises: the pair's sum would be
        # negative, but the pair is dropped, not added
        energy = fold((0.0, [0, 9_000_000]), (1.0, [1_000_000, 0]), (2.0, [2_000_000, 1_000_000]))
        assert energy == Energy(joules=2.0, seconds=1.0, pairs=1, dropped=1)


class TestLiveFold:
    @pytest.mark.parametrize("seed", range(8))
    def test_a_live_run_replays_to_the_same_energy(self, seed):
        instants = random_walk(seed, 40)
        config = MeterConfig(sample_interval_s=0.01)
        live_session, replay_session = run_script(Script(instants), config), replay(instants)
        live, replayed = live_session.stop(), replay_session.stop()
        assert live.dropped > 0
        assert live == replayed
        assert list(map(type, live)) == list(map(type, replayed)) == [float, float, int, int]
        # the duration too: the span of the reads, first to last
        assert live_session.span_s == replay_session.span_s == instants[-1][0] - instants[0][0]
        assert (summarize(Energy(), live, live_session.span_s, config)
                == summarize(Energy(), replayed, replay_session.span_s, config))

    def test_a_session_holds_at_most_one_batch(self, monkeypatch):
        monkeypatch.setattr(meter, "BATCH_INSTANTS", 4)
        folds = []

        class Fold(meter.ColumnFold):
            def __init__(self, batches):
                folds.append(self)
                super().__init__(batches)

        class Held(Script):
            def next_instant(self):
                # read since the last fold, and the instant the fold carries over
                batch = [self.session._stamps, *self.session._columns]
                carried = len(folds[0]._last[0]) if folds and folds[0]._last else 0
                assert max(map(len, batch)) + carried <= 5
                return super().next_instant()

        monkeypatch.setattr(meter, "ColumnFold", Fold)
        instants = random_walk(7, 30)
        assert run_script(Held(instants)).stop() == replay(instants).stop()
        assert folds[0]._last[0] == [instants[-1][0]]

    def test_a_read_that_repeats_its_timestamp_is_skipped(self):
        # a coarse clock: the repeat's µJ land in the next pair
        instants = [(0.0, [0]), (1.0, [1_000_000]), (1.0, [1_500_000]), (2.0, [3_000_000])]
        session = run_script(Script(instants))
        assert session.stop() == Energy(joules=3.0, seconds=2.0, pairs=2)

    def test_reads_that_do_not_advance_are_skipped_after_a_batch_border(self, monkeypatch):
        # the fold checks no time order: the session keeps it, against the
        # last read of the batch before too.  The 5th read repeats the 4th's
        # stamp and a later one steps back; kept, either would drop a pair.
        monkeypatch.setattr(meter, "BATCH_INSTANTS", 4)
        kept = [(float(t), [10**6 * t]) for t in range(8)]
        instants = [*kept[:4], (3.0, [500_000]), *kept[4:6], (4.5, [4_500_000]), *kept[6:]]
        session = run_script(Script(instants))
        assert session.stop() == replay(kept).stop()
        assert session.span_s == 7.0


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

    @pytest.mark.parametrize("field", ["sample_interval_s", "baseline_duration_s"])
    @pytest.mark.parametrize("value", [
        math.nan, math.inf, -math.inf, meter.MAX_WAIT_S * 2])
    def test_non_finite_or_oversized_wait(self, field, value):
        with pytest.raises(ValueError, match="must be between"):
            MeterConfig(**{field: value})

    def test_longest_wait_allowed(self, tmp_path):
        # the ceiling is the longest timeout `select.poll` takes: a pipe's
        # write end is ready at once, so neither call blocks
        read_end, write_end = os.pipe()
        try:
            poller = select.poll()
            poller.register(write_end, select.POLLOUT)
            assert poller.poll(meter.MAX_WAIT_S * 1000 - 1)
            with pytest.raises(OverflowError):
                poller.poll(meter.MAX_WAIT_S * 1000 + 1)
        finally:
            os.close(read_end)
            os.close(write_end)
        config = MeterConfig(sample_interval_s=meter.MAX_WAIT_S,
                             baseline_duration_s=meter.MAX_WAIT_S)
        assert config.baseline_duration_s == meter.MAX_WAIT_S
        # a whole interval's wait ends when the child does
        root, _ = make_package_tree(tmp_path)
        started = time.monotonic()
        session, code = sample_child(meter.PowercapSource(str(root)), config)
        assert time.monotonic() - started < 5.0
        assert (code, session.stop().pairs) == (0, 1)


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
        self.make_domain(root, "intel-rapl:0", "package-0", energy=123456)
        assert meter.PowercapSource(str(root)).next_instant()[1] == [123456]

    def test_read_counter_failure_carries_path(self, tmp_path):
        root = tmp_path / "intel-rapl"
        domain = self.make_domain(root, "intel-rapl:0", "package-0")
        (domain / "energy_uj").unlink()
        with pytest.raises(ReadFailure) as err:
            meter.PowercapSource(str(root))
        assert err.value.path == str(domain / "energy_uj")

    def test_read_counter_garbage_is_read_failure(self, tmp_path):
        path = tmp_path / "energy_uj"
        path.write_text("not-a-number\n")
        with pytest.raises(ReadFailure):
            _read_int(str(path))

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

    def test_source_reads_every_counter_at_construction(self, tmp_path, monkeypatch):
        root = tmp_path / "intel-rapl"
        package = self.make_domain(root, "intel-rapl:0", "package-0", energy=42)
        dram = self.make_domain(package, "intel-rapl:0:0", "dram", energy=7)
        (dram / "max_energy_range_uj").unlink()  # never read
        reads = []
        monkeypatch.setattr(meter, "_read_int", lambda path: reads.append(path) or 1)
        source = meter.PowercapSource(str(root))
        assert reads == [str(package / "energy_uj"), str(dram / "energy_uj")]
        monkeypatch.undo()
        assert source.next_instant()[1] == [42, 7]

    @pytest.mark.parametrize("baseline", [[], ["--no-baseline"]], ids=["baseline", "no-baseline"])
    def test_unreadable_counter_exits_2_with_path_before_child(
            self, tmp_path, monkeypatch, capsys, baseline):
        root = tmp_path / "intel-rapl"
        domain = self.make_domain(root, "intel-rapl:0", "package-0")
        (domain / "energy_uj").unlink()
        marker = tmp_path / "child-ran"
        monkeypatch.setattr(cli, "PowercapSource", lambda: meter.PowercapSource(str(root)))
        options = cli._parser("carbonrun").parse_args(
            ["run", "--offline", *baseline, "touch", str(marker)])
        code, doc = cli.run_measured(options.command, options)
        assert (code, doc) == (2, None)
        assert f"cannot read {domain / 'energy_uj'}" in capsys.readouterr().err
        assert not marker.exists()

    def test_counter_unreadable_mid_run_stops_with_path(self, tmp_path, monkeypatch, capsys):
        root = tmp_path / "intel-rapl"
        self.make_domain(root, "intel-rapl:0", "package-0")
        domain = self.make_domain(root, "intel-rapl:1", "package-1")
        counter = domain / "energy_uj"
        monkeypatch.setattr(cli, "PowercapSource", lambda: meter.PowercapSource(str(root)))
        child = ["sh", "-c", f"sleep 0.15; rm '{counter}'; sleep 0.15; exit 3"]
        options = cli._parser("carbonrun").parse_args(
            ["run", "--offline", "--no-baseline", "--sample-interval", "0.01", *child])
        code, doc = cli.run_measured(options.command, options)
        assert (code, doc) == (3, None)
        err = capsys.readouterr().err
        assert f"carbonrun: error: sampling stopped: cannot read {counter}" in err


class TestGpu:
    def make_stub(self, tmp_path, body):
        path = tmp_path / "nvidia-smi"
        path.write_text(f"#!/bin/sh\n{body}\n")
        path.chmod(path.stat().st_mode | stat.S_IEXEC)
        return str(path)

    def test_sums_one_line_per_gpu(self, tmp_path):
        stub = self.make_stub(tmp_path, "printf '41.73\\n12.27\\n'")
        assert read_gpu_power(command=[stub]) == pytest.approx(54.0)

    def test_absent_utility(self):
        assert read_gpu_power(command=["definitely-not-on-path-xyz"]) is None

    def test_garbage_output(self, tmp_path):
        stub = self.make_stub(tmp_path, "echo 'N/A watts'")
        assert read_gpu_power(command=[stub]) is None

    @pytest.mark.parametrize("body", ["echo inf", "echo nan", "echo -5",
                                      "echo 40; echo nan", "echo 40; echo -5"])
    def test_non_finite_or_negative_output(self, tmp_path, body):
        assert read_gpu_power(command=[self.make_stub(tmp_path, body)]) is None

    def test_nonzero_exit(self, tmp_path):
        stub = self.make_stub(tmp_path, "exit 9")
        assert read_gpu_power(command=[stub]) is None


class TestCombine:
    def test_multi_domain_additivity(self):
        energy = combine_instants(parse_trace(
            constant_trace(7.0, 10, domains=("pkg-0", "pkg-1"))
        ))
        assert (energy.pairs, energy.dropped) == (10, 0)
        assert energy.joules == pytest.approx(140.0)
        assert energy.seconds == pytest.approx(10.0)

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
        energy = combine_instants(parse_trace("\n".join(rows)))
        assert (energy.pairs, energy.dropped) == (2, 1)
        assert energy.joules == pytest.approx(20.0)
        assert energy.seconds == pytest.approx(2.0)


def steady(watts, seconds=1.0, pairs=10):
    """The `Energy` of `pairs` kept pairs at a constant `watts`."""
    return Energy(joules=watts * seconds, seconds=seconds, pairs=pairs)


class TestSummarize:
    def test_reference_readings(self):
        summary = summarize(
            steady(2.35),
            steady(15.53),
            duration_s=1000.0,
            config=MeterConfig(),
        )
        assert summary.process_watts == pytest.approx(13.18, abs=1e-12)
        assert summary.measured_kwh == pytest.approx(0.003661111, abs=1e-7)

    def test_clamps_negative_process_power(self):
        summary = summarize(
            steady(5.0),
            steady(4.0),
            duration_s=10.0,
            config=MeterConfig(),
        )
        assert summary.process_watts == 0.0
        assert summary.measured_kwh == 0.0
        assert summary.negative_clamped

    def test_empty_baseline_means_zero(self):
        summary = summarize(Energy(), steady(3.0), 10.0, MeterConfig())
        assert summary.baseline_watts == 0.0
        assert summary.process_watts == pytest.approx(3.0)
        assert not summary.negative_clamped

    def test_empty_process_is_an_error(self):
        with pytest.raises(EmptyProcessSamples) as err:
            summarize(Energy(), Energy(), 10.0, MeterConfig())
        assert str(err.value) == (
            "process exited before one full sampling interval; "
            "nothing to report (try a smaller --sample-interval)")

    def test_every_pair_dropped_is_an_error_that_names_the_fall(self):
        with pytest.raises(EmptyProcessSamples) as err:
            summarize(steady(5.0), Energy(dropped=3), 10.0, MeterConfig())
        assert str(err.value) == (
            "every counter pair (3) was dropped: a counter fell between reads "
            "(wrap or reset); nothing to report")

    @pytest.mark.parametrize("baseline,process,efficiency", [
        (Energy(), Energy(9e12, 1e-300, 1), 0.8),  # the power overflows
        (Energy(), steady(1e308), 0.8),  # power times duration overflows
        (Energy(9e12, 1e-300, 1), steady(5.0), 0.8),  # the idle power overflows
        (Energy(), steady(5.0), 1e-320),  # the wall-plug energy overflows
    ])
    def test_a_figure_that_is_not_finite_is_refused(self, baseline, process, efficiency):
        with pytest.raises(EmptyProcessSamples, match="not a finite energy; nothing to report$"):
            summarize(baseline, process, 10.0, MeterConfig(psu_efficiency=efficiency))

    def test_non_positive_duration(self):
        with pytest.raises(ValueError):
            summarize(Energy(), steady(1.0), 0.0, MeterConfig())

    def test_no_kept_pair_is_reported_before_a_zero_duration(self):
        # a live run that keeps no pair spans 0 s
        with pytest.raises(EmptyProcessSamples, match="before one full sampling interval"):
            summarize(Energy(), Energy(), 0.0, MeterConfig())

    def test_psu_identity_at_full_efficiency(self):
        summary = summarize(
            Energy(), steady(8.0), 100.0, MeterConfig(psu_efficiency=1.0)
        )
        assert summary.adjusted_kwh == summary.measured_kwh

    def test_psu_simple_division(self):
        summary = summarize(
            Energy(), steady(8.0), 360.0, MeterConfig(psu_efficiency=0.8)
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
        energy = steady(12.0, seconds=0.5, pairs=5)
        at_low = summarize(Energy(), energy, 60.0, MeterConfig(psu_efficiency=eff_low))
        at_high = summarize(Energy(), energy, 60.0, MeterConfig(psu_efficiency=eff_high))
        assert at_low.adjusted_kwh >= at_high.adjusted_kwh >= at_high.measured_kwh

    def test_piecewise_trace_matches_integral(self):
        # 5 W for 10 s + 20 W for 10 s + 1 W for 10 s = 260 J
        text = piecewise_trace([(5.0, 10), (20.0, 10), (1.0, 10)], interval_s=1.0)
        source = TraceSource.from_csv(text)
        energy = combine_instants(parse_trace(text))
        summary = summarize(
            Energy(), energy, source.span_s, MeterConfig(psu_efficiency=1.0)
        )
        expected = 260.0 / 3.6e6
        assert math.isclose(summary.measured_kwh, expected, rel_tol=1e-6)


class TestSamplingSession:
    def test_trace_session_collects_everything(self):
        source = TraceSource.from_csv(constant_trace(10.0, 30))
        session = meter.SamplingSession(source, MeterConfig())
        session.start()
        energy = session.stop()
        assert (energy.pairs, energy.dropped) == (30, 0)
        assert energy.watts == pytest.approx(10.0)
        assert energy.seconds == pytest.approx(30.0)

    def test_short_trailing_interval_is_time_weighted(self):
        source = TraceSource.from_csv(short_tail_trace())
        session = meter.SamplingSession(source, MeterConfig())
        session.start()
        summary = summarize(
            Energy(), session.stop(), source.span_s, MeterConfig(psu_efficiency=1.0)
        )
        assert summary.measured_kwh * 3.6e6 == pytest.approx(100.0, rel=1e-9)

    def test_wrapped_pair_is_counted_and_bridged(self):
        rows = [f"{t},pkg-0,{e},1000000000" for t, e in
                [(0, 0), (1, 5_000_000), (2, 2_000), (3, 5_002_000)]]
        source = TraceSource.from_csv("\n".join(rows))
        session = meter.SamplingSession(source, MeterConfig())
        session.start()
        energy = session.stop()
        assert (energy.pairs, energy.dropped) == (2, 1)
        summary = summarize(
            Energy(), energy, source.span_s, MeterConfig(psu_efficiency=1.0)
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
        energy = session.stop()
        assert (energy.pairs, energy.dropped) == (2, 1)
        assert energy.seconds == 2.0
        assert energy.watts == 5.0  # (4 + 1) J per second over 2 s

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
        # the instants from `served` on, as columns and as instants
        instants = parse_trace("\n".join(rows))[served:]
        timestamps = [instant["pkg-0"].timestamp for instant in instants]
        energies = [[instant[f"pkg-{d}"].energy_uj for instant in instants]
                    for d in range(domains)]

        kept_uj, kept, dropped, seconds = fold_columns(timestamps, energies)
        folded = Energy(kept_uj / meter.UJ_PER_J, math.fsum(seconds), kept, dropped)
        paired = combine_instants(instants)

        assert (folded.pairs, folded.dropped) == (paired.pairs, paired.dropped)
        assert math.isclose(folded.joules, paired.joules, rel_tol=1e-12)
        assert math.isclose(folded.seconds, paired.seconds, rel_tol=1e-12)

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
        try:
            session, _ = sample_child(source, config)
        finally:
            stop_feeding.set()
            feeder.join()
        energy = session.stop()

        assert energy.pairs >= 5
        assert 0.5 < energy.watts < 4.0

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
            session, _ = sample_child(source, MeterConfig(sample_interval_s=0.02))
        finally:
            stop_feeding.set()
            feeder.join(timeout=5)
        assert not feeder.is_alive()
        energy = session.stop()
        assert energy.pairs >= 5
        assert 8.0 < energy.watts < 14.0


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


class ReadTimes(meter.PowercapSource):
    """A live source that records when each of its reads starts, and
    sleeps `slow_s` in the read numbered `slow_read`."""

    def __init__(self, root, slow_read=None, slow_s=0.0):
        super().__init__(str(root))
        self.read_at = []
        self.threads = []
        self._slow = slow_read, slow_s

    def next_instant(self):
        self.read_at.append(time.monotonic())
        self.threads.append(threading.active_count())
        if len(self.read_at) == self._slow[0]:
            time.sleep(self._slow[1])
        return super().next_instant()


class TestSessionStop:
    def test_stop_does_not_wait_out_a_long_interval(self, tmp_path):
        root, _ = make_package_tree(tmp_path)
        started = time.monotonic()
        session, _ = sample_child(meter.PowercapSource(str(root)),
                                  MeterConfig(sample_interval_s=0.5), ("sleep", "0.05"))
        assert time.monotonic() - started < 0.25
        energy = session.stop()
        assert energy.pairs == 1  # the first read and the trailing one
        assert energy.watts == 0.0

    def test_stop_is_idempotent(self, tmp_path):
        source = TraceSource.from_csv(constant_trace(10.0, 5))
        session = meter.SamplingSession(source, MeterConfig(baseline_duration_s=0.0))
        session.start()
        first = session.stop()
        assert session.stop() == first
        assert first.watts == pytest.approx(10.0)
        root, _ = make_package_tree(tmp_path)
        session, _ = sample_child(meter.PowercapSource(str(root)), MeterConfig())
        first = session.stop()
        assert first.pairs >= 1
        assert session.stop() == first

    def test_counter_vanishing_mid_run_is_raised_by_stop(self, tmp_path):
        root, domains = make_package_tree(tmp_path, packages=2)
        counter = domains[1] / "energy_uj"
        session, code = sample_child(
            meter.PowercapSource(str(root)), MeterConfig(sample_interval_s=0.01),
            ("sh", "-c", 'sleep 0.1; rm "$0"; sleep 0.2; exit 3', str(counter)))
        assert code == 3  # the child is still waited for
        for _ in range(2):
            with pytest.raises(ReadFailure) as err:
                session.stop()
            assert err.value.path == str(counter)


class TestMainThreadLoop:
    def test_pairs_match_the_wall_time_over_the_interval(self, tmp_path):
        root, _ = make_package_tree(tmp_path)
        interval = 0.02
        started = time.monotonic()
        session, _ = sample_child(meter.PowercapSource(str(root)),
                                  MeterConfig(sample_interval_s=interval), ("sleep", "0.5"))
        wall = time.monotonic() - started
        assert abs(session.stop().pairs - wall / interval) <= 2

    def test_a_slow_read_is_not_followed_by_a_burst(self, tmp_path):
        root, _ = make_package_tree(tmp_path)
        interval = 0.02
        source = ReadTimes(root, slow_read=3, slow_s=3.5 * interval)
        sample_child(source, MeterConfig(sample_interval_s=interval))
        # the trailing read, on the child's exit, may follow its forerunner closely
        scheduled = source.read_at[:-1]
        gaps = [b - a for a, b in zip(scheduled, scheduled[1:])]
        assert max(gaps) >= 3.5 * interval
        assert min(gaps) > interval / 2

    def test_without_a_pidfd_the_child_is_polled_each_tick(self, tmp_path, monkeypatch):
        def no_pidfd(pid, flags=0):
            raise OSError(errno.ENOSYS, os.strerror(errno.ENOSYS))

        monkeypatch.setattr(os, "pidfd_open", no_pidfd)
        root, _ = make_package_tree(tmp_path)
        interval = 0.05
        started = time.monotonic()
        session, code = sample_child(meter.PowercapSource(str(root)),
                                     MeterConfig(sample_interval_s=interval),
                                     ("sh", "-c", "sleep 0.3; exit 4"))
        # the exit is seen on a later tick, not at the end of some long wait
        assert 0.3 <= time.monotonic() - started < 1.0
        assert code == 4
        assert session.stop().pairs >= 0.3 / interval

    @pytest.mark.parametrize("case", ["live", "replay", "read failure"])
    def test_wait_returns_once_the_child_exits_and_leaves_it_unreaped(self, tmp_path, case):
        root, domains = make_package_tree(tmp_path)
        if case == "replay":
            source = TraceSource.from_csv(constant_trace(10.0, 3))
        else:
            source = meter.PowercapSource(str(root))
        if case == "read failure":
            (domains[0] / "energy_uj").unlink()  # the first read fails
        session = meter.SamplingSession(source, MeterConfig(sample_interval_s=0.01))
        with subprocess.Popen(["sleep", "0.2"]) as child:
            session.start()
            session.wait(child.pid)
            exited = os.waitid(os.P_PID, child.pid, os.WEXITED | os.WNOHANG | os.WNOWAIT)
            assert exited is not None and exited.si_pid == child.pid
            assert child.wait() == 0

    def test_sampling_starts_no_thread(self, tmp_path):
        root, _ = make_package_tree(tmp_path)
        source = ReadTimes(root)
        meter.collect_baseline(source, MeterConfig(sample_interval_s=0.02,
                                                   baseline_duration_s=0.1))
        sample_child(source, MeterConfig(sample_interval_s=0.02))
        assert len(source.threads) > 10
        assert set(source.threads) == {1}

    def test_a_live_run_leaves_no_descriptor_open(self, tmp_path, monkeypatch, capsys):
        root, _ = make_package_tree(tmp_path)
        monkeypatch.setattr(cli, "PowercapSource", lambda: meter.PowercapSource(str(root)))
        options = cli._parser("carbonrun").parse_args(
            ["run", "--offline", "--baseline-duration", "0.1", "--sample-interval", "0.02",
             "sleep", "0.2"])
        before = len(os.listdir("/proc/self/fd"))
        code, doc = cli.run_measured(options.command, options)
        assert (code, doc is not None) == (0, True)
        assert len(os.listdir("/proc/self/fd")) == before


class TestBaseline:
    def test_counter_vanishing_mid_baseline_ends_it_early(self, tmp_path):
        root, domains = make_package_tree(tmp_path, packages=2)
        counter = domains[1] / "energy_uj"
        source = meter.PowercapSource(str(root))
        config = MeterConfig(sample_interval_s=0.05, baseline_duration_s=30.0)
        threading.Timer(0.1, counter.unlink).start()
        started = time.monotonic()
        with pytest.raises(ReadFailure) as err:
            meter.collect_baseline(source, config)
        assert time.monotonic() - started < 1.0
        assert err.value.path == str(counter)

    def test_gpu_power_is_part_of_the_baseline(self, tmp_path, monkeypatch):
        root, _ = make_package_tree(tmp_path)
        monkeypatch.setattr(meter, "read_gpu_power", lambda: 30.0)
        config = MeterConfig(sample_interval_s=0.02, baseline_duration_s=0.2, gpu_enabled=True)
        baseline = meter.collect_baseline(meter.PowercapSource(str(root)), config)
        assert baseline.watts == pytest.approx(30.0)

    def test_baseline_lasts_its_duration(self, tmp_path):
        root, _ = make_package_tree(tmp_path)
        config = MeterConfig(sample_interval_s=0.02, baseline_duration_s=0.2)
        started = time.monotonic()
        baseline = meter.collect_baseline(meter.PowercapSource(str(root)), config)
        assert 0.2 <= time.monotonic() - started < 0.4
        assert baseline.pairs >= 1
        assert baseline.watts == 0.0
        assert 0.2 <= baseline.seconds < 0.4

    def test_a_replay_has_no_baseline(self):
        source = TraceSource.from_csv(constant_trace(10.0, 3))
        assert meter.collect_baseline(source, MeterConfig(baseline_duration_s=5.0)) == Energy()

    def test_zero_duration_reads_nothing(self):
        class Unread:
            virtual_time = False

            def next_instant(self):
                raise AssertionError("a zero-length baseline read a counter")

        assert meter.collect_baseline(Unread(), MeterConfig(baseline_duration_s=0.0)) == Energy()
