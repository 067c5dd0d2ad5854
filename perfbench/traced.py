"""In-process, traced run of one workload's wrapper invocation.

    python3 perfbench/traced.py SPEC_JSON RESULT_JSON

Binds span-recording wrappers to the public functions `carbonrun.cli`
imports (dataset and factor loading, location, the counter sources, the
baseline, the sampling session, integration, report build and rendering),
then calls the real `carbonrun.cli.main` with the workload's CLI arguments.
Each span is (name, start, end, parent).  Afterwards it measures what one
invocation does not isolate, on the objects the wrappers kept: the other
two renderers, per-call costs of small functions, a replay session without
a child, allocation during trace parsing, and the live counter read.
Spans stay in memory and are written to RESULT_JSON at the end, with the
values the harness turns into per-layer metrics (see run.py).

SPEC_JSON is written by run.py; its keys are read in `main`.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager
from types import SimpleNamespace


class Tracer:
    """Collects spans in memory; `self_times` derives each name's self time."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": parent})
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index]["end"] = time.perf_counter()
            self._stack.pop()

    def timed(self, name: str, fn, kept: dict, key: str | None = None):
        """`fn` with a span around each call; its last result is `kept[key]`."""
        def call(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            kept[key or name] = result
            return result
        return call


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per span name: duration minus the time its child spans cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    totals: dict[str, float] = {}
    for s, child_s in zip(spans, covered):
        totals[s["name"]] = totals.get(s["name"], 0.0) + (s["end"] - s["start"]) - child_s
    return totals


class CountingSource:
    """Forwards to a counter source and records when each instant was read."""

    def __init__(self, source):
        self._source = source
        self.virtual_time = source.virtual_time
        self.read_at: list[float] = []

    def __getattr__(self, name):
        return getattr(self._source, name)

    def next_instant(self):
        at = time.perf_counter()
        instant = self._source.next_instant()
        if instant is not None:
            self.read_at.append(at)
        return instant


def instrument(cli, tracer: Tracer, powercap_root: str | None) -> dict:
    """Bind span-recording wrappers in `cli`; return the dict of kept results."""
    from carbonrun import meter

    kept: dict = {}
    timed = tracer.timed
    cli.DatasetSnapshot = SimpleNamespace(
        load=timed("griddata.load", cli.DatasetSnapshot.load, kept, "snapshot"))
    cli.load_equivalency_factors = timed("emissions.load_factors",
                                         cli.load_equivalency_factors, kept)
    cli.resolve_location = timed("locate.resolve", cli.resolve_location, kept, "resolution")
    from_file = cli.TraceSource.from_file
    cli.TraceSource = SimpleNamespace(from_file=timed(
        "traces.parse", lambda path: CountingSource(from_file(path)), kept, "source"))
    cli.PowercapSource = timed(
        "meter.enumerate", lambda: CountingSource(meter.PowercapSource(powercap_root)),
        kept, "source")
    cli.collect_baseline = timed("meter.baseline", cli.collect_baseline, kept)
    cli.summarize = timed("meter.summarize", cli.summarize, kept, "summary")
    cli.build_report = timed("report.build", cli.build_report, kept, "doc")
    for fmt in ("text", "json", "html"):
        name = f"render_{fmt}"
        setattr(cli, name, timed(f"report.{name}", getattr(cli, name), kept))

    class Session(cli.SamplingSession):
        def start(self):
            kept["session_first"] = len(kept["source"].read_at)
            super().start()

        def stop(self):
            with tracer.span("meter.stop"):
                kept["samples"] = super().stop()
            return kept["samples"]

    cli.SamplingSession = Session
    return kept


def per_call_us(fn, calls: int = 200, repeats: int = 5) -> float:
    """Median over `repeats` of the mean microseconds per call."""
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - start) / calls * 1e6)
    return statistics.median(times)


def main(spec_path: str, result_path: str) -> None:
    with open(spec_path) as fh:
        spec = json.load(fh)
    tracer = Tracer()
    span = tracer.span
    values: dict[str, float] = {}

    with span("wrapper"):
        with span("import"):
            from carbonrun import charts, cli, report
            from carbonrun.emissions import comparison_sets
            from carbonrun.griddata import RegionGroup
            from carbonrun.locate import resolve_location
            from carbonrun.meter import MeterConfig, PowercapSource, SamplingSession, \
                collect_baseline
            from carbonrun.traces import TraceSource
        kept = instrument(cli, tracer, spec["powercap_root"])
        returncode = None
        try:
            cli.main(spec["cli_args"], prog_name="carbonrun")
        except SystemExit as exc:
            returncode = exc.code
    run_end_unix = time.time()

    fmt, live = spec["format"], spec["trace"] is None
    source, doc, summary = kept["source"], kept["doc"], kept["summary"]
    session_reads = source.read_at[kept["session_first"]:]
    values["meter.instants_held"] = len(session_reads)
    values["meter.pair_yield"] = len(kept["samples"]) / (len(session_reads) - 1)
    values["report.bytes"] = os.path.getsize(spec["out"])
    for other in ("text", "json", "html"):
        if other != fmt:
            getattr(cli, f"render_{other}")(doc)

    snapshot, resolution = kept["snapshot"], kept["resolution"]
    region = spec["region"]
    values["griddata.lookup_us"] = per_call_us(lambda: snapshot.lookup(region))
    values["griddata.extremes_us"] = per_call_us(
        lambda: [snapshot.extremes(g) for g in RegionGroup])
    values["locate.resolve_offline_us"] = per_call_us(
        lambda: resolve_location(snapshot, explicit=region, offline=True, environ={}))
    values["emissions.comparison_sets_us"] = per_call_us(
        lambda: comparison_sets(summary.adjusted_kwh, snapshot, resolution.region))
    mix = doc.mix.mix
    slices = [(name, getattr(mix, attr), report.MIX_COLORS[name]) for name, attr in
              (("Coal", "coal"), ("Oil", "oil"), ("Natural gas", "natural_gas"),
               ("Low carbon", "low_carbon"))]
    panel = doc.comparisons[0]
    bars = [(row.region_name, row.kg_co2, report.BAR_COLOR) for row in panel.rows]
    values["charts.pie_us"] = per_call_us(lambda: charts.pie_chart(slices))
    values["charts.bar_panel_us"] = per_call_us(lambda: charts.bar_panel(panel.label, bars))

    # live counter reads: the workload's own tree, or a static probe tree
    if live:
        reads = session_reads[:-1]  # the trailing read after stop is not scheduled
        baseline_span = next(s for s in tracer.spans if s["name"] == "meter.baseline")
        overrun_s = baseline_span["end"] - baseline_span["start"] - spec["baseline_s"]
        live_source = source
    else:
        with span("meter.enumerate"):
            live_source = CountingSource(PowercapSource(spec["probe_root"]))
        probe = MeterConfig(sample_interval_s=0.01, baseline_duration_s=0.1)
        with span("meter.baseline"):
            start = time.perf_counter()
            collect_baseline(live_source, probe)
            overrun_s = time.perf_counter() - start - probe.baseline_duration_s
        reads = live_source.read_at
    values["meter.achieved_interval_ms"] = statistics.fmean(
        b - a for a, b in zip(reads, reads[1:])) * 1e3
    values["meter.baseline_overrun_ms"] = overrun_s * 1e3
    values["meter.next_instant_us"] = per_call_us(live_source.next_instant, calls=100)

    # trace parsing and replay: the workload's own trace, or a probe trace
    trace_path = spec["trace"] or spec["probe_trace"]
    if live:
        with span("traces.parse"):
            TraceSource.from_file(trace_path)
    with open(trace_path) as fh:
        values["traces.rows"] = sum(1 for _ in fh) - 1  # minus the header
    tracemalloc.start()
    replay_source = TraceSource.from_file(trace_path)
    values["traces.parse_peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    with span("meter.replay_session"):
        replay = SamplingSession(replay_source, MeterConfig(baseline_duration_s=0.0))
        replay.start()
        replay.stop()

    with open(result_path, "w") as fh:
        json.dump({
            "spans": tracer.spans,
            "values": values,
            "returncode": returncode,
            "measured_kwh": summary.measured_kwh,
            "run_end_unix": run_end_unix,
        }, fh)


if __name__ == "__main__":
    main(*sys.argv[1:])
