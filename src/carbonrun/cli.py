"""Command-line front end: measure a child process and emit the report.

The wrapper is transparent: the child inherits stdio, its stdout is never
touched, and the wrapper exits with the child's exit code.  The report goes
to stderr by default (or a file via --out) so pipelines keep working.
Wrapper-own failures use exit 2 (environment problems) and 127 (the child
could not be spawned).
"""

from __future__ import annotations

import signal
import subprocess
import sys
import time

import click

from . import __version__
from .bench import GuardExceeded, WorkloadShape, WorkloadSpec, run_workload
from .emissions import EquivalencyError, load_equivalency_factors
from .griddata import (
    DatasetSnapshot,
    RegionGroup,
    SchemaError,
    UnknownRegion,
    effective_intensity_kg_per_kwh,
)
from .locate import DEFAULT_CHOICES, resolve_location
from .meter import (
    EmptyProcessSamples,
    MeterConfig,
    NoPowercapInterface,
    PowercapSource,
    ReadFailure,
    SamplingSession,
    collect_baseline,
    summarize,
)
from .report import ReportDocument, build_report, render_html, render_json, render_text
from .traces import TraceError, TraceSource

EXIT_ENVIRONMENT = 2
EXIT_SPAWN = 127


def _fail(message: str) -> int:
    click.echo(f"carbonrun: error: {message}", err=True)
    return EXIT_ENVIRONMENT


measurement_options = [
    click.option("--format", "fmt", type=click.Choice(["text", "json", "html"]),
                 default="text", show_default=True, help="Report format."),
    click.option("--out", type=click.Path(dir_okay=False, writable=True),
                 help="Write the report to a file instead of a stream."),
    click.option("--report-to", type=click.Choice(["stderr", "stdout"]),
                 default="stderr", show_default=True,
                 help="Stream for the report when --out is not given."),
    click.option("--efficiency", type=float, default=0.8, show_default=True,
                 help="Power supply efficiency in (0, 1]."),
    click.option("--sample-interval", type=float, default=0.1, show_default=True,
                 help="Seconds between energy counter reads."),
    click.option("--baseline-duration", type=float, default=5.0, show_default=True,
                 help="Seconds of idle sampling before the command starts."),
    click.option("--no-baseline", is_flag=True,
                 help="Skip the idle baseline phase (baseline wattage = 0)."),
    click.option("--gpu", is_flag=True,
                 help="Add GPU board power (needs nvidia-smi)."),
    click.option("--trace", type=click.Path(exists=True, dir_okay=False),
                 help="Replay a recorded counter trace instead of live sysfs reads."),
    click.option("--location", help="Region name or id to price emissions in."),
    click.option("--default-region", type=click.Choice(sorted(DEFAULT_CHOICES)),
                 default="world", show_default=True,
                 help="Aggregate to assume when no location can be resolved."),
    click.option("--offline", is_flag=True, help="Never call the geolocation API."),
    click.option("--us-data", type=click.Path(exists=True, dir_okay=False),
                 help="Override the embedded US state snapshot CSV."),
    click.option("--intl-data", type=click.Path(exists=True, dir_okay=False),
                 help="Override the embedded country snapshot CSV."),
    click.option("--equivalencies", type=click.Path(exists=True, dir_okay=False),
                 help="Override the equivalency factor table."),
]


def _with_measurement_options(cmd):
    for option in reversed(measurement_options):
        cmd = option(cmd)
    return cmd


@click.group()
@click.version_option(version=__version__, prog_name="carbonrun")
def main():
    """Measure a command's energy use and report its CO2 emissions."""


def run_measured(argv: list[str], **opts) -> tuple[int, ReportDocument | None]:
    """Measure `argv` and render its report; returns (exit code, document)."""
    try:
        snapshot = DatasetSnapshot.load(opts.get("us_data"), opts.get("intl_data"))
        factors = load_equivalency_factors(opts.get("equivalencies"))
    except (SchemaError, EquivalencyError, OSError) as exc:
        return _fail(str(exc)), None

    try:
        resolution = resolve_location(
            snapshot,
            explicit=opts.get("location"),
            default_choice=opts.get("default_region", "world"),
            offline=bool(opts.get("offline")),
        )
    except (UnknownRegion, ValueError) as exc:
        return _fail(str(exc)), None

    trace_path = opts.get("trace")
    try:
        config = MeterConfig(
            sample_interval_s=opts.get("sample_interval", 0.1),
            psu_efficiency=opts.get("efficiency", 0.8),
            baseline_duration_s=(
                0.0 if opts.get("no_baseline") or trace_path
                else opts.get("baseline_duration", 5.0)
            ),
            # GPU polling is wall-clock; it cannot mix with virtual trace time
            gpu_enabled=bool(opts.get("gpu")) and not trace_path,
        )
    except ValueError as exc:
        return _fail(str(exc)), None

    try:
        if trace_path:
            source = TraceSource.from_file(trace_path)
        else:
            source = PowercapSource()
    except (TraceError, ReadFailure, OSError) as exc:
        return _fail(str(exc)), None
    except NoPowercapInterface as exc:
        return (
            _fail(
                f"{exc}. Energy counters need a Linux host with "
                "/sys/class/powercap (Intel RAPL); on other machines use "
                "--trace with a recorded counter file."
            ),
            None,
        )

    try:
        baseline = collect_baseline(source, config)
    except ReadFailure as exc:
        return _fail(str(exc)), None

    try:
        child = subprocess.Popen(argv)
    except (OSError, ValueError) as exc:
        click.echo(f"carbonrun: cannot run {argv[0]!r}: {exc}", err=True)
        return EXIT_SPAWN, None

    session = SamplingSession(source, config)
    started = time.monotonic()
    session.start()

    def forward(signum, frame):
        try:
            child.send_signal(signum)
        except (ProcessLookupError, OSError):
            pass

    previous = {
        sig: signal.signal(sig, forward)
        for sig in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        returncode = child.wait()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    wall = time.monotonic() - started
    samples = session.stop()

    # a child killed by signal N reports -N; use the shell's 128+N style
    exit_code = 128 - returncode if returncode < 0 else returncode
    duration = source.span_s if trace_path else wall

    try:
        summary = summarize(baseline, samples, duration, config)
    except EmptyProcessSamples as exc:
        reason = exc if not session.dropped else (
            f"every counter pair ({session.dropped}) was dropped: a counter fell "
            "between reads (wrap or reset); nothing to report")
        click.echo(f"carbonrun: error: {reason}", err=True)
        return exit_code, None

    doc = build_report(
        summary,
        resolution,
        snapshot,
        factors,
        command=argv[0],
        arguments=tuple(argv[1:]),
    )
    _emit(doc, opts.get("fmt", "text"), opts.get("out"), opts.get("report_to", "stderr"))
    return exit_code, doc


def _emit(doc: ReportDocument, fmt: str, out: str | None, report_to: str) -> None:
    if fmt == "text":
        payload = render_text(doc).encode("utf-8")
    elif fmt == "json":
        payload = render_json(doc)
    else:
        payload = render_html(doc)
    if out:
        with open(out, "wb") as fh:
            fh.write(payload)
        return
    stream = sys.stdout.buffer if report_to == "stdout" else sys.stderr.buffer
    stream.write(payload)
    stream.flush()


@main.command("run", context_settings={"ignore_unknown_options": True})
@_with_measurement_options
@click.argument("command", nargs=-1, type=click.UNPROCESSED)
def cmd_run(command, **opts):
    """Run COMMAND under energy measurement.

    Everything after `--` is the child command line, untouched:

        carbonrun run --offline -- python train.py --epochs 3
    """
    argv = [arg for arg in command if arg != "--"] if "--" in command else list(command)
    if not argv:
        raise click.UsageError("no command given; usage: carbonrun run [flags] -- CMD ...")
    code, _ = run_measured(argv, **opts)
    sys.exit(code)


@main.command("regions")
@click.option("--extremes", "extremes_group",
              type=click.Choice([g.value for g in RegionGroup]),
              help="Print only the lowest/median/highest regions of a group.")
@click.option("--us-data", type=click.Path(exists=True, dir_okay=False))
@click.option("--intl-data", type=click.Path(exists=True, dir_okay=False))
def cmd_regions(extremes_group, us_data, intl_data):
    """List known regions with their effective emission intensities."""
    try:
        snapshot = DatasetSnapshot.load(us_data, intl_data)
    except (SchemaError, OSError) as exc:
        sys.exit(_fail(str(exc)))
    def intensity_label(region):
        kg_mwh = effective_intensity_kg_per_kwh(region, snapshot.intensities) * 1000
        return f"{kg_mwh:7.1f} kg/MWh"

    if extremes_group:
        group = RegionGroup(extremes_group)
        for rank, region in zip(("lowest", "median", "highest"),
                                snapshot.extremes(group)):
            click.echo(
                f"{rank:<8} {region.id:<14} {intensity_label(region)}  "
                f"{region.display_name}"
            )
        return
    for region_id in sorted(snapshot.regions):
        region = snapshot.regions[region_id]
        click.echo(
            f"{region.id:<14} {region.kind.value:<9} {intensity_label(region)}  "
            f"{region.display_name}"
        )


@main.command("bench")
@click.argument("shape", type=click.Choice([s.value for s in WorkloadShape]))
@click.argument("n", type=int)
@click.option("--unit-ops", type=int, default=None,
              help="Additions per work unit (default 50,000,000).")
@_with_measurement_options
def cmd_bench(shape, n, unit_ops, **opts):
    """Measure a synthetic SHAPE workload of size N.

    Shapes: linear (n units), quadratic (n^2), exp (2^n, n <= 30).
    """
    try:
        spec_kwargs = {"shape": WorkloadShape.parse(shape), "n": n}
        if unit_ops is not None:
            spec_kwargs["unit_ops"] = unit_ops
        spec = WorkloadSpec(**spec_kwargs)
    except (GuardExceeded, ValueError) as exc:
        sys.exit(_fail(str(exc)))
    argv = [sys.executable, "-m", "carbonrun", "workload", spec.shape.value, str(spec.n),
            "--unit-ops", str(spec.unit_ops)]
    code, doc = run_measured(argv, **opts)
    if doc is not None:
        click.echo(
            f"bench {spec.shape.value} n={spec.n}: "
            f"{doc.summary.kwh:.6g} kWh, {doc.summary.kg_co2:.2e} kg CO2, "
            f"{doc.readings.duration_s:.2f} s"
        )
    sys.exit(code)


@main.command("workload", hidden=True)
@click.argument("shape", type=click.Choice([s.value for s in WorkloadShape]))
@click.argument("n", type=int)
@click.option("--unit-ops", type=int, default=None)
def cmd_workload(shape, n, unit_ops):
    """Run a bench workload in-process (spawned by `bench`)."""
    try:
        kwargs = {"shape": WorkloadShape.parse(shape), "n": n}
        if unit_ops is not None:
            kwargs["unit_ops"] = unit_ops
        checksum = run_workload(WorkloadSpec(**kwargs))
    except GuardExceeded as exc:
        sys.exit(_fail(str(exc)))
    click.echo(f"checksum {checksum}")


if __name__ == "__main__":
    main()
