"""Command-line front end: measure a child process and emit the report.

The wrapper is transparent: the child inherits stdio, its stdout is never
touched, and the wrapper exits with the child's exit code.  The report goes
to stderr by default (or a file via --out) so pipelines keep working.
Wrapper-own failures use exit 2 (usage and environment problems) and 127
(the child could not be spawned).
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import signal
import sys
from typing import NoReturn

from . import __version__
from .bench import DEFAULT_UNIT_OPS, GuardExceeded, WorkloadShape, WorkloadSpec
from .emissions import RANKS, load_equivalency_factors
from .griddata import DatasetSnapshot, RegionGroup, SchemaError, UnknownRegion
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


def _fail(message: str, code: int = EXIT_ENVIRONMENT) -> int:
    print(f"carbonrun: error: {message}", file=sys.stderr)
    return code


def _exit(code: int) -> NoReturn:
    """Exit with `code` once the report is out, with nothing left to collect.

    Importing the CLI leaves ~17k GC-tracked objects (11k of them in a bare
    interpreter; the rest argparse, urllib and this package)
    that interpreter shutdown would scan in full collections, milliseconds
    after the child has exited.  Freezing them first skips that scan.
    Freezing any earlier would pin garbage that the run could otherwise
    reuse.  `main` keeps the freeze for callers that run it in-process and
    then shut the interpreter down in full; the `carbonrun` program
    (`program`) skips shutdown instead: it runs the atexit handlers, flushes
    stdout and stderr, and ends with `os._exit`.
    """
    gc.freeze()
    sys.exit(code)


def run_measured(
    argv: list[str], options: argparse.Namespace
) -> tuple[int, ReportDocument | None]:
    """Measure `argv` with the measurement options of `run` or `bench`, as
    `_parser` builds them, and render its report; returns (exit code, document).
    Live or replayed, the duration is the session's `span_s`, the span of its
    reads; the meter leaves out what a replay does not record (baseline, GPU)."""
    # an ignored SIGCHLD, which a parent may leave set across exec, would have
    # the command and `nvidia-smi` reaped unasked and their exit status lost
    signal.signal(signal.SIGCHLD, signal.SIG_DFL)
    try:
        snapshot = DatasetSnapshot.load(options.us_data, options.intl_data)
        factors = load_equivalency_factors(options.equivalencies)
        resolution = resolve_location(
            snapshot,
            explicit=options.location,
            default_choice=options.default_region,
            offline=options.offline,
        )
        config = MeterConfig(
            sample_interval_s=options.sample_interval,
            psu_efficiency=options.efficiency,
            baseline_duration_s=options.baseline_duration,
            gpu_enabled=options.gpu,
        )
        if options.no_baseline:
            config = config._replace(baseline_duration_s=0.0)
        source = TraceSource.from_file(options.trace) if options.trace else PowercapSource()
        baseline = collect_baseline(source, config)
        session = SamplingSession(source, config)
    except NoPowercapInterface as exc:
        return (
            _fail(
                f"{exc}. Energy counters need a Linux host with "
                "/sys/class/powercap (Intel RAPL); on other machines use "
                "--trace with a recorded counter file."
            ),
            None,
        )
    except (SchemaError, UnknownRegion, TraceError, ReadFailure, ValueError, OSError) as exc:
        return _fail(str(exc)), None

    try:
        # SIGPIPE and SIGXFSZ at their defaults, not ignored as Python has
        # them; descriptors carbonrun inherited stay open, as under `time`
        pid = os.posix_spawnp(argv[0], argv, os.environ,
                              setsigdef=(signal.SIGPIPE, signal.SIGXFSZ))
    except (OSError, ValueError) as exc:
        print(f"carbonrun: cannot run {argv[0]!r}: {exc}", file=sys.stderr)
        return EXIT_SPAWN, None

    def forward(signum, frame):
        try:
            os.kill(pid, signum)
        except OSError:
            pass  # a setuid child, such as sudo's, answers EPERM

    # from here on the signals go to the child, also during the first read;
    # it is reaped only once they are restored, so they cannot reach a
    # process that took over its pid
    previous = {
        sig: signal.signal(sig, forward)
        for sig in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP, signal.SIGQUIT)
    }
    try:
        session.start()
        session.wait(pid)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)

    # a child killed by signal N gives -N; use the shell's 128+N style
    returncode = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    exit_code = 128 - returncode if returncode < 0 else returncode
    try:
        summary = summarize(baseline, session.stop(), session.span_s, config)
    except ReadFailure as exc:
        return _fail(f"sampling stopped: {exc}", exit_code), None
    except EmptyProcessSamples as exc:
        return _fail(str(exc), exit_code), None

    try:
        doc = build_report(
            summary,
            resolution,
            snapshot,
            factors,
            command=argv[0],
            arguments=tuple(argv[1:]),
        )
    except ValueError as exc:
        return _fail(str(exc), exit_code), None
    try:
        _emit(doc, options.fmt, options.out, options.report_to)
    except OSError as exc:
        if not options.out:
            raise  # a closed stream, which `main` handles
        return _fail(f"cannot write report: {exc}", exit_code), None
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


RUN_DESCRIPTION = """\
Run COMMAND under energy measurement.

Options go before COMMAND.  COMMAND and every argument after it, `--`
included, are the child's command line, untouched; one `--` before COMMAND
ends the options and is dropped:

    carbonrun run --offline -- python train.py --epochs 3
"""

BENCH_DESCRIPTION = """\
Measure a synthetic SHAPE workload of size N.

Shapes: linear (n units), quadratic (n^2), exp (2^n, n <= 30).
"""


def cmd_run(options: argparse.Namespace) -> int:
    argv = options.command
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if not argv:
        return _fail("no command given; usage: carbonrun run [flags] -- CMD ...")
    code, _ = run_measured(argv, options)
    return code


# the kind column of the `regions` listing; aggregates belong to no group
REGION_KINDS = {RegionGroup.US: "us_state", RegionGroup.EUROPE: "country",
                RegionGroup.GLOBAL: "country", None: "aggregate"}


def cmd_regions(options: argparse.Namespace) -> int:
    try:
        snapshot = DatasetSnapshot.load(options.us_data, options.intl_data)
    except (SchemaError, OSError) as exc:
        return _fail(str(exc))
    def intensity_label(region):
        return f"{region.kg_co2_per_kwh * 1000:7.1f} kg/MWh"

    if options.extremes_group:
        group = RegionGroup(options.extremes_group)
        for rank, region in zip(RANKS, snapshot.extremes(group)):
            print(
                f"{rank:<8} {region.id:<14} {intensity_label(region)}  "
                f"{region.display_name}"
            )
        return 0
    for region_id in sorted(snapshot.regions):
        region = snapshot.regions[region_id]
        print(
            f"{region.id:<14} {REGION_KINDS[region.group]:<9} {intensity_label(region)}  "
            f"{region.display_name}"
        )
    return 0


def cmd_bench(options: argparse.Namespace) -> int:
    try:
        spec = WorkloadSpec(WorkloadShape(options.shape), options.n, options.unit_ops)
    except GuardExceeded as exc:
        return _fail(str(exc))
    argv = [sys.executable, "-m", "carbonrun.bench", spec.shape.value, str(spec.n),
            str(spec.unit_ops)]
    code, doc = run_measured(argv, options)
    if doc is not None:
        print(
            f"bench {spec.shape.value} n={spec.n}: "
            f"{doc.summary.kwh:.6g} kWh, {doc.summary.kg_co2:.2e} kg CO2, "
            f"{doc.readings.duration_s:.2f} s"
        )
    return code


def _existing_file(path: str) -> str:
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"file {path!r} does not exist")
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"file {path!r} is a directory")
    return path


def _output_file(path: str) -> str:
    if not path:
        raise argparse.ArgumentTypeError("the report file name is empty")
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"file {path!r} is a directory")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise argparse.ArgumentTypeError(f"the directory of file {path!r} does not exist")
    if os.path.exists(path) and not os.access(path, os.W_OK):
        raise argparse.ArgumentTypeError(f"file {path!r} is not writable")
    return path


def _add_measurement_options(parser: argparse.ArgumentParser) -> None:
    add = parser.add_argument
    add("--format", dest="fmt", choices=["text", "json", "html"], default="text",
        help="Report format (default: %(default)s).")
    add("--out", type=_output_file, metavar="FILE",
        help="Write the report to a file instead of a stream.")
    add("--report-to", choices=["stderr", "stdout"], default="stderr",
        help="Stream for the report when --out is not given (default: %(default)s).")
    defaults = MeterConfig._field_defaults
    add("--efficiency", type=float, default=defaults["psu_efficiency"], metavar="FLOAT",
        help="Power supply efficiency in (0, 1] (default: %(default)s).")
    add("--sample-interval", type=float, default=defaults["sample_interval_s"],
        metavar="FLOAT", help="Seconds between energy counter reads (default: %(default)s).")
    add("--baseline-duration", type=float, default=defaults["baseline_duration_s"],
        metavar="FLOAT",
        help="Seconds of idle sampling before the command starts (default: %(default)s).")
    add("--no-baseline", action="store_true",
        help="Skip the idle baseline phase (baseline wattage = 0).")
    add("--gpu", action="store_true", help="Add GPU board power (needs nvidia-smi).")
    add("--trace", type=_existing_file, metavar="FILE",
        help="Replay a recorded counter trace instead of live sysfs reads.")
    add("--location", metavar="TEXT", help="Region name or id to price emissions in.")
    add("--default-region", choices=sorted(DEFAULT_CHOICES), default="world",
        help="Aggregate to assume when no location can be resolved (default: %(default)s).")
    add("--offline", action="store_true", help="Never call the geolocation API.")
    _add_data_options(parser)
    add("--equivalencies", type=_existing_file, metavar="FILE",
        help="Override the equivalency factor table.")


def _add_data_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--us-data", type=_existing_file, metavar="FILE",
                        help="Override the embedded US state snapshot CSV.")
    parser.add_argument("--intl-data", type=_existing_file, metavar="FILE",
                        help="Override the embedded country snapshot CSV.")


def _parser(prog_name: str) -> argparse.ArgumentParser:
    """The command line; each subcommand sets `handler`, which returns the exit code."""
    def command(name, handler, description=None, **kwargs):
        sub = commands.add_parser(
            name, description=description, add_help=False, allow_abbrev=False,
            formatter_class=argparse.RawDescriptionHelpFormatter, **kwargs)
        sub.add_argument("--help", action="help", help="Show this message and exit.")
        sub.set_defaults(handler=handler)
        return sub

    parser = argparse.ArgumentParser(
        prog=prog_name, add_help=False, allow_abbrev=False,
        description="Measure a command's energy use and report its CO2 emissions.")
    parser.add_argument("--version", action="version", version=f"carbonrun, version {__version__}",
                        help="Show the version and exit.")
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    commands = parser.add_subparsers(title="commands", required=True)

    run = command("run", cmd_run, RUN_DESCRIPTION, help="Run COMMAND under energy measurement.")
    _add_measurement_options(run)
    run.add_argument("command", nargs=argparse.REMAINDER, metavar="COMMAND",
                     help="The command line to measure.")

    regions = command("regions", cmd_regions,
                      help="List known regions with their effective emission intensities.")
    regions.add_argument("--extremes", dest="extremes_group",
                         choices=[g.value for g in RegionGroup],
                         help="Print only the lowest/median/highest regions of a group.")
    _add_data_options(regions)

    bench = command("bench", cmd_bench, BENCH_DESCRIPTION,
                    help="Measure a synthetic SHAPE workload of size N.")
    bench.add_argument("shape", choices=[s.value for s in WorkloadShape], metavar="SHAPE")
    bench.add_argument("n", type=int, metavar="N")
    bench.add_argument("--unit-ops", type=int, metavar="INT", default=DEFAULT_UNIT_OPS,
                       help=f"Additions per work unit (default {DEFAULT_UNIT_OPS:,}).")
    _add_measurement_options(bench)
    return parser


def main(args: list[str] | None = None, prog_name: str = "carbonrun") -> NoReturn:
    """Parse `args` (default: `sys.argv[1:]`), run the subcommand, and exit
    with its code; a usage error exits 2."""
    for name in ("stdout", "stderr"):
        if getattr(sys, name) is None:
            # closed before carbonrun started (`>&-`): write into a pipe with
            # no reader, so that writing fails as into a closed pipe; the
            # child still finds the descriptor closed, as under `time`
            read_end, write_end = os.pipe()
            os.close(read_end)
            setattr(sys, name, open(write_end, "w", buffering=1, closefd=False))
    try:
        try:
            options = _parser(prog_name).parse_args(args)
        except SystemExit:
            sys.stdout.flush()  # the --help or --version text
            raise
        code = options.handler(options)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away, as under `| head`: exit 1 quietly, and let
        # the flushes at exit write to /dev/null instead of failing again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.dup2(devnull, sys.stderr.fileno())
        code = 1
    except KeyboardInterrupt:
        # before the child starts or after it exits; while it runs, SIGINT
        # goes to the child
        print("\nAborted!", file=sys.stderr)
        code = 1
    _exit(code)


def program() -> NoReturn:
    """The `carbonrun` program: `main`, then exit without tearing the heap down.

    Once `main` is done the report file is closed and the child reaped, so
    interpreter shutdown would only free objects the kernel frees anyway,
    and it costs more than the report itself.  The exit code is the one
    `sys.exit` would give; atexit handlers still run and stdout and stderr
    are flushed, but finalizers of objects still alive do not run.
    carbonrun starts no thread, which shutdown would wait for.
    """
    try:
        main()
    except SystemExit as exc:
        code = exc.code
    if code is None:
        code = 0
    elif not isinstance(code, int):
        print(code, file=sys.stderr)
        code = 1
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            code = 120  # as the interpreter's own exit does when a flush fails
    os._exit(code)


if __name__ == "__main__":
    program()
