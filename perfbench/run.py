"""Benchmark of the carbonrun wrapper, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --smoke

Closed loop: one wrapper process at a time, started from this process,
each with `--offline` and a scrubbed environment.  With `--trace 0` every
invocation is the real CLI (`python3 -m carbonrun run ...`, or for
live-meter `live_driver.py`, which binds the powercap root), timed from the
outside, and the run reports the end-to-end metrics.  With `--trace 1` it
alternates one such invocation with one `traced.py` process, which runs the
same CLI arguments in-process with spans, and reports the per-layer metrics.
Metric names and units come from BENCHMARK.json.  Every invocation's output
is checked once the timed loop is over; the last line of stdout is the JSON
result.

`--all` runs every workload with `--trace 0` and prints a table; `--smoke`
runs every workload at a tiny size in both modes.  Inputs, helper processes
and synthetic trees live under `.perfbench_work/` in the checkout and are
removed at the end of the run; per-run result files (environment, every
invocation, spans) stay in `.perfbench_work/results/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

import powercap
import traced
from gentrace import TraceSpec

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

REGIONS = ("us-ca", "us-tx", "us-wa", "de", "fr", "in", "br", "jp")
EFFICIENCY = 0.8  # the CLI default; text and HTML print PSU-adjusted kWh
LIVE_INTERVAL_S = 0.01  # the live sampler's interval; replay needs none
ENERGY_TOLERANCE = 0.10  # a report further than this from the truth fails
INVOCATION_TIMEOUT_S = 20.0
MIN_INVOCATIONS = 3
TEXT_SECTIONS = ("Energy Usage Readings", "Energy Mix Data (", "Totals",
                 "Assumed Carbon Equivalencies", "CO2 Emissions Equivalents",
                 "Emission Comparisons")
HTML_SECTIONS = ("<h2>Energy Usage Readings</h2>", "<h2>Energy Mix Data (",
                 "<div class='totals'>", "<h2>Assumed Carbon Equivalencies</h2>",
                 "<h2>CO2 Emissions Equivalents</h2>", "<h2>Emission Comparisons</h2>")
SVG_NAMESPACE = "xmlns='http://www.w3.org/2000/svg'"
EXTERNAL_REF = re.compile(r"https?:|\b(?:src|href)\s*=|url\(|@import|<(?:script|link)\b", re.I)
KWH = re.compile(r"Total kilowatt hours used(?::|</td><td class='num'>)\s*(\S+) kWh")
SYNTHETIC_NOTE = ("live-meter figures come from a synthetic powercap tree advanced by a "
                  "helper process; they are not RAPL hardware numbers")


@dataclass(frozen=True)
class Workload:
    name: str
    fmt: str
    child_s: float
    exit_code: int
    trace: TraceSpec | None = None  # None: live counters from a synthetic tree
    baseline_s: float = 0.0

    @property
    def live(self) -> bool:
        return self.trace is None


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("startup", "text", child_s=0.05, exit_code=3, trace=TraceSpec(100, 1)),
    Workload("long-trace", "json", child_s=0.05, exit_code=0,
             trace=TraceSpec(100_000, 2, jitter=0.3, wrap=True)),
    Workload("live-meter", "html", child_s=6.0, exit_code=0, baseline_s=1.0),
)}
TINY = {
    "startup": replace(WORKLOADS["startup"], trace=TraceSpec(20, 1)),
    "long-trace": replace(WORKLOADS["long-trace"],
                          trace=TraceSpec(2_000, 2, jitter=0.3, wrap=True)),
    "live-meter": replace(WORKLOADS["live-meter"], child_s=0.3, baseline_s=0.1),
}


class CheckFailed(Exception):
    """An invocation's output is wrong."""


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def environment() -> dict:
    try:
        # the ceiling keeps git from finding a repository above the checkout
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "git_commit": commit or "unknown (not a git checkout)",
        "powercap_present": os.path.isdir("/sys/class/powercap"),
        "note": SYNTHETIC_NOTE,
    }


def generate_trace(spec: TraceSpec, seed: int, csv_path: Path, truth_path: Path) -> dict:
    """Write a trace in a separate process, so this one stays small (see `Bench._spawn`)."""
    cmd = [sys.executable, str(BENCH_DIR / "gentrace.py"), "--seed", str(seed),
           "--instants", str(spec.instants), "--domains", str(spec.domains),
           "--jitter", str(spec.jitter),
           "--out", str(csv_path), "--truth", str(truth_path)]
    subprocess.run(cmd + (["--wrap"] if spec.wrap else []), check=True, timeout=120)
    return json.loads(truth_path.read_text())


class Bench:
    """One run's inputs and helper processes; `close` stops and removes them."""

    def __init__(self, workload: Workload, seed: int):
        self.w = workload
        self.seed = seed
        self.region = random.Random(seed).choice(REGIONS)
        self.work = WORK / f"{workload.name}-{seed}-{os.getpid()}"
        self.work.mkdir(parents=True)
        self.env = {"PATH": os.environ.get("PATH", os.defpath), "PYTHONPATH": str(SRC),
                    "LC_ALL": "C.UTF-8", "HOME": str(self.work)}
        self.flag = self.work / "busy"
        self.writer = None
        self.truth = None
        if workload.live:
            self.tree = self.work / "powercap"
            powercap.make_tree(str(self.tree))
            self.writer = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "powercap.py"), str(self.tree), str(self.flag)])
        else:
            self.trace_path = self.work / "trace.csv"
            self.truth = generate_trace(workload.trace, seed, self.trace_path,
                                        self.work / "truth.json")

    def close(self) -> None:
        if self.writer is not None:
            self.writer.terminate()
            try:
                self.writer.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.writer.kill()
                self.writer.wait()
        shutil.rmtree(self.work, ignore_errors=True)

    def child_argv(self, d: Path) -> list[str]:
        argv = ["bash", str(BENCH_DIR / "child.sh"), str(d / "child.txt"), str(self.w.child_s),
                str(self.w.exit_code)]
        return argv + [str(self.flag)] if self.w.live else argv

    def cli_args(self, d: Path) -> list[str]:
        args = ["run", "--offline", "--location", self.region, "--format", self.w.fmt,
                "--out", str(d / f"report.{self.w.fmt}")]
        if self.w.live:
            args += ["--sample-interval", str(LIVE_INTERVAL_S),
                     "--baseline-duration", str(self.w.baseline_s)]
        else:
            args += ["--trace", str(self.trace_path)]
        return [*args, "--", *self.child_argv(d)]

    def wrapper_argv(self, d: Path) -> list[str]:
        if self.w.live:
            return [sys.executable, str(BENCH_DIR / "live_driver.py"), str(self.tree),
                    str(d / "instants.txt"), "--", *self.cli_args(d)]
        return [sys.executable, "-m", "carbonrun", *self.cli_args(d)]

    def _invocation_dir(self, name: str) -> Path:
        d = self.work / name
        d.mkdir()
        for path in (Path(f"{self.flag}.start"), Path(f"{self.flag}.end")):
            path.unlink(missing_ok=True)
        return d

    def _spawn(self, argv: list[str], d: Path) -> dict:
        """Run argv to completion with its output in `d`; return what was observed.

        rusage's peak RSS is the larger of the process's own and that of the
        process it was spawned from at exec time, so this process must stay
        smaller than any wrapper: it generates no trace and imports no
        carbonrun module before the timed loop ends.  `evaluate` checks it.
        """
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_OPEN, 1, str(d / "stdout.txt"), flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, str(d / "stderr.txt"), flags, 0o644)]
        own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        launched = time.time()
        pid = os.posix_spawn(argv[0], argv, self.env, file_actions=actions, setsid=True)
        watchdog = threading.Timer(INVOCATION_TIMEOUT_S, _kill_group, (pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:  # interrupted: leave no process behind
            _kill_group(pid)
            os.waitpid(pid, 0)
            raise
        finally:
            watchdog.cancel()
        return {"dir": d, "launched": launched, "exited": time.time(),
                "code": os.waitstatus_to_exitcode(status), "own_kb": own_kb,
                "maxrss_kb": usage.ru_maxrss, "cpu_s": usage.ru_utime + usage.ru_stime}

    def invoke(self, name: str) -> dict:
        """One CLI invocation, timed from outside."""
        d = self._invocation_dir(name)
        return self._spawn(self.wrapper_argv(d), d)

    def invoke_traced(self, name: str) -> dict:
        """One traced.py process running the same CLI arguments with spans."""
        d = self._invocation_dir(name)
        spec = {
            "cli_args": self.cli_args(d), "format": self.w.fmt, "region": self.region,
            "out": str(d / f"report.{self.w.fmt}"),
            "trace": None if self.w.live else str(self.trace_path),
            "powercap_root": str(self.tree) if self.w.live else None,
            "baseline_s": self.w.baseline_s,
        }
        # the layers this workload does not drive are timed on a fixed probe
        if self.w.live:
            probe = self.work / "probe.csv"
            if not probe.exists():
                generate_trace(WORKLOADS["startup"].trace, self.seed, probe,
                               self.work / "probe-truth.json")
            spec["probe_trace"] = str(probe)
        else:
            probe = self.work / "probe-powercap"
            if not probe.exists():
                powercap.make_tree(str(probe))
            spec["probe_root"] = str(probe)
        (d / "spec.json").write_text(json.dumps(spec))
        return self._spawn([sys.executable, str(BENCH_DIR / "traced.py"),
                            str(d / "spec.json"), str(d / "traced.json")], d)

    def _child_record(self, raw: dict) -> dict:
        """The child's start and end, the wrapper's CPU before and between them,
        and the child's own CPU."""
        first, *times = (raw["dir"] / "child.txt").read_text().splitlines()
        start, end, cpu_ns, setup_ns = first.split()
        start, end = float(start), float(end)
        if not raw["launched"] < start < end < raw["exited"]:
            raise CheckFailed("child timing lies outside the wrapper's lifetime")
        own_cpu = sum(int(m) * 60 + float(s)
                      for m, s in re.findall(r"(\d+)m([\d.]+)s", " ".join(times)))
        return {"start": start, "end": end, "sampler_cpu_s": int(cpu_ns) / 1e9,
                "setup_cpu_s": int(setup_ns) / 1e9, "own_cpu_s": own_cpu}

    def _energy_err_pct(self, exit_code: int, measured_kwh: float, child: dict) -> float:
        if exit_code != self.w.exit_code:
            raise CheckFailed(f"exit code {exit_code}, expected {self.w.exit_code}")
        if self.w.live:
            truth_j = ((powercap.BUSY_W - powercap.IDLE_W) * powercap.PACKAGES
                       * (child["end"] - child["start"]))
        else:
            truth_j = self.truth["joules"]
        err = abs(measured_kwh * 3.6e6 - truth_j) / truth_j
        if not err < ENERGY_TOLERANCE:
            raise CheckFailed(f"reported energy is {err:.1%} off the ground truth")
        return err * 100

    def evaluate(self, raw: dict) -> dict:
        """Check one CLI invocation's output; return its end-to-end values."""
        d = raw["dir"]
        try:
            child = self._child_record(raw)
            report = (d / f"report.{self.w.fmt}").read_bytes()
            measured_kwh = check_report(self.w.fmt, report, self.region)
            err_pct = self._energy_err_pct(raw["code"], measured_kwh, child)
            instants = (int((d / "instants.txt").read_text()) if self.w.live
                        else self.truth["instants"])
        except (OSError, ValueError) as exc:
            raise CheckFailed(f"missing or malformed output: {exc}") from None
        if raw["maxrss_kb"] <= raw["own_kb"]:
            raise RuntimeError("the wrapper's peak RSS is hidden by the benchmark's own")
        wall = raw["exited"] - raw["launched"]
        return {
            "wall_s": wall,
            "setup_s": child["start"] - raw["launched"],
            "post_child_s": raw["exited"] - child["end"],
            # rusage covers the wrapper and the child it waited for; the child
            # is a shell far smaller than the wrapper, and reports its own CPU
            "peak_rss_mb": raw["maxrss_kb"] / 1024,
            "run_cpu_s": raw["cpu_s"] - child["own_cpu_s"] - child["setup_cpu_s"],
            "instants_per_s": instants / wall,
            "sampler_cpu_frac": child["sampler_cpu_s"] / (child["end"] - child["start"]),
            "energy_err_pct": err_pct,
        }

    def evaluate_traced(self, raw: dict) -> dict:
        """Check one traced replay's output; return its spans and per-layer values."""
        d = raw["dir"]
        if raw["code"] != 0:
            raise CheckFailed(f"traced replay exited {raw['code']}")
        try:
            result = json.loads((d / "traced.json").read_text())
            child = self._child_record(raw)
            check_report(self.w.fmt, (d / f"report.{self.w.fmt}").read_bytes(), self.region)
            err_pct = self._energy_err_pct(result["returncode"], result["measured_kwh"], child)
        except (OSError, ValueError) as exc:
            raise CheckFailed(f"missing or malformed output: {exc}") from None
        values = layer_values(result)
        values["meter.energy_err_pct"] = err_pct
        values["traced_total_s"] = result["run_end_unix"] - raw["launched"]
        return {"values": values, "spans": result["spans"]}


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def check_report(fmt: str, payload: bytes, region: str) -> float:
    """Check one report; return the measured (pre-PSU) kWh it states."""
    from carbonrun import report

    if fmt == "json":
        doc = report.parse_report_json(payload)
        if doc.resolution.region_id != region or doc.mix.region_id != region:
            raise CheckFailed(f"JSON report priced in {doc.mix.region_id}, not {region}")
        if report.render_json(doc) != payload:
            raise CheckFailed("JSON report does not round-trip")
        return doc.readings.measured_kwh
    text = payload.decode("utf-8")
    if "(set explicitly)" not in text:
        raise CheckFailed("report does not show the requested location")
    if fmt == "text":
        lines = text.splitlines()
        missing = [h for h in TEXT_SECTIONS if not any(ln.startswith(h) for ln in lines)]
    else:
        missing = [h for h in HTML_SECTIONS if h not in text]
        if EXTERNAL_REF.search(text.replace(SVG_NAMESPACE, "")):
            raise CheckFailed("HTML report has an external reference")
    if missing:
        raise CheckFailed(f"report lacks sections {missing}")
    found = KWH.search(text)
    if not found:
        raise CheckFailed("report states no kWh total")
    return float(found.group(1)) * EFFICIENCY


def import_times(env: dict, runs: int = 3) -> dict[str, float]:
    """Median cumulative import milliseconds of the CLI and its heavy imports."""
    names = ("carbonrun.cli", "carbonrun.locate", "requests", "click")
    samples: dict[str, list[float]] = {name: [] for name in names}
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import carbonrun.cli"],
                              env=env, capture_output=True, text=True,
                              timeout=INVOCATION_TIMEOUT_S, check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e3)
        for name in names:
            samples[name].append(cumulative.get(name, 0.0))  # 0: no longer imported
    return {f"import.{name.split('.')[-1]}_ms": statistics.median(v)
            for name, v in samples.items()}


def layer_values(result: dict) -> dict[str, float]:
    selfs = traced.self_times(result["spans"])
    values = dict(result["values"])
    parse_s = selfs["traces.parse"]
    values.update({
        "griddata.load_ms": selfs["griddata.load"] * 1e3,
        "emissions.load_factors_ms": selfs["emissions.load_factors"] * 1e3,
        "traces.parse_s": parse_s,
        "traces.rows_per_s": values.pop("traces.rows") / parse_s,
        "meter.enumerate_ms": selfs["meter.enumerate"] * 1e3,
        "meter.replay_session_s": selfs["meter.replay_session"],
        "meter.summarize_ms": selfs["meter.summarize"] * 1e3,
        "report.build_ms": selfs["report.build"] * 1e3,
        "report.render_text_ms": selfs["report.render_text"] * 1e3,
        "report.render_json_ms": selfs["report.render_json"] * 1e3,
        "report.render_html_ms": selfs["report.render_html"] * 1e3,
    })
    return values


def tail(values: list[float]) -> dict:
    """The highest listed percentile with at least 10 samples beyond it."""
    n = len(values)
    for pct in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - pct / 100) >= 10:
            cut = statistics.quantiles(values, n=1000, method="inclusive")[round(pct * 10) - 1]
            return {"percentile": pct, "value": cut, "samples": n}
    return {"percentile": None, "value": None, "samples": n}


def run(workload: Workload, seed: int, seconds: float, trace: int,
        min_invocations: int = MIN_INVOCATIONS) -> dict:
    """Measure one workload, then check every output; return the full record."""
    bench = Bench(workload, seed)
    try:
        imports = import_times(bench.env) if trace else {}
        warm_up = bench.invoke("warm-up")  # byte-code caches, page cache
        pairs = []
        deadline = time.monotonic() + seconds
        while len(pairs) < min_invocations or time.monotonic() < deadline:
            i = len(pairs)
            cli = bench.invoke(f"{i}")
            pairs.append((cli, bench.invoke_traced(f"{i}-traced") if trace else None))

        failures, rows = [], []
        try:
            bench.evaluate(warm_up)
        except CheckFailed as exc:
            failures.append(f"warm-up: {exc}")
        for cli, traced_raw in pairs:
            try:
                row = bench.evaluate(cli)
            except CheckFailed as exc:
                failures.append(str(exc))
                row = None
            if traced_raw is not None:
                try:
                    layers = bench.evaluate_traced(traced_raw)
                except CheckFailed as exc:
                    failures.append(f"traced: {exc}")
                    continue
                if row is not None:
                    values = layers["values"]
                    ratio = values.pop("traced_total_s") / row["wall_s"]
                    row = {**values, **imports, "spans": layers["spans"],
                           "meter.sampler_cpu_frac": row["sampler_cpu_frac"],
                           "trace.wall_ratio": ratio}
            if row is not None:
                rows.append(row)
    finally:
        bench.close()
    attempted = 1 + len(pairs) * (2 if trace else 1)
    return {"workload": workload.name, "seed": seed, "trace": trace, "region": bench.region,
            "attempted": attempted, "failures": failures, "rows": rows}


def summarize_run(record: dict, metrics: list[dict]) -> dict:
    rows = record["rows"]
    summary = {m["name"]: {"value": statistics.median(r[m["name"]] for r in rows),
                           "unit": m["unit"]} for m in metrics}
    return {"correct": not record["failures"], "attempted": record["attempted"],
            "failed": len(record["failures"]), "metrics": summary}


def diagnostics(record: dict) -> dict:
    rows = record["rows"]
    if record["trace"]:
        return {}
    return {
        "wall_tail_s": tail([r["wall_s"] for r in rows]),
        "energy_err_pct": statistics.median(r["energy_err_pct"] for r in rows),
        "failed_frac": len(record["failures"]) / record["attempted"],
    }


def report_run(record: dict, result: dict, env: dict) -> None:
    """Print the human-readable lines and keep the full record on disk."""
    print(f"environment: python {env['python']}, nproc {env['nproc']}, "
          f"commit {env['git_commit']}, /sys/class/powercap "
          f"{'present' if env['powercap_present'] else 'absent'}; {env['note']}")
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{len(record['rows'])} measured, {result['attempted']} attempted, "
          f"{result['failed']} failed")
    for failure in record["failures"][:5]:
        print(f"  failed: {failure}")
    for name, m in result["metrics"].items():
        print(f"  {name:<32} {m['value']:>14.6g} {m['unit']}")
    for name, value in diagnostics(record).items():
        print(f"  diagnostic {name}: {value}")
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    with open(out / name, "w") as fh:
        json.dump({"environment": env, "result": result,
                   "diagnostics": diagnostics(record), **record}, fh, indent=1)


def run_each(args, seconds: float, traces: tuple[int, ...], tiny: bool) -> dict:
    """Run every workload in a process of its own; return the results by name."""
    results = {}
    for name in WORKLOADS:
        for trace in traces:
            cmd = [sys.executable, str(Path(__file__)), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd + (["--tiny"] if tiny else []), capture_output=True,
                                  text=True, timeout=900)
            print(proc.stdout, end="")
            print(proc.stderr, end="", file=sys.stderr)
            last = proc.stdout.strip().splitlines()[-1:] if proc.returncode == 0 else []
            results[(name, trace)] = json.loads(last[0]) if last else None
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the carbonrun wrapper.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload, --trace 0")
    parser.add_argument("--smoke", action="store_true", help="every workload once, tiny")
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # a terminated run still stops its helper processes and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "carbonrun" / "cli.py").is_file():
        print(f"perfbench: no carbonrun sources under {SRC}", file=sys.stderr)
        return 2
    if not (args.workload or args.all or args.smoke):
        parser.error("give --workload, --all or --smoke")
    sys.path.insert(0, str(SRC))
    contract = load_contract()
    seconds = contract["run_seconds"] if args.seconds is None else args.seconds

    if args.smoke:
        results = run_each(args, 0, (0, 1), tiny=True)
        ok = all(r is not None and r["correct"] for r in results.values())
        print(json.dumps({"smoke": "pass" if ok else "fail"}))
        return 0 if ok else 1
    if args.all:
        results = run_each(args, seconds, (0,), tiny=False)
        names = [m["name"] for m in contract["end_to_end"]]
        print(f"{'workload':<12}" + "".join(f"{n:>18}" for n in names))
        for (name, _), result in results.items():
            if result is not None:
                print(f"{name:<12}" + "".join(
                    f"{result['metrics'][n]['value']:>12.5g} {result['metrics'][n]['unit']:<5}"
                    for n in names))
        return 0 if all(r is not None and r["correct"] for r in results.values()) else 1

    workload = (TINY if args.tiny else WORKLOADS)[args.workload]
    record = run(workload, args.seed, seconds, args.trace, 1 if args.tiny else MIN_INVOCATIONS)
    if not record["rows"]:
        print(f"perfbench: every invocation failed: {record['failures'][:3]}", file=sys.stderr)
        return 1
    result = summarize_run(record, contract["per_layer" if args.trace else "end_to_end"])
    bad = [name for name, m in result["metrics"].items() if not math.isfinite(m["value"])]
    if bad:
        print(f"perfbench: no finite value for {bad}", file=sys.stderr)
        return 1
    report_run(record, result, environment())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
