"""Benchmark of the superx command line, one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every command of the workload runs
in a fresh interpreter (``bench/child.py``) with ``src`` on the path and its
cache pointed into a temporary directory under the checkout.  One child runs
at a time.  Iterations repeat, closed loop, until S seconds have passed;
every result is checked against ``bench/pinned.json``.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json:
the median iteration time without interpreter start-up (``wall_s``), the
median CPU time a fresh interpreter spends until ``superx.cli`` is imported
(``setup_s``) and the median peak resident memory of an iteration's largest
process (``peak_rss_mb``).
With ``--trace 1`` iterations alternate between plain and traced ones and
the metrics are the per-layer ones: median self time and exact counts per
traced function, and the tracing overhead.

The seed only orders the commands of a workload; the computations take no
random input.  The last line of output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import tracing
from workloads import WORKLOADS, check, load_pins

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
# Start-up probes before and again after the measured iterations, to sample both ends of the run.
SETUP_PROBES = 3
# Every child must end this long after the benchmark starts, so a run ends within 180 s.
DEADLINE_S = 165


class ChildFailed(Exception):
    pass


class Runner:
    """Spawns the children of one benchmark run inside a private work directory."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        # A relative cache directory keeps the CLI output the same in any checkout.
        self.env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            SUPERX_CACHE_DIR="cache",
            XDG_CACHE_HOME=str(work / "xdg"),
        )
        # Children keep bytecode caches, as an installed package does, whatever the caller's setting.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        # CPU time to superx.cli imported, and the wall time from spawn to the same point.
        self.setup_samples: list[float] = []
        self.setup_wall_samples: list[float] = []

    def spawn(self, flags: list[str], argv=()) -> tuple[dict, str]:
        record_path = self.work / "record.json"
        out_path = self.work / "stdout.txt"
        record_path.unlink(missing_ok=True)
        what = " ".join(argv) or "import"
        with open(out_path, "wb") as out:
            started = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), str(record_path), *flags, "--", *argv],
                cwd=self.work,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=out,
            )
            try:
                proc.wait(timeout=max(0.0, self.deadline - started))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise ChildFailed(f"{what}: stopped at the run's {DEADLINE_S} s deadline") from None
        if proc.returncode != 0 or not record_path.exists():
            raise ChildFailed(f"{what}: child exited with {proc.returncode}")
        record = json.loads(record_path.read_text())
        self.setup_samples.append(record["imported_cpu"])
        # perf_counter is the system-wide monotonic clock, shared with the child.
        self.setup_wall_samples.append(record["imported"] - started)
        return record, out_path.read_text()


class Iteration:
    def __init__(self):
        self.wall_s = 0.0
        self.rss_mb = 0.0
        self.command_s: dict[str, float] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}


def run_iteration(runner: Runner, commands, pins, trace: bool) -> Iteration:
    shutil.rmtree(runner.work / "cache", ignore_errors=True)
    it = Iteration()
    for command in commands:
        it.attempted += 1
        flags = (["--trace"] if trace else []) + (["--digest"] if command.digest else [])
        try:
            record, text = runner.spawn(flags, command.argv)
        except ChildFailed as exc:
            it.failed += 1
            it.problems.append(str(exc))
            continue
        seconds = record["end"] - record["start"]
        it.command_s[command.key] = seconds
        it.wall_s += seconds
        it.rss_mb = max(it.rss_mb, record["max_rss_kb"] / 1024)
        problems = check(command, record["exit"], text, record, pins)
        it.failed += bool(problems)
        it.problems += problems
        if trace:
            for name, s in tracing.span_times(record["spans"]).items():
                it.self_s[name] = it.self_s.get(name, 0.0) + s
            for name, n in record["counts"].items():
                it.counts[name] = it.counts.get(name, 0) + n
    return it


def _read(path) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def _commit() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if head.startswith("ref: "):
        return _read(ROOT / ".git" / head[5:]) or head[5:]
    return head or "unknown (not a git checkout)"


def machine(seed: int) -> dict:
    model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines() if line.startswith("model name")),
        platform.processor(),
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        caches[f"L{level} {kind}"] = size
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "loadavg_start": list(os.getloadavg()),
        "commit": _commit(),
        "seed": seed,
    }


def tail_percentile(samples: list[float]):
    """(p, value) for the highest of p99, p95, p90, p75 with ten samples above it."""
    for p in (99, 95, 90, 75):
        if len(samples) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(samples, n=100)[p - 1]
    return None


def end_to_end(plain: list[Iteration], runner: Runner) -> dict[str, float]:
    walls = [it.wall_s for it in plain]
    tail = tail_percentile(walls)
    print(f"wall_s over {len(walls)} iterations; " + (f"p{tail[0]} {tail[1]:.4f} s" if tail else "too few for a tail percentile"))
    print(
        f"setup over {len(runner.setup_samples)} interpreters; "
        f"median wall time from spawn {statistics.median(runner.setup_wall_samples):.4f} s"
    )
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(runner.setup_samples),
        "peak_rss_mb": statistics.median(it.rss_mb for it in plain),
    }


def check_counts(traced: list[Iteration]) -> None:
    """Counts repeat exactly for the same code and inputs; a traced iteration that differs fails."""
    for it in traced[1:]:
        if it.counts != traced[0].counts:
            it.failed += 1
            it.problems.append("per-layer counts differ from the first traced iteration's")


def per_layer(spec: dict, plain: list[Iteration], traced: list[Iteration]) -> dict[str, float]:
    """Median self times and the counts of the first traced iteration, by metric name."""
    counts = traced[0].counts
    self_s = [it.self_s for it in traced]
    traced_wall = statistics.median(it.wall_s for it in traced)
    values = {
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - statistics.median(it.wall_s for it in plain),
    }
    for m in spec["per_layer"]:
        name = m["name"]
        if name in values:
            continue
        if name.endswith(".s"):
            values[name] = statistics.median(s.get(name[:-2], 0.0) for s in self_s)
        else:
            values[name] = counts.get(name, 0)
    top = sorted(traced[0].self_s.items(), key=lambda kv: -kv[1])[:12]
    print("top self time: " + ", ".join(f"{n}={s:.3f}s" for n, s in top))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "superx" / "cli.py").is_file():
        print(f"bench: no superx source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pins = load_pins()
    workload = WORKLOADS[args.workload]
    commands = list(workload.commands)
    if not workload.in_order:
        random.Random(args.seed).shuffle(commands)
    info = machine(args.seed)
    print(f"bench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("order " + " ".join(c.key for c in commands))

    plain: list[Iteration] = []
    traced: list[Iteration] = []
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
        runner = Runner(Path(tmp), deadline=time.perf_counter() + DEADLINE_S)
        runner.spawn(["--probe"])  # writes the bytecode caches; not a sample
        runner.setup_samples.clear()
        runner.setup_wall_samples.clear()
        for _ in range(SETUP_PROBES):
            runner.spawn(["--probe"])
        start = time.perf_counter()
        while True:
            plain.append(run_iteration(runner, commands, pins, trace=False))
            if args.trace:
                traced.append(run_iteration(runner, commands, pins, trace=True))
            if time.perf_counter() - start >= args.seconds:
                break
        for _ in range(SETUP_PROBES):
            runner.spawn(["--probe"])
    info["loadavg_end"] = list(os.getloadavg())
    check_counts(traced)
    print("machine " + json.dumps(info, sort_keys=True))

    for kind, its in (("plain", plain), ("traced", traced)):
        for it in its:
            parts = " ".join(f"{k}={s:.3f}s" for k, s in it.command_s.items())
            print(f"{kind} iteration: {parts} rss={it.rss_mb:.1f}MB {'FAILED' if it.failed else 'ok'}")
            for problem in it.problems:
                print(f"  check failed: {problem}")
    for c in commands:
        times = [it.command_s[c.key] for it in plain if c.key in it.command_s]
        if times:
            print(f"command {c.key}: median {statistics.median(times):.4f} s over {len(times)}")

    if args.trace:
        wanted, values = spec["per_layer"], per_layer(spec, plain, traced)
    else:
        wanted, values = spec["end_to_end"], end_to_end(plain, runner)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{name} {m['value']:{'d' if isinstance(m['value'], int) else '.6g'}} {m['unit']}")
    attempted = sum(it.attempted for it in plain + traced)
    failed = sum(it.failed for it in plain + traced)
    print(f"ops_failed_ratio {failed}/{attempted} = {failed / attempted:.3g}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
