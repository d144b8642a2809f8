"""End-to-end and per-layer benchmark of the ``agrivolt`` CLI.

    python3 perfbench/run.py --workload paper-grid --seed 7 --seconds 15 --trace 0

Run from the repository root. The benchmark generates the workload's
inputs from the seed, times ``validate`` on them (set-up), then runs the
workload's command again and again, each time in a fresh
``python -m agrivolt.cli`` process, until ``--seconds`` have passed. CPU
time and peak memory come from the child's ``wait4`` resource usage,
which includes the worker processes it reaped. Every command's artifacts
are checked; see ``workloads.check_artifacts``. With ``--trace 1`` it
then runs the command once more under ``tracing.py`` and reports
per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` count commands, ``metrics`` holds the
metrics named in ``BENCHMARK.json`` with their units. The full record
(environment, input digests, every sample, the spans) goes to
``.perfbench_out/``. Exit status: 0 when every check passed, 1 when one
failed, 2 when the source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

from tracing import layer_metrics
from workloads import (
    DEFAULT_SEED,
    WORKLOADS,
    check_artifacts,
    command_args,
    digest_dir,
    make_inputs,
    setup_args,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"

MIN_COMMANDS = 3  # timed commands per run, however long they take
SETUP_REPEATS = 5  # validate processes per run; set-up is their median
RUN_DEADLINE_S = 150.0  # a hung command is killed so the run ends in time


def use_source_tree() -> None:
    """Make the package and the test-suite input generator importable."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]


@dataclass
class Sample:
    """One command process: wall clock and the rusage ``wait4`` returned."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit: int


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_process(argv: list[str], log: Path, timeout_s: float) -> Sample:
    """Run one process in its own session and reap it with ``wait4``.

    The whole session is killed after ``timeout_s``.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        timer = threading.Timer(timeout_s, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # workers a crashed command left behind
    return Sample(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        exit=proc.returncode,
    )


def environment() -> dict:
    import numpy
    import scipy

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = dirty = None
    if (ROOT / ".git").exists():

        def git(*args: str) -> str:
            return subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()

        try:
            sha = git("rev-parse", "HEAD")
            dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "git_dirty": dirty,
    }


class Bench:
    """One benchmark invocation: inputs, set-up, timed loop, checks, trace."""

    def __init__(self, workload, seed: int, seconds: float, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.threads = min(workload.threads, len(os.sched_getaffinity(0)))
        self.attempted = 0
        self.problems: list[str] = []
        self.failed_runs = 0
        self.reference: dict[str, str] | None = None
        self.record: dict = {}

    # -- running and checking commands ------------------------------------

    def _fail(self, what: str, problems: list[str]) -> None:
        self.failed_runs += 1
        self.problems += [f"{what}: {p}" for p in problems]

    def command(
        self,
        what: str,
        argv_for: Callable[[Path], list[str]],
        prefix: list[str] | None = None,
    ):
        """Run one agrivolt command; return its sample and artifact digests.

        ``argv_for`` gives the CLI arguments for a fresh output directory.
        Digests are None when the command failed any check.
        """
        self.attempted += 1
        n = self.attempted
        log = self.work / f"cmd{n}.log"
        prefix = prefix or [sys.executable, "-m", "agrivolt.cli"]
        out = self.work / f"out{n}"
        timeout = max(1.0, self.deadline - time.perf_counter())
        sample = run_process(prefix + argv_for(out), log, timeout)
        try:
            if sample.exit != 0:
                tail = log.read_text(errors="replace").strip().splitlines()[-3:]
                self._fail(what, [f"exit {sample.exit}: {' | '.join(tail)}"])
                return sample, None
            if not out.is_dir():  # validate writes nothing
                return sample, {}
            digests = digest_dir(out)
            if self.reference is None:
                try:
                    problems = check_artifacts(self.workload, self.inputs, out)
                except (KeyError, ValueError, OSError) as exc:
                    problems = [f"unreadable artifact: {exc!r}"]
                if problems:
                    self._fail(what, problems)
                    return sample, None
                self.reference = digests
            elif digests != self.reference:
                self._fail(what, _digest_diff(self.reference, digests))
                return sample, None
            return sample, digests
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def args(self, threads: int) -> Callable[[Path], list[str]]:
        return lambda out: command_args(self.workload, self.inputs, out, threads)

    # -- the phases of a run ----------------------------------------------

    def generate(self) -> None:
        self.inputs = make_inputs(self.workload, self.seed, self.work)
        self.record["inputs_sha256"] = self.inputs.sha256

    def setup(self) -> float:
        walls = []
        for _ in range(SETUP_REPEATS):
            sample, _ = self.command("setup", lambda out: setup_args(self.workload, self.inputs))
            walls.append(sample.wall_s)
        self.record["setup_walls_s"] = walls
        return statistics.median(walls)

    def timed(self) -> list[Sample]:
        samples = []
        start = time.perf_counter()
        while len(samples) < MIN_COMMANDS or time.perf_counter() - start < self.seconds:
            sample, digests = self.command("command", self.args(self.threads))
            samples.append(sample)
            if self.reference is None:  # nothing to compare later runs with
                break
        self.record["samples"] = [asdict(s) for s in samples]
        return samples

    def cross_checks(self, threads_reference: bool) -> None:
        """Worker count and the golden manifest must not change artifacts."""
        if self.reference is None:
            return
        if threads_reference and self.threads > 1:
            # the same inputs in one process: the parent writes alone, so
            # the artifacts must not depend on the worker count
            self.command("threads=1 reference", self.args(1))
        if self.seed == DEFAULT_SEED:
            key = "hourly-yield" if self.workload.name == "hourly-yield-2w" else self.workload.name
            golden = json.loads(GOLDEN.read_text())[key]
            if golden != self.reference:
                self._fail("golden manifest", _digest_diff(golden, self.reference))

    def traced(self, untraced_wall_s: float) -> dict[str, float]:
        """Per-layer metrics from traced commands (artifacts checked too)."""
        runs = {}
        for threads in sorted({1, self.threads}):
            spans = self.work / f"spans_t{threads}.json"
            run_id = f"{self.workload.name}-{self.seed}-t{threads}"
            prefix = [sys.executable, str(HERE / "tracing.py"), str(spans), run_id, "--"]
            sample, digests = self.command(f"traced threads={threads}", self.args(threads), prefix)
            if digests is None:
                return {}
            trace = json.loads(spans.read_text())
            runs[threads] = (sample, trace, layer_metrics(trace, sample.wall_s))
        self.record["traces"] = {t: trace for t, (_, trace, _) in runs.items()}

        sample, _, metrics = runs[self.threads]
        metrics["trace.overhead_s"] = sample.wall_s - untraced_wall_s
        metrics["scenario.parallel_eff"] = 0.0
        if self.threads > 1:
            one = runs[1][2]["scenario.sweep_s"]
            metrics["scenario.parallel_eff"] = one / (self.threads * metrics["scenario.sweep_s"])
        return metrics

    def run(self, trace: bool) -> dict[str, float]:
        self.generate()
        metrics: dict[str, float] = {}
        if not trace:
            metrics["setup_s"] = self.setup()
        samples = self.timed()
        wall = statistics.median(s.wall_s for s in samples)
        self.cross_checks(threads_reference=not trace)  # traced runs cover both
        if trace:
            return self.traced(wall) if self.reference is not None else {}
        metrics.update(
            wall_s=wall,
            cases_per_s=self.inputs.units / wall,
            mpix_per_s=self.inputs.mpix / wall,
            cpu_s=statistics.median(s.cpu_s for s in samples),
            peak_rss_mb=statistics.median(s.peak_rss_mb for s in samples),
        )
        return metrics


def _digest_diff(want: dict[str, str], got: dict[str, str]) -> list[str]:
    names = sorted(set(want) | set(got))
    differ = [n for n in names if want.get(n) != got.get(n)]
    return [f"{len(differ)} artifacts differ: {', '.join(differ[:5])}"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [
        p for p in ("src/agrivolt/cli.py", "tests/fixturegen.py", "BENCHMARK.json")
        if not (ROOT / p).is_file()
    ]
    if missing:
        print(f"error: {ROOT} lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    use_source_tree()
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}, choose from {sorted(WORKLOADS)}")
    seed = DEFAULT_SEED if args.seed is None else args.seed
    if seed < 0:
        parser.error("--seed must be non-negative")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = ROOT / ".perfbench_work" / f"{args.workload}-{seed}-{os.getpid()}"
    bench = Bench(WORKLOADS[args.workload], seed, seconds, work)
    try:
        values = bench.run(bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = not bench.problems and all(m["name"] in values for m in wanted)
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
        if m["name"] in values
    }
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed_runs,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": seed,
        "seconds": seconds,
        "trace": args.trace,
        "threads": bench.threads,
        "environment": environment(),
        "problems": bench.problems,
        **bench.record,
        "result": result,
    }
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record_path = out_dir / f"{args.workload}_seed{seed}_trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    for problem in bench.problems:
        print(f"FAIL {problem}")
    print(
        f"{args.workload} seed {seed} threads {bench.threads}: "
        f"fail_frac {bench.failed_runs}/{bench.attempted}, record {record_path.name}"
    )
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
