"""Time the cyrisk pipeline on one workload and check every output.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout: the program under test is ``src/cyrisk`` next to
this directory, put first on ``PYTHONPATH``; nothing is installed.

``--trace 0`` times what a user sees. It times three fresh interpreters that
only ``import cyrisk.cli`` (``setup_s``, the median), then runs whole passes
of the six commands in README order, each its own ``python -m cyrisk.cli``
process. It runs at least three passes, and starts another only while it
would end within ``--seconds`` of the start. Each command metric, and
``pass_s``, is the mean over the passes.

``--trace 1`` gives the per-layer figures. It measures import time per
package with ``python -X importtime``, then alternates untraced and traced
in-process passes (``cyrisk.cli.main(argv)``) by the same rule; in a traced
pass the functions the CLI calls are wrapped from ``tracing.py``.

Times are CPU seconds (user + system) of the measured process: of each
child from its rusage, and of this process for in-process passes and
spans. The program is single-threaded and the benchmark pins itself and its
children to one CPU. On a shared virtual machine the wall time also holds
the time the hypervisor took the CPU away (steal), which varied from 0 to
30 % per process on the machine the reference figures come from; CPU time
leaves it out. CPU time still moves with the host's load, so the end-to-end
times are scaled to a reference speed (see ``Clock``); the per-layer times
are not.

Every pass is checked by ``checks.py``. The last line of standard output is
one JSON object: ``correct``, ``attempted`` and ``failed`` (one operation is
one command invocation; a non-zero exit is a failure) and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

SETUP_SAMPLES = 3
IMPORTTIME_SAMPLES = 3
MIN_PASSES = 3
IMPORT = "import cyrisk.cli"

#: The work that gauges the host's speed: numpy's import, outside the program
#: under test, which opens, maps and runs code much as a command's start does.
REFERENCE = "import numpy"
#: CPU seconds ``REFERENCE`` takes on the machine the reference figures come
#: from (the median of 189 runs); times are scaled to that speed.
REFERENCE_S = 0.170


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU. The program is single
    threaded; processes that move between the CPUs of a shared virtual
    machine time about twice as unevenly as pinned ones."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], cwd: Path, log_path: Path) -> tuple[float, int, int]:
    """Run one child process to its end.

    Returns its CPU seconds (user + system, from its rusage), its exit code
    and its peak resident set in KiB.
    """
    with open(log_path, "wb") as sink:
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=sink, stderr=sink)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_utime + usage.ru_stime, proc.returncode, usage.ru_maxrss


class Run:
    """One workload's documents, their expected outputs and the pass checks."""

    def __init__(self, spec: workloads.Workload, seed: int, work: Path):
        self.work = work
        self.out = work / "out"
        self.logs = work / "logs"
        self.logs.mkdir(parents=True)
        self.argvs = workloads.generate(spec, seed, work)
        assess = self.argvs[0]
        share = float(assess[assess.index("--attack-share") + 1])
        self.expected = checks.Expected(work, share)
        self.first_digest: dict[str, str] | None = None
        self.verdicts: dict[tuple, list[str]] = {}
        self.problems: list[str] = []
        self.attempted = self.failed = 0

    def fresh_out(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir()

    def record(self, command: str, code: int) -> None:
        self.attempted += 1
        if code != 0:
            self.failed += 1
            log(f"{command}: exit {code}")

    def check_pass(self, codes: dict[str, int]) -> None:
        """Check a finished pass. Identical bytes give identical verdicts, so a
        pass whose outputs match an earlier one's reuses that verdict."""
        digest = checks.digest(self.out)
        if self.first_digest is None:
            self.first_digest = digest
        problems = checks.check_identical(self.first_digest, digest)
        key = tuple(sorted(digest.items()))
        if key not in self.verdicts:
            found = []
            for command, check in checks.CHECKS.items():
                if codes.get(command) != 0:
                    continue  # a failed operation is counted, not checked
                try:
                    found += check(self.expected, self.out)
                except (OSError, KeyError, ValueError, TypeError) as exc:
                    found.append(f"{command}: unreadable output ({type(exc).__name__}: {exc})")
            self.verdicts[key] = found
        for problem in problems + self.verdicts[key]:
            if problem not in self.problems:
                self.problems.append(problem)
                log(f"CHECK FAILED: {problem}")


def median(values) -> float:
    return float(statistics.median(values))


def another_round(started: float, longest: float, rounds: int, seconds: float) -> bool:
    """Whether to start another round: until ``MIN_PASSES`` rounds are done,
    then while one more, as long as the longest so far, ends within
    ``seconds`` of ``started``. Rounds are whole, so every run attempts the
    same operations in the same proportions."""
    if rounds < MIN_PASSES:
        return True
    return time.perf_counter() - started + longest <= seconds


# ---------------------------------------------------------------------------
# --trace 0: cold processes


def verify_program(run: Run) -> None:
    """Warm the bytecode cache and make sure the checkout's own cyrisk loads."""
    probe = run.logs / "probe.log"
    _, code, _ = spawn(
        [sys.executable, "-c", f"{IMPORT}; print(cyrisk.cli.__file__)"], run.work, probe
    )
    loaded = probe.read_text(errors="replace").strip().splitlines()
    if code != 0 or not loaded or Path(loaded[-1]).resolve() != SRC / "cyrisk" / "cli.py":
        raise SystemExit(f"cannot import cyrisk.cli from {SRC}:\n" + "\n".join(loaded[-20:]))


class Clock:
    """Times child processes in CPU seconds at the reference speed.

    The host's speed drifts by a third and more over tens of seconds, as
    other tenants load it, and every command in a pass moves with it. So
    ``REFERENCE``, a fixed piece of work outside the program, runs right
    before each timed process and once after the last. Each process's CPU
    time is multiplied by ``REFERENCE_S`` over the median CPU time of the
    five references nearest to it (three before, two after, fewer at the
    ends): near enough to follow the drift, and the median keeps one
    reference that hit a short fast or slow spell from setting the scale.
    """

    def __init__(self, run: Run):
        self.run = run
        self.references: list[float] = []
        self.times: list[float] = []

    def reference(self) -> None:
        cpu, code, _ = spawn([sys.executable, "-c", REFERENCE], self.run.work,
                             self.run.logs / "reference.log")
        if code != 0:
            raise SystemExit(f"the reference process failed: exit {code}")
        self.references.append(cpu)

    def time(self, argv: list[str], log_path: Path) -> tuple[int, int, int]:
        """Run ``argv``; return the index of its time, its exit code and peak RSS."""
        self.reference()
        cpu, code, rss = spawn(argv, self.run.work, log_path)
        self.times.append(cpu)
        return len(self.times) - 1, code, rss

    def scaled(self) -> list[float]:
        """Every time so far, in order, scaled to the reference speed."""
        if len(self.references) == len(self.times):
            self.reference()
        return [cpu * REFERENCE_S / statistics.median(self.references[max(0, i - 2):i + 3])
                for i, cpu in enumerate(self.times)]


def cold(run: Run, seconds: float, started: float) -> dict:
    verify_program(run)
    clock = Clock(run)
    setup = []
    for _ in range(SETUP_SAMPLES):
        index, code, _ = clock.time([sys.executable, "-c", IMPORT], run.logs / "setup.log")
        if code != 0:
            raise SystemExit(f"import cyrisk.cli failed: exit {code}")
        setup.append(index)

    passes, peaks = [], []  # passes: {command: index of its time}
    longest = 0.0
    while another_round(started, longest, len(passes), seconds):
        began = time.perf_counter()
        run.fresh_out()
        codes, timed, peak = {}, {}, 0
        for command, argv in zip(workloads.COMMANDS, run.argvs):
            index, code, rss = clock.time([sys.executable, "-m", "cyrisk.cli", *argv],
                                          run.logs / f"{command}.log")
            run.record(command, code)
            codes[command] = code
            timed[command] = index
            peak = max(peak, rss)
        passes.append(timed)
        peaks.append(peak / 1024.0)
        run.check_pass(codes)
        longest = max(longest, time.perf_counter() - began)

    scaled = clock.scaled()
    per_command = {c: [scaled[p[c]] for p in passes] for c in workloads.COMMANDS}
    pass_times = [sum(scaled[i] for i in p.values()) for p in passes]
    for n, p in enumerate(passes):
        log(f"pass {n + 1}: " + ", ".join(
            f"{c} {scaled[i]:.3f} (CPU {clock.times[i]:.3f})" for c, i in p.items())
            + f"; total {pass_times[n]:.3f} s")
    log("host slowdown (reference CPU over REFERENCE_S): "
        + " ".join(f"{r / REFERENCE_S:.2f}" for r in clock.references))

    metrics = {
        "setup_s": (median(scaled[i] for i in setup), "s"),
        "pass_s": (statistics.fmean(pass_times), "s"),
    }
    for command in workloads.COMMANDS[1:]:
        metrics[f"{command}_s"] = (statistics.fmean(per_command[command]), "s")
    metrics["peak_rss_mb"] = (median(peaks), "MB")
    return metrics


# ---------------------------------------------------------------------------
# --trace 1: in-process passes, traced and untraced


def import_times(run: Run) -> dict[str, float]:
    """Cumulative import seconds of cyrisk, scipy and numpy, from -X importtime."""
    samples = {"cyrisk": [], "scipy": [], "numpy": []}
    for _ in range(IMPORTTIME_SAMPLES):
        log_path = run.logs / "importtime.log"
        _, code, _ = spawn([sys.executable, "-X", "importtime", "-c", IMPORT], run.work, log_path)
        if code != 0:
            raise SystemExit(f"import cyrisk.cli failed: exit {code}")
        nodes = []  # (depth, name, cumulative us), in the order printed (post-order)
        for line in log_path.read_text().splitlines():
            if not line.startswith("import time:") or "imported package" in line:
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            depth = (len(name) - len(name.lstrip())) // 2
            nodes.append((depth, name.strip(), int(cumulative)))
        totals = dict.fromkeys(samples, 0)
        ancestors: list[tuple[int, str]] = []
        for depth, name, cumulative in reversed(nodes):  # parents before children
            while ancestors and ancestors[-1][0] >= depth:
                ancestors.pop()
            package = name.split(".")[0]
            if package in totals and not any(a[1] == package for a in ancestors):
                totals[package] += cumulative
            ancestors.append((depth, package))
        for package, total in totals.items():
            samples[package].append(total / 1e6)
    return {package: median(values) for package, values in samples.items()}


def in_process_pass(run: Run, main, tracer: tracing.Tracer | None) -> float:
    run.fresh_out()
    codes, total = {}, 0.0
    for command, argv in zip(workloads.COMMANDS, run.argvs):
        span = tracer.span(f"cli.{command}") if tracer else contextlib.nullcontext()
        start = time.process_time()
        with contextlib.redirect_stdout(io.StringIO()), span:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed operation; keep the run going
                traceback.print_exc()
                code = 1
        total += time.process_time() - start
        run.record(command, code)
        codes[command] = code
    run.check_pass(codes)
    return total


def traced(run: Run, seconds: float, started: float) -> dict:
    imports = import_times(run)
    sys.path.insert(0, str(SRC))
    import cyrisk.cli

    if Path(cyrisk.cli.__file__).resolve() != SRC / "cyrisk" / "cli.py":
        raise SystemExit(f"imported cyrisk.cli from {cyrisk.cli.__file__}, not {SRC}")

    untraced_times, layer_samples = [], []
    gap = longest = 0.0
    while another_round(started, longest, len(layer_samples), seconds):
        began = time.perf_counter()
        untraced_times.append(in_process_pass(run, cyrisk.cli.main, None))
        tracer = tracing.Tracer()
        with tracing.instrumented(tracer):
            in_process_pass(run, cyrisk.cli.main, tracer)
        layer_samples.append(tracing.layer_metrics(tracer))
        gap = max(gap, tracing.unaccounted(tracer))
        longest = max(longest, time.perf_counter() - began)
        log(f"in-process pass: untraced {untraced_times[-1]:.3f} s, "
            f"traced {layer_samples[-1]['trace.pass_s']:.3f} s")
    if gap > 1e-6:
        run.problems.append(f"layer times miss a command's time by {gap:g} s")

    layers = {name: median(s[name] for s in layer_samples) for name in layer_samples[0]}
    untraced_s = median(untraced_times)
    metrics = {
        "cli.import_s": (imports["cyrisk"], "s"),
        "cli.import_scipy_s": (imports["scipy"], "s"),
        "cli.import_numpy_s": (imports["numpy"], "s"),
    }
    for name, value in layers.items():
        metrics[name] = (value, per_layer_unit(name))
    metrics["trace.untraced_pass_s"] = (untraced_s, "s")
    metrics["trace.overhead_pct"] = (100.0 * (layers["trace.pass_s"] - untraced_s) / untraced_s, "%")
    metrics["trace.unaccounted_s"] = (gap, "s")
    return metrics


def per_layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.startswith("share."):
        return "ratio"
    if name == "documents.bytes_written":
        return "bytes"
    return "count"


# ---------------------------------------------------------------------------


def interrupt(signum, frame):
    """On SIGTERM, unwind as on Ctrl-C: the running child is killed and
    waited for, and the scratch directory removed. (A SystemExit would be
    taken for a command's exit code inside an in-process pass.)"""
    raise KeyboardInterrupt


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "cyrisk" / "cli.py").is_file():
        log(f"no program to measure: {SRC / 'cyrisk' / 'cli.py'} is missing")
        return 2

    started = time.perf_counter()
    signal.signal(signal.SIGTERM, interrupt)
    pin_to_one_cpu()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        run = Run(workloads.WORKLOADS[args.workload], args.seed, work)
        metrics = (traced if args.trace else cold)(run, args.seconds, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
