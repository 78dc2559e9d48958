"""The blochtower benchmark: cold CLI processes on a ladder of fields.

Run from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each workload runs the ``blochtower`` CLI from ``src/`` as cold processes,
one per field, one after another (a closed loop with one client):

* ``ladders``: ``verify --suite all`` at q = 27, 32, 37 (an extension of
  char 3, char 2, a prime), then ``prebloch`` at q = 49, 61, 64.
* ``fuzz``: ``laurent-fuzz --q 5 --precision 64 --samples 1500``, then
  ``laurent-fuzz --q 31 --precision 8 --samples 2000``.

A pass runs every command of the workload once; passes repeat while at
least half of another one fits in ``--seconds``, and every report is
checked by ``gate.py``.

``--trace 0`` prints the end-to-end metrics:

* ``wall_s``: median over passes of the summed wall time of the pass's
  CLI processes, from launch to exit.
* ``setup_s``: median over cold processes that start the interpreter,
  import ``blochtower.cli`` and call ``field_from_q`` for the workload's
  fields, i.e. everything before the first presentation is built.
* ``peak_rss_mb``: the highest ``ru_maxrss`` of any CLI process.

``--trace 1`` makes the same untraced passes, then one traced pass: each
field runs in ``traced_cli.py``, which replays the CLI in-process with spans
around the layer calls (see ``spans.py`` for the metric list).  The tracing
overhead is the traced wall time minus the untraced median.

The seed goes only to the fuzz commands' ``--seed``; the ladders do not
depend on it.  The line before the result holds ungated context: the
``src/`` line count, the Python version, the CPU count, the error rate and
the sample count behind each metric.  A directory without ``src/`` is
refused with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from gate import c_order, check_report, reference_report, without_timing
from spans import layer_metrics, per_layer_metrics

DEFAULT_SEED = 24301  # the CLI's own fuzz default
SETUP_SAMPLES = 11
CLI_TIMEOUT = 60  # seconds per process; verify at q=37, the slowest, takes 7-12 s on 2 vCPUs

# Each workload is one pass of cold CLI processes, one per field.  The two
# ladders share a pass and so do the two fuzz runs: on a shared two-CPU box
# single processes vary by 10-20%, and only a long window per run keeps
# the run-to-run spread under the bounds, which leaves time for two
# workloads.  The traced run still separates every layer of each command.
WORKLOADS = {
    "ladders": [["verify", "--q", q, "--suite", "all"] for q in ("27", "32", "37")]
    + [["prebloch", "--q", q] for q in ("49", "61", "64")],
    "fuzz": [
        ["laurent-fuzz", "--q", q, "--precision", precision, "--samples", samples, "--seed", "SEED"]
        for q, precision, samples in (("5", "64", "1500"), ("31", "8", "2000"))
    ],
}

SETUP_CODE = (
    "import sys, blochtower.cli\n"
    "from blochtower.finite_field import field_from_q\n"
    "for q in sys.argv[1:]:\n"
    "    field_from_q(int(q))\n"
)

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def commands(workload: str, seed: int) -> list[list[str]]:
    """The CLI argument lists of one pass of the workload."""
    return [[str(seed) if a == "SEED" else a for a in argv] for argv in WORKLOADS[workload]]


class Bench:
    """Runs one workload's processes in a checkout and gates their reports."""

    def __init__(self, root: Path):
        self.root = root
        self.src = root / "src"
        self.work = root / ".perfbench"
        self.work.mkdir(exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def spawn(self, args: list[str], timeout: float) -> tuple[float, float, int]:
        """Run a child to completion: (wall seconds, peak RSS in MB, exit code)."""
        with open(self.work / "stderr.log", "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(args, cwd=self.root, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: stop the child before leaving
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024, proc.returncode

    def _record(self, argv: list[str], problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{' '.join(argv)}: {p}" for p in problems]

    def _report_problems(self, code: int, out: Path, reference: str) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        return check_report(out.read_text(encoding="utf-8"), reference)

    def setup(self, fields: list[str]) -> list[float]:
        """Cold-start samples; the first, untimed run writes the bytecode caches."""
        args = [sys.executable, "-c", SETUP_CODE, *fields]
        samples = []
        for _ in range(SETUP_SAMPLES + 1):
            wall, _rss, code = self.spawn(args, CLI_TIMEOUT)
            if code != 0:
                raise RuntimeError(f"set-up process exited with {code}; see {self.work / 'stderr.log'}")
            samples.append(wall)
        return samples[1:]

    def untraced_passes(self, cmds, refs, seconds: float) -> tuple[list[float], float]:
        """Pass walls and the peak RSS over every process.

        A pass starts while at least half of a median-length pass would
        fall within ``seconds``; the first pass always runs.
        """
        out = self.work / "report.json"
        walls: list[float] = []
        peak = 0.0
        start = time.perf_counter()
        while not walls or time.perf_counter() - start + statistics.median(walls) / 2 < seconds:
            total = 0.0
            for argv, ref in zip(cmds, refs):
                out.unlink(missing_ok=True)
                wall, rss, code = self.spawn(
                    [sys.executable, "-m", "blochtower.cli", *argv, "--out", str(out)], CLI_TIMEOUT
                )
                self._record(argv, self._report_problems(code, out, ref))
                total += wall
                peak = max(peak, rss)
            walls.append(total)
        return walls, peak

    def traced_pass(self, cmds, refs) -> list[dict]:
        """One traced process per field; returns what each one recorded."""
        out, result = self.work / "report.json", self.work / "trace.json"
        traced_cli = Path(__file__).resolve().parent / "traced_cli.py"
        runs = []
        for argv, ref in zip(cmds, refs):
            out.unlink(missing_ok=True)
            result.unlink(missing_ok=True)
            wall, _rss, code = self.spawn(
                [sys.executable, str(traced_cli), str(self.src), str(result), *argv, "--out", str(out)],
                CLI_TIMEOUT,
            )
            if code != 0:
                self._record(argv, [f"traced process exit code {code}"])
                continue
            run = json.loads(result.read_text(encoding="utf-8"))
            problems = self._report_problems(run["returncode"], out, ref)
            for q, order in run["facts"].get("c_orders", []):
                if order != c_order(q):
                    problems.append(f"q={q}: c has order {order}, expected {c_order(q)}")
            self._record(argv, problems)
            if not problems:
                run["wall"] = wall
                run["report_bytes"] = len(without_timing(json.loads(out.read_text(encoding="utf-8"))).encode())
                runs.append(run)
        return runs


def src_lines(src: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(src.rglob("*.py")))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="fuzz seed; the ladders ignore it")
    parser.add_argument("--seconds", type=float, default=50.0, help="how long the untraced passes repeat")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "blochtower" / "cli.py").is_file():
        print(f"error: no blochtower sources under {root / 'src'}", file=sys.stderr)
        return 2
    bench = Bench(root)
    cmds = commands(args.workload, args.seed)
    refs = [reference_report(bench.work / "reference", argv) for argv in cmds]
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": args.workload == "fuzz",
        "src_lines": src_lines(bench.src),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }

    if args.trace == 0:
        setup = bench.setup([argv[argv.index("--q") + 1] for argv in cmds])
        walls, peak = bench.untraced_passes(cmds, refs, args.seconds)
        values = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setup), "peak_rss_mb": peak}
        units = dict(END_TO_END)
        context["samples"] = {"wall_s": len(walls), "setup_s": len(setup), "peak_rss_mb": bench.attempted}
        context["wall_s_passes"] = walls
    else:
        walls, _peak = bench.untraced_passes(cmds, refs, args.seconds)
        runs = bench.traced_pass(cmds, refs)
        values = layer_metrics(runs, statistics.median(walls)) if len(runs) == len(cmds) else {}
        units = dict(per_layer_metrics())
        context["samples"] = {"per_layer": 1 if values else 0, "trace.untraced_wall_s": len(walls)}
    context["error_rate"] = bench.failed / bench.attempted

    for problem in bench.problems:
        print(f"gate: {problem}", file=sys.stderr)
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": not bench.problems and bool(values),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values.get(name), "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
