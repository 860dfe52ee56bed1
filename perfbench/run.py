"""Benchmark of the vortex-localize command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload calibrate|profile|direct --seed N \
        --seconds S --trace 0|1 [--smoke]

A closed loop with one client: each command of the workload runs in a fresh
interpreter, one after another, and a pass is the whole command list. Passes
repeat while another one is expected to finish within --seconds (at least
one always runs). Set-up probes, each an interpreter start that imports
vortexloc.cli, run before evenly spaced commands of every untraced pass.
After each pass the workload's oracles check every result file. With --trace 0 the run reports end-to-end metrics; with --trace 1 it
alternates untraced and traced passes and reports per-layer metrics from the
traced ones. The last stdout line is one JSON object; the lines before it
are a readable report that also names every per-command time, the failure
ratio and the host. --smoke shrinks every input so the harness can be
tested in seconds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from layers import PER_LAYER, pass_metrics
from workloads import WORKLOADS, Outcome, params_for

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"

# The console-script entry point, spelled out so no install step is needed.
ENTRY = "import sys; from vortexloc.cli import main; sys.exit(main())"
SETUP_PROBE = (
    "import sys, numpy, vortexloc.cli; "
    "sys.stdout.write(vortexloc.cli.__file__ + ' ' + numpy.__version__)"
)
SETUP_PROBES_PER_PASS = 3  # spread over the pass, before evenly spaced commands
SETUP_MIN_PROBES = 9
RUN_LIMIT_S = 170.0  # every child is killed by then, so the run ends within 180 s

END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
RECORDED_ENV_PREFIXES = ("MALLOC_", "OMP_", "OPENBLAS_", "MKL_", "NUMEXPR_", "PYTHON")


class Child:
    """Fresh interpreters with the inherited environment plus the source tree on PYTHONPATH."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    def run(self, argv: list[str], stdout_path: Path) -> tuple[int, float, float, float, float, float]:
        """(exit code, start, end, cpu seconds, peak RSS in MB, minor faults) of one child."""
        with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(0.0, self.deadline - start), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        return proc.returncode, start, end, cpu, usage.ru_maxrss / 1024.0, usage.ru_minflt


def median_and_tail(values: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it, and the count."""
    ordered = sorted(values)
    n = len(ordered)
    text = f"median {statistics.median(ordered):.6g}"
    if n > 10:
        text += f", p{math.floor(100 * (n - 10) / n)} {ordered[n - 11]:.6g}"
    return text + f", n={n}"


def host_record(numpy_version: str) -> dict:
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu_model
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "env": {k: v for k, v in sorted(os.environ.items()) if k.startswith(RECORDED_ENV_PREFIXES)},
    }


def setup_probe(child: Child, work: Path) -> tuple[float, str]:
    """Wall time of one interpreter start that imports vortexloc.cli, and numpy's version."""
    probe_out = work / "setup.out"
    code, start, end, *_ = child.run(["-c", SETUP_PROBE], probe_out)
    if code != 0:
        raise SystemExit(f"importing vortexloc.cli from {SRC} failed; see {probe_out.with_suffix('.err')}")
    module_file, numpy_version = probe_out.read_text().rsplit(" ", 1)
    if not Path(module_file).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"vortexloc was imported from {module_file}, not from {SRC}")
    return end - start, numpy_version


def run_pass(workload, commands, params, smoke, child: Child, work: Path, traced: bool, setup_times=None):
    """Run every command once; returns (outcomes, {failed key: reason}, span records, wall seconds).

    With a `setup_times` list, a set-up probe runs before evenly spaced
    commands and its time is appended there.
    """
    for leftover in work.iterdir():  # every pass writes its result files afresh
        leftover.unlink()
    outcomes: dict[str, Outcome] = {}
    records = []
    probe_every = math.ceil(len(commands) / SETUP_PROBES_PER_PASS)
    for request, cmd in enumerate(commands):
        if setup_times is not None and request % probe_every == 0:
            setup_times.append(setup_probe(child, work)[0])
        out = work / f"{cmd.key}{cmd.out_suffix}"
        cli_args = [*cmd.args, "--out", str(out)]
        spans_path = work / f"{cmd.key}.spans.json"
        if traced:
            argv = [str(TRACED_CLI), str(spans_path), *cli_args]
        else:
            argv = ["-c", ENTRY, *cli_args]
        code, start, end, cpu, rss, minflt = child.run(argv, work / f"{cmd.key}.stdout")
        stdout = (work / f"{cmd.key}.stdout").read_text(errors="replace")
        outcomes[cmd.key] = Outcome(cmd, out, code, stdout, end - start, cpu, rss)
        if traced:
            spans = json.loads(spans_path.read_text()) if spans_path.exists() else []
            records.append({
                "request": request,
                "command": cmd.key,
                "process": {"start": start, "end": end, "minflt": minflt, "cpu_s": cpu, "exit": code},
                "spans": spans,
            })
        if code != 0:
            break
    failed = {}
    for key, o in outcomes.items():
        if o.returncode != 0 or len(o.stdout.splitlines()) != 1:
            stderr = (work / f"{key}.err").read_text(errors="replace").strip().splitlines()
            failed[key] = f"exit code {o.returncode}: {stderr[-1] if stderr else 'no stderr'}"
    if not failed:
        try:
            failed = workload.check(params, smoke, outcomes)
        except (OSError, KeyError, IndexError, ValueError, StopIteration) as exc:
            failed = {"oracle": f"unreadable result: {exc!r}"}
    for key, reason in sorted(failed.items()):
        print(f"# FAILED {workload.name}/{key}: {reason}")
    wall = sum(o.wall_s for o in outcomes.values())
    return list(outcomes.values()), failed, records, wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="shrunk inputs, for testing the harness")
    args = parser.parse_args(argv)

    if not (SRC / "vortexloc" / "cli.py").is_file():
        print(f"no vortexloc sources under {SRC}", file=sys.stderr)
        return 2

    began = time.perf_counter()
    child = Child(deadline=began + RUN_LIMIT_S)
    workload = WORKLOADS[args.workload]
    params = params_for(args.seed)
    commands = workload.commands(params, args.smoke)
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir()
    try:
        first_probe, numpy_version = setup_probe(child, work)
        setup_times = [first_probe]
        print(f"# host {json.dumps(host_record(numpy_version), sort_keys=True)}")
        print(f"# workload {workload.name}: {workload.why}")
        print(f"# seed {args.seed}: {params}")

        attempted, failed = 0, 0
        untraced: list[list[Outcome]] = []
        untraced_walls, traced_walls, layer_runs, records = [], [], [], []
        loop_start = time.perf_counter()
        while True:
            outcomes, bad, _, wall = run_pass(
                workload, commands, params, args.smoke, child, work, traced=False,
                setup_times=setup_times if args.trace == 0 else None,
            )
            attempted += len(outcomes)
            failed += len(bad)
            untraced.append(outcomes)
            untraced_walls.append(wall)
            if args.trace and not bad:
                traced_outcomes, bad, pass_records, wall = run_pass(
                    workload, commands, params, args.smoke, child, work, traced=True
                )
                attempted += len(traced_outcomes)
                failed += len(bad)
                traced_walls.append(wall)
                records.append(pass_records)
                layer_runs.append(pass_metrics([r["spans"] for r in pass_records], wall, untraced_walls[-1]))
            elapsed = time.perf_counter() - loop_start
            if failed or elapsed * (1.0 + 1.0 / len(untraced_walls)) > args.seconds:
                break

        print(f"# passes {len(untraced_walls)} untraced, {len(traced_walls)} traced, in {elapsed:.1f} s")
        while args.trace == 0 and not failed and len(setup_times) < SETUP_MIN_PROBES:
            setup_times.append(setup_probe(child, work)[0])
        print(f"# fail_ratio = {failed / attempted:.6g} ({failed}/{attempted} commands)")
        if args.trace == 0:
            metrics = {
                "wall_s": statistics.median(untraced_walls),
                "setup_s": statistics.median(setup_times),
                "cpu_s": statistics.median(sum(o.cpu_s for o in p) for p in untraced),
                "peak_rss_mb": max(o.maxrss_mb for p in untraced for o in p),
            }
            print(f"# wall_s [s per pass]: {median_and_tail(untraced_walls)}")
            print(f"# setup_s [s per interpreter start plus import]: {median_and_tail(setup_times)}")
            by_metric: dict[str, list[float]] = {}
            for outcomes in untraced:
                for o in outcomes:
                    if o.command.metric:
                        by_metric.setdefault(o.command.metric, []).append(o.wall_s)
            for name, values in by_metric.items():
                print(f"# {name} [s]: {median_and_tail(values)}")
            units = {name: unit for name, (unit, _) in END_TO_END.items()}
        else:
            metrics = {
                name: statistics.median(run[name] for run in layer_runs) if layer_runs else 0.0
                for name in PER_LAYER
            }
            spans_file = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.json"
            spans_file.write_text(json.dumps(records))
            print(f"# spans of {len(records)} traced passes written to {spans_file}")
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        for name, value in metrics.items():
            print(f"# {name} = {value:.6g} {units[name]}")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
