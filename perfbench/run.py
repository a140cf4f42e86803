#!/usr/bin/env python3
"""Benchmark of the fracobstacle command-line program.

Run from the root of a checkout that holds src/fracobstacle:

    python3 perfbench/run.py --workload verify-512-768 --seed 1 --seconds 55 --trace 0

--trace 0 times passes over the workload's CLI invocations, one fresh
interpreter per invocation, serially, until --seconds have elapsed, and
reports the end-to-end metrics as medians over passes. --trace 1 runs the
same invocations in this process through `fracobstacle.cli.main`, once
without spans and once with spans around the public functions of config,
operator, solvers, verify and cli, and reports the per-layer metrics.

Every invocation's output goes through the correctness gate in gate.py, and
a corrupted copy of one output must fail it (the negative control). The last
line of standard output is the result as one JSON object. A readable summary
goes to standard error; the environment, per-pass samples and spans go to
.perfbench/<workload>/ in the checkout.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
RUN_LIMIT_S = 170.0  # a run must end within 180 s; children are killed past this
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
UNTRACED_FLAG_SHARE = 0.1
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_CODE = ("import sys\n"
              "import fracobstacle.cli as cli\n"
              "for path in sys.argv[1:]:\n"
              "    cli.parse_config(path).build_problem()\n")


def run_child(argv, log_path, deadline):
    """Run one child to completion; return (exit code, wall s, cpu s, peak RSS MB).

    The child is killed if it is still running at the deadline.
    """
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
        timer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def read_text(path):
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()


class Run:
    """One benchmark run: a workload's invocations, references and records."""

    def __init__(self, args, workdir):
        # Modules that load numpy are imported only once main() has set the
        # thread variables.
        from workloads import references, write_invocations

        self.args = args
        self.workdir = workdir
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.invocations = write_invocations(args.workload, args.seed, workdir)
        self.log = lambda name: os.path.join(workdir, name + ".log")
        # Compile the package's bytecode once, so no timed child pays for it.
        code, *_ = run_child([sys.executable, "-c", "import fracobstacle.cli"],
                             self.log("warmup"), self.deadline)
        if code != 0:
            raise RuntimeError("cannot import fracobstacle.cli: "
                               + read_text(self.log("warmup")))
        self.refs = references(self.invocations)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.control_caught = None

    def cli_argv(self, inv):
        return [sys.executable, "-m", "fracobstacle.cli", *inv.args]

    def judge(self, i, code, stdout):
        """Pass invocation i's exit code, stdout and output through the gate.

        The first output judged also serves as the negative control: a
        corrupted copy of it must fail the gate.
        """
        from gate import check_invocation, check_output, corrupt

        inv, ref = self.invocations[i], self.refs[i]
        self.attempted += 1
        found = check_invocation(inv.command, code, stdout, inv.out, ref)
        self.failed += bool(found)
        self.problems += [f"{inv.command} s={inv.s}: {p}" for p in found]
        if self.control_caught is None and not found:
            bad = corrupt(inv.command, read_text(inv.out))
            self.control_caught = bool(check_output(inv.command, bad, ref))

    def verify_stats(self):
        """(inconclusive reports, usable supersolution draws, draws) in the outputs."""
        inconclusive = usable = draws = 0
        for inv in self.invocations:
            if inv.command != "verify" or not os.path.exists(inv.out):
                continue
            for r in json.loads(read_text(inv.out))["reports"]:
                inconclusive += bool(r["inconclusive"])
                if r["check_id"] == "smallest_supersolution":
                    draws += r["samples"]
                    if not r["inconclusive"]:
                        usable += int(r["note"].split(":")[1].split("/")[0])
        return inconclusive, usable, draws

    # --- untraced: fresh interpreters -------------------------------------

    def setup_seconds(self):
        configs = [inv.config for inv in self.invocations]
        walls = []
        for _ in range(SETUP_REPEATS):
            code, wall, _, _ = run_child([sys.executable, "-c", SETUP_CODE, *configs],
                                         self.log("setup"), self.deadline)
            if code != 0:
                self.problems.append(f"setup: exit code {code}")
            walls.append(wall)
        return walls

    def timed_pass(self):
        cpu = rss = 0.0
        codes = []
        t0 = time.perf_counter()
        for i, inv in enumerate(self.invocations):
            code, _, c, r = run_child(self.cli_argv(inv), self.log(f"cli{i}"), self.deadline)
            codes.append(code)
            cpu += c
            rss = max(rss, r)
        wall = time.perf_counter() - t0
        for i, code in enumerate(codes):
            self.judge(i, code, read_text(self.log(f"cli{i}")))
        sample = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss}
        if any(inv.command == "verify" for inv in self.invocations):
            sample["checks_inconclusive"] = self.verify_stats()[0]
        return sample

    def measure(self):
        setup = self.setup_seconds()
        # Passes run back to back while the next one, projected from the
        # median so far, still ends within --seconds; there is always one.
        passes = []
        t0 = time.perf_counter()
        while True:
            passes.append(self.timed_pass())
            now = time.perf_counter()
            projected = now + statistics.median(p["wall_s"] for p in passes)
            if (projected - t0 > self.args.seconds or self.problems
                    or projected > self.deadline):
                break
        samples = {k: [p[k] for p in passes] for k in passes[0]}
        samples["setup_s"] = setup
        units = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
        metrics = {k: (statistics.median(samples[k]), u) for k, u in units.items()}
        return metrics, samples, {}

    # --- traced: in-process passes ----------------------------------------

    def import_seconds(self):
        """Median (fracobstacle.cli, scipy.special) cumulative import times
        from `python -X importtime`, each in a fresh interpreter."""
        cli_s, special_s = [], []
        for _ in range(IMPORT_REPEATS):
            run_child([sys.executable, "-X", "importtime", "-c", "import fracobstacle.cli"],
                      self.log("importtime"), self.deadline)
            cumulative = {}
            for line in read_text(self.log("importtime")).splitlines():
                fields = line.removeprefix("import time:").split("|")
                if line.startswith("import time:") and len(fields) == 3 \
                        and fields[1].strip().isdigit():
                    cumulative.setdefault(fields[2].strip(), int(fields[1]) / 1e6)
            cli_s.append(cumulative.get("fracobstacle.cli", 0.0))
            special_s.append(cumulative.get("scipy.special", 0.0))
        return statistics.median(cli_s), statistics.median(special_s)

    def inprocess(self, i, main):
        """Run invocation i through main in this process: (wall s, exit code, stdout)."""
        out = io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(list(self.invocations[i].args))
        return time.perf_counter() - t0, code, out.getvalue()

    def trace(self):
        from fracobstacle import cli

        from spans import Tracer

        cli_import, special_import = self.import_seconds()
        # Each invocation runs untraced, then traced, so both sides of
        # trace.overhead_s see the machine in much the same state.
        tracer = Tracer()
        traced_main = tracer.span("cli.main", cli.main)
        untraced_wall = traced_wall = 0.0
        for i in range(len(self.invocations)):
            wall, code, stdout = self.inprocess(i, cli.main)
            self.judge(i, code, stdout)
            untraced_wall += wall
            with tracer.installed():
                wall, code, stdout = self.inprocess(i, traced_main)
            self.judge(i, code, stdout)
            traced_wall += wall
        inconclusive, usable, draws = self.verify_stats()
        untraced = traced_wall - tracer.top_level_seconds()
        metrics = {
            "cli.import_s": (cli_import, "s"),
            "operator.import_scipy_special_s": (special_import, "s"),
            **tracer.layer_metrics(),
            "verify.smallest_supersolution_usable": (usable / draws if draws else 0.0, "ratio"),
            "verify.checks_inconclusive": (inconclusive, "count"),
            "trace.overhead_s": (traced_wall - untraced_wall, "s"),
            "trace.untraced_s": (untraced, "s"),
        }
        self.write_spans(tracer)
        flags = {}
        if untraced > UNTRACED_FLAG_SHARE * traced_wall:
            flags["untraced"] = (f"trace.untraced_s {untraced:.3f} s is more than "
                                 f"{UNTRACED_FLAG_SHARE:.0%} of the traced pass "
                                 f"({traced_wall:.3f} s)")
        samples = {"untraced_pass_s": [untraced_wall], "traced_pass_s": [traced_wall]}
        return metrics, samples, flags

    def write_spans(self, tracer):
        own = tracer.self_times()
        t0 = tracer.spans[0][1] if tracer.spans else 0.0
        spans = [{"name": name, "start": start - t0, "end": end - t0, "parent": parent,
                  "self": s, "count": count}
                 for (name, start, end, parent, count), s in zip(tracer.spans, own)]
        with open(os.path.join(self.workdir, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump({"workload": self.args.workload, "seed": self.args.seed,
                       "spans": spans}, fh)


def environment(nproc, seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_settings": {v: os.environ[v] for v in THREAD_VARS},
        "fft": "numpy.fft (pocketfft), one thread",
        "seed": seed,
    }


def summary(args, env, metrics, samples, run, flags):
    from workloads import SKIPPED

    lines = [f"fracobstacle benchmark: workload {args.workload}, seed {args.seed}, "
             f"trace {args.trace}",
             "environment: " + json.dumps(env),
             f"{'metric':<38}{'median':>14}  {'unit':<8}{'samples':>8}{'min':>12}{'max':>12}"]
    for name, (value, unit) in metrics.items():
        vals = samples.get(name, [value])
        lines.append(f"{name:<38}{value:>14.6g}  {unit:<8}{len(vals):>8}"
                     f"{min(vals):>12.6g}{max(vals):>12.6g}")
    if "checks_inconclusive" in samples:
        vals = samples["checks_inconclusive"]
        lines.append(f"{'checks_inconclusive':<38}{statistics.median(vals):>14.6g}  "
                     f"{'count':<8}{len(vals):>8}{min(vals):>12.6g}{max(vals):>12.6g}")
    lines.append(f"{'failed_ops':<38}{run.failed / max(run.attempted, 1):>14.6g}  "
                 f"{'ratio':<8}{run.attempted:>8}   ({run.failed} of {run.attempted} failed)")
    lines.append(f"negative control caught: {run.control_caught}")
    lines += [f"problem: {p}" for p in run.problems[:20]]
    lines += [f"flag: {f}" for f in flags.values()]
    lines += [f"skipped: {s['case']}: {s['reason']} (~{s['cost_s']:g} s)" for s in SKIPPED]
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fracobstacle", "cli.py")):
        print(f"error: no fracobstacle sources under {SRC}; "
              "run from the root of a fracobstacle checkout", file=sys.stderr)
        return 2

    # One BLAS thread (the FFT is single-threaded anyway), set before numpy
    # loads here and in every child. At these sizes a second thread does not
    # shorten verify-512 but doubles its CPU time and its sensitivity to
    # other load on the cores.
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = SRC
    sys.path.insert(0, SRC)
    from workloads import SKIPPED, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".perfbench", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = environment(nproc, args.seed)
    run = Run(args, workdir)
    metrics, samples, flags = run.trace() if args.trace else run.measure()

    correct = not run.problems and run.control_caught is True
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(workdir, "run.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                   "environment": env, "result": result, "samples": samples,
                   "problems": run.problems, "negative_control_caught": run.control_caught,
                   "flags": flags, "skipped": SKIPPED}, fh, indent=1)
    print(summary(args, env, metrics, samples, run, flags), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
