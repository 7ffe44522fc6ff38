"""The omitlab benchmark: cold-CLI and warm-library metrics on seeded workloads.

    python3 perfbench/run.py --workload figure --seed 1 --seconds 52 --trace 0

Each workload is a closed loop with one client. Its seed draws a fixed list
of operations (see workloads.py); the program receives only their argv. The
loop runs the list once and then goes round it again while time remains.
Every operation runs twice, and both outputs are checked (see checks.py):

- cold: ``python -m omitlab <argv>`` in a fresh interpreter and a fresh
  working directory, timed from spawn to exit; this is what a CLI user pays;
- warm: ``omitlab.cli.main(argv)`` in this process, after a warm-up call of
  each kind of operation; this is what a library or notebook user pays.

``--trace 0`` prints the end-to-end metrics: setup_s (median of fresh
interpreters that only import omitlab.cli, spread over the loop),
cli_wall_s, lib_points_per_s and rss_peak_mb. ``--trace 1`` is a separate
warm run that times each operation untraced and then traced (see
tracing.py), writes the spans and prints the per-layer metrics. The last
line of output is one JSON object; the lines before it give each metric
with its unit, its sample count and the failure ratio. ``--workload all``
runs every workload in turn.

Scratch directories, the spans and a JSON record of each run go under
``.perfbench/`` at the repository root.
"""

import argparse
import gc
import io
import itertools
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stdout
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

SETUP_SAMPLES = 5
WARM_MIN_S = 1.5
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 120
IMPORT_CLI = "import omitlab.cli"
IMPORT_KEYS = (("import.numpy_s", "numpy"),
               ("import.scipy_signal_s", "scipy.signal"),
               ("import.scipy_integrate_s", "scipy.integrate"))

END_TO_END = (("setup_s", "s"), ("cli_wall_s", "s"),
              ("lib_points_per_s", "points/s"), ("rss_peak_mb", "MB"))


def per_layer_metrics():
    """(name, unit) of every metric a traced run reports, in order."""
    from tracing import SPANS
    out = [("import.total_s", "s")] + [(k, "s") for k, _ in IMPORT_KEYS]
    for span in SPANS:
        out += [(f"{span}.calls", "count"), (f"{span}.self_s", "s")]
    out += [("steadystate.reuse_ratio", "ratio"),
            ("steadystate.bistable_cells", "count"),
            ("response.points_per_call", "count"),
            ("response.ref_max_rel_err", "ratio"),
            ("delay.fd_max_rel_err", "ratio"),
            ("sweep.flagged_cells", "count"),
            ("util.render_csv.rows", "count"),
            ("util.atomic_write.bytes", "bytes"),
            ("svgplot.bytes", "bytes"),
            ("oracle.rhs_evals", "count"),
            ("oracle.samples", "count"),
            ("oracle.a0_rel_err.max", "ratio"),
            ("oracle.pass_ratio", "ratio"),
            ("trace.overhead", "ratio")]
    return out


class _Expired(Exception):
    pass


def _expire(signum, frame):
    raise _Expired


class Tally:
    """Operations attempted and failed, with what the checks measured.

    An operation is one entry of the run's list (see workloads.py); it
    fails if any of its cold or warm invocations fails."""

    def __init__(self, attempted):
        self.attempted = attempted
        self.failed_ops = set()
        self.problems = []
        self.checked = 0
        self.unchecked = 0

    def add(self, index, outcome):
        if outcome.failed:
            self.failed_ops.add(index)
        self.problems += outcome.problems
        self.checked += outcome.checked
        self.unchecked += outcome.unchecked

    @property
    def failed(self):
        return len(self.failed_ops)

    @property
    def correct(self):
        return not self.problems


class Bench:
    """Runs operations cold and warm in fresh directories under .perfbench/."""

    def __init__(self, workload, seed):
        import omitlab.cli
        import checks
        import workloads
        self.cli = omitlab.cli
        self.checks = checks
        self.workload = workload
        self.seed = seed
        self.home = os.getcwd()
        self.work = os.path.join(OUT, "work")
        os.makedirs(self.work, exist_ok=True)
        self.env = {k: v for k, v in os.environ.items() if k != "OMITLAB_THREADS"}
        self.env["PYTHONPATH"] = SRC
        rng = random.Random(f"{workload}:{seed}")
        self.ops = workloads.WORKLOADS[workload](rng)
        self._runs = 0
        self.samples = {}

    def _spawn(self, args, cwd):
        """Wall seconds, exit status and peak RSS [MB] of one fresh interpreter."""
        with open(os.path.join(cwd, "stderr.txt"), "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=cwd,
                                    env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            signal.alarm(CHILD_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException as e:
                # a hung child, or an interrupt: never leave it running
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                if not isinstance(e, _Expired):
                    raise
            finally:
                signal.alarm(0)
            wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss * 1024 / 1e6

    def import_sample(self, importtime=False):
        d = tempfile.mkdtemp(dir=self.work)
        try:
            flags = ["-X", "importtime"] if importtime else []
            wall, status, _ = self._spawn([*flags, "-c", IMPORT_CLI], d)
            if status != 0:
                raise RuntimeError(f"{IMPORT_CLI!r} exited with {status}")
            if not importtime:
                return wall
            with open(os.path.join(d, "stderr.txt")) as fh:
                return _parse_importtime(fh.read())
        finally:
            shutil.rmtree(d)

    def cold(self, argv, d):
        return self._spawn(["-m", "omitlab", *argv], d)

    def warm(self, argv, d):
        os.chdir(d)
        try:
            with redirect_stdout(io.StringIO()):
                t0 = perf_counter()
                try:
                    status = self.cli.main(argv)
                except SystemExit as e:
                    status = e.code
                except Exception as e:
                    # a crash is a failed operation, not a failed benchmark
                    traceback.print_exc()
                    status = f"exception {type(e).__name__}"
                wall = perf_counter() - t0
        finally:
            os.chdir(self.home)
        return wall, status

    def op(self, index, run, tally):
        """Run, check and clean up operation ``index``: (run's result, Outcome)."""
        self._runs += 1
        rng = random.Random(f"{self.workload}:{self.seed}:check:{self._runs}")
        argv = self.ops[index][1]
        d = tempfile.mkdtemp(dir=self.work)
        try:
            result = run(argv, d)
            outcome = self.checks.check(argv, d, result[1], rng)
        finally:
            shutil.rmtree(d)
        tally.add(index, outcome)
        return result, outcome

    def loop(self, seconds, do_op, sample, n_samples):
        """Warm up, run the whole list of operations, then go round it again
        while the next operation, timed by the last of its kind, still fits.

        ``sample()`` is called ``n_samples`` times, spread evenly over the
        loop, so that its samples see the same host as the operations.
        Returns their results."""
        d = tempfile.mkdtemp(dir=self.work)
        try:
            # every kind once, so that no measured call pays a lazy import
            for argv in dict(self.ops).values():
                self.warm(argv, d)
        finally:
            shutil.rmtree(d)
        samples = []
        last = {}
        start = perf_counter()
        for i in itertools.count():
            index = i % len(self.ops)
            kind = self.ops[index][0]
            while (len(samples) < n_samples and
                   perf_counter() - start >= len(samples) * seconds / n_samples):
                samples.append(sample())
            t0 = perf_counter()
            if i >= len(self.ops) and t0 - start + last[kind] > seconds:
                break
            do_op(index)
            last[kind] = perf_counter() - t0
        while len(samples) < n_samples:
            samples.append(sample())
        return samples


def _parse_importtime(text):
    """Cumulative seconds of the import statement and of IMPORT_KEYS."""
    out = {k: 0.0 for k, _ in IMPORT_KEYS}
    out["import.total_s"] = 0.0
    wanted = {mod: k for k, mod in IMPORT_KEYS}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative = int(parts[1]) / 1e6
        name = parts[2].rstrip()
        module = name.strip()
        if module in wanted and not out[wanted[module]]:
            out[wanted[module]] = cumulative
        top_level = name[1:] == module  # one space of indent: not nested
        if top_level and (module == "omitlab" or module.startswith("omitlab.")):
            out["import.total_s"] += cumulative
    return out


def _tail(values):
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    s = sorted(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            return f"p{p:g} {s[math.ceil(p * n / 100) - 1]:.6g} (n={n})"
    return f"no percentile has 10 samples beyond it (n={n})"


def _per_kind(bench, samples):
    """Mean, median and tail of each kind, from samples per operation."""
    kinds = {}
    for index, values in samples.items():
        kinds.setdefault(bench.ops[index][0], []).extend(values)
    return "; ".join(f"{k} mean {statistics.fmean(v):.6g} median "
                     f"{statistics.median(v):.6g} {_tail(v)}"
                     for k, v in kinds.items())


def _list_s(samples):
    """Seconds of one pass over the run's list: the sum over operations of
    their mean time.

    Per operation, so that the figure reads the same whichever operation a
    run ends after. The mean, not the median: on a shared host the CPU speed
    switches between regimes that last seconds, and the median of a few
    samples jumps between them where the mean moves in proportion."""
    return sum(statistics.fmean(v) for v in samples.values())


def run_untraced(bench, seconds):
    tally = Tally(len(bench.ops))
    cold, warm, points = {}, {}, {}
    rss = []

    def do_op(index):
        (wall, _, peak), _ = bench.op(index, bench.cold, tally)
        cold.setdefault(index, []).append(wall)
        rss.append(peak)
        gc.collect()
        # short operations repeat, so that warm calls fill a steady share
        # of the run
        spent = 0.0
        while spent < WARM_MIN_S:
            (wall, _), outcome = bench.op(index, bench.warm, tally)
            warm.setdefault(index, []).append(wall)
            points[index] = outcome.points
            spent += wall

    setup = bench.loop(seconds, do_op, bench.import_sample, SETUP_SAMPLES)
    bench.samples = {"setup": setup, "cold": cold, "warm": warm}
    metrics = {
        "setup_s": statistics.median(setup),
        "cli_wall_s": _list_s(cold) / len(cold),
        "lib_points_per_s": sum(points.values()) / _list_s(warm),
        "rss_peak_mb": max(rss),
    }
    notes = {
        "setup_s": f"median; {_tail(setup)}",
        "cli_wall_s": f"mean over operations; {_per_kind(bench, cold)}",
        "lib_points_per_s": f"{sum(points.values())} points per pass over "
                            f"{len(bench.ops)} operations; "
                            f"{_per_kind(bench, warm)}",
        "rss_peak_mb": f"max over {len(rss)} cold invocations",
    }
    return tally, metrics, notes


def run_traced(bench, seconds):
    from tracing import SPANS, Tracer
    tally = Tally(len(bench.ops))
    tracer = None
    plain, traced = {}, {}
    outcomes = []

    def do_op(index):
        nonlocal tracer
        # the warm-up call has loaded every lazy import before this point
        tracer = tracer or Tracer()
        gc.collect()
        (wall, _), _ = bench.op(index, bench.warm, tally)
        plain.setdefault(index, []).append(wall)
        with tracer.installed():
            (wall, _), outcome = bench.op(index, bench.warm, tally)
        traced.setdefault(index, []).append(wall)
        outcomes.append(outcome)

    imports = bench.loop(seconds, do_op,
                         lambda: bench.import_sample(importtime=True),
                         IMPORT_SAMPLES)
    n = tracer.invocations
    c = tracer.counts
    m = {k: statistics.median(s[k] for s in imports) for k in imports[0]}
    self_times = tracer.self_times()
    for span in SPANS:
        calls, self_s = self_times.get(span, (0, 0.0))
        m[f"{span}.calls"] = calls / n
        m[f"{span}.self_s"] = self_s / n
    verdicts = [o for o in outcomes if o.a0_rel_err is not None]
    m.update({
        "steadystate.reuse_ratio": c.distinct_configs / c.steady_calls if c.steady_calls else 0.0,
        "steadystate.bistable_cells": c.bistable / n,
        "response.points_per_call": c.probe_points / c.probe_calls if c.probe_calls else 0.0,
        "response.ref_max_rel_err": max(o.ref_max_rel_err for o in outcomes),
        "delay.fd_max_rel_err": max(o.fd_max_rel_err for o in outcomes),
        "sweep.flagged_cells": sum(o.flagged for o in outcomes) / n,
        "util.render_csv.rows": c.csv_rows / n,
        "util.atomic_write.bytes": c.written_bytes / n,
        "svgplot.bytes": c.svg_bytes / n,
        "oracle.rhs_evals": c.rhs_evals / n,
        "oracle.samples": c.samples / n,
        "oracle.a0_rel_err.max": max((o.a0_rel_err for o in verdicts), default=0.0),
        "oracle.pass_ratio": (sum(not o.verdict_false for o in verdicts) / len(verdicts)
                              if verdicts else 0.0),
        "trace.overhead": _list_s(traced) / _list_s(plain),
    })
    spans_path = os.path.join(OUT, f"spans-{bench.workload}.jsonl.gz")
    tracer.write(spans_path)
    notes = {"calls": f"per traced invocation, over {n}",
             "spans": f"{len(tracer.spans)} spans in {os.path.relpath(spans_path, ROOT)}"}
    if tracer.absent:
        notes["absent"] = ", ".join(tracer.absent)
    if c.unreadable:
        notes["unreadable counts"] = ", ".join(sorted(c.unreadable))
    return tally, m, notes


def _git_rev():
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    try:
        out = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"),
                              "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance():
    import numpy
    import scipy
    return {"git_rev": _git_rev(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model()}


def run_workload(workload, seed, seconds, trace):
    bench = Bench(workload, seed)
    if trace:
        tally, values, notes = run_traced(bench, seconds)
        units = dict(per_layer_metrics())
    else:
        tally, values, notes = run_untraced(bench, seconds)
        units = dict(END_TO_END)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    prov = provenance()
    tag = f"[{workload} seed={seed} trace={trace}]"
    print(f"{tag} provenance {json.dumps(prov)}")
    for k, v in metrics.items():
        print(f"{tag} {k} = {v['value']:.6g} {v['unit']}"
              + (f"  ({notes[k]})" if k in notes else ""))
    for k in notes.keys() - metrics.keys():
        print(f"{tag} {k}: {notes[k]}")
    print(f"{tag} fail_ratio = {tally.failed / tally.attempted:.4g} failed/attempted "
          f"({tally.failed}/{tally.attempted})")
    print(f"{tag} checks: {tally.checked} values compared with their reference, "
          f"{tally.unchecked} unchecked (the reference raised)")
    for p in sorted(set(tally.problems)):
        print(f"{tag} problem: {p}")
    result = {"correct": tally.correct, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    with open(os.path.join(OUT, f"result-{workload}-trace{trace}.json"), "w") as fh:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds,
                   "trace": trace, "provenance": prov, "notes": notes,
                   "fail_ratio": tally.failed / tally.attempted,
                   "samples": bench.samples, **result},
                  fh, indent=2)
    return result


def main(argv=None):
    import workloads
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=(*workloads.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the measured loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "omitlab", "cli.py")):
        sys.stderr.write(f"perfbench: no omitlab package under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    os.environ.pop("OMITLAB_THREADS", None)
    os.makedirs(OUT, exist_ok=True)
    signal.signal(signal.SIGALRM, _expire)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace)
            print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(os.path.join(OUT, "work"), ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
