"""End-to-end benchmark of the `drisk` command line, with an optional
outside-in per-layer trace.

    python3 perfbench/run.py --workload sparse-decide --seed 1 --seconds 36 --trace 0

Run from the repository root.  The harness imports `drisk` from `src/`
and calls `drisk.cli.main(argv)` in this single process, as one closed
loop: each instance (one CLI call or a fixed short chain of them) starts
only after the previous one returned.  Set-up (import, writing the
seed-picked inputs, a warm-up pass on instances outside the timed list)
runs SETUPS times before the timed phase, and setup_s is the median.
The timed phase runs the instance list in whole passes; their number is
fixed per workload by --seconds and the reference costs
(planned_passes).  A run that would overrun DEADLINE_S stops with an
error instead of taking fewer passes.

Co-tenant load on a shared host slows the whole machine by up to 2x for
seconds to minutes.  So every time the benchmark reports (set-up,
instances, per-layer seconds) is a wall time scaled to a reference host
speed by the time of a fixed canary computation run around it
(at_reference).  An instance's time is the median of those over the passes
(Recorder.best).  The timing metrics are the median and 90th percentile
of those times over the list, and instances_per_s is the number of
instances that passed the check divided by their sum.  Every instance
is checked afterwards by the benchmark's own gate (gate.py); each
report must hash the same in every pass.

--trace 1 alternates untraced and traced passes over the same list.
The traced passes wrap every public drisk function (spans.py); their
reports must hash the same as the untraced ones.  Per-layer numbers are
per pass over the instance list; trace.overhead_frac compares the
sums of the instance times of the traced and untraced passes.

The last line of standard output is one JSON object: correct, attempted,
failed and the metrics declared in BENCHMARK.json (end-to-end ones with
--trace 0, per-layer ones with --trace 1).  Lines before it give the
same numbers as a table, with sample counts and failing instances.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import pkgutil
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import gate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUPS = 7
MIN_PASSES = 3
# Host speed is sampled with canary() around every timed piece of work.
# A timing is reported in seconds at the speed where the canary takes
# CANARY_REFERENCE_S: the median, over 30 runs of the three workloads on
# a shared 2-core x86-64 host, of each run's median canary time between
# instances (baseline.json, "canary").
CANARY_STEPS = 6000
CANARY_REFERENCE_S = 0.0034
CANARY_WINDOW = 3
# drisk slows down less than the canary when the host is busy: fitting
# log(instance time) against log(windowed canary time) within each
# instance gave slopes of 0.75 to 0.78 on kernel-shrink and
# exact-oracles.  So a time t measured at canary speed c is reported as
# t * (CANARY_REFERENCE_S / c) ** CANARY_EXPONENT.
CANARY_EXPONENT = 0.75
# The pass count comes from the committed reference costs, not from the
# clock, so every run of a workload takes the median of the same number
# of passes however busy the host is; SLACK allows for a host that slow.
SLACK = 1.2
# A run must end within 180 s; one that would not fails instead.
DEADLINE_S = 150.0

END_TO_END = (
    ("setup_s", "s"),
    ("instances_per_s", "1/s"),
    ("instance_s_p50", "s"),
    ("instance_s_p90", "s"),
    ("peak_rss_mb", "MB"),
)
# Printed with every run; not in the JSON line because they are 0 on
# some workloads (no failures, no kernel instances).
REPORTED_ONLY = (("failed_frac", "ratio"), ("residual_y_over_k", "ratio"))
RUN_LAYER_METRICS = (
    ("failed_frac", "ratio", "lower"),
    ("residual_y_over_k", "ratio", "lower"),
    ("probe.contract_breaks", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

# Known crasher kept in view outside the timed list: on a 2400-vertex
# path the recursive clique search overflows the stack.  Counted as a
# contract break while it raises instead of exiting 0, 2 or 3.
PROBE = {"n": 2400, "argv": ["solve", "alpha", "--r", "1", "--limit", "2400"]}


class BenchError(Exception):
    """The benchmark cannot run here (no drisk sources, bad arguments)."""


def import_drisk():
    """Import drisk and every submodule afresh from this checkout's src/."""
    for name in [m for m in sys.modules if m == "drisk" or m.startswith("drisk.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        drisk = importlib.import_module("drisk")
    except ImportError as exc:
        raise BenchError(f"cannot import drisk from {SRC}: {exc}")
    if not os.path.abspath(drisk.__file__).startswith(SRC + os.sep):
        raise BenchError(f"drisk imported from {drisk.__file__}, not from {SRC}")
    for info in pkgutil.iter_modules(drisk.__path__):
        importlib.import_module(f"drisk.{info.name}")
    return importlib.import_module("drisk.cli")


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)["workloads"]


def set_up(workload: str, seed: int, reference: dict, workdir: str):
    """One full set-up: import, write inputs, warm up.  Returns the CLI
    module and the timed instance list."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cli = import_drisk()
    instances = [workloads.make_instance(cli.main, workload, v, workdir)
                 for v in workloads.pick(reference, workload, seed)]
    warm_dir = os.path.join(workdir, "warm")
    os.makedirs(warm_dir)
    for variant in workloads.WARMUP[workload]:
        inst = workloads.make_instance(cli.main, workload, variant, warm_dir)
        for argv in inst.steps:
            workloads.call(cli.main, argv)
    return cli, instances


def at_reference(seconds: float, speed: float) -> float:
    """A wall time measured while the canary took `speed`, in seconds at
    the reference host speed."""
    return seconds * (CANARY_REFERENCE_S / speed) ** CANARY_EXPONENT


def canary() -> float:
    """Seconds for a fixed slice of dict, list and integer work, the kind
    of interpreter work drisk does.  Measured between instances, it
    tracks how fast the shared host runs at that moment."""
    table: dict = {}
    started = time.perf_counter()
    for i in range(CANARY_STEPS):
        table[i % 997] = table.get(i % 997, 0) + i
        sorted((i, i + 2, i + 1))
    return time.perf_counter() - started


class Recorder:
    """Per-instance times and host-speed samples of every pass,
    first-pass outputs and report hashes."""

    def __init__(self, instances):
        self.instances = instances
        self.times = [[] for _ in instances]
        self.speeds = [[] for _ in instances]
        self.canaries = []
        self.first = [None] * len(instances)
        self.hashes = [None] * len(instances)
        self.unstable = set()

    def run_pass(self, main, log=None) -> None:
        # canaries[i] and canaries[i + 1] run just before and after instance i
        canaries = [canary()]
        for i, inst in enumerate(self.instances):
            if log is not None:
                log.current_instance = i
            t0 = time.perf_counter()
            steps = []
            for argv in inst.steps:
                step = workloads.call(main, argv)
                steps.append(step)
                if step.rc != 0:
                    break
            self.times[i].append(time.perf_counter() - t0)
            canaries.append(canary())
            digest = [workloads.digest(s.out) for s in steps]
            if self.first[i] is None:
                self.first[i], self.hashes[i] = steps, digest
            elif digest != self.hashes[i]:
                self.unstable.add(i)
        # One canary is short enough to be thrown off by a single
        # interrupt; the median of the CANARY_WINDOW on either side of an
        # instance is not, and still follows load swings that last seconds.
        for i in range(len(self.instances)):
            window = canaries[max(0, i + 1 - CANARY_WINDOW):i + 1 + CANARY_WINDOW]
            self.speeds[i].append(statistics.median(window))
        self.canaries.extend(canaries)

    def scale(self):
        """scale[i][p]: the factor that takes a wall time of instance i in
        pass p to the reference host speed."""
        return [[at_reference(1.0, c) for c in cs] for cs in self.speeds]

    def raw_best(self):
        """Each instance's fastest pass, as measured."""
        return [min(ts) for ts in self.times]

    def best(self):
        """Each instance's time at the reference host speed: the median
        over passes of its scaled wall time."""
        return [statistics.median(t * k for t, k in zip(ts, ks))
                for ts, ks in zip(self.times, self.scale())]


def planned_passes(strata, seconds: float) -> int:
    """Whole passes that fit in seconds on a host SLACK times slower
    than when reference.json was made, and at least MIN_PASSES.  It uses
    the mean cost of each stratum, so every seed gets the same count."""
    cost = sum(statistics.fmean(v["cost_s"] for v in st["variants"]) for st in strata)
    return max(MIN_PASSES, int(seconds // (SLACK * cost)))


def verify(rec: Recorder):
    """Failure reason per instance index (only failing ones)."""
    failures = {}
    for i, inst in enumerate(rec.instances):
        reason = workloads.check(inst, rec.first[i])
        if reason is None and i in rec.unstable:
            reason = "report bytes differ between passes"
        if reason is not None:
            failures[i] = reason
    return failures


def run_probe(main, workdir: str) -> workloads.Step:
    path = os.path.join(workdir, "probe-path.txt")
    gate.write_edge_list(path, PROBE["n"], [(i, i + 1) for i in range(PROBE["n"] - 1)])
    argv = PROBE["argv"][:2] + ["--input", path] + PROBE["argv"][2:]
    return workloads.call(main, argv)


def quantile(values, q: int) -> float:
    """The q-th percentile by statistics.quantiles' exclusive method."""
    return statistics.quantiles(values, n=100)[q - 1]


def residual(rec: Recorder) -> float:
    vals = [workloads.kernel_residual(inst, rec.first[i]) for i, inst in enumerate(rec.instances)]
    vals = [v for v in vals if v is not None]
    return sum(vals) / len(vals) if vals else 0.0


def print_table(title: str, rows) -> None:
    print(title)
    for name, value, unit, note in rows:
        print(f"  {name:32s} {value:>14.6g} {unit:6s} {note}")


def main(argv=None) -> int:
    before = [canary() for _ in range(CANARY_WINDOW)]
    harness_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    base = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    try:
        reference = load_reference()
        inputs = os.path.join(base, "inputs")
        setup_times, raw_setup = [], []
        t0 = harness_start
        for _ in range(SETUPS):
            cli, instances = set_up(args.workload, args.seed, reference, inputs)
            took = time.perf_counter() - t0
            after = [canary() for _ in range(CANARY_WINDOW)]
            raw_setup.append(took)
            setup_times.append(at_reference(took, statistics.median(before + after)))
            before, t0 = after, time.perf_counter()

        planned = planned_passes(reference[args.workload], args.seconds)
        rec = Recorder(instances)
        traced = Recorder(instances)
        log = spans.SpanLog() if args.trace else None
        for passes in range(1, planned + 1):
            pass_start = time.perf_counter()
            rec.run_pass(cli.main)
            if log is not None:
                log.current_pass = passes - 1
                uninstall = spans.install(log)
                try:
                    traced.run_pass(cli.main, log)
                finally:
                    uninstall()
            now = time.perf_counter()
            if passes < planned and now + (now - pass_start) - harness_start > DEADLINE_S:
                raise BenchError(f"pass {passes} of {planned} ended {now - harness_start:.0f} s in; "
                                 f"the run would not end within {DEADLINE_S:.0f} s")
        failures = verify(rec)
        for i, digest in enumerate(traced.hashes if log is not None else ()):
            if digest != rec.hashes[i] or i in traced.unstable:
                failures.setdefault(i, "traced report differs from the untraced one")
        # Read before the probe, whose deep recursion is not part of the
        # timed work.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probe = run_probe(cli.main, base) if args.workload == "exact-oracles" else None
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(base, ignore_errors=True)
        with contextlib.suppress(OSError):  # only when no other run uses it
            os.rmdir(os.path.dirname(base))

    attempted = passes * len(instances)
    failed = passes * len(failures)
    best = rec.best()
    p90 = quantile(best, 90)
    above = sum(1 for t in best if t > p90)
    e2e = {
        "setup_s": statistics.median(setup_times),
        "instances_per_s": (len(instances) - len(failures)) / sum(best),
        "instance_s_p50": statistics.median(best),
        "instance_s_p90": p90,
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {"failed_frac": failed / attempted, "residual_y_over_k": residual(rec)}
    raw = rec.raw_best()

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} instances/pass={len(instances)} passes={passes}")
    units = dict(END_TO_END + REPORTED_ONLY)
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups, raw {statistics.median(raw_setup):.4g} s",
        "instances_per_s": f"{len(instances) - len(failures)} passed in {sum(best):.3f} s",
        "instance_s_p50": f"{len(best)} instances, median of {passes} passes",
        "instance_s_p90": f"{len(best)} instances, {above} above it",
        "failed_frac": f"{failed}/{attempted}",
        "residual_y_over_k": "mean over kernel instances",
    }
    print_table("end-to-end", [(k, v, units[k], notes.get(k, ""))
                               for k, v in list(e2e.items()) + list(extra.items())])
    print(f"  unscaled, fastest pass: p50 {statistics.median(raw):.6g} s, p90 {quantile(raw, 90):.6g} s, "
          f"sum {sum(raw):.6g} s; canary fastest {min(rec.canaries) * 1e3:.4g} ms, "
          f"median {statistics.median(rec.canaries) * 1e3:.4g} ms")
    for i in sorted(failures):
        print(f"  FAILED {instances[i].id}: {failures[i]}")
    if probe is not None:
        outcome = f"raised {probe.exc}" if probe.exc else f"exit {probe.rc}"
        print(f"  probe solve alpha on a {PROBE['n']}-vertex path (untimed): {outcome}")

    if args.trace:
        layer = spans.layer_metrics(log, passes, traced.scale())
        layer.update(extra)
        layer["probe.contract_breaks"] = 1.0 if probe is not None and probe.exc else 0.0
        layer["trace.overhead_frac"] = sum(traced.best()) / sum(best) - 1.0
        table = spans.function_table(log)
        print(f"traced passes={passes} spans={len(log)} (per-layer values are per pass)")
        print_table("per-layer", [(k, layer[k], u, "") for k, u, _ in spans.LAYER_METRICS + RUN_LAYER_METRICS])
        print("functions (spans, total s, self s; all traced passes, wall time as measured)")
        for name, (count, tot, own) in sorted(table.items(), key=lambda kv: -kv[1][2]):
            print(f"  {name:40s} {count:>9d} {tot:>10.4f} {own:>10.4f}")
        metrics = {k: {"value": layer[k], "unit": u} for k, u, _ in spans.LAYER_METRICS + RUN_LAYER_METRICS}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END}
    result = {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
