"""The chverify benchmark: closed-loop check-grid workloads with one client.

    python3 perfbench/run.py --workload pullback --seed 0 --seconds 22 --trace 0

Run from the root of a checkout.  The workload runs in this process, one
`cli.run` + `cli.report_json` call at a time (`--jobs 1`, BLAS threads capped
at the core count).  Every call is repeated within the run.  Each timing is
scaled by the reference kernel timed around it (reference.py); a call's time
is the median of its scaled timings, and `wall_s` is the sum of those medians.
`setup_s` is the median over fresh interpreters (setup_probe.py), scaled alike.

`--trace 0` prints the end-to-end metrics; `--trace 1` times the calls
untraced first, then runs one more pass with every public layer function
wrapped (see tracing.py) and prints the per-layer metrics.  The last stdout
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
`attempted` and `failed` count the checks of one pass; a family call that
raises counts as one failed check.  The run record (environment, per-call
times, report digests) is written under perfbench/out/, and a traced run
replaces perfbench/out/<workload>-spans.json.gz with its spans.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 5
MIN_PASSES = 2              # untraced passes always run, so every call repeats
TRACE_SLOWDOWN = 1.3        # budget factor reserved for the traced pass


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json at the checkout root declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def cap_blas_threads() -> int:
    cores = os.cpu_count() or 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        limit = min(int(current), cores) if current.isdigit() and int(current) > 0 else cores
        os.environ[var] = str(limit)
    return cores


def measure_setup(workload: str) -> list[tuple[float, float]]:
    """(set-up seconds, reference kernel seconds) from fresh interpreters."""
    probe = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload]
    out = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(probe, capture_output=True, text=True, timeout=120, check=True)
        setup_s, ref_s = done.stdout.split()
        out.append((float(setup_s), float(ref_s)))
    return out


def openblas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:  # no /proc: the thread count stays unrecorded
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Client:
    """One closed-loop client: runs a call, times it, and checks its report."""

    def __init__(self, cli, workloads, reference, calls):
        self.cli, self.workloads, self.reference, self.calls = cli, workloads, reference, calls
        self.times = [[] for _ in calls]
        self.nominal = [[] for _ in calls]     # times scaled by the reference kernel
        self.digests = [None] * len(calls)
        self.first = [None] * len(calls)    # report dict, or the exception raised
        self.problems = []
        self.refs = []                          # reference kernel, timed between calls

    def call(self, i: int) -> float:
        label, cfg = self.calls[i]
        if not self.refs:
            self.refs.append(self.reference.kernel_s())
        started = time.perf_counter()
        try:
            report = self.cli.run(cfg)
            text = self.cli.report_json(report)
        except Exception as exc:  # a raising family is a failed check, not a crash
            elapsed = time.perf_counter() - started
            outcome, digest = exc, self.workloads.error_digest(exc)
        else:
            elapsed = time.perf_counter() - started
            outcome, digest = report, self.workloads.report_digest(text)
            self.problems += [f"{label}: {p}"
                              for p in self.workloads.report_problems(report, cfg)]
        self.times[i].append(elapsed)
        self.refs.append(self.reference.kernel_s())
        self.nominal[i].append(self.reference.nominal(elapsed, *self.refs[-2:]))
        if self.digests[i] is None:
            self.digests[i], self.first[i] = digest, outcome
        elif digest != self.digests[i]:
            self.problems.append(f"{label}: report digest differs on a repeat")
        return elapsed

    def loop(self, seconds: float, min_passes: int, reserve: float = 0.0) -> None:
        """Cycle through the calls: `min_passes` full passes, then more calls
        while each is expected to end `reserve` first passes before the deadline."""
        deadline = time.perf_counter() + seconds
        passes = 0
        while True:
            for i in range(len(self.calls)):
                if passes >= min_passes and (time.perf_counter() + self.times[i][0]
                                             + reserve * self.first_pass_s() > deadline):
                    return
                self.call(i)
            passes += 1

    def first_pass_s(self) -> float:
        return sum(t[0] for t in self.times)

    def raw_wall_s(self) -> float:
        return sum(statistics.median(t) for t in self.times)

    def wall_s(self) -> float:
        return sum(statistics.median(t) for t in self.nominal)

    def check_counts(self) -> tuple[int, int, list[str]]:
        attempted = failed = 0
        failures = []
        for (label, _), outcome in zip(self.calls, self.first):
            if isinstance(outcome, Exception):
                attempted += 1
                failed += 1
                failures.append(f"{label}: raised {type(outcome).__name__}: {outcome}")
                continue
            for c in outcome["checks"]:
                attempted += 1
                if c["status"] != "pass":
                    failed += 1
                    failures.append(f"{label}: {c['parameters'].get('operation')} "
                                    f"worst {c['worst_residual']:.3g} > tol {c['tolerance']:.3g}")
        return attempted, failed, failures

    def reports(self):
        return [r for r in self.first if isinstance(r, dict)]


def traced_pass(client: Client, tracer) -> tuple[float, list]:
    """One more pass with the wrappers installed; per-call span ranges and
    counter deltas are kept for the cross-check."""
    per_call = []
    tracer.install()
    try:
        wall = 0.0
        for i in range(len(client.calls)):
            first_span, before = len(tracer.spans), Counter(tracer.counts)
            wall += client.call(i)
            per_call.append((first_span, len(tracer.spans), tracer.counts - before))
    finally:
        tracer.uninstall()
    return wall, per_call


def crosscheck(client: Client, tracer, per_call) -> dict:
    """Traced values comparable with the ROADMAP baseline figures."""
    labels = [label for label, _ in client.calls]

    def total(prefix, name):
        return sum(e - s for i, label in enumerate(labels) if label.startswith(prefix)
                   for n, s, e, _ in tracer.spans[per_call[i][0]:per_call[i][1]] if n == name)

    def count(prefix, key):
        return sum(per_call[i][2][key] for i, label in enumerate(labels)
                   if label.startswith(prefix))

    out = {}
    if total("darboux@type-I(2,3)", "verify.darboux_residuals"):
        out["darboux@type-I(2,3): hessian share of darboux_residuals"] = (
            total("darboux@type-I(2,3)", "forms.complex_hessian_batch")
            / total("darboux@type-I(2,3)", "verify.darboux_residuals"))
    if total("capacity@type-I(2,3)", "verify.check_capacity"):
        sampler = "hartogs.sample_member_points_full"
        out["capacity pass: flat sampler share"] = (
            total("capacity@", sampler) / total("capacity@", "verify.check_capacity"))
        out["capacity@type-I(2,3): flat sampler share"] = (
            total("capacity@type-I(2,3)", sampler)
            / total("capacity@type-I(2,3)", "verify.check_capacity"))
        out["capacity@type-I(2,3): sampler accept ratio"] = (
            count("capacity@type-I(2,3)", "hartogs.sampler_returned_rows")
            / count("capacity@type-I(2,3)", "hartogs.sampler_tested_rows"))
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cartanhartogs", "__init__.py")):
        print(f"perfbench: no cartanhartogs sources under {SRC}; "
              "run from the root of a repository checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(one of {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2

    nproc = cap_blas_threads()
    setup = measure_setup(args.workload)

    import numpy
    import reference
    import scipy
    from cartanhartogs import cli, verify

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported {cli.__file__}, not the checkout's sources",
              file=sys.stderr)
        return 2
    env = {"nproc": nproc, "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__,
           "openblas_threads": openblas_threads(), "seed": args.seed}
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env: " + json.dumps(env, sort_keys=True))

    calls = workloads.make_calls(cli, args.workload, args.seed)
    client = Client(cli, workloads, reference, calls)
    record = {"args": vars(args), "env": env, "setup_s": setup}

    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        client.loop(args.seconds, 1, reserve=TRACE_SLOWDOWN)
        untraced = client.wall_s()
        traced_wall, per_call = traced_pass(client, tracer)
        traced_nominal = sum(t[-1] for t in client.nominal)
        families = list(verify.CHECKS)
        values = tracing.layer_metrics(tracer, families, traced_wall)
        ratios = [r for rep in client.reports() for r in workloads.residual_ratios(rep)]
        values["verify.resid_ratio_max"] = max(ratios, default=0.0)
        values["measures.volume_s_at_1pct"] = untraced * (values["measures.rse_max"] / 0.01) ** 2
        values["trace.overhead_s"] = traced_nominal - untraced
        checks = crosscheck(client, tracer, per_call)
        for key, val in checks.items():
            print(f"crosscheck: {key} = {val:.4g}")
        record["crosscheck"] = checks
        spans = tracer.spans
    else:
        client.loop(args.seconds, MIN_PASSES)
        setup_nominal = [reference.nominal(s, r, r) for s, r in setup]
        values = {"wall_s": client.wall_s(), "setup_s": statistics.median(setup_nominal),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        spans = None

    attempted, failed, failures = client.check_counts()
    if not args.trace:
        values["pass_ratio"] = 1.0 - failed / attempted
    repeats = sum(len(t) for t in client.times)
    lonely = sum(1 for t in client.times if len(t) < 2)
    print(f"calls: {len(calls)} per pass, {repeats} timed, {lonely} without a repeat")
    print(f"checks per pass: attempted={attempted} failed={failed} "
          f"fail_ratio={failed / attempted:.6g}")
    for line in failures:
        print(f"  failed: {line}")
    for line in client.problems:
        print(f"  INCORRECT: {line}")
    print("gates: report digests and capacity intervals "
          + ("ok" if not client.problems else "FAILED"))
    print(f"machine speed: reference kernel median {statistics.median(client.refs) * 1e3:.1f} ms "
          f"over {len(client.refs)} samples (nominal {reference.NOMINAL_S * 1e3:.0f} ms); "
          f"raw wall_s = {client.raw_wall_s():.4g} s, "
          f"raw setup_s = {statistics.median(s for s, _ in setup):.4g} s")
    if not args.trace:
        ratios = [r for rep in client.reports() for r in workloads.residual_ratios(rep)]
        rses = [r for rep in client.reports() for r in workloads.volume_rses(rep)]
        print("also (not in BENCHMARK.json, seed-dependent): fail_ratio = "
              f"{failed / attempted:.6g} ratio; resid_ratio_max = "
              + (f"{max(ratios):.6g} ratio" if ratios else "n/a (no residual checks)")
              + "; volume_s_at_1pct = "
              + (f"{values['wall_s'] * (max(rses) / 0.01) ** 2:.6g} s" if rses
                 else "n/a (no Monte Carlo estimates)"))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared_units(args.trace).items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")

    record.update({"metrics": metrics, "failures": failures, "problems": client.problems,
                   "refs": client.refs, "calls": [{"label": label, "times_s": t, "digest": d}
                             for (label, _), t, d in zip(calls, client.times, client.digests)]})
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                             f"{time.strftime('%Y%m%dT%H%M%S')}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if spans is not None:
        # one spans file per workload, replaced by each traced run, bounds the disk used
        with gzip.open(os.path.join(OUT, f"{args.workload}-spans.json.gz"), "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": spans}, fh)

    print(json.dumps({"correct": not client.problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
