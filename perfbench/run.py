"""The sfuncs benchmark: one workload per run, in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the directory that holds ``src/sfuncs``
and ``BENCHMARK.json``.  Nothing needs building; the package is imported
from ``src`` and the CLI children get ``PYTHONPATH=src``.

A run sets the workload up from the seed, then repeats passes of its job
list (every pass starts with the package's lru caches cleared, like a fresh
batch) while the next pass would end within ``--seconds`` of the start of
the timing.  One pass always runs.  Each pass's outputs are checked for
exactness and digested (SHA-256 of canonical JSON) after its timing.

* ``--trace 0`` reports the end-to-end metrics.  ``wall_ref_s`` and
  ``cpu_ref_s`` are the time of one pass at the reference speed (below),
  as the sum over the pass's jobs of each job's median over the passes.
  ``setup_s`` is the median, at the reference speed, over fresh
  interpreters that each import the package and make the inputs; they run
  one at a time between the passes.
* ``--trace 1`` spends half the budget on untraced passes and half on
  passes under the outside-in tracer (``tracer.py``), then reports the
  per-layer metrics, per traced pass, with ``trace.overhead_ratio``.
  Traced outputs must digest the same as the untraced ones.

Reference speed: a shared host can run the same code up to 1.7 times
slower for stretches of a minute and more (seen on a 2-core KVM guest),
which no statistic within a run can remove.  So a calibration round runs
before every job and after the last, and every job's time is scaled by
the reference round's time over the median of the two rounds before it
and the two after it.  A job's scaled time is the time it would take on a
host whose calibration round takes the reference time.  The round is a
fixed piece of pure-Python rational arithmetic (``calibrate``, reference
``CAL_REF_S``), or for workloads whose jobs are child processes the start
of a bare interpreter (``calibrate_spawn``, reference ``SPAWN_REF_S``).
The raw times are printed and kept in the result file too.

Every metric is printed as ``name = value unit``; a result file with the
machine, the provenance, every pass and every digest goes to
``.perfbench/results/``; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

import tracer as tracing

# Fresh interpreters timed for setup_s.  They run between passes, so that a
# few seconds in which the shared host runs slow cannot hold all of them.
SETUP_PROBES = 7
# Seconds of one calibration round on the reference host: about what the
# round takes on a 2-core x86-64 KVM guest with CPython 3.11 when its host
# is not loaded.
CAL_REF_S = 0.004
# The same for calibrate_spawn, the round of workloads whose jobs are
# child processes.
SPAWN_REF_S = 0.018
STATE_DIR = ".perfbench"


def fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs the harness's self-test, not the benchmark")
    ap.add_argument("--setup-only", action="store_true",
                    help="make the inputs and exit (one setup_s sample)")
    return ap.parse_args(argv)


@dataclass
class PassResult:
    index: int
    traced: bool
    wall: float
    cpu: float
    latency: dict[str, float]
    job_cpu: dict[str, float]
    # The same at the reference speed, and the calibration rounds around jobs.
    latency_ref: dict[str, float]
    job_cpu_ref: dict[str, float]
    cal: list[float]
    digests: dict[str, str]
    errors: dict[str, str]
    out_bits: int
    snapshot: dict = field(default_factory=dict)


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def clear_package_caches() -> None:
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "sfuncs":
            for obj in list(vars(mod).values()):
                if isinstance(obj, functools._lru_cache_wrapper):
                    obj.cache_clear()


def cpu_now() -> float:
    """User plus system seconds of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def calibrate() -> float:
    """Wall seconds of one calibration round, the median of three: a fixed
    sum of rationals whose denominators grow to a few thousand bits, the
    kind of arithmetic that the sfuncs layers do.  The median drops a round
    that the scheduler cut into."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        x = Fraction(0)
        for k in range(1, 700):
            x += Fraction(1, k * k)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def calibrate_spawn() -> float:
    """Wall seconds to start and end a bare interpreter (no site import):
    the calibration round of jobs that run in child processes.  Their time
    follows the host's speed at starting processes, which the arithmetic
    round does not track: on the cli verbs, scaling by the arithmetic round
    left the spread of ten-run windows at 0.14, and scaling by this round
    brought it to 0.03."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
    return time.perf_counter() - t0


def to_ref(seconds: float, cal_before: float, cal_after: float) -> float:
    """seconds, measured between two calibration rounds, at the reference speed."""
    return seconds * 2 * CAL_REF_S / (cal_before + cal_after)


def job_times_ref(times: dict[str, float], cal: list[float], ref: float) -> dict[str, float]:
    """Each job's seconds at the reference speed, whose calibration round
    takes ref seconds.  cal[i] ran just before job i and cal[i + 1] just
    after it; a job is scaled by the median of the two rounds before it and
    the two after it.  Single rounds were off by up to four times."""
    out = {}
    for i, (name, seconds) in enumerate(times.items()):
        near = statistics.median(cal[max(0, i - 1):i + 3])
        out[name] = seconds * ref / near
    return out


def one_pass(plan, index: int, tracer, work: str) -> tuple[PassResult, dict]:
    jobs = plan.jobs
    clear_package_caches()
    if tracer is not None:
        plan.trace_dir = os.path.join(work, f"trace-{index}")
        os.makedirs(plan.trace_dir, exist_ok=True)
        tracer.install()
    outputs, latency, job_cpu, errors = {}, {}, {}, {}
    calibrate_round, ref = ((calibrate_spawn, SPAWN_REF_S) if plan.child_jobs
                            else (calibrate, CAL_REF_S))
    cal = [calibrate_round()]
    c0, t0 = cpu_now(), time.perf_counter()
    for job in jobs:
        s, c = time.perf_counter(), cpu_now()
        try:
            outputs[job.name] = job.run(outputs)
        except Exception as exc:  # a failed job is counted, the run goes on
            errors[job.name] = f"{type(exc).__name__}: {exc}"
        latency[job.name] = time.perf_counter() - s
        job_cpu[job.name] = cpu_now() - c
        cal.append(calibrate_round())
    wall, cpu = time.perf_counter() - t0, cpu_now() - c0
    latency_ref = job_times_ref(latency, cal, ref)
    job_cpu_ref = job_times_ref(job_cpu, cal, ref)
    snap = {}
    if tracer is not None:
        tracer.uninstall()
        snap = tracer.snapshot()
        for name in sorted(os.listdir(plan.trace_dir)):
            with open(os.path.join(plan.trace_dir, name)) as fh:
                tracing.merge(snap, json.load(fh))
        plan.trace_dir = None
    digests = {}
    for job in jobs:
        if job.name in outputs:
            digests[job.name] = digest(job.canon(outputs[job.name]))
    bits = series_bits(x for out in outputs.values()
                       for x in (out if isinstance(out, tuple) else (out,)))
    return PassResult(index, tracer is not None, wall, cpu, latency, job_cpu, latency_ref,
                      job_cpu_ref, cal, digests, errors, bits, snap), outputs


def run_passes(plan, budget: float, tracer, work: str, seen: dict, problems: dict,
               between=None):
    """Passes while the next one, as long as the last, ends within budget
    seconds of the first one's start; checks each pass's outputs after its
    timing, then calls between() outside the timing."""
    results, start = [], time.perf_counter()
    while True:
        res, outputs = one_pass(plan, len(results), tracer, work)
        results.append(res)
        tag = f"{'traced ' if res.traced else ''}pass {res.index}"
        for name, err in res.errors.items():
            problems[f"{tag}: {name}"] = err
        fresh = {n: o for n, o in outputs.items() if n not in seen}
        if res.errors:
            problems[f"{tag}: check"] = "not checked: a job of this pass raised"
        else:
            for name, why in plan.check(fresh).items():
                problems[f"{tag}: {name}"] = why
        for name, d in res.digests.items():
            if seen.setdefault(name, d) != d:
                problems[f"{tag}: {name}"] = "output digest differs from an earlier pass"
        del outputs, fresh
        if between is not None:
            between()
        if time.perf_counter() - start + res.wall > budget:
            return results


def per_job_total(passes, key: str) -> float:
    """Sum over the jobs of a pass of each job's median over the passes.

    Jobs are matched by their place in the pass.  A pass of long jobs on a
    host that runs slow for a few seconds at a time then counts a slow
    stretch in one sample of a few jobs, not in the whole pass."""
    columns = zip(*(list(getattr(p, key).values()) for p in passes))
    return sum(statistics.median(c) for c in columns)


class SetupProbes:
    """Seconds that fresh interpreters take to import sfuncs and make the
    inputs, raw and at the reference speed.  Each interpreter times itself
    from before the import to inputs ready, between two calibration rounds:
    the start of the interpreter is left out, because the time to spawn a
    process and load Python spread by a third between runs on a shared host
    and does not depend on sfuncs."""

    def __init__(self, args):
        self.cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", "0", "--size", args.size]
        self.times: list[float] = []
        self.times_ref: list[float] = []

    def one(self) -> None:
        if len(self.times) >= SETUP_PROBES:
            return
        r = subprocess.run(self.cmd, capture_output=True, text=True, timeout=120)
        if r.returncode != 0:
            raise RuntimeError(f"setup probe failed: {r.stderr.strip()[-500:]}")
        probe = json.loads(r.stdout.strip().splitlines()[-1])
        self.times.append(probe["setup_s"])
        self.times_ref.append(probe["setup_ref_s"])

    def all(self) -> list[float]:
        while len(self.times) < SETUP_PROBES:
            self.one()
        return self.times_ref


def provenance(root: str) -> dict:
    """The git commit when there is one, and always a digest of the package source."""
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "sfuncs")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                               text=True, timeout=10)
            commit = r.stdout.strip() or None
        except OSError:
            commit = None
    return {"git_commit": commit, "source_sha256": h.hexdigest()}


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def layer_value(name: str, snap: dict, npass: int, extra: dict):
    """One per-layer metric from the merged traced snapshots."""
    if name in extra:
        return extra[name]
    if name in snap.get("counters", {}) or name.count(".") == 1:
        return snap.get("counters", {}).get(name, 0) / npass
    base, kind = name.rsplit(".", 1)
    if kind == "hit_ratio":
        c = snap.get("caches", {}).get(base, {"hits": 0, "misses": 0})
        total = c["hits"] + c["misses"]
        return c["hits"] / total if total else 0.0
    span = snap.get("spans", {}).get(base, {"calls": 0, "s": 0.0, "self_s": 0.0})
    return span[kind] / npass


def series_bits(values) -> int:
    """Largest bit length among numerators and denominators of the series."""
    from sfuncs.mseries import MSeries
    from sfuncs.series import Series

    best = 0
    for v in values:
        if isinstance(v, Series):
            coeffs = v.coeffs
        elif isinstance(v, MSeries):
            coeffs = [c for _, c in v.terms]
        else:
            continue
        for c in coeffs:
            best = max(best, c.den.bit_length(), *(abs(n).bit_length() for n in c.nums))
    return best


def layer_shares(snap: dict, npass: int, wall: float) -> dict:
    shares: dict[str, float] = {}
    for name, span in snap.get("spans", {}).items():
        layer = name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + span["self_s"] / npass / wall
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "sfuncs", "__init__.py")):
        fail(f"no package at {os.path.join('src', 'sfuncs')}; run from the checkout root")
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("no BENCHMARK.json in the working directory")
    with open(spec_path) as fh:
        spec = json.load(fh)
    cal_before = calibrate()
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import sfuncs
    import workloads

    if os.path.dirname(os.path.abspath(sfuncs.__file__)) != os.path.join(src, "sfuncs"):
        fail(f"imported sfuncs from {sfuncs.__file__}, not from {src}")
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    build = workloads.WORKLOADS[args.workload]
    work = os.path.join(root, STATE_DIR, f"work-{os.getpid()}")
    os.makedirs(work)
    try:
        plan = build(args.seed, workloads.SIZES[args.size], work, src)
        setup = time.perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup,
                              "setup_ref_s": to_ref(setup, cal_before, calibrate())}))
            return 0
        return measure(args, spec, plan, setup, work, root)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, spec, plan, setup_inprocess: float, work: str, root: str) -> int:
    import workloads  # after main() put src/ on sys.path

    seen, problems = {}, {}
    budget = args.seconds / 2 if args.trace else args.seconds
    probes = None if args.trace else SetupProbes(args)
    plain = run_passes(plan, budget, None, work, seen, problems,
                       probes.one if probes else None)
    # This process at its peak plus the largest child a timed job started.
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + plan.child_maxrss_kb
    traced = []
    if args.trace:
        traced = run_passes(plan, budget, tracing.Tracer(), work, seen, problems)
    all_passes = plain + traced
    attempted = sum(len(p.latency) for p in all_passes)
    failed = min(len(problems), attempted)
    latencies = [x for p in plain for x in p.latency.values()]
    e2e = {
        "wall_ref_s": (per_job_total(plain, "latency_ref"), "s"),
        "cpu_ref_s": (per_job_total(plain, "job_cpu_ref"), "s"),
        "wall_s": (per_job_total(plain, "latency"), "s"),
        "cpu_s": (per_job_total(plain, "job_cpu"), "s"),
        "job_p50_s": (statistics.median(latencies), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "ops_failed_frac": (failed / attempted, "fraction"),
        "cal_round_s": (statistics.median(c for p in plain for c in p.cal), "s"),
    }
    samples = {k: len(plain) for k in ("wall_ref_s", "cpu_ref_s", "wall_s", "cpu_s")}
    samples["job_p50_s"] = len(latencies)
    # The highest latency percentile with at least ten samples above it.
    tail = None
    if len(latencies) >= 20:
        pct = 100 * (len(latencies) - 10) // len(latencies)
        tail = {"percentile": pct,
                "value": statistics.quantiles(latencies, n=100)[pct - 1], "unit": "s"}
    if probes is not None:
        e2e["setup_s"] = (statistics.median(probes.all()), "s")
        e2e["setup_raw_s"] = (statistics.median(probes.times), "s")
        samples["setup_s"] = samples["setup_raw_s"] = len(probes.times)

    per_layer, shares, snap = {}, {}, {}
    if traced:
        for p in traced:
            tracing.merge(snap, p.snapshot)
        pairs = min(len(plain), len(traced))
        extra = {
            "trace.overhead_ratio": statistics.median(
                sum(traced[j].latency_ref.values()) / sum(plain[j].latency_ref.values())
                for j in range(pairs)),
            "numfield.out_bits_max": max(p.out_bits for p in all_passes),
        }
        # cli.<verb>.s: the harness's own span around each child, untraced.
        for verb in workloads.CLI_VERBS:
            extra[f"cli.{verb}.s"] = (statistics.median(p.latency[verb] for p in plain)
                                      if args.workload == "cli" else 0.0)
        per_layer = {m["name"]: (layer_value(m["name"], snap, len(traced), extra), m["unit"])
                     for m in spec["per_layer"]}
        shares = layer_shares(snap, len(traced), statistics.median(p.wall for p in traced))

    correct = not problems
    for name, (value, unit) in e2e.items():
        note = f"  (from {samples[name]} samples)" if name in samples else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    for name, (value, unit) in per_layer.items():
        print(f"{name} = {value:.6g} {unit}")
    if tail:
        print(f"job_p{tail['percentile']}_s = {tail['value']:.6g} s  (of {len(latencies)} jobs)")
    for key, why in sorted(problems.items()):
        print(f"FAILED {key}: {why}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    source = per_layer if args.trace else e2e
    for m in wanted:
        value, unit = source[m["name"]]
        if unit != m["unit"]:
            raise RuntimeError(f"{m['name']}: unit {unit} != {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}

    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "machine": machine(), "provenance": provenance(root),
        "sizes": plan.sizes, "notes": plan.notes,
        "setup_inprocess_s": setup_inprocess,
        "setup_probes_s": probes.times if probes else [],
        "setup_probes_ref_s": probes.times_ref if probes else [],
        "end_to_end": {k: {"value": v, "unit": u, "samples": samples.get(k)}
                       for k, (v, u) in e2e.items()},
        "job_latency_tail": tail,
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()},
        "layer_self_share": shares,
        "spans_per_traced_pass": {
            name: {k: v / len(traced) for k, v in span.items()}
            for name, span in snap.get("spans", {}).items()},
        "pass_median_wall_s": statistics.median(p.wall for p in plain),
        "passes": [{"index": p.index, "traced": p.traced, "wall_s": p.wall, "cpu_s": p.cpu,
                    "jobs_s": p.latency, "jobs_cpu_s": p.job_cpu, "jobs_ref_s": p.latency_ref,
                    "jobs_cpu_ref_s": p.job_cpu_ref, "cal_rounds_s": p.cal}
                   for p in all_passes],
        "digests": seen,
        "digest": digest(sorted(seen.items())),
        "attempted": attempted, "failed": failed, "problems": problems, "correct": correct,
    }
    out_dir = os.path.join(root, STATE_DIR, "results")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print(f"result file: {os.path.relpath(out_path, root)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
