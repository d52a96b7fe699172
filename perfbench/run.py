"""entrodim benchmark driver.

    python3 perfbench/run.py --workload lp_check --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One process, one client, no threads: a closed loop calls
``entrodim.cli.main(argv)`` in-process, each request after the previous
one returns, on a fixed batch of seeded requests. The batch is
``round(seconds / (REPEATS * PASS_SECONDS))`` passes of the workload,
and the whole batch runs REPEATS times (both by workload), so a run
does a fixed amount of work that takes about ``--seconds`` on a 2-core
machine with CPython 3.11; a faster program finishes it sooner. Times
are reported at a reference speed measured in the same run (see
`reference`).
Every answer is judged by the benchmark's own oracles (oracles.py).

With ``--trace 0`` the last line reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced rerun of the batch
(tracing.py). The program is imported from ``src/`` next to this
directory; without it the driver exits with a nonzero status and prints
no result.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import inputs
import oracles
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("lp_check", "group_scan", "witness_pipeline")

#: seconds one pass takes on the reference machine (2 cores, CPython 3.11.7)
PASS_SECONDS = {"lp_check": 5.8, "group_scan": 2.3, "witness_pipeline": 1.6}

#: fresh-process set-up samples per run, besides the run's own process
SETUP_PROBES = 6

#: seconds `reference` typically takes on the reference machine (2 cores,
#: CPython 3.11.7); reported times are scaled to that speed
REF_SECONDS = 0.024

#: during a batch, a reference sample is taken before the first request
#: after this many seconds have passed since the previous sample
REF_EVERY = 0.5

#: the batch runs this many times; each request's fastest repetition
#: counts. group_scan has eight kinds of request in clusters of equal
#: cost; its median and tail need more requests, so it gets more passes
#: and fewer repetitions.
REPEATS = {"lp_check": 5, "group_scan": 3, "witness_pipeline": 5}

#: latency classes reported by workload, in summary order
CLASSES = {
    "lp_check": ("check_m4", "check_m5", "check_m6"),
    "group_scan": ("scan_int", "scan_frac"),
    "witness_pipeline": ("counterexample", "split", "pointset"),
}

#: counters the layer map says stay at zero on a workload
ISOLATION = {
    "lp_check": ("core.loglin_sign_calls", "groups.coset_point_calls",
                 "cantor.project_calls", "splitting.projection_count_calls"),
    "group_scan": ("simplex.solve_calls", "shannon.elemental_calls",
                   "cantor.project_calls", "splitting.projection_count_calls"),
    "witness_pipeline": ("simplex.solve_calls", "shannon.elemental_calls"),
}


def load_program():
    """Import entrodim from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "entrodim" / "__init__.py").is_file():
        raise SystemExit(f"error: no entrodim sources under {src}")
    sys.path.insert(0, str(src))
    import entrodim
    import entrodim.cli

    if Path(entrodim.__file__).resolve().parent != (src / "entrodim").resolve():
        raise SystemExit(f"error: imported entrodim from {entrodim.__file__}")
    return entrodim


def call(program, argv):
    """One request: (exit code or None, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = program.cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an error the CLI does not handle fails this request
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


#: a JSON document like a program report, for `reference`
REF_DOC = json.dumps({"weights": [
    {"row": i, "weight": f"{i}/7", "inequality": "1 H(a,b) <= 1 H(a) + 1 H(b)"}
    for i in range(300)]})


def reference():
    """Seconds one fixed block of the benchmark's own Python takes:
    integer arithmetic, Fraction arithmetic, frozenset-keyed dicts, a
    set of point tuples and its projection, and a JSON round trip, the
    kinds of work the program does.

    On a shared host the speed of the whole machine drifts by up to 1.5x
    over minutes, and the program and this block slow down together.
    Times are reported at reference speed (see `speed_scale`), so the
    drift largely cancels while a change in the program's own cost shows
    in full: the block never changes. The collector is paused while it
    runs, so its time does not depend on the size of the heap."""
    gc.disable()
    start = time.perf_counter()
    s = 0
    for i in range(60_000):
        s += i * i % 7
    x = Fraction(1)
    for i in range(1, 800):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, i)
    d = {}
    for i in range(10_000):
        k = frozenset((i % 13, i % 7, i % 5))
        d[k] = d.get(k, 0) + 1
    pts = {(a, b, c) for a in range(24) for b in range(24) for c in range(24)}
    {p[:2] for p in pts}
    for _ in range(6):
        json.dumps(json.loads(REF_DOC))
    seconds = time.perf_counter() - start
    gc.enable()
    return seconds


def setup_probe(workload, seed):
    """Seconds to import entrodim and answer the warm-up request, and the
    median of three reference samples taken after."""
    start = time.perf_counter()
    program = load_program()
    code, _, err, _ = call(program, inputs.warmup_argv(workload, seed))
    if code not in (0, 2):
        raise SystemExit(f"error: warm-up request failed ({code}): {err.strip()}")
    seconds = time.perf_counter() - start
    return program, seconds, statistics.median(reference() for _ in range(3))


def materialize(requests, workdir, prefix=""):
    """Write every request's input files; return the argv lists."""
    argvs = []
    for i, req in enumerate(requests):
        paths = {}
        for name, obj in req.files.items():
            path = workdir / f"{prefix}{i}-{name}.json"
            path.write_text(json.dumps(obj))
            paths["@" + name] = str(path)
        argvs.append([paths.get(a, a) for a in req.argv])
    return argvs


def judge(req, result):
    """Failure message for one answer, or None when the oracle accepts it."""
    code, out, err, _ = result
    try:
        if code not in (0, 2):
            raise oracles.OracleError(f"exit {code}: {err.strip()[-300:]}")
        oracles.judge(req, code, json.loads(out))
    except (oracles.OracleError, KeyError, TypeError, ValueError, IndexError) as exc:
        return f"{req.argv[:2]}: {type(exc).__name__}: {exc}"
    return None


def run_batch(program, passes, repeats, tracer=None, refs=None):
    """Closed loop over the whole batch, `repeats` times.

    Returns (wall, latencies, failures, attempted). A request's latency
    is its fastest repetition: on a shared 2-core machine the same work
    runs 10-40 % slower for stretches of seconds, and repetitions spread
    over the run are more likely to meet a fast stretch. `wall` is the
    sum of those latencies, the time the batch takes at its best
    observed speed. Every answer of every repetition is judged, outside
    the timed loop. Given a list `refs`, it gets one list per repetition
    of the reference samples taken, between requests, at its start and
    every REF_EVERY seconds after."""
    best = [[math.inf] * len(requests) for requests, _ in passes]
    failures, attempted = [], 0
    for _ in range(repeats):
        last_ref = -math.inf
        if refs is not None:
            refs.append([])
        for (requests, argvs), times in zip(passes, best):
            results = []
            for argv in argvs:
                if refs is not None and time.perf_counter() - last_ref >= REF_EVERY:
                    refs[-1].append(reference())
                    last_ref = time.perf_counter()
                if tracer is not None:
                    tracer.request += 1
                results.append(call(program, argv))
            for i, (req, result) in enumerate(zip(requests, results)):
                times[i] = min(times[i], result[3])
                msg = judge(req, result)
                if msg is not None:
                    failures.append(msg)
            attempted += len(requests)
    latencies = [t for times in best for t in times]
    return sum(latencies), latencies, failures, attempted


def speed_scale(refs):
    """Factor that brings a run's times to reference speed: REF_SECONDS
    over the reference time of the run's fastest repetition, taken as
    the median of that repetition's samples. A request's latency is its
    fastest repetition, so the machine's speed is judged at the same
    grain."""
    return REF_SECONDS / min(statistics.median(samples) for samples in refs)


def tail(latencies):
    """Highest nearest-rank percentile with ten samples above it:
    (value, percentile, sample count)."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(workload, requests, wall, lat, setup, failures, attempted):
    p50 = statistics.median(lat) * 1000
    tail_ms, pct, n = tail(lat)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "req_p50_ms": (p50, "ms"),
        "req_tail_ms": (tail_ms * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"req_tail_ms is p{pct:.1f} of {n} requests; setup_s is the median of "
          f"{len(setup)} fresh-process samples; all times are at reference speed")
    extra = {"fail_ratio": (len(failures) / attempted, "ratio")}
    for kind in CLASSES[workload]:
        xs = [t for r, t in zip(requests, lat) if r.kind == kind]
        if kind.startswith("scan_"):
            tuples = sum(r.tuples for r in requests if r.kind == kind)
            name = "tuples_per_s" if kind == "scan_int" else "frac_tuples_per_s"
            extra[name] = (tuples / sum(xs), "tuples/s")
        extra[f"{kind}_p50_ms"] = (statistics.median(xs) * 1000, "ms")
        extra[f"{kind}_requests"] = (len(xs), "count")
    for name, (value, unit) in list(metrics.items()) + list(extra.items()):
        print(f"  {name:<24} {value:14.4f} {unit}")
    return metrics


def check_pins(tracer, requests):
    """Traced group searches must list the pinned subgroup counts, and
    those that find nothing must cover the pinned tuple totals."""
    pins = {name: count for name, _, count in inputs.CATALOG}
    pins.update({name: count for name, (_, count) in inputs.GROUPS.items()})
    out = [f"all_subgroups({name}) lists {n} subgroups, pinned {pins[name]}"
           for name, _, n in tracer.subgroup_counts if name in pins and pins[name] != n]
    want = sum(r.tuples for r in requests)
    got = tracer.counts.get("groups.tuples_covered", 0)
    if got != want:
        out.append(f"group searches covered {got} tuples, pinned {want}")
    return out


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bits_max"):
        return "bits"
    return "count"


def run(args):
    program, *own = setup_probe(args.workload, args.seed)
    setup = [own]  # (seconds, reference seconds) per fresh process
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe = subprocess.run(
                [sys.executable, __file__, "--probe-setup", "--workload", args.workload,
                 "--seed", str(args.seed)],
                capture_output=True, text=True, timeout=120, check=True)
            setup.append([float(x) for x in probe.stdout.split()[-2:]])

    count = max(1, round(args.seconds / (REPEATS[args.workload] * PASS_SECONDS[args.workload])))
    batch = inputs.batch(args.workload, args.seed, count)
    requests = [r for p in batch for r in p]
    workdir = ROOT / f".perfbench_tmp-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        passes = [(p, materialize(p, workdir, f"{i}-")) for i, p in enumerate(batch)]
        # the batch stays alive for the whole run; keep it out of the
        # collector's scans so it does not slow the requests down
        gc.collect()
        gc.freeze()
        repeats = 1 if args.trace else REPEATS[args.workload]
        refs = []
        wall, lat, failures, attempted = run_batch(program, passes, repeats, refs=refs)
        scale = speed_scale(refs)
        print(f"{args.workload} seed {args.seed}: {len(requests)} requests in {count} "
              f"passes, best of {repeats}, {wall:.2f} s measured, {len(failures)} failed; "
              f"{sum(map(len, refs))} reference samples, times scaled by {scale:.4f}")
        if not args.trace:
            print(f"measured, not scaled: wall_s {wall:.4f}, req_p50_ms "
                  f"{statistics.median(lat) * 1000:.4f}, req_tail_ms {tail(lat)[0] * 1000:.4f}, "
                  f"setup_s {statistics.median(t for t, _ in setup):.4f}")
            metrics = end_to_end(args.workload, requests, wall * scale,
                                 [t * scale for t in lat],
                                 [t * REF_SECONDS / ref for t, ref in setup],
                                 failures, attempted)
        else:
            with Tracer(program) as tracer:
                traced_wall, _, traced_failures, traced = run_batch(program, passes, 1, tracer)
            attempted += traced
            failures += traced_failures + check_pins(tracer, requests)
            layer = tracer.metrics(traced_wall, wall)
            metrics = {k: (v, unit_of(k)) for k, v in layer.items()}
            for name in ISOLATION[args.workload]:
                print(f"isolation: {name} = {layer[name]} (expected 0)")
            outdir = ROOT / ".perfbench_out"
            outdir.mkdir(exist_ok=True)
            (outdir / f"trace-{args.workload}-{args.seed}.json").write_text(
                json.dumps(tracer.dump()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for msg in failures[:20]:
        print("FAILED", msg, file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def run_all(args):
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            timeout=600)
        if proc.returncode:
            raise SystemExit(proc.returncode)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.probe_setup:
        print(*setup_probe(args.workload, args.seed)[1:])
    elif args.workload == "all":
        run_all(args)
    else:
        run(args)


if __name__ == "__main__":
    main()
