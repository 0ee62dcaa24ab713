"""gsadmm benchmark: one workload per process, closed loop, one client.

    python3 bench/run.py --workload {catalog,box-enum,atlas} --seed N \
        --seconds S --trace {0,1} [--size tiny]

Run from the root of a checkout; the package is imported from ./src. The
program sees only inputs generated from --seed. After a set-up and
an untimed warm-up pass, passes run back to back until they
fill about S seconds; every pass is checked (see workloads.py) and each
failed instance or grid point counts in `failed`.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
passes with passes traced at every layer boundary (see spans.py) and prints
the per-layer metrics, including the tracing overhead (traced minus
untraced wall_s). The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

# Every matrix here is at most 15 x 15, where BLAS threads only add noise;
# set before numpy is imported, in this process and in the set-up probes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("catalog", "box-enum", "atlas")
SETUP_PROBES = 3
WARMUP_ITERS = 60


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the self-test")
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: time one set-up in a fresh process and exit")
    return parser.parse_args(argv)


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def environment(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": git_commit(),
    }


def setup_probe(args) -> None:
    """Import, generate, validate and assemble once; print the seconds taken."""
    start = perf_counter()
    import workloads  # the timed import of gsadmm, numpy and scipy

    workloads.make(args.workload, args.seed, args.size == "tiny", out_dir=None).build()
    print(json.dumps({"setup_s": perf_counter() - start}))


def setup_seconds(args) -> list[float]:
    """Set-up time of SETUP_PROBES fresh processes, one after the other."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--size", args.size, "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(out.stdout.splitlines()[-1])["setup_s"])
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measured_passes(workload, seconds: float, setup_spans: list | None):
    """Closed loop of passes filling about `seconds`: another pass starts
    only while more than half of a mean pass still fits.

    Without `setup_spans` every pass is untraced. With them, untraced and
    traced passes alternate, each kind at least once, and each traced pass
    is reduced to its layer metrics before its spans are dropped. Returns
    (untraced, traced): lists of (PassResult, metrics of that pass).
    """
    from spans import ENTRY_TARGETS, LAYER_TARGETS, Tracer, entry_metrics, layer_metrics

    runs = {False: [], True: []}
    kinds = [False] if setup_spans is None else [False, True]
    start = perf_counter()
    done = 0
    while not all(runs[k] for k in kinds) or (perf_counter() - start) * (1 + 0.5 / done) < seconds:
        traced = kinds[done % len(kinds)]
        done += 1
        with Tracer(LAYER_TARGETS if traced else ENTRY_TARGETS) as tracer:
            result = workload.run_pass()
        if traced:
            layers, extras = layer_metrics(setup_spans, tracer.spans)
            layers["trace.mem_mb"] = (tracer.memory_mb(), "MB")
            layers["trace.spans"] = (len(tracer.spans), "count")
            runs[True].append((result, (layers, extras, tracer.absent)))
        else:
            runs[False].append((result, entry_metrics(tracer.spans)))
    return runs[False], runs[True]


def quantile(values, q: int) -> float:
    """q-th percentile (statistics.quantiles, exclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(untraced, setup) -> tuple[dict, list[str]]:
    # every pass makes the same solves in the same order; averaging each
    # solve over the passes keeps the percentiles off the machine's fast/slow
    # phases, which a pooled median straddles
    iter_us = [statistics.fmean(solve) for solve in zip(*(e["iter_us"] for _, e in untraced))]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(r.wall_s for r, _ in untraced), "s"),
        "solve_s": (statistics.median(e["solve_s"] for _, e in untraced), "s"),
        "verdict_us": (statistics.median(e["verdict_s"] * 1e6 / e["judged"] for _, e in untraced), "us"),
        "iter_us.p50": (statistics.median(iter_us), "us"),
        "iter_us.p90": (quantile(iter_us, 90), "us"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    ops = statistics.median(r.attempted for r, _ in untraced)
    notes = [f"passes={len(untraced)} iter_us.n={len(iter_us)} "
             f"setup_s samples={','.join(f'{t:.4f}' for t in setup)}",
             f"ops_per_s = {ops / metrics['wall_s'][0]:.6g} (instances or grid points per second)",
             f"verdict_s = {statistics.median(e['verdict_s'] for _, e in untraced):.6g} s per pass"]
    return metrics, notes


def per_layer(untraced, traced) -> tuple[dict, list[str]]:
    """Median over traced passes of each layer metric, plus the overhead."""
    layers = [layer for _, (layer, _, _) in traced]
    _, extras, absent = traced[0][1]
    wall_u = statistics.median(r.wall_s for r, _ in untraced)
    wall_t = statistics.median(r.wall_s for r, _ in traced)
    metrics = {name: (statistics.median(layer[name][0] for layer in layers), unit)
               for name, (_, unit) in layers[0].items()}
    metrics["trace.overhead_s"] = (wall_t - wall_u, "s")
    metrics["trace.overhead_frac"] = (wall_t / wall_u - 1.0, "ratio")
    notes = [f"passes untraced={len(untraced)} traced={len(traced)} "
             f"wall_s untraced={wall_u:.4f} traced={wall_t:.4f}",
             f"absent targets: {', '.join(absent) if absent else 'none'}"]
    notes += [f"layer {name} = {value:.6g} {unit} (calls={calls})"
              for name, (value, unit, calls) in extras.items()]
    return metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gsadmm" / "__init__.py").is_file():
        print(f"error: no package at {SRC}; run from the root of a gsadmm checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args)
        return 0
    out_dir = tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT)
    try:
        return bench(args, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def bench(args, out_dir) -> int:
    setup = [] if args.trace else setup_seconds(args)
    import workloads
    from spans import LAYER_TARGETS, Tracer

    print("env " + json.dumps(environment(args)))
    workload = workloads.make(args.workload, args.seed, args.size == "tiny", out_dir)
    with Tracer(LAYER_TARGETS if args.trace else ()) as setup_tracer:
        workload.build()
    if workload.skipped:
        print(f"skipped derived seeds: {' '.join(workload.skipped)}")
    workload.run_pass(max_iters=WARMUP_ITERS)  # warm-up, not timed or counted

    untraced, traced = measured_passes(workload, args.seconds,
                                       setup_tracer.spans if args.trace else None)
    results = [r for r, _ in untraced + traced]
    for line in results[0].lines:
        print(f"certified {line}")
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    for message in sorted({m for r in results for m in r.failures})[:20]:
        print(f"FAIL {message}")
    print(f"failed_frac = {failed / attempted:.4g} ({failed} of {attempted})")

    if args.trace:
        metrics, notes = per_layer(untraced, traced)
    else:
        metrics, notes = end_to_end(untraced, setup)
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
