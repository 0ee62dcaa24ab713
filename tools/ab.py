"""In-process A/B timing of this checkout's package against a git revision.

    python3 tools/ab.py REV

unpacks `git archive REV src/gsadmm` into a temporary directory as the
package `gsadmm_parent` and imports it beside this checkout's `gsadmm` (from
./src, working tree included), which works because the package uses only
relative imports. Each side builds the benchmark's three workloads with its
own package, and the package calls of one pass are timed as in
bench/workloads.py:

- catalog: the 13-instance standard catalog, 2000 forced iterations from
  zero, then the four post-hoc checks;
- box-enum: `gen_box_qp(1, 1, [5], [3], 5)` seeds 1-10 solved to 1e-10
  from zero, then the four post-hoc checks;
- atlas: `gsadmm sweep` of `gen_quadratic(2, 2, [2, 2], [2, 2], 3)` (the
  first seed that generates from SplitMix64(0)) on an 11 x 11 grid.

After one untimed pass per side, each workload runs PAIRS = 20 pairs in
ABBA order: the change first in even pairs, the parent first in odd ones.
It prints one line per workload: the median change/parent ratio of the
pairs' times, its 10th and 90th percentiles, the pairs the change won
(ratio < 1), and both sides' median pass times. Beside the pass ratio it
prints the median ratio of the pass's seconds inside `engine.solve` and, for
catalog and box-enum, of its verdict seconds (the four post-hoc checks), so
that a change to one of them reads apart from the other. The atlas pass runs
`cli.main`, so its solve seconds are taken by wrapping the module attribute
`engine.solve` during the sweep, as bench/spans.py wraps its targets. With
one BLAS thread a run takes 30-40 s on a 2-vCPU machine. Both sides run in
one process, so the machine's drift between processes does not enter the
ratios. Where REV's package is the working tree's (an A=A run), they show
the noise left.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from time import perf_counter

# Every matrix is at most 15 x 15, where BLAS threads only add noise; set
# before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("catalog", "box-enum", "atlas")
GRID = ("-1.5", "1.5", "11")
PAIRS = 20


def import_parent(rev: str, into: Path):
    """`git archive rev src/gsadmm`, unpacked into `into` as gsadmm_parent
    and imported."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src/gsadmm"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    (into / "src" / "gsadmm").rename(into / "gsadmm_parent")
    sys.path.insert(0, str(into))
    return importlib.import_module("gsadmm_parent")


def certified_pass(pkg, runs):
    """One pass of solves and post-hoc checks; returns its package seconds
    (all, in the solves, in the checks)."""
    solve_s = verdict_s = 0.0
    for problem, config, mats, w_star in runs:
        start = perf_counter()
        trace = pkg.engine.solve(problem, config, w_star=w_star, mats=mats)
        solved = perf_counter()
        pkg.diagnostics.pointwise_residual_check(problem, config, trace)
        pkg.diagnostics.nonergodic_check(mats, trace, w_star)
        constants = pkg.diagnostics.rate_constants(problem, config)
        with contextlib.suppress(pkg.diagnostics.InsufficientTrace):
            pkg.diagnostics.linear_rate_check(mats, trace, w_star, constants)
        solve_s += solved - start
        verdict_s += perf_counter() - solved
    return solve_s + verdict_s, solve_s, verdict_s


@contextlib.contextmanager
def timed_solves(pkg):
    """Wraps `pkg.engine.solve` while the block runs; yields a list whose one
    item adds up the seconds spent in its calls."""
    solve, spent = pkg.engine.solve, [0.0]

    def timed(*args, **kwargs):
        start = perf_counter()
        try:
            return solve(*args, **kwargs)
        finally:
            spent[0] += perf_counter() - start
    pkg.engine.solve = timed
    try:
        yield spent
    finally:
        pkg.engine.solve = solve


def build(pkg, workload: str, out: Path):
    """The workload on pkg as a function that runs one pass and returns its
    package seconds as (all, solve, verdict); an atlas pass has no verdict
    seconds (0)."""
    gen = pkg.generators
    if workload == "atlas":
        rng, bundle = gen.SplitMix64(0), None
        while bundle is None:
            with contextlib.suppress(gen.DegenerateInstance, gen.NonUniqueSolution, gen.PatternExplosion):
                bundle = gen.gen_quadratic(2, 2, [2, 2], [2, 2], 3, seed=rng.next_u64() >> 33)
        argv = ["sweep", "--generator", "quadratic", "--p", "2", "--q", "2", "--x-dims", "2,2",
                "--y-dims", "2,2", "--n", "3", "--seed", str(bundle.seed),
                "--tau-grid", *GRID, "--s-grid", *GRID, "--out", str(out)]

        def sweep():
            with contextlib.redirect_stdout(io.StringIO()), timed_solves(pkg) as solve_s:
                start = perf_counter()
                status = pkg.harness.cli.main(argv)
                elapsed = perf_counter() - start
            if status != 0:
                raise RuntimeError(f"{pkg.__name__}: sweep exited {status}")
            return elapsed, solve_s[0], 0.0
        return sweep
    if workload == "catalog":
        bundles, overrides = gen.standard_catalog(), {"max_iters": 2000, "tol": -1.0}
    else:
        bundles = [gen.gen_box_qp(1, 1, [5], [3], 5, seed=s) for s in range(1, 11)]
        overrides = {"max_iters": 2000, "tol": 1e-10}
    runs = []
    for b in bundles:
        config = gen.default_config(b.problem, **overrides)
        runs.append((b.problem, config, pkg.structure.assemble(b.problem, config), b.w_star))
    return lambda: certified_pass(pkg, runs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the git revision to compare against, e.g. HEAD~1")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    change = importlib.import_module("gsadmm")
    importlib.import_module("gsadmm.harness.cli")
    with tempfile.TemporaryDirectory(prefix="gsadmm-ab-") as tmp:
        parent = import_parent(args.rev, Path(tmp))
        importlib.import_module("gsadmm_parent.harness.cli")
        if change.engine is parent.engine:
            raise SystemExit("both sides import the same package")
        print(f"change {change.__file__}\nparent {args.rev} unpacked as {parent.__file__}")
        for workload in WORKLOADS:
            sides = [build(pkg, workload, Path(tmp) / f"out-{i}") for i, pkg in enumerate((change, parent))]
            for run in sides:  # untimed warm-up
                run()
            parts = np.empty((PAIRS, 2, 3))  # pair, side, (all, solve, verdict)
            for pair in range(PAIRS):
                order = (0, 1) if pair % 2 == 0 else (1, 0)
                for side in order:
                    gc.collect()
                    parts[pair, side] = sides[side]()
            times = parts[:, :, 0]
            ratio = times[:, 0] / times[:, 1]
            p10, p50, p90 = np.percentile(ratio, [10, 50, 90])
            split = f"  solve {np.median(parts[:, 0, 1] / parts[:, 1, 1]):.3f}"
            if workload != "atlas":
                split += f" verdict {np.median(parts[:, 0, 2] / parts[:, 1, 2]):.3f}"
            print(f"{workload:8s} change/parent median {p50:.3f} p10 {p10:.3f} p90 {p90:.3f} "
                  f"won {int((ratio < 1.0).sum())}/{PAIRS}{split}  "
                  f"change {np.median(times[:, 0]) * 1e3:.1f} ms parent {np.median(times[:, 1]) * 1e3:.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
