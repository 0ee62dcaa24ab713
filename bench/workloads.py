"""The benchmark's workloads and the correctness gate applied to every pass.

Each workload is built from the workload seed alone and then only calls the
package's public functions: generators, model.validate_*, structure.assemble,
engine.solve, diagnostics.* and harness.cli.main. `build` is the set-up
(generate, validate, assemble); `run_pass` runs one pass, times the
package's calls and checks their outputs.

- catalog: the 13-instance standard catalog under acceptance criterion C3
  (2000 forced iterations) plus the full post-hoc verdict. Blocks have
  dimension <= 12, so Python dispatch in engine and diagnostics dominates.
  The seed draws the start points.
- box-enum: 10 boxed QPs with a 5-dimensional box block (instance seeds
  1-10), solved to 1e-10 from the default start. The box oracle enumerates
  up to 3^5 active patterns per call and dominates.
- atlas: `gsadmm sweep` on an 11 x 11 stepsize grid; 116 uncertified solves,
  most of which hit the iteration cap or diverge. The seed draws the
  instance seed.
"""
from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import itertools
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from gsadmm import diagnostics, engine, generators, structure
from gsadmm.harness import cli
from gsadmm.model import Iterate, validate_config, validate_problem

GEN_ERRORS = (
    generators.DegenerateInstance,
    generators.NonUniqueSolution,
    generators.PatternExplosion,
)
# Thresholds of acceptance criteria C3 (identity) and C4 (contraction), and
# the distance to w* a finished run must reach.
IDENTITY_RTOL = 1e-10
SLACK_RTOL = 1e-8
DIST_TOL = 1e-8
# linear_rate_check fits [t/2, t] and raises InsufficientTrace below 20
# points, where the sweep writes r_hat = -1; a converged run this short may
# end there (t is where the residual first reaches 10 tol, a few steps early)
FIT_MIN_ITERS = 50
MAX_SEED_DRAWS = 100


@dataclass
class PassResult:
    wall_s: float = 0.0          # time inside the package's calls
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)  # certified quantities


def _validate(problem, config):
    report = validate_problem(problem)
    report.violations.extend(validate_config(config, problem).violations)
    if not report.ok:
        raise ValueError("invalid benchmark instance: " + "; ".join(report.violations))


def derived_seeds(seed: int):
    """Endless stream of instance seeds drawn from the workload seed."""
    rng = generators.SplitMix64(seed)
    while True:
        yield rng.next_u64() >> 33


def generate(make, seeds, skipped: list[str]):
    """`make(s)` for the first seed `s` in `seeds` that generates. Seeds that
    raise a generation error are skipped and recorded in `skipped`."""
    for seed in itertools.islice(seeds, MAX_SEED_DRAWS):
        try:
            return make(seed)
        except GEN_ERRORS as exc:
            skipped.append(f"{seed}:{type(exc).__name__}")
    raise RuntimeError(f"{MAX_SEED_DRAWS} instance seeds in a row failed to generate")




def certified_failures(bundle, mats, trace, pointwise, nonergodic, rate) -> tuple[list[str], str]:
    """Gate one certified run; returns (failures, line of certified quantities)."""
    recs = trace.records
    identity = max(r.identity_error / (IDENTITY_RTOL * (1.0 + float(np.linalg.norm(r.w.stack()))))
                   for r in recs)
    slack = min(r.contraction_slack / (SLACK_RTOL * (1.0 + r.dist_H ** 2)) for r in recs)
    dist = mats.dist_H(trace.w_final.stack(), bundle.w_star.stack())
    flags = {
        "theta_hat_ok": pointwise.theta_hat_ok,
        "monotone_ok": nonergodic.monotone_ok,
        "xi_bound_ok": nonergodic.xi_bound_ok,
    }
    if rate is not None:
        flags["error_bound_ok"] = rate.error_bound_ok
        # the R-linear envelope is certified only when the fit window ends at
        # the tolerance; forced runs (tol < 0) fit the roundoff floor instead
        if trace.termination == engine.CONVERGED:
            flags["envelope_ok"] = rate.envelope_ok
    failures = [f"{bundle.name}: {flag} false" for flag, ok in flags.items() if not ok]
    if not identity <= 1.0:
        failures.append(f"{bundle.name}: C3 identity ratio {identity:.2e} > 1")
    if not slack >= -1.0:
        failures.append(f"{bundle.name}: C4 contraction slack ratio {slack:.2e} < -1")
    if not dist <= DIST_TOL:
        failures.append(f"{bundle.name}: final dist_H {dist:.1e} > {DIST_TOL:.0e}")
    r_hat = f"{rate.r_hat:.4g}" if rate is not None else "-"
    line = (f"{bundle.name} iters={len(recs)} {trace.termination} r_hat={r_hat} "
            f"identity_ratio={identity:.1e} dist_H={dist:.1e}")
    return failures, line


class _Certified:
    """Shared pass of catalog and box-enum: solve, full verdict, gate."""

    def __init__(self):
        self.runs = []
        self.skipped: list[str] = []

    def _add(self, bundles, starts, **overrides):
        for bundle, w0 in zip(bundles, starts, strict=True):
            config = generators.default_config(bundle.problem, **overrides)
            _validate(bundle.problem, config)
            self.runs.append((bundle, config, structure.assemble(bundle.problem, config), w0))

    def run_pass(self, max_iters: int | None = None) -> PassResult:
        result = PassResult()
        for bundle, config, mats, w0 in self.runs:
            if max_iters is not None:
                config = dataclasses.replace(config, max_iters=max_iters)
            problem, w_star = bundle.problem, bundle.w_star
            start = perf_counter()
            trace = engine.solve(problem, config, w0=w0, w_star=w_star, mats=mats)
            pointwise = diagnostics.pointwise_residual_check(problem, config, trace)
            nonergodic = diagnostics.nonergodic_check(mats, trace, w_star)
            constants = diagnostics.rate_constants(problem, config)
            try:
                rate = diagnostics.linear_rate_check(mats, trace, w_star, constants)
            except diagnostics.InsufficientTrace:
                rate = None
            result.wall_s += perf_counter() - start
            failures, line = certified_failures(bundle, mats, trace, pointwise, nonergodic, rate)
            result.attempted += 1
            result.failed += bool(failures)
            result.failures += failures
            result.lines.append(line)
        return result


class Catalog(_Certified):
    name = "catalog"

    def __init__(self, seed: int, tiny: bool):
        super().__init__()
        self.seed = seed
        # tiny still runs long enough for every instance to reach DIST_TOL
        self.max_iters = 600 if tiny else 2000

    def build(self):
        """Seed 0 starts every run from zero, as C3 does; other seeds draw w0."""
        bundles = generators.standard_catalog()
        rng = generators.SplitMix64(self.seed)
        starts = [None if self.seed == 0 else Iterate.from_stack(b.problem, rng.normals(b.problem.total_dim))
                  for b in bundles]
        self._add(bundles, starts, max_iters=self.max_iters, tol=-1.0)


class BoxEnum(_Certified):
    """Fixed instances solved from the default start; the seed changes nothing.

    Seed-derived instance sets made a pass take 4-25 s (one instance alone
    14 s), too wide for runs with different seeds to be compared. Seed-drawn
    start points were tried too: from some of them `envelope_ok` is false
    (see bench/README.md).
    """

    name = "box-enum"

    def __init__(self, seed: int, tiny: bool):
        super().__init__()
        self.count, self.x_dims, self.y_dims, self.n = (2, [3], [2], 3) if tiny else (10, [5], [3], 5)

    def build(self):
        seeds = itertools.count(1)
        bundles = [generate(lambda s: generators.gen_box_qp(1, 1, self.x_dims, self.y_dims, self.n, seed=s),
                            seeds, self.skipped)
                   for _ in range(self.count)]
        self._add(bundles, [None] * len(bundles), max_iters=2000, tol=1e-10)


class Atlas:
    name = "atlas"

    def __init__(self, seed: int, tiny: bool, out_dir):
        self.seed = seed
        self.skipped: list[str] = []
        self.grid = (0.0, 0.6, 3) if tiny else (-1.5, 1.5, 11)
        self.out_dir = out_dir
        self.argv: list[str] = []

    def build(self):
        bundle = generate(lambda s: generators.gen_quadratic(2, 2, [2, 2], [2, 2], 3, seed=s),
                          derived_seeds(self.seed), self.skipped)
        config = generators.default_config(bundle.problem)
        _validate(bundle.problem, config)
        structure.assemble(bundle.problem, config)
        grid = [str(v) for v in self.grid]
        self.argv = ["sweep", "--generator", "quadratic", "--p", "2", "--q", "2",
                     "--x-dims", "2,2", "--y-dims", "2,2", "--n", "3", "--seed", str(bundle.seed),
                     "--tau-grid", *grid, "--s-grid", *grid]

    def run_pass(self, max_iters: int | None = None) -> PassResult:
        argv = self.argv + ["--out", str(self.out_dir)]
        if max_iters is not None:
            argv += ["--max-iters", str(max_iters)]
        atlas = Path(self.out_dir) / "atlas.csv"
        atlas.unlink(missing_ok=True)
        result = PassResult()
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            start = perf_counter()
            status = cli.main(argv)
            result.wall_s = perf_counter() - start
        rows = []
        if status == cli.EXIT_OK:
            with open(atlas, newline="") as fh:
                rows = list(csv.DictReader(fh))
        lo, hi, count = self.grid
        result.attempted = count * count
        if status != cli.EXIT_OK:
            result.failures.append(f"sweep exited {status}: {stdout.getvalue().strip()}")
        expected = [(tau, s) for tau in np.linspace(lo, hi, count) for s in np.linspace(lo, hi, count)]
        result.failures += [f"atlas row {i} missing" for i in range(len(rows), len(expected))]
        for row, (tau, s) in zip(rows, expected):
            point = f"tau={float(row['tau']):.2f} s={float(row['s']):.2f}"
            if (float(row["tau"]), float(row["s"])) != (tau, s):
                result.failures.append(f"atlas row {point} out of grid order")
            elif row["in_D"] == "1":
                iters, r_hat = int(row["iters_to_tol"]), float(row["r_hat"])
                result.lines.append(f"atlas {point} iters={iters} r_hat={r_hat:.4g}")
                fitted = 0.0 < r_hat < 1.0 or (r_hat == -1.0 and iters < FIT_MIN_ITERS)
                if iters <= 0 or not fitted:
                    result.failures.append(f"atlas in-D point {point}: iters={iters} r_hat={r_hat:.4g}")
        result.failed = min(len(result.failures), result.attempted)
        return result


def make(workload: str, seed: int, tiny: bool, out_dir):
    """The workload named `workload`; atlas writes its atlas.csv to out_dir."""
    if workload == "catalog":
        return Catalog(seed, tiny)
    if workload == "box-enum":
        return BoxEnum(seed, tiny)
    if workload == "atlas":
        return Atlas(seed, tiny, out_dir)
    raise ValueError(f"unknown workload {workload!r}")
