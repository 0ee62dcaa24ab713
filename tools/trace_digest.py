"""Digest of a checkout's solver output, for bit-identity checks between commits.

    OPENBLAS_NUM_THREADS=1 python3 tools/trace_digest.py PATH/TO/CHECKOUT > out.txt
    OPENBLAS_NUM_THREADS=1 python3 tools/trace_digest.py --verdict PATH/TO/CHECKOUT > verdict.txt

imports `gsadmm` from CHECKOUT/src and the benchmark workloads from
CHECKOUT/bench, and prints one line per case. First the generated instances:
a SHA-256 prefix of the instance document (`harness.io.serialize_problem`,
reference point included) of every catalog instance, every box-enum instance
and the atlas instance of seeds 0 and 1, and for each catalog instance a
SHA-256 prefix over the bytes of its structural matrices Hx, Qtilde, Q, M,
G, H and its four spectral scalars under the default config. Then the
solves: a SHA-256 prefix over every record's `w`, `w~` and scalars plus
`w_final`, followed by each block's oracle counters (calls, patterns,
rechecks, loose), for the 13 catalog instances (2000 forced iterations, from
zero and from a SplitMix64 seed-3 start) and for `gen_box_qp(1, 1, [5], [3],
5)` seeds 1-3 at tol 1e-10; the digest of the atlas workload's atlas.csv for
seeds 0 and 1; and every `certified` line of the atlas (seeds 0, 1), catalog
(seeds 0, 1) and box-enum workloads.
Two checkouts agree bit for bit when their outputs compare equal (`cmp`).
Takes about a minute.

--verdict prints instead the `repr` of every field of the four post-hoc
reports (pointwise, nonergodic, error bound, linear rate), or the name of the
exception a check raised, for: the catalog from the zero start and from a
SplitMix64 seed-3 start, each forced (2000 iterations) and at tol 1e-10;
`gen_box_qp(1, 1, [5], [3], 5)` seeds 1-10 at tol 1e-10; and an 11 x 11
(tau, s) grid on `gen_quadratic(2, 2, [2, 2], [2, 2], 3, seed=42)` with the
sweep's settings; each run's first line also carries its oracle counters. It
uses only the package's public API, so it runs against older checkouts too.
Takes one to two minutes.
"""
import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("--verdict", action="store_true", help="digest the post-hoc reports instead")
parser.add_argument("checkout", nargs="?", default=".")
args = parser.parse_args()
root = Path(args.checkout).resolve()
sys.path[:0] = [str(root / "src"), str(root / "bench")]

import numpy as np  # noqa: E402

import gsadmm as g  # noqa: E402
import workloads  # noqa: E402
from gsadmm.harness import io  # noqa: E402
from gsadmm.model import Iterate  # noqa: E402

SCALARS = ("k", "feasibility", "feasibility_inf", "correction_residual", "d_norm_sq",
           "d_inf", "identity_error", "dist_H", "contraction_slack")


def trace_digest(trace) -> str:
    h = hashlib.sha256()
    for rec in trace.records:
        h.update(rec.w.stack().tobytes())
        h.update(rec.w_tilde.stack().tobytes())
        for name in SCALARS:
            h.update(np.float64(getattr(rec, name)).tobytes())
    h.update(trace.w_final.stack().tobytes())
    h.update(trace.termination.encode())
    return h.hexdigest()[:16]


def oracle_counters(trace) -> str:
    """Each block's oracle counters, x blocks then y blocks."""
    return "oracle=" + ";".join(f"{s.calls},{s.patterns},{s.rechecks},{s.loose}" for s in trace.oracle_stats)


def sha(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


def instance_lines(catalog) -> list[str]:
    """Digests of the generated instance documents, and of the structural
    matrices and spectral scalars of each catalog instance."""
    bundles = [("catalog", b) for b in catalog]
    box = workloads.make("box-enum", 0, False, None)
    box.build()
    bundles += [("box-enum", bundle) for bundle, *_ in box.runs]
    for seed in (0, 1):
        atlas = workloads.Atlas(seed, False, None)
        atlas.build()
        atlas_seed = int(atlas.argv[atlas.argv.index("--seed") + 1])
        bundles.append((f"atlas{seed}", g.gen_quadratic(2, 2, [2, 2], [2, 2], 3, seed=atlas_seed)))
    out = []
    for label, b in bundles:
        doc = io.serialize_problem(b.problem, b.w_star, b.provenance, b.certificate, b.seed)
        out.append(f"instance {label} {b.name} {sha([doc.encode()])}")
    for b in catalog:
        mats = g.assemble(b.problem, g.default_config(b.problem))
        chunks = [getattr(mats, name).tobytes() for name in ("Hx", "Qtilde", "Q", "M", "G", "H")]
        chunks += [np.float64(v).tobytes() for v in g.spectral_summary(mats).values()]
        out.append(f"matrices {b.name} {sha(chunks)}")
    return out


def solve_line(label, bundle, w0, **overrides) -> str:
    cfg = g.default_config(bundle.problem, **overrides)
    trace = g.solve(bundle.problem, cfg, w0=w0, w_star=bundle.w_star, mats=g.assemble(bundle.problem, cfg))
    return f"{label} {bundle.name} {len(trace.records)} {trace_digest(trace)} {oracle_counters(trace)}"


def verdict_lines(label, problem, config, w0, w_star) -> list[str]:
    """One line per report of the four post-hoc checks on one run."""
    try:
        mats = g.assemble(problem, config)
    except (g.SingularM, np.linalg.LinAlgError) as exc:
        return [f"{label} {type(exc).__name__}"]
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            trace = g.solve(problem, config, w0=w0, w_star=w_star, mats=mats, validate=False)
    except g.NonFiniteIterate as exc:
        return [f"{label} {type(exc).__name__}"]
    constants = g.rate_constants(problem, config)
    checks = {
        "pointwise": lambda: g.pointwise_residual_check(problem, config, trace),
        "nonergodic": lambda: g.nonergodic_check(mats, trace, w_star),
        "error_bound": lambda: g.diagnostics.error_bound_check(problem, mats, trace, constants),
        "rate": lambda: g.linear_rate_check(mats, trace, w_star, constants),
    }
    out = [f"{label} iters={len(trace.records)} {trace.termination} {oracle_counters(trace)}"]
    for name, check in checks.items():
        try:
            # a diverged run overflows the checks' products as it does the solve
            with np.errstate(over="ignore", invalid="ignore"):
                value = check()
        except (g.RegionNotCertified, g.InsufficientTrace) as exc:
            value = type(exc).__name__
        out.append(f"{label} {name} {value!r}")
    return out


def verdict_main():
    out = []
    catalog = g.standard_catalog()
    for start in ("zero", "seed3"):
        for tol in (-1.0, 1e-10):
            rng = g.SplitMix64(3)
            for b in catalog:
                w0 = None if start == "zero" else Iterate.from_stack(b.problem, rng.normals(b.problem.total_dim))
                cfg = g.default_config(b.problem, max_iters=2000, tol=tol)
                out += verdict_lines(f"{start} tol={tol:g} {b.name}", b.problem, cfg, w0, b.w_star)
    for seed in range(1, 11):
        try:
            b = g.gen_box_qp(1, 1, [5], [3], 5, seed=seed)
        except workloads.GEN_ERRORS as exc:
            out.append(f"box{seed} {type(exc).__name__}")
            continue
        cfg = g.default_config(b.problem, max_iters=2000, tol=1e-10)
        out += verdict_lines(f"box{seed} {b.name}", b.problem, cfg, None, b.w_star)
    b = g.gen_quadratic(2, 2, [2, 2], [2, 2], 3, seed=42)
    grid = np.linspace(-1.5, 1.5, 11)
    for tau in grid:
        for s in grid:
            cfg = g.default_config(b.problem, tau=float(tau), s=float(s))
            out += verdict_lines(f"grid tau={tau:.2f} s={s:.2f}", b.problem, cfg, None, b.w_star)
    print("\n".join(out))


def main():
    catalog = g.standard_catalog()
    out = instance_lines(catalog)
    for start in ("zero", "seed3"):
        rng = g.SplitMix64(3)
        for b in catalog:
            w0 = None if start == "zero" else Iterate.from_stack(b.problem, rng.normals(b.problem.total_dim))
            out.append(solve_line(start, b, w0, max_iters=2000, tol=-1.0))
    for seed in (1, 2, 3):
        out.append(solve_line(f"box{seed}", g.gen_box_qp(1, 1, [5], [3], 5, seed=seed), None,
                              max_iters=2000, tol=1e-10))
    for seed in (0, 1):
        with tempfile.TemporaryDirectory() as tmp:
            wl = workloads.Atlas(seed, False, tmp)
            wl.build()
            res = wl.run_pass()
            data = (Path(tmp) / "atlas.csv").read_bytes()
        out.append(f"atlas{seed} {hashlib.sha256(data).hexdigest()[:16]} failed={res.failed}")
        out += res.lines
    for name, seed in (("catalog", 0), ("catalog", 1), ("box-enum", 0)):
        wl = workloads.make(name, seed, False, None)
        wl.build()
        res = wl.run_pass()
        out.append(f"{name}{seed} failed={res.failed}")
        out += res.lines
    print("\n".join(out))


if __name__ == "__main__":
    if args.verdict:
        verdict_main()
    else:
        main()
