"""Digest of a checkout's solver output, for bit-identity checks between commits.

    OPENBLAS_NUM_THREADS=1 python3 tools/trace_digest.py PATH/TO/CHECKOUT > out.txt

imports `gsadmm` from CHECKOUT/src and the benchmark workloads from
CHECKOUT/bench, and prints one line per case: a SHA-256 prefix over every
record's `w`, `w~` and scalars plus `w_final` for the 13 catalog instances
(2000 forced iterations, from zero and from a SplitMix64 seed-3 start) and
for `gen_box_qp(1, 1, [5], [3], 5)` seeds 1-3 at tol 1e-10; the digest of
the atlas workload's atlas.csv for seeds 0 and 1; and every `certified`
line of the atlas (seeds 0, 1), catalog (seeds 0, 1) and box-enum workloads.
Two checkouts agree bit for bit when their outputs compare equal (`cmp`).
Takes about a minute.
"""
import hashlib
import sys
import tempfile
from pathlib import Path

root = Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
sys.path[:0] = [str(root / "src"), str(root / "bench")]

import numpy as np  # noqa: E402

import gsadmm as g  # noqa: E402
import workloads  # noqa: E402
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


def solve_line(label, bundle, w0, **overrides) -> str:
    cfg = g.default_config(bundle.problem, **overrides)
    trace = g.solve(bundle.problem, cfg, w0=w0, w_star=bundle.w_star, mats=g.assemble(bundle.problem, cfg))
    return f"{label} {bundle.name} {len(trace.records)} {trace_digest(trace)}"


def main():
    out = []
    catalog = g.standard_catalog()
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
    main()
