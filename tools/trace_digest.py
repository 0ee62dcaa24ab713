"""Digest of a checkout's solver output, for bit-identity checks between commits.

    OPENBLAS_NUM_THREADS=1 python3 tools/trace_digest.py PATH/TO/CHECKOUT > out.txt
    OPENBLAS_NUM_THREADS=1 python3 tools/trace_digest.py --verdict PATH/TO/CHECKOUT > verdict.txt

imports `gsadmm` from CHECKOUT/src and the benchmark workloads from
CHECKOUT/bench, and prints one line per case. First the generated instances:
a SHA-256 prefix of the instance document (`harness.io.serialize_problem`,
reference point included) of every catalog instance, every box-enum instance
and the atlas instance of seeds 0 and 1; the same prefix, or the name of the
exception the generator raised, for a generator sweep (`SWEEP`: 5
`gen_quadratic`, 8 `gen_l1` and 5 `gen_box_qp` shapes, seeds 0-49 each,
which covers the reference-point enumeration); and for each catalog instance a
SHA-256 prefix over the bytes of its structural matrices Hx, Qtilde, Q, M,
G, H and its four spectral scalars under the default config. Then the
solves: a SHA-256 prefix over each iteration's row of `trace.iterates` and
of `trace.predictions`, its number k and its `trace.columns` scalars, plus
`w_final`, followed by each block's oracle counters (calls, patterns,
loose), for the 13 catalog instances (2000 forced iterations, from
zero and from a SplitMix64 seed-3 start) and for `gen_box_qp(1, 1, [5], [3],
5)` seeds 1-3 at tol 1e-10; the digest of the atlas workload's atlas.csv for
seeds 0 and 1; and every `certified` line of the atlas (seeds 0, 1), catalog
(seeds 0, 1) and box-enum workloads.
Two checkouts agree bit for bit when their outputs compare equal (`cmp`).
Takes 5-15 s on a 2-vCPU machine with one BLAS thread, of which the
generator sweep takes 3-4 s.

--verdict prints instead the `repr` of every field of the four post-hoc
reports (pointwise, nonergodic, error bound, linear rate), or the name of the
exception a check raised, for: the catalog from the zero start and from a
SplitMix64 seed-3 start, each forced (2000 iterations) and at tol 1e-10;
`gen_box_qp(1, 1, [5], [3], 5)` seeds 1-10 at tol 1e-10; and an 11 x 11
(tau, s) grid on `gen_quadratic(2, 2, [2, 2], [2, 2], 3, seed=42)` with the
sweep's settings; each run's first line also carries its oracle counters. It
uses only the package's public API and the columnar `Trace`, so it runs
against older checkouts that have it.
Takes one to two minutes.

--contract prints, for the same cases, one JSON record per case instead of
its digest (`tools/contract.py`): instance and matrix digests, the atlas
columns other than iters_to_tol and r_hat, and the workloads' lines as
exact values, each solve as its contract record.

    OPENBLAS_NUM_THREADS=1 python3 tools/trace_digest.py --compare PARENT CHANGE
    OPENBLAS_NUM_THREADS=1 python3 tools/trace_digest.py --compare --verdict PARENT CHANGE

runs --contract (with --verdict if given) on both checkouts and checks each
case against the equivalence contract of `tools/contract.py`: it prints each
case that breaks it with the rules it breaks, then one summary line, and
exits 1 if any case breaks it. Takes twice as long as the digest it compares.
"""
import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("--verdict", action="store_true", help="digest the post-hoc reports instead")
parser.add_argument("--contract", action="store_true", help="print contract records instead of digests")
parser.add_argument("--compare", action="store_true", help="check two checkouts against the contract")
parser.add_argument("checkout", nargs="*", default=["."])
args = parser.parse_args()
if len(args.checkout) != 1 + args.compare:
    parser.error("give one checkout, or two with --compare")
root = Path(args.checkout[0]).resolve()
sys.path[:0] = [str(root / "src"), str(root / "bench")]

import numpy as np  # noqa: E402

import contract  # noqa: E402
import gsadmm as g  # noqa: E402
import workloads  # noqa: E402
from gsadmm.harness import io  # noqa: E402
from gsadmm.model import Iterate  # noqa: E402

SCALARS = ("feasibility", "feasibility_inf", "correction_residual", "d_norm_sq",
           "d_inf", "identity_error", "dist_H", "contraction_slack")
# The generator sweep: each generator's shapes, each at seeds 0-49.
SWEEP = (
    (g.gen_quadratic, [(1, 1, [2], [2], 2), (2, 1, [2, 2], [3], 3), (2, 2, [2, 2], [2, 2], 3),
                       (3, 2, [1, 2, 2], [2, 1], 4), (1, 3, [3], [2, 2, 1], 4)]),
    (g.gen_l1, [(1, 1, [1], 1), (1, 1, [2], 2), (1, 2, [2, 1], 2), (2, 1, [2], 2), (1, 1, [3], 3),
                (2, 2, [1, 2], 2), (3, 1, [1], 1), (3, 1, [2], 2)]),
    (g.gen_box_qp, [(1, 1, [2], [2], 2), (2, 1, [2, 1], [2], 3), (1, 1, [3], [2], 3),
                    (2, 1, [3, 2], [2], 4), (1, 1, [1], [1], 3)]),
)


def trace_digest(trace) -> str:
    h = hashlib.sha256()
    for k, (w, w_tilde) in enumerate(zip(trace.iterates, trace.predictions)):
        h.update(w.tobytes())
        h.update(w_tilde.tobytes())
        h.update(np.float64(k).tobytes())
        for name in SCALARS:
            h.update(np.float64(trace.columns[name][k]).tobytes())
    h.update(trace.w_final.stack().tobytes())
    h.update(trace.termination.encode())
    return h.hexdigest()[:16]


def oracle_counters(trace) -> str:
    """Each block's oracle counters `calls`, `patterns` and `loose`, x blocks
    then y blocks."""
    return "oracle=" + ";".join(f"{s.calls},{s.patterns},{s.loose}" for s in trace.oracle_stats)


def sha(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


def document(b) -> str:
    return io.serialize_problem(b.problem, b.w_star, b.provenance, b.certificate, b.seed)


def sweep_lines() -> list[str]:
    """The instance document digest of each generator sweep case, or the
    name of the exception its generator raised."""
    out = []
    for gen, shapes in SWEEP:
        for shape in shapes:
            for seed in range(50):
                try:
                    outcome = sha([document(gen(*shape, seed=seed)).encode()])
                except workloads.GEN_ERRORS as exc:
                    outcome = type(exc).__name__
                out.append(f"instance sweep {gen.__name__}{shape} s{seed} {outcome}".replace(", ", ","))
    return out


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
    out = [f"instance {label} {b.name} {sha([document(b).encode()])}" for label, b in bundles]
    out += sweep_lines()
    for b in catalog:
        mats = g.assemble(b.problem, g.default_config(b.problem))
        chunks = [getattr(mats, name).tobytes() for name in ("Hx", "Qtilde", "Q", "M", "G", "H")]
        chunks += [np.float64(v).tobytes() for v in g.spectral_summary(mats).values()]
        out.append(f"matrices {b.name} {sha(chunks)}")
    return out


def record(label, **fields) -> str:
    """One contract record as a JSON line."""
    return json.dumps({"case": label, **fields})


def solve_line(label, bundle, w0, **overrides) -> str:
    cfg = g.default_config(bundle.problem, **overrides)
    trace = g.solve(bundle.problem, cfg, w0=w0, w_star=bundle.w_star, mats=g.assemble(bundle.problem, cfg))
    if args.contract:
        return record(f"{label} {bundle.name}", **contract.run_record(trace, bundle.w_star))
    return f"{label} {bundle.name} {len(trace.predictions)} {trace_digest(trace)} {oracle_counters(trace)}"


def verdict_lines(label, problem, config, w0, w_star) -> list[str]:
    """One line per report of the four post-hoc checks on one run, or its
    contract record."""
    try:
        mats = g.assemble(problem, config)
    except (g.SingularM, np.linalg.LinAlgError) as exc:
        return [record(label, termination=type(exc).__name__) if args.contract
                else f"{label} {type(exc).__name__}"]
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            trace = g.solve(problem, config, w0=w0, w_star=w_star, mats=mats, validate=False)
    except g.NonFiniteIterate as exc:
        return [record(label, termination=f"{type(exc).__name__}: {exc}") if args.contract
                else f"{label} {type(exc).__name__}"]
    if args.contract:
        return [record(label, **contract.run_record(trace, w_star),
                       **contract.verdict_record(problem, config, mats, trace, w_star))]
    out = [f"{label} iters={len(trace.predictions)} {trace.termination} {oracle_counters(trace)}"]
    reports = contract.post_hoc(problem, config, mats, trace, w_star)
    return out + [f"{label} {name} {value!r}" for name, value in reports.items()]


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
            out.append(record(f"box{seed}", exact=type(exc).__name__) if args.contract
                       else f"box{seed} {type(exc).__name__}")
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


def atlas_records(seed, csv_text, res) -> list[str]:
    """The atlas pass of one seed as contract records: iters_to_tol and r_hat
    of each row under the contract, every other column and line exactly."""
    rows = [line.split(",") for line in csv_text.splitlines()]
    out = [record(f"atlas{seed}", exact=[rows[0], f"failed={res.failed}"])]
    for row in rows[1:]:
        out.append(record(f"atlas{seed} tau={row[0]} s={row[1]}", exact=row[:-2], iters=int(row[-2]),
                          r_hat=float(row[-1])))
    return out + [record(f"atlas{seed} {line}", exact=line) for line in res.lines]


def certified_records(label, res) -> list[str]:
    """A workload pass as contract records: each certified line exactly."""
    return [record(label, exact=f"failed={res.failed}")] + [
        record(f"{label} {line.split()[0]}", exact=line) for line in res.lines]


def compare(verdict: bool) -> int:
    """Check the contract records of two checkouts, made side by side, case by
    case."""
    procs = [subprocess.Popen([sys.executable, __file__, "--contract", *(["--verdict"] * verdict), checkout],
                              stdout=subprocess.PIPE, text=True) for checkout in args.checkout]
    sides = []
    for checkout, proc in zip(args.checkout, procs):
        out = proc.communicate()[0]
        if proc.returncode:
            sys.exit(f"--contract on {checkout} exited {proc.returncode}")
        recs = {}
        for line in out.splitlines():
            rec = json.loads(line)
            label = rec.pop("case")
            if label in recs:
                sys.exit(f"--contract on {checkout} printed case {label} twice")
            recs[label] = rec
        sides.append(recs)
    a, b = sides
    broken = identical = 0
    for label in sorted(a.keys() | b.keys()):
        if label not in a or label not in b:
            found = [f"only in {args.checkout[label in b]}"]
        else:
            found = contract.violations(a[label], b[label])
            identical += a[label] == b[label]
        if found:
            broken += 1
            print(f"{label}: " + "; ".join(found))
    print(f"contract: {len(a.keys() | b.keys())} cases, {identical} identical, {broken} broken")
    return 1 if broken else 0


def main():
    catalog = g.standard_catalog()
    out = instance_lines(catalog)
    if args.contract:
        out = [record(line.rsplit(" ", 1)[0], exact=line) for line in out]
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
        if args.contract:
            out += atlas_records(seed, data.decode(), res)
            continue
        out.append(f"atlas{seed} {hashlib.sha256(data).hexdigest()[:16]} failed={res.failed}")
        out += res.lines
    for name, seed in (("catalog", 0), ("catalog", 1), ("box-enum", 0)):
        wl = workloads.make(name, seed, False, None)
        wl.build()
        res = wl.run_pass()
        if args.contract:
            out += certified_records(f"{name}{seed}", res)
            continue
        out.append(f"{name}{seed} failed={res.failed}")
        out += res.lines
    print("\n".join(out))


if __name__ == "__main__":
    if args.compare:
        sys.exit(compare(args.verdict))
    elif args.verdict:
        verdict_main()
    else:
        main()
