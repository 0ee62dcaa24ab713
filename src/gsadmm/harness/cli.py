"""Command-line harness: single runs, stepsize sweeps, structural checks,
instance generation, and report printing.

Exit codes: 0 ok, 1 validation failure (usage errors included), 2 runtime
failure, 3 generation failure. `run`, `report`, `check` and `sweep` treat a
floating-point overflow, invalid operation or division by zero as a runtime
failure, except inside a sweep's solves, where divergence is an expected
outcome. Every failure is one line on stderr: a command raises `CliFailure`
with its line and code, and `main` prints it.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .. import diagnostics, engine, generators, structure
from ..model import SolverConfig, in_region_D, in_region_G, validate_config, validate_problem
from . import io

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_GENERATION = 3

FIXED_INSTANCES = {
    "qp1": generators.qp1,
    "l1-1d": generators.l1_1d,
    "boxqp-1d": generators.boxqp_1d,
}

GEN_ERRORS = (
    generators.DegenerateInstance,
    generators.NonUniqueSolution,
    generators.PatternExplosion,
)


class CliFailure(Exception):
    """A failure reported as one line on stderr and an exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line and exit code 1, like every
    other input error (argparse's own prints the usage text and exits 2)."""

    def error(self, message):
        raise CliFailure(EXIT_VALIDATION, f"{self.prog}: error: {message}")


def _dims(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok]


def _add_instance_args(sub):
    sub.add_argument("--instance", help="path to an instance document")
    sub.add_argument("--generator", choices=sorted(set(generators.GENERATORS) | set(FIXED_INSTANCES)),
                     help="generate the instance instead of reading a file")
    sub.add_argument("--seed", type=int, default=1)
    sub.add_argument("--p", type=int, default=1)
    sub.add_argument("--q", type=int, default=1)
    sub.add_argument("--x-dims", type=_dims, default=None, help="comma separated block dims")
    sub.add_argument("--y-dims", type=_dims, default=None, help="comma separated block dims")
    sub.add_argument("--n", type=int, default=1)


def _add_config_args(sub):
    sub.add_argument("--config", help="path to a key-value config document")
    sub.add_argument("--beta", type=float)
    sub.add_argument("--tau", type=float)
    sub.add_argument("--s", type=float)
    sub.add_argument("--sigma1", type=float)
    sub.add_argument("--sigma2", type=float)
    sub.add_argument("--max-iters", type=int)
    sub.add_argument("--tol", type=float)
    sub.add_argument("--policy", choices=["D", "G"])


def _generate(args):
    """The generated bundle; failures raise CliFailure."""
    name = args.generator
    x_dims = args.x_dims if args.x_dims is not None else [1] * args.p
    y_dims = args.y_dims if args.y_dims is not None else [1] * args.q
    try:
        if name in FIXED_INSTANCES:
            return FIXED_INSTANCES[name]()
        if name == "quadratic":
            return generators.gen_quadratic(args.p, args.q, x_dims, y_dims, args.n, args.seed)
        if name == "l1":
            return generators.gen_l1(args.p, args.q, y_dims, args.n, args.seed)
        if name == "boxqp":
            return generators.gen_box_qp(args.p, args.q, x_dims, y_dims, args.n, args.seed)
    except GEN_ERRORS as exc:
        raise CliFailure(EXIT_GENERATION, f"generation failure: {exc}") from exc
    except ValueError as exc:
        raise CliFailure(EXIT_VALIDATION, f"error: {exc}") from exc
    raise CliFailure(EXIT_VALIDATION, f"error: unknown generator {name!r}")


def _load(args):
    """(problem, w_star or None, label, config) from the instance and config
    arguments; failures raise CliFailure."""
    if args.instance:
        try:
            problem, w_star, _meta = io.read_instance(args.instance)
        except (OSError, ValueError) as exc:  # io.ParseError is a ValueError
            raise CliFailure(EXIT_VALIDATION, f"error: {exc}") from exc
        label = str(args.instance)
    elif args.generator:
        bundle = _generate(args)
        problem, w_star, label = bundle.problem, bundle.w_star, bundle.name
    else:
        raise CliFailure(EXIT_VALIDATION, "error: either --instance or --generator is required")
    return problem, w_star, label, _resolve_config(args, problem)


def _read_config(path, values: dict) -> None:
    """Apply a key-value config document to `values`."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliFailure(EXIT_VALIDATION, f"error: cannot read config {path}: {exc.strerror}") from exc
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        key, _, val = ln.partition(" ")
        key = {"policy": "region_policy"}.get(key, key.replace("-", "_"))
        if key not in values:
            raise CliFailure(EXIT_VALIDATION, f"error: unknown config key {key!r} in {path}")
        convert = {"region_policy": str.strip, "max_iters": int}.get(key, float)
        try:
            values[key] = convert(val)
        except ValueError as exc:
            raise CliFailure(EXIT_VALIDATION, f"error: config key {key!r} in {path}: "
                             f"invalid value {val.strip()!r}") from exc


def _resolve_config(args, problem) -> SolverConfig:
    values = dataclasses.asdict(generators.default_config(problem))
    if args.config:
        _read_config(args.config, values)
    for key in ("beta", "tau", "s", "sigma1", "sigma2", "tol"):
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    if args.max_iters is not None:
        values["max_iters"] = args.max_iters
    if args.policy is not None:
        values["region_policy"] = args.policy
    return SolverConfig(**values)


@contextlib.contextmanager
def _writing(path):
    """Yields the output path; an OSError while writing there raises CliFailure."""
    try:
        yield Path(path)
    except OSError as exc:
        raise CliFailure(EXIT_VALIDATION, f"error: cannot write {path}: {exc.strerror}") from exc


def _validate_or_fail(problem, config) -> None:
    """Prints the warnings; violations raise CliFailure with all of them on one line."""
    report = validate_problem(problem)
    config_report = validate_config(config, problem)
    for warning in report.warnings + config_report.warnings:
        print(f"warning: {warning}")
    violations = report.violations + config_report.violations
    if violations:
        raise CliFailure(EXIT_VALIDATION, "violation: " + "; ".join(violations))


def _run_diagnostics(problem, config, mats, trace, w_star):
    """(spectra, nonergodic, pointwise, rate); entries None when uncertified."""
    spectra = structure.spectral_summary(mats)
    pointwise = diagnostics.pointwise_residual_check(problem, config, trace)
    nonergodic = None
    rate = None
    if w_star is not None and mats.in_D:
        nonergodic = diagnostics.nonergodic_check(mats, trace, w_star)
        try:
            constants = diagnostics.rate_constants(problem, config)
            rate = diagnostics.linear_rate_check(mats, trace, w_star, constants)
        except diagnostics.InsufficientTrace:
            rate = None
    return spectra, nonergodic, pointwise, rate


@np.errstate(over="raise", invalid="raise", divide="raise")
def cmd_run(args, print_report: bool = False) -> int:
    problem, w_star, label, config = _load(args)
    _validate_or_fail(problem, config)
    try:
        mats = structure.assemble(problem, config)
    except (structure.SingularM, np.linalg.LinAlgError) as exc:
        raise CliFailure(EXIT_VALIDATION, f"violation: {exc}") from exc
    try:
        trace = engine.solve(problem, config, w_star=w_star, mats=mats)
    except engine.NonFiniteIterate as exc:
        raise CliFailure(EXIT_RUNTIME, f"runtime failure: {exc}") from exc
    spectra, nonergodic, pointwise, rate = _run_diagnostics(problem, config, mats, trace, w_star)
    entries = {"instance": label}
    entries.update(io.report_entries(trace, spectra, nonergodic, pointwise, rate))
    report_text = io.format_report(entries)
    if print_report:
        sys.stdout.write(report_text)
    else:
        with _writing(args.out) as outdir:
            outdir.mkdir(parents=True, exist_ok=True)
            io.write_trace_csv(outdir / "trace.csv", trace)
            (outdir / "report.txt").write_text(report_text, encoding="utf-8")
        iters = len(trace.predictions)
        print(f"{label}: {trace.termination} after {iters} iterations"
              + (f", final residual {trace.columns['residual'][-1]:.3e}" if iters else ""))
    return EXIT_OK


def cmd_report(args) -> int:
    return cmd_run(args, print_report=True)


def _grid(flag: str, spec) -> np.ndarray:
    """The points of a MIN MAX COUNT grid; bad bounds or counts raise CliFailure."""
    lo, hi, count = spec
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise CliFailure(EXIT_VALIDATION, f"error: {flag} bounds must be finite, got {lo} and {hi}")
    if not (count >= 1 and float(count).is_integer()):
        raise CliFailure(EXIT_VALIDATION, f"error: {flag} count must be a whole number >= 1, got {count}")
    return np.linspace(lo, hi, int(count))


@np.errstate(over="raise", invalid="raise", divide="raise")
def cmd_sweep(args) -> int:
    problem, w_star, label, base = _load(args)
    taus = _grid("--tau-grid", args.tau_grid)
    ss = _grid("--s-grid", args.s_grid)
    _validate_or_fail(problem, base)
    rows = []
    for tau in taus:
        for s in ss:
            row = {
                "tau": float(tau), "s": float(s),
                "in_G": in_region_G(tau, s), "in_D": in_region_D(tau, s),
                "lambda_min_G": float("nan"), "lambda_min_H": float("nan"),
                "xi": float("nan"), "iters_to_tol": -1, "r_hat": -1.0,
            }
            rows.append(row)
            config = dataclasses.replace(base, tau=float(tau), s=float(s))
            try:
                mats = structure.assemble(problem, config)
            except (structure.SingularM, np.linalg.LinAlgError):
                continue
            row["lambda_min_G"] = mats.lambda_min_G
            row["lambda_min_H"] = mats.lambda_min_H
            row["xi"] = mats.xi
            try:
                # divergence at uncertified stepsizes is an expected outcome
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    trace = engine.solve(problem, config, w_star=w_star, mats=mats, validate=False)
            except engine.NonFiniteIterate:
                continue
            if trace.termination == engine.CONVERGED:
                row["iters_to_tol"] = len(trace.predictions)
            if w_star is not None and mats.in_D:
                try:
                    constants = diagnostics.rate_constants(problem, config)
                    rate = diagnostics.linear_rate_check(mats, trace, w_star, constants)
                    row["r_hat"] = rate.r_hat
                except (diagnostics.InsufficientTrace, diagnostics.RegionNotCertified):
                    pass
    with _writing(args.out) as outdir:
        outdir.mkdir(parents=True, exist_ok=True)
        io.write_atlas_csv(outdir / "atlas.csv", rows)
    print(f"{label}: swept {len(rows)} stepsize points")
    return EXIT_OK


@np.errstate(over="raise", invalid="raise", divide="raise")
def cmd_check(args) -> int:
    """One-shot structural validation with one pass/fail line per invariant."""
    failures = 0

    def check(name: str, ok: bool, detail: str = ""):
        nonlocal failures
        if not ok:
            failures += 1
        suffix = f" ({detail})" if detail else ""
        print(f"check {name}: {'pass' if ok else 'FAIL'}{suffix}")

    problem, w_star, label, config = _load(args)
    print(f"checking {label}")
    report = validate_problem(problem)
    check("problem-valid", report.ok, "; ".join(report.violations))
    config_report = validate_config(config, problem)
    check("config-valid", config_report.ok, "; ".join(config_report.violations))
    if not report.ok:
        return EXIT_VALIDATION

    try:
        mats = structure.assemble(problem, config)
    except (structure.SingularM, np.linalg.LinAlgError) as exc:
        check("correction-matrix-invertible", False, str(exc))
        return EXIT_VALIDATION
    check("correction-matrix-invertible", True)

    g_closed = structure.build_G_closed(problem, config.beta, config.sigma1,
                                        config.sigma2, config.tau, config.s)
    scale = max(1.0, float(np.abs(mats.G).max()))
    check("g-definition-matches-closed-form",
          float(np.abs(mats.G - g_closed).max()) <= 1e-12 * scale)
    h_scale = max(1.0, float(np.abs(mats.H).max()))
    raw_h = np.linalg.solve(mats.M.T, mats.Q.T).T
    check("h-symmetric", float(np.abs(raw_h - raw_h.T).max()) <= 1e-10 * h_scale)
    m_inv = structure.m_inverse_closed(problem, config.beta, config.tau, config.s)
    check("m-inverse-closed-form",
          float(np.abs(np.linalg.inv(mats.M) - m_inv).max()) <= 1e-12 * max(1.0, float(np.abs(m_inv).max())))
    if mats.in_D:
        check("g-positive-definite", structure.is_positive_definite(mats.G),
              f"lambda_min_G={mats.lambda_min_G:.3e}")
        check("h-positive-definite", structure.is_positive_definite(mats.H),
              f"lambda_min_H={mats.lambda_min_H:.3e}")
        check("xi-positive", np.isfinite(mats.xi) and mats.xi > 0, f"xi={mats.xi:.3e}")
    else:
        print(f"note: (tau, s) = ({config.tau}, {config.s}) outside the triangle region; "
              "definiteness not asserted "
              f"(lambda_min_G={mats.lambda_min_G:.3e})")
    if w_star is not None:
        res = float(np.linalg.norm(diagnostics.error_map_residual(problem, w_star)))
        check("reference-point-kkt", res <= generators.KKT_RESIDUAL_TOL, f"residual={res:.3e}")
    return EXIT_VALIDATION if failures else EXIT_OK


def cmd_gen(args) -> int:
    if not args.generator:
        raise CliFailure(EXIT_VALIDATION, "error: --generator is required")
    bundle = _generate(args)
    with _writing(args.out) as path:
        io.write_instance(path, bundle.problem, bundle.w_star,
                          bundle.provenance, bundle.certificate, bundle.seed)
    print(f"wrote {bundle.name} to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gsadmm",
        description="Grouped symmetric ADMM solver and verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="solve one instance and write trace + report")
    _add_instance_args(run)
    _add_config_args(run)
    run.add_argument("--out", default="gsadmm-out", help="output directory")
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="stepsize-grid atlas over (tau, s)")
    _add_instance_args(sweep)
    _add_config_args(sweep)
    sweep.add_argument("--tau-grid", type=float, nargs=3, metavar=("MIN", "MAX", "COUNT"),
                       default=[-1.5, 1.5, 21])
    sweep.add_argument("--s-grid", type=float, nargs=3, metavar=("MIN", "MAX", "COUNT"),
                       default=[-1.5, 1.5, 21])
    sweep.add_argument("--out", default="gsadmm-out", help="output directory")
    sweep.set_defaults(func=cmd_sweep)

    chk = sub.add_parser("check", help="structural invariants of one instance")
    _add_instance_args(chk)
    _add_config_args(chk)
    chk.set_defaults(func=cmd_check)

    gen = sub.add_parser("gen", help="generate an instance file with its reference point")
    _add_instance_args(gen)
    gen.add_argument("--out", required=True, help="output instance file")
    gen.set_defaults(func=cmd_gen)

    rep = sub.add_parser("report", help="solve one instance and print the report")
    _add_instance_args(rep)
    _add_config_args(rep)
    rep.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CliFailure as exc:
        print(exc, file=sys.stderr)
        return exc.code
    except FloatingPointError as exc:
        print(f"runtime failure: floating-point {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
