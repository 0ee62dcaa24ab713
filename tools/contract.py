"""The equivalence contract between two runs of one case.

A run is reduced to a record of plain JSON values (`run_record`, and
`verdict_record` for the post-hoc checks), and two records of one case agree
when `violations` finds nothing. The rules, by record key:

- `exact`, `iters`, `termination` (or the NonFiniteIterate message, which
  names the iteration), `oracle` (each block's counters `calls`, `patterns`
  and `loose`) and `flags` (every verdict flag, or the exception a check
  raised): equal;
- `r_hat`: equal to 4 significant digits;
- `identity_ratio`, the C3 ratio max_k identity_error_k / (1e-10 (1 +
  ||w_k||)): at most 1 on both sides;
- `slack`, the C4 ratio slack_k / (1e-8 (1 + dist_H_k^2)) of each iteration:
  at least -1 on both sides, nan on the same iterations, and of equal sign
  wherever either side exceeds 1 in magnitude;
- `w_final`: within 1e-12 `w_scale` in every component, where `w_scale` is
  1 + max(||w*||, ||w_final||): 1e-12 (1 + ||w*||) for a run that ends near
  w*, relative to ||w_final|| for one that grows away from it (outside the
  stepsize regions; norms taken without overflow).

`post_hoc` runs the four post-hoc checks of one run, for `verdict_record`
and for the `--verdict` digest. Used by `tools/trace_digest.py` and by the
engine tests.
"""
import dataclasses
import math

import numpy as np

import gsadmm as g

IDENTITY_RTOL = 1e-10  # acceptance criterion C3
SLACK_RTOL = 1e-8      # acceptance criterion C4
W_RTOL = 1e-12
EXACT_KEYS = ("exact", "iters", "termination", "oracle")


def _plain(x: float):
    """A float for JSON: nan as None."""
    return None if math.isnan(x) else float(x)


def run_record(trace, w_star=None) -> dict:
    cols = trace.columns
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging run's norms overflow
        norms = np.linalg.norm(trace.iterates[:-1], axis=1)
        identity = cols["identity_error"] / (IDENTITY_RTOL * (1.0 + norms))
        slack = cols["contraction_slack"] / (SLACK_RTOL * (1.0 + cols["dist_H"] ** 2))
    w_final = trace.iterates[-1]
    norm = math.hypot(*w_final.tolist())
    return {
        "iters": len(trace.predictions),
        "termination": trace.termination,
        "oracle": [[s.calls, s.patterns, s.loose] for s in trace.oracle_stats],
        "identity_ratio": _plain(identity.max(initial=0.0)),
        "slack": [_plain(v) for v in slack.tolist()],
        "w_final": w_final.tolist(),
        "w_scale": 1.0 + (norm if w_star is None else max(norm, math.hypot(*w_star.stack().tolist()))),
    }


def post_hoc(problem, config, mats, trace, w_star) -> dict:
    """The report of each of the four post-hoc checks by name, or the name of
    the exception it raised."""
    constants = g.rate_constants(problem, config)
    checks = {
        "pointwise": lambda: g.pointwise_residual_check(problem, config, trace),
        "nonergodic": lambda: g.nonergodic_check(mats, trace, w_star),
        "error_bound": lambda: g.diagnostics.error_bound_check(problem, mats, trace, constants),
        "rate": lambda: g.linear_rate_check(mats, trace, w_star, constants),
    }
    reports = {}
    for name, check in checks.items():
        try:
            # a diverged run overflows the checks' products as it does the solve
            with np.errstate(over="ignore", invalid="ignore"):
                reports[name] = check()
        except (g.RegionNotCertified, g.InsufficientTrace) as exc:
            reports[name] = type(exc).__name__
    return reports


def verdict_record(problem, config, mats, trace, w_star) -> dict:
    """Every flag of the four post-hoc checks, or the exception each raised,
    and the fitted r_hat (None without a fit)."""
    flags, r_hat = {}, None
    for name, report in post_hoc(problem, config, mats, trace, w_star).items():
        if isinstance(report, str):
            flags[name] = report
            continue
        if name == "error_bound":
            flags["error_bound"] = bool(report[0])
            continue
        for field in dataclasses.fields(report):
            if field.name.endswith("_ok"):
                flags[f"{name}.{field.name}"] = bool(getattr(report, field.name))
        if name == "rate":
            r_hat = report.r_hat
    return {"flags": flags, "r_hat": r_hat}


def _sig4(x):
    return None if x is None else f"{x:.4g}"


def violations(a: dict, b: dict) -> list[str]:
    """The contract rules that records a and b of one case break."""
    out = [f"{key}: {a.get(key)!r} != {b.get(key)!r}" for key in EXACT_KEYS if a.get(key) != b.get(key)]
    fa, fb = a.get("flags", {}), b.get("flags", {})
    out += [f"flag {name}: {fa.get(name)!r} != {fb.get(name)!r}"
            for name in fa.keys() | fb.keys() if fa.get(name) != fb.get(name)]
    if _sig4(a.get("r_hat")) != _sig4(b.get("r_hat")):
        out.append(f"r_hat: {_sig4(a.get('r_hat'))} != {_sig4(b.get('r_hat'))}")
    for side, rec in (("a", a), ("b", b)):
        ratio = rec.get("identity_ratio")
        if ratio is not None and not ratio <= 1.0:
            out.append(f"identity_ratio ({side}): {ratio:.2e} > 1")
    sa, sb = a.get("slack"), b.get("slack")
    if sa is not None or sb is not None:
        if sa is None or sb is None or len(sa) != len(sb):
            out.append("slack: runs of different length")
        else:
            for k, (x, y) in enumerate(zip(sa, sb)):
                if (x is None) != (y is None):
                    out.append(f"slack[{k}]: {x} against {y}")
                elif x is not None and (min(x, y) < -1.0 or (max(abs(x), abs(y)) > 1.0 and (x > 0) != (y > 0))):
                    out.append(f"slack[{k}]: C4 ratios {x:.3e} and {y:.3e}")
                else:
                    continue
                break  # the first break is enough
    wa, wb = a.get("w_final"), b.get("w_final")
    if wa is not None or wb is not None:
        tol = W_RTOL * max(a.get("w_scale", 1.0), b.get("w_scale", 1.0))
        if wa is None or wb is None or len(wa) != len(wb):
            out.append("w_final: missing or of different length")
        else:
            diff = float(np.abs(np.subtract(wa, wb)).max(initial=0.0))
            if not diff <= tol:
                out.append(f"w_final: differs by {diff:.3e} > {tol:.3e}")
    return out
