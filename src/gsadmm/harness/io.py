"""Flat-file persistence: instance documents, trace/atlas CSVs, reports.

Instance document (line oriented, whitespace separated, floats printed with
17 significant digits so parse(serialize(.)) is exact in double precision):

    gsadmm-instance 1
    p <int>
    q <int>
    n <int>
    block x <index>
    objective quadratic|l1|linear
    <objective payload>          # quad-P/quad-r/quad-t, l1-weight, lin-r
    set free|box|nonnegative
    <set payload>                # box-lo / box-hi
    coupling <rows> <cols>
    <rows lines of cols floats>
    end
    ... one block section per x block, then per y block ...
    rhs <n>
    <one line of n floats>
    solution                     # optional reference-point section
    x <index> <dim> / <floats>, y <index> <dim> / <floats>
    lambda <n> / <floats>
    provenance <token...>
    certificate <token...>
    seed <int>
    end

Infinities serialize as inf/-inf. Trace and atlas files are plain CSV with
fixed headers; the report is a flat "key value" document.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from ..diagnostics import NonergodicReport, PointwiseReport, RateReport
from ..engine import Trace
from ..model import (
    Block,
    BlockProblem,
    Box,
    Free,
    Iterate,
    L1,
    Linear,
    Nonnegative,
    Quadratic,
)

FORMAT_NAME = "gsadmm-instance"
FORMAT_VERSION = 1

TRACE_HEADER = "k,feasibility,correction_residual,d_norm_sq,contraction_slack,identity_error,dist_H"
ATLAS_HEADER = "tau,s,in_G,in_D,lambda_min_G,lambda_min_H,xi,iters_to_tol,r_hat"


class ParseError(ValueError):
    """Malformed instance document."""


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _fmt_vec(v: np.ndarray) -> str:
    return " ".join(_fmt(x) for x in v)


def serialize_problem(problem: BlockProblem, w_star: Iterate | None = None,
                      provenance: str = "", certificate: str = "", seed: int = 0) -> str:
    lines = [f"{FORMAT_NAME} {FORMAT_VERSION}"]
    lines.append(f"p {problem.p}")
    lines.append(f"q {problem.q}")
    lines.append(f"n {problem.n}")

    def emit_block(kind: str, idx: int, blk: Block):
        lines.append(f"block {kind} {idx}")
        obj = blk.objective
        if isinstance(obj, Quadratic):
            lines.append("objective quadratic")
            lines.append(f"quad-P {obj.P.shape[0]} {obj.P.shape[1]}")
            for row in obj.P:
                lines.append(_fmt_vec(row))
            lines.append(f"quad-r {obj.r.shape[0]}")
            lines.append(_fmt_vec(obj.r))
            lines.append(f"quad-t {_fmt(obj.t)}")
        elif isinstance(obj, L1):
            lines.append("objective l1")
            lines.append(f"l1-weight {_fmt(obj.weight)}")
        elif isinstance(obj, Linear):
            lines.append("objective linear")
            lines.append(f"lin-r {obj.r.shape[0]}")
            lines.append(_fmt_vec(obj.r))
        else:
            raise ParseError(f"unknown objective variant {type(obj).__name__}")
        fset = blk.set
        if isinstance(fset, Free):
            lines.append("set free")
        elif isinstance(fset, Nonnegative):
            lines.append("set nonnegative")
        elif isinstance(fset, Box):
            lines.append("set box")
            lines.append(f"box-lo {fset.lo.shape[0]}")
            lines.append(_fmt_vec(fset.lo))
            lines.append(f"box-hi {fset.hi.shape[0]}")
            lines.append(_fmt_vec(fset.hi))
        else:
            raise ParseError(f"unknown set variant {type(fset).__name__}")
        lines.append(f"coupling {blk.A.shape[0]} {blk.A.shape[1]}")
        for row in blk.A:
            lines.append(_fmt_vec(row))
        lines.append("end")

    for i, blk in enumerate(problem.x_blocks):
        emit_block("x", i, blk)
    for j, blk in enumerate(problem.y_blocks):
        emit_block("y", j, blk)
    lines.append(f"rhs {problem.n}")
    lines.append(_fmt_vec(problem.c))
    if w_star is not None:
        lines.append("solution")
        for i, xi in enumerate(w_star.x):
            lines.append(f"x {i} {xi.shape[0]}")
            lines.append(_fmt_vec(xi))
        for j, yj in enumerate(w_star.y):
            lines.append(f"y {j} {yj.shape[0]}")
            lines.append(_fmt_vec(yj))
        lines.append(f"lambda {w_star.lam.shape[0]}")
        lines.append(_fmt_vec(w_star.lam))
        if provenance:
            lines.append(f"provenance {provenance}")
        if certificate:
            lines.append(f"certificate {certificate}")
        lines.append(f"seed {seed}")
        lines.append("end")
    return "\n".join(lines) + "\n"


class _Lines:
    def __init__(self, text: str):
        self._lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        self._pos = 0

    def peek(self) -> str | None:
        return self._lines[self._pos] if self._pos < len(self._lines) else None

    def next(self) -> str:
        if self._pos >= len(self._lines):
            raise ParseError("unexpected end of document")
        ln = self._lines[self._pos]
        self._pos += 1
        return ln

    def expect(self, key: str, count: int = 1) -> list[str]:
        """The `count` tokens after `key` on the next line."""
        ln = self.next()
        parts = ln.split()
        if parts[0] != key or len(parts) != count + 1:
            raise ParseError(f"expected '{key}' and {count} values, got '{ln}'")
        return parts[1:]

    def floats(self, count: int) -> np.ndarray:
        vals = [float(tok) for tok in self.next().split()]
        if len(vals) != count:
            raise ParseError(f"expected {count} floats, got {len(vals)}")
        return np.asarray(vals)

    def matrix(self, rows: int, cols: int) -> np.ndarray:
        return np.vstack([self.floats(cols) for _ in range(rows)]) if rows else np.zeros((0, cols))


def parse_instance(text: str):
    """Parse an instance document; returns (problem, w_star or None, meta dict)."""
    lines = _Lines(text)
    header = lines.next().split()
    if header != [FORMAT_NAME, str(FORMAT_VERSION)]:
        raise ParseError(f"unrecognized document header: {' '.join(header)}")
    p = int(lines.expect("p")[0])
    q = int(lines.expect("q")[0])
    n = int(lines.expect("n")[0])

    def parse_block(expected_kind: str, expected_idx: int) -> Block:
        kind, idx = lines.expect("block", 2)
        if kind != expected_kind or int(idx) != expected_idx:
            raise ParseError(f"expected block {expected_kind} {expected_idx}, got {kind} {idx}")
        variant = lines.expect("objective")[0]
        if variant == "quadratic":
            rows, cols = (int(v) for v in lines.expect("quad-P", 2))
            P = lines.matrix(rows, cols)
            r = lines.floats(int(lines.expect("quad-r")[0]))
            t = float(lines.expect("quad-t")[0])
            obj = Quadratic(P, r, t)
        elif variant == "l1":
            obj = L1(float(lines.expect("l1-weight")[0]))
        elif variant == "linear":
            obj = Linear(lines.floats(int(lines.expect("lin-r")[0])))
        else:
            raise ParseError(f"unknown objective variant '{variant}'")
        set_variant = lines.expect("set")[0]
        if set_variant == "free":
            fset = Free()
        elif set_variant == "nonnegative":
            fset = Nonnegative()
        elif set_variant == "box":
            lo = lines.floats(int(lines.expect("box-lo")[0]))
            hi = lines.floats(int(lines.expect("box-hi")[0]))
            fset = Box(lo, hi)
        else:
            raise ParseError(f"unknown set variant '{set_variant}'")
        rows, cols = (int(v) for v in lines.expect("coupling", 2))
        A = lines.matrix(rows, cols)
        lines.expect("end", 0)
        return Block(obj, A, fset)

    x_blocks = tuple(parse_block("x", i) for i in range(p))
    y_blocks = tuple(parse_block("y", j) for j in range(q))
    c = lines.floats(int(lines.expect("rhs")[0]))
    if c.shape[0] != n:
        raise ParseError(f"rhs has length {c.shape[0]}, header says n={n}")
    problem = BlockProblem(x_blocks, y_blocks, c)

    w_star = None
    meta: dict[str, object] = {}
    if lines.peek() == "solution":
        lines.next()
        xs = []
        for i in range(p):
            _, dim = lines.expect("x", 2)
            xs.append(lines.floats(int(dim)))
        ys = []
        for j in range(q):
            _, dim = lines.expect("y", 2)
            ys.append(lines.floats(int(dim)))
        lam = lines.floats(int(lines.expect("lambda")[0]))
        while (ln := lines.next()) != "end":
            key, _, rest = ln.partition(" ")
            meta[key] = rest
        w_star = Iterate(tuple(xs), tuple(ys), lam)
        if not np.isfinite(w_star.stack()).all():
            raise ParseError("solution has non-finite entries")
    if "seed" in meta:
        meta["seed"] = int(meta["seed"])  # type: ignore[arg-type]
    return problem, w_star, meta


def write_instance(path, problem: BlockProblem, w_star: Iterate | None = None,
                   provenance: str = "", certificate: str = "", seed: int = 0) -> None:
    Path(path).write_text(
        serialize_problem(problem, w_star, provenance, certificate, seed),
        encoding="utf-8",
    )


def read_instance(path):
    return parse_instance(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Trace / atlas / report documents
# ---------------------------------------------------------------------------

def write_trace_csv(path, trace: Trace) -> None:
    names = TRACE_HEADER.split(",")[1:]
    with open(path, "w") as fh:
        fh.write(TRACE_HEADER + "\n")
        for k, row in enumerate(zip(*(trace.columns[name].tolist() for name in names))):
            fh.write(",".join([str(k), *map(_fmt, row)]) + "\n")


def write_atlas_csv(path, rows: list[dict]) -> None:
    cols = ATLAS_HEADER.split(",")
    with open(path, "w") as fh:
        fh.write(ATLAS_HEADER + "\n")
        for row in rows:
            cells = []
            for col in cols:
                val = row[col]
                if isinstance(val, bool):
                    cells.append("1" if val else "0")
                elif isinstance(val, int):
                    cells.append(str(val))
                else:
                    cells.append(_fmt(val))
            fh.write(",".join(cells) + "\n")


def format_report(entries: dict) -> str:
    """Flat key-value document; booleans print as true/false."""
    lines = []
    for key, val in entries.items():
        if isinstance(val, (bool, np.bool_)):
            lines.append(f"{key} {'true' if val else 'false'}")
        elif isinstance(val, (float, np.floating)):
            lines.append(f"{key} {_fmt(val)}")
        else:
            lines.append(f"{key} {val}")
    return "\n".join(lines) + "\n"


def report_entries(trace: Trace, spectra: dict | None = None,
                   nonergodic: NonergodicReport | None = None,
                   pointwise: PointwiseReport | None = None,
                   rate: RateReport | None = None) -> dict:
    """Assemble the flat report for one solver run."""
    cols = trace.columns
    entries: dict[str, object] = {
        "p": trace.problem.p,
        "q": trace.problem.q,
        "n": trace.problem.n,
        "beta": trace.config.beta,
        "tau": trace.config.tau,
        "s": trace.config.s,
        "sigma1": trace.config.sigma1,
        "sigma2": trace.config.sigma2,
        "termination": trace.termination,
        "iterations": len(trace.predictions),
    }
    if len(trace.predictions):
        entries["final_feasibility"] = float(cols["feasibility"][-1])
        entries["final_d_inf"] = float(cols["d_inf"][-1])
        entries["final_dist_H"] = float(cols["dist_H"][-1])
        entries["max_identity_error"] = max(cols["identity_error"].tolist())
    for idx, stats in enumerate(trace.oracle_stats):
        if stats.set != "free":  # one line per constrained block
            block = f"x{idx}" if idx < trace.problem.p else f"y{idx - trace.problem.p}"
            entries[f"oracle.{block}"] = (
                f"set={stats.set} dim={stats.dim} calls={stats.calls} patterns={stats.patterns} "
                f"rechecks={stats.rechecks} loose_tier={stats.loose}")
    if spectra:
        entries.update(spectra)
    if nonergodic is not None:
        entries["monotone_ok"] = nonergodic.monotone_ok
        entries["xi_bound_ok"] = nonergodic.xi_bound_ok
        entries["sublinear_envelope"] = nonergodic.sublinear_envelope
    if pointwise is not None:
        entries["theta_hat"] = pointwise.theta_hat
        entries["theta_hat_ok"] = pointwise.theta_hat_ok
        entries["sup_scaled_d_sq"] = pointwise.sup_scaled_d_sq
        entries["sup_scaled_feasibility_sq"] = pointwise.sup_scaled_feasibility_sq
    if rate is not None:
        entries["linear_ratio_fit"] = rate.linear_ratio_fit
        entries["r_hat"] = rate.r_hat
        entries["envelope_ok"] = rate.envelope_ok
        entries["error_bound_ok"] = rate.error_bound_ok
        entries["error_bound_worst_ratio"] = rate.error_bound_worst_ratio
    return entries
