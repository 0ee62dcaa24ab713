"""Flat-file persistence: instance documents, trace/atlas CSVs, reports.

Instance document (line oriented, whitespace separated, floats printed with
17 significant digits so parse(serialize(.)) is exact in double precision):

    gsadmm-instance 1
    p <int>
    q <int>
    n <int>
    block x <index>
    objective quadratic|l1|linear
    <objective payload>
    set free|box|nonnegative
    <set payload>
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

`VARIANTS` is the payload grammar: each objective and set variant's line
groups. A group is a matrix (`key rows cols`, then a line per row), a vector
(`key n`, then one line) or a scalar (`key value`); `coupling`, `rhs` and
`lambda` are groups too. One writer (`_group`) and one reader
(`_Lines.group`) handle every group, which keeps the serialized form
canonical: serialize(parse(text)) == text. Infinities serialize as
inf/-inf. Trace and atlas files are plain CSV with fixed headers; the
report is a flat "key value" document.
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

# Each Block field's variants by their document name: the class, and its
# payload as (line key, class field, ndim) groups, ndim 2 for a matrix, 1 for
# a vector and 0 for a scalar.
VARIANTS = {
    "objective": {
        "quadratic": (Quadratic, (("quad-P", "P", 2), ("quad-r", "r", 1), ("quad-t", "t", 0))),
        "l1": (L1, (("l1-weight", "weight", 0),)),
        "linear": (Linear, (("lin-r", "r", 1),)),
    },
    "set": {
        "free": (Free, ()),
        "box": (Box, (("box-lo", "lo", 1), ("box-hi", "hi", 1))),
        "nonnegative": (Nonnegative, ()),
    },
}

TRACE_HEADER = "k,feasibility,correction_residual,d_norm_sq,contraction_slack,identity_error,dist_H,d_inf,feasibility_inf"
ATLAS_HEADER = "tau,s,in_G,in_D,lambda_min_G,lambda_min_H,xi,iters_to_tol,r_hat"


class ParseError(ValueError):
    """Malformed instance document."""


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _fmt_vec(v: np.ndarray) -> str:
    return " ".join(_fmt(x) for x in v)


def _group(key: str, value) -> list[str]:
    """The lines of one payload group: `key value` for a scalar, `key <shape>`
    and then a line per matrix row, or one line for a vector."""
    if np.ndim(value) == 0:
        return [f"{key} {_fmt(value)}"]
    rows = value if value.ndim == 2 else [value]
    return [f"{key} {' '.join(map(str, value.shape))}", *map(_fmt_vec, rows)]


def _variant(key: str, value) -> list[str]:
    """The `key <name>` line of a block field's variant, then its payload."""
    for name, (cls, groups) in VARIANTS[key].items():
        if isinstance(value, cls):
            return [f"{key} {name}", *(ln for gkey, field, _ in groups for ln in _group(gkey, getattr(value, field)))]
    raise ParseError(f"unknown {key} variant {type(value).__name__}")


def serialize_problem(problem: BlockProblem, w_star: Iterate | None = None,
                      provenance: str = "", certificate: str = "", seed: int = 0) -> str:
    lines = [f"{FORMAT_NAME} {FORMAT_VERSION}", f"p {problem.p}", f"q {problem.q}", f"n {problem.n}"]
    for kind, blocks in (("x", problem.x_blocks), ("y", problem.y_blocks)):
        for idx, blk in enumerate(blocks):
            lines.append(f"block {kind} {idx}")
            for key in VARIANTS:  # the Block field of each variant is named by its key
                lines += _variant(key, getattr(blk, key))
            lines += [*_group("coupling", blk.A), "end"]
    lines += _group("rhs", problem.c)
    if w_star is not None:
        lines.append("solution")
        for kind, parts in (("x", w_star.x), ("y", w_star.y)):
            for idx, part in enumerate(parts):
                lines += _group(f"{kind} {idx}", part)
        lines += _group("lambda", w_star.lam)
        lines += [f"{key} {value}" for key, value in (("provenance", provenance), ("certificate", certificate))
                  if value]
        lines += [f"seed {seed}", "end"]
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

    def group(self, key: str, ndim: int):
        """One payload group of `ndim` (see `_group`)."""
        head = self.expect(key, max(ndim, 1))
        if ndim < 2:
            return self.floats(int(head[0])) if ndim else float(head[0])
        rows, cols = (int(v) for v in head)
        return np.vstack([self.floats(cols) for _ in range(rows)]) if rows else np.zeros((0, cols))

    def variant(self, key: str):
        """A block field's variant: its `key <name>` line, then its payload."""
        name = self.expect(key)[0]
        if name not in VARIANTS[key]:
            raise ParseError(f"unknown {key} variant '{name}'")
        cls, groups = VARIANTS[key][name]
        return cls(**{field: self.group(gkey, ndim) for gkey, field, ndim in groups})

    def vector(self, key: str, *shape: int) -> np.ndarray:
        """The floats under a `key <shape...>` line, which must name `shape`
        (a block's index and dim, or lambda's n); the last entry counts them."""
        got = self.expect(key, len(shape))
        if [int(v) for v in got] != list(shape):
            raise ParseError(f"expected '{key} {' '.join(map(str, shape))}', got '{key} {' '.join(got)}'")
        return self.floats(shape[-1])


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
        fields = {key: lines.variant(key) for key in VARIANTS}
        A = lines.group("coupling", 2)
        lines.expect("end", 0)
        return Block(A=A, **fields)

    x_blocks = tuple(parse_block("x", i) for i in range(p))
    y_blocks = tuple(parse_block("y", j) for j in range(q))
    c = lines.group("rhs", 1)
    if c.shape[0] != n:
        raise ParseError(f"rhs has length {c.shape[0]}, header says n={n}")
    problem = BlockProblem(x_blocks, y_blocks, c)

    w_star = None
    meta: dict[str, object] = {}
    if lines.peek() == "solution":
        lines.next()
        xs = [lines.vector("x", i, blk.dim) for i, blk in enumerate(x_blocks)]
        ys = [lines.vector("y", j, blk.dim) for j, blk in enumerate(y_blocks)]
        lam = lines.vector("lambda", n)
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


def report_entries(trace: Trace, spectra: dict, nonergodic: NonergodicReport | None,
                   pointwise: PointwiseReport, rate: RateReport | None,
                   assemble_s: float, verdict_s: float) -> dict:
    """Assemble the flat report for one solver run; `nonergodic` and `rate`
    are None when the run is not certified, and their lines are left out."""
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
        "step_path": trace.step_path,
    }
    if trace.step_fallback:
        entries["step_fallback"] = trace.step_fallback
    entries["affine_iters"] = trace.affine_iters
    entries["pattern_misses"] = len(trace.pattern_misses)
    entries["operators_built"] = len(trace.operators)
    entries["repeat_from"], entries["repeat_period"] = trace.repeat or (-1, 0)
    entries["time.assemble_s"] = assemble_s
    entries["time.step_s"] = trace.step_s
    entries["time.certify_s"] = trace.certify_s
    entries["time.verdict_s"] = verdict_s
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
                f"loose_tier={stats.loose}")
    entries.update(spectra)
    if nonergodic is not None:
        entries["monotone_ok"] = nonergodic.monotone_ok
        entries["xi_bound_ok"] = nonergodic.xi_bound_ok
        entries["sublinear_envelope"] = nonergodic.sublinear_envelope
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
