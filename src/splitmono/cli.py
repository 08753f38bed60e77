"""Batch experiment harness and command-line interface.

``splitmono validate <config>`` checks a config file and explains every
parameter-condition violation; ``splitmono run <config>`` executes the
(solver, parameters, seed) grid and writes ``report.csv`` plus a
``summary.md`` derived from it; ``splitmono demo <kind>`` writes and runs a
canned desk-scale config.  Exit codes: 0 full success, 1 config error,
2 when any cell errored (the run still completes).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import applications, distributed, operators, primal_dual
from .fbhf import ConfigurationError, ConstantStep, LineSearch, SolveConfig, chi

CSV_COLUMNS = ["solver", "params-json", "seed", "objective", "max-constraint",
               "iterations", "time-ms", "b1-evals", "b2-evals",
               "resolvent-evals", "backtracks", "status"]

KINDS = ("lin-ineq", "entropy", "erm", "distributed", "custom")

ALGORITHMS_BY_KIND = {
    "lin-ineq": ("fbhf", "fbhf-ls", "tseng", "tseng-ls", "condat-vu"),
    "entropy": ("fbhf-ls", "tseng-ls"),
    "erm": ("erm",),
    "distributed": ("consensus",),
    "custom": ("fbhf", "fb", "tseng"),
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SolverCell:
    name: str
    algorithm: str
    params: dict


@dataclass
class ExperimentConfig:
    kind: str
    dims: dict
    seeds: list[int]
    tolerance: float
    max_iterations: int
    cells: list[SolverCell]

    def variants(self) -> list[dict]:
        """Experiment-level parameter axes that multiply every solver cell
        (currently the entropy constraint levels)."""
        if self.kind == "entropy":
            return [{"r_fraction": r} for r in self.dims["r_fractions"]]
        return [{}]


@dataclass
class ReportRow:
    solver: str
    params_json: str
    seed: int
    objective: str = ""
    max_constraint: str = ""
    iterations: int = 0
    time_ms: str = "0.000"
    b1_evals: int = 0
    b2_evals: int = 0
    resolvent_evals: int = 0
    backtracks: int = 0
    status: str = "error"

    def as_list(self) -> list[str]:
        return [self.solver, self.params_json, str(self.seed), self.objective,
                self.max_constraint, str(self.iterations), self.time_ms,
                str(self.b1_evals), str(self.b2_evals),
                str(self.resolvent_evals), str(self.backtracks), self.status]


# ---------------------------------------------------------------------------
# config parsing and validation


def _parse_floats(raw: str) -> list[float]:
    return [float(tok) for tok in raw.replace(",", " ").split()]


def _parse_ints(raw: str) -> list[int]:
    return [int(tok) for tok in raw.replace(",", " ").split()]


def load_config(path) -> ExperimentConfig:
    """Parse the flat key-value config; raises ConfigError with line/field
    context on malformed input."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    text = Path(path).read_text()
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"parse error: {exc}") from exc
    if "experiment" not in parser:
        raise ConfigError("missing [experiment] section")
    exp = parser["experiment"]

    def need(key):
        if key not in exp:
            raise ConfigError(f"[experiment] is missing the '{key}' field")
        return exp[key]

    kind = need("kind").strip()
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind '{kind}' (expected one of {KINDS})")
    try:
        seeds = _parse_ints(need("seeds"))
        tolerance = float(need("tolerance"))
        max_iterations = int(need("max_iterations"))
        dims = {}
        if kind in ("lin-ineq", "entropy", "custom"):
            dims["n"] = int(need("n"))
        if kind == "lin-ineq":
            dims["p"] = int(need("p"))
        if kind == "entropy":
            dims["r_fractions"] = _parse_floats(need("r_fractions"))
        if kind == "erm":
            dims["d"] = int(need("d"))
            dims["m"] = int(need("m"))
        if kind == "distributed":
            dims["agents"] = int(need("agents"))
            dims["block"] = int(exp.get("block", "1"))
            dims["graphs"] = exp.get("graphs", "fixed").strip()
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad field value in [experiment]: {exc}") from exc

    cells = []
    for section in parser.sections():
        if not section.startswith("solver"):
            if section != "experiment":
                raise ConfigError(f"unknown section [{section}]")
            continue
        name = section[len("solver"):].strip() or "solver"
        body = parser[section]
        algorithm = body.get("algorithm", name).strip()
        params = {}
        for key, raw in body.items():
            if key == "algorithm":
                continue
            try:
                params[key] = float(raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] field '{key}': {exc}") from exc
        cells.append(SolverCell(name=name, algorithm=algorithm, params=params))
    return ExperimentConfig(kind=kind, dims=dims, seeds=seeds,
                            tolerance=tolerance, max_iterations=max_iterations,
                            cells=cells)


def validate_config(path, unsafe_stepsize: bool = False) -> tuple[Optional[ExperimentConfig], list[str]]:
    """Load and pre-check a config; returns (config, diagnostics).  The
    config is None when parsing itself failed; any diagnostic makes the
    config invalid."""
    try:
        cfg = load_config(path)
    except ConfigError as exc:
        return None, [str(exc)]
    diags: list[str] = []
    if not cfg.seeds:
        diags.append("seeds list is empty")
    if not cfg.tolerance > 0:
        diags.append(f"tolerance must be positive (got {cfg.tolerance})")
    if cfg.max_iterations < 1:
        diags.append(f"max_iterations must be >= 1 (got {cfg.max_iterations})")
    if not cfg.cells:
        diags.append("no [solver ...] sections given")
    for key, val in cfg.dims.items():
        if key in ("n", "p", "d", "m", "agents", "block") and val < 1:
            diags.append(f"{key} must be >= 1 (got {val})")
    if cfg.kind in ("lin-ineq", "entropy"):
        if cfg.dims.get("n", 2) % 2 != 0:
            diags.append(f"n must be even (got {cfg.dims.get('n')})")
    if cfg.kind == "entropy":
        for r in cfg.dims["r_fractions"]:
            if not -1.0 < r < 0.0:
                diags.append(f"r_fraction {r} outside ]-1, 0[")
    if cfg.kind == "distributed" and cfg.dims.get("graphs") not in ("fixed", "alternating", "random"):
        diags.append(f"graphs must be fixed | alternating | random (got {cfg.dims.get('graphs')})")

    allowed = ALGORITHMS_BY_KIND.get(cfg.kind, ())
    for cell in cfg.cells:
        where = f"solver cell '{cell.name}'"
        if cell.algorithm not in allowed:
            diags.append(f"{where}: algorithm '{cell.algorithm}' is not usable for "
                         f"kind '{cfg.kind}' (allowed: {', '.join(allowed)})")
            continue
        diags.extend(_validate_cell(cfg, cell, unsafe_stepsize, where))
    return cfg, diags


def _validate_cell(cfg: ExperimentConfig, cell: SolverCell, unsafe: bool,
                   where: str) -> list[str]:
    out = []
    p = cell.params
    if cell.algorithm in ("fbhf", "fb"):
        delta = p.get("delta", 3.99)
        if delta <= 0:
            out.append(f"{where}: delta = {delta} must be positive")
        elif delta >= 4.0 and not unsafe:
            out.append(f"{where}: delta = {delta} gives gamma = (delta/4) chi >= chi; "
                       f"the bound requires delta < 4 (rerun with --unsafe-stepsize "
                       f"to probe beyond it)")
    if cell.algorithm == "tseng":
        delta = p.get("delta", 0.99)
        if delta <= 0:
            out.append(f"{where}: delta = {delta} must be positive")
        elif delta >= 1.0 and not unsafe:
            out.append(f"{where}: delta = {delta} gives gamma >= 1/(1/beta + L); "
                       f"the bound requires delta < 1")
    if cell.algorithm in ("fbhf-ls", "tseng-ls"):
        for key, default in (("epsilon", 0.88), ("sigma", 0.9), ("theta", 0.707)):
            v = p.get(key, default)
            if not 0.0 < v < 1.0:
                out.append(f"{where}: {key} = {v} must lie in ]0, 1[")
    if cell.algorithm == "condat-vu":
        sb = p.get("sigma_bar", 0.0008)
        if sb <= 0:
            out.append(f"{where}: sigma_bar = {sb} must be positive")
    if cell.algorithm == "erm":
        m = cfg.dims["m"]
        factor = p.get("sigma_factor", 0.99)
        bound = applications.erm_uniform_sigma_bound(m)
        sigma = factor * bound
        lhs, rhs = applications.erm_condition([sigma] * (m + 1), [1.0] * m)
        if lhs >= rhs:
            out.append(f"{where}: sigma = {sigma:.6g} violates the incremental "
                       f"stepsize condition: sqrt(m) + m sigma = {lhs:.6g} must be "
                       f"< 1/sigma = {rhs:.6g} (uniform bound (sqrt(5)-1)/(2 sqrt(m)) "
                       f"= {bound:.6g})")
    if cell.algorithm == "consensus":
        for key in ("gamma", "tau"):
            if key in p and p[key] <= 0:
                out.append(f"{where}: {key} = {p[key]} must be positive")
    return out


# ---------------------------------------------------------------------------
# cell runners


def _line_search_policy(params: dict) -> LineSearch:
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="theta=")
        return LineSearch(epsilon=params.get("epsilon", 0.88),
                          sigma=params.get("sigma", 0.9),
                          theta=params.get("theta", 0.707))


def _report_from(report, objective: str, constraint: str, cell: SolverCell,
                 params: dict, seed: int) -> ReportRow:
    return ReportRow(solver=cell.name, params_json=json.dumps(params, sort_keys=True),
                     seed=seed, objective=objective, max_constraint=constraint,
                     iterations=report.iterations,
                     time_ms=f"{report.wall_time * 1000.0:.3f}",
                     b1_evals=report.b1_evals, b2_evals=report.b2_evals,
                     resolvent_evals=report.resolvent_evals,
                     backtracks=report.backtracks, status=report.reason)


def _fmt(value: float) -> str:
    return repr(float(value))


def _run_nlp_cell(cfg: ExperimentConfig, cell: SolverCell, variant: dict,
                  seed: int, unsafe: bool) -> ReportRow:
    if cfg.kind == "lin-ineq":
        prob = applications.gen_lin_ineq_qp(cfg.dims["n"], cfg.dims["p"], seed)
        L = prob.data["L"]
    else:
        prob = applications.gen_entropy_ls(cfg.dims["n"], variant["r_fraction"], seed)
        L = None
    beta = prob.beta
    solve_cfg = SolveConfig(max_iterations=cfg.max_iterations,
                            tolerance=cfg.tolerance)
    params = dict(cell.params)
    params.update(variant)

    if cell.algorithm == "fbhf":
        delta = params.setdefault("delta", 3.99)
        gamma = delta / 4.0 * chi(beta, L)
        policy = ConstantStep(gamma=gamma, unchecked=unsafe)
        report = applications.solve_nlp(prob, policy, solve_cfg)
    elif cell.algorithm == "tseng":
        delta = params.setdefault("delta", 0.99)
        gamma = delta / (1.0 / beta + L)
        policy = ConstantStep(gamma=gamma, unchecked=unsafe)
        report = applications.solve_nlp(prob, policy, solve_cfg, baseline="tseng")
    elif cell.algorithm == "fbhf-ls":
        report = applications.solve_nlp(prob, _line_search_policy(params), solve_cfg)
    elif cell.algorithm == "tseng-ls":
        report = applications.solve_nlp(prob, _line_search_policy(params), solve_cfg,
                                        baseline="tseng")
    elif cell.algorithm == "condat-vu":
        sigma_bar = params.setdefault("sigma_bar", 0.0008)
        pdp = _lin_ineq_as_primal_dual(prob)
        tau = 1.0 / (1.0 / (2.0 * beta) + sigma_bar * L * L)
        report = primal_dual.solve_condat_vu(pdp, tau, sigma_bar, solve_cfg)
    else:
        raise ConfigurationError(f"algorithm {cell.algorithm} not valid here")

    x = report.block(0)
    return _report_from(report, _fmt(prob.objective(x)),
                        _fmt(prob.max_constraint(x)), cell, params, seed)


def _lin_ineq_as_primal_dual(prob: applications.NlpProblem) -> primal_dual.PrimalDualProblem:
    """Cast the linear-inequality problem as one stacked dual block with the
    nonpositive-orthant indicator."""
    D = prob.data["D"]
    neg_orthant = operators.MaximalMonotone(
        resolvent=lambda gamma, y: np.minimum(y, 0.0), tag="N-")
    block = primal_dual.DualBlock(B=neg_orthant, L=D)
    return primal_dual.PrimalDualProblem(A=prob.f, C1=prob.h, C2=None,
                                         blocks=(block,), dim=prob.dim)


def _run_erm_cell(cfg: ExperimentConfig, cell: SolverCell, seed: int) -> ReportRow:
    d, m = cfg.dims["d"], cfg.dims["m"]
    prob = applications.gen_erm_hinge(d, m, seed)
    params = dict(cell.params)
    factor = params.setdefault("sigma_factor", 0.99)
    sigma = factor * applications.erm_uniform_sigma_bound(m)
    solve_cfg = SolveConfig(max_iterations=cfg.max_iterations,
                            tolerance=cfg.tolerance)
    report = applications.solve_erm_incremental(prob, [sigma], None, solve_cfg)
    x = report.block(0)
    return _report_from(report, _fmt(prob.objective(x)), "", cell, params, seed)


def _run_distributed_cell(cfg: ExperimentConfig, cell: SolverCell, seed: int) -> ReportRow:
    n = cfg.dims["agents"]
    h = cfg.dims["block"]
    kind = cfg.dims["graphs"]
    params = dict(cell.params)
    deg_bound = 2.0 * max(1, n - 1)
    gamma = params.setdefault("gamma", 0.9 / deg_bound)
    tau = params.setdefault("tau", 0.9 / deg_bound)
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((n, h))
    proxes = [(lambda g, v, c=centers[i]: (v + g * c) / (1.0 + g))
              for i in range(n)]
    if kind == "fixed":
        gs = distributed.GraphSequence.fixed(distributed.Graph.ring(n))
    elif kind == "alternating":
        gs = distributed.GraphSequence.alternating(distributed.Graph.path(n),
                                                   distributed.Graph.star(n))
    else:
        gs = distributed.GraphSequence.random(n, seed)
    solve_cfg = SolveConfig(max_iterations=cfg.max_iterations,
                            tolerance=cfg.tolerance)
    report, trace = distributed.run_distributed(proxes, gs, gamma, tau,
                                                solve_cfg, block_dim=h)
    X = report.block(0).reshape(n, h)
    mean = X.mean(axis=0)
    objective = 0.5 * float(sum(np.linalg.norm(mean - centers[i]) ** 2
                                for i in range(n)))
    consensus = trace[-1] if trace else 0.0
    params["graphs"] = kind
    return _report_from(report, _fmt(objective), _fmt(consensus), cell, params, seed)


def _run_custom_cell(cfg: ExperimentConfig, cell: SolverCell, seed: int) -> ReportRow:
    from .fbhf import solve_fbhf, solve_forward_backward, solve_tseng_fbf

    n = cfg.dims["n"]
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n)) / math.sqrt(n) + np.eye(n)
    b = rng.standard_normal(n)
    h = operators.quadratic_gradient(G, b)
    spec = operators.ProblemSpec(A=operators.normal_cone_box(-np.ones(n), np.ones(n)),
                                 B1=h, B2=None,
                                 X=operators.ClosedConvexSet.whole_space(),
                                 dimension=n)
    params = dict(cell.params)
    solve_cfg = SolveConfig(max_iterations=cfg.max_iterations,
                            tolerance=cfg.tolerance)
    beta = h.beta
    if cell.algorithm in ("fbhf", "fb"):
        delta = params.setdefault("delta", 3.99)
        gamma = delta * beta / 2.0
        if cell.algorithm == "fbhf":
            report = solve_fbhf(spec, ConstantStep(gamma=gamma), solve_cfg)
        else:
            report = solve_forward_backward(spec, gamma, solve_cfg)
    else:
        delta = params.setdefault("delta", 0.99)
        report = solve_tseng_fbf(spec, ConstantStep(gamma=delta * beta), solve_cfg)
    obj = h.value(report.z)
    return _report_from(report, _fmt(obj), "", cell, params, seed)


def _run_cell(cfg: ExperimentConfig, cell: SolverCell, variant: dict, seed: int,
              unsafe: bool) -> ReportRow:
    try:
        if cfg.kind in ("lin-ineq", "entropy"):
            return _run_nlp_cell(cfg, cell, variant, seed, unsafe)
        if cfg.kind == "erm":
            return _run_erm_cell(cfg, cell, seed)
        if cfg.kind == "distributed":
            return _run_distributed_cell(cfg, cell, seed)
        return _run_custom_cell(cfg, cell, seed)
    except Exception as exc:  # record the failure, keep the run going
        # one write per line, so that worker threads do not interleave
        sys.stderr.write(f"{cell.name}, {seed}, {type(exc).__name__}: {exc}\n")
        params = dict(cell.params)
        params.update(variant)
        return ReportRow(solver=cell.name,
                         params_json=json.dumps(params, sort_keys=True),
                         seed=seed, status="error",
                         objective="", max_constraint="")


# ---------------------------------------------------------------------------
# run + reporting


def run_experiment(cfg: ExperimentConfig, out_dir, threads: int = 1,
                   unsafe_stepsize: bool = False) -> int:
    """Execute every (solver cell, variant, seed) and write report.csv and
    summary.md under out_dir.  Returns the process exit code."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tasks = [(cell, variant, seed)
             for cell in cfg.cells
             for variant in cfg.variants()
             for seed in cfg.seeds]
    rows: list[Optional[ReportRow]] = [None] * len(tasks)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = {pool.submit(_run_cell, cfg, cell, variant, seed,
                                   unsafe_stepsize): idx
                       for idx, (cell, variant, seed) in enumerate(tasks)}
            for fut, idx in futures.items():
                rows[idx] = fut.result()
    else:
        for idx, (cell, variant, seed) in enumerate(tasks):
            rows[idx] = _run_cell(cfg, cell, variant, seed, unsafe_stepsize)

    csv_path = out / "report.csv"
    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(row.as_list())
    write_summary(csv_path, out / "summary.md")
    return 2 if any(r.status == "error" for r in rows) else 0


def write_summary(csv_path, md_path) -> None:
    """Render the markdown summary strictly from the CSV contents: one line
    per (solver, params) cell with arithmetic means over its seeds."""
    groups: dict[tuple[str, str], list[dict]] = {}
    order: list[tuple[str, str]] = []
    with Path(csv_path).open(newline="") as fh:
        for rec in csv.DictReader(fh):
            key = (rec["solver"], rec["params-json"])
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(rec)

    def mean_of(records, col):
        vals = [float(r[col]) for r in records if r[col] != ""]
        if not vals:
            return ""
        return f"{sum(vals) / len(vals):.6g}"

    lines = ["# Experiment summary", "",
             "| solver | params | seeds | mean objective | mean max-constraint "
             "| mean iterations | mean time (ms) | mean B1 evals | errors |",
             "|---|---|---|---|---|---|---|---|---|"]
    for key in order:
        recs = groups[key]
        errors = sum(1 for r in recs if r["status"] == "error")
        lines.append("| {} | `{}` | {} | {} | {} | {} | {} | {} | {} |".format(
            key[0], key[1], len(recs), mean_of(recs, "objective"),
            mean_of(recs, "max-constraint"), mean_of(recs, "iterations"),
            mean_of(recs, "time-ms"), mean_of(recs, "b1-evals"), errors))
    Path(md_path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# canned demo configs


DEMO_CONFIGS = {
    "lin-ineq": """\
[experiment]
kind = lin-ineq
n = 200
p = 20
seeds = 0,1
tolerance = 1e-6
max_iterations = 100000

[solver fbhf]
delta = 3.99

[solver tseng]
delta = 0.99

[solver condat-vu]
sigma_bar = 0.0008
""",
    "entropy": """\
[experiment]
kind = entropy
n = 20
seeds = 0,1
tolerance = 1e-9
max_iterations = 200000
r_fractions = -0.2,-0.4,-0.6,-0.8

[solver fbhf-ls]

[solver tseng-ls]
""",
    "erm": """\
[experiment]
kind = erm
d = 20
m = 50
seeds = 0
tolerance = 1e-5
max_iterations = 200000

[solver erm]
sigma_factor = 0.99
""",
    "distributed": """\
[experiment]
kind = distributed
agents = 5
block = 1
graphs = random
seeds = 0,1
tolerance = 1e-9
max_iterations = 100000

[solver consensus]
""",
    "custom": """\
[experiment]
kind = custom
n = 40
seeds = 0,1
tolerance = 1e-9
max_iterations = 100000

[solver fbhf]
delta = 3.99

[solver fb]
delta = 3.99

[solver tseng]
delta = 0.99
""",
}


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="splitmono",
        description="Operator-splitting solver benchmarks (three-operator "
                    "forward-backward-half-forward family)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check a config file")
    p_val.add_argument("config")
    p_val.add_argument("--unsafe-stepsize", action="store_true")

    p_run = sub.add_parser("run", help="run an experiment grid")
    p_run.add_argument("config")
    p_run.add_argument("--out", default="splitmono-out")
    p_run.add_argument("--seeds", default=None,
                       help="comma-separated seed override")
    p_run.add_argument("--unsafe-stepsize", action="store_true")
    p_run.add_argument("--threads", type=int, default=1)

    p_demo = sub.add_parser("demo", help="write and run a canned config")
    p_demo.add_argument("kind", choices=sorted(DEMO_CONFIGS))
    p_demo.add_argument("--out", default=None)

    args = parser.parse_args(argv)

    if args.command == "validate":
        cfg, diags = validate_config(args.config, args.unsafe_stepsize)
        if diags:
            for d in diags:
                print(f"invalid: {d}", file=sys.stderr)
            return 1
        print(f"config ok: kind={cfg.kind}, {len(cfg.cells)} solver cell(s), "
              f"{len(cfg.seeds)} seed(s)")
        return 0

    if args.command == "run":
        cfg, diags = validate_config(args.config, args.unsafe_stepsize)
        if diags:
            for d in diags:
                print(f"invalid: {d}", file=sys.stderr)
            return 1
        if args.seeds is not None:
            cfg.seeds = _parse_ints(args.seeds)
            if not cfg.seeds:
                print("invalid: empty seed override", file=sys.stderr)
                return 1
        code = run_experiment(cfg, args.out, threads=max(1, args.threads),
                              unsafe_stepsize=args.unsafe_stepsize)
        print(f"wrote {Path(args.out) / 'report.csv'} and "
              f"{Path(args.out) / 'summary.md'}")
        return code

    out = Path(args.out or f"splitmono-demo-{args.kind}")
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = out / "config.ini"
    cfg_path.write_text(DEMO_CONFIGS[args.kind])
    cfg, diags = validate_config(cfg_path)
    assert not diags, diags
    code = run_experiment(cfg, out)
    print(f"demo '{args.kind}' wrote {out / 'report.csv'} and {out / 'summary.md'}")
    return code


if __name__ == "__main__":
    sys.exit(main())
