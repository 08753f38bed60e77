"""Batch experiment harness and command-line interface.

``splitmono validate <config>`` builds every (solver cell, variant, seed)
instance and runs the solver's own parameter check on it; only the
distributed stepsize condition, which depends on each round's graph, is
left to the run.  ``splitmono run <config>`` checks the same way (on the
``--seeds`` override when given), executes the solves the check built and
writes ``report.csv`` plus a ``summary.md`` derived from it; ``splitmono
demo <kind>`` writes and runs a canned desk-scale config.  Exit codes: 0 full
success, 1 config error, 2 when any cell errored (the run still completes).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import functools
import json
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

from . import applications, distributed, operators, primal_dual
from .fbhf import (ConstantStep, LineSearch, SolveConfig, check_step, chi,
                   half_inverse, solve_fbhf, solve_forward_backward, solve_tseng_fbf)

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

# Parameter defaults per algorithm, merged into each solver cell at load.
# The line-search cells take LineSearch's own defaults, and the consensus
# steps depend on the agent count (see load_config).
DEFAULTS = {"fbhf": {"delta": 3.99}, "tseng": {"delta": 0.99},
            "condat-vu": {"sigma_bar": 0.0008}, "erm": {"sigma_factor": 0.99}}
DEFAULTS["fb"] = DEFAULTS["fbhf"]

LINE_SEARCH_KEYS = ("epsilon", "sigma", "theta")

# CSV fields of a cell whose solve raised
ERROR_FIELDS = {"objective": "", "max-constraint": "", "iterations": 0,
                "time-ms": "0.000", "b1-evals": 0, "b2-evals": 0,
                "resolvent-evals": 0, "backtracks": 0, "status": "error"}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SolverCell:
    name: str
    algorithm: str
    params: dict       # the given parameters over the algorithm's defaults


@dataclass
class ExperimentConfig:
    kind: str
    dims: dict
    seeds: list[int]
    tolerance: float
    max_iterations: int
    cells: list[SolverCell]

    def variants(self) -> list[dict]:
        """Experiment-level parameters that multiply every solver cell: the
        entropy constraint levels, or the distributed graph sequence."""
        if self.kind == "entropy":
            return [{"r_fraction": r} for r in self.dims["r_fractions"]]
        if self.kind == "distributed":
            return [{"graphs": self.dims["graphs"]}]
        return [{}]

    def solve_config(self) -> SolveConfig:
        return SolveConfig(max_iterations=self.max_iterations, tolerance=self.tolerance)


# ---------------------------------------------------------------------------
# config parsing and validation


def _parse_float(raw: str) -> float:
    """A finite float; inf and nan are rejected with the other malformed values."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw.strip()!r} is not a finite number")
    return value


def _parse_floats(raw: str) -> list[float]:
    return [_parse_float(tok) for tok in raw.replace(",", " ").split()]


def _parse_ints(raw: str) -> list[int]:
    return [int(tok) for tok in raw.replace(",", " ").split()]


def load_config(path) -> ExperimentConfig:
    """Parse the flat key-value config and resolve every cell's defaults;
    raises ConfigError with line/field context on malformed input."""
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
    defaults = dict(DEFAULTS)
    try:
        seeds = _parse_ints(need("seeds"))
        tolerance = _parse_float(need("tolerance"))
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
            # 2 (n - 1) bounds lambda_max of every n-vertex Laplacian
            step = 0.9 / (2.0 * max(1, dims["agents"] - 1))
            defaults["consensus"] = {"gamma": step, "tau": step}
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
        params = dict(defaults.get(algorithm, {}))
        # a cell takes its defaults' keys; an unknown algorithm is reported
        # by check_config
        allowed = LINE_SEARCH_KEYS if algorithm.endswith("-ls") else tuple(params)
        for key, raw in body.items():
            if key == "algorithm":
                continue
            if key not in allowed and algorithm in ALGORITHMS_BY_KIND[kind]:
                raise ConfigError(f"[{section}] unknown field '{key}' for {algorithm} "
                                  f"(allowed: {', '.join(allowed)})")
            try:
                params[key] = _parse_float(raw)
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
    return cfg, check_config(cfg, unsafe_stepsize)


def check_config(cfg: ExperimentConfig, unsafe: bool = False) -> list[str]:
    """The diagnostics of a loaded config: each (solver cell, variant, seed)
    is built as a run builds it, so it fails here exactly when it would there.
    Each instance is dropped once checked."""
    diags: list[str] = []
    for _ in _checked_runs(cfg, unsafe, diags):
        pass
    return diags


class _Failure(NamedTuple):
    """A raised exception as the text an error row reports, without the
    traceback that would keep the failed build's frames alive."""
    kind: str
    message: str

    @classmethod
    def of(cls, exc: Exception) -> "_Failure":
        return cls(type(exc).__name__, str(exc))


def _cell_runs(cfg: ExperimentConfig, cell: SolverCell, unsafe: bool) -> Iterator[tuple]:
    """Each (variant, seed) of one solver cell in report order, built as
    ``(cell, params, seed, built)``: ``built`` is the cell builder's thunk,
    or the ``_Failure`` of its build."""
    for variant in cfg.variants():
        params = {**cell.params, **variant}
        for seed in cfg.seeds:
            try:
                built = RUNNERS[cfg.kind](cfg, cell.algorithm, params, seed, unsafe)
            except Exception as exc:  # the failure a run records as an error row
                built = _Failure.of(exc)
            yield cell, params, seed, built


def _build_runs(cfg: ExperimentConfig, unsafe: bool) -> Iterator[tuple]:
    """``_cell_runs`` of every solver cell, one instance at a time."""
    for cell in cfg.cells:
        yield from _cell_runs(cfg, cell, unsafe)


def _checked_runs(cfg: ExperimentConfig, unsafe: bool,
                  diags: list[str]) -> Iterator[tuple]:
    """The ``_build_runs`` entries that ``check_config`` checks, one at a
    time, appending its diagnostics to ``diags``.  Nothing is built when the
    config fails before its cells, nor for a cell whose algorithm does not
    fit the kind."""
    if not cfg.seeds:
        diags.append("seeds list is empty")
    if cfg.kind == "entropy" and not cfg.dims["r_fractions"]:
        diags.append("r_fractions list is empty")
    try:
        cfg.solve_config()
    except ValueError as exc:
        diags.append(str(exc))
    if not cfg.cells:
        diags.append("no [solver ...] sections given")
    for key, val in cfg.dims.items():
        if key in ("n", "p", "d", "m", "agents", "block") and val < 1:
            diags.append(f"{key} must be >= 1 (got {val})")
    if cfg.kind == "distributed" and cfg.dims["graphs"] not in ("fixed", "alternating", "random"):
        diags.append(f"graphs must be fixed | alternating | random (got {cfg.dims['graphs']})")
    if diags:
        return

    allowed = ALGORITHMS_BY_KIND[cfg.kind]
    for cell in cfg.cells:
        where = f"solver cell '{cell.name}'"
        if cell.algorithm not in allowed:
            diags.append(f"{where}: algorithm '{cell.algorithm}' is not usable for "
                         f"kind '{cfg.kind}' (allowed: {', '.join(allowed)})")
            continue
        for run in _cell_runs(cfg, cell, unsafe):
            _, params, seed, built = run
            if isinstance(built, _Failure):
                diags.append(f"{where} {json.dumps(params, sort_keys=True)}, "
                             f"seed {seed}: {built.message}")
            yield run


# ---------------------------------------------------------------------------
# cell builders: each draws one seed's instance, runs the solver's own check
# and returns the solve, a thunk giving (report, objective, max-constraint)


def _line_search_policy(params: dict) -> LineSearch:
    """The Armijo policy from the keys the cell gives; LineSearch checks
    their ranges and supplies the rest."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="theta=")
        return LineSearch(**{k: params[k] for k in LINE_SEARCH_KEYS if k in params})


def _constant_step(algorithm: str, delta: float, spec: operators.ProblemSpec,
                   unsafe: bool) -> ConstantStep:
    """The step a ``delta`` cell asks for: (delta/4) chi(beta, L) for fbhf and
    fb (2 beta delta/4 when L = 0), delta / (1/beta + L) for tseng."""
    if algorithm == "tseng":
        gamma = delta / (1.0 / spec.beta + spec.lipschitz)
    else:
        gamma = delta / 4.0 * chi(spec.beta, spec.lipschitz)
    return ConstantStep(gamma=gamma, unchecked=unsafe)


def _build_nlp_cell(cfg: ExperimentConfig, algorithm: str, params: dict,
                    seed: int, unsafe: bool):
    if cfg.kind == "lin-ineq":
        prob = applications.gen_lin_ineq_qp(cfg.dims["n"], cfg.dims["p"], seed)
    else:
        prob = applications.gen_entropy_ls(cfg.dims["n"], params["r_fraction"], seed)
    if algorithm == "condat-vu":
        pdp = prob.as_primal_dual()
        L = pdp.norms_L()[0]
        sigma_bar = params["sigma_bar"]
        tau = 1.0 / (half_inverse(prob.beta) + sigma_bar * L * L)
        primal_dual.check_condat_vu(pdp, tau, sigma_bar)
        solve = functools.partial(primal_dual.solve_condat_vu, pdp, tau, sigma_bar)
    else:
        baseline = algorithm.removesuffix("-ls")
        spec = prob.saddle_spec()
        policy = (_line_search_policy(params) if algorithm.endswith("-ls") else
                  _constant_step(algorithm, params["delta"], spec, unsafe))
        check_step(spec, policy, baseline)
        solve = functools.partial(applications.solve_nlp, prob, policy, baseline=baseline)

    def run():
        report = solve(cfg=cfg.solve_config())
        x = report.block(0)
        return report, prob.objective(x), prob.max_constraint(x)
    return run


def _build_erm_cell(cfg: ExperimentConfig, algorithm: str, params: dict,
                    seed: int, unsafe: bool):
    m = cfg.dims["m"]
    prob = applications.gen_erm_hinge(cfg.dims["d"], m, seed)
    sigmas = [params["sigma_factor"] * applications.erm_uniform_sigma_bound(m)]
    applications.check_erm_steps(prob, sigmas, None)

    def run():
        report = applications.solve_erm_incremental(prob, sigmas, None, cfg.solve_config())
        return report, prob.objective(report.block(0)), None
    return run


def _build_distributed_cell(cfg: ExperimentConfig, algorithm: str, params: dict,
                            seed: int, unsafe: bool):
    n = cfg.dims["agents"]
    h = cfg.dims["block"]
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((n, h))
    proxes = [(lambda g, v, c=centers[i]: (v + g * c) / (1.0 + g))
              for i in range(n)]
    graphs = params["graphs"]
    if graphs == "fixed":
        gs = distributed.GraphSequence.fixed(distributed.Graph.ring(n))
    elif graphs == "alternating":
        gs = distributed.GraphSequence.alternating(distributed.Graph.path(n),
                                                   distributed.Graph.star(n))
    else:
        gs = distributed.GraphSequence.random(n, seed)
    distributed.check_steps(proxes, gs, params["gamma"], params["tau"])

    def run():
        report, trace = distributed.run_distributed(proxes, gs, params["gamma"], params["tau"],
                                                    cfg.solve_config(), block_dim=h)
        mean = report.block(0).reshape(n, h).mean(axis=0)
        objective = 0.5 * float(sum(np.linalg.norm(mean - centers[i]) ** 2
                                    for i in range(n)))
        return report, objective, trace[-1]
    return run


def _build_custom_cell(cfg: ExperimentConfig, algorithm: str, params: dict,
                       seed: int, unsafe: bool):
    n = cfg.dims["n"]
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n)) / math.sqrt(n) + np.eye(n)
    b = rng.standard_normal(n)
    h = operators.quadratic_gradient(G, b)
    spec = operators.ProblemSpec(A=operators.normal_cone_box(-np.ones(n), np.ones(n)),
                                 B1=h, B2=None,
                                 X=operators.ClosedConvexSet.whole_space(),
                                 dimension=n)
    step = _constant_step(algorithm, params["delta"], spec, unsafe)
    check_step(spec, step, algorithm)
    solve = {"fbhf": solve_fbhf, "tseng": solve_tseng_fbf}.get(algorithm)

    def run():
        report = (solve(spec, step, cfg.solve_config()) if solve else
                  solve_forward_backward(spec, step.gamma, cfg.solve_config()))
        return report, h.value(report.z), None
    return run


RUNNERS = {"lin-ineq": _build_nlp_cell, "entropy": _build_nlp_cell, "erm": _build_erm_cell,
           "distributed": _build_distributed_cell, "custom": _build_custom_cell}


def _fmt(value) -> str:
    return "" if value is None else repr(float(value))


def _run_cell(cell: SolverCell, params: dict, seed: int, built) -> dict:
    """One report.csv row from a ``_build_runs`` entry; a cell whose build or
    solve raises is recorded as an error row with the same solver,
    params-json and seed."""
    row = {"solver": cell.name, "params-json": json.dumps(params, sort_keys=True),
           "seed": seed}
    failure = built if isinstance(built, _Failure) else None
    if failure is None:
        try:
            report, objective, constraint = built()
        except Exception as exc:  # record the failure, keep the run going
            failure = _Failure.of(exc)
    if failure is not None:
        sys.stderr.write(f"{cell.name}, {seed}, {failure.kind}: {failure.message}\n")
        return {**row, **ERROR_FIELDS}
    return {**row, "objective": _fmt(objective), "max-constraint": _fmt(constraint),
            "iterations": report.iterations,
            "time-ms": f"{report.wall_time * 1000.0:.3f}",
            "b1-evals": report.b1_evals, "b2-evals": report.b2_evals,
            "resolvent-evals": report.resolvent_evals,
            "backtracks": report.backtracks, "status": report.reason}


# ---------------------------------------------------------------------------
# run + reporting


def run_experiment(cfg: ExperimentConfig, out_dir,
                   unsafe_stepsize: bool = False) -> int:
    """Execute every (solver cell, variant, seed), building one instance at
    a time, and write report.csv and summary.md under out_dir.  Returns the
    process exit code."""
    return _write_runs(_build_runs(cfg, unsafe_stepsize), out_dir)


def _write_runs(runs: Iterable[tuple], out_dir) -> int:
    """Solve each ``_build_runs`` entry once, in order, and write report.csv
    and summary.md under out_dir.  Returns the process exit code."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = [_run_cell(*run) for run in runs]

    csv_path = out / "report.csv"
    with csv_path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    write_summary(csv_path, out / "summary.md")
    return 2 if any(r["status"] == "error" for r in rows) else 0


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

[solver tseng]

[solver condat-vu]
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

[solver fb]

[solver tseng]
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

    p_demo = sub.add_parser("demo", help="write and run a canned config")
    p_demo.add_argument("kind", choices=sorted(DEMO_CONFIGS))
    p_demo.add_argument("--out", default=None)
    p_demo.set_defaults(unsafe_stepsize=False)

    args = parser.parse_args(argv)

    if args.command == "demo":
        out = Path(args.out or f"splitmono-demo-{args.kind}")
        out.mkdir(parents=True, exist_ok=True)
        config = out / "config.ini"
        config.write_text(DEMO_CONFIGS[args.kind])
    else:
        config = args.config
    try:
        cfg = load_config(config)
        if args.command == "run" and args.seeds is not None:
            cfg.seeds = _parse_ints(args.seeds)
    except ConfigError as exc:
        diags = [str(exc)]
    except ValueError as exc:
        diags = [f"seed override: {exc}"]
    else:  # checked on the seeds the run executes
        if args.command == "validate":
            diags = check_config(cfg, args.unsafe_stepsize)
        else:  # the run solves the instances its check built
            diags = []
            runs = list(_checked_runs(cfg, args.unsafe_stepsize, diags))
    if diags:
        for d in diags:
            print(f"invalid: {d}", file=sys.stderr)
        return 1

    if args.command == "validate":
        print(f"config ok: kind={cfg.kind}, {len(cfg.cells)} solver cell(s), "
              f"{len(cfg.seeds)} seed(s)")
        return 0
    if args.command == "run":
        out = Path(args.out)
        code = _write_runs(runs, out)
        print(f"wrote {out / 'report.csv'} and {out / 'summary.md'}")
        return code
    code = _write_runs(runs, out)
    print(f"demo '{args.kind}' wrote {out / 'report.csv'} and {out / 'summary.md'}")
    return code


if __name__ == "__main__":
    sys.exit(main())
