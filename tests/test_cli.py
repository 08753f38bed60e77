import csv
import io
import json
import re

import pytest

from splitmono import cli
from splitmono.cli import (CSV_COLUMNS, DEMO_CONFIGS, main, run_experiment,
                           validate_config)


LIN_INEQ_SMALL = """\
[experiment]
kind = lin-ineq
n = 20
p = 2
seeds = 0
tolerance = 1e-6
max_iterations = 100000

[solver fbhf]
delta = 3.99

[solver tseng]
delta = 0.99
"""

CUSTOM_BEYOND_BOUND = """\
[experiment]
kind = custom
n = 10
seeds = 0
tolerance = 1e-9
max_iterations = 300

[solver fbhf]
delta = 4.2

[solver tseng]
delta = 1.05
"""


def write(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def strip_time(csv_text: str) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(csv_text)))
    for row in rows[1:]:
        row[6] = "t"
    return rows


class TestValidate:
    def test_valid_lin_ineq(self, tmp_path):
        cfg, diags = validate_config(write(tmp_path, LIN_INEQ_SMALL))
        assert diags == []
        assert cfg.kind == "lin-ineq" and len(cfg.cells) == 2

    def test_delta_bound_rejected_without_flag(self, tmp_path):
        text = LIN_INEQ_SMALL.replace("delta = 3.99", "delta = 4.4")
        cfg, diags = validate_config(write(tmp_path, text))
        assert any("of the chi bound" in d for d in diags)
        _, diags_unsafe = validate_config(write(tmp_path, text),
                                          unsafe_stepsize=True)
        assert diags_unsafe == []

    def test_erm_sigma_bound_rejected_with_both_sides(self, tmp_path):
        text = """\
[experiment]
kind = erm
d = 4
m = 9
seeds = 0
tolerance = 1e-6
max_iterations = 1000

[solver erm]
sigma_factor = 1.0
"""
        cfg, diags = validate_config(write(tmp_path, text))
        assert any("lhs = " in d and "1/max(sigma) = " in d for d in diags)

    def test_parse_error_reported(self, tmp_path):
        _, diags = validate_config(write(tmp_path, "not an ini file ["))
        assert diags and "parse error" in diags[0]

    def test_unknown_kind(self, tmp_path):
        text = LIN_INEQ_SMALL.replace("kind = lin-ineq", "kind = nonsense")
        _, diags = validate_config(write(tmp_path, text))
        assert any("unknown experiment kind" in d for d in diags)

    def test_missing_field(self, tmp_path):
        text = LIN_INEQ_SMALL.replace("p = 2\n", "")
        _, diags = validate_config(write(tmp_path, text))
        assert any("'p'" in d for d in diags)

    def test_odd_n_rejected_only_where_the_instance_needs_it(self, tmp_path):
        # lin-ineq and entropy draw an (n/2) x n matrix; custom an n x n one
        text = LIN_INEQ_SMALL.replace("n = 20", "n = 21")
        _, diags = validate_config(write(tmp_path, text))
        assert any("N must be even" in d for d in diags)
        text = LIN_INEQ_SMALL.replace("kind = lin-ineq", "kind = custom").replace(
            "n = 20", "n = 41").replace("p = 2\n", "").replace(
            "tolerance = 1e-6", "tolerance = 1e-9")
        cfg, diags = validate_config(write(tmp_path, text))
        assert diags == []
        assert run_experiment(cfg, tmp_path / "out") == 0
        with (tmp_path / "out" / "report.csv").open(newline="") as fh:
            recs = {r["solver"]: r for r in csv.DictReader(fh)}
        assert recs["fbhf"]["status"] == "tolerance"

    def test_erm_sigma_within_the_margin_rejected(self, tmp_path):
        # passes a bare lhs < rhs, fails solve_erm_incremental's margin rule
        text = """\
[experiment]
kind = erm
d = 4
m = 9
seeds = 0
tolerance = 1e-6
max_iterations = 1000

[solver erm]
sigma_factor = 0.99999999999999
"""
        _, diags = validate_config(write(tmp_path, text))
        assert any("ERM stepsize condition" in d for d in diags)

    def test_unsafe_stepsize_covers_custom_fbhf_and_tseng(self, tmp_path):
        path = write(tmp_path, CUSTOM_BEYOND_BOUND)
        _, diags = validate_config(path)
        assert len(diags) == 2
        cfg, diags = validate_config(path, unsafe_stepsize=True)
        assert diags == []
        assert run_experiment(cfg, tmp_path / "out", unsafe_stepsize=True) == 0
        with (tmp_path / "out" / "report.csv").open(newline="") as fh:
            statuses = {r["solver"]: r["status"] for r in csv.DictReader(fh)}
        assert set(statuses) == {"fbhf", "tseng"}
        assert "error" not in statuses.values()

    def test_unsafe_stepsize_does_not_cover_fb(self, tmp_path):
        text = CUSTOM_BEYOND_BOUND.replace("[solver tseng]\ndelta = 1.05\n",
                                           "[solver fb]\ndelta = 4.2\n")
        _, diags = validate_config(write(tmp_path, text), unsafe_stepsize=True)
        assert len(diags) == 1
        assert "'fb'" in diags[0] and "outside the open interval" in diags[0]

    def test_line_search_ranges_come_from_line_search(self, tmp_path):
        text = LIN_INEQ_SMALL + "\n[solver fbhf-ls]\nepsilon = 1.5\n"
        _, diags = validate_config(write(tmp_path, text))
        assert diags == ["solver cell 'fbhf-ls' {\"epsilon\": 1.5}, seed 0: "
                         "epsilon = 1.5 must lie in ]0, 1["]

    def test_defaults_resolved_at_load(self, tmp_path):
        text = LIN_INEQ_SMALL.replace("delta = 3.99\n", "") + "\n[solver fbhf-ls]\n"
        cfg, diags = validate_config(write(tmp_path, text))
        assert diags == []
        params = {cell.name: cell.params for cell in cfg.cells}
        # line-search cells list only the keys given
        assert params == {"fbhf": {"delta": 3.99}, "tseng": {"delta": 0.99},
                          "fbhf-ls": {}}

    @pytest.mark.parametrize("config, algorithm, key, allowed", [
        (CUSTOM_BEYOND_BOUND, "fbhf", "detla", "delta"),
        (LIN_INEQ_SMALL, "fbhf-ls", "sigam", "epsilon, sigma, theta"),
        (DEMO_CONFIGS["distributed"], "consensus", "gama", "gamma, tau"),
    ])
    def test_unknown_solver_key_rejected(self, tmp_path, config, algorithm, key, allowed):
        # a misspelt key would otherwise leave its parameter at the default
        text = config + f"\n[solver typo]\nalgorithm = {algorithm}\n{key} = 1.0\n"
        _, diags = validate_config(write(tmp_path, text))
        assert diags == [f"[solver typo] unknown field '{key}' for {algorithm} "
                         f"(allowed: {allowed})"]

    @pytest.mark.parametrize("config, cell, unsafe, diag", [
        # validated, then ran at gamma = inf and wrote {"delta": Infinity}
        (CUSTOM_BEYOND_BOUND, "algorithm = fbhf\ndelta = inf", True,
         "[solver typo] field 'delta': 'inf' is not a finite number"),
        # validated, then every run row was an error
        (DEMO_CONFIGS["distributed"], "algorithm = consensus\ngamma = nan", False,
         "[solver typo] field 'gamma': 'nan' is not a finite number"),
        # every solve stopped after one iteration as converged
        (LIN_INEQ_SMALL.replace("tolerance = 1e-6", "tolerance = inf"), "algorithm = fbhf",
         False, "bad field value in [experiment]: 'inf' is not a finite number"),
    ], ids=["fbhf-delta-inf", "consensus-gamma-nan", "tolerance-inf"])
    def test_non_finite_value_rejected(self, tmp_path, config, cell, unsafe, diag):
        text = config + f"\n[solver typo]\n{cell}\n"
        _, diags = validate_config(write(tmp_path, text), unsafe_stepsize=unsafe)
        assert diags == [diag]

    def test_empty_r_fractions_rejected(self, tmp_path):
        text = """\
[experiment]
kind = entropy
n = 8
seeds = 0
tolerance = 1e-6
max_iterations = 1000
r_fractions =

[solver fbhf-ls]
"""
        _, diags = validate_config(write(tmp_path, text))
        assert diags == ["r_fractions list is empty"]

    def test_validate_rejects_exactly_the_cells_run_errors_on(self, tmp_path, capsys):
        # custom n = 40 has 2 beta = 0.27 < 1, so the margin rule's 1e-12 in
        # gamma units is wider than 1e-12 in delta units; the grid straddles
        # each bound inside that band, seed by seed
        cells = {"fb-repro": ("fb", 3.999999999995),
                 "fbhf-repro": ("fbhf", 3.99999999999)}
        for k in range(25):
            for algorithm, limit in (("fb", 4.0), ("fbhf", 4.0), ("tseng", 1.0)):
                cells[f"{algorithm}-{k}"] = (algorithm, limit - k * 1e-12)
        text = "[experiment]\nkind = custom\nn = 40\nseeds = 0,1\ntolerance = 1e-9\n" \
               "max_iterations = 5\n" + "".join(
                   f"\n[solver {name}]\nalgorithm = {algorithm}\ndelta = {delta!r}\n"
                   for name, (algorithm, delta) in cells.items())
        cfg, diags = validate_config(write(tmp_path, text))
        assert run_experiment(cfg, tmp_path / "out") == 2
        errors = {}
        for line in capsys.readouterr().err.splitlines():
            name, seed, message = line.split(", ", 2)
            errors[(name, seed)] = message.removeprefix("ConfigurationError: ")
        assert {re.match(r"solver cell '([^']+)'", d)[1] for d in diags} == {
            name for name, _ in errors}
        # per seed, with the message the run gives
        rejected = {}
        for d in diags:
            name, seed, message = re.fullmatch(r"solver cell '(.+)' \{.*\}, seed (\d+): (.*)",
                                               d).groups()
            rejected[(name, seed)] = message
        assert rejected == errors
        with (tmp_path / "out" / "report.csv").open(newline="") as fh:
            statuses = {(r["solver"], r["seed"]): r["status"] for r in csv.DictReader(fh)}
        assert {key for key, status in statuses.items() if status == "error"} == set(errors)
        # both reproducers are rejected, and every bound has cells on both sides
        assert {("fb-repro", "0"), ("fbhf-repro", "0")} <= set(errors)
        for algorithm in ("fb", "fbhf", "tseng"):
            verdicts = {key in errors for key in statuses if key[0].startswith(f"{algorithm}-")
                        and not key[0].endswith("repro")}
            assert verdicts == {True, False}

    @pytest.mark.parametrize("kind", sorted(DEMO_CONFIGS))
    def test_demo_configs_are_valid(self, tmp_path, kind):
        cfg, diags = validate_config(write(tmp_path, DEMO_CONFIGS[kind]))
        assert diags == []
        assert cfg.kind == kind

    def test_incompatible_solver_for_kind(self, tmp_path):
        text = LIN_INEQ_SMALL + "\n[solver erm]\n"
        _, diags = validate_config(write(tmp_path, text))
        assert any("not usable for kind" in d for d in diags)


class TestRun:
    def test_row_count_and_header(self, tmp_path):
        cfg, diags = validate_config(write(tmp_path, LIN_INEQ_SMALL))
        assert not diags
        code = run_experiment(cfg, tmp_path / "out")
        assert code == 0
        rows = (tmp_path / "out" / "report.csv").read_text().strip().split("\n")
        assert rows[0] == ",".join(CSV_COLUMNS)
        assert len(rows) == 3   # header + 2 solver cells x 1 seed

    def test_determinism_modulo_time(self, tmp_path):
        cfg, _ = validate_config(write(tmp_path, LIN_INEQ_SMALL))
        run_experiment(cfg, tmp_path / "a")
        run_experiment(cfg, tmp_path / "b")
        a = strip_time((tmp_path / "a" / "report.csv").read_text())
        b = strip_time((tmp_path / "b" / "report.csv").read_text())
        assert a == b

    def test_condat_vu_objective_matches_fbhf(self, tmp_path):
        # reduced-scale head-to-head between the main solver and the
        # primal-dual baseline on the same generated instance
        text = LIN_INEQ_SMALL + "\n[solver condat-vu]\nsigma_bar = 0.0008\n"
        cfg, diags = validate_config(write(tmp_path, text))
        assert not diags
        cfg.tolerance = 1e-8
        run_experiment(cfg, tmp_path / "out")
        with (tmp_path / "out" / "report.csv").open(newline="") as fh:
            recs = {r["solver"]: r for r in csv.DictReader(fh)}
        of = float(recs["fbhf"]["objective"])
        oc = float(recs["condat-vu"]["objective"])
        assert abs(of - oc) <= 1e-3 * max(1.0, abs(of))

    def test_counter_contracts_in_rows(self, tmp_path):
        cfg, _ = validate_config(write(tmp_path, LIN_INEQ_SMALL))
        run_experiment(cfg, tmp_path / "out")
        with (tmp_path / "out" / "report.csv").open(newline="") as fh:
            recs = {r["solver"]: r for r in csv.DictReader(fh)}
        fbhf = recs["fbhf"]
        assert int(fbhf["b1-evals"]) == int(fbhf["iterations"])
        tseng = recs["tseng"]
        assert int(tseng["b1-evals"]) == 2 * int(tseng["iterations"])

    def test_entropy_grid_row_count(self, tmp_path):
        text = """\
[experiment]
kind = entropy
n = 8
seeds = 0,1,2
tolerance = 1e-6
max_iterations = 100000
r_fractions = -0.2,-0.4,-0.6,-0.8

[solver fbhf-ls]

[solver tseng-ls]
"""
        cfg, diags = validate_config(write(tmp_path, text))
        assert not diags
        code = run_experiment(cfg, tmp_path / "out")
        assert code == 0
        with (tmp_path / "out" / "report.csv").open(newline="") as fh:
            recs = list(csv.DictReader(fh))
        assert len(recs) == 24   # 2 solvers x 4 fractions x 3 seeds
        params = {r["params-json"] for r in recs if r["solver"] == "fbhf-ls"}
        assert len(params) == 4  # one parameter cell per r value

    def test_summary_means_match_recomputation(self, tmp_path):
        cfg, _ = validate_config(write(tmp_path, LIN_INEQ_SMALL.replace(
            "seeds = 0", "seeds = 0,1")))
        run_experiment(cfg, tmp_path / "out")
        csv_path = tmp_path / "out" / "report.csv"
        with csv_path.open(newline="") as fh:
            recs = list(csv.DictReader(fh))
        by_cell = {}
        for r in recs:
            by_cell.setdefault((r["solver"], r["params-json"]), []).append(
                float(r["iterations"]))
        md = (tmp_path / "out" / "summary.md").read_text()
        for (solver, _), iters in by_cell.items():
            mean = f"{sum(iters) / len(iters):.6g}"
            row = next(line for line in md.split("\n")
                       if line.startswith(f"| {solver} "))
            assert f" {mean} " in row

    def test_error_cell_recorded_and_exit_two(self, tmp_path, capsys):
        text = """\
[experiment]
kind = distributed
agents = 4
block = 1
graphs = fixed
seeds = 0
tolerance = 1e-8
max_iterations = 10000

[solver consensus]

[solver broken]
algorithm = consensus
gamma = 5.0
tau = 5.0
"""
        cfg, diags = validate_config(write(tmp_path, text))
        assert not diags
        code = run_experiment(cfg, tmp_path / "out")
        assert code == 2
        with (tmp_path / "out" / "report.csv").open(newline="") as fh:
            recs = {r["solver"]: r for r in csv.DictReader(fh)}
        assert recs["consensus"]["status"] == "tolerance"
        assert recs["broken"]["status"] == "error"
        assert len(recs["broken"]) == len(CSV_COLUMNS)
        # an error row lists the same resolved parameters as a solved one
        assert json.loads(recs["broken"]["params-json"]) == {
            "gamma": 5.0, "graphs": "fixed", "tau": 5.0}
        assert json.loads(recs["consensus"]["params-json"]).keys() == {
            "gamma", "graphs", "tau"}
        # the failed cell says why on stderr: solver, seed, exception
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("broken, 0, ConfigurationError: round 0: "
                                 "stepsize condition violated")

    def test_seed_override_via_main(self, tmp_path, capsys):
        path = write(tmp_path, LIN_INEQ_SMALL)
        code = main(["run", str(path), "--out", str(tmp_path / "out"),
                     "--seeds", "3,4"])
        assert code == 0
        with (tmp_path / "out" / "report.csv").open(newline="") as fh:
            seeds = {r["seed"] for r in csv.DictReader(fh)}
        assert seeds == {"3", "4"}


    def test_seed_override_is_validated_on_the_seeds_it_runs(self, tmp_path,
                                                              monkeypatch):
        built = []
        build = cli.RUNNERS["lin-ineq"]

        def recording(cfg, algorithm, params, seed, unsafe):
            built.append((algorithm, json.dumps(params, sort_keys=True), seed))
            return build(cfg, algorithm, params, seed, unsafe)

        monkeypatch.setitem(cli.RUNNERS, "lin-ineq", recording)
        path = write(tmp_path, LIN_INEQ_SMALL)
        assert main(["run", str(path), "--out", str(tmp_path / "out"),
                     "--seeds", "3,4"]) == 0
        # every triple is built once, to validate it; the run reuses the build
        assert len(built) == 4 == len(set(built))
        assert {seed for *_, seed in built} == {3, 4}

    def test_run_experiment_builds_one_instance_at_a_time(self, tmp_path, monkeypatch):
        # without a check before it, each instance is built right before its
        # solve, so the grid is never held at once
        events = []
        build = cli.RUNNERS["lin-ineq"]

        def recording(cfg, algorithm, params, seed, unsafe):
            events.append(("build", seed))
            run = build(cfg, algorithm, params, seed, unsafe)
            return lambda: events.append(("solve", seed)) or run()

        monkeypatch.setitem(cli.RUNNERS, "lin-ineq", recording)
        cfg, diags = validate_config(write(tmp_path, LIN_INEQ_SMALL))
        assert not diags
        events.clear()
        assert run_experiment(cfg, tmp_path / "out") == 0
        seeds = [seed for _ in cfg.cells for seed in cfg.seeds]
        assert events == [(kind, seed) for seed in seeds for kind in ("build", "solve")]

    def test_demo_builds_each_instance_once(self, tmp_path, monkeypatch):
        # the check builds every (cell, seed) instance and the run solves
        # those builds: 3 cells x 2 seeds, not twice that
        calls = []
        gen = cli.applications.gen_lin_ineq_qp
        monkeypatch.setattr(cli.applications, "gen_lin_ineq_qp",
                            lambda *args: calls.append(args) or gen(*args))
        monkeypatch.setitem(DEMO_CONFIGS, "lin-ineq", DEMO_CONFIGS["lin-ineq"].replace(
            "max_iterations = 100000", "max_iterations = 3"))
        out = tmp_path / "demo"
        assert main(["demo", "lin-ineq", "--out", str(out)]) == 0
        assert sorted(calls) == [(200, 20, 0)] * 3 + [(200, 20, 1)] * 3
        with (out / "report.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_COLUMNS and len(rows) == 7
        assert all(len(row) == 12 for row in rows)


class TestMain:
    def test_malformed_seed_override_is_a_config_error(self, tmp_path, capsys):
        path = write(tmp_path, LIN_INEQ_SMALL)
        assert main(["run", str(path), "--out", str(tmp_path / "out"),
                     "--seeds", "a,b"]) == 1
        assert capsys.readouterr().err.startswith("invalid: seed override")
        assert not (tmp_path / "out").exists()

    def test_validate_exit_codes(self, tmp_path, capsys):
        good = write(tmp_path, LIN_INEQ_SMALL, "good.ini")
        assert main(["validate", str(good)]) == 0
        bad = write(tmp_path, LIN_INEQ_SMALL.replace("delta = 3.99",
                                                     "delta = 9"), "bad.ini")
        assert main(["validate", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "delta" in err

    def test_run_with_invalid_config_exits_one(self, tmp_path):
        bad = write(tmp_path, "[experiment]\nkind = lin-ineq\n")
        assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 1

    def test_demo_custom(self, tmp_path):
        out = tmp_path / "demo"
        code = main(["demo", "custom", "--out", str(out)])
        assert code == 0
        assert (out / "report.csv").exists()
        assert (out / "summary.md").exists()

    def test_demo_erm(self, tmp_path):
        out = tmp_path / "demo-erm"
        code = main(["demo", "erm", "--out", str(out)])
        assert code == 0
        with (out / "report.csv").open(newline="") as fh:
            recs = list(csv.DictReader(fh))
        assert all(r["status"] != "error" for r in recs)

    def test_unsafe_stepsize_end_to_end(self, tmp_path):
        text = LIN_INEQ_SMALL.replace("delta = 3.99", "delta = 4.2")
        path = write(tmp_path, text)
        assert main(["validate", str(path)]) == 1
        assert main(["validate", str(path), "--unsafe-stepsize"]) == 0
        code = main(["run", str(path), "--out", str(tmp_path / "out"),
                     "--unsafe-stepsize"])
        assert code == 0
        with (tmp_path / "out" / "report.csv").open(newline="") as fh:
            recs = {r["solver"]: r for r in csv.DictReader(fh)}
        # beyond the guaranteed range the run still executes; it either
        # converges (as observed at this scale) or stops at max_iter
        assert recs["fbhf"]["status"] in ("tolerance", "max_iter")
