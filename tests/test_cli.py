import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import annulus_nematics
from annulus_nematics.cli import fmt17, load_field_csv, main, read_table
from annulus_nematics.of_strong import delta_n

DATA = Path(__file__).parent / "data"
SRC = Path(annulus_nematics.__file__).resolve().parents[1]


@pytest.fixture()
def runner():
    return CliRunner()


class TestStabilityStrong:
    def test_table_matches_closed_form(self, runner, tmp_path):
        out = tmp_path / "ss.csv"
        res = runner.invoke(main, ["stability-strong", "--b-min", "0.05",
                                   "--b-max", "0.95", "--steps", "200",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        _, cols, data = read_table(str(out))
        assert cols == ["b", "delta1"]
        assert data.shape == (200, 2)
        for b, d in data:
            assert d == delta_n(b, 1)

    def test_golden_svg(self, runner, tmp_path):
        out = tmp_path / "ss.csv"
        svg = tmp_path / "ss.svg"
        res = runner.invoke(main, ["stability-strong", "--b-min", "0.1",
                                   "--b-max", "0.9", "--steps", "9",
                                   "--out", str(out), "--svg", str(svg)])
        assert res.exit_code == 0, res.output
        golden = (DATA / "golden_stability_strong.svg").read_bytes()
        assert svg.read_bytes() == golden

    def test_svg_deterministic(self, runner, tmp_path):
        paths = []
        for name in ("a.svg", "b.svg"):
            svg = tmp_path / name
            runner.invoke(main, ["stability-strong", "--steps", "12",
                                 "--out", str(tmp_path / "t.csv"),
                                 "--svg", str(svg)])
            paths.append(svg.read_bytes())
        assert paths[0] == paths[1]


class TestStabilityWeak:
    def test_per_order_files_and_termination(self, runner, tmp_path):
        prefix = str(tmp_path / "sw")
        svg = tmp_path / "sw.svg"
        res = runner.invoke(main, ["stability-weak", "--b", "0.5",
                                   "--k", "0,1,2,3", "--alpha-min", "0.05",
                                   "--alpha-max", "3", "--steps", "40",
                                   "--out-prefix", prefix, "--svg", str(svg)])
        assert res.exit_code == 0, res.output
        assert svg.exists()
        for k in (0, 1, 2, 3):
            _, cols, data = read_table(f"{prefix}_k{k}.csv")
            assert cols == ["x", "y", "k"]
            if k >= 1:
                # azimuthal perturbation curves end at alpha = 1
                assert np.all(data[:, 1] < 1.0)
            assert np.all((0 < data[:, 0]) & (data[:, 0] < 1))

    @pytest.mark.parametrize("args", [["--steps", "0"],
                                      ["--alpha-min", "nan"],
                                      ["--alpha-max", "inf"]],
                             ids=["no_steps", "nan_alpha", "inf_alpha"])
    def test_bad_input_is_config_error(self, runner, tmp_path, args):
        prefix = str(tmp_path / "sw")
        res = runner.invoke(main, ["stability-weak", "--b", "0.5", "--k", "1",
                                   *args, "--out-prefix", prefix])
        assert res.exit_code == 2, res.output
        assert not (tmp_path / "sw_k1.csv").exists()

    def test_overflowing_alpha_squares(self, runner, tmp_path):
        # alpha ** 2 overflows above 1.3e154; k=0 reaches the strong limit
        prefix = str(tmp_path / "sw")
        res = runner.invoke(main, ["stability-weak", "--b", "1e-9", "--k", "0,1",
                                   "--alpha-min", "1e9", "--alpha-max", "1e300",
                                   "--steps", "5", "--out-prefix", prefix])
        assert res.exit_code == 0, res.output
        _, _, data = read_table(f"{prefix}_k0.csv")
        assert data.shape == (5, 3)
        assert abs(data[-1, 0] - delta_n(1e-9, 1)) < 1e-12

    def test_svg_without_points_draws_empty_frame(self, runner, tmp_path):
        # order 3 has no critical anisotropy for alpha in [2, 3]
        prefix = str(tmp_path / "sw")
        svg = tmp_path / "sw.svg"
        res = runner.invoke(main, ["stability-weak", "--b", "0.5", "--k", "3",
                                   "--alpha-min", "2", "--alpha-max", "3",
                                   "--steps", "5", "--out-prefix", prefix,
                                   "--svg", str(svg)])
        assert res.exit_code == 0, res.output
        assert read_table(f"{prefix}_k3.csv")[2].size == 0
        text = svg.read_text()
        assert text.startswith("<svg") and "<polyline" not in text


class TestSpiral:
    def test_profile_roundtrip(self, runner, tmp_path):
        out = tmp_path / "sp.csv"
        res = runner.invoke(main, ["spiral", "--b", "0.2", "--delta", "0.95",
                                   "--n-profile", "129", "--out", str(out)])
        assert res.exit_code == 0, res.output
        comment, cols, data = read_table(str(out))
        assert cols == ["r", "value"]
        assert data[0, 0] == 0.2 and data[-1, 0] == 1.0
        assert "u_max=" in comment

    def test_subcritical_is_config_error(self, runner, tmp_path):
        res = runner.invoke(main, ["spiral", "--b", "0.5", "--delta", "0.5",
                                   "--out", str(tmp_path / "x.csv")])
        assert res.exit_code == 2

    def test_anisotropy_above_one_is_config_error(self, runner, tmp_path):
        res = runner.invoke(main, ["spiral", "--b", "0.5", "--delta", "1.5",
                                   "--out", str(tmp_path / "x.csv")])
        assert res.exit_code == 2, res.output


class TestDefectStates:
    def test_columns_and_odd_gaps(self, runner, tmp_path):
        out = tmp_path / "ds.csv"
        res = runner.invoke(main, ["defect-states", "--b", "0.5", "--n-max",
                                   "6", "--eps", "0.002", "--out", str(out)])
        assert res.exit_code == 0, res.output
        _, cols, data = read_table(str(out))
        assert cols == ["N", "E_U1", "E_U2", "E_U3", "E_D"]
        odd = data[data[:, 0] % 2 == 1]
        assert np.all(np.isnan(odd[:, 3])) and np.all(np.isnan(odd[:, 4]))
        even = data[data[:, 0] % 2 == 0]
        assert np.all(np.isfinite(even[:, 1:]))

    def test_bad_eps_is_config_error(self, runner, tmp_path):
        res = runner.invoke(main, ["defect-states", "--b", "0.5", "--eps",
                                   "0.2", "--out", str(tmp_path / "x.csv")])
        assert res.exit_code == 2

    @pytest.mark.parametrize("args", [["--b", "1.5", "--eps", "0.01"],
                                      ["--b", "0.5", "--n-max", "0"],
                                      ["--b", "0.5", "--k3", "-1"],
                                      ["--b", "0.5", "--k3", "0"]])
    def test_out_of_domain_is_config_error(self, runner, tmp_path, args):
        out = tmp_path / "ds.csv"
        res = runner.invoke(main, ["defect-states", *args, "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert not out.exists()


class TestPdeSolve:
    def test_field_roundtrip_bit_identical(self, runner, tmp_path):
        out = tmp_path / "fld.csv"
        res = runner.invoke(main, ["pde-solve", "--b", "0.3", "--delta", "0.5",
                                   "--nr", "24", "--nphi", "20",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        fld = load_field_csv(str(out))
        assert fld.grid.periodic
        _, pp = fld.grid.mesh()
        assert np.array_equal(fld.theta, pp + 0.5 * math.pi)

    def test_report_on_stderr(self, runner, tmp_path):
        out = tmp_path / "fld.csv"
        res = runner.invoke(main, ["pde-solve", "--b", "0.3", "--delta", "0.0",
                                   "--nr", "20", "--nphi", "16",
                                   "--out", str(out)])
        assert res.exit_code == 0
        # stderr carries the JSON solve report, phase timings included
        report = json.loads(res.stderr.splitlines()[0])
        assert report["converged"] and report["iterations"] == 0
        for key in ("assemble_s", "linear_solve_s", "line_search_s"):
            assert report[key] >= 0.0

    @pytest.mark.parametrize("args", [
        ["--delta", "0.995"],
        ["--nr", "8"],
        ["--alpha", "-1"],
        ["--sector-n", "2", "--alpha", "1"],
        ["--sector-n", "0"],
        ["--pin-eps", "0.1"],
        ["--sector-n", "2", "--pin-eps", "-0.1"],
        ["--sector-n", "2", "--pin-eps", "0"],
    ], ids=["singular_anisotropy", "coarse_grid", "negative_alpha",
            "alpha_on_sector", "zero_sectors", "pin_on_annulus",
            "negative_pin", "zero_pin"])
    def test_bad_input_is_config_error(self, runner, tmp_path, args):
        out = tmp_path / "fld.csv"
        res = runner.invoke(main, ["pde-solve", "--b", "0.3", "--delta", "0.5",
                                   "--nr", "24", "--nphi", "20", *args,
                                   "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert not out.exists()

    def test_unwritable_out_is_config_error(self, runner, tmp_path):
        res = runner.invoke(main, ["pde-solve", "--b", "0.3", "--delta", "0.0",
                                   "--nr", "20", "--nphi", "16",
                                   "--out", str(tmp_path / "missing" / "f.csv")])
        assert res.exit_code == 2, res.output

    def test_core_radius_overflow(self, runner, tmp_path):
        # eps / b = 1e300 squared overflows: every node lies inside a core
        out = tmp_path / "fld.csv"
        res = runner.invoke(main, ["pde-solve", "--b", "1e-300", "--delta", "0.99",
                                   "--nr", "17", "--nphi", "17",
                                   "--sector-n", "7", "--pin-eps", "1",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert json.loads(res.stderr.splitlines()[0])["iterations"] == 0

    def test_sector_solve(self, runner, tmp_path):
        out = tmp_path / "fld.csv"
        res = runner.invoke(main, ["pde-solve", "--b", "0.4", "--delta", "0.0",
                                   "--nr", "33", "--nphi", "33",
                                   "--sector-n", "4", "--state", "U2",
                                   "--pin-eps", "0.1", "--out", str(out)])
        assert res.exit_code == 0, res.output
        fld = load_field_csv(str(out))
        assert not fld.grid.periodic


class TestBifurcation:
    def test_scan_brackets_critical(self, runner, tmp_path):
        out = tmp_path / "bf.csv"
        b = 0.2
        d1 = delta_n(b, 1)
        res = runner.invoke(main, ["bifurcation", "--b", str(b),
                                   "--delta-min", str(d1 - 0.01),
                                   "--delta-max", str(d1 + 0.02),
                                   "--steps", "4", "--nr", "129",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        _, cols, data = read_table(str(out))
        assert cols == ["x", "y", "k"]
        assert data[0, 1] < 1e-6
        assert data[-1, 1] > 0.05

    @pytest.mark.parametrize("args", [
        ["--delta-min", "0.9", "--delta-max", "1.2", "--nr", "33"],
        ["--delta-min", "0.1", "--delta-max", "0.2", "--nr", "8"],
        ["--delta-min", "0.1", "--delta-max", "0.2", "--nr", "33", "--steps", "0"],
    ], ids=["singular_range", "coarse_grid", "no_steps"])
    def test_bad_input_is_config_error(self, runner, tmp_path, args):
        out = tmp_path / "bf.csv"
        res = runner.invoke(main, ["bifurcation", "--b", "0.2", "--steps", "4",
                                   *args, "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert not out.exists()

    def test_unwritable_out_is_config_error(self, runner, tmp_path):
        res = runner.invoke(main, ["bifurcation", "--b", "0.2",
                                   "--delta-min", "0.1", "--delta-max", "0.2",
                                   "--steps", "2", "--nr", "33",
                                   "--out", str(tmp_path / "missing" / "bf.csv")])
        assert res.exit_code == 2, res.output


class TestLdgCommands:
    def test_profile_values(self, runner, tmp_path):
        out = tmp_path / "lp.csv"
        res = runner.invoke(main, ["ldg-profile", "--b", "0.5", "--t", "0",
                                   "--n-nodes", "201", "--out", str(out)])
        assert res.exit_code == 0, res.output
        comment, cols, data = read_table(str(out))
        assert cols == ["r", "value"]
        assert abs(data[0, 1] - 1 / math.sqrt(2)) < 1e-12
        assert "energy=" in comment

    def test_too_few_profile_nodes_is_config_error(self, runner, tmp_path):
        out = tmp_path / "lp.csv"
        res = runner.invoke(main, ["ldg-profile", "--b", "0.5", "--t", "1",
                                   "--n-nodes", "2", "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert not out.exists()

    def test_stability_table(self, runner, tmp_path):
        out = tmp_path / "ls.csv"
        res = runner.invoke(main, ["ldg-stability", "--b", "0.5", "--t", "40",
                                   "--n", "0,1,2", "--n-nodes", "201",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        _, cols, data = read_table(str(out))
        assert cols == ["n", "min_eig"]
        assert np.all(data[:, 1] > 0)

    def test_negative_block_is_config_error(self, runner, tmp_path):
        out = tmp_path / "ls.csv"
        res = runner.invoke(main, ["ldg-stability", "--b", "0.5", "--t", "40",
                                   "--n", "0,-2", "--n-nodes", "201",
                                   "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert not out.exists()

    def test_too_few_nodes_is_config_error(self, runner, tmp_path):
        res = runner.invoke(main, ["ldg-stability", "--b", "0.5", "--t", "40",
                                   "--n-nodes", "2",
                                   "--out", str(tmp_path / "ls.csv")])
        assert res.exit_code == 2, res.output

    def test_solver_failure_exit_code(self, runner, tmp_path):
        # a 1/sqrt(t) boundary layer far below the grid spacing defeats
        # Newton: reported as a solver failure
        res = runner.invoke(main, ["ldg-profile", "--b", "0.5", "--t", "1e9",
                                   "--out", str(tmp_path / "x.csv")])
        assert res.exit_code == 3

    def test_infinite_t_is_config_error(self, runner, tmp_path):
        out = tmp_path / "lp.csv"
        res = runner.invoke(main, ["ldg-profile", "--b", "0.5", "--t", "inf",
                                   "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert not out.exists()

    def test_overflowing_t_is_solver_failure(self, runner, tmp_path):
        # t e^{2x} y (2y^2 - 1) overflows: a non-finite Newton system
        out = tmp_path / "lp.csv"
        res = runner.invoke(main, ["ldg-profile", "--b", "0.5", "--t", "1e308",
                                   "--out", str(out)])
        assert res.exit_code == 3, res.output
        # no numpy warning ahead of the JSON line
        (line,) = res.stderr.splitlines()
        assert "error" in json.loads(line)
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["ldg-profile", "--n-nodes", "50"],
        ["ldg-stability", "--n", "0", "--n-nodes", "16"],
    ], ids=["profile", "stability"])
    def test_profile_outside_maximum_principle_is_solver_failure(
            self, runner, tmp_path, args):
        out = tmp_path / "x.csv"
        res = runner.invoke(main, [*args, "--b", "1e-9", "--t", "1e300",
                                   "--out", str(out)])
        assert res.exit_code == 3, res.output
        (line,) = res.stderr.splitlines()
        assert "maximum principle" in json.loads(line)["error"]
        assert not out.exists()

    def test_linear_profile_stops_at_round_off_floor(self, runner, tmp_path):
        # at t=0 the initial guess is the exact profile; its second-difference
        # residual sits at the rounding floor, above the plain tolerance
        out = tmp_path / "lp.csv"
        res = runner.invoke(main, ["ldg-profile", "--b", "0.9", "--t", "0",
                                   "--kind", "s", "--n-nodes", "1601",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        _, _, data = read_table(str(out))
        assert data.shape == (1601, 2)


class TestDeterminism:
    def test_solver_backed_output_is_reproducible(self, runner, tmp_path):
        b = 0.2
        d1 = delta_n(b, 1)
        blobs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            res = runner.invoke(main, ["bifurcation", "--b", str(b),
                                       "--delta-min", str(d1 + 0.005),
                                       "--delta-max", str(d1 + 0.02),
                                       "--steps", "2", "--nr", "97",
                                       "--out", str(out)])
            assert res.exit_code == 0, res.output
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_weak_anchoring_annulus_solve(self, runner, tmp_path):
        out = tmp_path / "fld.csv"
        res = runner.invoke(main, ["pde-solve", "--b", "0.3", "--delta", "0.5",
                                   "--nr", "24", "--nphi", "20",
                                   "--alpha", "0.7", "--out", str(out)])
        assert res.exit_code == 0, res.output
        fld = load_field_csv(str(out))
        _, pp = fld.grid.mesh()
        assert np.array_equal(fld.theta, pp + 0.5 * math.pi)

    def test_bad_order_list_is_config_error(self, runner, tmp_path):
        res = runner.invoke(main, ["stability-weak", "--b", "0.5",
                                   "--k", "0,x", "--out-prefix",
                                   str(tmp_path / "sw")])
        assert res.exit_code == 2

    def test_negative_order_is_config_error(self, runner, tmp_path):
        res = runner.invoke(main, ["stability-weak", "--b", "0.5",
                                   "--k", "-1", "--out-prefix",
                                   str(tmp_path / "sw")])
        assert res.exit_code == 2, res.output
        assert not (tmp_path / "sw_k-1.csv").exists()


class TestConfigHandling:
    def test_config_supplies_defaults_flags_override(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, "b_min": 0.2,
                                   "b_max": 0.8, "steps": 5}))
        out = tmp_path / "ss.csv"
        res = runner.invoke(main, ["stability-strong", "--config", str(cfg),
                                   "--steps", "7", "--out", str(out)])
        assert res.exit_code == 0, res.output
        _, _, data = read_table(str(out))
        assert data.shape[0] == 7           # flag wins
        assert data[0, 0] == 0.2            # config wins over default

    @staticmethod
    def run_with_config(runner, tmp_path, command, cfg, *args):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schema_version": 1, **cfg}))
        return runner.invoke(main, [command, "--config", str(path), *args])

    def test_config_values_are_converted_like_flags(self, runner, tmp_path):
        out = tmp_path / "ss.csv"
        res = self.run_with_config(runner, tmp_path, "stability-strong",
                                   {"steps": "10", "b_min": "0.2"},
                                   "--out", str(out))
        assert res.exit_code == 0, res.output
        _, _, data = read_table(str(out))
        assert data.shape == (10, 2) and data[0, 0] == 0.2

    @pytest.mark.parametrize("command,cfg", [
        ("stability-strong", {"b_min": None}),
        ("defect-states", {"b": None}),
        ("stability-strong", {"fmt": "xml"}),
        ("stability-strong", {"steps": "ten"}),
        ("stability-strong", {"steps": 2.5}),
        ("stability-strong", {"b_max": float("nan")}),
        ("stability-strong", {"b_min": [0.1]}),
        ("stability-strong", {"svg_path": True}),
    ], ids=["null", "null_required", "bad_choice", "bad_int",
            "fractional_int", "nan", "list", "bool"])
    def test_bad_value_is_config_error(self, runner, tmp_path, command, cfg):
        out = tmp_path / "table.csv"
        res = self.run_with_config(runner, tmp_path, command, cfg,
                                   "--out", str(out))
        assert res.exit_code == 2, res.output
        assert not out.exists()

    def test_config_supplies_required_option(self, runner, tmp_path):
        out = tmp_path / "ds.csv"
        res = self.run_with_config(runner, tmp_path, "defect-states",
                                   {"b": 0.5, "n_max": 2}, "--out", str(out))
        assert res.exit_code == 0, res.output
        comment, _, data = read_table(str(out))
        assert "b=0.5 " in comment and data.shape == (2, 5)

    def test_config_and_flags_write_identical_files(self, runner, tmp_path):
        values = {"b": 0.45, "ks": "0,2", "alpha_min": 0.1, "alpha_max": 2.5,
                  "steps": 17, "fmt": "json"}
        flags = ["--b", "0.45", "--k", "0,2", "--alpha-min", "0.1",
                 "--alpha-max", "2.5", "--steps", "17", "--format", "json"]
        (tmp_path / "cfg").mkdir()
        (tmp_path / "flag").mkdir()
        res = self.run_with_config(
            runner, tmp_path, "stability-weak",
            {**values, "out_prefix": str(tmp_path / "cfg" / "sw"),
             "svg_path": str(tmp_path / "cfg" / "sw.svg")})
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, ["stability-weak", *flags, "--out-prefix",
                                   str(tmp_path / "flag" / "sw"), "--svg",
                                   str(tmp_path / "flag" / "sw.svg")])
        assert res.exit_code == 0, res.output
        names = sorted(p.name for p in (tmp_path / "cfg").iterdir())
        assert names == ["sw.svg", "sw_k0.csv", "sw_k2.csv"]
        for name in names:
            assert ((tmp_path / "cfg" / name).read_bytes()
                    == (tmp_path / "flag" / name).read_bytes())

    def test_bad_schema_version(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 99}))
        res = runner.invoke(main, ["stability-strong", "--config", str(cfg),
                                   "--out", str(tmp_path / "x.csv")])
        assert res.exit_code == 2

    def test_json_format(self, runner, tmp_path):
        out = tmp_path / "ss.json"
        res = runner.invoke(main, ["stability-strong", "--steps", "5",
                                   "--format", "json", "--out", str(out)])
        assert res.exit_code == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        assert payload["columns"] == ["b", "delta1"]
        assert len(payload["rows"]) == 5


def test_fmt17_roundtrips_doubles():
    rng = np.random.default_rng(1)
    for x in rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, 200):
        assert float(fmt17(float(x))) == float(x)


# Prints the scipy modules a fresh interpreter holds after running the CLI
# with the given arguments (after only importing it, when there are none).
_SCIPY_PROBE = """
import json, sys
from annulus_nematics.cli import main
if sys.argv[1:]:
    try:
        main(sys.argv[1:])
    except SystemExit as exc:
        assert not exc.code, exc.code
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def _scipy_probes(tmp_path, *argvs):
    """Run the probe once per argv, all at once, in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    procs = [subprocess.Popen([sys.executable, "-c", _SCIPY_PROBE, *argv],
                              cwd=tmp_path, env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for argv in argvs]
    loaded = []
    for proc in procs:
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        loaded.append(json.loads(out.splitlines()[-1]))
    return loaded


class TestStartup:
    """scipy is imported by the functions that call it, so the CLI and its
    pure-numpy commands start without paying for it."""

    def test_import_loads_no_scipy(self, tmp_path):
        assert _scipy_probes(tmp_path, []) == [[]]

    def test_pure_numpy_commands_load_no_scipy(self, tmp_path):
        loaded = _scipy_probes(
            tmp_path,
            ["stability-strong", "--steps", "5", "--out", "s.csv"],
            ["stability-weak", "--b", "0.5", "--k", "0,1,2", "--steps", "3",
             "--out-prefix", "w"],
            ["spiral", "--b", "0.2", "--delta", "0.95", "--n-profile", "65",
             "--out", "p.csv"],
            ["defect-states", "--b", "0.5", "--n-max", "2", "--out", "d.csv"])
        assert loaded == [[]] * 4
