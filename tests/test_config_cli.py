"""Config format round-trips and the CLI's CSV/exit-code contract."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pwmstab as p
from pwmstab import cli
from pwmstab.config import (
    ConverterConfig,
    PresetModelSpec,
    RawModelSpec,
    SolverSpec,
    build,
    emit_config,
    parse_config,
)
from pwmstab.errors import ConfigError

PRESET_TEXT = """\
[model]
preset = vmc_buck
L = 20e-3
C = 47e-6
R = 22.0
g = 8.4
edge = TEM

[ramp]
Vl = 3.8
Vh = 8.2
T = 400e-6

[input]
vr = 11.3
vs = 20.0
"""

RAW_TEXT = """\
[model]
edge = LEM
A1 = -1.0,0.2; 0.0,-2.0
A2 = -1.0,0.2; 0.0,-2.0
B1 = 0,0; 0,0
B2 = 0,1.0; 0,0.5
C = 1.0,0.4
D = 1.0,0.0

[ramp]
Vl = 0.0
Vh = 1.0
T = 1.0

[input]
vr = 0.2
vs = 0.6

[solver]
grid_points = 128
harmonics = 500
"""


class TestParse:
    def test_minimal_preset(self):
        cfg = parse_config(PRESET_TEXT)
        assert isinstance(cfg.model, PresetModelSpec)
        model, ramp, u, solver = build(cfg)
        assert model.edge is p.ModulationEdge.TEM
        assert ramp.T == pytest.approx(400e-6)
        assert u.vs == 20.0
        assert solver.grid_points == 256  # default

    def test_raw_matrices(self):
        cfg = parse_config(RAW_TEXT)
        assert isinstance(cfg.model, RawModelSpec)
        model, ramp, u, solver = build(cfg)
        assert model.n == 2
        assert solver.grid_points == 128
        assert solver.harmonics == 500
        assert np.allclose(model.B2, [[0, 1.0], [0, 0.5]])

    def test_dimension_error_names_matrix(self):
        bad = RAW_TEXT.replace("B1 = 0,0; 0,0", "B1 = 0,0,1; 0,0,1")
        with pytest.raises(ConfigError, match="B1"):
            parse_config(bad)

    def test_empty_file(self):
        with pytest.raises(ConfigError):
            parse_config("")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(PRESET_TEXT.replace("vs = 20.0", "vs = 20.0\nbogus = 1"))

    def test_output_rows_rejected(self, tmp_path, capsys):
        # The model has no E1/E2 output rows: a config setting them names
        # unknown keys, which the CLI reports as a config error.
        text = RAW_TEXT.replace("D = 1.0,0.0", "D = 1.0,0.0\nE1 = 1,0\nE2 = 0,1")
        with pytest.raises(ConfigError, match="unknown key: E1"):
            parse_config(text)
        assert cli.main(["steady", _write(tmp_path, text), "--quiet"]) == 2

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(PRESET_TEXT + "\n[extra]\nfoo = 1\n")

    def test_missing_section(self):
        with pytest.raises(ConfigError, match="missing section"):
            parse_config(PRESET_TEXT.split("[input]")[0])

    def test_bad_number_has_line(self):
        bad = PRESET_TEXT.replace("R = 22.0", "R = twenty-two")
        with pytest.raises(ConfigError, match="line"):
            parse_config(bad)

    def test_rejects_nonfinite_tokens(self):
        with pytest.raises(ConfigError):
            parse_config(PRESET_TEXT.replace("R = 22.0", "R = inf"))
        # A decimal that overflows to inf fails the input vector's check.
        with pytest.raises(ConfigError, match="finite"):
            parse_config(PRESET_TEXT.replace("vr = 11.3", "vr = 1e999"))

    def test_value_error_names_section_key_and_line(self):
        bad = RAW_TEXT.replace("A2 = -1.0,0.2; 0.0,-2.0", "A2 = -1.0,0.2; 0.0,x")
        with pytest.raises(ConfigError) as info:
            parse_config(bad)
        assert str(info.value) == "line 4: [model] A2: 'x' is not a decimal number"
        assert info.value.line == 4

    def test_shape_error_comes_from_the_model(self):
        bad = RAW_TEXT.replace("B1 = 0,0; 0,0", "B1 = 0,0,1; 0,0,1")
        with pytest.raises(ConfigError) as info:
            parse_config(bad)
        assert str(info.value) == "B1 must have shape (2, 2), got (2, 3)"
        with pytest.raises(ConfigError) as info:
            parse_config(RAW_TEXT.replace("C = 1.0,0.4", "C = 1.0,0.4,0"))
        assert str(info.value) == "C must have shape (1, 2), got (1, 3)"

    def test_invalid_ramp_rejected_at_parse(self):
        bad = PRESET_TEXT.replace("Vh = 8.2", "Vh = 3.8")
        with pytest.raises(ConfigError):
            parse_config(bad)

    @pytest.mark.parametrize("line", [
        "grid_points = 1", "scan_points = 4", "harmonics = -3", "harmonics = 0",
        "class_tol = -1", "class_tol = 0", "class_tol = 1e999",
        "d_tol = 0", "d_tol = -1e-15", "d_tol = 1e999",
    ])
    def test_solver_range_rejected_at_parse(self, tmp_path, capsys, line):
        # Every command refuses the value the same way, naming the key.
        key = line.split()[0]
        text = PRESET_TEXT + "\n[solver]\n" + line + "\n"
        with pytest.raises(ConfigError, match=rf"^line 19: \[solver\] {key}: must be "):
            parse_config(text)
        cfg = _write(tmp_path, text)
        for command in ("steady", "simulate", "check-equivalence"):
            assert cli.main([command, cfg, "--quiet"]) == 2
        assert capsys.readouterr().out == ""

    def test_solver_range_edges_accepted(self):
        text = PRESET_TEXT + (
            "\n[solver]\ngrid_points = 2\nscan_points = 8\nharmonics = 1\n"
            "class_tol = 1e-300\nd_tol = 1e-300\n"
        )
        assert parse_config(text).solver == SolverSpec(2, 8, 1, 1e-300, 1e-300)


class TestRoundTrip:
    def test_preset_round_trip(self):
        cfg = parse_config(PRESET_TEXT)
        assert parse_config(emit_config(cfg)) == cfg

    def test_raw_round_trip(self):
        cfg = parse_config(RAW_TEXT)
        assert parse_config(emit_config(cfg)) == cfg

    def test_awkward_floats_round_trip(self):
        cfg = ConverterConfig(
            model=PresetModelSpec("vmc_buck", L=1e-3 / 3.0, C=47.3e-6,
                                  R=0.1 + 0.2, g=8.4, edge="LEM"),
            ramp=p.RampSignal(Vl=-1.75, Vh=2.25, T=1.0 / 3.0),
            inputs=p.InputVector(vr=-11.3, vs=-24.516572828563305),
            solver=SolverSpec(d_tol=1e-16),
        )
        assert parse_config(emit_config(cfg)) == cfg


PI_BUCK_TEXT = """\
[model]
edge = TEM
A1 = 0,-50,0; 21276.595744680852,-967.1179883945841,0; 0,-1,0
A2 = 0,-50,0; 21276.595744680852,-967.1179883945841,0; 0,-1,0
B1 = 0,50; 0,0; 1,0
B2 = 0,0; 0,0; 1,0
C = 0,-2,400
D = 2,0

[ramp]
Vl = 0
Vh = 5
T = 400e-6

[input]
vr = 5
vs = 12

[solver]
scan_points = 128
d_tol = 1e-15
"""


class TestEmitGolden:
    # The canonical text is pinned: key order, number format and spacing.
    def test_preset(self):
        assert emit_config(parse_config(PRESET_TEXT)) == """\
[model]
preset = vmc_buck
L = 0.02
C = 4.7e-05
R = 22.0
g = 8.4
edge = TEM

[ramp]
Vl = 3.8
Vh = 8.2
T = 0.0004

[input]
vr = 11.3
vs = 20.0

[solver]
grid_points = 256
scan_points = 512
harmonics = 2000
class_tol = 0.0001
"""

    def test_raw_n3_with_d_tol(self):
        # Numbers are emitted as repr() of the parsed double, so the
        # 17-digit ...852 of the input comes back as its shorter twin ...853.
        assert emit_config(parse_config(PI_BUCK_TEXT)) == """\
[model]
edge = TEM
A1 = 0.0,-50.0,0.0; 21276.595744680853,-967.1179883945841,0.0; 0.0,-1.0,0.0
A2 = 0.0,-50.0,0.0; 21276.595744680853,-967.1179883945841,0.0; 0.0,-1.0,0.0
B1 = 0.0,50.0; 0.0,0.0; 1.0,0.0
B2 = 0.0,0.0; 0.0,0.0; 1.0,0.0
C = 0.0,-2.0,400.0
D = 2.0,0.0

[ramp]
Vl = 0.0
Vh = 5.0
T = 0.0004

[input]
vr = 5.0
vs = 12.0

[solver]
grid_points = 256
scan_points = 128
harmonics = 2000
class_tol = 0.0001
d_tol = 1e-15
"""


def _write(tmp_path, text, name="conv.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestCliCommands:
    def test_steady_csv(self, tmp_path, capsys):
        rc = cli.main(["steady", _write(tmp_path, PRESET_TEXT), "--quiet"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("d_seconds,duty,y_switch_volts,candidates")
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert 0.3 < float(fields[1]) < 0.7

    def test_eigs_stable_classification(self, tmp_path, capsys):
        rc = cli.main(["eigs", _write(tmp_path, PRESET_TEXT), "--quiet"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 2
        assert all(r[-1] == "Stable" for r in rows)
        assert all(float(r[-2]) < 1.0 for r in rows)

    def test_sweep_vs_self_check(self, tmp_path, capsys):
        rc = cli.main([
            "sweep-vs", _write(tmp_path, PRESET_TEXT), "--quiet",
            "--dmin", "0.1", "--dmax", "0.9", "--points", "81",
        ])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "duty,vs_critical_volts,residual_check"
        assert len(lines) == 82
        checks = [float(line.split(",")[2]) for line in lines[1:]]
        assert max(checks) <= 1e-8

    def test_fplot_row_count(self, tmp_path, capsys):
        rc = cli.main([
            "fplot", _write(tmp_path, PRESET_TEXT), "--quiet", "--points", "3",
        ])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4  # header + exactly 3 samples

    def test_simulate_row_count(self, tmp_path, capsys):
        rc = cli.main([
            "simulate", _write(tmp_path, PRESET_TEXT), "--quiet", "--cycles", "5",
        ])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6

    def test_nyquist_and_splot_run(self, tmp_path, capsys):
        cfg = _write(tmp_path, PRESET_TEXT)
        assert cli.main(["nyquist", cfg, "--quiet", "--points", "16"]) == 0
        assert cli.main(["splot", cfg, "--quiet", "--points", "7",
                         "--lam=-1,0"]) == 0
        out = capsys.readouterr().out
        assert "s_real_volts_per_second" in out

    def test_check_equivalence(self, tmp_path, capsys):
        rc = cli.main([
            "check-equivalence", _write(tmp_path, PRESET_TEXT), "--quiet",
            "--dmin", "0.2", "--dmax", "0.8", "--points", "5",
        ])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rel = [float(line.split(",")[-1]) for line in lines[1:]]
        assert max(rel) <= 1e-4

    def test_taylor_compare(self, tmp_path, capsys):
        slow = PRESET_TEXT.replace("L = 20e-3", "L = 0.2").replace(
            "C = 47e-6", "C = 100e-6").replace("R = 22.0", "R = 50.0")
        rc = cli.main([
            "taylor-compare", _write(tmp_path, slow), "--quiet",
            "--dmin", "0.2", "--dmax", "0.8", "--points", "7",
        ])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rel = [float(line.split(",")[-1]) for line in lines[1:]]
        assert max(rel) <= 0.01


class TestCliDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = _write(tmp_path, PRESET_TEXT)
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert cli.main(["sweep-vs", cfg, "--quiet", "--points", "21",
                         "--out", out1]) == 0
        assert cli.main(["sweep-vs", cfg, "--quiet", "--points", "21",
                         "--out", out2]) == 0
        a = open(out1, "rb").read()
        b = open(out2, "rb").read()
        assert a == b and len(a) > 0

    def test_17_significant_digits(self, tmp_path, capsys):
        rc = cli.main(["steady", _write(tmp_path, PRESET_TEXT), "--quiet"])
        assert rc == 0
        line = capsys.readouterr().out.strip().splitlines()[1]
        d_field = line.split(",")[0]
        # Round-trips to the same double.
        assert float(d_field) == float(f"{float(d_field):.17g}")
        assert len(d_field.replace(".", "").replace("-", "").lstrip("0")) >= 16


class TestCliExitCodes:
    def test_usage_unknown_command(self, tmp_path, capsys):
        assert cli.main(["frobnicate"]) == 1

    def test_usage_bad_lambda(self, tmp_path, capsys):
        cfg = _write(tmp_path, PRESET_TEXT)
        assert cli.main(["splot", cfg, "--quiet", "--lam", "nope"]) == 1

    def test_usage_bad_x0(self, tmp_path, capsys):
        cfg = _write(tmp_path, PRESET_TEXT)
        assert cli.main(["simulate", cfg, "--quiet", "--x0", "1"]) == 1

    def test_usage_inverted_sweep_range(self, tmp_path, capsys):
        cfg = _write(tmp_path, PRESET_TEXT)
        assert cli.main(["sweep-vs", cfg, "--quiet", "--dmin", "0.9",
                         "--dmax", "0.1"]) == 1
        assert cli.main(["sweep-vs", cfg, "--quiet", "--points", "1"]) == 1

    def test_config_missing_file(self, tmp_path, capsys):
        assert cli.main(["steady", str(tmp_path / "nope.cfg"), "--quiet"]) == 2

    def test_config_malformed(self, tmp_path, capsys):
        cfg = _write(tmp_path, PRESET_TEXT.replace("R = 22.0", "R = oops"))
        assert cli.main(["steady", cfg, "--quiet"]) == 2

    def test_config_non_buck_for_sweep(self, tmp_path, capsys):
        text = RAW_TEXT.replace("A2 = -1.0,0.2; 0.0,-2.0",
                                "A2 = -1.5,0.2; 0.0,-2.0")
        cfg = _write(tmp_path, text)
        assert cli.main(["sweep-vs", cfg, "--quiet"]) == 2

    def test_no_orbit_saturated(self, tmp_path, capsys):
        cfg = _write(tmp_path, PRESET_TEXT.replace("vr = 11.3", "vr = 100.0"))
        assert cli.main(["steady", cfg, "--quiet"]) == 3

    def test_singular_condition(self, tmp_path, capsys):
        # Dynamics with a zero eigenvalue make the boundary matrices singular.
        text = RAW_TEXT.replace("A1 = -1.0,0.2; 0.0,-2.0",
                                "A1 = 0,0; 0,-1.0").replace(
            "A2 = -1.0,0.2; 0.0,-2.0", "A2 = 0,0; 0,-1.0")
        cfg = _write(tmp_path, text)
        assert cli.main(["sweep-vs", cfg, "--quiet"]) == 4

    def test_non_convergence_divergent_simulation(self, tmp_path, capsys):
        text = RAW_TEXT.replace("A1 = -1.0,0.2; 0.0,-2.0",
                                "A1 = 5.0,0; 0,5.0").replace(
            "A2 = -1.0,0.2; 0.0,-2.0", "A2 = 5.0,0; 0,5.0")
        cfg = _write(tmp_path, text)
        assert cli.main(["simulate", cfg, "--quiet", "--cycles", "400",
                         "--x0", "0.5,0"]) == 5

    def test_overflowing_stage_is_domain_error(self, tmp_path, capsys):
        text = RAW_TEXT.replace("edge = LEM", "edge = TEM")
        for old, new in (("A1 = -1.0,0.2; 0.0,-2.0", "A1 = 2e6,0; 1,-1"),
                         ("A2 = -1.0,0.2; 0.0,-2.0", "A2 = 2e6,0; 1,-1"),
                         ("B1 = 0,0; 0,0", "B1 = 0,1; 0,0"),
                         ("B2 = 0,1.0; 0,0.5", "B2 = 0,0; 0,0"),
                         ("C = 1.0,0.4", "C = 0,1"), ("D = 1.0,0.0", "D = 0,0"),
                         ("T = 1.0", "T = 400e-6"), ("vr = 0.2", "vr = 0"),
                         ("vs = 0.6", "vs = 1")):
            assert old in text
            text = text.replace(old, new)
        assert cli.main(["steady", _write(tmp_path, text), "--quiet"]) == 2
        assert "stage exponential overflows" in capsys.readouterr().err

    def test_stiff_stage_is_domain_error(self, tmp_path, capsys):
        # ||G||_1 T = 1e9: splot's orbit grid would need 1e9 steps and the
        # simulator 4e9, past numerics.MAX_GRID_STEPS; both are refused by a
        # typed error before any grid is allocated.
        text = RAW_TEXT.replace("edge = LEM", "edge = TEM")
        for old, new in (("A1 = -1.0,0.2; 0.0,-2.0", "A1 = -1e9,0; 0,-2"),
                         ("A2 = -1.0,0.2; 0.0,-2.0", "A2 = -1e9,0; 0,-2"),
                         ("B1 = 0,0; 0,0", "B1 = 0,0; 0,1"),
                         ("B2 = 0,1.0; 0,0.5", "B2 = 0,0; 0,0"),
                         ("C = 1.0,0.4", "C = 0,1"), ("D = 1.0,0.0", "D = 0,0"),
                         ("vr = 0.2", "vr = 0.3"), ("vs = 0.6", "vs = 1")):
            assert old in text
            text = text.replace(old, new)
        cfg = _write(tmp_path, text)
        for command, steps in (("splot", "1e+09"), ("simulate", "4e+09")):
            assert cli.main([command, cfg, "--quiet"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: stage too stiff: ||G||_1 T = 1e+09 "
                                  f"needs {steps} steps")
            assert "Traceback" not in err

    def test_no_orbit_integrating_state(self, tmp_path, capsys):
        # A PI compensator's integrator: degenerate at every d, not saturated.
        assert cli.main(["steady", _write(tmp_path, PI_BUCK_TEXT), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("no periodic orbit: open-loop cycle map has a "
                              "multiplier at +1 at every scan point")

    @pytest.mark.parametrize("argv", [
        ["fplot", "--points", "-5"],
        ["fplot", "--points", "0"],
        ["nyquist", "--points", "0"],
        ["steady", "--out", "{tmp}/no-such-dir/x.csv"],
        ["simulate", "--cycles", "0"],
        ["taylor-compare", "--order", "3"],
        ["check-equivalence", "--harmonics", "-3"],
        ["sweep-vs", "--dmin", "0"],
        ["splot", "--dmax", "1.2"],
        ["check-equivalence", "--dmin", "0"],
    ], ids=" ".join)
    def test_bad_flag_is_usage_error(self, tmp_path, capsys, argv):
        cfg = _write(tmp_path, PRESET_TEXT)
        args = [a.format(tmp=tmp_path) for a in argv]
        assert cli.main([args[0], cfg, "--quiet"] + args[1:]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["simulate", "--x0", "nan,0"],
        ["simulate", "--x0", "0,-inf"],
        ["splot", "--lam=nan,0"],
        ["splot", "--lam=inf,0"],
        ["splot", "--lam=0,1e999"],
    ], ids=" ".join)
    def test_non_finite_flag_is_usage_error(self, tmp_path, capsys, argv):
        cfg = _write(tmp_path, PRESET_TEXT)
        assert cli.main([argv[0], cfg, "--quiet"] + argv[1:]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1

    def test_quiet_suppresses_summary(self, tmp_path, capsys):
        cfg = _write(tmp_path, PRESET_TEXT)
        cli.main(["steady", cfg, "--quiet"])
        assert capsys.readouterr().err == ""
        cli.main(["steady", cfg])
        assert "rows" in capsys.readouterr().err


class TestReadmeConfig:
    def test_readme_example_runs(self, tmp_path, capsys):
        # The config block of the README parses as written and solves.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        text = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        parse_config(text)
        assert cli.main(["steady", _write(tmp_path, text), "--quiet"]) == 0
        assert capsys.readouterr().out.startswith("d_seconds,")

    def test_readme_library_example_runs(self, capsys):
        # The python block of the README runs as written and prints its
        # two lines.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        code = readme.split("```python\n", 1)[1].split("```", 1)[0]
        exec(compile(code, "README.md", "exec"), {})
        assert len(capsys.readouterr().out.splitlines()) == 2

    @staticmethod
    def _config(edge):
        # The README config, or its LEM mirror (vr and vs negated).
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        text = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        if edge == "LEM":
            text = text.replace("edge = TEM", "edge = LEM").replace(
                "vr = 11.3", "vr = -11.3").replace("vs = 20.0", "vs = -20.0")
            assert "edge = LEM" in text and "vs = -20.0" in text
        return text

    @pytest.mark.parametrize("edge", ["TEM", "LEM"])
    @pytest.mark.parametrize("command", [
        "steady", "eigs", "sweep-vs", "splot", "fplot", "nyquist", "simulate",
        "check-equivalence", "taylor-compare",
    ])
    def test_every_command_on_readme_config(self, tmp_path, capsys, command, edge):
        cfg = _write(tmp_path, self._config(edge))
        assert cli.main([command, cfg, "--quiet"]) == 0
        assert capsys.readouterr().out.count("\n") >= 2

    @pytest.mark.parametrize("command", [
        "steady", "sweep-vs", "taylor-compare", "splot", "simulate",
    ])
    def test_overflowing_ramp_is_config_error(self, tmp_path, capsys, command):
        # Vh - Vl overflows to inf; the ramp is refused when the config loads.
        text = self._config("TEM").replace("Vl = 3.8", "Vl = -1.5e308").replace(
            "Vh = 8.2", "Vh = 1.5e308")
        assert "Vh = 1.5e308" in text and "Vl = -1.5e308" in text
        assert cli.main([command, _write(tmp_path, text), "--quiet"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ramp amplitude")
        assert captured.out == ""

    @pytest.mark.parametrize("argv, old, new", [
        (["steady"], "grid_points = 256", "grid_points = 131072"),
        (["simulate", "--cycles", "1"], "scan_points = 512", "scan_points = 131073"),
        (["check-equivalence"], "harmonics = 2000", "harmonics = 131073"),
    ], ids=["grid_points", "scan_points", "harmonics"])
    def test_size_past_max_grid_steps_is_config_error(self, tmp_path, capsys, argv, old, new):
        # One more step (the scan takes grid_points + 1) or harmonic than
        # numerics.MAX_GRID_STEPS = 131072 is refused before it is allocated.
        text = self._config("TEM")
        assert old in text
        cfg = _write(tmp_path, text.replace(old, new))
        assert cli.main([argv[0], cfg, "--quiet", *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("edge", ["TEM", "LEM"])
    def test_taylor_compare_exact_column_is_sweep_vs(self, tmp_path, capsys, edge):
        # taylor-compare's exact voltage is the config edge's boundary, the
        # one sweep-vs prints, field for field (for LEM that is
        # -vs_TEM(1 - D), not the TEM boundary at D), and its Taylor
        # voltage stays within 1 % of it on the README plant.
        cfg = _write(tmp_path, self._config(edge))
        tables = []
        for command in ("taylor-compare", "sweep-vs"):
            assert cli.main([command, cfg, "--quiet", "--points", "9"]) == 0
            rows = capsys.readouterr().out.strip().splitlines()[1:]
            tables.append([row.split(",") for row in rows])
        taylor, sweep = tables
        assert len(taylor) == 9
        assert [row[:2] for row in taylor] == [row[:2] for row in sweep]
        assert max(float(row[3]) for row in taylor) <= 0.01


def _orbit(model, ramp, u, solver):
    return p.solve_periodic_orbit(
        model, ramp, u, grid_points=solver.grid_points, d_tol=solver.d_tol
    )


def _curve_rows(curve, *tail):
    return [
        [s.parameter, *((math.nan, math.nan) if s.singular
                        else (s.value.real, s.value.imag)), int(s.singular), *tail]
        for s in curve.samples
    ]


def _steady_rows(model, ramp, u, solver):
    ss = _orbit(model, ramp, u, solver)
    return [[ss.d, ss.duty, ss.y_switch, ss.candidates, *ss.x0_start, *ss.x0_switch]]


def _eigs_rows(model, ramp, u, solver):
    jd = p.jacobian(model, ramp, u, _orbit(model, ramp, u, solver))
    report = p.classify(jd, class_tol=solver.class_tol)
    return [
        [i, lam.real, lam.imag, abs(lam), report.spectral_radius,
         report.classification.value]
        for i, lam in enumerate(report.eigenvalues)
    ]


def _sweep_vs_rows(model, ramp, u, solver):
    plant = p.make_buck_plant(model, ramp)
    tem = model.edge is p.ModulationEdge.TEM
    critical = p.vs_critical_tem if tem else p.vs_critical_lem
    rows = []
    for duty in np.linspace(0.1, 0.9, 9):
        vs = critical(plant, duty)
        check = abs(p.buck_pdb_residual(plant, duty, vs, model.edge)) / ramp.slope
        rows.append([duty, vs, check])
    return rows


def _splot_rows(model, ramp, u, solver, lam=-1.0):
    # --lam defaults to "-1,0", passed on as the real lambda -1.
    curve = p.s_plot(model, ramp, u, lam, np.linspace(0.1, 0.9, 9))
    return _curve_rows(curve, ramp.slope)


def _splot_complex_rows(model, ramp, u, solver):
    return _splot_rows(model, ramp, u, solver, complex(-0.5, 0.2))


def _fplot_rows(model, ramp, u, solver):
    thetas = np.linspace(-math.pi, math.pi, 17)[1:]
    curve = p.f_plot(model, ramp, u, _orbit(model, ramp, u, solver), thetas)
    return _curve_rows(curve, ramp.slope)


def _nyquist_rows(model, ramp, u, solver):
    omegas = np.linspace(0.0, ramp.ws, 16)
    return _curve_rows(
        p.nyquist(model, ramp, u, _orbit(model, ramp, u, solver), omegas)
    )


def _simulate_rows(model, ramp, u, solver):
    traj = p.simulate(model, ramp, u, np.zeros(model.n), 8,
                      scan_points=solver.scan_points)
    rows = []
    for i, rec in enumerate(traj.cycles):
        # A cycle with no trigger has no event time and no switch state;
        # the transient from x0 = 0 has such cycles, so both forms are read.
        d, xs = (math.nan, [math.nan] * model.n) if rec.d_event is None else (
            rec.d_event, rec.x_switch)
        rows.append([i, d, int(rec.saturated), *xs, *rec.x_end])
    assert any(rec.d_event is None for rec in traj.cycles)
    return rows


def _check_equivalence_rows(model, ramp, u, solver):
    plant = p.make_buck_plant(model, ramp)
    rows = []
    for duty in np.linspace(0.1, 0.9, 9):
        d = (1.0 - duty) * ramp.T
        series = p.harmonic_balance(plant, d, solver.harmonics, p.ModulationEdge.LEM)
        lhs = 2.0 * ramp.fs * series.series_sum.real
        rhs = p.lem_boundary_coefficient(plant, d)
        rows.append([duty, d, lhs, rhs, abs(lhs - rhs), abs(lhs - rhs) / abs(rhs)])
    return rows


def _taylor_compare_rows(model, ramp, u, solver):
    plant = p.make_buck_plant(model, ramp)
    rows = []
    for duty in np.linspace(0.1, 0.9, 9):
        if model.edge is p.ModulationEdge.TEM:
            exact = p.vs_critical_tem(plant, duty)
            approx = p.taylor_critical_vs(plant, duty, order=2)
        else:
            exact = p.vs_critical_lem(plant, duty)
            approx = -p.taylor_critical_vs(plant, 1.0 - duty, order=2)
        rows.append([duty, exact, approx, abs(approx - exact) / abs(exact)])
    return rows


class TestCliMatchesLibrary:
    # Every field each command prints is the library call it wraps, at 17
    # significant digits, on the README config and its LEM mirror.
    COMMANDS = {
        "steady": ([], _steady_rows),
        "eigs": ([], _eigs_rows),
        "sweep-vs": (["--points", "9"], _sweep_vs_rows),
        "splot": (["--points", "9"], _splot_rows),
        "splot --lam=-0.5,0.2": (["--points", "9"], _splot_complex_rows),
        "fplot": (["--points", "16"], _fplot_rows),
        "nyquist": (["--points", "16"], _nyquist_rows),
        "simulate": (["--cycles", "8"], _simulate_rows),
        "check-equivalence": (["--points", "9"], _check_equivalence_rows),
        "taylor-compare": (["--points", "9"], _taylor_compare_rows),
    }

    @staticmethod
    def _field(value):
        if isinstance(value, str):
            return value
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return f"{float(value):.17g}"

    @pytest.mark.parametrize("edge", ["TEM", "LEM"])
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_fields_equal_library(self, tmp_path, capsys, command, edge):
        text = TestReadmeConfig._config(edge)
        flags, rows_of = self.COMMANDS[command]
        command, *more = command.split()
        argv = [command, _write(tmp_path, text), "--quiet"] + more + flags
        assert cli.main(argv) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        table = [line.split(",") for line in lines]
        expected = [
            [self._field(v) for v in row]
            for row in rows_of(*build(parse_config(text)))
        ]
        assert table == expected
        assert {len(row) for row in table} == {len(header.split(","))}


class TestRuntimeImports:
    def test_cli_runs_without_scipy_optimize(self, tmp_path):
        # A fresh interpreter runs three commands on the README config; the
        # runtime must not load scipy.optimize (scipy.linalg only).
        root = Path(__file__).resolve().parents[1]
        text = (root / "README.md").read_text().split("```ini\n", 1)[1].split("```", 1)[0]
        cfg = _write(tmp_path, text)
        script = (
            "import sys\n"
            "from pwmstab import cli\n"
            "for command in ('steady', 'splot', 'simulate'):\n"
            "    out = sys.argv[2] + '.' + command + '.csv'\n"
            "    assert cli.main([command, sys.argv[1], '--quiet', '--out', out]) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), env.get("PYTHONPATH", "")])
        out = subprocess.run(
            [sys.executable, "-c", script, cfg, str(tmp_path / "out")],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        assert out.strip() == "[]"
