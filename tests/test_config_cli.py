"""Config format round-trips and the CLI's CSV/exit-code contract."""

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

    def test_invalid_ramp_rejected_at_parse(self):
        bad = PRESET_TEXT.replace("Vh = 8.2", "Vh = 3.8")
        with pytest.raises(ConfigError):
            parse_config(bad)


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
            "--harmonics", "2000",
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
