import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from magsys_lab import (ExperimentConfig, ParseError, ValidationError,
                        riemannian_volume, syslab)
from magsys_lab.cli import _KEY_SCHEMA, build_parser, main, parse_config
from magsys_lab.reporting import validate_report_doc


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


ZOLL_TORUS = """
[model]
kappa = 0.0
strength = 1.0

[search]
grid_density = 2
"""


class TestParseConfig:
    def test_minimal_bare_keys_get_defaults(self, tmp_path):
        cfg, extras, prov = parse_config(
            write(tmp_path, "min.cfg", "kappa = 1\nstrength = 1\n"))
        assert cfg.kappa == 1.0 and cfg.strength == 1.0
        assert cfg.grid_density == 3 and cfg.normalize is True
        assert "model.kappa" in prov["keys_from_file"]
        assert "search.grid_density" in prov["defaulted_keys"]

    def test_zoll_regime_surfaced_early(self, tmp_path):
        path = write(tmp_path, "bad.cfg", "kappa = -1\nstrength = 1\n")
        with pytest.raises(ValidationError, match="Zoll regime violated"):
            parse_config(path)

    def test_unknown_key_named(self, tmp_path):
        path = write(tmp_path, "typo.cfg", "kappa = 1\nstrenght = 1\n")
        with pytest.raises(ValidationError, match="strenght"):
            parse_config(path)

    def test_unknown_section(self, tmp_path):
        path = write(tmp_path, "sect.cfg", "kappa = 1\n[modell]\nstrength=1\n")
        with pytest.raises(ValidationError, match="modell"):
            parse_config(path)

    def test_malformed_line_carries_line_number(self, tmp_path):
        path = write(tmp_path, "broken.cfg", "kappa = 1\nstrength\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_config(path)

    def test_bad_value_carries_line_number(self, tmp_path):
        path = write(tmp_path, "badval.cfg", "kappa = pi\nstrength = 1\n")
        with pytest.raises(ValidationError, match="line 1"):
            parse_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write(tmp_path, "dup.cfg", "kappa = 1\nkappa = 2\nstrength=1\n")
        with pytest.raises(ValidationError, match="duplicate"):
            parse_config(path)

    def test_comments_and_sections(self, tmp_path):
        text = """# full config
[model]
kappa = 1.0      # curvature
strength = 1.0

[perturbation]
field = sphere_harmonic_z
eps = 0.05
normalize = true

[search]
grid_density = 4
eps_list = 0.01, 0.02
"""
        cfg, extras, _ = parse_config(write(tmp_path, "full.cfg", text))
        assert cfg.eps == 0.05
        assert cfg.perturbation_name == "sphere_harmonic_z"
        assert extras["eps_list"] == (0.01, 0.02)

    def test_output_format_key_refused(self, tmp_path):
        # every command writes a fixed set of formats, so there is nothing to pick
        path = write(tmp_path, "fmt.cfg", "kappa = 1\nstrength = 1\n[output]\nformat = csv\n")
        with pytest.raises(ValidationError, match="'format'"):
            parse_config(path)

    @pytest.mark.parametrize("kappa, strength", [(0.0, -1.0), (-1.0, -2.0)])
    def test_negative_strength_outside_zoll_regime(self, tmp_path, kappa, strength):
        # s^2 + kappa > 0 holds, but sqrt(s^2 + kappa) + s <= 0
        path = write(tmp_path, "neg.cfg", f"kappa = {kappa}\nstrength = {strength}\n")
        with pytest.raises(ValidationError, match="Zoll regime violated"):
            parse_config(path)

    @pytest.mark.parametrize("samples", [-5, 512])
    def test_too_few_volume_samples_refused(self, tmp_path, samples):
        # below 513 the oracle has one base point per cell and reports a
        # standard error of 0
        path = write(tmp_path, "few.cfg",
                     f"kappa = 1\nstrength = 1\n[search]\nsamples = {samples}\n")
        with pytest.raises(ValidationError, match="samples"):
            parse_config(path)

    def test_fewest_volume_samples_accepted(self, tmp_path):
        path = write(tmp_path, "ok.cfg", "kappa = 1\nstrength = 1\n[search]\nsamples = 513\n")
        assert parse_config(path)[1]["samples"] == 513

    @pytest.mark.parametrize("lines,name,count", [
        ("field = torus_cos_x\ncoeffs = 1.0, 99.0", "torus_cos_x", 2),
        ("field = sphere_harmonic_z\ncoeffs = 1, 1, 0, 0", "sphere_harmonic_z", 4),
        ("eta = sphere_eta_axial\neta_coeffs = 1, 2", "sphere_eta_axial", 2)])
    def test_wrong_coefficient_count_refused(self, tmp_path, lines, name, count):
        path = write(tmp_path, "co.cfg",
                     f"kappa = 1\nstrength = 1\n[perturbation]\n{lines}\neps = 0.05\n")
        with pytest.raises(ValidationError, match=rf"{name}.*got {count}"):
            parse_config(path)

    def test_defaults_are_the_experiment_config_defaults(self, tmp_path):
        cfg, _, _ = parse_config(write(tmp_path, "min.cfg", "kappa = 1\nstrength = 1\n"))
        assert cfg == ExperimentConfig(kappa=1.0, strength=1.0)

    # a value other than the default for every key that sets a config field
    FIELD_VALUES = {
        "kappa": ("2.0", 2.0), "strength": ("3.0", 3.0), "n": ("2", 2),
        "field": ("sphere_harmonic_z", "sphere_harmonic_z"),
        "coeffs": ("0.5", (0.5,)), "eps": ("0.03", 0.03),
        "eta": ("sphere_eta_axial", "sphere_eta_axial"),
        "eta_coeffs": ("0.5", (0.5,)), "normalize": ("false", False),
        "grid_density": ("5", 5), "tol_orbit": ("1e-8", 1e-8),
        "tol_quad": ("1e-8", 1e-8), "equality_tol": ("1e-6", 1e-6),
        "ineq_tol": ("1e-3", 1e-3), "max_iter": ("7", 7), "workers": ("2", 2),
        "rng_seed": ("9", 9),
    }

    @pytest.mark.parametrize("section, key", sorted(
        k for k, (_, field) in _KEY_SCHEMA.items() if field is not None))
    def test_each_key_sets_its_field(self, tmp_path, section, key):
        field = _KEY_SCHEMA[(section, key)][1]
        raw, value = self.FIELD_VALUES[key]
        model = {"kappa": "1", "strength": "1"}
        if section == "model":
            model[key] = raw
        text = "".join(f"{k} = {v}\n" for k, v in model.items())
        if section != "model":
            text += f"[{section}]\n{key} = {raw}\n"
        cfg, _, _ = parse_config(write(tmp_path, "one.cfg", text))
        assert getattr(cfg, field) == value
        assert getattr(ExperimentConfig(kappa=1.0, strength=1.0), field) != value

    def test_readme_config_example_parses(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
            encoding="utf-8")
        examples = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
        assert examples
        for text in examples:
            cfg, extras, _ = parse_config(write(tmp_path, "readme.cfg", text))
            assert cfg.perturbation_name == "sphere_harmonic_z"
            assert extras["eps_list"] == (0.01, 0.02, 0.04)


# the flags each subcommand reads; every other flag is refused
FLAGS_READ = {
    "systole": {"--seed", "--workers", "--tol-orbit", "--tol-quad"},
    "orbit": {"--seed", "--workers", "--tol-orbit", "--tol-quad"},
    "sweep": {"--seed", "--workers", "--tol-orbit", "--tol-quad"},
    "volume": {"--seed", "--tol-quad"},
    "zollpoly": set(),
    "constants": set(),
}
FLAG_FIELDS = {"--seed": ("rng_seed", "3", 3), "--workers": ("workers", "2", 2),
               "--tol-orbit": ("tol_orbit", "1e-8", 1e-8),
               "--tol-quad": ("tol_quad", "1e-8", 1e-8)}


class TestFlags:
    @pytest.mark.parametrize("command", sorted(FLAGS_READ))
    @pytest.mark.parametrize("flag", sorted(FLAG_FIELDS))
    def test_subcommand_takes_only_the_flags_it_reads(self, capsys, command, flag):
        field, raw, value = FLAG_FIELDS[flag]
        argv = [command, "--config", "run.cfg", flag, raw]
        if flag in FLAGS_READ[command]:
            assert vars(build_parser().parse_args(argv))[field] == value
        else:
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_flag_overrides_only_its_field(self, tmp_path):
        cfg_path = write(tmp_path, "run.cfg", ZOLL_TORUS + "rng_seed = 5\ntol_quad = 1e-7\n")
        out = tmp_path / "out"
        assert main(["systole", "--config", cfg_path, "--out", str(out), "--seed", "3"]) == 0
        config = json.loads((out / "report.json").read_text())["config"]
        assert config["rng_seed"] == 3 and config["tol_quad"] == 1e-7


class TestCliRuns:
    def test_systole_zoll_torus(self, tmp_path, capsys):
        cfg_path = write(tmp_path, "run.cfg", ZOLL_TORUS)
        out = tmp_path / "out"
        code = main(["systole", "--config", cfg_path, "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "verdict[two_sided] = PASS" in captured
        doc = json.loads((out / "report.json").read_text())
        validate_report_doc(doc)
        assert doc["zoll_flag"] is True
        summary = (out / "summary.csv").read_text().splitlines()
        assert len(summary) == 2
        assert summary[0].startswith("eps,orbit_count,l_min")

    def test_workers_override_refused(self, tmp_path, capsys):
        cfg_path = write(tmp_path, "run.cfg", ZOLL_TORUS)
        assert main(["systole", "--config", cfg_path, "--workers", "0",
                     "--out", str(tmp_path / "out")]) == 1
        assert "workers" in capsys.readouterr().err

    def test_byte_determinism(self, tmp_path):
        cfg_path = write(tmp_path, "run.cfg", ZOLL_TORUS)
        outs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            assert main(["systole", "--config", cfg_path, "--out",
                         str(out), "--seed", "3"]) == 0
            outs.append(out)
        orbit_csvs = sorted(p.name for p in outs[0].glob("orbit_*.csv"))
        assert orbit_csvs
        assert orbit_csvs == sorted(p.name for p in outs[1].glob("orbit_*.csv"))
        for fname in ("report.json", "summary.csv", *orbit_csvs):
            a = (outs[0] / fname).read_bytes()
            b = (outs[1] / fname).read_bytes()
            assert a == b

    @pytest.mark.parametrize("chart,component", [(chart, i) for chart in ("torus", "hyperbolic")
                                                 for i in range(4)],
                             ids=[f"{chart}-{name}" for chart, names in (
                                 ("torus", ("x", "y", "vx", "vy")),
                                 ("hyperbolic", ("rho", "phi", "v_rho", "v_phi")))
                                 for name in names])
    def test_orbit_csv_does_not_follow_the_seed_s_last_bit(self, tmp_path, monkeypatch,
                                                           chart, component):
        # one ulp added to a component of a seed (the ulp of 1 on velocities,
        # so v_x turns the torus's (0, 1) and v_y stretches it) moves that
        # orbit's CSV by less than tol_orbit, as each orbit starts at the Zoll
        # state over its c*.  On the census-perturbed-torus run the orbits lie
        # on lines x0 = const of the orbit space, and c* stays at the foot of
        # the seed; hyperbolic_bump's maxima form a circle.  Newton on section
        # coordinates moved the CSVs by 7e-9 (torus, v_x) and 4e-9 (rho).
        from magsys_lab import TangentState, orbits
        text, seed_id = {
            "torus": ("kappa = 0.0\nstrength = 1.0\n[perturbation]\nfield = torus_cos_x\n"
                      "eps = 0.05\nnormalize = true\n[search]\ngrid_density = 4\n",
                      "center_0_0_max"),
            "hyperbolic": ("kappa = -1.0\nstrength = 2.0\n[perturbation]\n"
                           "field = hyperbolic_bump\ncoeffs = 1.0, 0.5\neps = 0.05\n"
                           "normalize = true\n[search]\ngrid_density = 3\n",
                           "boost_1_0_max")}[chart]
        cfg_path = write(tmp_path, "run.cfg", text)
        solve = orbits.find_closed_orbit

        def nudged(sys, seed, **kw):
            if kw["seed_id"] == seed_id:
                y = np.concatenate([seed.position, seed.velocity])
                y[component] += np.spacing(y[component] if component < 2 else 1.0)
                seed = TangentState(y[:2], y[2:])
            return solve(sys, seed, **kw)

        tables = []
        for name in ("plain", "nudged"):
            out = tmp_path / name
            assert main(["systole", "--config", cfg_path, "--out", str(out)]) in (0, 2)
            tables.append(np.loadtxt(out / f"orbit_{seed_id}.csv", delimiter=",", skiprows=1))
            monkeypatch.setattr(orbits, "find_closed_orbit", nudged)
        assert tables[0].shape == tables[1].shape == (513, 5)
        assert np.max(np.abs(tables[0] - tables[1])) < 1e-9

    def test_error_exit_code(self, tmp_path, capsys):
        cfg_path = write(tmp_path, "bad.cfg", "kappa = -1\nstrength = 1\n")
        assert main(["constants", "--config", cfg_path]) == 1
        assert "Zoll regime violated" in capsys.readouterr().err

    @pytest.mark.parametrize("text,named", [
        # a nan eps failed every "> 0" test and ran the unperturbed system
        ("kappa = 1\nstrength = 1\n[perturbation]\nfield = sphere_harmonic_z\n"
         "eps = nan\n", "eps must be finite, got nan"),
        ("kappa = inf\nstrength = 1\n", "kappa = inf, strength = 1"),
        ("kappa = 1\nstrength = inf\n", "kappa = 1, strength = inf"),
        # an infinite tol_orbit accepted every seed as a closed orbit
        ("kappa = 1\nstrength = 1\n[search]\ntol_orbit = inf\n",
         "tol_orbit must be finite, got inf"),
        # an infinite eta coefficient ran the census without end
        ("kappa = 1\nstrength = 1\n[perturbation]\neps = 0.05\neta = sphere_eta_axial\n"
         "eta_coeffs = inf\n", "eta_coeffs must be finite, got (inf,)"),
    ], ids=["eps-nan", "kappa-inf", "strength-inf", "tol-orbit-inf", "eta-coeffs-inf"])
    def test_non_finite_input_refused(self, tmp_path, capsys, text, named):
        cfg_path = write(tmp_path, "bad.cfg", text)
        out = tmp_path / "out"
        assert main(["systole", "--config", cfg_path, "--out", str(out)]) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["nan", "-0.02"])
    def test_bad_eps_list_entry_refused_before_any_census(self, tmp_path, capsys,
                                                          monkeypatch, bad):
        def no_census(cfg):
            raise AssertionError(f"a census ran at eps = {cfg.eps}")

        monkeypatch.setattr(syslab, "run_experiment", no_census)
        cfg_path = write(tmp_path, "sweep.cfg", f"kappa = 1\nstrength = 1\n[search]\n"
                                                f"eps_list = 0.01, {bad}\n")
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 1
        assert f"got {bad}" in capsys.readouterr().err
        assert not (out / "summary.csv").exists()

    def test_fail_exit_code_via_error_run(self, tmp_path):
        text = """kappa = 1.0
strength = 1.0
[perturbation]
field = sphere_harmonic_z
normalize = true
[search]
grid_density = 0
eps_list = 0.01
"""
        cfg_path = write(tmp_path, "failing.cfg", text)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 2
        rows = (out / "summary.csv").read_text().splitlines()
        assert "ERROR" in rows[1]

    def test_orbit_emission(self, tmp_path):
        cfg_path = write(tmp_path, "run.cfg", ZOLL_TORUS)
        out = tmp_path / "orbits"
        assert main(["orbit", "--config", cfg_path, "--out", str(out)]) == 0
        doc = json.loads((out / "orbits.json").read_text())
        assert doc["orbits"]
        first = doc["orbits"][0]
        assert set(first) == {"seed_id", "period", "residual", "magnetic_length"}
        assert first["magnetic_length"] == pytest.approx(math.pi, abs=1e-7)
        csvs = list(out.glob("orbit_*.csv"))
        assert len(csvs) == len(doc["orbits"])
        header = csvs[0].read_text().splitlines()[0]
        assert header == "t,x,y,vx,vy"

    def test_volume_subcommand(self, tmp_path, capsys):
        text = """kappa = 0.0
strength = 1.0
[perturbation]
field = torus_cos_x
eps = 0.1
normalize = false
[search]
samples = 100000
"""
        cfg_path = write(tmp_path, "vol.cfg", text)
        out = tmp_path / "vol"
        assert main(["volume", "--config", cfg_path, "--out", str(out),
                     "--seed", "42"]) == 0
        doc = json.loads((out / "volume.json").read_text())
        assert doc["verdict_3sigma"] == "PASS"
        assert doc["samples"] == 100000

    def test_volume_tol_quad_reaches_the_quadrature(self, tmp_path, monkeypatch, capsys):
        import magsys_lab.volume as volume_module
        tols = []

        def spy(sys, rel_tol=1e-8):
            tols.append(rel_tol)
            return riemannian_volume(sys, rel_tol)

        monkeypatch.setattr(volume_module, "riemannian_volume", spy)
        cfg_path = write(tmp_path, "vol.cfg", "kappa = 0.0\nstrength = 1.0\n"
                         "[perturbation]\nfield = torus_cos_x\neps = 0.1\n"
                         "normalize = false\n[search]\nsamples = 1000\n")
        main(["volume", "--config", cfg_path, "--out", str(tmp_path / "a")])
        main(["volume", "--config", cfg_path, "--out", str(tmp_path / "b"),
              "--tol-quad", "1e-6"])
        assert tols == [ExperimentConfig.tol_quad, 1e-6]

    def test_systole_tol_quad_reaches_the_normalisation(self, tmp_path, monkeypatch, capsys):
        import magsys_lab.geometry as geometry_module
        tols = []

        def spy(sys, rel_tol=ExperimentConfig.tol_quad):
            tols.append(rel_tol)
            return riemannian_volume(sys, rel_tol)

        # conformal_perturb's area quadrature, the one that fixes lam
        monkeypatch.setattr(geometry_module, "riemannian_volume", spy)
        cfg_path = write(tmp_path, "sys.cfg", "kappa = 0.0\nstrength = 1.0\n"
                         "[perturbation]\nfield = torus_cos_x\neps = 0.05\n"
                         "normalize = true\n[search]\ngrid_density = 2\n")
        main(["systole", "--config", cfg_path, "--out", str(tmp_path / "a")])
        main(["systole", "--config", cfg_path, "--out", str(tmp_path / "b"),
              "--tol-quad", "1e-6"])
        assert tols == [ExperimentConfig.tol_quad, 1e-6]

    @pytest.mark.parametrize("num", ["0", "-3"])
    def test_zollpoly_empty_table_refused(self, tmp_path, capsys, num):
        cfg_path = write(tmp_path, "z.cfg", "kappa = 1\nstrength = 1\n")
        assert main(["zollpoly", "--config", cfg_path, f"--num={num}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--num must be >= 1" in captured.err

    def test_zollpoly_table(self, tmp_path, capsys):
        cfg_path = write(tmp_path, "z.cfg", "kappa = 1\nstrength = 1\n")
        assert main(["zollpoly", "--config", cfg_path, "--num", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "A,P_kahler,P_generic"
        assert len(lines) == 6
        mid = lines[3].split(",")
        assert float(mid[0]) == 0.0
        assert float(mid[1]) == 0.0

    @pytest.mark.parametrize("model", ["kappa = 1\nstrength = 1\n",
                                       "kappa = -1\nstrength = 2\n"])
    def test_zollpoly_stdout_is_the_csv_file(self, tmp_path, capsys, model):
        cfg_path = write(tmp_path, "z.cfg", model)
        out = tmp_path / "zp"
        assert main(["zollpoly", "--config", cfg_path, "--num", "5",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out.encode("utf-8") == (out / "zollpoly.csv").read_bytes()

    @pytest.mark.parametrize("command, name", [("zollpoly", "zollpoly.csv"),
                                               ("constants", "constants.json")])
    def test_config_out_writes_the_file(self, tmp_path, monkeypatch, capsys, command, name):
        monkeypatch.chdir(tmp_path)
        bare = write(tmp_path, "bare.cfg", "kappa = 1\nstrength = 1\n")
        assert main([command, "--config", bare]) == 0
        assert not list(tmp_path.glob(name))
        cfg_path = write(tmp_path, "o.cfg", "kappa = 1\nstrength = 1\n[output]\nout = res\n")
        assert main([command, "--config", cfg_path]) == 0
        assert (tmp_path / "res" / name).is_file()

    def test_constants_output(self, tmp_path, capsys):
        cfg_path = write(tmp_path, "c.cfg", "kappa = 1\nstrength = 1\n")
        assert main(["constants", "--config", cfg_path]) == 0
        out = capsys.readouterr().out
        assert "reference_magnetic_length = 2.60258056914" in out
        assert "a1_squared = 0.828427124746" in out

    def test_zollpoly_negative_curvature_drops_generic_column(self, tmp_path,
                                                              capsys):
        # the derived-pairings route needs a positive leading pairing, so for
        # kappa < 0 only the closed form is tabulated
        cfg_path = write(tmp_path, "h.cfg", "kappa = -1\nstrength = 2\n")
        assert main(["zollpoly", "--config", cfg_path, "--num", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "A,P_kahler"
        assert len(lines) == 4


def test_samples_csv_bytes_are_csv_text_s(tmp_path):
    # the row template writes what csv_text writes for every float cell
    from magsys_lab import Trajectory, make_model
    from magsys_lab.reporting import csv_text, samples_csv
    sys = make_model(1.0, 1.0)
    rng = np.random.default_rng(3)
    table = rng.normal(size=(513, 7)) * 10.0 ** rng.integers(-300, 300, size=(513, 7))
    table[:8, 1:] = [[math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-320],
                     [1e16, 123456789012.5, -1e-5, 1e22, 5e-324, -math.nan]] * 4
    traj = Trajectory(states=table[:, 1:], times=table[:, 0], speed_drift=0.0)
    samples_csv(sys, traj, tmp_path / "rows.csv")
    cols = ["t", *sys.surface.columns]
    expected = csv_text((dict(zip(cols, row)) for row in table.tolist()), cols)
    assert (tmp_path / "rows.csv").read_text(encoding="utf-8") == expected
    assert ",-0," in expected and ",nan," in expected and ",-inf," in expected
