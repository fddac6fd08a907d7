import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from magsys_lab import ExperimentConfig, ParseError, ValidationError, syslab
from magsys_lab.cli import _KEY_SCHEMA, build_parser, main, parse_config
from magsys_lab.syslab import validate_report_doc


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

    # a typo, and the [search] tolerances that are constants of their readers
    @pytest.mark.parametrize("line", ["strenght = 1", "[search]\ntol_quad = 1e-8",
                                      "[search]\nequality_tol = 1e-6",
                                      "[search]\nineq_tol = 1e-3", "[search]\nmax_iter = 7"],
                             ids=["strenght", "tol_quad", "equality_tol", "ineq_tol", "max_iter"])
    def test_unknown_key_named(self, tmp_path, line):
        path = write(tmp_path, "typo.cfg", f"kappa = 1\nstrength = 1\n{line}\n")
        key = line.rpartition("\n")[2].split(" = ")[0]
        with pytest.raises(ValidationError, match=f"unknown key '{key}'"):
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

    def test_workers_other_than_one_refused(self, tmp_path):
        # the census runs in one process; the key is read only as 1
        path = write(tmp_path, "w.cfg", "kappa = 1\nstrength = 1\n[search]\nworkers = 2\n")
        with pytest.raises(ValidationError, match="workers = 2: the census runs in one process"):
            parse_config(path)
        path = write(tmp_path, "w1.cfg", "kappa = 1\nstrength = 1\n[search]\nworkers = 1\n")
        assert parse_config(path)[0] == ExperimentConfig(kappa=1.0, strength=1.0)

    def test_empty_eps_list_refused(self, tmp_path):
        # an empty list ran no census, and sweep exited 0 on a header-only summary
        path = write(tmp_path, "e.cfg", "kappa = 1\nstrength = 1\n[search]\neps_list =\n")
        with pytest.raises(ValidationError, match="eps_list is empty"):
            parse_config(path)
        extras = parse_config(write(tmp_path, "d.cfg", "kappa = 1\nstrength = 1\n"))[1]
        assert extras["eps_list"] == (0.0,)

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
        "grid_density": ("5", 5), "tol_orbit": ("1e-8", 1e-8), "rng_seed": ("9", 9),
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


# the flags each subcommand reads; every other flag is refused, the [search]
# keys that once had flags of their own too.  No census reads the seed: systole
# takes it only because the benchmark passes --seed to every workload
FLAGS_READ = {
    "systole": {"--seed"},
    "sweep": set(),
    "volume": {"--seed"},
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

    def test_orbit_command_is_gone(self, capsys):
        # systole writes the same orbit CSVs, and its report.json the orbits' records
        with pytest.raises(SystemExit) as exc:
            main(["orbit", "--config", "run.cfg"])
        assert exc.value.code == 2
        assert "invalid choice: 'orbit'" in capsys.readouterr().err

    def test_flag_overrides_only_its_field(self, tmp_path):
        cfg_path = write(tmp_path, "run.cfg", ZOLL_TORUS + "rng_seed = 5\ntol_orbit = 1e-8\n")
        out = tmp_path / "out"
        assert main(["systole", "--config", cfg_path, "--out", str(out), "--seed", "3"]) == 0
        config = json.loads((out / "report.json").read_text())["config"]
        assert config["rng_seed"] == 3 and config["tol_orbit"] == 1e-8


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
        assert doc["magnetic_lengths"][0] == pytest.approx(math.pi, abs=1e-7)
        csvs = sorted(out.glob("orbit_*.csv"))
        assert [p.name for p in csvs] == sorted(f"orbit_{sid}.csv" for sid in doc["seed_ids"])
        assert csvs[0].read_text().splitlines()[0] == "t,x,y,vx,vy"
        summary = (out / "summary.csv").read_text().splitlines()
        assert len(summary) == 2
        assert summary[0].startswith("eps,orbit_count,l_min")

    def test_workers_override_refused(self, tmp_path, capsys):
        cfg_path = write(tmp_path, "run.cfg", ZOLL_TORUS + "workers = 0\n")
        assert main(["systole", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 1
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
                                                 for i in range(4)] + [("seam", 0)],
                             ids=[f"{chart}-{name}" for chart, names in (
                                 ("torus", ("x", "y", "vx", "vy")),
                                 ("hyperbolic", ("rho", "phi", "v_rho", "v_phi")),
                                 ("torus-seam", ("x",)))
                                 for name in names])
    def test_orbit_csv_does_not_follow_the_seed_s_last_bit(self, tmp_path, monkeypatch,
                                                           chart, component):
        # one ulp added to a component of a seed (the ulp of 1 on velocities,
        # so v_x turns the torus's (0, 1) and v_y stretches it) moves that
        # orbit's CSV by less than tol_orbit, as each orbit starts at the Zoll
        # state over its c*.  On the census-perturbed-torus run the orbits lie
        # on lines x0 = const of the orbit space, and c* stays at the foot of
        # the seed; hyperbolic_bump's maxima form a circle.  Newton on section
        # coordinates moved the CSVs by 7e-9 (torus, v_x) and 4e-9 (rho).  On
        # the seam the seed of the line x0 = 0 lies over x0 = 2 pi exactly,
        # where a step that wrapped next to the box centre put the start on
        # one sheet or the other with its last bit.
        from magsys_lab import TangentState, orbits
        torus = ("kappa = 0.0\nstrength = 1.0\n[perturbation]\nfield = torus_cos_x\n"
                 "eps = 0.05\nnormalize = true\n[search]\ngrid_density = 4\n", "contour_0")
        text, seed_id = {
            "torus": torus, "seam": torus,
            "hyperbolic": ("kappa = -1.0\nstrength = 2.0\n[perturbation]\n"
                           "field = hyperbolic_bump\ncoeffs = 1.0, 0.5\neps = 0.05\n"
                           "normalize = true\n[search]\ngrid_density = 3\n",
                           "contour_32")}[chart]
        cfg_path = write(tmp_path, "run.cfg", text)
        solve = orbits.find_closed_orbit

        def seeded(nudge):
            def run(sys, seed, **kw):
                if kw["seed_id"] == seed_id:
                    if chart == "seam":
                        c = sys.surface.orbit_space_point(sys, seed.position, seed.velocity)
                        seed = sys.surface.zoll_state(sys, np.array([2.0 * math.pi, c[1]]))
                        assert sys.surface.orbit_space_point(
                            sys, seed.position, seed.velocity)[0] == 2.0 * math.pi
                    if nudge:
                        y = np.concatenate([seed.position, seed.velocity])
                        y[component] += np.spacing(y[component] if component < 2 else 1.0)
                        seed = TangentState(y[:2], y[2:])
                return solve(sys, seed, **kw)
            return run

        tables = []
        for nudge in (False, True):
            monkeypatch.setattr(orbits, "find_closed_orbit", seeded(nudge))
            out = tmp_path / f"nudge_{nudge}"
            assert main(["systole", "--config", cfg_path, "--out", str(out)]) in (0, 2)
            tables.append(np.loadtxt(out / f"orbit_{seed_id}.csv", delimiter=",", skiprows=1))
        assert tables[0].shape == tables[1].shape == (513, 5)
        assert np.max(np.abs(tables[0] - tables[1])) < 1e-9

    @pytest.mark.parametrize("command", ["systole", "sweep", "volume"])
    def test_surface_command_refuses_n(self, tmp_path, capsys, monkeypatch, command):
        # these commands run on the surface: an n they would ignore is refused
        # at parse time, before any system is built
        def no_system(cfg):
            raise AssertionError(f"a system was built at n = {cfg.n}")

        monkeypatch.setattr(syslab, "build_system", no_system)
        cfg_path = write(tmp_path, "n2.cfg", "kappa = 1\nstrength = 1\nn = 2\n")
        out = tmp_path / "out"
        assert main([command, "--config", cfg_path, "--out", str(out)]) == 1
        assert f"error: [model] n = 2: {command} runs on the surface" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["zollpoly", "constants"])
    def test_n_reaches_the_reference_commands(self, tmp_path, capsys, command):
        cfg_path = write(tmp_path, "n2.cfg", "kappa = 1\nstrength = 1\nn = 2\n")
        assert main([command, "--config", cfg_path]) == 0
        assert "error" not in capsys.readouterr().err

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

    @pytest.mark.parametrize("file_seed, flags", [("0", ["--seed", "-1"]), ("-1", [])],
                             ids=["flag", "file"])
    def test_negative_seed_refused(self, tmp_path, capsys, file_seed, flags):
        # numpy refuses a negative seed with a traceback; the config refuses it first
        cfg_path = write(tmp_path, "vol.cfg", "kappa = 0.0\nstrength = 1.0\n[search]\n"
                                              f"samples = 1000\nrng_seed = {file_seed}\n")
        out = tmp_path / "vol"
        assert main(["volume", "--config", cfg_path, "--out", str(out), *flags]) == 1
        assert "error: rng_seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

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


class TestReportSchema:
    """validate_report_doc reads the keys and types of report.json from
    ExperimentReport's fields."""

    @pytest.fixture(scope="class")
    def docs(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("schema")
        out = tmp_path / "systole"
        assert main(["systole", "--config", write(tmp_path, "run.cfg", ZOLL_TORUS),
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        # at the horocycle threshold no seed converges: every run is an error report
        text = ("kappa = -1.0\nstrength = 1.0001\n[perturbation]\nfield = hyperbolic_bump\n"
                "coeffs = 1.0, 0.5\n[search]\ngrid_density = 2\neps_list = 0.05\n")
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", write(tmp_path, "sweep.cfg", text),
                     "--out", str(out)]) == 2
        [error_report] = json.loads((out / "sweep_meta.json").read_text())["runs"]
        return report, error_report

    def test_an_error_report_validates_with_the_same_keys(self, docs):
        report, error_report = docs
        assert error_report["error"].startswith("NoOrbitsFound")
        assert error_report["l_min"] is None and error_report["verdict_full"] == "ERROR"
        assert validate_report_doc(error_report)
        assert list(error_report) == list(report)

    @pytest.mark.parametrize("key", ["l_min", "full_rhs_ratio"])
    def test_null_accepted_where_an_error_report_has_it(self, docs, key):
        assert validate_report_doc({**docs[0], key: None})

    def test_reference_may_not_be_null(self, docs):
        with pytest.raises(ValidationError, match="'reference' has wrong type"):
            validate_report_doc({**docs[0], "reference": None})

    def test_missing_and_unknown_keys_refused(self, docs):
        report = dict(docs[0])
        del report["seed_ids"]
        with pytest.raises(ValidationError, match="missing key 'seed_ids'"):
            validate_report_doc(report)
        with pytest.raises(ValidationError, match="unknown keys"):
            validate_report_doc({**docs[0], "census_complete": True})
