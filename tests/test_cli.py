import json
import math

import pytest

from magsys_lab import ParseError, ValidationError
from magsys_lab.cli import main, parse_config
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
        # below 513 the oracle has one antithetic pair per cell and reports
        # a standard error of 0
        path = write(tmp_path, "few.cfg",
                     f"kappa = 1\nstrength = 1\n[search]\nsamples = {samples}\n")
        with pytest.raises(ValidationError, match="samples"):
            parse_config(path)

    def test_fewest_volume_samples_accepted(self, tmp_path):
        path = write(tmp_path, "ok.cfg", "kappa = 1\nstrength = 1\n[search]\nsamples = 513\n")
        assert parse_config(path)[1]["samples"] == 513


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

    def test_byte_determinism(self, tmp_path):
        cfg_path = write(tmp_path, "run.cfg", ZOLL_TORUS)
        outs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            assert main(["systole", "--config", cfg_path, "--out",
                         str(out), "--seed", "3"]) == 0
            outs.append(out)
        for fname in ("report.json", "summary.csv"):
            a = (outs[0] / fname).read_bytes()
            b = (outs[1] / fname).read_bytes()
            assert a == b

    def test_error_exit_code(self, tmp_path, capsys):
        cfg_path = write(tmp_path, "bad.cfg", "kappa = -1\nstrength = 1\n")
        assert main(["constants", "--config", cfg_path]) == 1
        assert "Zoll regime violated" in capsys.readouterr().err

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
