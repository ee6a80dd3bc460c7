"""End-to-end CLI behavior via main(argv)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bohrmap
from bohrmap.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestRadius:
    def test_monomial_root(self, capsys):
        code, out, _ = run(capsys, "radius", "--theorem", "cor25", "--n", "3")
        assert code == 0
        assert "0.179307791906" in out
        assert out.startswith("# command=radius")

    def test_header_echoes_resolved_variant(self, capsys):
        _, out, _ = run(capsys, "radius", "--theorem", "thm12", "--K", "3")
        assert "theorem=thm12_quasi" in out.splitlines()[0]
        assert "K=3" in out.splitlines()[0]

    def test_json_keys(self, capsys):
        code, out, _ = run(
            capsys, "radius", "--theorem", "thm27", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out.splitlines()[-1])
        assert set(payload) == {
            "problem", "lo", "hi", "root", "residual", "iterations",
            "monotone_checked",
        }
        assert payload["root"] == pytest.approx(0.2290830029407519, abs=1e-9)

    def test_missing_parameter_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["radius", "--theorem", "thm24"])
        assert exc.value.code == 2

    def test_infinite_K_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["radius", "--theorem", "thm12", "--K", "inf"])
        assert exc.value.code == 2
        assert "K must be finite" in capsys.readouterr().err

    def test_huge_K_gives_the_limit_radius(self, capsys):
        # (2K+1-sqrt(K(3K+2)))/(K+1) -> 2 - sqrt(3) as K -> inf
        for theorem in ("thm23", "thm23_sub"):
            code, out, _ = run(capsys, "radius", "--theorem", theorem, "--K", "1e300")
            assert code == 0
            assert "root = 0.267949192431" in out

    @pytest.mark.parametrize(
        "argv", [["radius", "--theorem", "thm211"], ["table", "--max-n", "1"]]
    )
    def test_infinite_tol_exits_two(self, capsys, argv):
        # an infinite width would certify the whole bracket
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--tol", "inf"])
        assert exc.value.code == 2
        assert "tol must be finite" in capsys.readouterr().err

    def test_unknown_theorem_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["radius", "--theorem", "thm99"])
        assert exc.value.code == 2

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "radius", "--theorem", "thm210")
        _, out2, _ = run(capsys, "radius", "--theorem", "thm210")
        assert out1 == out2


class TestTable:
    def test_default_four_rows(self, capsys):
        code, out, _ = run(capsys, "table")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6  # header comment + column row + 4 entries
        assert "0.3484" in out and "0.3120" in out
        assert "0.1793" in out and "0.0960" in out

    def test_csv_columns(self, capsys):
        _, out, _ = run(capsys, "table", "--max-n", "2", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[1] == "n,r0,r0_4dp"
        n, r0, r4 = lines[2].split(",")
        assert n == "1"
        assert float(r0) == pytest.approx(0.34838507953206128, abs=1e-11)
        assert r4 == "0.3484"

    def test_max_n_validation(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--max-n", "0"])
        assert exc.value.code == 2


class TestVerify:
    def test_quasiconformal_witness_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--map", "p_k", "--k", "0.5", "--theorem",
            "thm12", "--K", "3", "--bound", "0.25",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "r,partial_sum,tail_bound,bound,verdict"
        assert all(line.endswith("pass") for line in lines[2:])

    def test_csv_shape(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--map", "L", "--theorem", "thm211", "--bound", "0.5",
            "--grid-size", "2",
        )
        assert code == 1
        lines = out.strip().splitlines()
        assert lines[1] == "r,partial_sum,tail_bound,bound,verdict"
        assert len(lines) == 4  # header comment + column row + 2 grid points
        assert lines[2] == "0,0,0,0.5,pass"
        assert lines[3].endswith(",0.5,fail")

    def test_infinite_bound_exits_two(self, capsys):
        # with bound = inf every grid point would read as a pass
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--map", "L", "--theorem", "thm211", "--bound", "inf"])
        assert exc.value.code == 2
        assert "bound must be positive and finite" in capsys.readouterr().err

    def test_harmonic_koebe_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--map", "harmonic_koebe_K", "--theorem",
            "thm210", "--format", "plain",
        )
        assert code == 0
        assert "all_pass = true" in out

    def test_incompatible_pairing_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--map", "koebe", "--theorem", "thm210"])
        assert exc.value.code == 2

    def test_overtight_bound_fails_with_one(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--map", "half_plane_L", "--theorem", "thm211",
            "--bound", "0.5", "--format", "plain",
        )
        assert code == 1
        assert "all_pass = false" in out

    def test_json_profile(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--map", "f0", "--theorem", "cor25", "--n", "1",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["bound"] == 1.0
        assert len(payload["r_grid"]) == 256
        assert all(payload["verdicts"])


class TestSharpness:
    def test_half_plane_witness(self, capsys):
        code, out, _ = run(
            capsys, "sharpness", "--map", "half_plane_L", "--theorem",
            "thm211", "--epsilon", "0.01",
        )
        assert code == 0
        assert "excess = 0.0602119522761" in out
        assert "positive = true" in out

    @pytest.mark.parametrize("bound", ["-1", "0", "nan"])
    def test_bad_bound_exits_two(self, capsys, bound):
        # a bound <= 0 makes any sum an excess; nan makes the excess nan
        with pytest.raises(SystemExit) as exc:
            main(["sharpness", "--map", "L", "--theorem", "thm211", "--bound", bound])
        assert exc.value.code == 2
        assert "bound must be positive and finite" in capsys.readouterr().err

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "sharpness", "--map", "harmonic_koebe_K", "--theorem",
            "thm210", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["excess"] == pytest.approx(0.0805580030649, abs=1e-9)
        assert payload["positive"] is True


class TestImageCurve:
    def test_header_and_rows(self, capsys):
        # r = 0.3485 is just past the f0 radius 0.348385..., so max_mod > 1
        code, out, _ = run(
            capsys, "image-curve", "--map", "f0", "--r", "0.3485",
            "--samples", "16",
        )
        assert code == 0
        lines = out.strip().splitlines()
        head = lines[0]
        assert head.startswith("# map=f0_sharp r=0.3485 samples=16 max_mod=")
        assert float(head.split("max_mod=")[1]) == pytest.approx(
            1.0007554472080942, abs=1e-9
        )
        assert lines[1] == "re,im"
        assert len(lines) == 18
        for row in lines[2:]:
            re, im = row.split(",")
            float(re), float(im)

    def test_r_validation(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["image-curve", "--map", "koebe", "--r", "1.0"])
        assert exc.value.code == 2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "curve.csv"
        code, out, _ = run(
            capsys, "image-curve", "--map", "koebe", "--r", "0.5",
            "--samples", "8", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        text = target.read_text()
        assert text.startswith("# map=koebe_analytic r=0.5 samples=8")

    @pytest.mark.parametrize("argv", [
        ("radius", "--theorem", "thm11"),
        ("image-curve", "--map", "koebe", "--r", "0.5", "--samples", "8"),
    ])
    def test_unwritable_out_file_is_a_usage_error(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "out.txt"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(target)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        last = captured.err.splitlines()[-1]
        assert last == f"bohrmap: error: cannot write --out {target}: No such file or directory"
        assert "Traceback" not in captured.err

    def test_unwritable_out_is_refused_before_the_command_runs(self, capsys, tmp_path,
                                                               monkeypatch):
        import bohrmap.subordination

        def campaign(**kwargs):
            raise AssertionError("the campaign ran")

        monkeypatch.setattr(bohrmap.subordination, "domination_campaign", campaign)
        for target, reason in ((tmp_path / "missing" / "x.json", "No such file or directory"),
                               (tmp_path, "Is a directory")):
            with pytest.raises(SystemExit) as exc:
                main(["subordination-campaign", "--cases", "200", "--out", str(target)])
            assert exc.value.code == 2
            last = capsys.readouterr().err.splitlines()[-1]
            assert last == f"bohrmap: error: cannot write --out {target}: {reason}"

    def test_usage_error_leaves_out_untouched(self, capsys, tmp_path):
        # the early --out check neither creates nor truncates the file
        new, old = tmp_path / "x.json", tmp_path / "old.json"
        old.write_text("kept\n")
        for target in (new, old):
            with pytest.raises(SystemExit) as exc:
                main(["subordination-campaign", "--cases", "0", "--out", str(target)])
            assert exc.value.code == 2
        assert not new.exists()
        assert old.read_text() == "kept\n"
        capsys.readouterr()


class TestCampaign:
    def test_small_campaign_json(self, capsys):
        code, out, _ = run(
            capsys, "subordination-campaign", "--cases", "3",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 6
        assert payload["all_pass"] is True
        assert payload["worst_margin"] >= -1e-9

    def test_plain_summary(self, capsys):
        code, out, _ = run(
            capsys, "subordination-campaign", "--cases", "2", "--format", "plain",
        )
        assert code == 0
        assert "worst_margin" in out
        assert "all_pass = true" in out

    def test_empty_map_list_exits_two(self, capsys):
        # a report with no case checked would read as holding
        with pytest.raises(SystemExit) as exc:
            main(["subordination-campaign", "--cases", "2", "--maps", ","])
        assert exc.value.code == 2


class TestSelfcheck:
    def test_quick_passes(self, capsys):
        code, out, _ = run(capsys, "selfcheck", "--quick")
        assert code == 0
        assert "passed 20/20" in out
        assert "FAIL" not in out

    def test_perturbation_is_detected(self, capsys):
        code, out, _ = run(capsys, "selfcheck", "--quick", "--perturb", "1e-3")
        assert code == 1
        assert "FAIL" in out


class TestParser:
    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["radius", "--theorem", "thm211", "--bogus"])
        assert exc.value.code == 2

    def test_no_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


# Imports the package, runs one command with its output dropped, and reports
# which modules are loaded afterwards.
FOOTPRINT = """
import contextlib, io, json, sys
import bohrmap
if sys.argv[1:]:
    from bohrmap.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        main(sys.argv[1:])
print(json.dumps({
    "layers": sorted(n[8:] for n in sys.modules if n.startswith("bohrmap.")),
    "numpy": "numpy" in sys.modules,
    "numpy.fft": "numpy.fft" in sys.modules,
    "dir": set(bohrmap.__all__) <= set(dir(bohrmap)),
}))
"""

RADIUS_LAYERS = ["cli", "radii", "rules", "solver"]
MAP_LAYERS = sorted(RADIUS_LAYERS + ["bohr", "catalog", "series"])
# Each command's arguments and every bohrmap submodule it leaves loaded.
FOOTPRINTS = {
    "radius": (["--theorem", "cor25", "--n", "2"], RADIUS_LAYERS),
    "table": (["--max-n", "2"], RADIUS_LAYERS),
    "verify": (["--map", "half_plane_L", "--theorem", "thm211"], MAP_LAYERS),
    "sharpness": (["--map", "half_plane_L", "--theorem", "thm211"], MAP_LAYERS),
    "image-curve": (
        ["--map", "koebe", "--r", "0.5", "--samples", "8"],
        sorted(RADIUS_LAYERS + ["catalog", "series"]),
    ),
    "subordination-campaign": (["--cases", "2"], sorted(MAP_LAYERS + ["subordination"])),
    "selfcheck": (
        ["--quick"], sorted(MAP_LAYERS + ["dilatation", "selfcheck", "subordination"])
    ),
}


# The commands that run on Python floats alone: under python -m they load no numpy.
NUMPY_FREE = {"radius", "table"}
SRC_ENV = dict(os.environ, PYTHONPATH=str(Path(bohrmap.__file__).parents[1]))


def footprint(*argv):
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT, *argv], env=SRC_ENV, capture_output=True, text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def dash_m_imports(*argv):
    """Every module a cold ``python -m bohrmap`` imports, read from ``-X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "bohrmap", *argv], env=SRC_ENV,
        capture_output=True, text=True, check=True,
    )
    lines = [line.split("|") for line in proc.stderr.splitlines()]
    return {fields[2].strip() for fields in lines if len(fields) == 3}


class TestImportFootprint:
    """Each command loads only the layers it runs; no timing is measured."""

    def test_import_loads_numpy_and_no_layer(self):
        assert footprint() == {"layers": [], "numpy": True, "numpy.fft": False, "dir": True}

    @pytest.mark.parametrize("command", sorted(FOOTPRINTS))
    def test_command_loads_only_its_layers(self, command):
        argv, layers = FOOTPRINTS[command]
        assert footprint(command, *argv)["layers"] == layers

    @pytest.mark.parametrize("command", sorted(FOOTPRINTS))
    def test_dash_m_loads_numpy_only_where_a_layer_needs_it(self, command):
        # python -m bohrmap imports the package with sys.argv[0] == "-m", and
        # then numpy comes only with a layer that needs it
        argv, layers = FOOTPRINTS[command]
        modules = dash_m_imports(command, *argv)
        assert sorted(n[8:] for n in modules if n.startswith("bohrmap.")) == layers
        assert ("numpy" in modules) is (command not in NUMPY_FREE)

    @pytest.mark.parametrize(
        "argv",
        [["radius", "--theorem", "cor25", "--n", "3"],
         ["table", "--max-n", "8", "--format", "csv"]],
        ids=["radius", "table"],
    )
    def test_radius_and_table_print_no_numpy_import(self, argv):
        assert not [n for n in dash_m_imports(*argv) if n.split(".")[0] == "numpy"]


# Loads the rules with numpy absent and then present, or present throughout;
# a numpy bool is refused and a numpy integer counts either way.
RULES_ORDER = """
import importlib.util, sys
if sys.argv[1] == "rules first":
    spec = importlib.util.spec_from_file_location("rules", sys.argv[2])
    rules = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(rules)
    assert "numpy" not in sys.modules
    import numpy as np
else:
    import numpy as np
    from bohrmap import rules
for check in (lambda: rules._check_param("K", np.bool_(True)),
              lambda: rules._check_param("n", np.bool_(True)),
              lambda: rules._check_count("M", np.bool_(True), 0)):
    try:
        check()
    except ValueError:
        continue
    raise SystemExit("a numpy bool passed")
rules._check_param("n", np.int64(3))
rules._check_count("M", np.int64(3), 0)
assert rules._is_integer(np.int64(3)) and not rules._is_integer(np.bool_(True))
print("ok")
"""


@pytest.mark.parametrize("order", ["rules first", "numpy first"])
def test_rules_tell_numpy_bools_from_integers_in_either_import_order(order):
    path = Path(bohrmap.__file__).with_name("rules.py")
    proc = subprocess.run(
        [sys.executable, "-c", RULES_ORDER, order, str(path)], env=SRC_ENV,
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr
