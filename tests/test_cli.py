"""End-to-end CLI runs in temp directories: artifacts, exit codes,
determinism."""

import filecmp
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import endolab
from endolab import cli, conley, julia, periodic, perturb
from endolab.cli import main
from endolab.maps import InputError, PolyMap, Window

Z2 = {"n": 1, "components": [[{"exps": [2], "re": 1.0, "im": 0.0}]]}
BASILICA = {"n": 1, "components": [[{"exps": [2], "re": 1.0, "im": 0.0},
                                    {"exps": [0], "re": -1.0, "im": 0.0}]]}
# z + z^2: a parabolic fixed point at 0, of multiplier 1
PARABOLIC = {"n": 1, "components": [[{"exps": [2], "re": 1.0, "im": 0.0},
                                     {"exps": [1], "re": 1.0, "im": 0.0}]]}
SQUARES_2D = {"n": 2, "components": [
    [{"exps": [2, 0], "re": 1.0, "im": 0.0}],
    [{"exps": [0, 2], "re": 1.0, "im": 0.0}]]}
FOUR_BOUNDS = "[[-2, 2], [-2, 2], [-2, 2], [-2, 2]]"


@pytest.fixture()
def mapfile(tmp_path):
    def write(spec, name="map.json"):
        p = tmp_path / name
        p.write_text(json.dumps(spec))
        return str(p)
    return write


def map_args(cmd, path):
    """--map for the subcommands that read a map; hakim exits 2 on one."""
    return [] if cmd == "hakim" else ["--map", path]


def same_tree(a, b):
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.diff_files:
        return False
    _, mismatch, errors = filecmp.cmpfiles(
        a, b, cmp.common_files, shallow=False)
    return not mismatch and not errors


class TestPeriodic:
    def test_artifacts_and_content(self, tmp_path, mapfile):
        out = tmp_path / "out"
        rc = main(["periodic", "--map", mapfile(Z2), "--out", str(out),
                   "--set", "m_max", "3", "--set", "seeds", "512"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        # 0, 1, one 2-cycle, two 3-cycles
        assert summary["cycle_count"] == 5
        # 0 is superattracting, the rest repelling: all hyperbolic
        assert summary["all_hyperbolic"] is True
        assert summary["all_transverse"] is True
        assert "config_hash" in summary["meta"]
        csv = (out / "cycles.csv").read_text()
        assert csv.startswith("# config_hash=")
        out = tmp_path / "parabolic"
        rc = main(["periodic", "--map", mapfile(PARABOLIC), "--out", str(out),
                   "--set", "m_max", "1", "--set", "seeds", "64"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["all_hyperbolic"] is False
        assert summary["fraction_hyperbolic"] < 1.0

    def test_bitwise_reproducible(self, tmp_path, mapfile):
        m = mapfile(Z2)
        for d in ("a", "b"):
            rc = main(["periodic", "--map", m, "--out", str(tmp_path / d),
                       "--set", "m_max", "3", "--set", "seeds", "512"])
            assert rc == 0
        assert same_tree(str(tmp_path / "a"), str(tmp_path / "b"))


class TestJulia:
    def test_artifacts(self, tmp_path, mapfile):
        out = tmp_path / "out"
        rc = main(["julia", "--map", mapfile(Z2), "--out", str(out),
                   "--set", "res", "64", "--set", "m_max", "4",
                   "--set", "seeds", "512"])
        assert rc == 0
        for name in ("grid.pgm", "grid.json", "boundary.csv",
                     "repellers.csv", "hausdorff.json"):
            assert (out / name).exists()
        pgm = (out / "grid.pgm").read_bytes()
        assert pgm.startswith(b"P5\n# config_hash=")
        hd = json.loads((out / "hausdorff.json").read_text())
        assert hd["repeller_count"] > 0 and hd["boundary_count"] > 0

    def test_bitwise_reproducible(self, tmp_path, mapfile):
        m = mapfile(Z2)
        for d in ("a", "b"):
            rc = main(["julia", "--map", m, "--out", str(tmp_path / d),
                       "--set", "res", "64", "--set", "m_max", "3",
                       "--set", "seeds", "256"])
            assert rc == 0
        assert same_tree(str(tmp_path / "a"), str(tmp_path / "b"))


class TestConley:
    def test_artifacts(self, tmp_path, mapfile):
        out = tmp_path / "out"
        rc = main(["conley", "--map", mapfile(BASILICA), "--out", str(out),
                   "--set", "depth", "4", "--set", "m_max", "2",
                   "--set", "window", "[[-1.75,1.75],[-1.75,1.75]]",
                   "--set", "petal_threshold", "-0.5"])  # any finite real
        assert rc == 0
        dot = (out / "morse.dot").read_text()
        assert dot.startswith("// config_hash=")
        assert "digraph morse {" in dot
        assert (out / "recurrent.pgm").exists()
        rep = json.loads((out / "hurley.json").read_text())
        assert rep["items"]["i_nonrecurrent_in_basins"]["pass"]
        assert "iv_petal_chain_recurrent" in rep["items"]

    @pytest.mark.parametrize("value", ["-1e-3", "-1E-3", "-10e-4"])
    def test_negative_value_with_an_exponent(self, tmp_path, mapfile, value):
        # argparse takes a token that starts with "-" for an option unless
        # it reads it as a negative number; -0.001 always ran
        m = mapfile(BASILICA)
        for d, v in (("a", "-0.001"), ("b", value)):
            rc = main(["conley", "--map", m, "--out", str(tmp_path / d),
                       "--set", "depth", "3", "--set", "m_max", "1",
                       "--set", "petal_threshold", v])
            assert rc == 0
        assert same_tree(str(tmp_path / "a"), str(tmp_path / "b"))

    def test_bitwise_reproducible(self, tmp_path, mapfile):
        m = mapfile(BASILICA)
        for d in ("a", "b"):
            rc = main(["conley", "--map", m, "--out", str(tmp_path / d),
                       "--set", "depth", "4", "--set", "m_max", "2"])
            assert rc == 0
        assert same_tree(str(tmp_path / "a"), str(tmp_path / "b"))


class TestPerturb:
    def test_make_periodic(self, tmp_path, mapfile):
        out = tmp_path / "out"
        rc = main(["perturb", "--map", mapfile(Z2), "--out", str(out),
                   "--set", "operation", "make_periodic",
                   "--set", "q", "[[0.41, 0.13]]",
                   "--set", "m", "2", "--set", "kind",
                   "super_attracting", "--set", "budget", "10"])
        assert rc == 0
        ver = json.loads((out / "verification.json").read_text())
        assert ver["kind"] == "super_attracting" and ver["period"] == 3
        # the produced map reads back as a map: it carries no meta key
        doc = json.loads((out / "produced_map.json").read_text())
        assert "meta" not in doc
        h = PolyMap.from_json_dict(doc)
        q = np.array([0.41 + 0.13j])
        assert np.abs(h.iterate(q, 3) - q).max() < 1e-8
        assert np.abs(h.iterate(q, 1) - q).max() > 1e-3

    def test_escaping(self, tmp_path, mapfile):
        out = tmp_path / "out"
        rc = main(["perturb", "--map", mapfile(Z2), "--out", str(out),
                   "--set", "operation", "escaping",
                   "--set", "q", "[[1.1, 0.0]]"])
        assert rc == 0
        ver = json.loads((out / "verification.json").read_text())
        assert ver["exits_last_window"]
        eps = 1.0
        for s, nm in enumerate(ver["stage_norms"]):
            assert nm <= eps / 2 ** (s + 1)

    def test_infeasible_exit_code(self, tmp_path, mapfile, capsys):
        # q = 0.05 is in the basilica's Fatou set: its orbit never leaves
        # the first window, which the escaping construction finds at stage 0
        rc = main(["perturb", "--map", mapfile(BASILICA),
                   "--out", str(tmp_path / "esc"),
                   "--set", "operation", "escaping",
                   "--set", "q", "[[0.05, 0.0]]"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("infeasible: ") and "(stage 0)" in err
        # one monomial cannot meet the orbit's jet constraints
        rc = main(["perturb", "--map", mapfile(Z2),
                   "--out", str(tmp_path / "mp"),
                   "--set", "q", "[[0.41, 0.13]]", "--set", "m", "2",
                   "--set", "budget", "1"])
        assert rc == 3
        assert capsys.readouterr().err.startswith("infeasible: ")
        # exit 3 writes nothing: neither --out directory is made
        assert not (tmp_path / "esc").exists()
        assert not (tmp_path / "mp").exists()


class TestHakim:
    def test_run(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["hakim", "--out", str(out), "--set", "steps", "2000",
                   "--set", "start", "[[-0.5, 0.0]]"])
        assert rc == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["multipliers"] == [{"re": 1.0, "im": 0.0}]
        decay = (out / "decay.csv").read_text().splitlines()
        assert decay[1] == "k,norm,k_times_norm"


class TestErrors:
    def test_missing_map_is_config_error(self, tmp_path):
        rc = main(["periodic", "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("text", [
        "{not json",
        "[1, 2]",
        '"abc"',
        '{"n": 1, "components": 5}',
        '{"n": 1, "components": [[5]]}',
        # a map is a polynomial term table and nothing else
        '{"n": 1, "entire": {"kind": "sin"}}',
        json.dumps({**BASILICA, "entire": {"kind": "sin"}}),
    ], ids=["not_json", "list", "string", "int_components", "int_term",
            "entire", "basilica_entire"])
    def test_bad_map_file_is_config_error(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        rc = main(["periodic", "--map", str(bad),
                   "--out", str(tmp_path / "o"),
                   "--set", "m_max", "1", "--set", "seeds", "16"])
        assert rc == 2
        if text[0] in '["':  # not read as a list of keys
            err = capsys.readouterr().err
            assert err.endswith("bad map spec: a map is a JSON object\n")

    def test_number_as_map_is_config_error(self, tmp_path):
        # open(0) would read the map from stdin: a map spec is a JSON
        # object or a path string.  A subprocess keeps this run's fd 0
        cmd = [sys.executable, "-m", "endolab.cli", "periodic",
               "--set", "map", "0", "--out", str(tmp_path / "o"),
               "--set", "m_max", "1", "--set", "seeds", "16"]
        src = os.path.dirname(os.path.dirname(endolab.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run(cmd, input=json.dumps(BASILICA), env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 2, run.stderr
        assert not (tmp_path / "o").exists()

    def test_bad_key_value_is_config_error(self, tmp_path, mapfile):
        rc = main(["periodic", "--map", mapfile(Z2),
                   "--out", str(tmp_path / "o"),
                   "--set", "m_max", "-3"])
        assert rc == 2

    def test_config_file_plus_override(self, tmp_path, mapfile):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"m_max": 2, "seeds": 256}))
        out = tmp_path / "out"
        rc = main(["periodic", "--map", mapfile(Z2),
                   "--config", str(cfgfile), "--out", str(out),
                   "--set", "m_max", "1"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["cycle_count"] == 2  # fixed points only

    @pytest.mark.parametrize("text", ["[1, 2]", "3", '"abc"', "null"])
    def test_config_file_not_an_object_is_config_error(self, tmp_path,
                                                       mapfile, text):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(text)
        out = tmp_path / "o"
        rc = main(["periodic", "--map", mapfile(Z2), "--config", str(cfgfile),
                   "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_typo_key_names_the_nearest_key(self, tmp_path, mapfile, capsys):
        out = tmp_path / "o"
        rc = main(["periodic", "--map", mapfile(Z2), "--out", str(out),
                   "--set", "m_maxx", "1"])
        assert rc == 2
        assert not out.exists()
        assert "'m_max'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["periodic", "--set", "pad_mode", '"x"'],
        ["perturb", "--set", "operation", "escaping", "--set", "m", "2"],
        ["perturb", "--set", "operation", "escaping", "--set", "K",
         "[[-2, 2], [-2, 2]]"],
        ["perturb", "--set", "radii", "[2, 3, 4, 5]"],  # make_periodic's
        ["conley", "--set", "seeds", "16"],
        ["julia", "--set", "depth", "2"],
        ["hakim", "--set", "q", "[[-0.2, 0.0]]"],
    ], ids=["pad_mode_periodic", "m_escaping", "K_escaping",
            "radii_make_periodic", "seeds_conley", "depth_julia",
            "q_hakim"])
    def test_key_of_another_subcommand_is_config_error(self, tmp_path,
                                                       mapfile, argv):
        out = tmp_path / "o"
        rc = main(argv + map_args(argv[0], mapfile(Z2)) + ["--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_unknown_operation_names_the_nearest(self, tmp_path, mapfile,
                                                 capsys):
        for op in ("escapin", "[1]"):  # an unhashable value too
            rc = main(["perturb", "--map", mapfile(Z2),
                       "--out", str(tmp_path / "o"), "--set", "operation", op])
            assert rc == 2
        assert "'escaping'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("cmd,key,value", [
        ("conley", "pad_mode", '"nonsense"'),
        ("conley", "pad_mode", '"subcell:0"'),
        ("conley", "pad_mode", '"fixed:0.05"'),
        ("conley", "depth", "0"),
        ("conley", "petal_threshold", '"x"'),
        # a petal threshold is a finite real: no bool, NaN or infinity
        ("conley", "petal_threshold", "true"),
        ("conley", "petal_threshold", "NaN"),
        ("conley", "petal_threshold", "1e400"),
        ("conley", "petal_threshold", "-1e400"),
        ("conley", "petal_threshold", " -1e400"),  # JSON allows the space
        ("julia", "res", "1"),
        ("julia", "slice", '"a,b"'),
        ("julia", "R", '"x"'),
        ("julia", "R", "-1"),
        ("perturb", "kind", '"spiral"'),
        # four bounds are a 2-D window; the map is 1-D
        ("periodic", "window", FOUR_BOUNDS),
        ("julia", "window", FOUR_BOUNDS),
        ("conley", "window", FOUR_BOUNDS),
        # JSON reads 1e400 as an infinite float
        ("periodic", "window", "[[-1e400, 1e400], [-1, 1]]"),
        # an infinite count: int(inf) overflows
        ("periodic", "m_max", "1e400"),
        ("conley", "depth", "1e400"),
        ("julia", "res", "1e400"),
        ("julia", "n_max", "1e400"),
        ("perturb", "m", "1e400"),
        ("perturb", "budget", "1e400"),
        ("hakim", "steps", "1e400"),
        # a 1-D map's grid has no coordinates past z_1
        ("julia", "slice", '"0.1,0"'),
        # a Newton tol above the 1e-8 dedup leaves copies of each root
        ("periodic", "tol", "1e400"),
        ("periodic", "tol", "1e-6"),
        # a count is an integer: int() would truncate a fraction
        ("periodic", "m_max", "2.7"),
        ("periodic", "seeds", "16.9"),
        ("julia", "res", "16.9"),
        ("julia", "n_max", "10.5"),
        ("conley", "depth", "2.5"),
        ("perturb", "budget", "7.5"),
        ("hakim", "steps", "2.5"),
        # a bool is no number: int(true) and float(true) are 1
        ("periodic", "m_max", "true"),
        ("julia", "R", "true"),
        ("hakim", "dim", "true"),
        # nor is it a coordinate: complex(true, false) is 1
        ("periodic", "window", "[[false, true], [-1, 1]]"),
        ("perturb", "K", "[[-2, 2], [-2, true]]"),
        ("perturb", "q", "[[true, false]]"),
        ("hakim", "start", "[[-0.2, false]]"),
        # a setting is a JSON number: float("3") and int("2") would pass
        ("julia", "R", '"3"'),
        ("periodic", "m_max", '"2"'),
        # and so is a coordinate: float("-2") is -2
        ("periodic", "window", '[["-2", "2"], [-2, 2]]'),
        ("perturb", "K", '[["-2", "2"], [-2, 2]]'),
    ])
    def test_bad_subcommand_value_is_config_error(self, tmp_path, mapfile,
                                                  cmd, key, value):
        rc = main([cmd, "--map", mapfile(BASILICA),
                   "--out", str(tmp_path / "o"), "--set", key, value])
        assert rc == 2

    # a bool is no coordinate either: float(true) is 1
    # and the "re,im" form holds JSON numbers: float() reads "1_0" as 10
    @pytest.mark.parametrize("value", ['"nan,0"', '[1e400, 0]', '[true, 0]',
                                       '["0.1", "0"]', '"1_0,0"', '"0x1,0"',
                                       '"1e400,0"', '" 1,0"', '"1,0,"',
                                       '"+1,0"', '"1.,0"'])
    def test_non_finite_slice_is_config_error(self, tmp_path, mapfile, value):
        rc = main(["julia", "--map", mapfile(SQUARES_2D),
                   "--out", str(tmp_path / "o"), "--set", "res", "16",
                   "--set", "slice", value])
        assert rc == 2
        assert not (tmp_path / "o").exists()

    def test_slice_string_keeps_its_values(self):
        for s, want in (("0.1,0", (0.1, 0.0)), ("-1.5e-3,2", (-0.0015, 2.0)),
                        ("0,-0.25E+1", (0.0, -2.5))):
            assert cli._parse_slice({"slice": s}, "slice", None, 2) == want

    @pytest.mark.parametrize("cmd", ["periodic", "julia", "conley",
                                     "perturb"])
    @pytest.mark.parametrize("seed", [
        ["--set", "seed", "2.5"],  # int() would truncate it
        ["--set", "seed", "true"],  # a bool is no number
        ["--set", "seed", "-1"],  # default_rng raises on a negative seed
        ["--seed", "-5"],
        ["--set", "seed", '"abc"'],
        ["--set", "seed", '"5"'],  # int("5") would pass
        ["--set", "seed", "1e400"],
    ], ids=["fraction", "bool", "negative", "negative_flag", "string",
            "string_number", "infinite"])
    def test_bad_seed_is_config_error(self, tmp_path, mapfile, capsys, cmd,
                                      seed):
        own = {  # keys of each subcommand's own table
            "periodic": ["--set", "m_max", "1", "--set", "seeds", "16"],
            "julia": ["--set", "m_max", "1", "--set", "seeds", "16"],
            "conley": ["--set", "m_max", "1", "--set", "depth", "2"],
            # escaping is the perturb operation with a seed
            "perturb": ["--set", "operation", '"escaping"'],
        }
        out = tmp_path / "o"
        argv = [cmd, "--map", mapfile(BASILICA), "--out", str(out)]
        assert main(argv + own[cmd] + seed) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_float_seed_is_accepted(self, tmp_path, mapfile):
        runs = {}
        for seed in ("3", "3.0"):
            out = tmp_path / seed
            rc = main(["periodic", "--map", mapfile(BASILICA), "--out",
                       str(out), "--set", "m_max", "2", "--set", "seeds",
                       "32", "--set", "seed", seed])
            assert rc == 0
            runs[seed] = (out / "cycles.csv").read_text().splitlines()[1:]
            summary = json.loads((out / "summary.json").read_text())
            assert summary["seed"] == json.loads(seed)  # kept as given
        assert runs["3"] == runs["3.0"]

    def test_integral_float_count_is_accepted(self, tmp_path, mapfile):
        out = tmp_path / "o"
        rc = main(["periodic", "--map", mapfile(Z2), "--out", str(out),
                   "--set", "m_max", "1.0", "--set", "seeds", "64.0"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["cycle_count"] == 2

    def test_infinite_R_is_config_error(self, tmp_path, mapfile):
        # JSON reads 1e400 as an infinite R, which grid.json cannot hold
        rc = main(["julia", "--map", mapfile(BASILICA),
                   "--out", str(tmp_path / "o"), "--set", "res", "16",
                   "--set", "R", "1e400"])
        assert rc == 2

    def test_bad_hakim_dim_is_config_error(self, tmp_path):
        rc = main(["hakim", "--out", str(tmp_path / "o"), "--set", "dim", "3"])
        assert rc == 2

    @pytest.mark.parametrize("start", [
        "[[0.5, 0.0]]",  # outside the strip -1 < Re < 0
        "[[-0.2, 0.0], [-0.2, 0.0]]",  # two coordinates for dim 1
    ])
    def test_bad_hakim_start_is_config_error(self, tmp_path, start):
        rc = main(["hakim", "--out", str(tmp_path / "o"),
                   "--set", "start", start])
        assert rc == 2

    @pytest.mark.parametrize("overrides", [
        [("kind", '"saddle"')],  # saddle cycles need n >= 2
        [("operation", '"escaping"'),
         ("q", "[[1.1, 0.0], [1.2, 0.0]]")],  # two points for n = 1
        [("operation", '"escaping"'),
         ("q", "[[2.5, 0.0]]")],  # outside the first window
        [("operation", '"escaping"'), ("radii", "[2.0]")],  # one window
        [("operation", '"escaping"'), ("radii", "[3.0, 2.0]")],
        [("operation", '"escaping"'), ("radii", "[2.0, 2.0]")],
        [("operation", '"escaping"'), ("eps", '"x"')],
        [("K", FOUR_BOUNDS)],  # a 2-D window for a 1-D map
        [("operation", '"escaping"'), ("radii", "[1.5, 1e400]")],
        [("q", "[[1e400, 0]]")],
        [("q", "[[NaN, 0]]")],
        [("operation", '"escaping"'), ("eps", "1e400")],
        # a bool is no coordinate: complex(true, false) is 1
        [("operation", '"escaping"'), ("q", "[[true, false]]")],
        [("operation", '"escaping"'), ("q", "[[0.9, 0.5]]"),
         ("radii", "[true, 3, 4, 5]")],
        [("operation", '"escaping"'), ("radii", '["2", 3, 4, 5]')],
    ], ids=["saddle_1d", "q_length", "q_outside", "one_radius",
            "radii_decrease", "radii_repeat", "eps_string", "K_bounds",
            "radii_infinite", "q_infinite", "q_nan", "eps_infinite",
            "q_bool", "radii_bool", "radii_string"])
    def test_bad_perturb_value_is_config_error(self, tmp_path, mapfile,
                                               overrides):
        argv = ["perturb", "--map", mapfile(Z2), "--out", str(tmp_path / "o")]
        for key, value in overrides:
            argv += ["--set", key, value]
        assert main(argv) == 2

    @pytest.mark.parametrize("cmd,key,value", [
        ("hakim", "start", "[[0.5, 0.0]]"),
        ("conley", "pad_mode", '"nonsense"'),
    ])
    def test_library_range_error_leaves_no_outdir(self, tmp_path, mapfile,
                                                  cmd, key, value):
        out = tmp_path / "o"
        rc = main([cmd, *map_args(cmd, mapfile(BASILICA)), "--out", str(out),
                   "--set", key, value])
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "set", "config"])
    def test_map_given_to_hakim_is_config_error(self, tmp_path, mapfile,
                                                source):
        # hakim reads no map: one given would be hashed into its artifacts
        path, out = mapfile(BASILICA), tmp_path / "o"
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"map": path}))
        given = {"flag": ["--map", path],
                 "set": ["--set", "map", json.dumps(path)],
                 "config": ["--config", str(cfgfile)]}[source]
        rc = main(["hakim", "--out", str(out), "--set", "steps", "10", *given])
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize("under", [False, True],
                             ids=["file", "under_file"])
    def test_out_naming_a_file_is_config_error(self, tmp_path, capsys,
                                               monkeypatch, under):
        # checked before the run: the experiment is never called, and the
        # file is left as it was
        def ran(**kwargs):
            raise AssertionError("hakim ran before --out was checked")

        monkeypatch.setattr(perturb, "hakim_experiment", ran)
        afile = tmp_path / "afile"
        afile.write_text("kept")
        out = afile / "o" if under else afile
        rc = main(["hakim", "--out", str(out), "--set", "steps", "10"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"config error: --out {out}: {afile} is not a directory\n")
        assert afile.read_text() == "kept"

    def test_library_value_error_propagates(self, tmp_path, mapfile,
                                            monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("internal inconsistency")

        monkeypatch.setattr(conley, "hurley_report", broken)
        with pytest.raises(ValueError, match="internal inconsistency"):
            main(["conley", "--map", mapfile(BASILICA),
                  "--out", str(tmp_path / "o"), "--set", "depth", "2"])

    def test_threads_flag_is_gone(self, tmp_path, mapfile):
        with pytest.raises(SystemExit):
            main(["periodic", "--map", mapfile(Z2),
                  "--out", str(tmp_path / "o"), "--threads", "2"])


F1 = PolyMap.from_coeffs_1d([-1, 0, 1])
F2 = PolyMap.from_json_dict(SQUARES_2D)
W1 = Window.square(1, -2, 2)
W2 = Window.square(2, -2, 2)
RADII = (2, 3, 4, 5)


def _windows(*radii):
    return [Window.square(1, -r, r) for r in radii]


# each range rule the library owns, broken: the CLI exits 2 on it
@pytest.mark.parametrize("call", [
    lambda: periodic.find_periodic(F1, 0, W1),
    lambda: periodic.find_periodic(F1, 1, W1, seeds=0),
    lambda: periodic.find_periodic(F1, 1, W1, tol=0.0),
    lambda: periodic.find_periodic(F1, 1, W1, tol=1e-6),
    lambda: periodic.find_periodic(F1, 1, W1, tol=float("nan")),
    lambda: julia.escape_grid(F1, W1, 1, 10, 2.0),
    lambda: julia.escape_grid(F1, W1, 8, 10, 2.0, fixed=(0.1, 0.0)),
    lambda: julia.escape_grid(F2, W2, 8, 10, 2.0, fixed=(0.1,)),
    lambda: julia.escape_grid(F2, W2, 8, 10, 2.0, fixed=(np.inf, 0.0)),
    lambda: conley.pad_spec("nonsense"),
    lambda: conley.pad_spec("subcell:0"),
    lambda: conley.pad_spec("subcell:x"),
    # int() reads each of these as a count
    lambda: conley.pad_spec("subcell:+3"),
    lambda: conley.pad_spec("subcell: 3"),
    lambda: conley.pad_spec("subcell:03"),
    lambda: conley.pad_spec("subcell:\u0663"),  # ARABIC-INDIC DIGIT THREE
    lambda: conley.pad_spec("subcell:1_0"),
    lambda: conley.build_box_map(F1, W1, 0),
    lambda: perturb.make_periodic_point(F1, [0.3], 1, "spiral", W1, 8),
    lambda: perturb.make_periodic_point(F1, [0.3], 1, "saddle", W1, 8),
    lambda: perturb.escaping_construction(F1, [1.1], _windows(2), 1.0, 30),
    lambda: perturb.escaping_construction(
        F1, [1.1], _windows(*range(2, 10)), 1.0, 30),
    lambda: perturb.escaping_construction(
        F1, [2.5], _windows(*RADII), 1.0, 30),
    lambda: perturb.escaping_construction(
        F1, [1.1], _windows(3, 2, 4, 5), 1.0, 30),
    lambda: perturb.escaping_construction(
        F1, [1.1], _windows(2, 3, 3, 5), 1.0, 30),
    lambda: perturb.hakim_experiment(3, [-0.2, -0.2, -0.2]),
    lambda: perturb.hakim_experiment(1, [0.5]),
    lambda: perturb.hakim_experiment(2, [-0.2, -1.0]),
    lambda: perturb.hakim_experiment(1, [-0.2], steps=0),
], ids=["m_max", "seeds", "tol_zero", "tol_above_dedup", "tol_nan",
        "res", "slice_1d", "slice_count", "slice_infinite", "pad_mode",
        "pad_subcell_0", "pad_subcell_x", "pad_plus", "pad_space",
        "pad_leading_zero", "pad_arabic_digit", "pad_underscore", "depth",
        "kind", "saddle_1d", "one_window", "eight_windows", "q_outside", "windows_shrink",
        "windows_repeat", "hakim_dim", "hakim_start", "hakim_strip_edge",
        "hakim_steps"])
def test_library_range_rule_raises_input_error(call):
    with pytest.raises(InputError):
        call()


def test_pad_spec_accepted_spellings():
    assert [conley.pad_spec(m) for m in
            ("jacobian", "subcell", "subcell:1", "subcell:3", "subcell:10")
            ] == [1, 2, 1, 3, 10]


# the tables of cli.py by README heading; perturb has one per operation
TABLES = {"periodic": cli.PERIODIC_KEYS, "julia": cli.JULIA_KEYS,
          "conley": cli.CONLEY_KEYS, "hakim": cli.HAKIM_KEYS,
          **{f"perturb {op}": t for op, t in cli.PERTURB_KEYS.items()}}
# a valid value for every key of every table, on the map z^2
VALID = {
    "periodic": {"window": [[-2, 2], [-2, 2]], "m_max": 1, "seeds": 16,
                 "tol": 1e-10},
    "julia": {"window": [[-2, 2], [-2, 2]], "res": 16, "n_max": 20,
              "m_max": 1, "seeds": 16, "R": 3, "slice": []},
    "conley": {"window": [[-2, 2], [-2, 2]], "depth": 2,
               "samples_per_box": 2, "pad_mode": "subcell:2", "m_max": 1,
               "petal_threshold": 0.1},
    "perturb make_periodic": {"operation": "make_periodic",
                              "q": [[0.41, 0.13]], "m": 2,
                              "kind": "super_attracting",
                              "K": [[-2, 2], [-2, 2]], "budget": 10},
    "perturb escaping": {"operation": "escaping", "q": [[1.1, 0.0]],
                         "radii": [2, 3, 4, 5], "eps": 1.0, "budget": 30},
    "hakim": {"dim": 1, "start": [[-0.5, 0.0]], "steps": 100},
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_every_table_key_is_accepted(tmp_path, mapfile, name):
    values = VALID[name]
    assert set(values) == set(TABLES[name])
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({**values, "seed": 1}))
    cmd = name.split()[0]
    rc = main([cmd, *map_args(cmd, mapfile(Z2)),
               "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert rc == 0


def test_readme_key_tables_match_cli():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    heads = re.findall(r"^#### `(\w+)`(?:, operation `(\w+)`)?\n\n"
                       r"((?:\|.*\n)+)", readme, re.M)
    found = {f"{cmd} {op}".strip(): re.findall(r"^\| `(\w+)` \|", body, re.M)
             for cmd, op, body in heads}
    assert {name: sorted(keys) for name, keys in found.items()} == {
        name: sorted(table) for name, table in TABLES.items()}
