"""End-to-end CLI runs in temp directories: artifacts, exit codes,
determinism."""

import filecmp
import json
import os

import pytest

from endolab import conley
from endolab.cli import main

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
                   "--set", "window", "[[-1.75,1.75],[-1.75,1.75]]"])
        assert rc == 0
        dot = (out / "morse.dot").read_text()
        assert dot.startswith("// config_hash=")
        assert "digraph morse {" in dot
        assert (out / "recurrent.pgm").exists()
        rep = json.loads((out / "hurley.json").read_text())
        assert rep["items"]["i_nonrecurrent_in_basins"]["pass"]

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
        assert (out / "produced_map.json").exists()

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

    def test_infeasible_exit_code(self, tmp_path, mapfile):
        out = tmp_path / "out"
        rc = main(["perturb", "--map", mapfile(BASILICA), "--out", str(out),
                   "--set", "operation", "escaping",
                   "--set", "q", "[[0.05, 0.0]]"])
        assert rc == 3


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

    def test_bad_map_file_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["periodic", "--map", str(bad),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

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

    @pytest.mark.parametrize("cmd,key,value", [
        ("conley", "pad_mode", '"nonsense"'),
        ("conley", "pad_mode", '"subcell:0"'),
        ("conley", "pad_mode", '"fixed:0.05"'),
        ("conley", "depth", "0"),
        ("conley", "petal_threshold", '"x"'),
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
    ])
    def test_bad_subcommand_value_is_config_error(self, tmp_path, mapfile,
                                                  cmd, key, value):
        rc = main([cmd, "--map", mapfile(BASILICA),
                   "--out", str(tmp_path / "o"), "--set", key, value])
        assert rc == 2

    @pytest.mark.parametrize("value", ['"nan,0"', '[1e400, 0]'])
    def test_non_finite_slice_is_config_error(self, tmp_path, mapfile, value):
        rc = main(["julia", "--map", mapfile(SQUARES_2D),
                   "--out", str(tmp_path / "o"), "--set", "res", "16",
                   "--set", "slice", value])
        assert rc == 2

    @pytest.mark.parametrize("cmd", ["periodic", "julia", "conley",
                                     "perturb"])
    @pytest.mark.parametrize("seed", [
        ["--set", "seed", "2.5"],  # int() would truncate it
        ["--set", "seed", "true"],  # a bool is no number
        ["--set", "seed", "-1"],  # default_rng raises on a negative seed
        ["--seed", "-5"],
        ["--set", "seed", '"abc"'],
        ["--set", "seed", "1e400"],
    ], ids=["fraction", "bool", "negative", "negative_flag", "string",
            "infinite"])
    def test_bad_seed_is_config_error(self, tmp_path, mapfile, cmd, seed):
        argv = [cmd, "--map", mapfile(BASILICA), "--out", str(tmp_path / "o"),
                "--set", "m_max", "1", "--set", "seeds", "16"] + seed
        if cmd == "perturb":  # escaping is the perturb operation with a seed
            argv += ["--set", "operation", '"escaping"']
        assert main(argv) == 2

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
    ], ids=["saddle_1d", "q_length", "q_outside", "one_radius",
            "radii_decrease", "radii_repeat", "eps_string", "K_bounds",
            "radii_infinite", "q_infinite", "q_nan", "eps_infinite"])
    def test_bad_perturb_value_is_config_error(self, tmp_path, mapfile,
                                               overrides):
        argv = ["perturb", "--map", mapfile(Z2), "--out", str(tmp_path / "o")]
        for key, value in overrides:
            argv += ["--set", key, value]
        assert main(argv) == 2

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
