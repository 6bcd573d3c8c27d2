"""Batch command-line front end.

One subcommand per experiment (periodic, julia, conley, perturb, hakim);
a single JSON config document carries the parameters and every flag is
an override of a config key.  Outputs are deterministic under a fixed
seed and each file embeds the config hash and tool version.

Each subcommand takes the config and returns its artifacts as {file
name: payload}.  `main` alone maps the exit codes: 0 ok, 2 config error
(InputError), 3 infeasible construction (InfeasibleError); only on 0
does it make `--out` and write every artifact, through the `reporting`
writer of its suffix.  An `--out` that names a file, or lies under one,
exits 2 before any work.  Each subcommand names its config keys once, in a
table of key -> (reader, default); any other key but `seed`, and `map`
where the subcommand reads a map, exits 2.  So does a value of the wrong
type, which the readers check, or out of range, which the library
rejects with InputError before any work.  Any other error propagates, so
a library bug is not reported as a config error; nor is what only
iterating can find, a hakim start whose orbit leaves the petal or
colliding or degenerate orbit points in a perturb construction.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from functools import partial

import numpy as np

from . import __version__
from .maps import InfeasibleError, InputError, PolyMap, Window, escape_radius
# conley loads scipy.sparse, and perturb scipy.linalg inside
# interpolate_correction; periodic and julia load neither module, so only
# the subcommands that run one import it
from . import julia, periodic, reporting

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
_NUMBER = r"-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][-+]?[0-9]+)?"  # JSON's grammar


def _load_config(args):
    cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise InputError(f"bad config file: {e}") from e
        if not isinstance(cfg, dict):
            raise InputError("a config file holds a JSON object")
    for key, raw in args.override or []:
        try:
            cfg[key] = json.loads(raw)
        except json.JSONDecodeError:
            cfg[key] = raw
    if args.map:
        cfg["map"] = args.map
    if args.seed is not None:
        cfg["seed"] = args.seed
    cfg.setdefault("seed", 0)
    _positive(cfg, "seed", 0, low=-1)  # a seed is an integer >= 0
    return cfg


def _get_map(cfg):
    spec = cfg.get("map")
    if spec is None:
        raise InputError("no map given (use --map or config key 'map')")
    if not isinstance(spec, (dict, str)):  # open() reads an int as an fd
        raise InputError("a map is a JSON object or a file path")
    try:
        if isinstance(spec, dict):
            return PolyMap.from_json_dict(spec)
        with open(spec) as fh:
            return PolyMap.from_json_dict(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise InputError(f"bad map spec: {e}") from e


def _array(cfg, key, default, shape):
    """cfg[key] as a finite float array of `shape`, -1 being any length,
    read from JSON numbers only: float(True) is 1 and float("2") is 2."""
    v = cfg.get(key, default)
    flat = [v]
    for x in flat:  # grows as nested lists are met
        flat.extend(x if isinstance(x, list) else ())
    a = np.array(np.nan)  # no array: fails the checks below
    if all(type(x) in (list, int, float) for x in flat):  # no bool or str
        try:
            a = np.array(v, dtype=float)
        except (ValueError, OverflowError):  # ragged; an int past float
            pass
    if a.ndim == len(shape) and np.isfinite(a).all() and all(
            s in (-1, t) for s, t in zip(shape, a.shape)):
        return a
    dims = ", ".join("k" if s < 0 else str(s) for s in shape)
    raise InputError(f"{key} needs finite numbers of shape ({dims}), "
                     f"got {v!r}")


def _window(key, bounds):
    """A Window from (lo, hi) pairs; a degenerate interval exits 2."""
    try:
        return Window(bounds=tuple(map(tuple, bounds)))
    except ValueError as e:
        raise InputError(f"bad {key}: {e}") from None


def _get_window(cfg, key, default, n):
    """2n (lo, hi) bounds; absent or null, the default pair on each axis."""
    if cfg.get(key) is None:
        return Window.square(n, *default)
    return _window(key, _array(cfg, key, None, (2 * n, 2)).tolist())


def _positive(cfg, key, default, n=None, low=0):
    """A finite number above `low`, of the default's type (a None default:
    a float, or None when absent or null)."""
    v = cfg.get(key, default)
    if v is None and default is None:
        return None
    try:
        x = (float if default is None else type(default))(v)
        if isinstance(v, (bool, str)) or isinstance(v, float) and x != v:
            raise ValueError  # a bool or str is no number; int(2.7) is 2
    except (TypeError, ValueError, OverflowError):  # int(inf) overflows
        raise InputError(f"bad value for {key}: {v!r}") from None
    if not low < x < float("inf"):  # NaN too
        raise InputError(f"{key} must be finite and above {low}")
    return x


def _points(cfg, key, default, n):
    """n [re, im] pairs as an (n,) complex array; default: one pair."""
    pairs = _array(cfg, key, [default] * n, (n, 2)).tolist()
    return np.array([complex(re, im) for re, im in pairs])


def _numbers(cfg, key, default, n):
    """A list of finite numbers, of any length."""
    return _array(cfg, key, default, (-1,)).tolist()


def _parse_slice(cfg, key, default, n):
    """A list of numbers, or the string "re,im" of JSON numbers."""
    s = cfg.get(key, default)
    if isinstance(s, str) and re.fullmatch(rf"{_NUMBER}(,{_NUMBER})*", s):
        cfg = {key: json.loads(f"[{s}]")}  # any other string fails _array
    return () if s is None else tuple(_numbers(cfg, key, None, n))


def _given(cfg, key, default, n):
    """The value as given: the library checks it."""
    return cfg.get(key, default)


def _known(what, name, names):
    """InputError, naming the nearest of `names`, unless name is one."""
    if name not in names:  # a list: an unhashable name is no error here
        import difflib  # only a config error loads it
        near = difflib.get_close_matches(str(name), names, 1, 0)[0]
        raise InputError(f"unknown {what} {name!r}; the nearest is {near!r}")


def _read(cfg, table, n):
    """{key: reader(cfg, key, default, n)} over a table, n being the map's
    dimension; any key but `map`, `seed` and the table's exits 2 (hakim,
    which reads no map, rejects `map` itself)."""
    for key in cfg:
        _known("config key", key, [*table, "map", "seed"])
    return {key: reader(cfg, key, default, n)
            for key, (reader, default) in table.items() if reader}


# ---------------------------------------------------------------------------
# subcommands, and the config keys of each: key -> (reader, default)

WINDOW = (_get_window, [-2.0, 2.0])  # [-2, 2] on every real axis
PERIODIC_KEYS = {"window": WINDOW, "m_max": (_positive, 3),
                 "seeds": (_positive, 1024), "tol": (_positive, 1e-10)}
JULIA_KEYS = {"window": WINDOW, "res": (_positive, 512),
              "n_max": (_positive, 200), "m_max": (_positive, 6),
              "seeds": (_positive, 2048), "slice": (_parse_slice, None),
              "R": (_positive, None)}  # None: escape_radius(f)
CONLEY_KEYS = {"window": WINDOW, "depth": (_positive, 5),
               "samples_per_box": (_positive, 8), "m_max": (_positive, 3),
               "pad_mode": (_given, "jacobian"),
               # any finite real, a negative one too; None: no petal check
               "petal_threshold": (partial(_positive, low=-np.inf), None)}
PERTURB_KEYS = {  # one per operation, which cmd_perturb reads itself
    "make_periodic": {"operation": (None, None), "q": (_points, [0.3, 0.0]),
                      "m": (_positive, 1), "K": WINDOW,
                      "kind": (_given, "super_attracting"),
                      "budget": (_positive, 8)},
    "escaping": {"operation": (None, None), "q": (_points, [1.1, 0.0]),
                 "radii": (_numbers, [2.0, 3.0, 4.0, 5.0]),
                 "eps": (_positive, 1.0), "budget": (_positive, 30)}}
HAKIM_KEYS = {"dim": (_positive, 1), "start": (_points, [-0.2, 0.0]),
              "steps": (_positive, 10_000)}


def cmd_periodic(cfg):
    f = _get_map(cfg)
    rep = periodic.hyperbolicity_report(f, seed=int(cfg["seed"]),
                                        **_read(cfg, PERIODIC_KEYS, f.n))
    cycles = rep["cycles"]
    klasses = [c.klass for c in cycles]
    hyperbolic = len(cycles) - klasses.count("non_hyperbolic")
    return {"cycles.csv": periodic.cycles_to_csv(cycles, f.n),
            "summary.json": {
                "cycle_count": len(cycles),
                "by_class": {k: klasses.count(k) for k in set(klasses)},
                "all_hyperbolic": rep["all_hyperbolic"],
                "all_transverse": rep["all_transverse"],
                "fraction_hyperbolic": (hyperbolic / len(cycles) if cycles
                                        else 1.0),
                "seed": cfg["seed"]}}


def cmd_julia(cfg):
    f = _get_map(cfg)
    v = _read(cfg, JULIA_KEYS, f.n)
    R = v["R"]
    if R is None:
        try:
            R = escape_radius(f)
        except ValueError as e:
            raise InputError(f"supply R in config: {e}") from e
    grid = julia.escape_grid(f, v["window"], v["res"], v["n_max"], R,
                             fixed=v["slice"])
    boundary = julia.boundary_extract(grid)
    repellers = julia.repeller_cloud(f, v["m_max"], v["window"],
                                     seeds=v["seeds"], seed=int(cfg["seed"]))
    hd = None
    if len(boundary) and len(repellers):
        hd = julia.hausdorff(repellers, boundary)
    return {"grid.pgm": julia.grid_image(grid),
            "grid.json": {
                "res": grid.res, "n_max": v["n_max"],
                "R": cfg.get("R") or R,  # a given R as given
                "bounded_cells": int((~grid.escaped).sum()),
                "escaped_cells": int(grid.escaped.sum()),
                "cellwidth": grid.cellwidth,
                "boundary_empty_warning": len(boundary) == 0,
                "seed": cfg["seed"]},
            "boundary.csv": julia.cloud_to_csv(boundary, f.n),
            "repellers.csv": julia.cloud_to_csv(repellers, f.n),
            "hausdorff.json": {"hausdorff": hd,
                               "repeller_count": len(repellers),
                               "boundary_count": len(boundary)}}


def cmd_conley(cfg):
    from . import conley
    f = _get_map(cfg)
    report, g, mg, _ = conley.hurley_report(f, seed=int(cfg["seed"]),
                                            **_read(cfg, CONLEY_KEYS, f.n))
    out = {"morse.dot": conley.morse_to_dot(mg), "hurley.json": report}
    mask = conley.recurrent_mask(mg)
    if mask.ndim == 2:
        out["recurrent.pgm"] = np.where(mask, 255, 0).astype(np.uint8)
    return out


def cmd_perturb(cfg):
    from . import perturb
    f = _get_map(cfg)
    op = cfg.get("operation", "make_periodic")
    _known("perturb operation", op, list(PERTURB_KEYS))
    v = _read(cfg, PERTURB_KEYS[op], f.n)
    if op == "make_periodic":
        res = perturb.make_periodic_point(f, **v)
        cycle, corr = res["cycle"], res["correction"]
        ver = {"kind": cycle.klass, "period": cycle.period,
               "multipliers": list(cycle.multipliers),
               "expected_multipliers": list(res["expected_multipliers"]),
               "constraint_residual": corr.constraint_residual,
               "sup_norm_on_K": corr.sup_norm_on_K,
               "condition_number": corr.condition_number}
    else:
        windows = [_window("radii", [(-r, r)] * (2 * f.n))
                   for r in v["radii"]]
        res = perturb.escaping_construction(f, v["q"], windows, v["eps"],
                                            v["budget"], seed=int(cfg["seed"]))
        last = res["witness"][-1]
        ver = {"m": res["m"], "stage_norms": res["stage_norms"],
               "total_norm_bound": res["total_norm_bound"],
               "witness_final_norm": float(np.abs(last).max()),
               "exits_last_window": not bool(windows[-1].contains(last))}
    return {"produced_map.json": res["h"], "verification.json": ver}


def cmd_hakim(cfg):
    from . import perturb
    if "map" in cfg:  # the one subcommand that reads no map
        raise InputError("hakim reads no map")
    dim = _positive(cfg, "dim", HAKIM_KEYS["dim"][1])
    if dim > 2:  # the default start has dim points
        raise InputError("dim must be 1 or 2")
    rep = perturb.hakim_experiment(**_read(cfg, HAKIM_KEYS, dim))
    norms, kxn = rep["orbit_norms"], rep["k_times_norm"]
    rows = (f"{k},{norms[k]:.12g},{kxn[k-1]:.12g}\n"
            for k in range(1, len(norms)))
    return {"decay.csv": "k,norm,k_times_norm\n" + "".join(rows),
            "report.json": {
                "dim": dim,
                "multipliers": list(rep["multipliers"]),
                "derivative_growth": {
                    str(k): v for k, v in rep["derivative_growth"].items()},
                "final_norm": float(norms[-1])}}


# ---------------------------------------------------------------------------


def _build_parser():
    p = argparse.ArgumentParser(
        prog="endolab",
        description="experiments on polynomial endomorphisms of C^n",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, fn in (("periodic", cmd_periodic), ("julia", cmd_julia),
                     ("conley", cmd_conley), ("perturb", cmd_perturb),
                     ("hakim", cmd_hakim)):
        sp = sub.add_parser(name)
        sp.add_argument("--map", help="map spec JSON file")
        sp.add_argument("--config", help="config JSON file")
        sp.add_argument("--out", help="output directory (default: cwd)")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--set", dest="override", nargs=2, action="append",
                        metavar=("KEY", "JSON"),
                        help="override a config key with a JSON value")
        # argparse reads "-1e-3" as an option: its negative numbers are
        # only of the forms -1 and -0.5
        sp._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
        sp.set_defaults(fn=fn)
    return p


def _check_out(out):
    """--out, or else its nearest parent that exists, must be a directory:
    checked before the run, so that a bad path costs no work."""
    path = os.path.abspath(out)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise InputError(f"--out {out}: {path} is not a directory")


def main(argv=None):
    args = _build_parser().parse_args(argv)
    out = args.out or "."
    try:
        _check_out(out)
        cfg = _load_config(args)
        artifacts = args.fn(cfg)
    except InputError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleError as e:
        stage = f" (stage {e.stage})" if e.stage is not None else ""
        print(f"infeasible: {e}{stage}", file=sys.stderr)
        return EXIT_INFEASIBLE
    os.makedirs(out, exist_ok=True)
    for name, payload in artifacts.items():
        # looked up per call, so that a wrapper set on reporting is used
        write = getattr(reporting, "write_" + name.rsplit(".", 1)[1])
        write(os.path.join(out, name), payload, cfg)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
