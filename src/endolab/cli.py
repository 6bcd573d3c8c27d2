"""Batch command-line front end.

One subcommand per experiment (periodic, julia, conley, perturb, hakim);
a single JSON config document carries the parameters and every flag is
an override of a config key.  Outputs are deterministic under a fixed
seed and each file embeds the config hash and tool version.

Exit codes: 0 ok, 2 config error, 3 infeasible construction.  The
subcommands check the types of their config values, and the library
raises maps.InputError, before any work, for a value out of range: both
exit 2.  Any other error propagates, so a library bug is not reported as
a config error; nor is what only iterating can find, a hakim start whose
orbit leaves the petal or colliding or degenerate orbit points in a
perturb construction.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

import numpy as np

from . import __version__
from .maps import InputError, PolyMap, Window, escape_radius
# conley and perturb load SciPy: the subcommands that run them import them
from . import julia, periodic, reporting

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3


def _load_config(args):
    cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise InputError(f"bad config file: {e}") from e
    for key, val in (args.override or []):
        cfg[key] = val
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


def _get_window(cfg, n, key="window"):
    if cfg.get(key) is None:
        return Window.square(n, -2.0, 2.0)
    return _window(key, _array(cfg, key, None, (2 * n, 2)).tolist())


def _positive(cfg, key, default, low=0):
    v = cfg.get(key, default)
    try:
        x = type(default)(v)
        if isinstance(v, (bool, str)) or isinstance(v, float) and x != v:
            raise ValueError  # a bool or str is no number; int(2.7) is 2
    except (TypeError, ValueError, OverflowError):  # int(inf) overflows
        raise InputError(f"bad value for {key}: {v!r}") from None
    if not low < x < float("inf"):  # NaN too
        raise InputError(f"{key} must be finite and above {low}")
    return x


def _points(cfg, key, default, n):
    """Config key holding n [re, im] pairs, as an (n,) complex array."""
    pairs = _array(cfg, key, default, (n, 2)).tolist()
    return np.array([complex(re, im) for re, im in pairs])


def _outdir(args):
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_periodic(args):
    cfg = _load_config(args)
    f = _get_map(cfg)
    window = _get_window(cfg, f.n)
    m_max = _positive(cfg, "m_max", 3)
    seeds = _positive(cfg, "seeds", 1024)
    tol = _positive(cfg, "tol", 1e-10)
    rep = periodic.hyperbolicity_report(
        f, m_max, window, seeds=seeds, tol=tol, seed=int(cfg["seed"])
    )
    cycles = rep["cycles"]
    out = _outdir(args)
    reporting.write_csv(os.path.join(out, "cycles.csv"),
                        periodic.cycles_to_csv(cycles, f.n), cfg)
    counts = {}
    for c in cycles:
        counts[c.klass] = counts.get(c.klass, 0) + 1
    hyperbolic = sum(c.klass != "non_hyperbolic" for c in cycles)
    reporting.write_json(os.path.join(out, "summary.json"), {
        "cycle_count": len(cycles),
        "by_class": counts,
        "all_hyperbolic": rep["all_hyperbolic"],
        "all_transverse": rep["all_transverse"],
        "fraction_hyperbolic": hyperbolic / len(cycles) if cycles else 1.0,
        "seed": cfg["seed"],
    }, cfg)
    return EXIT_OK


def _parse_slice(cfg):
    s = cfg.get("slice")
    if isinstance(s, str):  # the "re,im" form
        try:
            return tuple(float(v) for v in s.split(","))
        except ValueError:
            raise InputError(f"bad value for slice: {s!r}") from None
    if s is None:
        return ()
    return tuple(_array(cfg, "slice", None, (-1,)).tolist())


def cmd_julia(args):
    cfg = _load_config(args)
    f = _get_map(cfg)
    window = _get_window(cfg, f.n)
    res = _positive(cfg, "res", 512)
    n_max = _positive(cfg, "n_max", 200)
    m_max = _positive(cfg, "m_max", 6)
    seeds = _positive(cfg, "seeds", 2048)
    R = cfg.get("R")
    if R is None:
        try:
            R = escape_radius(f)
        except ValueError as e:
            raise InputError(f"supply R in config: {e}") from e
    else:
        _positive(cfg, "R", 1.0)  # grid.json keeps R as given
    grid = julia.escape_grid(f, window, res, n_max, float(R),
                             fixed=_parse_slice(cfg))
    boundary = julia.boundary_extract(grid)
    repellers = julia.repeller_cloud(f, m_max, window, seeds=seeds,
                                     seed=int(cfg["seed"]))
    out = _outdir(args)
    reporting.write_pgm(os.path.join(out, "grid.pgm"),
                        julia.grid_to_pgm(grid), cfg)
    reporting.write_json(os.path.join(out, "grid.json"), {
        "res": grid.res, "n_max": n_max, "R": R,
        "bounded_cells": int((~grid.escaped).sum()),
        "escaped_cells": int(grid.escaped.sum()),
        "cellwidth": grid.cellwidth,
        "boundary_empty_warning": len(boundary) == 0,
        "seed": cfg["seed"],
    }, cfg)
    reporting.write_csv(os.path.join(out, "boundary.csv"),
                        julia.cloud_to_csv(boundary, f.n), cfg)
    reporting.write_csv(os.path.join(out, "repellers.csv"),
                        julia.cloud_to_csv(repellers, f.n), cfg)
    hd = None
    if len(boundary) and len(repellers):
        hd = julia.hausdorff(repellers, boundary)
    reporting.write_json(os.path.join(out, "hausdorff.json"), {
        "hausdorff": hd,
        "repeller_count": len(repellers),
        "boundary_count": len(boundary),
    }, cfg)
    return EXIT_OK


def cmd_conley(args):
    from . import conley
    cfg = _load_config(args)
    f = _get_map(cfg)
    window = _get_window(cfg, f.n)
    depth = _positive(cfg, "depth", 5)
    spb = _positive(cfg, "samples_per_box", 8)
    m_max = _positive(cfg, "m_max", 3)
    petal = cfg.get("petal_threshold")
    if petal is not None:  # any finite real; a negative one too
        petal = _positive(cfg, "petal_threshold", 0.0, low=-np.inf)
    report, g, mg, _ = conley.hurley_report(
        f, window, depth, samples_per_box=spb,
        pad_mode=cfg.get("pad_mode", "jacobian"), m_max=m_max,
        seed=int(cfg["seed"]), petal_threshold=petal,
    )
    out = _outdir(args)
    reporting.write_dot(os.path.join(out, "morse.dot"),
                        conley.morse_to_dot(mg), cfg)
    mask = conley.recurrent_mask(mg)
    if mask.ndim == 2:
        reporting.write_pgm(os.path.join(out, "recurrent.pgm"),
                            julia.mask_to_pgm(mask), cfg)
    reporting.write_json(os.path.join(out, "hurley.json"), report, cfg)
    return EXIT_OK


def _infeasible(e):
    stage = f" (stage {e.stage})" if e.stage is not None else ""
    print(f"infeasible: {e}{stage}", file=sys.stderr)
    return EXIT_INFEASIBLE


def cmd_perturb(args):
    from . import perturb
    cfg = _load_config(args)
    f = _get_map(cfg)
    op = cfg.get("operation", "make_periodic")
    window = _get_window(cfg, f.n, key="K")
    budget = _positive(cfg, "budget", 30 if op == "escaping" else 8)
    if op == "make_periodic":
        q = _points(cfg, "q", [[0.3, 0.0]] * f.n, f.n)
        m = _positive(cfg, "m", 1)
        kind = cfg.get("kind", "super_attracting")
        try:
            res = perturb.make_periodic_point(f, q, m, kind, window, budget)
        except perturb.InfeasibleError as e:
            return _infeasible(e)
        ver = {
            "kind": res["cycle"].klass,
            "period": res["cycle"].period,
            "multipliers": list(res["cycle"].multipliers),
            "expected_multipliers": list(res["expected_multipliers"]),
            "constraint_residual": res["correction"].constraint_residual,
            "sup_norm_on_K": res["correction"].sup_norm_on_K,
            "condition_number": res["correction"].condition_number,
        }
        produced = res["h"]
    elif op == "escaping":
        q = _points(cfg, "q", [[1.1, 0.0]] * f.n, f.n)
        radii = _array(cfg, "radii", [2.0, 3.0, 4.0, 5.0], (-1,)).tolist()
        eps = _positive(cfg, "eps", 1.0)
        windows = [_window("radii", [(-r, r)] * (2 * f.n)) for r in radii]
        try:
            res = perturb.escaping_construction(f, q, windows, eps, budget,
                                                seed=int(cfg["seed"]))
        except perturb.InfeasibleError as e:
            return _infeasible(e)
        ver = {
            "m": res["m"],
            "stage_norms": res["stage_norms"],
            "total_norm_bound": res["total_norm_bound"],
            "witness_final_norm": float(np.abs(res["witness"][-1]).max()),
            "exits_last_window": not bool(
                windows[-1].contains(res["witness"][-1])
            ),
        }
        produced = res["h"]
    else:
        raise InputError(f"unknown perturb operation {op!r}")
    out = _outdir(args)
    with open(os.path.join(out, "produced_map.json"), "w") as fh:
        json.dump(produced.to_json_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    reporting.write_json(os.path.join(out, "verification.json"), ver, cfg)
    return EXIT_OK


def cmd_hakim(args):
    from . import perturb
    cfg = _load_config(args)
    dim = _positive(cfg, "dim", 1)
    if dim > 2:  # the default start has dim points
        raise InputError("dim must be 1 or 2")
    start = _points(cfg, "start", [[-0.2, 0.0]] * dim, dim)
    steps = _positive(cfg, "steps", 10_000)
    rep = perturb.hakim_experiment(dim, start, steps=steps)
    out = _outdir(args)
    lines = ["k,norm,k_times_norm\n"]
    norms = rep["orbit_norms"]
    kxn = rep["k_times_norm"]
    for k in range(1, len(norms)):
        lines.append(f"{k},{norms[k]:.12g},{kxn[k-1]:.12g}\n")
    reporting.write_csv(os.path.join(out, "decay.csv"), "".join(lines), cfg)
    reporting.write_json(os.path.join(out, "report.json"), {
        "dim": dim,
        "multipliers": list(rep["multipliers"]),
        "derivative_growth": {str(k): v
                              for k, v in rep["derivative_growth"].items()},
        "final_norm": float(norms[-1]),
    }, cfg)
    return EXIT_OK


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


def main(argv=None):
    p = _build_parser()
    args = p.parse_args(argv)
    if args.override:
        parsed = []
        for key, raw in args.override:
            try:
                parsed.append((key, json.loads(raw)))
            except json.JSONDecodeError:
                parsed.append((key, raw))
        args.override = parsed
    try:
        return args.fn(args)
    except InputError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
