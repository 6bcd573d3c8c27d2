"""Batch command-line front end.

One subcommand per experiment (periodic, julia, conley, perturb, hakim);
a single JSON config document carries the parameters and every flag is
an override of a config key.  Outputs are deterministic under a fixed
seed and each file embeds the config hash and tool version.

Exit codes: 0 ok, 2 config error, 3 infeasible construction.  Any other
error propagates: a library bug is not reported as a config error.  The
subcommands check their config values before calling the library, so a
bad value exits 2.  What only iterating can find still raises a
ValueError: a hakim start whose orbit leaves the petal, or colliding or
degenerate orbit points in a perturb construction.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

import numpy as np

from . import __version__
from .maps import PolyMap, Window, escape_radius
# conley and perturb load SciPy: the subcommands that run them import them
from . import julia, periodic, reporting

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3


class ConfigError(ValueError):
    pass


def _load_config(args):
    cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"bad config file: {e}") from e
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
        raise ConfigError("no map given (use --map or config key 'map')")
    if not isinstance(spec, (dict, str)):  # open() reads an int as an fd
        raise ConfigError("a map is a JSON object or a file path")
    try:
        if isinstance(spec, dict):
            return PolyMap.from_json_dict(spec)
        with open(spec) as fh:
            return PolyMap.from_json_dict(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise ConfigError(f"bad map spec: {e}") from e


def _coords(cfg, key, default):
    """cfg[key], coordinates: no boolean at any depth (float(True) is 1)."""
    v = cfg.get(key, default)
    flat = [v]
    for x in flat:  # grows as nested lists are met
        if isinstance(x, bool):
            raise ConfigError(f"bad value for {key}: {v!r}")
        flat.extend(x if isinstance(x, list) else ())
    return v


def _get_window(cfg, n, key="window", default_half=2.0):
    w = _coords(cfg, key, None)
    if w is None:
        return Window.square(n, -default_half, default_half)
    try:
        window = Window(bounds=tuple((float(lo), float(hi)) for lo, hi in w))
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad window: {e}") from e
    if window.n != n:
        raise ConfigError(f"{key} needs {2 * n} bounds for dimension {n}")
    return window


def _positive(cfg, key, default, low=0):
    v = cfg.get(key, default)
    try:
        x = type(default)(v)
        if isinstance(v, (bool, str)) or isinstance(v, float) and x != v:
            raise ValueError  # a bool or str is no number; int(2.7) is 2
    except (TypeError, ValueError, OverflowError):  # int(inf) overflows
        raise ConfigError(f"bad value for {key}: {v!r}") from None
    if not low < x < float("inf"):  # NaN too
        raise ConfigError(f"{key} must be finite and above {low}")
    return x


def _points(cfg, key, default, n):
    """Config key holding n [re, im] pairs, as an (n,) complex array."""
    v = _coords(cfg, key, default)
    try:
        p = np.array([complex(re, im) for re, im in v])
    except (TypeError, ValueError):
        raise ConfigError(f"bad value for {key}: {v!r}") from None
    if not np.isfinite(p).all():
        raise ConfigError(f"{key} needs finite [re, im] pairs")
    if len(p) != n:
        raise ConfigError(f"{key} needs {n} [re, im] pairs, got {len(p)}")
    return p


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
    if tol > periodic.DEDUP_TOL:  # find_periodic says why
        raise ConfigError(f"tol must be at most {periodic.DEDUP_TOL:g}")
    out = _outdir(args)
    rep = periodic.hyperbolicity_report(
        f, m_max, window, seeds=seeds, tol=tol, seed=int(cfg["seed"])
    )
    cycles = rep["cycles"]
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
    s = _coords(cfg, "slice", None)
    if s is None:
        return ()
    try:
        fixed = tuple(float(v) for v in (s.split(",") if isinstance(s, str)
                                         else s))
    except (TypeError, ValueError):
        raise ConfigError(f"bad value for slice: {s!r}") from None
    if not np.isfinite(fixed).all():
        raise ConfigError(f"slice needs finite values, got {s!r}")
    return fixed


def cmd_julia(args):
    cfg = _load_config(args)
    f = _get_map(cfg)
    window = _get_window(cfg, f.n)
    res = _positive(cfg, "res", 512)
    if res < 2:
        raise ConfigError("res must be at least 2")
    n_max = _positive(cfg, "n_max", 200)
    m_max = _positive(cfg, "m_max", 6)
    seeds = _positive(cfg, "seeds", 2048)
    R = cfg.get("R")
    if R is None:
        try:
            R = escape_radius(f)
        except ValueError as e:
            raise ConfigError(f"supply R in config: {e}") from e
    else:
        _positive(cfg, "R", 1.0)  # grid.json keeps R as given
    fixed = _parse_slice(cfg)
    if len(fixed) != 2 * f.n - 2:
        raise ConfigError(f"slice needs {2 * f.n - 2} values past z_1")
    out = _outdir(args)
    grid = julia.escape_grid(f, window, res, n_max, float(R), fixed=fixed)
    boundary = julia.boundary_extract(grid)
    repellers = julia.repeller_cloud(f, m_max, window, seeds=seeds,
                                     seed=int(cfg["seed"]))
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
    pad_mode = cfg.get("pad_mode", "jacobian")
    try:
        conley.pad_spec(pad_mode)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    petal = cfg.get("petal_threshold")
    if petal is not None:  # any finite real; a negative one too
        petal = _positive(cfg, "petal_threshold", 0.0, low=-np.inf)
    out = _outdir(args)
    report, g, mg, _ = conley.hurley_report(
        f, window, depth, samples_per_box=spb, pad_mode=pad_mode,
        m_max=m_max, seed=int(cfg["seed"]),
        petal_threshold=petal,
    )
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
    window = _get_window(cfg, f.n, key="K", default_half=2.0)
    budget = _positive(cfg, "budget", 30 if op == "escaping" else 8)
    out = _outdir(args)
    if op == "make_periodic":
        q = _points(cfg, "q", [[0.3, 0.0]] * f.n, f.n)
        m = _positive(cfg, "m", 1)
        kind = cfg.get("kind", "super_attracting")
        if kind not in ("super_attracting", "repelling", "saddle"):
            raise ConfigError(f"unknown kind {kind!r}")
        if kind == "saddle" and f.n < 2:
            raise ConfigError("saddle cycles need dimension >= 2")
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
        radii = _coords(cfg, "radii", [2.0, 3.0, 4.0, 5.0])
        if not isinstance(radii, list) or not 2 <= len(radii) <= 7:
            raise ConfigError("radii must list 2 to 7 window radii")
        eps = _positive(cfg, "eps", 1.0)
        try:
            windows = [Window.square(f.n, -r, r) for r in radii]
        except (TypeError, ValueError) as e:
            raise ConfigError(f"bad radii: {e}") from None
        if any(a >= b for a, b in zip(radii, radii[1:])):
            raise ConfigError("radii must strictly increase")
        if not windows[0].contains(q):
            raise ConfigError("q must lie in the first window")
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
        raise ConfigError(f"unknown perturb operation {op!r}")
    with open(os.path.join(out, "produced_map.json"), "w") as fh:
        json.dump(produced.to_json_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    reporting.write_json(os.path.join(out, "verification.json"), ver, cfg)
    return EXIT_OK


def cmd_hakim(args):
    from . import perturb
    cfg = _load_config(args)
    dim = _positive(cfg, "dim", 1)
    if dim > 2:
        raise ConfigError("dim must be 1 or 2")
    start = _points(cfg, "start", [[-0.2, 0.0]] * dim, dim)
    if start.any() and not ((start.real > -1.0) & (start.real < 0.0)).all():
        raise ConfigError("start must be the origin or lie in the strip "
                          "-1 < Re < 0")
    steps = _positive(cfg, "steps", 10_000)
    out = _outdir(args)
    rep = perturb.hakim_experiment(dim, start, steps=steps)
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
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
