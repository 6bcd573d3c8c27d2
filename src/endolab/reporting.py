"""Deterministic file output: every artifact embeds the config hash and
tool version so identical configs reproduce bitwise-identical files."""

from __future__ import annotations

import hashlib
import json

from . import __version__


def config_hash(config):
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def stamp(config):
    return {"config_hash": config_hash(config), "version": __version__}


def write_json(path, payload, config):
    payload = dict(payload)
    payload["meta"] = stamp(config)
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, default=_jsonify)
        fh.write("\n")


def _jsonify(obj):
    import numpy as np

    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, np.complexfloating):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (frozenset, set)):
        return sorted(obj)
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def write_csv(path, body, config):
    s = stamp(config)
    header = f"# config_hash={s['config_hash']} version={s['version']}\n"
    with open(path, "w") as fh:
        fh.write(header)
        fh.write(body)


def write_pgm(path, data, config):
    s = stamp(config)
    comment = f"# config_hash={s['config_hash']} version={s['version']}\n"
    magic, rest = data.split(b"\n", 1)
    with open(path, "wb") as fh:
        fh.write(magic + b"\n" + comment.encode() + rest)


def write_dot(path, body, config):
    s = stamp(config)
    header = (f"// config_hash={s['config_hash']} "
              f"version={s['version']}\n")
    with open(path, "w") as fh:
        fh.write(header)
        fh.write(body)
