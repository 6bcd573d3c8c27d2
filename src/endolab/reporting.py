"""Deterministic file output, one writer `write_<suffix>(path, payload,
config)` per file kind: every artifact embeds the config hash and tool
version so identical configs reproduce bitwise-identical files."""

from __future__ import annotations

import hashlib
import json

import numpy as np

from . import __version__
from .maps import PolyMap


def config_hash(config):
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def stamp(config):
    return {"config_hash": config_hash(config), "version": __version__}


def _comment(prefix, config):
    s = stamp(config)
    return f"{prefix} config_hash={s['config_hash']} version={s['version']}\n"


def write_json(path, payload, config):
    if isinstance(payload, PolyMap):  # read back as a map: no meta key
        payload = payload.to_json_dict()
    else:
        payload = {**payload, "meta": stamp(config)}
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, default=_jsonify)
        fh.write("\n")


def _jsonify(obj):
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
    with open(path, "w") as fh:
        fh.write(_comment("#", config))
        fh.write(body)


def write_pgm(path, image, config):
    """Binary PGM of a (rows, cols) uint8 image, the stamp a comment."""
    rows, cols = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{_comment('#', config)}{cols} {rows}\n255\n".encode())
        fh.write(image.tobytes())


def write_dot(path, body, config):
    with open(path, "w") as fh:
        fh.write(_comment("//", config))
        fh.write(body)
