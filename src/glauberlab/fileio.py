"""Flat key=value parameter files, model construction, transform parsing,
config hashing, and atomic output writing."""

from __future__ import annotations

import hashlib
import math
import os
import re
import tempfile

from .models import (BipartiteHardcoreModel, Graph, HardcoreModel, IsingModel,
                     LeftMarginalModel, RandomClusterModel, SubgraphWorldModel,
                     flip, lift_model, pin, tilt)
from .ordercore import parse_state

_KNOWN_KEYS = {"model", "theta", "dynamics", "start", "delta", "lambda",
               "beta", "d", "period", "schedule-seed"}
_KNOWN_PREFIXES = ("p.", "lambda.", "beta.", "eta.")


def parse_kv(text) -> dict:
    out = {}
    for ln in text.splitlines():
        ln = ln.split("#")[0].strip()
        if not ln:
            continue
        if "=" not in ln:
            raise ValueError(f"bad key=value line: {ln!r}")
        k, v = ln.split("=", 1)
        k, v = k.strip(), v.strip()
        if k in out:
            raise ValueError(f"duplicate key: {k}")
        out[k] = v
    for k in out:
        if k not in _KNOWN_KEYS and not k.startswith(_KNOWN_PREFIXES):
            raise ValueError(f"unknown key: {k}")
    return out


def load_params(path) -> dict:
    with open(path) as f:
        return parse_kv(f.read())


def parse_float(key, text):
    """The finite float written as text; the error names key."""
    try:
        x = float(text)
    except ValueError:
        raise ValueError(f"{key} must be a number, got {text!r}") from None
    if not math.isfinite(x):
        raise ValueError(f"{key} must be finite, got {text!r}")
    return x


def _per_item(params, prefix, count):
    out = []
    for i in range(count):
        key = f"{prefix}.{i}"
        if key not in params:
            key = f"{prefix}.default"
            if key not in params:
                raise ValueError(f"missing {prefix}.{i} (and no {prefix}.default)")
        out.append(parse_float(key, params[key]))
    return out


def build_model(params: dict, graph: Graph):
    kind = params.get("model")
    if kind == "rc":
        return RandomClusterModel(graph, _per_item(params, "p", graph.m),
                                  _per_item(params, "lambda", graph.n))
    if kind == "ising":
        return IsingModel(graph, _per_item(params, "beta", graph.m),
                          _per_item(params, "lambda", graph.n))
    if kind == "subgraph-world":
        return SubgraphWorldModel(graph, _per_item(params, "p", graph.m),
                                  _per_item(params, "eta", graph.n))
    if kind == "hardcore":
        return HardcoreModel(graph, parse_float("lambda", params["lambda"]))
    if kind == "bipartite-hardcore":
        return BipartiteHardcoreModel(graph,
                                      parse_float("lambda", params["lambda"]),
                                      parse_float("beta", params["beta"]))
    raise ValueError(f"unknown model kind: {kind!r}")


def _pin_line(line):
    """(site, value) of a pin-file line "site value", value one of 0, 1, *."""
    m = re.fullmatch(r"\s*(-?\d+)\s+([01*])\s*", line)
    if m is None:
        raise ValueError(f"bad pin line {line.strip()!r}: "
                         "expected 'site value' with value 0, 1 or *")
    return int(m[1]), parse_state(m[2])[0]


def apply_transforms(model, transforms):
    """transforms: iterable of strings like tilt=0.5 | flip | pin=FILE |
    lift=0.3 | left-marginal."""
    for t in transforms or ():
        if t == "flip":
            model = flip(model)
        elif t == "left-marginal":
            if not isinstance(model, BipartiteHardcoreModel):
                raise ValueError("left-marginal needs a bipartite hardcore model")
            model = LeftMarginalModel(model)
        elif t.startswith("tilt="):
            model = tilt(model, parse_float("tilt", t[5:]))
        elif t.startswith("lift="):
            model = lift_model(model, parse_float("lift", t[5:]))
        elif t.startswith("pin="):
            with open(t[4:]) as f:
                pins = dict(_pin_line(ln) for ln in f if ln.strip())
            model = pin(model, pins)
        else:
            raise ValueError(f"unknown transform: {t!r}")
    return model


def config_hash(parts: dict) -> str:
    canon = "\n".join(f"{k}={parts[k]}" for k in sorted(parts))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def atomic_write(path, text):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
