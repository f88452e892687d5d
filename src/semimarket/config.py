"""Declarative model configuration: a JSON key-value tree.

Schema (see README for the full description):

    {
      "states": [-1, 0, 1],
      "transitions": [[0, 1, 0], [0.3, 0, 0.7], [0, 1, 0]],
      "sojourns": {"0": {"family": "pareto", "scale": 1.0, "alpha": 1.5},
                   "-1": {"family": "exponential", "rate": 1.0},
                   "1": {"family": "exponential", "rate": 1.0}},
      "edges": {"0->1": {"family": "pareto", "scale": 2.0, "alpha": 1.5}}
    }

`sojourns` maps each state to the law of its holding time; `edges` optionally
overrides single transitions with "i->j" keys.  Any other key is an error.
"""
from __future__ import annotations

import json

from .distributions import law_from_config
from .semi_markov import SemiMarkovModel

__all__ = ["model_from_dict", "load_model"]

_MODEL_KEYS = ("states", "transitions", "sojourns", "edges")


def _law(where, params):
    """The law of a config literal; a fault in it names `where` it sits."""
    if not isinstance(params, dict):
        raise ValueError(f"model config: {where} must be a law object, got {params!r}")
    try:
        return law_from_config(params)
    except (KeyError, TypeError, ValueError) as exc:
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"model config: {where}: {detail}") from None


def model_from_dict(cfg: dict) -> SemiMarkovModel:
    unknown = sorted(set(cfg) - set(_MODEL_KEYS))
    if unknown:
        raise ValueError(f"unknown model config keys {unknown}; known: {list(_MODEL_KEYS)}")
    try:
        states = cfg["states"]
        transitions = cfg["transitions"]
        by_state_cfg = cfg["sojourns"]
    except KeyError as exc:
        raise ValueError(f"model config missing required field {exc}") from None
    edges = cfg.get("edges", {})
    if not isinstance(states, (list, tuple)):
        raise ValueError(f"model config: states must be a list, got {states!r}")
    for field, value in (("sojourns", by_state_cfg), ("edges", edges)):
        if not isinstance(value, dict):
            raise ValueError(f"model config: {field} must be an object, got {value!r}")
    states = tuple(states)

    laws = {}
    for i in states:
        key = str(i)
        if key not in by_state_cfg:
            raise ValueError(f"model config: no sojourn law for state {i}")
        law = _law(f"sojourn law of state {i}", by_state_cfg[key])
        for j in states:
            laws[(i, j)] = law
    for edge, params in edges.items():
        try:
            src, dst = edge.split("->")
            src, dst = int(src), int(dst)
        except ValueError:
            raise ValueError(f"bad edge key {edge!r}; expected 'i->j'") from None
        if src not in states or dst not in states:
            raise ValueError(f"model config: edge {edge!r} joins a state not in {list(states)}")
        laws[(src, dst)] = _law(f"edge {edge!r}", params)

    return SemiMarkovModel(states=states, p=transitions, sojourns=laws)


def load_model(path) -> SemiMarkovModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))
