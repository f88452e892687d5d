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


def model_from_dict(cfg: dict) -> SemiMarkovModel:
    unknown = sorted(set(cfg) - set(_MODEL_KEYS))
    if unknown:
        raise ValueError(f"unknown model config keys {unknown}; known: {list(_MODEL_KEYS)}")
    try:
        states = tuple(cfg["states"])
        transitions = cfg["transitions"]
        by_state_cfg = cfg["sojourns"]
    except KeyError as exc:
        raise ValueError(f"model config missing required field {exc}") from None

    laws = {}
    for i in states:
        key = str(i)
        if key not in by_state_cfg:
            raise ValueError(f"model config: no sojourn law for state {i}")
        law = law_from_config(by_state_cfg[key])
        for j in states:
            laws[(i, j)] = law
    for edge, params in cfg.get("edges", {}).items():
        try:
            src, dst = edge.split("->")
            src, dst = int(src), int(dst)
        except ValueError:
            raise ValueError(f"bad edge key {edge!r}; expected 'i->j'") from None
        laws[(src, dst)] = law_from_config(params)

    return SemiMarkovModel(states=states, p=transitions, sojourns=laws)


def load_model(path) -> SemiMarkovModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))
