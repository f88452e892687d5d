"""Declarative model configuration: a JSON key-value tree.

Schema (see README for the full description):

    {
      "states": [-1, 0, 1],
      "transitions": [[0, 1, 0], [0.3, 0, 0.7], [0, 1, 0]],
      "sojourns": {"0": {"family": "pareto", "scale": 1.0, "alpha": 1.5},
                   "-1": {"family": "exponential", "rate": 1.0},
                   "1": {"family": "exponential", "rate": 1.0}},
      "edges": {"0->1": {"family": "pareto", "scale": 2.0, "alpha": 1.5}},
      "slowly_varying": "constant"
    }

`sojourns` maps each state to the law of its holding time; `edges` optionally
overrides single transitions with "i->j" keys.  `slowly_varying` is
"constant" (pure power tail) or "log"; with "log" a plain pareto entry for
state 0 is promoted to the pareto_log family.
"""
from __future__ import annotations

import json

import numpy as np

from .distributions import ParetoLog, law_from_config
from .semi_markov import SemiMarkovModel, StateSpace, TransitionMatrix

__all__ = ["model_from_dict", "load_model"]


def model_from_dict(cfg: dict) -> SemiMarkovModel:
    try:
        states = tuple(int(s) for s in cfg["states"])
        transitions = np.asarray(cfg["transitions"], dtype=float)
        by_state_cfg = cfg["sojourns"]
    except KeyError as exc:
        raise ValueError(f"model config missing required field {exc}") from None
    slowly_varying = cfg.get("slowly_varying", "constant")
    if slowly_varying not in ("constant", "log"):
        raise ValueError(f"slowly_varying must be 'constant' or 'log', got {slowly_varying!r}")

    def build(params, state):
        if slowly_varying == "log" and state == 0 and params.get("family") == "pareto":
            params = dict(params, family="pareto_log")
        return law_from_config(params)

    laws = {}
    for i in states:
        key = str(i)
        if key not in by_state_cfg:
            raise ValueError(f"model config: no sojourn law for state {i}")
        law = build(dict(by_state_cfg[key]), i)
        for j in states:
            laws[(i, j)] = law
    for edge, params in cfg.get("edges", {}).items():
        try:
            src, dst = edge.split("->")
            src, dst = int(src), int(dst)
        except ValueError:
            raise ValueError(f"bad edge key {edge!r}; expected 'i->j'") from None
        laws[(src, dst)] = build(dict(params), src)

    model = SemiMarkovModel(space=StateSpace(states), chain=TransitionMatrix(transitions),
                            sojourns=laws)
    if slowly_varying == "log":
        heavy = [laws[(0, j)] for j in states if isinstance(laws[(0, j)], ParetoLog)]
        if not heavy:
            raise ValueError("slowly_varying='log' but no logarithmic-tail law on state 0")
    return model


def load_model(path) -> SemiMarkovModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))
