"""Sampling dynamics and exact verification tools for monotone spin systems."""

from .ordercore import (STAR, Poset, contract, enumerate_up_sets, leq, lift,
                        state_str, stochastic_dominance)
from .models import (BipartiteHardcoreModel, FlippedModel, Graph,
                     HardcoreModel, IsingModel, LeftMarginalModel,
                     LiftedModel, PinnedModel, RandomClusterModel,
                     SubgraphWorldModel, TiltedModel, flip, lift_model, pin,
                     rc_marginal_ratio, tilt)

__all__ = [
    "STAR", "Poset", "contract", "enumerate_up_sets", "leq", "lift",
    "state_str", "stochastic_dominance",
    "BipartiteHardcoreModel", "FlippedModel", "Graph", "HardcoreModel",
    "IsingModel", "LeftMarginalModel", "LiftedModel", "PinnedModel",
    "RandomClusterModel", "SubgraphWorldModel", "TiltedModel", "flip",
    "lift_model", "pin", "rc_marginal_ratio", "tilt",
]
