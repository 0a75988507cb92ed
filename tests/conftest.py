import itertools
import os
from pathlib import Path

import numpy as np
import pytest

from glauberlab import models


def src_env():
    """os.environ with the repository's src first on PYTHONPATH, for a
    child process."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"),
             os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


def random_graph(rng, n_lo=2, n_hi=4, m_hi=6, require_edge=True):
    n = int(rng.integers(n_lo, n_hi + 1))
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    m = int(rng.integers(1 if require_edge else 0, min(m_hi, len(pairs)) + 1))
    return models.Graph(n, pairs[:m])


def random_bipartite_graph(rng, n_hi=4):
    n = int(rng.integers(2, n_hi + 1))
    k = int(rng.integers(1, n))
    pairs = [(u, v) for u in range(k) for v in range(k, n)]
    rng.shuffle(pairs)
    m = int(rng.integers(1, len(pairs) + 1))
    return models.Graph(n, pairs[:m], bipartite_k=k)


def random_rc(rng, graph=None, p_lo=0.1, p_hi=0.9, lam_hi=0.9):
    graph = graph or random_graph(rng)
    p = rng.uniform(p_lo, p_hi, graph.m).tolist()
    lam = rng.uniform(0.0, lam_hi, graph.n).tolist()
    return models.RandomClusterModel(graph, p, lam)


def random_hardcore(rng, graph=None):
    graph = graph or random_graph(rng)
    return models.HardcoreModel(graph, float(rng.uniform(0.2, 3.0)))


def random_bhc(rng, graph=None):
    graph = graph or random_bipartite_graph(rng)
    return models.BipartiteHardcoreModel(graph, float(rng.uniform(0.2, 2.0)),
                                         float(rng.uniform(0.2, 2.0)))


def random_monotone_model(rng, max_vars=4):
    """A random instance known to be a monotone system, with a feasible all-1
    state (flipped RC, tilted flipped RC, bipartite hardcore, left marginal)."""
    while True:
        kind = rng.integers(4)
        if kind == 0 or kind == 1:
            g = random_graph(rng, m_hi=max_vars)
            m = models.flip(random_rc(rng, g))
            if kind == 1:
                m = models.tilt(m, float(rng.uniform(0.2, 0.9)))
        elif kind == 2:
            m = random_bhc(rng, random_bipartite_graph(rng, n_hi=max_vars))
        else:
            m = models.LeftMarginalModel(
                random_bhc(rng, random_bipartite_graph(rng, n_hi=max_vars + 1)))
        if m.n_vars <= max_vars:
            return m


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
