"""In-process simulator for distributed splitting over time-varying graphs.

``run_distributed`` keeps, per agent, a primal block x_i and a block w_i of
w = L y, the Laplacian image of the dual.  Round t reads

    x+ = prox_{gamma f}(x - gamma w),      w+ = w + tau L_t (2 x+ - x),

a primal-dual step with K_t = L_t^{1/2}, admissible when
gamma tau lambda_max(L_t) < 1.  Every connected Laplacian has range 1^perp,
so w stays there, and the fixed point (consensual x*, w_i* = -grad f_i(x*))
is the same for every graph: the rounds share it however the graph changes.

All communication happens through Laplacian products, which read only
neighbor blocks; rounds are synchronous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .linalg import BlockLayout, operator_norm, strictly_below
from .fbhf import ConfigurationError, SolveConfig, SolveReport, _Counters, _run


@dataclass(frozen=True)
class Graph:
    """Undirected connected graph on n vertices with integer Laplacian."""

    n: int
    edges: tuple[tuple[int, int], ...]
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one agent")
        seen = set()
        for (i, j) in self.edges:
            if not (0 <= i < self.n and 0 <= j < self.n) or i == j:
                raise ValueError(f"invalid edge {(i, j)}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
        object.__setattr__(self, "edges", tuple(sorted(seen)))
        if self.n > 1 and not self._connected():
            raise ValueError("graph is not connected")

    def _connected(self) -> bool:
        reach = {0}
        frontier = [0]
        nbrs = self.neighbors
        while frontier:
            i = frontier.pop()
            for j in nbrs[i]:
                if j not in reach:
                    reach.add(j)
                    frontier.append(j)
        return len(reach) == self.n

    @property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        if "neighbors" not in self._cache:
            nbr = [[] for _ in range(self.n)]
            for (i, j) in self.edges:
                nbr[i].append(j)
                nbr[j].append(i)
            self._cache["neighbors"] = tuple(tuple(sorted(v)) for v in nbr)
        return self._cache["neighbors"]

    @property
    def degrees(self) -> np.ndarray:
        if "degrees" not in self._cache:
            deg = np.zeros(self.n, dtype=int)
            for (i, j) in self.edges:
                deg[i] += 1
                deg[j] += 1
            self._cache["degrees"] = deg
        return self._cache["degrees"]

    def laplacian(self) -> np.ndarray:
        """Degree-minus-adjacency matrix, built in integer arithmetic so
        L @ ones == 0 holds exactly."""
        if "laplacian" not in self._cache:
            L = np.zeros((self.n, self.n))
            for (i, j) in self.edges:
                L[i, i] += 1.0
                L[j, j] += 1.0
                L[i, j] -= 1.0
                L[j, i] -= 1.0
            self._cache["laplacian"] = L
        return self._cache["laplacian"]

    def laplacian_apply(self, X: np.ndarray) -> np.ndarray:
        """Apply the Laplacian blockwise: agent i reads only its neighbors,
        (L X)_i = deg(i) X_i - sum_{j ~ i} X_j."""
        X = np.asarray(X, dtype=float)
        out = np.empty_like(X)
        nbrs = self.neighbors
        deg = self.degrees
        for i in range(self.n):
            acc = deg[i] * X[i]
            for j in nbrs[i]:
                acc = acc - X[j]
            out[i] = acc
        return out

    def fiedler_value(self) -> float:
        """Second-smallest Laplacian eigenvalue (positive iff connected)."""
        if self.n == 1:
            return math.inf
        vals = np.sort(np.linalg.eigvalsh(self.laplacian()))
        return float(vals[1])

    def norm_laplacian(self) -> float:
        """||L|| = lambda_max(L), the largest eigenvalue of the symmetric
        positive semidefinite Laplacian."""
        if "norm_laplacian" not in self._cache:
            self._cache["norm_laplacian"] = (
                float(np.linalg.eigvalsh(self.laplacian())[-1]) if self.edges else 0.0)
        return self._cache["norm_laplacian"]

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls(n, tuple((i, i + 1) for i in range(n - 1)))

    @classmethod
    def ring(cls, n: int) -> "Graph":
        if n < 3:
            return cls.path(n)
        return cls(n, tuple((i, (i + 1) % n) for i in range(n)))

    @classmethod
    def star(cls, n: int) -> "Graph":
        return cls(n, tuple((0, i) for i in range(1, n)))

    @classmethod
    def random_connected(cls, n: int, rng: np.random.Generator) -> "Graph":
        """Rejection-sample an Erdos-Renyi graph (p = 1/2) until connected."""
        if n == 1:
            return cls(1, ())
        while True:
            edges = tuple((i, j) for i in range(n) for j in range(i + 1, n)
                          if rng.random() < 0.5)
            try:
                return cls(n, edges)
            except ValueError:
                continue


@dataclass(frozen=True)
class GraphSequence:
    """t -> connected graph; built-in kinds are fixed, alternating and
    seeded-random, all deterministic."""

    at: Callable[[int], Graph]
    n: int

    @classmethod
    def fixed(cls, g: Graph) -> "GraphSequence":
        return cls(at=lambda t: g, n=g.n)

    @classmethod
    def alternating(cls, g1: Graph, g2: Graph) -> "GraphSequence":
        if g1.n != g2.n:
            raise ValueError("alternating graphs must share the agent set")
        return cls(at=lambda t: g1 if t % 2 == 0 else g2, n=g1.n)

    @classmethod
    def random(cls, n: int, seed: int) -> "GraphSequence":
        # only the latest round's graph is kept, so memory stays bounded
        # however many rounds run; an earlier round is drawn again, equal
        last: dict[int, Graph] = {}

        def at(t: int) -> Graph:
            if t not in last:
                # one child generator per round keeps the sequence
                # independent of evaluation order
                rng = np.random.default_rng((seed, t))
                last.clear()
                last[t] = Graph.random_connected(n, rng)
            return last[t]

        return cls(at=at, n=n)


def _round(X, W, proxes, graph: Graph, gamma: float,
           tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Decoupled proximal steps against the dual term W, then the ascent of
    W through L applied to the reflected primal."""
    Xn = np.stack([np.atleast_1d(proxes[i](gamma, X[i] - gamma * W[i]))
                   for i in range(graph.n)])
    return Xn, W + tau * graph.laplacian_apply(2.0 * Xn - X)


def metric_norm(graph: Graph, gamma: float, tau: float) -> float:
    """||P_t|| for the block metric [[Id/gamma, -L], [-L, Id/tau]]."""
    key = ("metric_norm", gamma, tau)
    if key not in graph._cache:
        n = graph.n
        L = graph.laplacian()
        P = np.zeros((2 * n, 2 * n))
        P[:n, :n] = np.eye(n) / gamma
        P[n:, n:] = np.eye(n) / tau
        P[:n, n:] = -L
        P[n:, :n] = -L
        graph._cache[key] = operator_norm(P)
    return graph._cache[key]


def _spread(X: np.ndarray) -> float:
    n = X.shape[0]
    return max((float(np.linalg.norm(X[i] - X[j]))
                for i in range(n) for j in range(i + 1, n)), default=0.0)


def _check_round(graph: Graph, gamma: float, tau: float, k: int) -> None:
    lam = graph.norm_laplacian()
    if not strictly_below(lam, 1.0 / (gamma * tau)):
        raise ConfigurationError(
            f"round {k}: stepsize condition violated: 1/(gamma tau) = "
            f"{1.0 / (gamma * tau):.6g} must exceed lambda_max(L_{k}) = {lam:.6g}")


def run_distributed(proxes, gs: GraphSequence, gamma: float, tau: float,
                    cfg: SolveConfig, x0=None,
                    block_dim: int = 1) -> tuple[SolveReport, list[float]]:
    """Iterate the primal-dual round on (x, w), w = L y, with the round index
    as graph time:

        x+ = prox_{gamma f}(x - gamma w),      w+ = w + tau L_t (2 x+ - x),

    from w = 0.  Round t needs gamma tau lambda_max(L_t) < 1 and raises
    ConfigurationError naming the round otherwise.  ``report.block(0)`` holds
    the stacked x and ``report.block(1)`` the stacked w, which at the
    solution is the graph-independent certificate w_i = -grad f_i(x*).
    Returns the report together with the per-round consensus-error trace
    max_{i,j} ||x_i - x_j||.
    """
    n = gs.n
    proxes = list(proxes)
    if len(proxes) != n:
        raise ValueError("need one prox oracle per agent")
    if gamma <= 0 or tau <= 0:
        raise ConfigurationError("gamma and tau must be positive")
    if x0 is None:
        X = np.zeros((n, block_dim))
    else:
        X = np.asarray(x0, dtype=float).reshape(n, block_dim).copy()
    W = np.zeros((n, block_dim))
    m = n * block_dim
    layout = BlockLayout.from_dims([m, m])
    counters = _Counters()
    proxes = [counters.count("res", prox) for prox in proxes]
    trace: list[float] = []
    k_state = {"k": 0}

    def step(zvec):
        k = k_state["k"]
        k_state["k"] = k + 1
        g = gs.at(k)
        _check_round(g, gamma, tau, k)
        Xk = zvec[:m].reshape(n, block_dim)
        Wk = zvec[m:].reshape(n, block_dim)
        Xn, Wn = _round(Xk, Wk, proxes, g, gamma, tau)
        trace.append(_spread(Xn))
        return np.concatenate([Xn.ravel(), Wn.ravel()])

    z0 = np.concatenate([X.ravel(), W.ravel()])
    report = _run(step, z0, cfg, counters, layout=layout)
    return report, trace
