"""In-process simulator for distributed splitting over time-varying graphs.

``run_distributed`` keeps, per agent, a primal block x_i and a block w_i of
w = L y, the Laplacian image of the dual.  Round t reads

    x+ = prox_{gamma f}(x - gamma w),      w+ = w + tau L_t (2 x+ - x),

a primal-dual step with K_t = L_t^{1/2}, admissible when
gamma tau lambda_max(L_t) < 1.  Every connected Laplacian has range 1^perp,
so w stays there, and the fixed point (consensual x*, w_i* = -grad f_i(x*))
is the same for every graph: the rounds share it however the graph changes.

All communication happens through Laplacian products, which read only
neighbor blocks; rounds are synchronous.  A round runs as array operations
over all agents: each product is one ``np.subtract.at`` over a per-graph
index pair, one (agent, neighbor) entry per edge end, ordered so that every
agent subtracts its neighbors in the ascending order a per-agent loop would
use; every agent still reads only its neighbors' rows and gets the same
bits.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .linalg import BlockLayout, operator_norm, strictly_below
from .fbhf import (ConfigurationError, SolveConfig, SolveReport, _Counters, _count,
                   _default_start, _positive, _run)


@dataclass(frozen=True)
class Graph:
    """Undirected connected graph on n vertices with integer Laplacian."""

    n: int
    edges: tuple[tuple[int, int], ...]
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        n = _count("agents", self.n)
        object.__setattr__(self, "n", n)
        seen = set()
        for edge in self.edges:
            try:
                # integer labels only: the index pair reads them as intp
                i, j = map(operator.index, edge)
            except (TypeError, ValueError):
                raise ValueError(f"invalid edge {edge!r}") from None
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ValueError(f"invalid edge {(i, j)}")
            key = (i, j) if i < j else (j, i)
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
        object.__setattr__(self, "edges", tuple(sorted(seen)))
        if n > 1 and not self._connected():
            raise ValueError("graph is not connected")

    @classmethod
    def _unchecked(cls, n: int, edges: tuple[tuple[int, int], ...]) -> "Graph":
        """A graph whose edges are already sorted distinct pairs i < j of
        labels in range(n) that connect all n vertices, left unchecked."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "edges", edges)
        object.__setattr__(g, "_cache", {})
        return g

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
            # the edges are sorted pairs i < j, so every list grows in
            # ascending order
            for (i, j) in self.edges:
                nbr[i].append(j)
                nbr[j].append(i)
            self._cache["neighbors"] = tuple(map(tuple, nbr))
        return self._cache["neighbors"]

    @property
    def degrees(self) -> np.ndarray:
        if "degrees" not in self._cache:
            self._cache["degrees"] = np.array([len(v) for v in self.neighbors])
        return self._cache["degrees"]

    def laplacian(self) -> np.ndarray:
        """Degree-minus-adjacency matrix, built in integer arithmetic so
        L @ ones == 0 holds exactly."""
        if "laplacian" not in self._cache:
            n = self.n
            L = np.zeros(n * n)
            L[[i * n + j for i, j in self.edges]
              + [j * n + i for i, j in self.edges]] = -1.0
            L[::n + 1] = self.degrees
            self._cache["laplacian"] = L.reshape(n, n)
        return self._cache["laplacian"]

    def _index_pair(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(deg, agents, others): the degrees as a float column, and the
        index pair under which agent agents[k] subtracts row others[k].

        Edge (i, j) gives "j subtracts i" in the first half and "i subtracts
        j" in the second.  The edges are sorted pairs i < j, so an agent
        meets its smaller neighbors first, ascending, then its larger ones,
        ascending: every agent subtracts its neighbors in ascending order."""
        if "index_pair" not in self._cache:
            lo, hi = zip(*self.edges) if self.edges else ((), ())
            others = np.array(lo + hi, dtype=np.intp)
            deg = np.bincount(others, minlength=self.n).astype(float).reshape(-1, 1)
            self._cache["index_pair"] = (deg, np.array(hi + lo, dtype=np.intp), others)
        return self._cache["index_pair"]

    def laplacian_apply(self, X: np.ndarray) -> np.ndarray:
        """Apply the Laplacian blockwise: agent i reads only its neighbors,
        (L X)_i = deg(i) X_i - sum_{j ~ i} X_j, subtracting the neighbors
        one at a time in ascending order.  One ``np.subtract.at`` over the
        index pair does every subtraction, in index order, so each agent's
        rows see the order a per-agent loop would use."""
        X = np.asarray(X, dtype=float)
        deg, agents, others = self._index_pair()
        rows = X.reshape(self.n, -1)
        acc = deg * rows
        np.subtract.at(acc, agents, rows.take(others, axis=0))
        return acc.reshape(X.shape)

    def norm_laplacian(self) -> float:
        """||L|| = lambda_max(L), the largest eigenvalue of the symmetric
        positive semidefinite Laplacian: ``operator_norm``'s symmetric route
        returns max(-lambda_min, lambda_max), and lambda_min is 0."""
        if "norm_laplacian" not in self._cache:
            self._cache["norm_laplacian"] = operator_norm(self.laplacian())
        return self._cache["norm_laplacian"]

    @classmethod
    def path(cls, n: int) -> "Graph":
        n = _count("agents", n)
        return cls(n, tuple((i, i + 1) for i in range(n - 1)))

    @classmethod
    def ring(cls, n: int) -> "Graph":
        n = _count("agents", n)
        if n < 3:
            return cls.path(n)
        return cls(n, tuple((i, (i + 1) % n) for i in range(n)))

    @classmethod
    def star(cls, n: int) -> "Graph":
        n = _count("agents", n)
        return cls(n, tuple((0, i) for i in range(1, n)))

    @classmethod
    def random_connected(cls, n: int, rng: np.random.Generator) -> "Graph":
        """Rejection-sample an Erdos-Renyi graph (p = 1/2) until connected.

        Each attempt draws one uniform per vertex pair i < j, in
        lexicographic order, and keeps the edge when it is below 1/2.
        Seeded graph sequences depend on this draw order.  A disconnected
        draw is recognized on the bare edge list.  The accepted one is built
        unchecked: ``combinations`` gives sorted, distinct pairs in range,
        and the sweep has shown that they span."""
        n = _count("agents", n)
        if n == 1:
            return cls(n, ())
        pairs = list(itertools.combinations(range(n), 2))
        while True:
            keep = (rng.random(len(pairs)) < 0.5).tolist()
            edges = tuple(itertools.compress(pairs, keep))
            if _spans(n, edges):
                return cls._unchecked(n, edges)


def _spans(n: int, edges) -> bool:
    """Whether the edges connect all n vertices: sweep the edge list,
    growing the set that vertex 0 reaches, until it holds every vertex or
    a sweep adds nothing.

    A sweep builds no adjacency, which makes it cheaper than ``Graph``'s
    search on a random draw: its edges come in lexicographic order and reach
    every vertex within a sweep or two.  Some labelled paths need n sweeps,
    so ``Graph`` validates an arbitrary edge list by search instead."""
    reach = {0}
    grown = True
    while grown and len(reach) < n:
        grown = False
        for (i, j) in edges:
            if (i in reach) != (j in reach):
                reach.add(i)
                reach.add(j)
                grown = True
    return len(reach) == n


@dataclass(frozen=True)
class GraphSequence:
    """t -> connected graph; built-in kinds are fixed, alternating and
    seeded-random, all deterministic."""

    at: Callable[[int], Graph]
    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", _count("agents", self.n))

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


def _round(z: np.ndarray, proxes, graph: Graph, gamma: float,
           tau: float) -> np.ndarray:
    """One round on the stacked z = (x, w): decoupled proximal steps against
    the dual term w, then the ascent of w through L applied to the
    reflected primal."""
    X, W = z.reshape(2, graph.n, -1)
    zn = np.empty_like(z)
    Xn, Wn = zn.reshape(2, graph.n, -1)
    V = X - gamma * W
    for i, prox in enumerate(proxes):
        Xn[i] = prox(gamma, V[i])
    np.add(W, tau * graph.laplacian_apply(2.0 * Xn - X), out=Wn)
    return zn


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
    """Consensus error max_{i,j} ||X_i - X_j|| of the stacked blocks."""
    if X.shape[1] == 1:
        # rounding is monotone, so the extreme pair attains the largest
        # rounded difference; sqrt(d * d) squares as the 2-norm does, so it
        # overflows and underflows where the pairwise norm would
        d = float(X.max() - X.min())
        return math.sqrt(d * d)
    D = X[:, None, :] - X[None, :, :]
    return float(np.sqrt(np.einsum("ijk,ijk->ij", D, D).max()))


def _check_round(graph: Graph, gamma: float, tau: float, k: int) -> None:
    rhs = 1.0 / (gamma * tau)
    # Screen first: lambda_max(L) <= n on every simple graph with n vertices
    # (Anderson and Morley 1985), and LAPACK's eigenvalue lies within a
    # small multiple of n u ||L|| <= n^2 u (u = 2^-53) of the exact one, so
    # the computed lambda_max is below n (1 + 1e-10) whenever L fits in
    # memory.  If n <= rhs / 2 (so rhs >= 2), the test below,
    # lambda_max <= rhs (1 - CONDITION_MARGIN), therefore holds with a
    # factor of two to spare: skipping it cannot change a verdict, and the
    # round needs no Laplacian.  rhs = inf (gamma tau underflows) passes
    # both.  A failing round, or one near the threshold, still gets the
    # eigenvalue test and its message.
    if graph.n <= rhs / 2:
        return
    lam = graph.norm_laplacian()
    if not strictly_below(lam, rhs):
        raise ConfigurationError(
            f"round {k}: stepsize condition violated: 1/(gamma tau) = "
            f"{rhs:.6g} must exceed lambda_max(L_{k}) = {lam:.6g}")


def check_steps(proxes: list, gs: GraphSequence, gamma: float, tau: float) -> None:
    """The checks ``run_distributed`` makes before its first round; the
    stepsize condition depends on each round's graph and is checked per round."""
    if len(proxes) != gs.n:
        raise ValueError("need one prox oracle per agent")
    _positive("gamma", gamma)
    _positive("tau", tau)


def run_distributed(proxes, gs: GraphSequence, gamma: float, tau: float,
                    cfg: SolveConfig, x0=None,
                    block_dim: int = 1) -> tuple[SolveReport, list[float]]:
    """Iterate the primal-dual round on (x, w), w = L y, with the round index
    as graph time:

        x+ = prox_{gamma f}(x - gamma w),      w+ = w + tau L_t (2 x+ - x),

    from w = 0 and x0, which may hold non-finite agents: the rounds then show
    how far they spread.  Round t needs a graph on the sequence's n agents and
    gamma tau lambda_max(L_t) < 1, and raises ConfigurationError naming the
    round otherwise.  ``report.block(0)`` holds the stacked x and
    ``report.block(1)`` the stacked w, which at the solution is the
    graph-independent certificate w_i = -grad f_i(x*).
    Returns the report together with the consensus-error trace
    max_{i,j} ||x_i - x_j||, computed from the report once the rounds end:
    one value per round under ``cfg.keep_iterates``, else the final round's
    value alone, so memory stays bounded however many rounds run.
    """
    n = gs.n
    proxes = list(proxes)
    check_steps(proxes, gs, gamma, tau)
    block_dim = _count("block_dim", block_dim)
    m = n * block_dim
    x = _default_start(m, None if x0 is None else np.ravel(x0), finite=False)
    layout = BlockLayout.from_dims([m, m])
    counters = _Counters()
    proxes = [counters.count("res", prox) for prox in proxes]

    def step(k, z):
        g = gs.at(k)
        if g.n != n:
            raise ConfigurationError(
                f"round {k}: the graph has {g.n} agents, the sequence {n}")
        _check_round(g, gamma, tau, k)
        return _round(z, proxes, g, gamma, tau), None

    z0 = np.concatenate([x, np.zeros(m)])
    report = _run(step, z0, cfg, counters, layout=layout)
    rounds = [report.z] if report.iterates is None else report.iterates[1:]
    return report, [_spread(z[:m].reshape(n, block_dim)) for z in rounds]
