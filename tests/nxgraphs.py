"""The one bridge between networkx graphs, which tests build and the oracles
read, and the package's index ``Graph``."""

from __future__ import annotations

import networkx as nx

from harmonizer.graph import Graph


def from_networkx(g: nx.Graph) -> Graph:
    """``g`` as a ``Graph``: nodes sorted, every edge's weight (1 when unset)
    at both ends, added in sorted (smaller end, larger end) order, so every
    neighbour dict is ascending, as ``build_graph`` leaves it."""
    nodes = tuple(sorted(g.nodes))
    index = {v: i for i, v in enumerate(nodes)}
    adj: list[dict] = [{} for _ in nodes]
    ends = ((index[u], index[v], w) for u, v, w in g.edges(data="weight", default=1))
    for u, v, w in sorted((min(u, v), max(u, v), w) for u, v, w in ends):
        adj[u][v] = adj[v][u] = w
    return Graph(nodes, adj)


def to_networkx(graph: Graph) -> nx.Graph:
    """``graph`` as a networkx graph in the same node and neighbour order."""
    g = nx.Graph()
    g.add_nodes_from(graph.nodes)
    for u, nbrs in enumerate(graph.adj):
        g.add_weighted_edges_from((graph.nodes[u], graph.nodes[v], w) for v, w in nbrs.items() if u < v)
    return g
