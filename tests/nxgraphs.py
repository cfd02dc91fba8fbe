"""The one bridge between networkx graphs, which tests build and the oracles
read, and the package's CSR ``Graph``."""

from __future__ import annotations

import networkx as nx
import numpy as np

from harmonizer.graph import Graph


def positions(g: nx.Graph) -> dict:
    """Each node of ``g`` -> its position in ``from_networkx(g)``: its index
    in sorted order."""
    return {v: i for i, v in enumerate(sorted(g.nodes))}


def from_networkx(g: nx.Graph) -> Graph:
    """``g`` as a ``Graph``: nodes sorted, every edge's weight (1 when unset)
    at both ends, each row's neighbours ascending, as ``build_graph`` leaves
    them."""
    index = positions(g)
    ends = ((index[u], index[v], w) for u, v, w in g.edges(data="weight", default=1))
    entries = sorted(entry for u, v, w in ends for entry in ((u, v, w), (v, u, w)))
    rows, neighbours, weights = np.array(entries, dtype=float).reshape(-1, 3).T
    return Graph.from_entries(len(index), rows.astype(np.int64), neighbours.astype(np.int64), weights)


def to_networkx(graph: Graph, nodes=None) -> nx.Graph:
    """``graph`` as a networkx graph in the same node and neighbour order,
    node i named ``nodes[i]`` (i itself when no names are given)."""
    nodes = range(graph.n) if nodes is None else nodes
    g = nx.Graph()
    g.add_nodes_from(nodes)
    entries = zip(graph.rows.tolist(), graph.neighbours.tolist(), graph.weights.tolist())
    g.add_weighted_edges_from((nodes[u], nodes[v], w) for u, v, w in entries if u < v)
    return g
