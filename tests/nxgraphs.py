"""The one bridge between networkx graphs, which tests build and the oracles
read, and the package's CSR ``Graph``."""

from __future__ import annotations

import networkx as nx
import numpy as np

from harmonizer.graph import Graph


def from_networkx(g: nx.Graph) -> Graph:
    """``g`` as a ``Graph``: nodes sorted, every edge's weight (1 when unset)
    at both ends, each row's neighbours ascending, as ``build_graph`` leaves
    them."""
    nodes = tuple(sorted(g.nodes))
    index = {v: i for i, v in enumerate(nodes)}
    ends = ((index[u], index[v], w) for u, v, w in g.edges(data="weight", default=1))
    entries = sorted(entry for u, v, w in ends for entry in ((u, v, w), (v, u, w)))
    rows, neighbours, weights = np.array(entries, dtype=float).reshape(-1, 3).T
    return Graph.from_entries(nodes, rows.astype(np.int64), neighbours.astype(np.int64), weights)


def to_networkx(graph: Graph) -> nx.Graph:
    """``graph`` as a networkx graph in the same node and neighbour order."""
    g = nx.Graph()
    g.add_nodes_from(graph.nodes)
    entries = zip(graph.rows.tolist(), graph.neighbours.tolist(), graph.weights.tolist())
    g.add_weighted_edges_from((graph.nodes[u], graph.nodes[v], w) for u, v, w in entries if u < v)
    return g
