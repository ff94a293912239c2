"""Synthetic graph generators.

The reproduction has no network access, so the five evaluation datasets
(Cora, Citeseer, Pubmed, NELL, Reddit) are *generated* with the
published node/edge/feature statistics and — critically for I-GCN — a
controllable **hub-and-island** community structure:

* a small set of *hubs* with skewed (Zipf-like) popularity,
* many small, internally dense *islands* whose members attach to a few
  hubs each (this is exactly the structure the Island Locator mines),
* optional uniform *background* edges that blur the community structure
  (used to make the Reddit surrogate "less componenty", matching the
  paper's observation that Reddit benefits least from islandization).

All generators are deterministic given ``seed``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph

__all__ = [
    "CommunityProfile",
    "hub_island_graph",
    "erdos_renyi",
    "barabasi_albert",
]


@dataclass(frozen=True)
class CommunityProfile:
    """Tunable knobs of the hub-and-island generator.

    Attributes
    ----------
    hub_fraction:
        Fraction of nodes designated as hubs.
    island_size_mean:
        Mean island size (sizes are ``min + geometric`` with this mean).
    island_size_min:
        Smallest island the partitioner aims for (trailing remainder may
        be smaller).  Real citation graphs cluster into small cliques of
        co-cited papers, so the default is 3.
    island_size_max:
        Hard cap on island size.
    island_density:
        Probability of each internal island edge (1.0 = clique).
    hub_attach_prob:
        Probability that an island member links to each of the island's
        chosen hubs.
    hubs_per_island:
        How many hubs an island attaches to (at most).
    background_fraction:
        Fraction of the final edge budget spent on random cross-
        community edges; higher values weaken community structure.
    background_hub_bias:
        Probability that a background edge lands on a hub endpoint.
        Real scale-free graphs route cross-community links through
        popular nodes; near-zero bias instead produces a uniform random
        overlay that merges communities into one giant blob.
    interhub_avg_degree:
        Average number of hub-hub edges per hub.
    """

    hub_fraction: float = 0.03
    island_size_mean: float = 8.0
    island_size_min: int = 3
    island_size_max: int = 32
    island_density: float = 0.8
    hub_attach_prob: float = 0.7
    hubs_per_island: int = 2
    background_fraction: float = 0.05
    background_hub_bias: float = 0.8
    hub_popularity_exponent: float = 0.7
    interhub_avg_degree: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 < self.hub_fraction < 1.0:
            raise GraphError("hub_fraction must be in (0, 1)")
        if self.island_size_mean < 1.0:
            raise GraphError("island_size_mean must be >= 1")
        if not 0.0 <= self.island_density <= 1.0:
            raise GraphError("island_density must be in [0, 1]")
        if not 0.0 <= self.background_fraction < 1.0:
            raise GraphError("background_fraction must be in [0, 1)")


def hub_island_graph(
    num_nodes: int,
    profile: CommunityProfile,
    *,
    seed: int = 0,
    name: str = "hub-island",
) -> tuple[CSRGraph, np.ndarray]:
    """Generate a hub-and-island graph.

    Returns
    -------
    (graph, community_labels):
        ``community_labels[u]`` is the island id of node ``u`` or ``-1``
        for hubs; used to derive class labels correlated with structure.
    """
    if num_nodes < 4:
        raise GraphError("hub_island_graph needs at least 4 nodes")
    rng = np.random.default_rng(seed)

    num_hubs = max(1, int(round(num_nodes * profile.hub_fraction)))
    hubs = np.arange(num_hubs, dtype=np.int64)
    rest = np.arange(num_hubs, num_nodes, dtype=np.int64)
    rng.shuffle(rest)

    # Partition the non-hub nodes into islands: size = min + geometric
    # tail, so the mean is island_size_mean but no island is below
    # island_size_min (except a possibly smaller trailing remainder).
    sizes: list[int] = []
    remaining = len(rest)
    base = min(profile.island_size_min, profile.island_size_max)
    tail_mean = max(profile.island_size_mean - base + 1.0, 1.0001)
    p = min(0.999, 1.0 / tail_mean)
    while remaining > 0:
        size = base + int(rng.geometric(p)) - 1
        size = int(min(size, profile.island_size_max, remaining))
        sizes.append(max(size, 1))
        remaining -= sizes[-1]
    islands: list[np.ndarray] = []
    offset = 0
    for size in sizes:
        islands.append(rest[offset : offset + size])
        offset += size

    community = -np.ones(num_nodes, dtype=np.int64)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []

    # Power-law hub popularity so the degree distribution is skewed;
    # the exponent trades skew against the minimum hub degree (too much
    # skew leaves "hubs" that never rise above member degrees, which
    # real hub-mediated graphs do not exhibit).
    ranks = np.arange(1, num_hubs + 1, dtype=np.float64)
    hub_weights = np.power(ranks, -profile.hub_popularity_exponent)
    hub_weights /= hub_weights.sum()

    for island_id, members in enumerate(islands):
        community[members] = island_id
        m = len(members)
        if m >= 2:
            iu, iv = np.triu_indices(m, k=1)
            keep = rng.random(len(iu)) < profile.island_density
            rows.append(members[iu[keep]])
            cols.append(members[iv[keep]])
        # Attach the island to a few hubs.
        k = min(profile.hubs_per_island, num_hubs)
        chosen = rng.choice(hubs, size=k, replace=False, p=hub_weights)
        for hub in chosen:
            attach = members[rng.random(m) < profile.hub_attach_prob]
            if len(attach) == 0 and m > 0:
                attach = members[:1]  # keep every island reachable
            rows.append(np.full(len(attach), hub, dtype=np.int64))
            cols.append(attach)

    # Hub-hub edges.
    n_interhub = int(round(num_hubs * profile.interhub_avg_degree / 2.0))
    if num_hubs >= 2 and n_interhub > 0:
        hu = rng.choice(hubs, size=n_interhub, p=hub_weights)
        hv = rng.choice(hubs, size=n_interhub, p=hub_weights)
        keep = hu != hv
        rows.append(hu[keep])
        cols.append(hv[keep])

    # Background noise edges (weaken community structure).  One endpoint
    # is uniform; the other lands on a hub with background_hub_bias so
    # the overlay mimics scale-free cross-community linking instead of
    # welding all islands into one giant non-hub component.
    core_edges = int(sum(len(r) for r in rows))
    if profile.background_fraction > 0.0 and core_edges > 0:
        n_bg = int(
            core_edges
            * profile.background_fraction
            / (1.0 - profile.background_fraction)
        )
        bu = rng.integers(0, num_nodes, size=n_bg).astype(np.int64)
        to_hub = rng.random(n_bg) < profile.background_hub_bias
        bv = rng.integers(0, num_nodes, size=n_bg).astype(np.int64)
        if to_hub.any():
            bv[to_hub] = rng.choice(hubs, size=int(to_hub.sum()), p=hub_weights)
        keep = bu != bv
        rows.append(bu[keep])
        cols.append(bv[keep])

    all_rows = np.concatenate(rows) if rows else np.zeros(0, np.int64)
    all_cols = np.concatenate(cols) if cols else np.zeros(0, np.int64)
    graph = CSRGraph.from_edges(num_nodes, all_rows, all_cols, name=name)
    return graph, community


def erdos_renyi(
    num_nodes: int,
    avg_degree: float,
    *,
    seed: int = 0,
    name: str = "erdos-renyi",
) -> CSRGraph:
    """G(n, m)-style uniform random graph with the given average degree."""
    if num_nodes < 1:
        raise GraphError("num_nodes must be >= 1")
    if avg_degree < 0:
        raise GraphError("avg_degree must be >= 0")
    rng = np.random.default_rng(seed)
    n_edges = int(round(num_nodes * avg_degree / 2.0))
    u = rng.integers(0, num_nodes, size=n_edges)
    v = rng.integers(0, num_nodes, size=n_edges)
    keep = u != v
    return CSRGraph.from_edges(num_nodes, u[keep], v[keep], name=name)


def barabasi_albert(
    num_nodes: int,
    edges_per_node: int,
    *,
    seed: int = 0,
    name: str = "barabasi-albert",
) -> CSRGraph:
    """Preferential-attachment graph (power-law degree distribution).

    Straightforward BA process: each arriving node attaches to
    ``edges_per_node`` targets sampled proportionally to degree, using
    the classic repeated-endpoints trick for O(1) sampling.
    """
    if num_nodes < 2:
        raise GraphError("num_nodes must be >= 2")
    if edges_per_node < 1:
        raise GraphError("edges_per_node must be >= 1")
    m = min(edges_per_node, num_nodes - 1)
    rng = np.random.default_rng(seed)
    # Seed clique of m+1 nodes.
    endpoints: list[int] = []
    rows: list[int] = []
    cols: list[int] = []
    for i in range(m + 1):
        for j in range(i + 1, m + 1):
            rows.append(i)
            cols.append(j)
            endpoints.extend((i, j))
    for node in range(m + 1, num_nodes):
        targets: set[int] = set()
        while len(targets) < m:
            pick = endpoints[rng.integers(0, len(endpoints))]
            targets.add(int(pick))
        for t in targets:
            rows.append(node)
            cols.append(t)
            endpoints.extend((node, t))
    return CSRGraph.from_edges(
        num_nodes,
        np.asarray(rows, dtype=np.int64),
        np.asarray(cols, dtype=np.int64),
        name=name,
    )

