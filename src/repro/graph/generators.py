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

import math
import numbers
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
    hub_popularity_exponent:
        Hub ``r`` (1-based popularity rank) is chosen with weight
        ``r ** -hub_popularity_exponent``; 0 makes every hub equally
        popular.
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
        def need(field: str, integral: bool, ok, bounds: str) -> None:
            value = getattr(self, field)
            kind = numbers.Integral if integral else numbers.Real
            if not (
                isinstance(value, kind)
                and not isinstance(value, bool)
                and (integral or math.isfinite(value))
                and ok(value)
            ):
                raise GraphError(f"{field} must be {bounds}, got {value!r}")

        need("hub_fraction", False, lambda v: 0.0 < v < 1.0, "in (0, 1)")
        need("island_size_mean", False, lambda v: v >= 1.0, "a finite number >= 1")
        need("island_size_min", True, lambda v: v >= 1, "an integer >= 1")
        need("island_size_max", True, lambda v: v >= 1, "an integer >= 1")
        need("island_density", False, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
        need("hub_attach_prob", False, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
        need("hubs_per_island", True, lambda v: v >= 0, "an integer >= 0")
        need("background_fraction", False, lambda v: 0.0 <= v < 1.0, "in [0, 1)")
        need("background_hub_bias", False, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
        need("hub_popularity_exponent", False, lambda v: v >= 0.0, "a finite number >= 0")
        need("interhub_avg_degree", False, lambda v: v >= 0.0, "a finite number >= 0")


def hub_island_graph(
    num_nodes: int,
    profile: CommunityProfile,
    *,
    seed: int = 0,
    name: str = "hub-island",
) -> tuple[CSRGraph, np.ndarray]:
    """Generate a hub-and-island graph.

    Draw order: one ``rng.shuffle`` of the non-hub nodes, one
    ``rng.geometric`` per island size, then per island of ``m``
    members, from ``rng.random``:

    1. ``m(m-1)/2`` edge draws in ``np.triu_indices(m, 1)`` order (an
       edge is kept when its draw is below ``island_density``);
    2. ``k = min(hubs_per_island, num_hubs)`` hub draws, as
       ``rng.choice(hubs, size=k, replace=False, p=popularity)`` takes
       them: each draw is looked up in the popularity CDF, and while a
       pick repeats an earlier one, ``k - found`` more draws are looked
       up in the CDF renormalised over the hubs not found yet;
    3. ``m`` attach draws per chosen hub, in pick order (a member
       attaches when its draw is below ``hub_attach_prob``; a hub that
       no member attached to takes the island's first member, so every
       island stays reachable).

    The inter-hub and background draws follow.  The island phase reads
    all its draws from one block with array ops; its ``indptr``,
    ``indices`` and ``community`` are byte-identical to a per-island
    loop making these calls in this order (``tests/test_generators.py``
    holds that loop as the oracle and pins golden fingerprints).

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
    island_sizes = np.asarray(sizes, dtype=np.int64)

    community = -np.ones(num_nodes, dtype=np.int64)
    community[rest] = np.repeat(
        np.arange(len(island_sizes), dtype=np.int64), island_sizes
    )

    # Power-law hub popularity so the degree distribution is skewed;
    # the exponent trades skew against the minimum hub degree (too much
    # skew leaves "hubs" that never rise above member degrees, which
    # real hub-mediated graphs do not exhibit).
    ranks = np.arange(1, num_hubs + 1, dtype=np.float64)
    hub_weights = np.power(ranks, -profile.hub_popularity_exponent)
    hub_weights /= hub_weights.sum()
    k = min(profile.hubs_per_island, num_hubs)
    popular = np.count_nonzero(hub_weights)
    if popular < k:
        raise GraphError(
            f"hub_popularity_exponent {profile.hub_popularity_exponent} "
            f"leaves {popular} hubs with a nonzero weight; islands pick {k}"
        )

    island_rows, island_cols = _island_edges(
        rng, rest, island_sizes, hub_weights, profile, k
    )
    rows: list[np.ndarray] = [island_rows]
    cols: list[np.ndarray] = [island_cols]
    del island_rows, island_cols

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

    all_rows = np.concatenate(rows)
    all_cols = np.concatenate(cols)
    del rows, cols  # from_edges' own peak comes on top of what is alive
    graph = CSRGraph.from_edges(num_nodes, all_rows, all_cols, name=name)
    return graph, community


class _Uniforms:
    """The island phase's ``rng.random`` draws, in one buffer.

    It holds exactly the draws the phase is sure to read: the islands'
    fixed counts up front, then each hub redraw as it is made, so the
    generator's state afterwards is the per-island loop's.
    """

    def __init__(self, rng: np.random.Generator, count: int) -> None:
        self._rng = rng
        self.values = np.empty(count + max(64, count >> 8))
        rng.random(out=self.values[:count])
        self.count = count

    def extend(self, count: int) -> None:
        """Append ``count`` further draws."""
        end = self.count + count
        if end > len(self.values):
            grown = np.empty(2 * end)
            grown[: self.count] = self.values[: self.count]
            self.values = grown
        self._rng.random(out=self.values[self.count : end])
        self.count = end


#: Islands whose first hub draws are checked for a repeat at once.
_HUB_WINDOW = 512


def _choose_hubs(
    draws: _Uniforms, hub_at: np.ndarray, k: int, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every island's ``k`` hubs in pick order, and its redraw count.

    ``hub_at[i]`` is where island ``i``'s first hub draw would sit if no
    earlier island redrew.  A window of islands is looked up at once; the
    first island in it whose picks repeat a hub redraws as
    ``Generator.choice`` does, which shifts every later island's draws,
    so the next window starts after it.
    """
    n = len(hub_at)
    chosen = np.empty((n, k), dtype=np.int64)
    redraws = np.zeros(n, dtype=np.int64)
    if k == 0:
        return chosen, redraws
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    slots = np.arange(k)
    shift = 0
    i = 0
    while i < n:
        j = min(i + _HUB_WINDOW, n)
        picks = cdf.searchsorted(
            draws.values[hub_at[i:j, None] + shift + slots], side="right"
        )
        ordered = np.sort(picks, axis=1)
        repeats = np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
        stop = j if len(repeats) == 0 else i + int(repeats[0])
        chosen[i:stop] = picks[: stop - i]
        if stop == j:
            i = j
            continue
        # Generator.choice's loop: zero the found hubs, renormalise, and
        # draw one value per hub still missing.
        found = list(dict.fromkeys(picks[stop - i].tolist()))
        remaining_weights = weights.copy()
        at = start = int(hub_at[stop]) + shift + k
        while len(found) < k:
            need = k - len(found)
            draws.extend(need)
            remaining_weights[found] = 0
            redraw_cdf = np.cumsum(remaining_weights)
            redraw_cdf /= redraw_cdf[-1]
            new = redraw_cdf.searchsorted(draws.values[at : at + need], side="right")
            found.extend(dict.fromkeys(new.tolist()))
            at += need
        chosen[stop] = found
        redraws[stop] = at - start
        shift += at - start
        i = stop + 1
    return chosen, redraws


def _island_edges(
    rng: np.random.Generator,
    rest: np.ndarray,
    sizes: np.ndarray,
    hub_weights: np.ndarray,
    profile: CommunityProfile,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Internal edges and hub attachments of every island, as ``(rows, cols)``.

    Islands are consecutive runs of ``rest`` with the given ``sizes``;
    the draws follow :func:`hub_island_graph`'s per-island order.
    Islands of one size are handled together as a matrix.
    """
    pairs = sizes * (sizes - 1) // 2
    first = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(pairs + k + k * sizes, out=first[1:])
    draws = _Uniforms(rng, int(first[-1]))
    chosen, redraws = _choose_hubs(draws, first[:-1] + pairs, k, hub_weights)
    # Each island's first draw, after the redraws of the islands before it.
    first = first[:-1]
    first[1:] += np.cumsum(redraws[:-1])
    member_at = np.zeros(len(sizes), dtype=np.int64)
    np.cumsum(sizes[:-1], out=member_at[1:])

    values = draws.values[: draws.count]
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    for size in np.flatnonzero(np.bincount(sizes)).tolist():
        ids = np.flatnonzero(sizes == size)
        members = rest[member_at[ids, None] + np.arange(size)]
        n_pairs = size * (size - 1) // 2
        if n_pairs:
            iu, iv = np.triu_indices(size, k=1)
            keep = (
                values[first[ids, None] + np.arange(n_pairs)]
                < profile.island_density
            )
            rows.append(members[:, iu][keep])
            cols.append(members[:, iv][keep])
        if k:
            attach_at = first[ids] + n_pairs + k + redraws[ids]
            keep = (
                values[attach_at[:, None] + np.arange(k * size)]
                < profile.hub_attach_prob
            ).reshape(len(ids), k, size)
            keep[:, :, 0] |= ~keep.any(axis=2)
            rows.append(np.broadcast_to(chosen[ids, :, None], keep.shape)[keep])
            cols.append(np.broadcast_to(members[:, None, :], keep.shape)[keep])
    if not rows:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    return np.concatenate(rows), np.concatenate(cols)


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

