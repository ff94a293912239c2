"""Data model of islandization: islands, rounds, and the full result.

Terminology follows the paper (§3.1):

* **hub** — a node whose degree crosses the (decaying) round threshold;
  hubs are the contact points between islands and show up as L-shapes
  in the reordered adjacency matrix.
* **island** — a maximal group of non-hub nodes with internal
  connections only (their external links all go to hubs); islands are
  the anti-diagonal blocks.
* **round** — one iteration of Algorithm 1: hub detection at the
  current threshold, BFS task generation, and TP-BFS island search, all
  synchronised at the round boundary, after which the threshold decays.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import IO

import numpy as np

from repro.errors import IslandizationError
from repro.graph.csr import CSRGraph
from repro.nputil import sorted_unique
from repro.serialize import read_npz, write_npz

__all__ = [
    "Island",
    "RoundStats",
    "LocatorWork",
    "RoundOutput",
    "IslandizationResult",
    "ROUND_FIELDS",
]


@dataclass(frozen=True, slots=True)
class Island:
    """One located island.

    ``members`` are in BFS discovery order — the order the Island
    Consumer uses as the local column layout (so pre-aggregation groups
    are formed over discovery-adjacent nodes).  ``hubs`` are the hub
    nodes attached to this island (the L-shape), in first-contact order.

    An island's *id* is its position in ``IslandizationResult.islands``
    — it is not stored on the object.  Storing it would be redundant
    (the locator always assigns ids as a running list position) and
    would force delta maintenance to rebuild every clean island whose
    position shifts; with positional ids, unchanged islands are reused
    by reference across incremental updates.

    ``slots=True`` matters too: locator and maintenance paths construct
    one ``Island`` per located island (millions at the large benchmark
    tiers), and slotted instances skip the per-object ``__dict__``
    allocation that otherwise dominates bulk construction.
    """

    round_id: int
    members: np.ndarray
    hubs: np.ndarray

    def __post_init__(self) -> None:
        members = np.asarray(self.members, dtype=np.int64)
        hubs = np.asarray(self.hubs, dtype=np.int64)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "hubs", hubs)
        if len(members) == 0:
            raise IslandizationError("an island must have at least one member")
        if len(np.intersect1d(members, hubs)) != 0:
            raise IslandizationError("a node cannot be both member and hub")

    @classmethod
    def from_trusted_arrays(
        cls,
        round_id: int,
        members: np.ndarray,
        hubs: np.ndarray,
    ) -> "Island":
        """Construct without re-validating (locator-internal fast path).

        The Island Locator produces members/hubs as disjoint ``int64``
        arrays by construction (stamp arrays make overlap impossible),
        so batch island construction skips the ``__post_init__``
        coercion and intersection check.  External callers should use
        the regular constructor.
        """
        island = object.__new__(cls)
        object.__setattr__(island, "round_id", round_id)
        object.__setattr__(island, "members", members)
        object.__setattr__(island, "hubs", hubs)
        return island

    @property
    def num_members(self) -> int:
        """Number of island nodes."""
        return len(self.members)

    @property
    def num_hubs(self) -> int:
        """Number of attached hubs."""
        return len(self.hubs)

    @property
    def local_order(self) -> np.ndarray:
        """Column/row layout of the island task: hubs first, then members.

        Matches Figure 7, where the hub column leads the bitmap.
        """
        return np.concatenate([self.hubs, self.members])

    def to_npz(self, file: str | IO[bytes]) -> None:
        """Serialize one island (round as metadata, arrays verbatim)."""
        write_npz(
            file,
            {"members": self.members, "hubs": self.hubs},
            {"format": 2, "round_id": int(self.round_id)},
        )

    @classmethod
    def from_npz(cls, file: str | IO[bytes]) -> "Island":
        """Restore an island written by :meth:`to_npz`.

        Accepts both the current archive layout and format-1 archives,
        which carried the (positional, hence redundant) island id as
        extra metadata.
        """
        arrays, meta = read_npz(file)
        return cls(
            round_id=int(meta["round_id"]),
            members=arrays["members"],
            hubs=arrays["hubs"],
        )


@dataclass(frozen=True)
class RoundStats:
    """Per-round locator statistics (drives Figure 9 and the cycle model)."""

    round_id: int
    threshold: int
    nodes_remaining: int       # |N| at round start
    hubs_found: int
    islands_found: int
    nodes_islanded: int
    tasks_generated: int
    tasks_dropped_classified: int  # seed already hub/islanded (inter-hub source)
    tasks_dropped_visited: int     # seed/region already visited this round
    tasks_dropped_cmax: int        # island-size cap exceeded
    interhub_edges_found: int
    adjacency_fetches: int         # neighbour-list reads from global memory
    adjacency_bytes: int
    detect_items: int              # degree entries swept by the hub detector

    def to_npz(self, file: str | IO[bytes]) -> None:
        """Serialize the per-round counters (all-integer metadata)."""
        write_npz(file, {}, {"format": 1, "fields": self.as_row()})

    @classmethod
    def from_npz(cls, file: str | IO[bytes]) -> "RoundStats":
        """Restore round statistics written by :meth:`to_npz`."""
        _, meta = read_npz(file)
        return cls(**{name: int(value) for name, value in meta["fields"].items()})

    def as_row(self) -> dict[str, int]:
        """Field-name → int mapping in declaration order."""
        return {name: int(getattr(self, name)) for name in ROUND_FIELDS}


#: RoundStats field names in declaration order — the column layout used
#: when rounds are packed into one integer matrix for serialization.
ROUND_FIELDS: tuple[str, ...] = tuple(
    f.name for f in dataclasses.fields(RoundStats)
)


@dataclass(frozen=True)
class LocatorWork:
    """Aggregate locator work, used by the hardware cycle model."""

    total_adjacency_fetches: int
    total_adjacency_bytes: int
    total_detect_items: int
    total_bfs_scans: int          # neighbour entries scanned by TP-BFS engines
    per_engine_scans: np.ndarray  # work distribution across the P2 engines

    def _totals(self) -> dict[str, int]:
        return {
            "total_adjacency_fetches": int(self.total_adjacency_fetches),
            "total_adjacency_bytes": int(self.total_adjacency_bytes),
            "total_detect_items": int(self.total_detect_items),
            "total_bfs_scans": int(self.total_bfs_scans),
        }

    def to_npz(self, file: str | IO[bytes]) -> None:
        """Serialize the totals + the per-engine work distribution."""
        write_npz(
            file,
            {"per_engine_scans": self.per_engine_scans},
            {"format": 1, "totals": self._totals()},
        )

    @classmethod
    def from_npz(cls, file: str | IO[bytes]) -> "LocatorWork":
        """Restore aggregate work written by :meth:`to_npz`."""
        arrays, meta = read_npz(file)
        totals = {name: int(value) for name, value in meta["totals"].items()}
        return cls(per_engine_scans=arrays["per_engine_scans"], **totals)


@dataclass(frozen=True)
class RoundOutput:
    """One round's hand-off from the Island Locator to its consumer.

    The paper's Fig. 3 pipeline ("the Island Consumer can process an
    island as soon as it is formed", §3.1.1) needs a per-round unit of
    production: :meth:`IslandLocator.stream` yields one ``RoundOutput``
    at each round boundary, carrying exactly the islands finalized that
    round plus the round's :class:`RoundStats` (the counters the cycle
    model turns into release times).  ``islands`` are the same objects
    that end up in the final :class:`IslandizationResult`, in the same
    order, so a consumer that processes chunks as they arrive sees the
    identical task sequence a staged consumer sees after the fact.
    """

    stats: RoundStats
    islands: tuple[Island, ...]   # islands finalized this round, id order
    new_hub_ids: np.ndarray       # hubs detected this round, append order
    first_island_id: int          # id of islands[0]; global task offset

    @property
    def round_id(self) -> int:
        """Round this chunk was produced by."""
        return self.stats.round_id

    @property
    def num_islands(self) -> int:
        """Islands finalized this round."""
        return len(self.islands)


@dataclass
class IslandizationResult:
    """Everything the Island Locator hands to the Island Consumer.

    Invariants (checked by :meth:`validate`):

    * every node is classified exactly once (hub xor exactly one island);
    * island members have no neighbours outside ``members + hubs``;
    * every directed edge of the graph is covered exactly once by
      island tasks (member-member and member-hub entries) plus the
      inter-hub edge map.
    """

    graph: CSRGraph
    islands: list[Island]
    hub_ids: np.ndarray
    hub_round: np.ndarray          # round at which each hub_ids[i] was found
    interhub_edges: np.ndarray     # (E, 2) canonical (min, max) undirected pairs
    rounds: list[RoundStats]
    work: LocatorWork
    _membership: np.ndarray | None = field(default=None, repr=False)

    @property
    def num_islands(self) -> int:
        """Number of islands located."""
        return len(self.islands)

    @property
    def num_hubs(self) -> int:
        """Number of hub nodes."""
        return len(self.hub_ids)

    @property
    def num_rounds(self) -> int:
        """Rounds until the node list emptied."""
        return len(self.rounds)

    @property
    def hub_fraction(self) -> float:
        """Fraction of nodes classified as hubs."""
        n = self.graph.num_nodes
        return self.num_hubs / n if n else 0.0

    def membership(self) -> np.ndarray:
        """Per-node label: island id, or -1 for hubs (cached)."""
        if self._membership is None:
            labels = -np.ones(self.graph.num_nodes, dtype=np.int64)
            for island_id, island in enumerate(self.islands):
                labels[island.members] = island_id
            self._membership = labels
        return self._membership

    def is_hub(self) -> np.ndarray:
        """Boolean hub mask."""
        mask = np.zeros(self.graph.num_nodes, dtype=bool)
        mask[self.hub_ids] = True
        return mask

    def island_permutation(self) -> np.ndarray:
        """perm[old] = new: hubs first (by round), islands contiguous.

        This is the layout of the paper's Figure 9: hub L-shapes at the
        matrix border and islands as dense blocks along the (anti-)
        diagonal.  Returned in plain diagonal form; spy-plot code may
        flip an axis to match the paper's anti-diagonal rendering.
        """
        order: list[np.ndarray] = []
        if self.num_hubs:
            by_round = np.argsort(self.hub_round, kind="stable")
            order.append(self.hub_ids[by_round])
        for island in self.islands:
            order.append(island.members)
        if order:
            flat = np.concatenate(order)
        else:
            flat = np.zeros(0, dtype=np.int64)
        perm = np.empty(self.graph.num_nodes, dtype=np.int64)
        perm[flat] = np.arange(self.graph.num_nodes, dtype=np.int64)
        return perm

    def iter_rounds(self):
        """Replay this result as the per-round stream that produced it.

        Yields one :class:`RoundOutput` per entry of :attr:`rounds`
        (rounds that finalized no islands yield empty chunks), with the
        same island objects, grouping and order a live
        ``IslandLocator.stream`` run emits — the locator appends
        islands round-by-round, so island ``round_id``s are
        non-decreasing and each round's chunk is a contiguous slice.
        This is the streamed pipeline's path when the islandization
        comes out of an artifact cache instead of a live locator.
        """
        round_ids = np.asarray([isl.round_id for isl in self.islands], dtype=np.int64)
        start = 0
        for stats in self.rounds:
            end = int(np.searchsorted(round_ids, stats.round_id, side="right"))
            chunk = tuple(self.islands[start:end])
            yield RoundOutput(
                stats=stats,
                islands=chunk,
                new_hub_ids=self.hub_ids[self.hub_round == stats.round_id],
                first_island_id=start,
            )
            start = end

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_npz(self, file: str | IO[bytes]) -> None:
        """Serialize the full result as one npz archive.

        Variable-length island members/hubs are packed as flat arrays
        plus CSR-style offsets; rounds become one ``(num_rounds,
        len(ROUND_FIELDS))`` integer matrix whose column order is
        recorded in the metadata (so the layout survives field
        evolution).  All numpy payloads round-trip byte-identically,
        which keeps the restored ``graph.fingerprint()`` — and with it
        every downstream cache key — stable.
        """
        member_offsets = np.zeros(len(self.islands) + 1, dtype=np.int64)
        hub_offsets = np.zeros(len(self.islands) + 1, dtype=np.int64)
        for i, island in enumerate(self.islands):
            member_offsets[i + 1] = member_offsets[i] + island.num_members
            hub_offsets[i + 1] = hub_offsets[i] + island.num_hubs
        empty = np.zeros(0, dtype=np.int64)
        arrays = {
            "graph_indptr": self.graph.indptr,
            "graph_indices": self.graph.indices,
            "hub_ids": self.hub_ids,
            "hub_round": self.hub_round,
            "interhub_edges": self.interhub_edges,
            "island_rounds": np.asarray(
                [isl.round_id for isl in self.islands], dtype=np.int64
            ),
            "island_member_offsets": member_offsets,
            "island_members_flat": (
                np.concatenate([isl.members for isl in self.islands])
                if self.islands else empty
            ),
            "island_hub_offsets": hub_offsets,
            "island_hubs_flat": (
                np.concatenate([isl.hubs for isl in self.islands])
                if self.islands else empty
            ),
            "rounds": np.asarray(
                [[row[name] for name in ROUND_FIELDS]
                 for row in (r.as_row() for r in self.rounds)],
                dtype=np.int64,
            ).reshape(len(self.rounds), len(ROUND_FIELDS)),
            "work_per_engine_scans": self.work.per_engine_scans,
        }
        meta = {
            "format": 2,
            "graph_name": self.graph.name,
            "round_fields": list(ROUND_FIELDS),
            "work_totals": self.work._totals(),
        }
        write_npz(file, arrays, meta)

    @classmethod
    def from_npz(cls, file: str | IO[bytes]) -> "IslandizationResult":
        """Restore a result written by :meth:`to_npz`."""
        arrays, meta = read_npz(file)
        graph = CSRGraph(
            indptr=arrays["graph_indptr"],
            indices=arrays["graph_indices"],
            name=str(meta["graph_name"]),
        )
        m_off, h_off = arrays["island_member_offsets"], arrays["island_hub_offsets"]
        members_flat = arrays["island_members_flat"]
        hubs_flat = arrays["island_hubs_flat"]
        # Batched Island.__post_init__: one pass over the flat arrays
        # instead of a per-island constructor (which is quadratic in
        # feel at a few hundred thousand islands).
        if (np.diff(m_off) < 1).any():
            raise IslandizationError("an island must have at least one member")
        num_islands = len(m_off) - 1
        span = int(
            max(members_flat.max(initial=-1), hubs_flat.max(initial=-1))
        ) + 1
        member_keys = (
            np.repeat(np.arange(num_islands, dtype=np.int64), np.diff(m_off))
            * span + members_flat
        )
        hub_keys = (
            np.repeat(np.arange(num_islands, dtype=np.int64), np.diff(h_off))
            * span + hubs_flat
        )
        # np.intersect1d takes NumPy 2.x's slow hash-path unique; a key
        # shared by both sides shows as an adjacent repeat after one sort.
        both = np.sort(
            np.concatenate((sorted_unique(member_keys), sorted_unique(hub_keys)))
        )
        if (both[1:] == both[:-1]).any():
            raise IslandizationError("a node cannot be both member and hub")
        islands = [
            Island.from_trusted_arrays(
                round_id=int(round_id),
                members=members_flat[m_off[i]:m_off[i + 1]],
                hubs=hubs_flat[h_off[i]:h_off[i + 1]],
            )
            for i, round_id in enumerate(arrays["island_rounds"])
        ]
        fields = [str(name) for name in meta["round_fields"]]
        rounds = [
            RoundStats(**{name: int(value) for name, value in zip(fields, row)})
            for row in arrays["rounds"]
        ]
        work = LocatorWork(
            per_engine_scans=arrays["work_per_engine_scans"],
            **{name: int(value) for name, value in meta["work_totals"].items()},
        )
        return cls(
            graph=graph,
            islands=islands,
            hub_ids=arrays["hub_ids"],
            hub_round=arrays["hub_round"],
            interhub_edges=arrays["interhub_edges"],
            rounds=rounds,
            work=work,
        )

    # ------------------------------------------------------------------
    # Invariant checks
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`IslandizationError` if any invariant is broken."""
        n = self.graph.num_nodes
        seen = np.zeros(n, dtype=np.int64)
        for island in self.islands:
            seen[island.members] += 1
        seen[self.hub_ids] += 1
        if not np.all(seen == 1):
            bad = np.flatnonzero(seen != 1)[:5]
            raise IslandizationError(
                f"nodes classified {'multiple times' if seen.max() > 1 else 'never'}: "
                f"{bad.tolist()}"
            )
        hub_mask = self.is_hub()
        labels = self.membership()
        for island_id, island in enumerate(self.islands):
            for member in island.members:
                for neigh in self.graph.neighbors(int(member)):
                    neigh = int(neigh)
                    if neigh == member:
                        continue
                    if hub_mask[neigh]:
                        continue
                    if labels[neigh] != island_id:
                        raise IslandizationError(
                            f"island {island_id}: member {member} has "
                            f"non-hub external neighbour {neigh}"
                        )
        self._validate_edge_coverage()

    def equals(self, other: "IslandizationResult") -> bool:
        """Exact structural equality with another result.

        True iff every island (position, round, member order, hub
        order), the hub list and rounds-of-discovery, the inter-hub
        edge map, all per-round statistics, and all work counters
        (including the per-engine distribution) match.  This is the
        contract the batched locator backend is held to against the
        scalar oracle.
        """
        if len(self.islands) != len(other.islands):
            return False
        for a, b in zip(self.islands, other.islands):
            if a.round_id != b.round_id:
                return False
            if not np.array_equal(a.members, b.members):
                return False
            if not np.array_equal(a.hubs, b.hubs):
                return False
        return (
            np.array_equal(self.hub_ids, other.hub_ids)
            and np.array_equal(self.hub_round, other.hub_round)
            and np.array_equal(self.interhub_edges, other.interhub_edges)
            and self.rounds == other.rounds
            and self.work._totals() == other.work._totals()
            and np.array_equal(
                self.work.per_engine_scans, other.work.per_engine_scans
            )
        )

    def _validate_edge_coverage(self) -> None:
        """Directed edge count must match islands + inter-hub exactly."""
        hub_mask = self.is_hub()
        covered = 0
        for island in self.islands:
            member_set = set(island.members.tolist())
            hub_set = set(island.hubs.tolist())
            for member in island.members:
                for neigh in self.graph.neighbors(int(member)):
                    neigh = int(neigh)
                    if neigh in member_set:
                        covered += 1          # member -> member entry
                    elif neigh in hub_set:
                        covered += 2          # member->hub and hub->member
                    elif hub_mask[neigh]:
                        raise IslandizationError(
                            f"member {member} touches unattached hub {neigh}"
                        )
        # Inter-hub: canonical undirected pairs; self loops impossible here.
        directed_interhub = 0
        for u, v in self.interhub_edges:
            directed_interhub += 1 if u == v else 2
        total = covered + directed_interhub
        if total != self.graph.num_edges:
            raise IslandizationError(
                f"edge coverage mismatch: covered {total} of "
                f"{self.graph.num_edges} directed entries"
            )
