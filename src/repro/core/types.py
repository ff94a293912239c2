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

Islands are held as one flat table, :class:`IslandTable`: each island's
round, and its members and attached hubs as two CSR-style
(offsets, flat array) pairs — the five arrays the islandization archive
stores.  The locator's rounds produce tables, the stream hands them to
the consumer, and the batched consumer, the store, the partitioned
merge and the incremental splice read and build them with array
operations.  An int index yields one :class:`Island` value, which the
scalar oracles iterate.
"""

from __future__ import annotations

import dataclasses
import operator
from dataclasses import dataclass, field
from typing import IO, Iterator, Sequence

import numpy as np

from repro.errors import IslandizationError
from repro.graph.csr import CSRGraph
from repro.nputil import csr_gather, cumsum0
from repro.serialize import read_npz, write_npz

__all__ = [
    "Island",
    "IslandTable",
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
    — it is not stored on the object.  ``Island`` is the per-island
    view of an :class:`IslandTable` row: the scalar oracles and tests
    iterate these values, while the batched paths never build one.
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


_EMPTY = np.zeros(0, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class IslandTable:
    """Islands as one flat table: a round per island plus two CSR lists.

    Island ``i`` was found in round ``round_id[i]``; its members, in
    BFS discovery order, are ``members[member_offsets[i]:
    member_offsets[i + 1]]`` and its attached hubs, in first-contact
    order, are ``hubs[hub_offsets[i]:hub_offsets[i + 1]]``.  These are
    the archive's five ``int64`` arrays, and both offset arrays start at
    0 and end at their flat array's length.  Per-row questions are
    answered by slicing or gathering rows, as a CSR graph answers them,
    never by holding one object per island: ``table[i]`` builds one
    :class:`Island` value, ``table[a:b]`` is a table of zero-copy flat
    slices, and :meth:`take` gathers rows.
    """

    round_id: np.ndarray
    member_offsets: np.ndarray
    members: np.ndarray
    hub_offsets: np.ndarray
    hubs: np.ndarray

    @classmethod
    def from_arrays(
        cls, round_ids, members: Sequence, hubs: Sequence
    ) -> "IslandTable":
        """Pack per-island member and hub sequences into one table.

        ``round_ids`` is one round per island, or one int for all.  The
        scalar locator round and tests build tables this way; nothing
        is validated.
        """
        num = len(members)
        return cls(
            round_id=np.broadcast_to(
                np.asarray(round_ids, dtype=np.int64), (num,)
            ).copy(),
            member_offsets=cumsum0([len(m) for m in members]),
            members=np.concatenate(
                [_EMPTY] + [np.asarray(m, dtype=np.int64) for m in members]
            ),
            hub_offsets=cumsum0([len(h) for h in hubs]),
            hubs=np.concatenate(
                [_EMPTY] + [np.asarray(h, dtype=np.int64) for h in hubs]
            ),
        )

    @classmethod
    def singletons(cls, round_id: int, nodes: np.ndarray) -> "IslandTable":
        """One hub-less island per node of ``nodes`` (isolated nodes)."""
        num = len(nodes)
        return cls(
            round_id=np.full(num, round_id, dtype=np.int64),
            member_offsets=np.arange(num + 1, dtype=np.int64),
            members=nodes,
            hub_offsets=np.zeros(num + 1, dtype=np.int64),
            hubs=_EMPTY,
        )

    @classmethod
    def concat(cls, tables: Sequence["IslandTable"]) -> "IslandTable":
        """The islands of ``tables``, one table after the other."""
        tables = list(tables)
        if len(tables) == 1:
            return tables[0]

        def flat(name: str) -> np.ndarray:
            return np.concatenate([_EMPTY] + [getattr(t, name) for t in tables])

        def offsets(name: str, flat_name: str) -> np.ndarray:
            bases = cumsum0([len(getattr(t, flat_name)) for t in tables])
            return np.concatenate([np.zeros(1, dtype=np.int64)] + [
                getattr(t, name)[1:] + base for t, base in zip(tables, bases)
            ])

        return cls(
            round_id=flat("round_id"),
            member_offsets=offsets("member_offsets", "members"),
            members=flat("members"),
            hub_offsets=offsets("hub_offsets", "hubs"),
            hubs=flat("hubs"),
        )

    def __len__(self) -> int:
        return len(self.round_id)

    def __getitem__(self, index):
        """``table[i]`` is island ``i``; ``table[a:b]`` is a sub-table."""
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                return self.take(np.arange(start, stop, step))
            stop = max(start, stop)
            m_lo, m_hi = self.member_offsets[start], self.member_offsets[stop]
            h_lo, h_hi = self.hub_offsets[start], self.hub_offsets[stop]
            return IslandTable(
                round_id=self.round_id[start:stop],
                member_offsets=self.member_offsets[start:stop + 1] - m_lo,
                members=self.members[m_lo:m_hi],
                hub_offsets=self.hub_offsets[start:stop + 1] - h_lo,
                hubs=self.hubs[h_lo:h_hi],
            )
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"island {index} out of range")
        m, h = self.member_offsets, self.hub_offsets
        return Island.from_trusted_arrays(
            round_id=int(self.round_id[i]),
            members=self.members[m[i]:m[i + 1]],
            hubs=self.hubs[h[i]:h[i + 1]],
        )

    def __iter__(self) -> Iterator[Island]:
        return (self[i] for i in range(len(self)))

    @property
    def num_members(self) -> np.ndarray:
        """Members of each island."""
        return np.diff(self.member_offsets)

    @property
    def num_hubs(self) -> np.ndarray:
        """Attached hubs of each island."""
        return np.diff(self.hub_offsets)

    @property
    def first_members(self) -> np.ndarray:
        """Each island's first member, the seed of its winning task."""
        return self.members[self.member_offsets[:-1]]

    def take(self, indices: np.ndarray) -> "IslandTable":
        """The islands at ``indices``, in that order."""
        indices = np.asarray(indices, dtype=np.int64)
        m_flat, m_counts = csr_gather(self.member_offsets, indices)
        h_flat, h_counts = csr_gather(self.hub_offsets, indices)
        return IslandTable(
            round_id=self.round_id[indices],
            member_offsets=cumsum0(m_counts),
            members=self.members[m_flat],
            hub_offsets=cumsum0(h_counts),
            hubs=self.hubs[h_flat],
        )

    def relabel(self, node_map: np.ndarray) -> "IslandTable":
        """The same islands with every node ``u`` renamed ``node_map[u]``."""
        return dataclasses.replace(
            self, members=node_map[self.members], hubs=node_map[self.hubs]
        )

    def equals(self, other: "IslandTable") -> bool:
        """Same islands, rounds and member and hub orders."""
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in _TABLE_FIELDS
        )


_TABLE_FIELDS = tuple(f.name for f in dataclasses.fields(IslandTable))


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


@dataclass(frozen=True)
class RoundOutput:
    """One round's hand-off from the Island Locator to its consumer.

    The paper's Fig. 3 pipeline ("the Island Consumer can process an
    island as soon as it is formed", §3.1.1) needs a per-round unit of
    production: :meth:`IslandLocator.stream` yields one ``RoundOutput``
    at each round boundary, carrying exactly the islands finalized that
    round plus the round's :class:`RoundStats` (the counters the cycle
    model turns into release times).  ``islands`` holds exactly the rows
    ``first_island_id ..`` of the final :class:`IslandizationResult`'s
    table, in the same order, so a consumer that processes chunks as
    they arrive sees the identical task sequence a staged consumer sees
    after the fact.
    """

    stats: RoundStats
    islands: IslandTable          # islands finalized this round, id order
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
    islands: IslandTable
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
            islands = self.islands
            labels = -np.ones(self.graph.num_nodes, dtype=np.int64)
            labels[islands.members] = np.repeat(
                np.arange(len(islands), dtype=np.int64), islands.num_members
            )
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
        by_round = np.argsort(self.hub_round, kind="stable")
        flat = np.concatenate((self.hub_ids[by_round], self.islands.members))
        perm = np.empty(self.graph.num_nodes, dtype=np.int64)
        perm[flat] = np.arange(self.graph.num_nodes, dtype=np.int64)
        return perm

    def iter_rounds(self):
        """Replay this result as the per-round stream that produced it.

        Yields one :class:`RoundOutput` per entry of :attr:`rounds`
        (rounds that finalized no islands yield empty chunks), with the
        same islands, grouping and order a live ``IslandLocator.stream``
        run emits — the locator appends islands round-by-round, so
        island ``round_id``s are non-decreasing and each round's chunk
        is a contiguous slice of the table.  This is the streamed
        pipeline's path when the islandization comes out of an artifact
        cache instead of a live locator.
        """
        round_ids = self.islands.round_id
        start = 0
        for stats in self.rounds:
            end = int(np.searchsorted(round_ids, stats.round_id, side="right"))
            chunk = self.islands[start:end]
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

        The island table's five arrays are stored as they are; rounds
        become one ``(num_rounds, len(ROUND_FIELDS))`` integer matrix
        whose column order is recorded in the metadata (so the layout
        survives field evolution).  All numpy payloads round-trip byte-identically,
        which keeps the restored ``graph.fingerprint()`` — and with it
        every downstream cache key — stable.
        """
        islands = self.islands
        arrays = {
            "graph_indptr": self.graph.indptr,
            "graph_indices": self.graph.indices,
            "hub_ids": self.hub_ids,
            "hub_round": self.hub_round,
            "interhub_edges": self.interhub_edges,
            "island_rounds": islands.round_id,
            "island_member_offsets": islands.member_offsets,
            "island_members_flat": islands.members,
            "island_hub_offsets": islands.hub_offsets,
            "island_hubs_flat": islands.hubs,
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
        islands = IslandTable(
            round_id=arrays["island_rounds"],
            member_offsets=arrays["island_member_offsets"],
            members=arrays["island_members_flat"],
            hub_offsets=arrays["island_hub_offsets"],
            hubs=arrays["island_hubs_flat"],
        )
        fields = [str(name) for name in meta["round_fields"]]
        rounds = [
            RoundStats(**{name: int(value) for name, value in zip(fields, row)})
            for row in arrays["rounds"]
        ]
        _check_island_table(
            islands, graph.num_nodes, [r.round_id for r in rounds]
        )
        if len(arrays["hub_round"]) != len(arrays["hub_ids"]):
            raise IslandizationError("hub_round does not have one entry per hub")
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
        np.add.at(seen, self.islands.members, 1)
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
        return (
            self.islands.equals(other.islands)
            and np.array_equal(self.hub_ids, other.hub_ids)
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


def _check_offsets(offsets: np.ndarray, flat: np.ndarray, kind: str,
                   num_islands: int) -> None:
    """Raise unless ``offsets`` partition ``flat`` into ``num_islands`` rows."""
    if (
        len(offsets) != num_islands + 1 or offsets[0] != 0
        or offsets[-1] != len(flat) or (np.diff(offsets) < 0).any()
    ):
        raise IslandizationError(
            f"island {kind} offsets do not partition the {kind} list"
        )


def _check_island_table(
    islands: IslandTable, num_nodes: int, round_ids: list[int]
) -> None:
    """Reject a decoded island table that could yield a wrong number.

    Checks its shape (both offset arrays run from 0 to their flat
    array's length without decreasing, and every island has a member),
    its rounds (non-decreasing, each one a round of the result, so
    :meth:`IslandizationResult.iter_rounds` hands every island to the
    consumer in its own round), and its node ids: in range, no node a
    member twice, no hub twice in one island, and no island listing a
    node as member and hub.  Task assembly relies on the last three, as
    it does not deduplicate bitmap entries.
    """
    num = len(islands)
    _check_offsets(islands.member_offsets, islands.members, "member", num)
    _check_offsets(islands.hub_offsets, islands.hubs, "hub", num)
    if (islands.num_members < 1).any():
        raise IslandizationError("an island must have at least one member")
    rounds = np.asarray(round_ids, dtype=np.int64)
    if (np.diff(rounds) <= 0).any():
        raise IslandizationError("round ids are not increasing")
    if (np.diff(islands.round_id) < 0).any():
        raise IslandizationError("island rounds decrease")
    pos = np.minimum(np.searchsorted(rounds, islands.round_id), len(rounds) - 1)
    if num and (len(rounds) == 0 or (rounds[pos] != islands.round_id).any()):
        raise IslandizationError("an island's round is not a round of the result")
    for kind, flat in (("member", islands.members), ("hub", islands.hubs)):
        if len(flat) and (flat.min() < 0 or flat.max() >= num_nodes):
            raise IslandizationError(f"an island {kind} is not a node id")
    if len(islands.members) and np.bincount(islands.members).max() > 1:
        raise IslandizationError("a node is listed as a member more than once")
    span = max(num_nodes, 1)
    island_ids = np.arange(num, dtype=np.int64)
    member_keys = np.repeat(island_ids, islands.num_members) * span + islands.members
    hub_keys = np.sort(np.repeat(island_ids, islands.num_hubs) * span + islands.hubs)
    if (hub_keys[1:] == hub_keys[:-1]).any():
        raise IslandizationError("an island lists a hub more than once")
    # np.intersect1d takes NumPy 2.x's slow hash-path unique; a key
    # shared by both sides shows as an adjacent repeat after one sort.
    both = np.sort(np.concatenate((member_keys, hub_keys)))
    if (both[1:] == both[:-1]).any():
        raise IslandizationError("a node cannot be both member and hub")
