"""Incremental-islandization benchmark: delta maintenance vs rebuild.

Times :func:`repro.core.islandizer_incremental.update_islandization`
against both from-scratch contenders on one evolving ~2e6-entry graph
across a ladder of *delta sizes* (the other suites ladder graph size;
an evolving-graph pipeline's variable is how much changed since the
cached islandization):

* ``record_s`` — :func:`record_islandization` on the mutated graph:
  the honest baseline.  A pipeline that wants to stay updatable must
  re-record the incremental bookkeeping on every rebuild, so this is
  the cost the incremental path actually displaces (the **headline**
  speedup).
* ``islandize_s`` — plain :func:`islandize` on the mutated graph: the
  cost for a pipeline that gives up on updatability.  Reported so the
  record-keeping overhead is visible next to the win.

Every ladder point asserts exact equivalence
(``IslandizationResult.equals``, per-engine work distribution
included) between the updated result and a from-scratch run on the
mutated graph — the incremental path has no approximation knob to
hide behind.

The churn delta
---------------
Uniform random edge insertions connect distant components, so a
handful of edits would weld most of the graph into one dirty region —
realistic graph growth does the opposite (triadic closure: new edges
close wedges).  The ladder's delta model reflects that:

* **insertions** (half the edits) are triadic closures through a
  *non-hub* mutual neighbour: pick ``u``, a non-hub neighbour ``v``,
  and a neighbour ``w`` of ``v``; insert ``(u, w)``.  Closing through
  a hub would not localise anything — the hub bounds TP-BFS walks, so
  its two components never interact — hence the non-hub restriction
  keeps each edit's dirt inside one round-1 component, the regime the
  dirty-region closure is built for.
* **deletions** (the other half) are uniform over existing directed
  entries.

Delta sizes 1e1/1e3/1e5 bracket the interesting range: single-edit
latency, the sweet spot, and past the crossover where
``update_islandization``'s ``max_dirty_fraction`` heuristic correctly
abandons splicing for a full rebuild (``fallback: true`` in the
record; ``crossover_delta`` pins the ladder point where the win is
gone).

Measurement methodology
-----------------------
All contenders run in *one* process, best-of-``repeats`` each (unlike
the partition suite there is no worker fleet to cold-start, and a
shared warm allocator is fair to both sides).  ``apply_s`` (building
the mutated CSR) is timed separately and excluded from every
contender: a delta pipeline needs the mutated graph downstream no
matter how the islandization is maintained.

The JSON schema (one record per file)::

    {"benchmark": "locator-incremental",
     "config": {"seed": ..., "delta_seed": ..., "repeats": ...,
                "th0": ..., "c_max": ..., "decay": ...,
                "max_edges": ..., "max_dirty_fraction": ...,
                "profile": "...", "verified": ...},
     "graph": {"nodes": ..., "edges": ...},
     "tiers": [{"tier": "1e3", "delta_edges": ..., "insertions": ...,
                "deletions": ..., "apply_s": ..., "incr_s": ...,
                "record_s": ..., "islandize_s": ...,
                "speedup_vs_record": ..., "speedup_vs_islandize": ...,
                "equal": true, "fallback": false,
                "dirty_nodes": ..., "region_nodes": ...}, ...],
     "headline_tier": "1e3", "headline_speedup": ...,
     "crossover_delta": ...}

``edges`` counts directed CSR entries; ``*_s`` are best-of-``repeats``
wall times; ``delta_edges`` is the *effective* edit count (a
``max_edges``-capped smoke graph caps the big deltas too, and the cap
lands in the record so a smoke run cannot impersonate the full
ladder).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.config import LocatorConfig
from repro.core.islandizer import islandize
from repro.core.islandizer_incremental import (
    record_islandization,
    update_islandization,
)
from repro.errors import ConfigError
from repro.eval.harness import best_of, false_flags, full_ladder, render_record
from repro.graph.csr import CSRGraph, GraphDelta
from repro.graph.generators import CommunityProfile, hub_island_graph

__all__ = [
    "DELTA_TIERS",
    "churn_delta",
    "gate",
    "headline",
    "incremental_bench_graph",
    "run_incremental_bench",
    "table",
]

#: Delta-size ladder: tier name -> edit count (insertions + deletions).
DELTA_TIERS: dict[str, int] = {
    "1e1": 10,
    "1e3": 1_000,
    "1e5": 100_000,
}

#: The evolving-graph tier: target directed entries and the community
#: structure.  Smaller, denser islands than the partition suite's
#: profile — the regime where incremental maintenance matters is many
#: independent communities absorbing edits, not a few welded blobs.
_TARGET_EDGES = 2_000_000
_EDGES_PER_NODE = 10.6
_PROFILE = CommunityProfile(
    island_size_mean=9.0,
    island_size_max=24,
    island_density=0.4,
    background_fraction=0.0075,
    background_hub_bias=1.0,
)
_PROFILE_DESC = (
    f"hub-island mean={_PROFILE.island_size_mean:g} "
    f"max={_PROFILE.island_size_max} "
    f"density={_PROFILE.island_density:g} "
    f"bg={_PROFILE.background_fraction:g}"
)

#: Locator knobs of the suite.  TH0 is pinned (not quantile-derived):
#: an evolving pipeline pins its threshold precisely so deltas cannot
#: silently shift it — a moving TH0 forces the full-rebuild fallback
#: on every update (and the bench would measure nothing).
_TH0 = 16
_DECAY = 0.5


def incremental_bench_graph(
    *, seed: int = 7, max_edges: int | None = None
) -> CSRGraph:
    """The suite's base graph (self-loop-free).

    ``max_edges`` caps the target entry count so CI can smoke-run the
    suite small; the cap is recorded by the caller.
    """
    target = _TARGET_EDGES
    if max_edges is not None:
        if max_edges < 1_000:
            raise ConfigError(f"--max-edges must be >= 1000 (got {max_edges})")
        target = min(target, max_edges)
    nodes = max(64, int(target / _EDGES_PER_NODE))
    graph, _ = hub_island_graph(
        nodes, _PROFILE, seed=seed, name="incrbench"
    )
    return graph.without_self_loops()


def churn_delta(
    graph: CSRGraph,
    rng: np.random.Generator,
    k: int,
    th0: int,
) -> GraphDelta:
    """``k`` churn edits: triadic insertions + uniform deletions.

    See the module docstring for why insertions close wedges through
    non-hub mutual neighbours.  Returns ``k//2`` insertions and
    ``k - k//2`` deletions, all distinct undirected pairs.

    Random draws happen in fixed-size batches; candidate extraction
    is vectorized (the per-edit Python loop used to dominate the
    1e5-tier profile).  The tests keep that loop as the oracle: it
    consumes the same draws, and the same generator state in gives a
    **byte-identical** delta out.
    """
    n = graph.num_nodes
    nonhub = graph.degrees < th0
    indptr, indices = graph.indptr, graph.indices
    ekeys = graph.edge_keys()
    k_ins = k // 2
    k_del = k - k_ins
    # Running count of non-hub adjacency entries: the idx-th non-hub
    # neighbour of any row is one searchsorted away.
    prefix = np.zeros(len(indices) + 1, dtype=np.int64)
    np.cumsum(nonhub[indices], out=prefix[1:])
    ins: list[tuple[int, int]] = []
    seen: set[int] = set()
    # Rejection sampling needs a budget: a tiny or saturated graph may
    # simply have no k closable wedges left.
    attempts = 0
    budget = 50 * k_ins + 1_000
    while len(ins) < k_ins:
        if attempts >= budget:
            raise ConfigError(
                f"graph too small for a {k}-edit churn delta "
                f"({len(ins)}/{k_ins} insertions found)"
            )
        b = min(budget - attempts, max(256, 2 * (k_ins - len(ins))))
        attempts += b
        u = rng.integers(0, n, size=b)
        r1 = rng.random(b)
        r2 = rng.random(b)
        cand = _ins_candidates(
            u, r1, r2, indptr=indptr, indices=indices,
            prefix=prefix, ekeys=ekeys, n=n,
        )
        # Dedup against earlier accepts stays sequential — a later
        # candidate may repeat an earlier one — but now runs over the
        # few surviving candidate keys, not every raw draw.
        for cu, cw, ck in zip(*cand):
            if len(ins) >= k_ins:
                break
            ck = int(ck)
            if ck in seen:
                continue
            seen.add(ck)
            ins.append((int(cu), int(cw)))
    # Oversample deletion candidates 4x: some collapse to duplicate
    # undirected pairs or collide with an insertion's pair.
    pick = rng.choice(len(ekeys), size=min(4 * k_del, len(ekeys)),
                      replace=False)
    picked = ekeys[pick]
    # First occurrence per canonical pair, in pick order; insertion
    # collisions drop via one sorted membership pass over the accepted
    # insertion keys.
    canon = (
        np.minimum(picked // n, picked % n) * n
        + np.maximum(picked // n, picked % n)
    )
    uniq, first = np.unique(canon, return_index=True)
    if seen:
        ins_keys = np.sort(np.fromiter(seen, dtype=np.int64, count=len(seen)))
        pos = np.searchsorted(ins_keys, uniq)
        inb = pos < len(ins_keys)
        hit = np.zeros(len(uniq), dtype=bool)
        hit[inb] = ins_keys[pos[inb]] == uniq[inb]
        first = first[~hit]
    first.sort()
    sel = picked[first[:k_del]]
    del_arr = np.stack([sel // n, sel % n], axis=1)
    if len(del_arr) < k_del:
        raise ConfigError(
            f"graph too small for a {k}-edit churn delta "
            f"({len(del_arr)}/{k_del} deletions found)"
        )
    return GraphDelta.from_edges(
        insertions=np.asarray(ins, dtype=np.int64).reshape(-1, 2),
        deletions=del_arr,
    )


def _ins_candidates(u, r1, r2, *, indptr, indices, prefix, ekeys, n):
    """Vectorized wedge-closure candidates for one batch of draws.

    Returns ``(u, w, canonical key)`` of every draw that survives the
    rejection rules (non-empty rows, ``w != u``, edge absent), in draw
    order — exactly what the per-edit loop yields from the same batch.
    """
    last = len(indices) - 1
    if last < 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty
    lo = indptr[u]
    deg_u = indptr[u + 1] - lo
    cnt_local = prefix[indptr[u + 1]] - prefix[lo]
    has_local = cnt_local > 0
    pool = np.where(has_local, cnt_local, deg_u)
    idx = (r1 * pool).astype(np.int64)
    # idx-th non-hub neighbour: first prefix position reaching
    # prefix[row start] + idx + 1 (fallback rows get a harmless 0
    # target; they read the plain idx-th neighbour instead).
    target = np.where(has_local, prefix[lo] + idx + 1, 0)
    p = np.searchsorted(prefix, target, side="left") - 1
    v_local = indices[np.clip(p, 0, last)]
    v_fall = indices[np.clip(lo + idx, 0, last)]
    v = np.where(has_local, v_local, v_fall)
    lo_v = indptr[v]
    deg_v = indptr[v + 1] - lo_v
    w = indices[np.clip(lo_v + (r2 * deg_v).astype(np.int64), 0, last)]
    valid = (deg_u > 0) & (deg_v > 0) & (w != u)
    key = np.minimum(u, w) * n + np.maximum(u, w)
    pos = np.searchsorted(ekeys, key)
    inb = pos < len(ekeys)
    exists = np.zeros(len(u), dtype=bool)
    exists[inb] = ekeys[pos[inb]] == key[inb]
    valid &= ~exists
    return u[valid], w[valid], key[valid]


def run_incremental_bench(
    tiers: Sequence[str] = tuple(DELTA_TIERS),
    *,
    repeats: int = 3,
    seed: int = 7,
    delta_seed: int = 11,
    c_max: int = 64,
    max_edges: int | None = None,
    max_dirty_fraction: float = 0.5,
) -> dict:
    """Benchmark incremental maintenance across the delta-size ladder.

    Every ladder point asserts ``IslandizationResult.equals`` between
    the incremental result and a from-scratch run on the mutated
    graph, and validates the result's invariants.  Each tier draws its
    delta from a fresh ``default_rng(delta_seed)``, so one tier's
    numbers reproduce without running the others.
    """
    for tier in tiers:
        if tier not in DELTA_TIERS:
            raise ConfigError(
                f"unknown incremental bench tier {tier!r}; available: "
                f"{', '.join(DELTA_TIERS)}"
            )
    config = LocatorConfig(
        th0=_TH0, c_max=c_max, decay=_DECAY, incremental=True
    )
    graph = incremental_bench_graph(seed=seed, max_edges=max_edges)
    cached, state = record_islandization(graph, config)
    # A smoke-capped graph caps the big deltas too (recorded per row).
    k_cap = max(2, graph.num_edges // 8)
    rows: list[dict] = []
    for tier in tiers:
        k = min(DELTA_TIERS[tier], k_cap)
        rng = np.random.default_rng(delta_seed)
        delta = churn_delta(graph, rng, k, _TH0)
        apply_s, applied = best_of(
            lambda: graph.apply_delta(delta, with_changes=True), 1
        )
        mutated = applied[0]
        islandize_s, scratch = best_of(
            lambda: islandize(mutated, config), repeats
        )
        record_s, _ = best_of(
            lambda: record_islandization(mutated, config), repeats
        )
        incr_s, upd = best_of(
            lambda: update_islandization(
                graph, cached, state, delta, config,
                max_dirty_fraction=max_dirty_fraction, applied=applied,
            ),
            repeats,
        )
        upd.result.validate()
        rows.append({
            "tier": tier,
            "delta_edges": delta.num_edges,
            "insertions": delta.num_insertions,
            "deletions": delta.num_deletions,
            "apply_s": round(apply_s, 4),
            "incr_s": round(incr_s, 4),
            "record_s": round(record_s, 4),
            "islandize_s": round(islandize_s, 4),
            "speedup_vs_record": round(record_s / incr_s, 2),
            "speedup_vs_islandize": round(islandize_s / incr_s, 2),
            "equal": bool(upd.result.equals(scratch)),
            "fallback": upd.fallback,
            "fallback_reason": upd.fallback_reason,
            "dirty_nodes": upd.dirty_nodes,
            "region_nodes": upd.region_nodes,
        })
    # Headline: the largest delta the incremental path still wins
    # outright (no fallback).  Crossover: the first ladder point where
    # the win is gone — by fallback or by measured speedup < 1.
    winners = [r for r in rows if not r["fallback"]
               and r["speedup_vs_record"] >= 1.0]
    headline = winners[-1] if winners else None
    crossover = next(
        (r["tier"] for r in rows
         if r["fallback"] or r["speedup_vs_record"] < 1.0),
        None,
    )
    return {
        "benchmark": "locator-incremental",
        "config": {
            "seed": seed,
            "delta_seed": delta_seed,
            "repeats": repeats,
            "th0": _TH0,
            "c_max": c_max,
            "decay": _DECAY,
            "max_edges": max_edges,
            "max_dirty_fraction": max_dirty_fraction,
            "profile": _PROFILE_DESC,
            "verified": True,
        },
        "graph": {"nodes": graph.num_nodes, "edges": graph.num_edges},
        "tiers": rows,
        "headline_tier": headline["tier"] if headline else None,
        "headline_speedup": (
            headline["speedup_vs_record"] if headline else None
        ),
        "crossover_delta": crossover,
    }


def table(record: dict) -> str:
    """An incremental record as ``repro bench`` prints it."""
    return render_record(
        record,
        f"incremental maintenance vs rebuild on a "
        f"{record['graph']['edges']}-entry graph (best-of wall clock)",
        (("delta", "tier"), ("edits", "delta_edges"), "incr_s", "record_s",
         "islandize_s", ("vs_record", "speedup_vs_record"),
         ("vs_scratch", "speedup_vs_islandize"), ("dirty", "dirty_nodes"),
         "fallback", "equal"),
    )


def gate(record: dict) -> list[str]:
    """The incremental contract, from the record.

    Maintenance equals the from-scratch locator on every tier.  A full
    ladder also carries the headline, a >= 5x win over the recording
    rebuild; a capped smoke delta is sub-millisecond noise, so only the
    full ladder gates wall clock.
    """
    failures = false_flags(record, "equal")
    speedup = record["headline_speedup"]
    if full_ladder(record, DELTA_TIERS) and not (speedup or 0) >= 5:
        failures.append(f"headline_speedup {speedup} below the 5x floor")
    return failures


def headline(record: dict, baseline: str = "recording rebuild") -> str:
    """The headline of a delta-ladder record: its largest winning delta."""
    if record["headline_tier"] is None:
        return f"no delta tier beats the {baseline}"
    cross = record["crossover_delta"] or "beyond the ladder"
    return (
        f"{record['headline_tier']}-edit delta speedup "
        f"{record['headline_speedup']}x vs {baseline} (crossover at {cross})"
    )
