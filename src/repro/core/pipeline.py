"""Locator/consumer pipeline overlap (§3.1.1, Fig. 3).

"the Processing Elements in the Island Consumer can process an island
as soon as it is formed ... I-GCN overlaps graph restructuring and
graph processing."

The consumer is modelled as a single aggregate server whose work
arrives in per-round batches.  Islands stream to the consumer *as they
form* (§3.1.1: no per-round synchronisation on the consumer side), so
round r's work becomes available from the round's *start*; only the
locator's production rate can starve the consumer.  For release times
``L_r`` (cumulative locator cycles when round r begins) and per-round
consumer work ``C_r``, the makespan of a work-conserving server is::

    makespan = max_r ( L_r + sum_{r' >= r} C_{r'} )

i.e. the last idle-wait start plus everything after it.  This collapses
to ``sum(C)`` when the locator is never the bottleneck and to
``L_last + C_last`` when it always is.  Two bounds sandwich it for any
release/work schedule (``tests/test_properties.py`` pins them)::

    max(sum(C), L_last + C_last) <= makespan <= L_last + sum(C)

The *staged* pipeline — run the locator to completion, then the
consumer — costs the locator's full cycles plus ``sum(C)``, which is
at least the streamed makespan (releases never exceed the locator
total), so overlap wins strictly whenever the locator spends any
cycles at all.

:func:`streamed_schedule` builds the measured ``(L, C)`` vectors of
one streamed inference: releases from the locator's per-round cycle
estimates, work chunks by distributing the total consumer cycles over
the rounds' *measured* aggregation work — the per-chunk MAC tallies
:meth:`IslandConsumer.run_layer_chunked
<repro.core.consumer.IslandConsumer.run_layer_chunked>` records while
executing the per-round task chunks :meth:`IslandLocator.stream
<repro.core.islandizer.IslandLocator.stream>` handed over — not by
node-count shares or any other analytic proxy.
"""

from __future__ import annotations

import sys
from typing import Sequence

__all__ = ["pipelined_makespan", "streamed_schedule"]


def pipelined_makespan(
    release_times: Sequence[float], work_chunks: Sequence[float]
) -> float:
    """Makespan of batched work with release times (see module docs).

    ``release_times`` must be non-decreasing and the same length as
    ``work_chunks``.
    """
    if len(release_times) != len(work_chunks):
        raise ValueError("release_times and work_chunks must align")
    if not release_times:
        return 0.0
    prev = 0.0
    for t in release_times:
        if t < prev:
            raise ValueError("release_times must be non-decreasing")
        prev = t
    makespan = 0.0
    remaining = float(sum(work_chunks))
    for release, work in zip(release_times, work_chunks):
        makespan = max(makespan, release + remaining)
        remaining -= work
    return makespan


def streamed_schedule(
    round_cycles: Sequence[float],
    round_work: Sequence[float],
    consumer_cycles: float,
) -> tuple[list[float], list[float]]:
    """Measured ``(release_times, work_chunks)`` of a streamed inference.

    ``round_cycles`` are the locator's per-round cycle estimates;
    round r's islands stream out while the round runs, so its chunk is
    released at the round's *start* — ``release_times[r]`` is the
    cumulative locator time before round r.  ``round_work`` is the
    measured per-round consumer work (aggregation MACs of the islands
    each round finalized, summed over layers); the total
    ``consumer_cycles`` — which also covers work that is not
    per-island, like combination and memory time — is distributed over
    rounds proportionally to it.  Rounds that finalized no islands get
    zero-work chunks; if *no* round carried measurable work (e.g. a
    hub-only graph) the distribution falls back to uniform so the
    schedule still conserves ``sum(C) == consumer_cycles``.
    """
    if len(round_cycles) != len(round_work):
        raise ValueError("round_cycles and round_work must align")
    releases: list[float] = []
    cumulative = 0.0
    for cycles in round_cycles:
        releases.append(cumulative)
        cumulative += float(cycles)
    total_work = float(sum(round_work))
    # A subnormal total is no measurable work: consumer_cycles * w can
    # underflow to 0 there, and the chunks would not sum to it.
    if total_work >= sys.float_info.min:
        chunks = [
            float(consumer_cycles) * float(w) / total_work for w in round_work
        ]
    elif round_work:
        chunks = [float(consumer_cycles) / len(round_work)] * len(round_work)
    else:
        chunks = []
    return releases, chunks
