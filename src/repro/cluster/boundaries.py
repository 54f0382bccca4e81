"""Static epoch boundaries for the fixed-epoch trace replay.

The fixed-epoch mode of the epoch engine (``epoch_length=E``) freezes
cache/cluster state for ``E`` requests at a time.  Fault events -- OSD
crashes/recoveries, outage windows, straggler onsets: the ``boundaries_ms``
of a compiled :class:`~repro.faults.base.FaultTimeline` -- are known
*statically* before the replay starts, and no approximate epoch may
straddle one.  :class:`BoundaryClock` turns them into one sorted stream of
request-index break points so the classifier only ever asks "where must
the current epoch end at the latest?".

The exact mode does not need the clock.  Hit/miss classification is
fault-oblivious, and a break inside a run of hits could only split the
run into two ``touch_epoch`` folds, which are associative across a split;
so a static break can never change an exact-mode result.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["BoundaryClock"]


class BoundaryClock:
    """Sorted static epoch-break points over a request trace.

    Converts event *instants* (milliseconds) into request *indices*: an
    event at time ``b`` forces an epoch break before the first request with
    ``times_ms >= b``, because that request already sees the new cluster
    state.  Breaks at index 0 or past the end of the trace are dropped --
    they cannot split anything.
    """

    def __init__(self, times_ms: np.ndarray, event_times_ms: Optional[np.ndarray] = None):
        self._num_requests = int(np.asarray(times_ms).size)
        if event_times_ms is None or np.asarray(event_times_ms).size == 0:
            breaks = np.empty(0, dtype=np.int64)
        else:
            breaks = np.unique(
                np.searchsorted(times_ms, np.asarray(event_times_ms, dtype=float), side="left")
            )
            breaks = breaks[(breaks > 0) & (breaks < self._num_requests)]
        self._breaks = breaks
        self._pointer = 0

    @property
    def num_breaks(self) -> int:
        """Number of effective static break points inside the trace."""
        return int(self._breaks.size)

    def next_break(self, cursor: int) -> int:
        """The first break index strictly after ``cursor``.

        Returns the trace length when no further break exists, so callers
        can use it directly as an epoch limit.  ``cursor`` must be
        non-decreasing across calls (the classifiers sweep forward), which
        keeps the lookup amortised O(1).
        """
        breaks = self._breaks
        pointer = self._pointer
        size = breaks.size
        while pointer < size and breaks[pointer] <= cursor:
            pointer += 1
        self._pointer = pointer
        return int(breaks[pointer]) if pointer < size else self._num_requests
