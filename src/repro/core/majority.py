"""Boyer–Moore majority vote (MJRTY) [Boyer & Moore 1991].

Leap's trend detector is built on this algorithm (§3.2.1): a single
linear pass with O(1) memory yields the only *candidate* that can be a
majority element; a second pass confirms whether it actually is one.
The paper's majority criterion is strict: within a window of size
``w``, a Δ is the major trend only if it appears at least
``⌊w/2⌋ + 1`` times.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["majority_candidate", "verified_majority", "majority_threshold"]


def majority_threshold(window_size: int) -> int:
    """Minimum occurrences for a majority: ⌊w/2⌋ + 1."""
    if window_size <= 0:
        raise ValueError(f"window size must be positive, got {window_size}")
    return window_size // 2 + 1


def majority_candidate(values: Iterable[int]) -> int | None:
    """One pass of Boyer–Moore: the only possible majority element.

    Returns None for an empty input.  A non-None result is *only a
    candidate* — it is guaranteed to equal the majority element if one
    exists, but may be arbitrary when none does.
    """
    candidate: int | None = None
    count = 0
    for value in values:
        if count == 0:
            candidate = value
            count = 1
        elif value == candidate:
            count += 1
        else:
            count -= 1
    return candidate


def verified_majority(values: Sequence[int]) -> int | None:
    """The verified majority element of *values*, or None.

    Runs the vote pass and then the confirmation pass, enforcing the
    ⌊w/2⌋+1 threshold over the window size.
    """
    if not values:
        return None
    candidate = majority_candidate(values)
    if candidate is None:
        return None
    occurrences = values.count(candidate)
    if occurrences >= majority_threshold(len(values)):
        return candidate
    return None
