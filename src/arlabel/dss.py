"""Distinct-subset-sum (DSS) primitives.

A set of positive integers is DSS when all 2^n of its subset sums are
pairwise distinct (the empty subset contributes sum 0).  Two bitmap
encodings, each packed into a single Python int, make the check cheap:

* **Occupancy** (``is_dss``, ``subset_sum_collision``, ``enumerate_dss_sets``):
  bit s is set iff some subset sums to s.  Adding an element a maps
  ``bits`` to ``bits | (bits << a)``, and the extension keeps the sums
  distinct iff the two halves do not overlap.  This costs O(n * total) bit
  operations instead of 2^n sum enumeration.  ``DssSet`` validates through
  ``is_dss``.
* **Difference mask** (search kernels): bit ``off + d`` is set iff d is a
  difference of two subset sums, negative d included, so ``off`` must be
  at least the largest total the set can reach.  The empty set's mask is
  ``1 << off``; adding a maps ``z`` to ``z | z << a | z >> a``.  A label a
  may join the set iff bit ``off + a`` is clear, because the new sums
  s + a avoid every old sum t exactly when a is not t - s.  The labels
  legal at once are the clear bits of ``z >> off``, so the edge search and
  the ES search screen all candidates of a node with one AND instead of
  one shift-and-test per label.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

# Element sums must stay inside a 64-bit machine word; beyond that the
# occupancy bitmap is no longer a sane representation.
MAX_TOTAL = 2**63 - 1


def _checked_elements(elements: Iterable[int]) -> tuple[int, ...]:
    """Sort and validate: positive, distinct, total within MAX_TOTAL."""
    elems = tuple(sorted(elements))
    total = 0
    prev = 0
    for a in elems:
        if a < 1:
            raise ValueError(f"element {a} is not a positive integer")
        if a == prev:
            raise ValueError(f"duplicate element {a}")
        prev = a
        total += a
    if total > MAX_TOTAL:
        raise OverflowError(f"element sum {total} exceeds 64-bit range")
    return elems


@dataclass(frozen=True)
class DssSet:
    """A strictly increasing tuple of positive integers with distinct subset sums.

    Construction validates the full invariant, so a DssSet in hand is a
    certificate: duplicates, non-positive entries and subset-sum collisions
    are all rejected with ValueError.
    """

    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        elems = _checked_elements(self.elements)
        if not is_dss(elems):
            raise ValueError(f"{elems} is not a distinct-subset-sum set")
        object.__setattr__(self, "elements", elems)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, value: int) -> bool:
        return value in self.elements

    @property
    def largest(self) -> int:
        return self.elements[-1]


def is_dss(elements: Iterable[int]) -> bool:
    """Decide whether all 2^n subset sums of ``elements`` are distinct.

    Empty input is trivially DSS.  Raises ValueError on duplicates or
    non-positive entries, OverflowError when the total leaves 64-bit range.
    """
    elems = _checked_elements(elements)
    bits = 1
    for a in elems:
        shifted = bits << a
        if bits & shifted:
            return False
        bits |= shifted
    return True


def difference_mask(elements: Iterable[int], off: int) -> int:
    """Difference mask of ``elements`` at offset ``off`` (module docstring).

    ``off`` must be at least the sum of the elements, or negative
    differences would fall off the low end of the mask.
    """
    elems = tuple(elements)
    if sum(elems) > off:
        raise ValueError(f"offset {off} is below the element sum {sum(elems)}")
    z = 1 << off
    for a in elems:
        z |= z << a | z >> a
    return z


def enumerate_dss_sets(size: int, cap: int) -> list[DssSet]:
    """All size-element DSS subsets of {1..cap}, in lexicographic order.

    The recursion only ever stands on DSS prefixes (every subset of a DSS set
    is DSS), so pruning with the incremental test is exact.
    """
    if size < 1:
        raise ValueError(f"size {size} must be at least 1")
    if size > cap:
        raise ValueError(f"size {size} exceeds cap {cap}")
    results: list[DssSet] = []
    chosen: list[int] = []

    def extend(start: int, bits: int, remaining: int) -> None:
        if remaining == 0:
            results.append(DssSet(tuple(chosen)))
            return
        for a in range(start, cap - remaining + 2):
            shifted = bits << a
            if bits & shifted:
                continue
            chosen.append(a)
            extend(a + 1, bits | shifted, remaining - 1)
            chosen.pop()

    extend(1, 1, size)
    return results


def subset_sum_collision(
    values: Iterable[int],
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Two distinct index subsets of ``values`` with equal sums, or None.

    Deterministic: scans prefixes left to right, stops at the first element
    whose addition causes a collision, and reports the smallest colliding
    sum there.  The returned subsets are disjoint and re-checkable; indices
    refer to positions in ``values`` (duplicated values are handled, the two
    equal singletons collide).
    """
    vals = tuple(values)
    for a in vals:
        if a < 1:
            raise ValueError(f"value {a} is not a positive integer")
    occs = [1]
    bits = 1
    for j, a in enumerate(vals):
        shifted = bits << a
        overlap = bits & shifted
        if overlap:
            s = (overlap & -overlap).bit_length() - 1
            left = set(_rebuild_subset(vals, occs, j, s))
            right = set(_rebuild_subset(vals, occs, j, s - a)) | {j}
            common = left & right
            return tuple(sorted(left - common)), tuple(sorted(right - common))
        bits |= shifted
        occs.append(bits)
    return None


def _rebuild_subset(
    vals: tuple[int, ...], occs: list[int], limit: int, target: int
) -> list[int]:
    # Walk the prefix occupancies backwards: keep element i only when the
    # target is unreachable without it.
    take: list[int] = []
    for i in range(limit - 1, -1, -1):
        if (occs[i] >> target) & 1:
            continue
        take.append(i)
        target -= vals[i]
    if target != 0:
        raise AssertionError("subset reconstruction failed")
    return take
