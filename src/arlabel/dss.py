"""Distinct-subset-sum (DSS) primitives.

A set of positive integers is DSS when all 2^n of its subset sums are
pairwise distinct (the empty subset contributes sum 0).  ``is_dss``,
``subset_sum_collision`` and ``DssSet`` share one question,
``_first_collision``: in the caller's order, which element is the first
whose sums repeat an earlier sum, and which sum repeats?

An element larger than the sum of all smaller ones lies in no collision,
since a subset holding it outweighs any subset without it.  So the
question is asked of the **core**: the set sorted, with such elements
stripped from the top one by one (``_core``).  A set is DSS iff its core
is, and every pair of disjoint subsets with equal sums lies in the core,
so the first colliding prefix and the smallest repeated sum are those of
the whole set.  Equal elements are never stripped.  Each call then holds
the core's sums in whichever of two representations costs less:

* **Occupancy bitmap**: bit s of one Python int is set iff some subset
  sums to s.  Adding an element a maps ``bits`` to ``bits | (bits << a)``,
  and the extension keeps the sums distinct iff the two halves do not
  overlap.  A scan costs about n * total bit operations and total bits of
  memory, so it suits small elements.
* **Meet in the middle** over signed sums (Horowitz and Sahni, J. ACM 21,
  1974): a signed sum adds, subtracts or leaves out each element, and an
  element a collides with the elements before it iff one of their signed
  sums equals a.  Each half of the core, in the caller's order, keeps a
  dict from signed sum to its least positive part, about 3^(n/2) entries
  whatever the elements' size, so ``is_dss([1, 3, 2**40])`` needs no
  sums at all and 24 elements near 2^62 need about 3^12 entries instead
  of 2^24 sums or a bitmap of 2^66 bits (``_meet_in_the_middle``).

The bitmap is taken iff n * total < ``_BITS_PER_SUM`` * (3^(n//2) +
3^(n - n//2)) for a core of n elements, where ``_BITS_PER_SUM`` is the
measured number of bit operations one signed sum costs.  A prefix's
bitmap, and whether the prefix is DSS, do not depend on the order its
elements are added.  So the bitmap form adds them in ascending order,
which keeps each bitmap as narrow as any order can: one ascending scan of
the core decides DSS, and only when it collides on an input that is not
ascending do a few more scans, each of one caller prefix in ascending
order, find the caller-order answer (``_first_collision``).  The smallest
repeated sum is read off the top bit of the colliding step's overlap
(``_scan``).  The meet in the middle adds the core's elements in the
caller's order.  Both representations report the same first colliding
prefix and the same smallest repeated sum.  ``subset_sum_collision``
then rebuilds the two subsets that reach that sum by meet in the middle
over the elements before the colliding one that do not exceed the sum
(about 2 * 2^(m/2) sums for m of them).  Those elements are DSS, so each
sum they reach has exactly one subset: the certificate does not depend
on the representation or on how the subsets are found.

Every search over DSS sets (``enumerate_dss_sets``, the ES search, the
edge kernel and its completion check) uses a third encoding instead, the
**difference mask**: bit ``off + d`` is set iff d is a difference of two
subset sums, negative d included, so ``off`` must be at least the largest
total the set can reach.  The empty set's mask is ``1 << off``; adding a
maps ``z`` to ``z | z << a | z >> a``.  A label a may join the set iff bit
``off + a`` is clear, because the new sums s + a avoid every old sum t
exactly when a is not t - s.  The labels legal at once are the clear bits
of ``z >> off``, so a search screens all candidates of a node with one AND
instead of one shift-and-test per label.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import SearchTimeout

# Bit operations of the occupancy scan that cost as much as one signed sum
# of the meet in the middle.  Timed on passes over the 1,801 sets of the
# verify benchmark (seeds 1 and 2: is_dss, then subset_sum_collision on the
# sets that are not DSS; 2-core x86-64 host, CPython 3.11): least time at
# 2^14 and 2^14.25, 8% more at 2^13.5, 16% at 2^13, 65% at 2^12.5, and 26%
# at 2^14.5, where the benchmark's 16 elements near 2^20 return to the
# bitmap.  Full scans of DSS sets of nearly equal elements (n = 6..16,
# totals 2^14..2^25) break even lower, at 2^11.6 to 2^13.6: n * total
# overstates the bitmap's cost when the elements spread.
_BITS_PER_SUM = 2**14


def checked_elements(elements: Iterable[int]) -> tuple[int, ...]:
    """The elements sorted; ValueError unless they are positive and distinct."""
    elems = tuple(sorted(elements))
    prev = 0
    for a in elems:
        if a < 1:
            raise ValueError(f"element {a} is not a positive integer")
        if a == prev:
            raise ValueError(f"duplicate element {a}")
        prev = a
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
        elems = checked_elements(self.elements)
        if _first_collision(elems) is not None:
            raise ValueError(f"{elems} is not a distinct-subset-sum set")
        object.__setattr__(self, "elements", elems)

    @classmethod
    def _proved(cls, elements: tuple[int, ...]) -> DssSet:
        """A DssSet of an increasing tuple already proved DSS, built
        without checking it again."""
        ds = object.__new__(cls)
        object.__setattr__(ds, "elements", elements)
        return ds

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
    non-positive entries.
    """
    return _first_collision(checked_elements(elements)) is None


def _bitmap_is_cheaper(n: int, total: int) -> bool:
    """Whether the occupancy scans of a core of n elements summing to
    ``total`` cost less than the meet in the middle (module docstring)."""
    return n * total < _BITS_PER_SUM * (3 ** (n // 2) + 3 ** (n - n // 2))


def _core(vals: tuple[int, ...]) -> tuple[list[int], int, int]:
    """The indices of ``vals`` in ascending order of value, the size n of
    the core ``order[:n]``, and the core's total.

    The core is what is left once every element larger than the sum of all
    smaller ones is stripped from the top.  Such an element lies in no
    collision: a subset holding it outweighs any subset without it.
    """
    order = sorted(range(len(vals)), key=vals.__getitem__)
    n, total = len(order), sum(vals)
    while n and 2 * vals[order[n - 1]] > total:
        n -= 1
        total -= vals[order[n]]
    return order, n, total


def _first_collision(vals: tuple[int, ...]) -> tuple[int, int] | None:
    """Where the subset sums of ``vals`` first repeat, or None if they never do.

    Returns (j, t): ``vals[:j]`` is DSS, ``vals[:j + 1]`` is not, and t is
    the smallest sum that two subsets of ``vals[:j + 1]`` share.  Elements
    are taken in the order given and must be positive.  Every collision
    lies in the core (``_core``), so only the core is scanned, and j and t
    are those of the whole input.

    The bitmap form first scans the core in ascending order.  That scan
    decides DSS, and on an ascending input its collision is the answer.
    Otherwise each further scan tests one candidate i for j: it adds
    ``vals[:i]`` in ascending order, then ``vals[i]``.  A collision at
    ``vals[i]`` means j = i and gives t; an earlier collision means j < i;
    none means j > i.  A scan that collides once it has added the elements
    ``order[:p + 1]`` bounds j by the largest of their caller indices.  The
    first candidate is the first scan's bound, then the candidates
    bisect, so at most ceil(log2 n) + 2 scans run in all.  A scan's bitmap
    after k elements is no wider than the bitmap of the caller's first k
    elements, though a scan may add more elements than a scan in the
    caller's order, which stops after j + 1.  Elements above the core's top
    keep their places in the orders and are skipped by the scans.
    """
    order, n, total = _core(vals)
    if not n:
        return None
    if not _bitmap_is_cheaper(n, total):
        return _meet_in_the_middle(vals, sorted(order[:n]))
    cap = vals[order[n - 1]]
    hit = _scan(vals, order, cap)
    if hit is None:
        return None
    lo, i = 1, None  # lo <= j <= hi; one positive element is DSS
    while True:
        if hit is None:
            lo = i + 1  # vals[:i + 1] is DSS
        else:
            p, t = hit
            hi = max(order[: p + 1])  # vals[:hi + 1] is not DSS
            if hi == order[p] == p:  # vals[:p] in some order, then vals[p]
                return p, t
        i = hi if i is None else (lo + hi) // 2
        order = sorted(range(i), key=vals.__getitem__) + [i]
        hit = _scan(vals, order, cap)


def _scan(vals: tuple[int, ...], order: list[int], cap: int) -> tuple[int, int] | None:
    """Occupancy-bitmap scan that adds ``vals[i]`` for each i in ``order``,
    skipping the values above ``cap``.

    Returns None if the subset sums stay distinct, else (p, t): ``order[p]``
    is the first element whose sums repeat an earlier sum, and t is the
    smallest repeated sum.  Bit s of the overlap is set iff s is a
    repeated sum, and then so is total - s (swap both subsets for their
    complements among the elements added), so t is total minus the
    overlap's top bit: finding it builds no temporary.
    """
    bits, total = 1, 0
    for p, i in enumerate(order):
        a = vals[i]
        if a > cap:
            continue
        total += a
        shifted = bits << a
        overlap = bits & shifted
        if overlap:
            return p, total + 1 - overlap.bit_length()
        bits |= shifted
    return None


def _meet_in_the_middle(vals: tuple[int, ...], core: list[int]) -> tuple[int, int] | None:
    """``_first_collision`` over the caller indices ``core``, ascending.

    Element a collides with the elements before it iff some signed sum of
    them (each element added, subtracted or left out) equals a: the
    elements added then sum to as much as a and the elements subtracted.
    So the smallest repeated sum is the least positive part (the sum of
    the elements added) among those signed sums.  The core's first half
    and the part of its second half before a each keep a dict from signed
    sum to least positive part (``_signed_sums``), and the test is one
    lookup per signed sum of the second part.
    """
    half = len(core) // 2
    left, right = {0: 0}, {0: 0}
    for k, i in enumerate(core):
        a = vals[i]
        t = min((p + left[a - w] for w, p in right.items() if a - w in left), default=None)
        if t is not None:
            return i, t
        if k < half:
            left = _signed_sums(left, a)
        elif k + 1 < len(core):
            right = _signed_sums(right, a)
    return None


def _signed_sums(sums: dict[int, int], a: int) -> dict[int, int]:
    # ``sums`` with a added to, subtracted from or left out of each signed
    # sum, keeping the least positive part of each.
    out = dict(sums)
    for v, p in sums.items():
        for w, q in ((v - a, p), (v + a, p + a)):
            if q < out.get(w, q + 1):
                out[w] = q
    return out


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


def enumerate_dss_sets(size: int, cap: int, deadline: float = math.inf) -> list[DssSet]:
    """All size-element DSS subsets of {1..cap}, in lexicographic order:
    the sets with smallest element 1, then 2, and so on
    (``_dss_sets_with_min``).  Raises SearchTimeout once ``deadline``, a
    ``time.monotonic()`` reading, has passed."""
    if size < 1:
        raise ValueError(f"size {size} must be at least 1")
    if size > cap:
        raise ValueError(f"size {size} exceeds cap {cap}")
    results: list[DssSet] = []
    for low in range(1, cap - size + 2):
        results += _dss_sets_with_min(size, cap, low, deadline)
    return results


def _dss_sets_with_min(size: int, cap: int, low: int, deadline: float = math.inf) -> list[DssSet]:
    """The size-element DSS subsets of {1..cap} whose smallest element is
    ``low``, in lexicographic order; 1 <= size <= cap - low + 1.

    Depth-first over difference masks (module docstring), lowest label
    first, screening each level's candidates with one AND; the last pick
    takes every legal label at once.  The search only stands on DSS
    prefixes, so each set it completes is not checked again.  A node with
    two or more labels still to pick counts one; between two counted nodes
    the search tries at most one node's second-to-last labels and their
    last picks.  The clock is read every 1,024 counted nodes, and once
    ``deadline`` has passed SearchTimeout is raised.
    """
    if size == 1:
        return [DssSet._proved((low,))]
    off = size * cap  # no size elements of {1..cap} sum to more
    results: list[DssSet] = []
    chosen = [low]
    nodes = 0
    monotonic = time.monotonic

    # extend is handed itself rather than closing over its own name, so no
    # reference cycle keeps the results alive after the call.
    def extend(z: int, cand: int, remaining: int, extend) -> None:
        nonlocal nodes
        cand &= ~(z >> off)
        if remaining == 1:
            prefix = tuple(chosen)
            while cand:
                bit = cand & -cand
                cand ^= bit
                results.append(DssSet._proved(prefix + (bit.bit_length() - 1,)))
            return
        nodes += 1
        if nodes & 1023 == 0 and monotonic() > deadline:
            raise SearchTimeout
        # The smallest label still to pick leaves remaining - 1 more above it.
        while cand.bit_count() >= remaining:
            bit = cand & -cand
            cand ^= bit
            a = bit.bit_length() - 1
            chosen.append(a)
            extend(z | z << a | z >> a, cand, remaining - 1, extend)
            chosen.pop()

    z = 1 << off
    extend(z | z << low | z >> low, (1 << (cap + 1)) - (2 << low), size - 1, extend)
    return results


def subset_sum_collision(
    values: Iterable[int],
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Two distinct index subsets of ``values`` with equal sums, or None.

    Deterministic: takes the first element, in the order given, whose
    addition to the elements before it causes a collision, and reports the
    smallest colliding sum there.  The returned subsets are disjoint and
    re-checkable; indices refer to positions in ``values`` (duplicated
    values are handled, the two equal singletons collide).
    """
    vals = tuple(values)
    for a in vals:
        if a < 1:
            raise ValueError(f"value {a} is not a positive integer")
    hit = _first_collision(vals)
    if hit is None:
        return None
    j, t = hit
    # Both subsets lie among the elements before vals[j] that are at most
    # t, which leaves out every element stripped from the core.  They are
    # disjoint: an index in both could be dropped from both, leaving a
    # smaller sum reached twice than the smallest, t.
    idx = [i for i in range(j) if vals[i] <= t]
    return _subset_with_sum(vals, idx, t), _subset_with_sum(vals, idx, t - vals[j]) + (j,)


def _subset_with_sum(vals: tuple[int, ...], idx: list[int], target: int) -> tuple[int, ...]:
    """The indices, ascending, of the one subset of the DSS elements
    ``vals[i]``, i in ``idx``, that sums to ``target``, by meet in the
    middle over the two halves of ``idx``."""
    half = len(idx) // 2
    low = _sums_with_masks(vals, idx[:half])
    for s, mask in _sums_with_masks(vals, idx[half:]).items():
        rest = low.get(target - s)
        if rest is not None:
            mask |= rest
            return tuple(i for i in idx if mask >> i & 1)
    raise AssertionError("subset reconstruction failed")


def _sums_with_masks(vals: tuple[int, ...], part: list[int]) -> dict[int, int]:
    # Every subset sum of the DSS elements vals[i], i in ``part``, mapped to
    # the bitmask of its indices.
    sums = {0: 0}
    for i in part:
        a = vals[i]
        sums.update([(s + a, m | 1 << i) for s, m in sums.items()])
    return sums
