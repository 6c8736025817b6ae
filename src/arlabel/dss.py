"""Distinct-subset-sum (DSS) primitives.

A set of positive integers is DSS when all 2^n of its subset sums are
pairwise distinct (the empty subset contributes sum 0).  ``is_dss``,
``subset_sum_collision`` and ``DssSet`` share one question,
``_first_collision``: in the caller's order, which element is the first
whose sums repeat an earlier sum, and which sum repeats?  Each call holds
the sums of a prefix in whichever of two representations costs less:

* **Occupancy bitmap**: bit s of one Python int is set iff some subset
  sums to s.  Adding an element a maps ``bits`` to ``bits | (bits << a)``,
  and the extension keeps the sums distinct iff the two halves do not
  overlap.  A scan costs about n * total bit operations and total bits of
  memory, so it suits small elements.
* **Sum set**: a Python ``set`` of the prefix's subset sums.  Adding a
  inserts s + a for every sum s, and the sums stay distinct iff the set
  doubles.  A scan costs about 2^n hashed ints, whatever the elements'
  size, so ``is_dss([1, 3, 2**40])`` hashes eight sums instead of building
  a 128 GiB bitmap.

The bitmap is taken iff n * total < ``_BITS_PER_SUM`` * 2^n, where
``_BITS_PER_SUM`` is the measured number of bit operations one hashed
sum costs.  A prefix's bitmap, and whether the prefix is DSS, do not
depend on the order its elements are added.  So the bitmap form adds
them in ascending order, which keeps each bitmap as narrow as any order
can: one ascending scan of the whole set decides DSS, and only when it
collides on an input that is not ascending do a few more scans, each of
one caller prefix in ascending order, find the caller-order answer
(``_first_collision``).  The smallest repeated sum is read off the top
bit of the colliding step's overlap (``_scan``).  The sum set adds the
elements in the caller's order.  Both representations report the same
first colliding prefix and the same smallest repeated sum.
``subset_sum_collision`` then rebuilds the two subsets that reach that
sum by meet in the middle over the prefix before the colliding element
(about 2 * 2^(j/2) sums for a prefix of j).  That prefix is DSS, so each
sum it reaches has exactly one subset: the certificate does not depend
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

from dataclasses import dataclass
from typing import Iterable, Iterator

# Bit operations of the occupancy scan that cost as much as one sum hashed
# by the sum-set scan.  Timed on full scans of DSS sets (n = 4..16, totals
# 2^10..2^40; 2-core x86-64 host, CPython 3.11): the two scans break even
# at n * total / 2^n between 2^13 and 2^14.
_BITS_PER_SUM = 2**13


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
    """Whether the occupancy scan of n elements summing to ``total`` costs
    less than the sum-set scan (module docstring)."""
    return n * total < _BITS_PER_SUM << n


def _first_collision(vals: tuple[int, ...]) -> tuple[int, int] | None:
    """Where the subset sums of ``vals`` first repeat, or None if they never do.

    Returns (j, t): ``vals[:j]`` is DSS, ``vals[:j + 1]`` is not, and t is
    the smallest sum that two subsets of ``vals[:j + 1]`` share.  Elements
    are taken in the order given and must be positive.

    The bitmap form first scans the whole set in ascending order.  That
    scan decides DSS, and on an ascending input its collision is the
    answer.  Otherwise each further scan tests one candidate i for j: it
    adds ``vals[:i]`` in ascending order, then ``vals[i]``.  A collision at
    ``vals[i]`` means j = i and gives t; an earlier collision means j < i;
    none means j > i.  A scan that collides once it has added the elements
    ``order[:p + 1]`` bounds j by the largest of their caller indices.  The
    first candidate is the whole-set scan's bound, then the candidates
    bisect, so at most ceil(log2 n) + 2 scans run in all.  A scan's bitmap
    after k elements is no wider than the bitmap of the caller's first k
    elements, though a scan may add more elements than a scan in the
    caller's order, which stops after j + 1.
    """
    if _bitmap_is_cheaper(len(vals), sum(vals)):
        order = sorted(range(len(vals)), key=vals.__getitem__)
        hit = _scan(vals, order)
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
            hit = _scan(vals, order)
    sums = {0}
    for j, a in enumerate(vals):
        size = len(sums)
        shifted = [s + a for s in sums]
        sums.update(shifted)
        if len(sums) < 2 * size:
            # The repeated sums are the shifted ones that were already there.
            return j, min({s - a for s in shifted}.intersection(shifted))
    return None


def _scan(vals: tuple[int, ...], order: list[int]) -> tuple[int, int] | None:
    """Occupancy-bitmap scan that adds ``vals[i]`` for each i in ``order``.

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
        total += a
        shifted = bits << a
        overlap = bits & shifted
        if overlap:
            return p, total + 1 - overlap.bit_length()
        bits |= shifted
    return None


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

    Depth-first over difference masks (module docstring), lowest label
    first, screening each level's candidates with one AND.  The search only
    stands on DSS prefixes, so each set it completes is not checked again.
    """
    if size < 1:
        raise ValueError(f"size {size} must be at least 1")
    if size > cap:
        raise ValueError(f"size {size} exceeds cap {cap}")
    off = size * cap  # no size elements of {1..cap} sum to more
    results: list[DssSet] = []
    chosen: list[int] = []

    # extend is handed itself rather than closing over its own name, so no
    # reference cycle keeps the results alive after the call.
    def extend(z: int, cand: int, remaining: int, extend) -> None:
        if remaining == 0:
            results.append(DssSet._proved(tuple(chosen)))
            return
        cand &= ~(z >> off)
        # The smallest label still to pick leaves remaining - 1 more above it.
        while cand.bit_count() >= remaining:
            low = cand & -cand
            cand ^= low
            a = low.bit_length() - 1
            chosen.append(a)
            extend(z | z << a | z >> a, cand, remaining - 1, extend)
            chosen.pop()

    extend(1 << off, (1 << (cap + 1)) - 2, size, extend)
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
    # The two subsets are disjoint: an index in both could be dropped from
    # both, leaving a smaller sum reached twice than the smallest, t.
    return _subset_with_sum(vals[:j], t), _subset_with_sum(vals[:j], t - vals[j]) + (j,)


def _subset_with_sum(prefix: tuple[int, ...], target: int) -> tuple[int, ...]:
    """Indices, ascending, of the one subset of the DSS tuple ``prefix`` that
    sums to ``target``, by meet in the middle over its two halves."""
    half = len(prefix) // 2
    low = _sums_with_masks(prefix[:half], 0)
    for s, mask in _sums_with_masks(prefix[half:], half).items():
        rest = low.get(target - s)
        if rest is not None:
            mask |= rest
            return tuple(i for i in range(len(prefix)) if mask >> i & 1)
    raise AssertionError("subset reconstruction failed")


def _sums_with_masks(part: tuple[int, ...], first: int) -> dict[int, int]:
    # Every subset sum of a DSS part, mapped to the bitmask of its indices
    # (part[0] has index ``first``).
    sums = {0: 0}
    for i, a in enumerate(part, first):
        sums.update([(s + a, m | 1 << i) for s, m in sums.items()])
    return sums
