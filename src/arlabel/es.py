"""ES-sequence computation: exact branch-and-bound, analytic bounds, Conway-Guy witnesses.

ES(n) is the smallest possible maximum element of an n-element DSS set.  The
first nine values are known: 1, 2, 4, 7, 13, 24, 44, 84, 161 (OEIS A276661).
The solver recomputes values exactly where the time budget allows and
degrades to certified intervals otherwise.

The exact search prunes with the second-moment argument of Erdos and Moser
in its exact form.  The sum of a uniformly random subset of an n-set has
variance sum(a^2)/4.  For a DSS set that sum takes 2^n distinct integer
values with equal probability, so its variance is at least (4^n - 1)/12.
Hence every DSS n-set has sum(a^2) >= (4^n - 1)/3.

Candidate maxima below the Conway-Guy bound u(n) are tried upward from the
proved lower bound C(n, floor(n/2)) (Dubroff, Fox & Xu), which for every
n <= 62 is at least the counting and Erdos-Moser bounds.  Once all of them
are refuted, the Conway-Guy set is the witness for ES(n) = u(n).  The search
reads nothing from the table of known values.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import comb, inf, isqrt

from .dss import DssSet, difference_mask, is_dss
from .errors import SearchTimeout

COMPUTED = "computed"
BOUND_ONLY = "bound-only"

# Why a search left ES(n) bound-only: its budget ran out, or the next
# candidate maximum needs a difference mask above ``_MAX_MASK_BITS``, which
# no budget would change.
STOPPED_BY_BUDGET = "budget"
STOPPED_BY_MASK_CAP = "mask cap"

# The nine known values of the sequence; everything beyond is open.
KNOWN_ES = {1: 1, 2: 2, 3: 4, 4: 7, 5: 13, 6: 24, 7: 44, 8: 84, 9: 161}

# 2^n and the Conway-Guy values must stay inside a 64-bit word.
_MAX_N = 62
MAX_TOTAL = 2**63 - 1

# The widest difference mask the exact search builds, in bits (512 KiB).  A
# candidate maximum x takes 2*n*x + 1 bits; above the cap the search stops
# with x undecided instead of building it.  The start C(n, n/2) fits up to
# n = 19; at n = 40 the mask would take about 10^12 bytes.
_MAX_MASK_BITS = 1 << 22


class _MaskCapReached(Exception):
    """A candidate maximum needs a mask wider than ``_MAX_MASK_BITS``."""


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if n > _MAX_N:
        raise OverflowError(f"2^{n} exceeds 64-bit range")


def erdos_counting_lb(n: int) -> int:
    """Counting lower bound ceil((2^n - 1) / n): the 2^n distinct sums all
    lie in [0, n*max], forcing 2^n - 1 <= n*max."""
    _check_n(n)
    return ((1 << n) - 1 + n - 1) // n


def erdos_moser_lb(n: int) -> int:
    """Second-moment lower bound ceil(2^n / (4*sqrt(n))), exact integer
    arithmetic: returns the smallest k with 16*n*k^2 >= 4^n, which equals the
    true ceiling and therefore never over-prunes."""
    _check_n(n)
    q = 1 << (2 * n)
    k = isqrt(q // (16 * n))
    while 16 * n * k * k < q:
        k += 1
    return max(k, 1)


def conway_guy_u(n: int) -> int:
    """u(n) of the Conway-Guy sequence.

    u(0)=0, u(1)=1, u(k+1) = 2*u(k) - u(k-r(k)) with r(k) the nearest integer
    to sqrt(2k).  Matches the nine known ES values for n <= 9.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    u = [0, 1]
    for k in range(1, n):
        s = isqrt(2 * k)
        r = s if 2 * k - s * s <= s else s + 1
        nxt = 2 * u[k] - u[k - r]
        if nxt > MAX_TOTAL:
            raise OverflowError(f"Conway-Guy u({k + 1}) exceeds 64-bit range")
        u.append(nxt)
    return u[n]


def conway_guy_set(n: int) -> DssSet:
    """The n-element Conway-Guy set {u(n) - u(n-i) : i = 1..n}.

    Every emitted set is re-verified; a failure would mean the recurrence is
    wrong and is raised as an internal error, not an input error.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    un = conway_guy_u(n)
    elems = tuple(un - conway_guy_u(n - i) for i in range(1, n + 1))
    if not is_dss(elems):
        raise RuntimeError(f"internal: Conway-Guy set for n={n} failed the DSS check")
    return DssSet._proved(elems)


@dataclass(frozen=True)
class EsRecord:
    """ES(n): the exact value with a witness, or a certified interval.

    ``stopped_by`` says why a search left the row bound-only
    (``STOPPED_BY_BUDGET`` or ``STOPPED_BY_MASK_CAP``); it is None when the
    search finished.
    """

    n: int
    status: str  # COMPUTED | BOUND_ONLY
    lower: int
    upper: int
    witness: DssSet | None
    nodes: int = field(default=0, compare=False)  # search nodes this record took
    stopped_by: str | None = field(default=None, compare=False)

    @property
    def value(self) -> int | None:
        return self.lower if self.status != BOUND_ONLY else None


def es_floor(j: int) -> int:
    """A certified lower bound on ES(j): the published value for j <= 9, the
    counting bound beyond.  The solver's counting prune reads it; the ES
    search does not."""
    return KNOWN_ES[j] if j <= 9 else erdos_counting_lb(j)


def _witness_with_max(n: int, x: int, deadline: float) -> tuple[tuple[int, ...] | None, int]:
    """(An n-element DSS subset of {1..x} containing x, or None; nodes),
    for n >= 3.

    Depth-first over elements in decreasing order, larger candidates first.
    Candidates at a node are the labels below the last pick that the chosen
    elements' difference mask leaves legal (see the dss module docstring),
    tried from the top.  Two bounds on the largest element a still to pick
    end the node at the first candidate that fails one; both only tighten
    as a falls:
      - the prefix bound: a is the largest of rem distinct positive
        integers, hence >= rem;
      - the second-moment bound (module docstring): the squares must reach
        (4^n - 1)/3, and the rem elements still to pick add at most
        sum_{i<rem} (a - i)^2 = rem*a^2 - rem*(rem-1)*a + sum_{i<rem} i^2.
    Each cuts only subtrees that hold no DSS set, so the first witness is
    the one plain enumeration in this order finds.  The last three picks
    run in one loop nest, with no call per candidate below the fourth to
    last (for n = 3, whose x is its third to last, the last two).  Each
    element tried counts one node.  On timeout raises SearchTimeout(nodes),
    and before a difference mask wider than ``_MAX_MASK_BITS`` would be
    built it raises _MaskCapReached: x is then left undecided.
    """
    squares = ((1 << 2 * n) - 1) // 3
    off = n * x  # no n distinct elements of {1..x} sum to more
    if 2 * off + 1 > _MAX_MASK_BITS:
        raise _MaskCapReached
    nodes = 0
    monotonic = time.monotonic

    # down is handed itself rather than closing over its own name, so no
    # reference cycle outlives the search.
    def down(z: int, hi: int, rem: int, sq: int, down) -> tuple[int, ...] | None:
        nonlocal nodes
        # What rem*a^2 - rem*(rem-1)*a must still reach.
        deficit = squares - sq - (rem - 1) * rem * (2 * rem - 1) // 6
        h = z >> off
        cand = ((2 << hi) - 1) & ~h
        if rem > 3:
            while cand:
                a = cand.bit_length() - 1
                if a < rem or rem * a * (a - rem + 1) < deficit:
                    return None
                cand ^= 1 << a
                nodes += 1
                if nodes & 1023 == 0 and monotonic() > deadline:
                    raise SearchTimeout(nodes)
                rest = down(z | z << a | z >> a, a - 1, rem - 1, sq + a * a, down)
                if rest is not None:
                    return rest + (a,)
            return None
        target = squares - sq
        if rem == 3:
            # The last three picks in one loop nest: each third-to-last
            # element c builds its mask y and runs the last-pair loop below
            # on it inline.
            while cand:
                c = cand.bit_length() - 1
                if c < 3 or 3 * c * (c - 2) < deficit:
                    return None
                cand ^= 1 << c
                nodes += 1
                if nodes & 1023 == 0 and monotonic() > deadline:
                    raise SearchTimeout(nodes)
                y = z | z << c | z >> c
                g = y >> off
                pairs = ((1 << c) - 1) & ~g
                left = target - c * c  # the pair's target; its deficit is left - 1
                while pairs:
                    a = pairs.bit_length() - 1
                    if a < 2 or 2 * a * (a - 1) < left - 1:
                        break
                    pairs ^= 1 << a
                    nodes += 1
                    if nodes & 1023 == 0 and monotonic() > deadline:
                        raise SearchTimeout(nodes)
                    b = (((1 << a) - 1) & ~(g | y >> (off - a) | g >> a)).bit_length() - 1
                    if b >= 1 and a * a + b * b >= left:
                        nodes += 1
                        return (b, a, c)
            return None
        # The last two picks in one loop, a call of its own only for n = 3,
        # whose x is its third-to-last pick.  The last element b is the
        # largest label below a left legal after a: the clear bits of
        # (z | z << a | z >> a) >> off, computed here from h without the
        # shifts of z that do not reach them.  The largest b adds the most
        # to the squares, so a smaller one cannot reach them.
        while cand:
            a = cand.bit_length() - 1
            if a < 2 or 2 * a * (a - 1) < deficit:
                return None
            cand ^= 1 << a
            nodes += 1
            if nodes & 1023 == 0 and monotonic() > deadline:
                raise SearchTimeout(nodes)
            b = (((1 << a) - 1) & ~(h | z >> (off - a) | h >> a)).bit_length() - 1
            if b >= 1 and a * a + b * b >= target:
                nodes += 1
                return (b, a)
        return None

    tail = down(difference_mask((x,), off), x - 1, n - 1, x * x, down)
    return (None if tail is None else tail + (x,)), nodes


def _es_start(n: int) -> int:
    """C(n, floor(n/2)), a table-free lower bound on ES(n) (Dubroff, Fox &
    Xu, SIAM J. Discrete Math. 35, 2021).  For n <= 62 it is at least the
    counting and Erdos-Moser bounds."""
    return comb(n, n // 2)


def es(n: int, budget_s: float = 60.0) -> EsRecord:
    """Compute ES(n) exactly with a certified witness, within ``budget_s``.

    On timeout, or when the next candidate maximum needs a difference mask
    above the cap, the record degrades to a bound-only interval [first
    candidate maximum not yet refuted, conway_guy_u(n)] whose ``stopped_by``
    says which; neither is an exception.  The clock is read once per
    candidate maximum as well as every 1024 nodes inside the search, so a
    run of candidates that take few nodes each still stops on time.
    """
    _check_n(n)
    if not 0 < budget_s < inf:
        raise ValueError("budget must be positive and finite")
    deadline = time.monotonic() + budget_s
    hi = conway_guy_u(n)
    nodes = 0
    for x in range(_es_start(n), hi):
        try:
            if time.monotonic() > deadline:
                raise SearchTimeout(0)
            witness, used = _witness_with_max(n, x, deadline)
        except SearchTimeout as stop:
            return EsRecord(n, BOUND_ONLY, x, hi, None, nodes + stop.args[0], STOPPED_BY_BUDGET)
        except _MaskCapReached:
            return EsRecord(n, BOUND_ONLY, x, hi, None, nodes, STOPPED_BY_MASK_CAP)
        nodes += used
        if witness is not None:
            return EsRecord(n, COMPUTED, x, x, DssSet(witness), nodes)
    return EsRecord(n, COMPUTED, hi, hi, conway_guy_set(n), nodes)
