"""ES-sequence computation: exact branch-and-bound, analytic bounds, Conway-Guy witnesses.

ES(n) is the smallest possible maximum element of an n-element DSS set.  The
first nine values are known: 1, 2, 4, 7, 13, 24, 44, 84, 161 (OEIS A276661).
The solver recomputes values exactly where the time budget allows and
degrades to certified intervals otherwise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import isqrt

from .dss import MAX_TOTAL, DssSet, difference_mask, is_dss
from .errors import SearchTimeout

COMPUTED = "computed"
KNOWN = "known"
BOUND_ONLY = "bound-only"

# The nine known values of the sequence; everything beyond is open.
KNOWN_ES = {1: 1, 2: 2, 3: 4, 4: 7, 5: 13, 6: 24, 7: 44, 8: 84, 9: 161}

# 2^n must stay inside a 64-bit word for the analytic bounds.
_MAX_N = 62


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
    return DssSet(elems)


@dataclass(frozen=True)
class EsRecord:
    """One row of the ES table: exact value or certified interval."""

    n: int
    status: str  # COMPUTED | KNOWN | BOUND_ONLY
    lower: int
    upper: int
    witness: DssSet | None

    @property
    def value(self) -> int | None:
        return self.lower if self.status != BOUND_ONLY else None


@dataclass
class EsTable:
    records: dict[int, EsRecord] = field(default_factory=dict)

    def value(self, n: int) -> int | None:
        rec = self.records.get(n)
        return rec.value if rec else None


def es_floor(j: int) -> int:
    """A certified lower bound on ES(j): the exact value for j <= 9, the
    counting bound beyond.  Safe to use inside prunes."""
    return KNOWN_ES[j] if j <= 9 else erdos_counting_lb(j)


def _witness_with_max(
    n: int, x: int, floors: list[int], deadline: float
) -> tuple[int, ...] | None:
    """An n-element DSS subset of {1..x} containing x, or None.

    Depth-first over elements in decreasing order, larger candidates first.
    Candidates at a node are one mask: the range left by the prefix bound
    (the element chosen with rem still to pick is the rem-th smallest, hence
    >= ES(rem)) and the total-sum bound (2^n distinct sums fit in
    [0, total] only if total >= 2^n - 1), minus the labels the chosen
    elements' difference mask rules out (see the dss module docstring).
    """
    if n == 1:
        return (x,)
    target = (1 << n) - 1
    off = n * x  # no n distinct elements of {1..x} sum to more
    nodes = 0
    monotonic = time.monotonic

    def down(z: int, hi: int, rem: int, total: int) -> tuple[int, ...] | None:
        nonlocal nodes
        # With a the largest of the rem elements still to pick, the total
        # reaches at most total + rem*a - rem*(rem-1)/2.
        amin = -(-(target - total + rem * (rem - 1) // 2) // rem)
        lo = max(floors[rem], amin)
        if lo > hi:
            return None
        cand = ((1 << (hi + 1)) - (1 << lo)) & ~(z >> off)
        while cand:
            a = cand.bit_length() - 1
            cand ^= 1 << a
            nodes += 1
            if nodes & 1023 == 0 and monotonic() > deadline:
                raise SearchTimeout
            if rem == 1:
                return (a,)
            rest = down(z | z << a | z >> a, a - 1, rem - 1, total + a)
            if rest is not None:
                return rest + (a,)
        return None

    tail = down(difference_mask((x,), off), x - 1, n - 1, x)
    return None if tail is None else tail + (x,)


def _search_es(n: int, deadline: float) -> tuple[str, int, tuple[int, ...] | None]:
    """("computed", ES(n), witness) or ("timeout", first unrefuted x, None)."""
    lo = max(erdos_counting_lb(n), erdos_moser_lb(n))
    if n - 1 >= 1 and n - 1 <= 9:
        # Deleting the maximum of an optimal witness shows ES(n) > ES(n-1).
        lo = max(lo, KNOWN_ES[n - 1] + 1)
    hi = conway_guy_u(n)
    floors = [0] * n
    for j in range(1, n):
        floors[j] = es_floor(j)
    for x in range(lo, hi + 1):
        try:
            witness = _witness_with_max(n, x, floors, deadline)
        except SearchTimeout:
            return ("timeout", x, None)
        if witness is not None:
            return (COMPUTED, x, witness)
    raise RuntimeError("internal: search exceeded the Conway-Guy upper bound")


def es(n: int, budget_s: float = 60.0) -> EsRecord:
    """Compute ES(n) exactly with a certified witness, within ``budget_s``.

    On timeout the record degrades to a bound-only interval [first candidate
    maximum not yet refuted, conway_guy_u(n)]; timeout is a status, never an
    exception.
    """
    _check_n(n)
    if budget_s <= 0:
        raise ValueError("budget must be positive")
    deadline = time.monotonic() + budget_s
    kind, x, witness = _search_es(n, deadline)
    if kind == COMPUTED:
        return EsRecord(n, COMPUTED, x, x, DssSet(witness))
    return EsRecord(n, BOUND_ONLY, x, conway_guy_u(n), None)


def es_table(n_max: int, budget_s: float = 60.0) -> EsTable:
    """Records for n = 1..n_max: computed where the shared budget allows,
    the known published values (with Conway-Guy witnesses) for n <= 9
    otherwise, bound-only intervals beyond."""
    _check_n(n_max)
    if budget_s <= 0:
        raise ValueError("budget must be positive")
    deadline = time.monotonic() + budget_s
    table = EsTable()
    exact: dict[int, int] = {}
    for n in range(1, n_max + 1):
        rec: EsRecord | None = None
        if time.monotonic() < deadline:
            kind, x, witness = _search_es(n, deadline)
            if kind == COMPUTED:
                rec = EsRecord(n, COMPUTED, x, x, DssSet(witness))
        if rec is None:
            if n <= 9:
                value = KNOWN_ES[n]
                rec = EsRecord(n, KNOWN, value, value, conway_guy_set(n))
            else:
                lower = max(erdos_counting_lb(n), erdos_moser_lb(n))
                prev = exact.get(n - 1)
                if prev is not None:
                    lower = max(lower, prev + 1)
                rec = EsRecord(n, BOUND_ONLY, lower, conway_guy_u(n), None)
        if rec.value is not None:
            exact[n] = rec.value
        table.records[n] = rec
    return table
