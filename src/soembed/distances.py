"""Optimal minimum distances for dimensions 1..5, in closed form.

d_opt(n, k) gives the best minimum distance of any [n, k] binary linear
code; dso_opt(n, k) the best over self-orthogonal codes.  Every value has
one form: the base 2**(k-1) * n // (2**k - 1), less a penalty of 0, 1 or 2
read off n modulo a per-dimension period, apart from a few named lengths.
One table per family holds the periods and penalties.  Both are exact
everywhere they are known; the one genuinely open strip (dimension 5,
lengths in the seven open residue classes mod 31 past the classified
range) is reported with status "conjectured" and never silently mixed in.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, NoSOCodeError

STATUS_EXACT = "exact"
STATUS_UPPER_BOUND = "upper_bound"
STATUS_CONJECTURED = "conjectured"
STATUS_WITNESS = "witness"

_STATUSES = frozenset(
    (STATUS_EXACT, STATUS_UPPER_BOUND, STATUS_CONJECTURED, STATUS_WITNESS)
)


@dataclass(frozen=True)
class DistanceValue:
    """A distance together with how firmly it is known and what produced it."""

    value: int
    status: str
    source: str

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("distance must be nonnegative")
        if self.status not in _STATUSES:
            raise ValueError(f"unknown status {self.status!r}")


# k -> (period, {n mod period: penalty}): the staircase (Griesmer) bound.
_LINEAR = {
    1: (1, {}),
    2: (3, {}),
    3: (7, {2: 1}),
    4: (15, {2: 1, 3: 1, 4: 1, 6: 1, 10: 1}),
    5: (31, {2: 1, 3: 1, 4: 2, 5: 1, 6: 1, 7: 1, 8: 1, 10: 1, 11: 1, 12: 1,
             14: 1, 18: 1, 19: 1, 20: 1, 22: 1, 26: 1}),
}

# k -> (period, {n mod period: penalty}): the self-orthogonal optimum.
_SO = {
    1: (2, {1: 1}),
    2: (6, {2: 1, 3: 2, 5: 1}),
    3: (7, {2: 1, 3: 1, 4: 2, 6: 1}),
    4: (15, {2: 1, 3: 1, 4: 2, 5: 2, 6: 1, 7: 1, 10: 1, 11: 1, 12: 2, 14: 1}),
    5: (31, {2: 1, 3: 1, 4: 2, 5: 2, 7: 1, 8: 2, 10: 1, 11: 1, 12: 2, 15: 1,
             18: 1, 19: 1, 20: 2, 23: 1, 26: 1, 27: 1, 30: 1}),
}

# k -> (start, first length with a code): dso_opt is defined from start on,
# and no self-orthogonal code exists at the lengths in between ([1,1]: the
# only nonzero vector has odd weight).
_SO_START = {1: (1, 2), 2: (4, 4), 3: (6, 6), 4: (4, 8), 5: (10, 10)}

# d_opt falls one below the staircase bound at these dimension-5 lengths.
_LIN5_BELOW_GRIESMER = frozenset({8, 9, 12, 13})

# The dimension-5 residues mod 31 the self-orthogonal formula leaves open.
_SO5_OPEN_MOD31 = frozenset({6, 13, 14, 21, 22, 28, 29})

# Lengths up to here have fully classified self-orthogonal codes, so the
# open dimension-5 residues are still exact values below this bound.
SO5_CLASSIFIED_MAX_N = 40


def _formula(n: int, k: int, table: dict[int, tuple[int, dict[int, int]]]) -> int:
    """2**(k-1) * n // (2**k - 1), less the table's penalty for n's residue."""
    period, penalty = table[k]
    return (n << (k - 1)) // ((1 << k) - 1) - penalty.get(n % period, 0)


def griesmer_g(k: int, d: int) -> int:
    """Minimal length the staircase bound allows for dimension k, distance d."""
    if k < 1 or d < 1:
        raise DomainError("need k >= 1 and d >= 1")
    return sum((d + (1 << i) - 1) // (1 << i) for i in range(k))


def griesmer_search(n: int, k: int) -> int:
    """Largest d with griesmer_g(k, d) <= n, by direct search."""
    if k < 1 or n < k:
        raise DomainError("need 1 <= k <= n")
    d = 1
    while griesmer_g(k, d + 1) <= n:
        d += 1
    return d


def griesmer_upper(n: int, k: int) -> int:
    """Largest d the staircase bound allows, via the closed forms for k <= 5."""
    if not 1 <= k <= 5:
        raise DomainError("closed forms cover 1 <= k <= 5 only")
    if n < k:
        raise DomainError(f"need n >= {k}")
    return _formula(n, k, _LINEAR)


def d_opt(n: int, k: int) -> DistanceValue:
    """Best minimum distance of an [n, k] binary linear code, k <= 5."""
    if not 1 <= k <= 5:
        raise DomainError("formulas cover 1 <= k <= 5 only")
    if n < k:
        raise DomainError(f"need n >= {k} for dimension {k}")
    value = _formula(n, k, _LINEAR)
    if k == 5 and n in _LIN5_BELOW_GRIESMER:
        value -= 1
    source = "dim1-repetition" if k == 1 else f"dim{k}-formula"
    return DistanceValue(value, STATUS_EXACT, source)


def dso_opt(n: int, k: int) -> DistanceValue:
    """Best minimum distance of an [n, k] self-orthogonal code, k <= 5.

    Raises NoSOCodeError where no such code exists (dimension 1, length 1;
    dimension 4, lengths 4..7) and DomainError below each formula's
    starting length.
    """
    if not 1 <= k <= 5:
        raise DomainError("formulas cover 1 <= k <= 5 only")
    start, first = _SO_START[k]
    if n < start:
        raise DomainError(f"dimension-{k} formula starts at n = {start}")
    if n < first:
        raise NoSOCodeError(f"no [{n},{k}] self-orthogonal code exists")
    if k == 5 and n != 13 and n % 31 in _SO5_OPEN_MOD31:
        value = d_opt(n, 5).value - 2
        if n <= SO5_CLASSIFIED_MAX_N:
            return DistanceValue(value, STATUS_EXACT, "dim5-so-classified")
        return DistanceValue(value, STATUS_CONJECTURED, "dim5-so-conjecture")
    value = _formula(n, k, _SO)
    if n == 13 and k >= 4:
        value -= 2  # [13,4] and [13,5]: no residue rule reaches them
    source = "dim1-so" if k == 1 else f"dim{k}-so-formula"
    return DistanceValue(value, STATUS_EXACT, source)


def make_table(n_lo: int, n_hi: int, k: int) -> list[tuple[int, DistanceValue]]:
    """Rows (n, dso_opt(n, k)) for n_lo <= n <= n_hi, skipping the lengths
    with no self-orthogonal code; NoSOCodeError if that leaves none."""
    if n_lo > n_hi:
        raise DomainError("empty range")
    rows = []
    for n in range(n_lo, n_hi + 1):
        try:
            rows.append((n, dso_opt(n, k)))
        except NoSOCodeError:
            pass
    if not rows:
        raise NoSOCodeError(
            f"no [n,{k}] self-orthogonal code exists for {n_lo} <= n <= {n_hi}"
        )
    return rows
