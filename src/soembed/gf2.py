"""Bit-packed linear algebra over GF(2).

Matrices are stored as one Python int per row; bit j of a row int is the
entry in column j (column 0 = least significant bit).  All values are
immutable, so every operation returns a new matrix.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb
from typing import Iterable, Sequence

from .errors import (
    BadCharacterError,
    CapExceededError,
    EmptyInputError,
    IndexOutOfRangeError,
    LengthMismatchError,
    RaggedRowsError,
    ZeroCodeError,
)

# Enumerating 2**rank codewords beyond this is refused without an override.
RANK_CAP = 40


@dataclass(frozen=True)
class BinaryMatrix:
    """A k x n matrix over GF(2) with int-bitmask rows."""

    k: int
    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.k < 1 or self.k != len(self.rows):
            raise ValueError("row count must be >= 1 and match rows")
        if self.n < 0:
            raise ValueError("column count must be >= 0")
        mask = (1 << self.n) - 1
        for r in self.rows:
            if r < 0 or r & ~mask:
                raise ValueError("row has bits outside the column range")

    @classmethod
    def from_rows(cls, bit_rows: Sequence[Sequence[int]]) -> "BinaryMatrix":
        """Build from row sequences of 0/1 entries (leftmost entry = column 0)."""
        if not bit_rows:
            raise ValueError("need at least one row")
        n = len(bit_rows[0])
        ints = []
        for row in bit_rows:
            if len(row) != n:
                raise RaggedRowsError("rows have unequal lengths")
            for b in row:
                if b not in (0, 1):
                    raise BadCharacterError(f"entry {b!r} is not a bit")
            ints.append(int("".join("01"[b] for b in reversed(row)) or "0", 2))
        return cls(len(ints), n, tuple(ints))

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def column(self, j: int) -> tuple[int, ...]:
        """Column j as a bit tuple, top row first."""
        return tuple((r >> j) & 1 for r in self.rows)

    def row_bits(self, i: int) -> tuple[int, ...]:
        """Row i as a bit tuple, column 0 first."""
        return tuple(map(int, _row_text(self.rows[i], self.n)))

    def to_text(self) -> str:
        """Matrix text form: one row of 0/1 characters per line."""
        return "\n".join(_row_text(r, self.n) for r in self.rows)

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.rows)

    def delete_row(self, i: int) -> "BinaryMatrix":
        rows = self.rows[:i] + self.rows[i + 1 :]
        return BinaryMatrix(self.k - 1, self.n, rows)

    def __str__(self) -> str:
        return self.to_text()


class LinearCode:
    """A binary linear code given by a generator matrix, with cached params."""

    def __init__(self, gen: BinaryMatrix):
        self.gen = gen

    @cached_property
    def rank(self) -> int:
        return rank(self.gen)

    @cached_property
    def dmin(self) -> int:
        return min_distance(self.gen)

    @property
    def n(self) -> int:
        return self.gen.n


def _row_text(r: int, n: int) -> str:
    """Row bits as 0/1 characters, column 0 first."""
    return format(r, f"0{n}b")[::-1] if n else ""


_DROP_BLANKS = str.maketrans("", "", " \t\r")
_DROP_BITS = str.maketrans("", "", "01")


def parse_matrix(text: str) -> BinaryMatrix:
    """Parse matrix text: 0/1 rows, optional whitespace, '#' comments.

    Blank lines are skipped; LF and CRLF both accepted.
    """
    rows: list[int] = []
    width = None
    for raw in text.splitlines():
        bits = raw.split("#", 1)[0].translate(_DROP_BLANKS)
        if not bits:
            continue
        bad = bits.translate(_DROP_BITS)
        if bad:
            raise BadCharacterError(f"unexpected character {bad[0]!r} in matrix text")
        if width is None:
            width = len(bits)
        elif len(bits) != width:
            raise RaggedRowsError(
                f"row {len(rows) + 1} has {len(bits)} bits, expected {width}"
            )
        rows.append(int(bits[::-1], 2))
    if width is None:
        raise EmptyInputError("no matrix rows in input")
    return BinaryMatrix(len(rows), width, tuple(rows))


def row_basis(m: BinaryMatrix) -> list[int]:
    """An echelon basis of the row space (bit rows, distinct leading bits)."""
    pivots: dict[int, int] = {}
    for r in m.rows:
        v = r
        while v:
            p = v.bit_length() - 1
            if p in pivots:
                v ^= pivots[p]
            else:
                pivots[p] = v
                break
    return [pivots[p] for p in sorted(pivots, reverse=True)]


def rank(m: BinaryMatrix) -> int:
    """GF(2) row rank."""
    return len(row_basis(m))


def inner_product(u: Sequence[int], v: Sequence[int]) -> int:
    """Ordinary inner product of two bit vectors, mod 2."""
    if len(u) != len(v):
        raise LengthMismatchError(f"lengths {len(u)} and {len(v)} differ")
    return sum(a & b for a, b in zip(u, v)) & 1


def _row_ip(a: int, b: int) -> int:
    """Inner product of two bit rows already packed as ints."""
    return (a & b).bit_count() & 1


def gram(m: BinaryMatrix) -> BinaryMatrix:
    """The k x k matrix of pairwise row inner products mod 2."""
    out = []
    for i in range(m.k):
        acc = 0
        for j in range(m.k):
            acc |= _row_ip(m.rows[i], m.rows[j]) << j
        out.append(acc)
    return BinaryMatrix(m.k, m.k, tuple(out))


def is_self_orthogonal(m: BinaryMatrix) -> bool:
    """True iff the Gram matrix is zero (the row space is in its dual)."""
    return gram(m).is_zero()


def _gray_codewords(basis: Sequence[int]) -> Iterable[int]:
    """Yield the 2**len(basis) - 1 nonzero row-space elements, one XOR each."""
    cw = 0
    for t in range(1, 1 << len(basis)):
        cw ^= basis[(t & -t).bit_length() - 1]
        yield cw


def min_distance(m: BinaryMatrix, allow_large: bool = False) -> int:
    """Minimum weight over the nonzero row space.

    Rank-deficient input is fine: the search runs over a row-space basis.
    It is a Brouwer-Zimmermann search over information sets while that is
    estimated to be cheaper than the split-table walk of all 2**rank
    codewords, and that walk otherwise (see _bz_min_weight).
    """
    basis = row_basis(m)
    if not basis:
        raise ZeroCodeError("the zero code has no minimum distance")
    if len(basis) > RANK_CAP and not allow_large:
        raise CapExceededError(
            f"rank {len(basis)} > {RANK_CAP}; pass allow_large=True to force"
        )
    d = _bz_min_weight(basis, m.n, 1 << len(basis))
    return _table_min_weight(basis) if d is None else d


def weight_distribution(m: BinaryMatrix, allow_large: bool = False) -> dict[int, int]:
    """Map weight -> number of codewords, over all 2**rank codewords."""
    basis = row_basis(m)
    if len(basis) > RANK_CAP and not allow_large:
        raise CapExceededError(
            f"rank {len(basis)} > {RANK_CAP}; pass allow_large=True to force"
        )
    table, high = _split_table(basis)
    counts = Counter(map(int.bit_count, table))
    for h in _gray_codewords(high):
        counts.update(map(int.bit_count, map(h.__xor__, table)))
    return dict(sorted(counts.items()))


# ---------------------------------------------------------------------------
# Codeword search.  Both paths keep the per-codeword work (XOR, popcount, min
# or count) inside map/min/Counter, so it runs in C; Python only loops over
# groups of codewords.

# The split-table walk tabulates the span of at most this many basis rows.
_TABLE_BITS = 10


def _span(rows: Sequence[int]) -> list[int]:
    """All 2**len(rows) XOR combinations of rows, 0 first."""
    span = [0]
    for r in rows:
        span += list(map(r.__xor__, span))  # list first: span grows as it extends
    return span


def _split_table(basis: Sequence[int]) -> tuple[list[int], Sequence[int]]:
    """The span of the low basis rows, and the high rows left to Gray-walk."""
    return _span(basis[:_TABLE_BITS]), basis[_TABLE_BITS:]


def _table_min_weight(basis: Sequence[int]) -> int:
    """Minimum nonzero weight by the split-table walk of all 2**r codewords.

    Each codeword h of the high rows' span (Gray order, one XOR each) is
    XORed against the whole table of low-row combinations at once.
    """
    bc = int.bit_count
    table, high = _split_table(basis)
    best = min(map(bc, table[1:]))
    for h in _gray_codewords(high):
        best = min(best, min(map(bc, map(h.__xor__, table))))
    return best


def _subset_xors(rows: Sequence[int], t: int) -> list[int]:
    """XORs of all t-subsets of rows, ordered by their last row: the first
    C(s, t) of them are the t-subsets of rows[:s]."""
    levels = [[0]] + [[] for _ in range(t)]
    for g in rows:
        for i in range(t, 0, -1):
            levels[i] += map(g.__xor__, levels[i - 1])
    return levels[t]


def _level_min_weight(rows: Sequence[int], w: int) -> int:
    """Minimum weight of the XOR of any w distinct rows (1 <= w <= len(rows)).

    Meet in the middle: a w-subset is its first b = ceil(w/2) rows joined
    with its last a = w - b rows.  Each a-subset whose first row is s is
    XORed against the whole table of b-subsets of the rows before s, a
    prefix of one list of C(r, b) ints.
    """
    bc = int.bit_count
    b = (w + 1) // 2
    a = w - b
    table = _subset_xors(rows, b)
    if not a:
        return min(map(bc, table))
    best = sum(map(bc, rows))  # no XOR of the rows weighs more
    for s in range(b, len(rows) - a + 1):
        head = table[: comb(s, b)]
        for x in _subset_xors(rows[s + 1 :], a - 1) if a > 1 else (0,):
            best = min(best, min(map(bc, map((x ^ rows[s]).__xor__, head))))
    return best


def _systematic_form(basis: Sequence[int], free: int) -> tuple[list[int], int] | None:
    """Rows spanning the code that form an identity on r columns of free.

    Gauss-Jordan elimination with pivots taken only in the free columns.
    Returns the rows and the mask of their pivot columns (an information
    set), or None when the free columns have rank below r.
    """
    form: list[int] = []
    pivots: list[int] = []
    for v in basis:
        for p, row in zip(pivots, form):
            if v & p:
                v ^= row
        u = v & free
        if not u:
            return None
        p = u & -u
        for i, row in enumerate(form):
            if row & p:
                form[i] = row ^ v
        form.append(v)
        pivots.append(p)
    return form, sum(pivots)


# Cost model of _bz_min_weight, in units of one codeword's XOR, popcount
# and min inside map: the Python overhead of one meet-in-the-middle group,
# and of building one systematic form, per basis row squared.  The search
# gives up on an estimate only after it has spent 1/_PROBE of its budget,
# because the estimate rests on the best weight seen, which the first
# levels bring down quickly.
_GROUP_COST = 16
_FORM_COST = 1
_PROBE = 16


def _level_cost(r: int, w: int) -> int:
    return comb(r, w) + _GROUP_COST * comb(r, w // 2)


def _steps_cost(r: int, m: int, first: int, stop: int) -> int:
    """Estimated cost of steps first .. stop - 1, step s being level s // m
    of one of m forms."""
    cost = 0
    for w in range(first // m, min((stop - 1) // m, r) + 1):
        cost += (min(stop, (w + 1) * m) - max(first, w * m)) * _level_cost(r, w)
    return cost


def _bz_min_weight(basis: list[int], n: int, budget: float) -> int | None:
    """Minimum nonzero weight of the span of basis, or None once the search
    is estimated to cost more than budget codewords.

    Brouwer-Zimmermann: peel disjoint information sets I_1, ..., I_m off the
    columns, each with a systematic form G_j (identity on I_j).  A codeword
    is the XOR of the rows of G_j picked by its restriction to I_j, so once
    the w-row combinations of G_1..G_j for w <= W and of G_j+1..G_m for
    w < W have been seen, every codeword not seen has weight at least
    mW + j; when the best weight seen is within that bound, it is the
    minimum.  Step (W, j) thus lifts the bound to mW + j + 1, and the steps
    left are those numbered mW + j up to best - 1.  The forms are built
    during level 1, and until then m is estimated as n // r, so the estimate
    of the work left uses only r, n and the best weight seen.
    """
    r = len(basis)
    bc = int.bit_count
    best = n
    forms: list[list[int]] = []
    used = 0
    spent = 0
    m = n // r
    step = _FORM_COST * r * r + _level_cost(r, 1)
    while best > 2 * len(forms):
        j = len(forms)
        todo = (m - j) * step + _steps_cost(r, m, 2 * m, best)
        if todo > budget and spent + step > budget / _PROBE:
            return None
        made = _systematic_form(basis, ((1 << n) - 1) & ~used)
        if made is None:
            break
        forms.append(made[0])
        used |= made[1]
        best = min(best, min(map(bc, made[0])))
        spent += step
    m = len(forms)
    for w in range(2, r + 1):
        step = _level_cost(r, w)
        for j, form in enumerate(forms):
            if best <= m * w + j:
                return best
            todo = _steps_cost(r, m, m * w + j, best)
            if todo > budget and spent + step > budget / _PROBE:
                return None
            best = min(best, _level_min_weight(form, w))
            spent += step
    return best


def h_column(k: int, i: int) -> tuple[int, ...]:
    """The length-k binary column for index i, most significant bit on top.

    Index 1 is the column (0, ..., 0, 1).
    """
    if not 1 <= i <= (1 << k) - 1:
        raise IndexOutOfRangeError(f"index {i} outside 1..{(1 << k) - 1}")
    return tuple((i >> (k - 1 - pos)) & 1 for pos in range(k))


def _index_bit_mask(k: int, b: int) -> int:
    """Bit i set, for 0 <= i < 2**k, iff bit b of i is set.

    The pattern is periodic (2**b zeros, then 2**b ones), so it is built by
    doubling a single period.
    """
    half = 1 << b
    acc = ((1 << half) - 1) << half
    width = half << 1
    while width < 1 << k:
        acc |= acc << width
        width <<= 1
    return acc


@lru_cache(maxsize=None)
def _hit_masks(k: int) -> tuple[int, ...]:
    """hit[i] has bit x set iff column index i contributes to message x,
    that is iff <x, i> is odd."""
    return tuple(
        sum(1 << x for x in range(1 << k) if (x & i).bit_count() & 1)
        for i in range(1 << k)
    )


def simplex_matrix(k: int) -> BinaryMatrix:
    """The k x (2**k - 1) matrix whose column i is h_column(k, i)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rows = tuple(_index_bit_mask(k, k - 1 - pos) >> 1 for pos in range(k))
    return BinaryMatrix(k, (1 << k) - 1, rows)


def horizontal_join(
    m: BinaryMatrix, cols: Sequence[Sequence[int]]
) -> BinaryMatrix:
    """Append columns (top-first bit tuples) on the right, in order."""
    for c in cols:
        if len(c) != m.k:
            raise LengthMismatchError(
                f"column of length {len(c)} cannot join a {m.k}-row matrix"
            )
    if not cols:
        return m
    # Row i's appended bits, last column first, as one binary string.
    rows = tuple(
        r | int("".join("1" if c[i] else "0" for c in reversed(cols)), 2) << m.n
        for i, r in enumerate(m.rows)
    )
    return BinaryMatrix(m.k, m.n + len(cols), rows)


def random_matrix(rng, k: int, n: int) -> BinaryMatrix:
    """Uniform random k x n matrix from a seeded random.Random."""
    return BinaryMatrix(k, n, tuple(rng.getrandbits(n) if n else 0 for _ in range(k)))


def random_full_rank_matrix(rng, k: int, n: int) -> BinaryMatrix:
    """Random k x n matrix of rank k (rejection sampling; needs n >= k)."""
    if n < k:
        raise ValueError("full rank needs n >= k")
    while True:
        m = random_matrix(rng, k, n)
        if rank(m) == k:
            return m


def naive_min_distance(m: BinaryMatrix) -> int:
    """Reference minimum distance: all nonzero row combinations, dedup'd.

    Exists as an independent check for the min_distance searches.  It XORs
    up to k rows for each of the 2**k row combinations, k * 2**k XORs in
    all, so it is only for small matrices.
    """
    seen = set()
    for picks in itertools.product((0, 1), repeat=m.k):
        cw = 0
        for b, r in zip(picks, m.rows):
            if b:
                cw ^= r
        seen.add(cw)
    seen.discard(0)
    if not seen:
        raise ZeroCodeError("the zero code has no minimum distance")
    return min(c.bit_count() for c in seen)
