"""Bit-packed linear algebra over GF(2).

Matrices are stored as one Python int per row; bit j of a row int is the
entry in column j (column 0 = least significant bit).  All values are
immutable, so every operation returns a new matrix.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from math import comb, inf
from operator import and_, or_, xor
from typing import Callable, Iterable, Sequence

from .errors import (
    BadCharacterError,
    CapExceededError,
    EmptyInputError,
    IndexOutOfRangeError,
    RaggedRowsError,
    ZeroCodeError,
)

# Enumerating 2**rank codewords beyond this is refused.
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

    def to_text(self) -> str:
        """Matrix text form: one row of 0/1 characters per line."""
        return "\n".join(_row_text(r, self.n) for r in self.rows)

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.rows)

    def __str__(self) -> str:
        return self.to_text()


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


# _index_counts reads the columns off the rows' bit strings, O(k * n) in C,
# from this many rows k when n < 2**k, and otherwise splits the columns by
# each row in turn, an n-bit AND at each of at most sum(min(2**pos, n))
# nodes.  Timed on random matrices with n < 2**k (k 4..16, n 12..20,000),
# the split is as fast or faster up to k = 7, and the strings are 1.1 to
# 3.9 times faster from k = 8.
_STRING_ROWS = 8


def _index_counts(rows: Sequence[int], n: int) -> list[tuple[int, int]]:
    """(index, count) for each column index that rows put on their n columns.

    Bit k - 1 - pos of an index is the column's entry in rows[pos], k being
    len(rows).  The split goes depth-first, dropping empty parts, so at
    most k + 1 column masks are alive at once.
    """
    k = len(rows)
    if k >= _STRING_ROWS and 0 < n < 1 << k:  # format(0, "00b") would be a column
        bits = [format(r, f"0{n}b") for r in rows]
        return [(int(c, 2), s) for c, s in Counter(map("".join, zip(*bits))).items()]
    counts = []
    stack = [(0, 0, (1 << n) - 1)]  # (rows split so far, index so far, columns)
    while stack:
        pos, idx, cols = stack.pop()
        if pos == k:
            counts.append((idx, cols.bit_count()))
            continue
        ones = cols & rows[pos]
        zeros = cols ^ ones
        if zeros:
            stack.append((pos + 1, idx << 1, zeros))
        if ones:
            stack.append((pos + 1, idx << 1 | 1, ones))
    return counts


def _pair_parities(rows: Sequence[int]) -> Iterable[int]:
    """For each pair of rows i <= j, row-major, the parity of the columns on
    which both have a 1: the Gram matrix's upper triangle."""
    for i, a in enumerate(rows):
        for b in rows[i:]:
            yield (a & b).bit_count() & 1


def _bits(mask: int) -> list[int]:
    """The set bits of mask, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def gram(m: BinaryMatrix) -> BinaryMatrix:
    """The k x k matrix of pairwise row inner products mod 2."""
    out = [0] * m.k
    parities = _pair_parities(m.rows)
    for i in range(m.k):
        for j in range(i, m.k):
            if next(parities):
                out[i] |= 1 << j
                out[j] |= 1 << i
    return BinaryMatrix(m.k, m.k, tuple(out))


def _gray_codewords(basis: Sequence[int]) -> Iterable[int]:
    """Yield the 2**len(basis) - 1 nonzero row-space elements, one XOR each."""
    cw = 0
    for t in range(1, 1 << len(basis)):
        cw ^= basis[(t & -t).bit_length() - 1]
        yield cw


def _capped_basis(m: BinaryMatrix) -> list[int]:
    """A row-space basis, refused past RANK_CAP."""
    basis = row_basis(m)
    if len(basis) > RANK_CAP:
        raise CapExceededError(
            f"rank {len(basis)} > RANK_CAP = {RANK_CAP}: 2^{len(basis)} codewords"
        )
    return basis


def min_distance(m: BinaryMatrix) -> int:
    """Minimum weight over the nonzero row space.

    Rank-deficient input is fine: the search runs over a row-space basis of
    rank r.  Two walks visit all 2**r codewords, the split-table walk and
    the bit-sliced walk, and the one estimated cheaper from r and n runs,
    unless a Brouwer-Zimmermann search over information sets settles the
    minimum for less (see _bz_min_weight).

    A rank above RANK_CAP raises CapExceededError, because a walk would
    visit 2**rank codewords.
    """
    basis = _capped_basis(m)
    if not basis:
        raise ZeroCodeError("the zero code has no minimum distance")
    table_cost = 1 << len(basis)
    # where every column pattern can occur (n >= 2**r), the table walk was
    # the faster walk on every shape measured with r <= 12
    sliced_cost, lanes = _sliced_plan(len(basis), m.n) if m.n < table_cost else (inf, 0)
    d = _bz_min_weight(basis, m.n, min(table_cost, sliced_cost))
    if d is not None:
        return d
    if sliced_cost < table_cost:
        return _sliced_min_weight(basis, m.n, lanes)
    return _table_min_weight(basis)


def weight_distribution(m: BinaryMatrix) -> dict[int, int]:
    """Map weight -> number of codewords, over all 2**rank codewords.

    A rank above RANK_CAP raises CapExceededError.
    """
    basis = _capped_basis(m)
    table, high = _split_table(basis)
    counts = Counter(map(int.bit_count, table))
    for h in _gray_codewords(high):
        counts.update(map(int.bit_count, map(h.__xor__, table)))
    return dict(sorted(counts.items()))


# ---------------------------------------------------------------------------
# Codeword search.  The split-table walk and the Brouwer-Zimmermann search
# keep the per-codeword work (XOR, popcount, min or count) inside
# map/min/Counter, so it runs in C; Python only loops over groups of
# codewords.  The bit-sliced walk instead gives each codeword one bit of
# every int it works on, so one big-int operation serves 2**L codewords,
# and it counts the columns once for all 2**(r - L) combinations of the
# other rows, which an add-only butterfly then shares out.

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


# The bit-sliced walk has 2**L lanes.  L is the width of least estimated
# cost (_sliced_plan) among those at which what the walk holds at once, by
# _butterfly_planes, totals at most this many bits (1.25 MiB).
_LANE_MEMORY_BITS = 10 << 20
# Bits of Python objects per high-row pattern: its slot in the pairs and
# the tuples of the butterfly's arrays, measured at 700-1000.
_PATTERN_BITS = 1024
# Vectors that one level of the carry-save counter gathers before adding.
_CSA_CHUNK = 16


def _full_adders(pending: list[int]) -> list[int]:
    """Replace each three vectors at the head of pending by their bitwise
    sum, and return their bitwise carries."""
    k = len(pending) // 3
    a, b, c = pending[:k], pending[k : 2 * k], pending[2 * k : 3 * k]
    x = list(map(xor, a, b))
    pending[: 3 * k] = map(xor, x, c)
    return list(map(or_, map(and_, a, b), map(and_, x, c)))


def _carry_save_add(counter: list[list[int]], level: int, vectors: list[int]) -> None:
    """Add vectors of weight 2**level to a bit-sliced counter.

    counter[t] holds vectors of weight 2**t not yet added up.  Once a level
    holds 3 * _CSA_CHUNK of them, full adders turn each three into one at
    that level and a carry one level up, so few vectors are in flight.
    """
    while vectors:
        while len(counter) <= level:
            counter.append([])
        pending = counter[level]
        pending += vectors
        if len(pending) < 3 * _CSA_CHUNK:
            return
        vectors = _full_adders(pending)
        level += 1


def _carry_save_planes(counter: list[list[int]]) -> list[int]:
    """Bit planes of the counter's total: plane t holds bit t of each lane."""
    planes = []
    level = 0
    while level < len(counter):
        pending = counter[level]
        while len(pending) > 1:
            if len(pending) == 2:
                pending.append(0)
            _carry_save_add(counter, level + 1, _full_adders(pending))
        planes.append(pending[0] if pending else 0)
        level += 1
    return planes


def _plane_sum(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Bit planes of the lane-wise sum of the counts with planes a and b."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return a  # plane lists are never changed once built, so they are shared
    out = []
    carry = 0
    for x, y in zip(a, b):
        s = x ^ y
        out.append(s ^ carry)
        carry = x & y | s & carry
    for t in range(len(b), len(a)):
        if not carry:
            return out + list(a[t:])
        out.append(a[t] ^ carry)
        carry &= a[t]
    if carry:
        out.append(carry)
    return out


def _min_lane(planes: Sequence[int], lanes: int) -> int:
    """Least value that the bit planes hold in the lanes set in lanes."""
    if not lanes:
        raise ValueError("no lane to read")
    least = 0
    for t in range(len(planes) - 1, -1, -1):
        zero = lanes & ~planes[t]
        if zero:
            lanes = zero
        else:
            least |= 1 << t
    return least


def _group_counts(
    group: Sequence[tuple[int, int]], lane_vector: Callable[[int], int], full: int
) -> tuple[list[int], list[int]]:
    """Bit planes of D0 = sum of s * v and D1 = sum of s * (v ^ full) over
    the (low pattern p, multiplicity s) of a group, v = lane_vector(p).

    D0 goes through the carry-save counter, each set bit of s at its own
    level.  D1 is total - D0, which on b = total.bit_length() planes is the
    complement of D0 plus total + 1, less 2**b: the carry out is dropped.
    """
    counter: list[list[int]] = []
    total = sum(s for _, s in group)
    b = total.bit_length()
    for level in range(b):
        ps = [p for p, s in group if s >> level & 1]
        for i in range(0, len(ps), _CSA_CHUNK):
            _carry_save_add(counter, level, list(map(lane_vector, ps[i : i + _CSA_CHUNK])))
    zero = _carry_save_planes(counter)
    zero += [0] * (b - len(zero))
    plus = [full if (total + 1) >> t & 1 else 0 for t in range(b)]
    return zero, _plane_sum([x ^ full for x in zero], plus)[:b]


def _butterfly(pairs: list[tuple[list[int], list[int]]]) -> Iterable[list[int]]:
    """Yield the count W_t for each of the 2**m sums t of the high rows,
    t = 0 first.

    pairs[q] holds D0 and D1 of the columns on which the high rows put the
    pattern q; a column counts in D0 at t if <t, q> is even, else in D1.
    Splitting on q's top bit, the halves' pairs (A0, B0) and (A1, B1)
    become (A0 + A1, B0 + B1) for t's bit 0 and (A0 + B1, B0 + A1) for its
    bit 1, so each level halves the pairs, and the 2**m leaves cost about
    2m * 2**m additions.
    """
    half = len(pairs) // 2
    if not half:
        yield pairs[0][0]
        return
    low, high = pairs[:half], pairs[half:]
    if half == 1:
        (a0, b0), (a1, b1) = low[0], high[0]
        yield _plane_sum(a0, a1)
        yield _plane_sum(a0, b1)
        return
    yield from _butterfly(
        [(_plane_sum(a0, a1), _plane_sum(b0, b1)) for (a0, b0), (a1, b1) in zip(low, high)]
    )
    yield from _butterfly(
        [(_plane_sum(a0, b1), _plane_sum(b0, a1)) for (a0, b0), (a1, b1) in zip(low, high)]
    )


def _sliced_min_weight(basis: Sequence[int], n: int, lanes: int | None = None) -> int:
    """Minimum nonzero weight by the bit-sliced walk of all 2**r codewords.

    Lane x is the combination x of the low L basis rows, and bit x of each
    vector belongs to it; t is the combination of the other m = r - L rows.
    A column whose low pattern is p and high pattern q has lane vector v,
    bit x set iff <x, p> is odd, and its bit in codeword (x, t) is that of
    v, flipped if <t, q> is odd.  So the columns are grouped by q, each
    group's D0 (sum of v) and D1 (sum of the complements) are counted once,
    and an add-only butterfly over the high rows (_butterfly) gives every
    lane's weight at each t.  The least lane is read off the bit planes;
    lane 0 at t = 0 is the zero codeword and is left out.  lanes sets L
    (default: the width _sliced_plan picks).
    """
    r = len(basis)
    if lanes is None:
        lanes = _sliced_plan(r, n)[1]
    full = (1 << (1 << lanes)) - 1
    # v is the XOR of the bit masks of p's set bits, so one XOR of an
    # element of each half's span
    half = lanes // 2
    masks = _bit_masks(lanes)
    low_span, high_span = _span(masks[:half]), _span(masks[half:])
    low = (1 << half) - 1

    def lane_vector(p: int) -> int:
        return low_span[p & low] ^ high_span[p >> half]

    # bit pos of a column's index is its entry in basis row pos
    groups: dict[int, list[tuple[int, int]]] = {}
    pattern = (1 << lanes) - 1
    for idx, s in _index_counts(basis[::-1], n):
        groups.setdefault(idx >> lanes, []).append((idx & pattern, s))
    no_columns = ([], [])
    pairs = [
        _group_counts(groups[q], lane_vector, full) if q in groups else no_columns
        for q in range(1 << (r - lanes))
    ]
    best = n
    for t, planes in enumerate(_butterfly(pairs)):
        lanes_read = full if t else full ^ 1
        if lanes_read:  # at L = 0, t = 0 holds only the zero codeword
            best = min(best, _min_lane(planes, lanes_read))
    return best


# Cost model of _sliced_min_weight, in the unit of _bz_min_weight: one
# codeword of the table walk, whose map work on n-bit ints costs
# 1 + n / _TABLE_COLUMNS times as much as on short ones.  The Python
# overhead of one bit-plane addition is _PART_COST units, and that of one
# vector added to a group's count, with the reading of its column and its
# lane vector, _VECTOR_PARTS times as much; one bit operation on
# _LANES_PER_UNIT lanes costs as much as a codeword of a short code.
_PART_COST = 3
_VECTOR_PARTS = 4
_LANES_PER_UNIT = 1700
_TABLE_COLUMNS = 1100


def _butterfly_planes(r: int, n: int, lanes: int) -> tuple[int, int]:
    """Estimated bit planes that the bit-sliced walk of a rank-r code of
    length n with 2**lanes lanes adds up, and the bits it holds at once.

    A pair at depth i of the butterfly counts the columns of 2**i high
    patterns: n >> (m - i) of them if they are spread evenly, on as many
    planes as that number has bits.  One array of pairs per depth is held,
    with the groups' counts at depth 0, the carry-save counter's vectors in
    flight, the two spans that build the lane vectors, and _PATTERN_BITS
    of Python objects per high pattern.
    """
    m = r - lanes
    added = held = 0
    for depth in range(m + 1):
        pairs = min(1 << (m - depth), n)
        planes = max(1, (n << depth >> m).bit_length())
        held += 2 * pairs * planes
        if depth:
            added += (1 << depth) * pairs * planes * (2 if depth < m else 1)
    group = -(-n >> m)  # columns per high pattern, rounded up
    held += min(group, 3 * _CSA_CHUNK * group.bit_length())
    held += (1 << (lanes - lanes // 2)) + (1 << (lanes // 2))
    return added, (held << lanes) + (_PATTERN_BITS << m)


@lru_cache(maxsize=1024)
def _sliced_plan(r: int, n: int) -> tuple[float, int]:
    """(estimated cost, lane width L) of the cheapest bit-sliced walk of a
    rank-r code of length n that fits in _LANE_MEMORY_BITS, or (inf, 0) if
    none does.  The table walk costs 2**r in this unit."""
    groups = min(n, 1 << r)
    # each group adds its lane vector once per set bit of its multiplicity
    vectors = groups * max(1, (n // groups).bit_length())
    best = (inf, 0)
    for lanes in range(r + 1):
        added, held = _butterfly_planes(r, n, lanes)
        if held > _LANE_MEMORY_BITS:
            continue
        parts = added + _VECTOR_PARTS * vectors
        lane_work = (added + vectors) * (1 << lanes) / _LANES_PER_UNIT
        best = min(best, ((_PART_COST * parts + lane_work) / (1 + n / _TABLE_COLUMNS), lanes))
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
def _bit_masks(k: int) -> tuple[int, ...]:
    """_index_bit_mask(k, b) for b = 0 .. k - 1, built once per k.

    Their XOR combinations are the hit masks.  A pair mask is one AND of
    two of them, so the k(k + 1)/2 pair masks never need to be held at once.
    """
    return tuple(_index_bit_mask(k, b) for b in range(k))


@lru_cache(maxsize=None)
def _hit_masks(k: int) -> tuple[int, ...]:
    """hit[i] has bit x set iff column index i contributes to message x,
    that is iff <x, i> is odd: the XOR of the bit masks of i's set bits."""
    return tuple(_span(_bit_masks(k)))


def simplex_matrix(k: int) -> BinaryMatrix:
    """The k x (2**k - 1) matrix whose column j is the column of index j + 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rows = tuple(mask >> 1 for mask in reversed(_bit_masks(k)))
    return BinaryMatrix(k, (1 << k) - 1, rows)


def horizontal_join(m: BinaryMatrix, cols: Sequence[int]) -> BinaryMatrix:
    """Append columns on the right, in order, each given by its index.

    Bit k - 1 - pos of an index is its entry in row pos, so index 1 is the
    column (0, ..., 0, 1) and index 0 the zero column.
    """
    top = (1 << m.k) - 1
    for i in cols:
        if not 0 <= i <= top:
            raise IndexOutOfRangeError(f"column index {i} outside 0..{top}")
    rows = tuple(r | a << m.n for r, a in zip(m.rows, _column_rows(m.k, cols)))
    return BinaryMatrix(m.k, m.n + len(cols), rows)


def _column_rows(k: int, cols: Sequence[int]) -> list[int]:
    """The k rows of the matrix whose column j has index cols[j], for
    indices below 2**k; k zero rows when there is no column.

    The columns' k-bit strings, last column first, are joined into one
    string, so row pos is every k-th character from pos: O(k * n) in C.
    """
    if not cols:
        return [0] * k
    text = "".join(map(format, reversed(cols), repeat(f"0{k}b")))
    return [int(text[pos::k], 2) for pos in range(k)]


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
