"""Bit-packed linear algebra over GF(2).

Matrices are stored as one Python int per row; bit j of a row int is the
entry in column j (column 0 = least significant bit).  All values are
immutable, so every operation returns a new matrix.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from operator import and_, or_, xor
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


def _split_columns(
    rows: Sequence[int], n: int, tags: Sequence[int]
) -> list[tuple[int, int]]:
    """(tag, columns) for each pattern that rows put on a column of n.

    columns is the n-bit mask of the columns with that pattern, and tag the
    XOR of tags[pos] over the rows pos with a 1 there.  The column set is
    split by each row in turn into the columns with a 0 and those with a 1
    there, depth-first, dropping empty parts: at most len(rows) + 1 parts
    are alive, and the cost is at most sum(min(2**pos, n)) whole-int ANDs.
    """
    depth = len(rows)
    parts = []
    stack = [(0, 0, (1 << n) - 1)]  # (rows split so far, tag, columns)
    while stack:
        pos, tag, cols = stack.pop()
        if pos == depth:
            parts.append((tag, cols))
            continue
        ones = cols & rows[pos]
        zeros = cols ^ ones
        if zeros:
            stack.append((pos + 1, tag, zeros))
        if ones:
            stack.append((pos + 1, tag ^ tags[pos], ones))
    return parts


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


def _gray_codewords(basis: Sequence[int]) -> Iterable[int]:
    """Yield the 2**len(basis) - 1 nonzero row-space elements, one XOR each."""
    cw = 0
    for t in range(1, 1 << len(basis)):
        cw ^= basis[(t & -t).bit_length() - 1]
        yield cw


def _capped_basis(m: BinaryMatrix, allow_large: bool) -> list[int]:
    """A row-space basis, refused past RANK_CAP unless allow_large is set."""
    basis = row_basis(m)
    if len(basis) > RANK_CAP and not allow_large:
        raise CapExceededError(
            f"rank {len(basis)} > RANK_CAP = {RANK_CAP}: 2^{len(basis)} codewords"
        )
    return basis


def min_distance(m: BinaryMatrix, allow_large: bool = False) -> int:
    """Minimum weight over the nonzero row space.

    Rank-deficient input is fine: the search runs over a row-space basis of
    rank r.  Two walks visit all 2**r codewords, the split-table walk and
    the bit-sliced walk, and the one estimated cheaper from r and n runs,
    unless a Brouwer-Zimmermann search over information sets settles the
    minimum for less (see _bz_min_weight).

    A rank above RANK_CAP raises CapExceededError, because a walk would
    visit 2**rank codewords; allow_large=True lifts the cap.
    """
    basis = _capped_basis(m, allow_large)
    if not basis:
        raise ZeroCodeError("the zero code has no minimum distance")
    table_cost = 1 << len(basis)
    sliced_cost = _sliced_cost(len(basis), m.n)
    d = _bz_min_weight(basis, m.n, min(table_cost, sliced_cost))
    if d is not None:
        return d
    if sliced_cost < table_cost:
        return _sliced_min_weight(basis, m.n)
    return _table_min_weight(basis)


def weight_distribution(m: BinaryMatrix, allow_large: bool = False) -> dict[int, int]:
    """Map weight -> number of codewords, over all 2**rank codewords.

    A rank above RANK_CAP raises CapExceededError; allow_large=True lifts
    the cap.
    """
    basis = _capped_basis(m, allow_large)
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
# every int it works on, so one big-int operation serves 2**L codewords.

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


# The bit-sliced walk has 2**L lanes.  L is the largest width at which the
# lane vectors held at once, one per column group and as many in flight,
# total at most this many bits (1 MiB).
_LANE_MEMORY_BITS = 1 << 23
# Vectors that one level of the carry-save counter gathers before adding.
_CSA_CHUNK = 16


def _lane_bits(r: int, n: int) -> int:
    """Lane width L of the bit-sliced walk of a rank-r code of length n."""
    lanes = r
    while 2 * min(n, 1 << lanes) << lanes > _LANE_MEMORY_BITS:
        lanes -= 1
    return lanes


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


def _min_lane(planes: Sequence[int], lanes: int) -> int:
    """Least value that the bit planes hold in the lanes set in lanes."""
    least = 0
    for t in range(len(planes) - 1, -1, -1):
        zero = lanes & ~planes[t]
        if zero:
            lanes = zero
        else:
            least |= 1 << t
    return least


def _sliced_min_weight(basis: Sequence[int], n: int) -> int:
    """Minimum nonzero weight by the bit-sliced walk of all 2**r codewords.

    Lane x is the combination x of the low L basis rows, and bit x of each
    vector belongs to it.  The span of the other rows is walked in Gray
    order, one XOR per codeword h.  A group of s columns on which the low
    rows put the same pattern, with lane vector V, adds V to each lane
    s - a times and its complement a times, a being h's weight on the
    group: that is, min(a, s - a) to every lane and |s - 2a| times V or
    its complement.  These go into a carry-save counter, each set bit of a
    multiplicity at its own level, and the least lane is read off the bit
    planes; lane 0 at h = 0 is the zero codeword and is left out.
    """
    lanes = _lane_bits(len(basis), n)
    full = (1 << (1 << lanes)) - 1
    singles, multiples, flat = [], [], 0
    # a group's lane vector has bit x set iff the group's pattern has a 1
    # in the combination x of the low rows
    tags = [_index_bit_mask(lanes, i) for i in range(lanes)]
    for vec, cols in _split_columns(basis[:lanes], n, tags):
        if not vec:
            flat = cols  # the low rows are 0 here, so every lane has h's bits
        elif cols & (cols - 1):
            multiples.append((cols, cols.bit_count(), vec))
        else:
            singles.append((cols, vec))
    high = basis[lanes:]
    best = n
    h = 0
    for t in range(1 << len(high)):
        if t:
            h ^= high[(t & -t).bit_length() - 1]
        base = (flat & h).bit_count()
        if base >= best:
            continue
        counter: list[list[int]] = []
        # a group of one column adds its vector or the complement, once
        for i in range(0, len(singles), _CSA_CHUNK):
            chunk = singles[i : i + _CSA_CHUNK]
            _carry_save_add(counter, 0, [v ^ full if c & h else v for c, v in chunk])
        for cols, s, vec in multiples:
            a = (cols & h).bit_count()
            base += min(a, s - a)
            if 2 * a > s:
                vec ^= full
            d = abs(s - 2 * a)
            for level in range(d.bit_length()):
                if d >> level & 1:
                    _carry_save_add(counter, level, [vec])
        planes = _carry_save_planes(counter)
        best = min(best, base + _min_lane(planes, full if t else full ^ 1))
    return best


# Cost model of _sliced_min_weight, in the unit of _bz_min_weight: one
# codeword of the table walk, whose map work on n-bit ints costs
# 1 + n / _TABLE_COLUMNS times as much as on short ones.  The Python
# overhead of one vector added to the counter, or of one part of the lane
# split, is _PART_COST units, and one bit operation on _LANES_PER_UNIT
# lanes costs as much as a codeword of a short code.
_PART_COST = 4
_LANES_PER_UNIT = 1700
_TABLE_COLUMNS = 1330


def _sliced_cost(r: int, n: int) -> float:
    """Estimated cost of _sliced_min_weight; the table walk costs 2**r."""
    lanes = _lane_bits(r, n)
    inputs = min(n, 1 << lanes) << (r - lanes)  # one per group and Gray step
    # at most min(2**pos, n) parts at depth pos = 0 .. lanes of the split
    doubling = min(lanes + 1, n.bit_length())
    parts = (1 << doubling) - 1 + (lanes + 1 - doubling) * n
    lane_work = inputs * (1 << lanes) / (_LANES_PER_UNIT * (1 + n / _TABLE_COLUMNS))
    return _PART_COST * (inputs + parts) + lane_work


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
