"""Brute-force ground truth for embeddings and optimal distances, and a
randomized search for good self-orthogonal codes.

Two oracles do not use the closed-form machinery they check.  Minimal
embeddings come from an exhaustive meet-in-the-middle breadth-first search
over Gram syndromes, the states reachable by appending columns: size s
meets at radius floor(s/2), with one generator pass between the halves
when s is odd.  Optimal distances come from exhaustive search over
column-multiplicity profiles (which determine a code up to column
permutation).  The self-orthogonal parity patterns that search may use are
the kernel of the map sending an index set to the XOR of its columns'
outer products, found by elimination, not read from the dimension-4 split
tables.  Both refute work without walking it only by theorems they compute
themselves: sizes below rank(S) of the Gram matrix S fail, since fewer
rank-one outer products sum to a smaller rank; the Griesmer length rules
out whole levels, gap sums rule out nodes, and one parity pattern per
GL(k, 2) orbit stands for its orbit.  The column-multiset algebra both
run on (weights, Gram syndromes, parity kernel) lives in
:mod:`soembed.profiles`.

The rest reuses the package.  random_so_profile_search starts some of its
trials from :func:`soembed.embedding.embed` output, and
verify_claims_prop414 sweeps the dimension-4 class masks and projected
counts of :mod:`soembed.profiles`, the ones the embedding reads; it too
refutes by a fact it proves: a pattern's minimum over the splits is at
most its count on any one.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .embedding import embed
from .errors import CapExceededError, DomainError, NoSOCodeError
from .gf2 import (
    BinaryMatrix,
    _bits,
    _column_rows,
    _hit_masks,
    gram,
    rank,
    random_matrix,
)
from .profiles import (
    CLASS7_MASKS,
    CLASS8_MASKS,
    ColumnProfile,
    _add_column,
    _dim4_projected_counts,
    _gram_mask,
    _hit_vectors,
    _is_so_columns,
    _parity_kernel_basis,
    _profile_weights,
    _so_parity_masks,
    _split_count,
    _sym_masks,
    column_profile,
)

PROFILE_SPACE_CAP = 10**8
ORACLE_K_CAP = 6
ORACLE_ADD_CAP = 8
# _search_profile skips the parity masks of a GL(k, 2) orbit that failed up
# to this k; at k = 5 the flood fill over 2**16 masks would cost ~0.7 s.
ORBIT_K_CAP = 4


# ---------------------------------------------------------------------------
# minimal embedding search


def min_embedding_oracle(
    m: BinaryMatrix, max_add: int = ORACLE_ADD_CAP
) -> int | None:
    """Least number of appendable nonzero columns that zero the Gram matrix.

    Appending column c XORs its outer product _sym_masks(k)[c] into the packed
    Gram syndrome, and appending a column twice changes nothing, so the
    answer is the distance from the syndrome to 0 in the graph whose edges
    are the 2**k - 1 outer products.  Exact-distance layers L0 = {0}, L1, ...
    are built breadth-first up to radius b = floor(s/2) for the size s
    tried.  An even size is reached when target ^ x lies in Lb for some x in
    Lb; an odd one when target ^ x ^ g does, for some generator g, in one
    pass that stops at its first hit, so L(b+1) is never built.  The sizes
    start at rank(S) for the Gram matrix S: a sum of fewer rank-one
    matrices has smaller rank, so smaller sizes fail unsearched, and the
    first size that hits is exact.  The work is at most the ball of radius
    floor(max_add/2) among the 2**(k(k+1)/2) syndromes, times the 2**k - 1
    generators.  Returns None when no set within max_add columns works.
    """
    if m.k > ORACLE_K_CAP:
        raise CapExceededError(f"oracle supports k <= {ORACLE_K_CAP}")
    if max_add > ORACLE_ADD_CAP:
        raise CapExceededError(f"oracle supports max_add <= {ORACLE_ADD_CAP}")
    if max_add < 0:
        raise DomainError("oracle needs max_add >= 0")
    target = _gram_mask(m.rows)
    if target == 0:
        return 0
    gens = _sym_masks(m.k)[1:]
    layers = [{0}]
    for size in range(rank(gram(m)), max_add + 1):
        b = size // 2
        while len(layers) <= b:
            last = layers[-1]
            nxt = set()
            for g in gens:
                nxt.update(map(g.__xor__, last))
            # One generator moves the distance to 0 by at most one, so only
            # the last two layers can hold a neighbour that is not new.
            nxt -= last
            if len(layers) > 1:
                nxt -= layers[-2]
            layers.append(nxt)
        lb = layers[b]
        near = map(target.__xor__, lb)
        if size & 1:
            near = itertools.starmap(int.__xor__, itertools.product(near, gens))
        if not lb.isdisjoint(near):
            return size
    return None


# ---------------------------------------------------------------------------
# exhaustive optimal distances from profiles


def _feasible(
    d: int,
    budget: int,
    step: int,
    base_t: list[int],
    k: int,
) -> list[int] | None:
    """Search for per-index unit counts making every message weight >= d.

    Unit counts add `step` copies of their column of dimension k; base_t
    carries weights already forced (by parity choices).  Returns the unit
    vector indexed 1.. or None.

    The walk fixes the units v of column i = 2**k - 1 down to 1, each in
    ascending order, so the first witness is the least in that order.  The
    loop over v is bounded by the gaps d - t[x] > 0 of the node:

    - floor: a message column i hits but columns 1 .. i - 1 cannot reach
      needs v >= ceil(gap / step), or the child fails its coverage test;
    - ceiling from the messages column i misses: their gaps stay, so
      v <= rem - ceil(max gap / step), or the child fails its worst-gap test;
    - ceiling from dominance: v <= c = ceil(max gap over the hit messages /
      step).  Every v > c leaves the weights, capped at d, as v = c leaves
      them, with less budget.  Whether a node is feasible depends only on
      its capped weights and its budget, and less budget never helps, so
      the loop reaches such a child only after the v = c child failed, and
      it fails too.  A unit is `step` copies, so when step = 2 the parity
      of column i stays as the caller chose it.

    Before the loop, a node fails when a message with a gap is hit by no
    column 1 .. i (coverage), when one gap exceeds step * rem (worst gap),
    when the gaps sum past step * rem * 2**(k - 1) (deficit: a column hits
    half the messages), or, for 2 <= i < 2**(k - 1), on projected gaps.
    Columns 1 .. i lie below 2**J, J = i.bit_length(), so a message x
    gains what its class x mod 2**J gains, and a column hits 2**(J - 1)
    of the classes: the node fails when the classes' largest gaps sum past
    step * rem * 2**(J - 1).  (At i >= 2**(k - 1) that is the deficit
    test, at i = 1 the worst-gap test.)  That test runs first, before the
    scan of the messages: most failing nodes fail it, and a node with no
    gap has no projected gap, so it never refutes a witness.

    Each test is necessary for any completion, and each skipped child would
    have returned None; the loop stays ascending, so the witness is the one
    the unbounded loop finds.
    """
    hits = _hit_masks(k)
    vecs = _hit_vectors(k)
    half = 1 << (k - 1)
    ncols = len(hits) - 1
    coverage = [0] * (ncols + 2)
    for i in range(1, ncols + 1):
        coverage[i] = coverage[i - 1] | hits[i]

    def walk(i: int, rem: int, t: list[int]) -> list[int] | None:
        hit = vecs[i]
        below = coverage[i - 1]
        if 1 < i < half:
            size = 1 << i.bit_length()  # the projected gaps of the docstring
            projected = 0
            for p in range(1, size):
                gap = d - min(t[p::size])
                if gap > 0:
                    projected += gap
            if projected > step * rem * (size >> 1):
                return None
        deficit = floor_gap = hit_worst = miss_worst = 0
        for x in range(1, ncols + 1):
            gap = d - t[x]
            if gap <= 0:
                continue
            deficit += gap
            if hit[x]:
                if gap > hit_worst:
                    hit_worst = gap
                if gap > floor_gap and not below >> x & 1:
                    floor_gap = gap
            elif below >> x & 1:
                if gap > miss_worst:
                    miss_worst = gap
            else:
                return None  # no column left reaches message x
        if deficit == 0:
            return [0] * i
        if max(hit_worst, miss_worst) > step * rem or deficit > step * rem * half:
            return None
        lo = -(-floor_gap // step)
        hi = min(rem + (-miss_worst // step), -(-hit_worst // step))
        if lo:
            t = _add_column(t, hit, lo * step)
        for v in range(lo, hi + 1):
            if v > lo:
                t = _add_column(t, hit, step)
            sub = walk(i - 1, rem - v, t)
            if sub is not None:
                sub.append(v)
                return sub
        return None

    return walk(ncols, budget, base_t)


@dataclass(frozen=True)
class EnumerationResult:
    distance: int
    witness: ColumnProfile


def enumerate_codes_by_profile(
    n: int, k: int, so_only: bool = False
) -> EnumerationResult:
    """Best minimum distance over all rank-k length-n profiles.

    Searches multiplicity vectors summing to n (zero columns absorb slack),
    restricted to self-orthogonal parities when so_only.  Raises
    NoSOCodeError when nothing of rank k qualifies.

    The levels d run down from the average-weight bound.  When so_only
    they are even only: a self-orthogonal code's weights are all even, so
    level 2j - 1 is feasible exactly when level 2j is.  A level with
    Griesmer length g(k, d) > n fails without a search: every profile a
    level accepts is an [n, k, >= d] code, and none is that short.  The
    bound is a theorem computed here (_griesmer_length), not the closed
    form under test, which this module never imports.
    """
    if not 1 <= k <= 4:
        raise DomainError("profile enumeration supports 1 <= k <= 4")
    if n < 1:
        raise DomainError("need n >= 1")
    ncols = (1 << k) - 1
    space = math.comb(n + ncols, ncols)
    if space > PROFILE_SPACE_CAP:
        raise CapExceededError(
            f"C(n + 2^k - 1, 2^k - 1) = C({n + ncols}, {ncols}) = {space} "
            f"profiles > PROFILE_SPACE_CAP = {PROFILE_SPACE_CAP}"
        )
    parities = _so_parity_masks(k) if so_only else None
    d_hi = min(n, (n << (k - 1)) // ncols)
    levels = range(d_hi & ~1, 0, -2) if so_only else range(d_hi, 0, -1)
    for d in levels:
        if _griesmer_length(k, d) > n:
            continue  # no [n, k, d] code exists: the level fails unsearched
        witness = _search_profile(n, k, d, parities)
        if witness is not None:
            return EnumerationResult(d, witness)
    kind = "self-orthogonal " if so_only else ""
    raise NoSOCodeError(f"no rank-{k} {kind}code of length {n} exists")


def _search_profile(
    n: int, k: int, d: int, parities: tuple[int, ...] | None
) -> ColumnProfile | None:
    """One feasibility level of the enumeration: any profile with min
    weight >= d, or None.

    The parity masks run in the given order; at k <= ORBIT_K_CAP a mask
    whose GL(k, 2) orbit already failed at this d is skipped, as it would
    fail too (_parity_orbit_leaders), so the witness is the first mask's.
    """
    ncols = (1 << k) - 1
    if parities is None:
        ell = _feasible(d, n, 1, [0] * (ncols + 1), k)
    else:
        ell = None
        leaders = _parity_orbit_leaders(k) if k <= ORBIT_K_CAP else {}
        failed = set()
        for bmask in parities:
            nbase = bmask.bit_count()
            leader = leaders.get(bmask, bmask)
            if nbase > n or leader in failed:
                continue
            bits = [bmask >> i & 1 for i in range(ncols + 1)]
            base_t = _profile_weights(k, bits)
            units = _feasible(d, (n - nbase) // 2, 2, base_t, k)
            if units is not None:
                ell = [b + 2 * u for b, u in zip(bits[1:], units)]
                break
            failed.add(leader)
    if ell is None:
        return None
    return _profile_of(k, [n - sum(ell), *ell])


def _griesmer_length(k: int, d: int) -> int:
    """g(k, d) = sum of ceil(d / 2**i) over i < k: every binary [n, k, d]
    code has n >= g(k, d) (Griesmer 1960)."""
    return sum(-(-d >> i) for i in range(k))


@lru_cache(maxsize=None)
def _parity_orbit_leaders(k: int) -> dict[int, int]:
    """Map each self-orthogonal parity mask to the least mask of its orbit
    under GL(k, 2).

    An invertible A sends the code with ell[i] columns of index i to the
    one with ell[i] columns of index A i.  Its generator matrix A G spans
    the same code, with the same weights and zero count, and is
    self-orthogonal exactly when G is.  So A permutes the parity masks,
    keeps their bit counts, and a mask is feasible at d exactly when its
    image is.  The orbits are flood-filled over two generators of GL(k, 2),
    the transvection adding coordinate 0 to coordinate 1 and the cycle of
    the coordinates: 1, 1, 2 and 4 orbits at k = 1 .. 4.
    """
    top = (1 << k) - 1
    gens = [
        [c ^ (c & 1) << 1 for c in range(top + 1)],
        [(c << 1 | c >> (k - 1)) & top for c in range(top + 1)],
    ] if k > 1 else []
    leader: dict[int, int] = {}
    for m in _so_parity_masks(k):  # ascending, so m is the least of a new orbit
        if m in leader:
            continue
        leader[m] = m
        todo = [m]
        while todo:
            a = todo.pop()
            for g in gens:
                b = sum(1 << g[c] for c in _bits(a))
                if b not in leader:
                    leader[b] = m
                    todo.append(b)
    return leader


def _profile_of(k: int, counts: Sequence[int]) -> ColumnProfile:
    """The profile with counts[i] columns of index i (i = 0: zero columns)."""
    return ColumnProfile(k, {i: c for i, c in enumerate(counts) if i and c}, counts[0])


def _dense_counts(m: BinaryMatrix) -> list[int]:
    """counts[i] = number of columns of m with index i, i = 0 .. 2**k - 1:
    the form the random search moves columns in, at k <= 8."""
    p = column_profile(m)
    return [p.zero_count, *p.ell]


# ---------------------------------------------------------------------------
# the dimension-4 worst-case pattern sweep


@dataclass(frozen=True)
class Claims414:
    """Exhaustive append-count maxima over the two tight pattern families."""

    max1: int
    max2: int
    count1: int
    count2: int


def verify_claims_prop414() -> Claims414:
    """Sweep every odd-parity pattern that projects to 7 = 3 + 4 or 6
    columns on the first split and record the worst minimized total.

    The max is exact though few patterns are scored on all 15 splits: one
    with a count <= the running worst on any split cannot raise it.  With
    the 7-class part m7 fixed, a split's count depends only on how many
    indices a of the 8-class part lie in its 7-class (_split_count), so the
    parts of each (s, a), one mask groups[s][a], are refuted at once.  A
    survivor is scored by _dim4_projected_counts and the rest refuted again.
    """
    bits7, bits8 = _bits(CLASS7_MASKS[0]), _bits(CLASS8_MASKS[0])

    def sweep(size7: int, size8: int, worst: int) -> tuple[int, int]:
        subs8 = [sum(1 << i for i in sub) for sub in itertools.combinations(bits8, size8)]
        groups = [[0] * (size8 + 1) for _ in CLASS7_MASKS]
        for pos, m8 in enumerate(subs8):
            for by_a, c7 in zip(groups, CLASS7_MASKS):
                by_a[(m8 & c7).bit_count()] |= 1 << pos
        # cost[in7][a]: a split's count when m7 has in7 indices in its 7-class
        cost = [
            [_split_count(in7 + a, size7 - in7 + size8 - a) for a in range(size8 + 1)]
            for in7 in range(size7 + 1)
        ]
        count = 0
        for sub7 in itertools.combinations(bits7, size7):
            m7 = sum(1 << i for i in sub7)
            count += len(subs8)
            alive = (1 << len(subs8)) - 1
            while alive:
                for by_a, c7 in zip(groups, CLASS7_MASKS):
                    for group, n in zip(by_a, cost[(m7 & c7).bit_count()]):
                        if n <= worst:
                            alive &= ~group
                if alive:
                    pos = (alive & -alive).bit_length() - 1
                    alive ^= 1 << pos
                    worst = max(worst, min(_dim4_projected_counts(m7 | subs8[pos])))
        return worst, count

    max1, count1 = sweep(3, 4, 0)
    w33, c33 = sweep(3, 3, 0)
    max2, c24 = sweep(2, 4, w33)  # the max over both families
    return Claims414(max1, max2, count1, c33 + c24)


# ---------------------------------------------------------------------------
# randomized search for good self-orthogonal codes


@lru_cache(maxsize=None)
def _coset_leaders(k: int) -> tuple[int, ...]:
    """Per outer-product syndrome, a minimum set of parity flips fixing it.

    leaders[syndrome] is an index bitmask S with XOR of _sym_masks(k) over S
    equal to the syndrome and |S| minimal (breadth-first over flip count).
    Only built for k <= 5, where the syndrome space is small.
    """
    nsyn = 1 << (k * (k + 1) // 2)
    gens = [(1 << i, sm) for i, sm in enumerate(_sym_masks(k)) if i]
    leaders = [-1] * nsyn
    leaders[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for syn in frontier:
            lead = leaders[syn]
            # a flip already in lead leads back to an assigned, smaller layer
            for bit, sm in gens:
                syn2 = syn ^ sm
                if leaders[syn2] == -1:
                    leaders[syn2] = lead | bit
                    nxt.append(syn2)
        frontier = nxt
    return tuple(leaders)


def _planes_add(planes: list[int], hit: int, j: int) -> None:
    """Add 2**j copies of the column with hit mask hit to message weights
    held as bit planes: bit x of planes[p] is bit p of message x's weight.
    A carry ripple from plane j; the planes grow as the weights do."""
    while hit:
        if j >= len(planes):
            planes.extend([0] * (j - len(planes)))
            planes.append(hit)
            return
        p = planes[j]
        planes[j] = p ^ hit
        hit &= p
        j += 1


def _planes_sub(planes: list[int], hit: int, j: int) -> None:
    """Remove 2**j copies of the column with hit mask hit, which every
    message it hits must weigh at least: a borrow ripple from plane j, after
    which empty top planes are dropped."""
    while hit:
        p = planes[j]
        planes[j] = p ^ hit
        hit &= ~p
        j += 1
    while planes and not planes[-1]:
        planes.pop()


def _profile_planes(k: int, counts: Sequence[int]) -> list[int]:
    """The bit planes of _profile_weights(k, counts): counts[i] copies of
    column i enter as one ripple per set bit of counts[i]."""
    planes: list[int] = []
    for hit, c in zip(_hit_masks(k), counts):
        for j in _bits(c):
            _planes_add(planes, hit, j)
    return planes


def _planes_min(planes: list[int], full: int) -> tuple[int, int]:
    """The least weight m of the messages in mask full, and their mask:
    from the top plane down, bit j of m is 0 when a candidate has it 0."""
    low, m = full, 0
    for j in range(len(planes) - 1, -1, -1):
        zero = low & ~planes[j]
        if zero:
            low = zero
        else:
            m |= 1 << j
    return m, low


def _planes_levels(planes: list[int], full: int) -> tuple[int, list[int]]:
    """The least weight m of the messages in full, and lev[j], j < 3, the
    mask of those of weight m + j: each plane keeps the messages whose bit
    agrees with that of m + j."""
    m, low = _planes_min(planes, full)
    lev = [low]
    for w in (m + 1, m + 2):
        eq = 0 if w >> len(planes) else full
        for p in planes:
            eq &= p if w & 1 else ~p
            w >>= 1
        lev.append(eq)
    return m, lev


def _improving_move(
    lev: list[int], hits: tuple[int, ...], donors: list[int], receivers: list[int]
) -> tuple[int, int] | None:
    """The first (a, b), a over donors then b over receivers, whose move of
    two columns from a to b raises the score (m, -count at m) of weights of
    least weight m and _planes_levels lev, or None.  Weights rise by 2 on
    hits[b] & ~hits[a] and fall by 2 on hits[a] & ~hits[b]: the score rises
    exactly when nothing of weight m or m + 1 falls and more messages leave
    weight m than fall onto it from m + 2."""
    low, mid, top = lev
    for a in donors:
        hit_a = hits[a]
        need, rise, fall = hit_a & (low | mid), low & ~hit_a, top & hit_a
        for b in receivers:
            hit_b = hits[b]
            if hit_b & need == need and (
                (rise & hit_b).bit_count() > (fall & ~hit_b).bit_count()
            ):
                return a, b
    return None


def random_so_search(
    n: int,
    k: int,
    trials: int,
    target_d: int | None = None,
    rng_seed: int = 0,
) -> int:
    """Best minimum distance found over random self-orthogonal [n, k] codes.

    Each trial keeps the length at exactly n: a plain random matrix is kept
    only if already self-orthogonal; otherwise candidates come from greedy
    balanced column growth with a minimal parity repair, from embedding a
    shorter random matrix and padding back with duplicated column pairs, or
    (when n is long enough) from a simplex juxtaposition.  Local moves
    that keep the parities then improve it: duplicate pairs shift between
    indices, scored by masks of the messages at the three lowest weights,
    and parity patterns whose outer products cancel flip.  The weights are
    held as bit planes (_planes_add), so a move is a carry or borrow ripple
    and the masks come from a few operations per plane, not from a loop
    over the 2**k messages.  Deterministic for a given seed; 0 if no trial
    produces a rank-k self-orthogonal matrix.
    """
    found, _ = random_so_profile_search(n, k, trials, target_d, rng_seed)
    return found


def random_so_profile_search(
    n: int,
    k: int,
    trials: int,
    target_d: int | None = None,
    rng_seed: int = 0,
) -> tuple[int, ColumnProfile | None]:
    """random_so_search plus the witness profile of the best sample."""
    if k < 1 or n < 0:
        raise DomainError("random search needs k >= 1 and n >= 0")
    if trials < 1:
        raise DomainError("random search needs trials >= 1")
    if target_d is not None and target_d < 1:
        raise DomainError("random search needs target >= 1")
    if k > 8:
        raise CapExceededError("random search supports k <= 8")
    rng = random.Random(rng_seed)
    ncols = (1 << k) - 1
    full = (1 << (ncols + 1)) - 2  # the messages x = 1 .. ncols
    hits = _hit_masks(k)
    kernel = _parity_kernel_basis(k)
    leaders = _coset_leaders(k) if k <= 5 else None
    best = 0
    best_profile: ColumnProfile | None = None

    def greedy_candidate() -> list[int] | None:
        """Grow columns maximizing the running minimum weight m (m + 1 after
        column i exactly when i hits the mask low of the messages of weight
        m), then flip a minimal parity set (syndrome-decoded) to land on
        self-orthogonality.

        <x, i> is symmetric, so hits[x] read as a column mask holds the
        columns hitting x, and the AND over low holds those hitting all of
        low.  The pick is the one of them with the largest draw, or of all
        columns when none hits all; a tie goes to the larger index."""
        ell = [0] * (ncols + 1)
        planes: list[int] = []
        reserve = rng.randrange(0, 5)
        for _ in range(max(n - reserve, 0)):
            _, low = _planes_min(planes, full)
            draws = [rng.random() for _ in range(ncols)]
            cover = full
            while low and cover:
                x = low & -low
                cover &= hits[x.bit_length() - 1]
                low ^= x
            # column i's draw is draws[i - 1]
            cols = _bits(cover >> 1) if cover else range(ncols)
            pick = 1 + max(reversed(cols), key=draws.__getitem__)
            ell[pick] += 1
            _planes_add(planes, hits[pick], 0)
        odd = [i for i in range(1, ncols + 1) if ell[i] & 1]
        for i in _bits(leaders[_gram_mask(_column_rows(k, odd))]):
            if sum(ell[1:]) < n:
                ell[i] += 1
            elif ell[i] >= 1:
                ell[i] -= 1
            else:
                return None
        return ell

    def score(planes: list[int]) -> tuple[tuple[int, int], list[int]]:
        """(m, -count at m) of the least weight m, and _planes_levels lev."""
        m, lev = _planes_levels(planes, full)
        return (m, -lev[0].bit_count()), lev

    def climb(ell: list[int]) -> int:
        ell[0] = n - sum(ell[1:])
        planes = _profile_planes(k, ell)
        cur, lev = score(planes)
        stalls = 0
        for _ in range(60 * ncols):
            if target_d is not None and cur[0] >= target_d:
                break
            worst = lev[0] & -lev[0]
            # move a duplicate pair onto a column covering the worst message
            donors = [i for i in range(ncols + 1) if ell[i] >= 2]
            receivers = _bits(hits[worst.bit_length() - 1])
            rng.shuffle(donors)
            rng.shuffle(receivers)
            move = _improving_move(lev, hits, donors, receivers)
            moved = move is not None
            if moved:
                a, b = move
                ell[a] -= 2
                ell[b] += 2
                _planes_add(planes, hits[b], 1)
                _planes_sub(planes, hits[a], 1)
                cur, lev = score(planes)
            elif kernel:
                # flip the parity of a cancelling index set; the zero-column
                # count absorbs any imbalance so the length stays n
                mask = kernel[rng.randrange(len(kernel))]
                for kb in kernel:
                    if rng.random() < 0.3:
                        mask ^= kb
                trial = ell.copy()
                for i in _bits(mask):
                    if trial[i] >= 1 and rng.random() < 0.5:
                        trial[i] -= 1
                    else:
                        trial[i] += 1
                trial[0] = n - sum(trial[1:])
                if trial[0] >= 0:
                    planes2 = planes.copy()
                    for i in _bits(mask):
                        if trial[i] > ell[i]:
                            _planes_add(planes2, hits[i], 0)
                        else:
                            _planes_sub(planes2, hits[i], 0)
                    cur2, lev2 = score(planes2)
                    if cur2 >= cur:
                        ell[:] = trial
                        planes, cur, lev = planes2, cur2, lev2
                        moved = True
            stalls = 0 if moved else stalls + 1
            if stalls > 8:
                break
        return cur[0] if cur[0] > 0 else 0

    for _ in range(trials):
        ell: list[int] | None = None
        mode = rng.random()
        if mode < 0.1:
            cand = random_matrix(rng, k, n)
            if gram(cand).is_zero() and rank(cand) == k:
                ell = _dense_counts(cand)
        elif mode < 0.3 and n >= ncols and k >= 3:
            # simplex juxtaposition start, remainder as random pairs
            ell = [0] + [1] * ncols
            spare = n - ncols
            while spare >= 2:
                ell[rng.randrange(1, ncols + 1)] += 2
                spare -= 2
            ell[0] = spare
        elif mode < 0.65 and leaders is not None:
            ell = greedy_candidate()
        else:
            drop = rng.randrange(0, min(n - k, 9) + 1) if n > k else 0
            base = random_matrix(rng, k, n - drop)
            rep = embed(base, allow_rank_deficient=True)
            fill = n - rep.output.n
            if fill >= 0 and fill % 2 == 0 and rank(rep.output) == k:
                ell = _dense_counts(rep.output)
                for _ in range(fill // 2):
                    ell[rng.randrange(1, ncols + 1)] += 2
        if ell is None:
            continue
        found = climb(ell)
        if found > best and _is_so_columns(profile := _profile_of(k, ell)):
            best, best_profile = found, profile
            if target_d is not None and best >= target_d:
                break
    return best, best_profile
