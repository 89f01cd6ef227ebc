"""Independent brute-force ground truth for embeddings and optimal distances.

Nothing here trusts the closed-form machinery it is used to check: minimal
embeddings come from an exhaustive meet-in-the-middle breadth-first search
over Gram syndromes, the states reachable by appending columns, and optimal
distances from exhaustive search over column-multiplicity profiles (which
determine a code up to column permutation).  The self-orthogonal parity
patterns that search may use are the kernel of the map sending an index
set to the XOR of its columns' outer products, found by elimination, not
read from the dimension-4 split tables.  The column-multiset algebra they
run on (weights, Gram syndromes, parity kernel) lives in
:mod:`soembed.profiles`.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import lru_cache

from .embedding import embed
from .errors import CapExceededError, DomainError, NoSOCodeError
from .gf2 import BinaryMatrix, _hit_masks, gram, rank, random_matrix
from .profiles import (
    ColumnProfile,
    _add_column,
    _column_counts,
    _gram_mask,
    _hit_vectors,
    _is_so_odd_mask,
    _parity_kernel_basis,
    _profile_weights,
    _so_parity_masks,
    _sym_masks,
)
from .tables import CLASS7_MASKS, CLASS8_MASKS, _dim4_projected_counts

PROFILE_SPACE_CAP = 10**8
ORACLE_K_CAP = 6
ORACLE_ADD_CAP = 8


# ---------------------------------------------------------------------------
# minimal embedding search


def min_embedding_oracle(
    m: BinaryMatrix, max_add: int = ORACLE_ADD_CAP
) -> int | None:
    """Least number of appendable nonzero columns that zero the Gram matrix.

    Appending column c XORs its outer product _sym_mask(c) into the packed
    Gram syndrome, and appending a column twice changes nothing, so the
    answer is the distance from the syndrome to 0 in the graph whose edges
    are the 2**k - 1 outer products.  Exact-distance layers L0 = {0}, L1, ...
    are built breadth-first as far as needed; size s = a + b, a = ceil(s/2),
    b = floor(s/2), is reached when target ^ x lies in Lb for some x in La,
    which is exact because every smaller size has already failed.  The work
    is at most the ball of radius ceil(max_add/2) among the
    2**(k(k+1)/2) syndromes, times the 2**k - 1 generators.  Returns None
    when no set within max_add columns works.
    """
    if m.k > ORACLE_K_CAP:
        raise CapExceededError(f"oracle supports k <= {ORACLE_K_CAP}")
    if max_add > ORACLE_ADD_CAP:
        raise CapExceededError(f"oracle supports max_add <= {ORACLE_ADD_CAP}")
    if max_add < 0:
        raise DomainError("oracle needs max_add >= 0")
    target = _gram_mask(m)
    if target == 0:
        return 0
    gens = _sym_masks(m.k)[1:]
    layers = [{0}]
    for size in range(1, max_add + 1):
        a, b = (size + 1) // 2, size // 2
        while len(layers) <= a:
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
        if not layers[a].isdisjoint(map(target.__xor__, layers[b])):
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
    """
    hits = _hit_masks(k)
    vecs = _hit_vectors(k)
    half = 1 << (k - 1)
    ncols = len(hits) - 1
    coverage = [0] * (ncols + 2)
    for i in range(1, ncols + 1):
        coverage[i] = coverage[i - 1] | hits[i]
    failed: set[tuple[int, int, int]] = set()
    width = d.bit_length()

    def walk(i: int, rem: int, t: list[int]) -> list[int] | None:
        deficit = 0
        worst = 0
        needed_mask = 0
        for x in range(1, ncols + 1):
            gap = d - t[x]
            if gap > 0:
                deficit += gap
                needed_mask |= 1 << x
                if gap > worst:
                    worst = gap
        if deficit == 0:
            return [0] * i
        if needed_mask & ~coverage[i]:
            return None
        if worst > step * rem or deficit > step * rem * half:
            return None
        # The weights, capped at d, packed width bits apart into one int: an
        # exact key for any d, and a compact one for a memo that grows large.
        capped = 0
        for v in t[1:]:
            capped = capped << width | min(v, d)
        key = (i, rem, capped)
        if key in failed:
            return None
        for v in range(rem + 1):
            if v:
                t = _add_column(t, vecs[i], step)
            sub = walk(i - 1, rem - v, t)
            if sub is not None:
                sub.append(v)
                return sub
        failed.add(key)
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
    """
    if not 1 <= k <= 4:
        raise DomainError("profile enumeration supports k <= 4")
    if n < 1:
        raise DomainError("need n >= 1")
    ncols = (1 << k) - 1
    if math.comb(n + ncols, ncols) > PROFILE_SPACE_CAP:
        raise CapExceededError("profile space exceeds the enumeration cap")
    parities = _so_parity_masks(k) if so_only else None
    d_hi = min(n, (n << (k - 1)) // ncols)
    for d in range(d_hi, 0, -1):
        witness = _search_profile(n, k, d, parities)
        if witness is not None:
            return EnumerationResult(d, witness)
    kind = "self-orthogonal " if so_only else ""
    raise NoSOCodeError(f"no rank-{k} {kind}code of length {n} exists")


def _search_profile(
    n: int, k: int, d: int, parities: tuple[int, ...] | None
) -> ColumnProfile | None:
    """One feasibility level of the enumeration: any profile with min
    weight >= d, or None."""
    ncols = (1 << k) - 1
    if parities is None:
        ell = _feasible(d, n, 1, [0] * (ncols + 1), k)
    else:
        ell = None
        for bmask in parities:
            nbase = bmask.bit_count()
            if nbase > n:
                continue
            bits = [bmask >> i & 1 for i in range(ncols + 1)]
            base_t = _profile_weights(k, bits)
            units = _feasible(d, (n - nbase) // 2, 2, base_t, k)
            if units is not None:
                ell = [b + 2 * u for b, u in zip(bits[1:], units)]
                break
    if ell is None:
        return None
    return ColumnProfile(k, tuple(ell), n - sum(ell))


def targeted_profile(n: int, k: int, d: int, so_only: bool) -> ColumnProfile | None:
    """One feasibility query without the enumeration-space cap.

    Used for seed generation at lengths where the full enumeration would
    be refused; the result is still verified independently when loaded.
    """
    if not 1 <= k <= 4:
        raise DomainError("profile search supports k <= 4")
    return _search_profile(n, k, d, _so_parity_masks(k) if so_only else None)


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
    columns on the first split and record the worst minimized total."""
    bits7 = sorted(i for i in range(1, 16) if (CLASS7_MASKS[0] >> i) & 1)
    bits8 = sorted(i for i in range(1, 16) if (CLASS8_MASKS[0] >> i) & 1)

    def sweep(size7: int, size8: int) -> tuple[int, int]:
        worst = 0
        count = 0
        for sub7 in itertools.combinations(bits7, size7):
            m7 = sum(1 << i for i in sub7)
            for sub8 in itertools.combinations(bits8, size8):
                j1 = m7 | sum(1 << i for i in sub8)
                count += 1
                m = min(_dim4_projected_counts(j1))
                if m > worst:
                    worst = m
        return worst, count

    max1, count1 = sweep(3, 4)
    w33, c33 = sweep(3, 3)
    w24, c24 = sweep(2, 4)
    return Claims414(max1, max(w33, w24), count1, c33 + c24)


# ---------------------------------------------------------------------------
# randomized search for good self-orthogonal codes


@lru_cache(maxsize=None)
def _coset_leaders(k: int) -> tuple[int, ...]:
    """Per outer-product syndrome, a minimum set of parity flips fixing it.

    leaders[syndrome] is an index bitmask S with XOR of _sym_mask over S
    equal to the syndrome and |S| minimal (breadth-first over flip count).
    Only built for k <= 5, where the syndrome space is small.
    """
    nsyn = 1 << (k * (k + 1) // 2)
    masks = _sym_masks(k)[1:]
    leaders = [-1] * nsyn
    leaders[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for syn in frontier:
            lead = leaders[syn]
            for i, sm in enumerate(masks, start=1):
                if lead >> i & 1:
                    continue
                syn2 = syn ^ sm
                if leaders[syn2] == -1:
                    leaders[syn2] = lead | (1 << i)
                    nxt.append(syn2)
        frontier = nxt
    return tuple(leaders)


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
    (when n is long enough) from a simplex juxtaposition.  Every candidate
    is then improved by parity-preserving local moves (shifting duplicate
    pairs between indices, or flipping a parity pattern whose outer
    products cancel).  Deterministic for a given seed; returns 0 if no
    trial produces a rank-k self-orthogonal matrix.
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
    if k > 8:
        raise CapExceededError("random search supports k <= 8")
    rng = random.Random(rng_seed)
    ncols = (1 << k) - 1
    vecs = _hit_vectors(k)
    kernel = _parity_kernel_basis(k)
    sym_masks = _sym_masks(k)
    leaders = _coset_leaders(k) if k <= 5 else None
    best = 0
    best_profile: ColumnProfile | None = None

    def greedy_candidate() -> list[int] | None:
        """Grow columns maximizing the running minimum weight, then flip a
        minimal parity set (syndrome-decoded) to land on self-orthogonality."""
        ell = [0] * (ncols + 1)
        t = [0] * (ncols + 1)
        reserve = rng.randrange(0, 5)
        for _ in range(max(n - reserve, 0)):
            options = []
            for i in range(1, ncols + 1):
                h = vecs[i]
                worst = min(t[x] + h[x] for x in range(1, ncols + 1))
                options.append((worst, rng.random(), i))
            _, _, pick = max(options)
            ell[pick] += 1
            t = _add_column(t, vecs[pick], 1)
        syn = 0
        for i in range(1, ncols + 1):
            if ell[i] & 1:
                syn ^= sym_masks[i]
        flips = leaders[syn]
        for i in range(1, ncols + 1):
            if (flips >> i) & 1:
                if sum(ell[1:]) < n:
                    ell[i] += 1
                elif ell[i] >= 1:
                    ell[i] -= 1
                else:
                    return None
        if sum(ell[1:]) > n:
            return None
        ell[0] = n - sum(ell[1:])
        return ell

    def score_of(t: list[int]) -> tuple[int, int]:
        dmin = min(t[1:])
        return dmin, -t[1:].count(dmin)

    def parity_is_so(ell: list[int]) -> bool:
        odd = sum(1 << i for i in range(1, ncols + 1) if ell[i] & 1)
        return _is_so_odd_mask(k, odd)

    def climb(ell: list[int]) -> int:
        ell[0] = n - sum(ell[1:])
        t = _profile_weights(k, ell)
        cur = score_of(t)
        stalls = 0
        for _ in range(60 * ncols):
            if target_d is not None and cur[0] >= target_d:
                break
            worst = t[1:].index(cur[0]) + 1
            # move a duplicate pair onto a column covering the worst message
            donors = [i for i in range(ncols + 1) if ell[i] >= 2]
            receivers = [i for i in range(1, ncols + 1) if vecs[i][worst]]
            rng.shuffle(donors)
            rng.shuffle(receivers)
            moved = False
            for a in donors:
                for b in receivers:
                    if a == b:
                        continue
                    t2 = _add_column(_add_column(t, vecs[b], 2), vecs[a], -2)
                    if score_of(t2) > cur:
                        ell[a] -= 2
                        ell[b] += 2
                        t, cur = t2, score_of(t2)
                        moved = True
                        break
                if moved:
                    break
            if not moved and kernel:
                # flip the parity of a cancelling index set; the zero-column
                # count absorbs any imbalance so the length stays n
                mask = kernel[rng.randrange(len(kernel))]
                for kb in kernel:
                    if rng.random() < 0.3:
                        mask ^= kb
                idxs = [i for i in range(1, ncols + 1) if (mask >> i) & 1]
                trial = ell.copy()
                for i in idxs:
                    if trial[i] >= 1 and rng.random() < 0.5:
                        trial[i] -= 1
                    else:
                        trial[i] += 1
                trial[0] = n - sum(trial[1:])
                if trial[0] >= 0:
                    t2 = _profile_weights(k, trial)
                    if score_of(t2) >= cur:
                        ell[:] = trial
                        t, cur = t2, score_of(t2)
                        moved = True
            if not moved:
                stalls += 1
                if stalls > 8:
                    break
            else:
                stalls = 0
        return cur[0] if cur[0] > 0 else 0

    for _ in range(trials):
        ell: list[int] | None = None
        mode = rng.random()
        if mode < 0.1:
            cand = random_matrix(rng, k, n)
            if gram(cand).is_zero() and rank(cand) == k:
                ell = _column_counts(cand)
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
                ell = _column_counts(rep.output)
                for _ in range(fill // 2):
                    ell[rng.randrange(1, ncols + 1)] += 2
        if ell is None:
            continue
        found = climb(ell)
        if found > best and parity_is_so(ell):
            best = found
            best_profile = ColumnProfile(k, tuple(ell[1:]), ell[0])
            if target_d is not None and best >= target_d:
                break
    return best, best_profile
