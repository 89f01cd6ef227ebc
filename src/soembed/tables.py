"""The parity rule for matrices of k <= 4 rows, and the dimension-4 splits.

Such a matrix is self-orthogonal exactly when its column multiplicities
have constant parity on every index class, and its shortest embedding
flips the minority of each class: :func:`_parity_flips`, which the
closed-form test and the embedding both read.  For k <= 2 each index is
its own class; for k = 3 the indices 1..7 are one.  For k = 4, index i in
1..15 is a nonzero vector of F_2^4 (bit j of i is its j-th coordinate),
and the classes are those of some split s = 1..15, which cuts {1..15}
along the hyperplane orthogonal to rev4(s), the 4 bits of s reversed: the
8-class holds the i with <i, rev4(s)> = 1 and the 7-class the nonzero
vectors of the hyperplane itself.  The companion pair families group the
14 indices other than s into the pairs (x, x ^ s) and drive consistency
checks on the class masks.

All of it is derived here rather than written out; :func:`validate_tables`
runs at import so a wrong derivation fails loudly instead of corrupting
embeddings.
"""

from __future__ import annotations

import itertools

from .gf2 import _bits, _hit_masks

Pair = tuple[int, int]


def _rev4(s: int) -> int:
    return int(f"{s:04b}"[::-1], 2)


def _pair_families(s: int) -> tuple[tuple[Pair, ...], tuple[Pair, ...]]:
    """The pairs (x, x ^ s), x the member without s's top bit t, by
    ascending x; a pair is small when x also lacks the highest other bit."""
    t = s.bit_length() - 1
    u = 2 if t == 3 else 3
    pairs = [(x, x ^ s) for x in range(1, 16) if not x >> t & 1]
    return (
        tuple(p for p in pairs if not p[0] >> u & 1),
        tuple(p for p in pairs if p[0] >> u & 1),
    )


# Bit i set for index i; the 8-class of split s is CLASS8_MASKS[s - 1].
CLASS8_MASKS: tuple[int, ...] = tuple(_hit_masks(4)[_rev4(s)] for s in range(1, 16))
CLASS7_MASKS: tuple[int, ...] = tuple(0xFFFE ^ m for m in CLASS8_MASKS)


def _class_flips(odd_mask: int, cls: int, odd_on_tie: bool = True) -> int:
    """The indices of class cls whose parity to flip so that it is constant
    there: the minority parity, or on a tie the odd half if odd_on_tie."""
    odd = odd_mask & cls
    twice = 2 * odd.bit_count()
    size = cls.bit_count()
    return odd if twice < size or twice == size and odd_on_tie else cls ^ odd


def _dim4_projected_counts(odd_mask: int) -> list[int]:
    """Projected append counts n1[s] + n2[s] for every split, 0-indexed.

    Popcounts inline rather than through _class_flips: the claims414 sweep
    calls this for thousands of patterns, and the helper call costs ~3x."""
    totals = []
    for s in range(15):
        in7 = (odd_mask & CLASS7_MASKS[s]).bit_count()
        n1 = in7 if in7 < 4 else 7 - in7
        in8 = (odd_mask & CLASS8_MASKS[s]).bit_count()
        n2 = in8 if in8 <= 4 else 8 - in8
        totals.append(n1 + n2)
    return totals


def _parity_flips(
    odd: int, k: int, s0: int | None = None, odd_on_tie: bool = True
) -> tuple[int, ...]:
    """The indices whose multiplicity parity to flip, one mask per index
    class in append order, to make a matrix of k <= 4 rows with
    odd-multiplicity indices odd self-orthogonal in the fewest flips.  At
    k = 4 the classes are those of split s0, by default the first that
    minimizes; odd_on_tie flips the odd half of a tied 8-class, else the
    even half."""
    if k <= 2:
        return (odd,)
    if k == 3:
        return (_class_flips(odd, 0b11111110),)
    if s0 is None:
        totals = _dim4_projected_counts(odd)
        s0 = totals.index(min(totals)) + 1
    return (
        _class_flips(odd, CLASS7_MASKS[s0 - 1]),
        _class_flips(odd, CLASS8_MASKS[s0 - 1], odd_on_tie),
    )


def dim4_tables_json() -> dict:
    """The 15 pair families and index classes, 1-based in s, for `tables --dump`."""
    families = [_pair_families(s) for s in range(1, 16)]
    return {
        "pairs": [
            {
                "s": s,
                "small": [list(p) for p in small],
                "large": [list(p) for p in large],
            }
            for s, (small, large) in enumerate(families, start=1)
        ],
        "classes": [
            {"s": s, "seven": _bits(m7), "eight": _bits(m8)}
            for s, (m7, m8) in enumerate(zip(CLASS7_MASKS, CLASS8_MASKS), start=1)
        ],
    }


def validate_tables(
    class7: tuple[int, ...] = CLASS7_MASKS, class8: tuple[int, ...] = CLASS8_MASKS
) -> None:
    """Structural checks on the class masks and the pair families; raises
    on any corruption."""
    covered = set()
    for s in range(1, 16):
        c7 = class7[s - 1]
        c8 = class8[s - 1]
        if c7.bit_count() != 7 or c8.bit_count() != 8:
            raise AssertionError(f"class sizes wrong at s={s}")
        if c7 | c8 != 0xFFFE or c7 & c8:
            raise AssertionError(f"classes do not partition 1..15 at s={s}")
        small, large = _pair_families(s)
        if len(small) != 3 or len(large) != 4:
            raise AssertionError(f"pair family sizes wrong at s={s}")
        if s <= 7:
            appearing = {x for p in small for x in p}
            if appearing != set(range(1, 8)) - {s}:
                raise AssertionError(f"small pair family misses 1..7 minus s at s={s}")
            covered.update(frozenset(p) for p in large)
    # Every unordered pair from {8..15} occurs in some large family with s <= 7.
    for i, j in itertools.combinations(range(8, 16), 2):
        if frozenset((i, j)) not in covered:
            raise AssertionError(f"pair ({i},{j}) missing from the large families")
    if verify_sigma_symmetry(class7, class8) is None:
        raise AssertionError("class masks are not closed under the split maps")


def verify_sigma_symmetry(
    class7: tuple[int, ...] = CLASS7_MASKS, class8: tuple[int, ...] = CLASS8_MASKS
) -> dict[tuple[int, int], int] | None:
    """Check that relabeling by any split's sorted classes permutes the family.

    For each s, the permutation sending (sorted 7-class, sorted 8-class)
    onto (1..15) must map every class pair (s', t) onto some class pair
    (j, t) of the same family.  Returns the witness map (s, i) -> j on
    success, or None if the family is not closed (corrupted data).
    """
    witness: dict[tuple[int, int], int] = {}
    pair_lookup = {pair: j for j, pair in enumerate(zip(class7, class8), start=1)}
    for s in range(1, 16):
        order = _bits(class7[s - 1]) + _bits(class8[s - 1])
        if sorted(order) != list(range(1, 16)):
            return None
        sigma = {v: pos + 1 for pos, v in enumerate(order)}

        def image(mask: int) -> int:
            return sum(1 << sigma[x] for x in _bits(mask))

        for i in range(1, 16):
            j = pair_lookup.get((image(class7[i - 1]), image(class8[i - 1])))
            if j is None:
                return None
            witness[(s, i)] = j
    return witness


validate_tables()
