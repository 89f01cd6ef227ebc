"""The index-class splits behind the dimension-4 self-orthogonality test.

Column index i in 1..15 is a nonzero vector of F_2^4 (bit j of i is its
j-th coordinate).  Split s = 1..15 cuts {1..15} along the hyperplane
orthogonal to rev4(s), the 4 bits of s reversed: the 8-class holds the i
with <i, rev4(s)> = 1 and the 7-class the nonzero vectors of the
hyperplane itself.  Parity constancy of the column multiplicities on both
classes, for some s, is exactly dimension-4 self-orthogonality.  The
companion pair families group the 14 indices other than s into the pairs
(x, x ^ s) and drive consistency checks on the class tables.  The
per-split count of columns to append, which the dimension-4 test and
embedding both read, is computed here too.

All of it is derived here rather than written out; :func:`validate_tables`
runs at import so a wrong derivation fails loudly instead of corrupting
embeddings.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .gf2 import _hit_masks

Pair = tuple[int, int]


@dataclass(frozen=True)
class Dim4Tables:
    """The 15 pair families and index-class partitions, 1-based in s."""

    pairs_small: tuple[tuple[Pair, ...], ...]
    pairs_large: tuple[tuple[Pair, ...], ...]
    class7: tuple[frozenset[int], ...]
    class8: tuple[frozenset[int], ...]

    def pair_family(self, s: int, t: int) -> tuple[Pair, ...]:
        return (self.pairs_small, self.pairs_large)[t - 1][s - 1]

    def index_class(self, s: int, t: int) -> frozenset[int]:
        return (self.class7, self.class8)[t - 1][s - 1]

    def to_json_dict(self) -> dict:
        return {
            "pairs": [
                {
                    "s": s,
                    "small": [list(p) for p in self.pairs_small[s - 1]],
                    "large": [list(p) for p in self.pairs_large[s - 1]],
                }
                for s in range(1, 16)
            ],
            "classes": [
                {
                    "s": s,
                    "seven": sorted(self.class7[s - 1]),
                    "eight": sorted(self.class8[s - 1]),
                }
                for s in range(1, 16)
            ],
        }


def validate_tables(tables: Dim4Tables) -> None:
    """Structural checks on the derived tables; raises on any corruption."""
    full = frozenset(range(1, 16))
    for s in range(1, 16):
        c7 = tables.index_class(s, 1)
        c8 = tables.index_class(s, 2)
        if len(c7) != 7 or len(c8) != 8:
            raise AssertionError(f"class sizes wrong at s={s}")
        if c7 | c8 != full or c7 & c8:
            raise AssertionError(f"classes do not partition 1..15 at s={s}")
        small = tables.pair_family(s, 1)
        large = tables.pair_family(s, 2)
        if len(small) != 3 or len(large) != 4:
            raise AssertionError(f"pair family sizes wrong at s={s}")
        if s <= 7:
            appearing = {x for p in small for x in p}
            if appearing != frozenset(range(1, 8)) - {s}:
                raise AssertionError(f"small pair family misses 1..7 minus s at s={s}")
    # Every unordered pair from {8..15} occurs in some large family with s <= 7.
    covered = {
        frozenset(p) for s in range(1, 8) for p in tables.pair_family(s, 2)
    }
    for i, j in itertools.combinations(range(8, 16), 2):
        if frozenset((i, j)) not in covered:
            raise AssertionError(f"pair ({i},{j}) missing from the large families")
    if verify_sigma_symmetry(tables) is None:
        raise AssertionError("class tables are not closed under the split maps")


def verify_sigma_symmetry(tables: Dim4Tables) -> dict[tuple[int, int], int] | None:
    """Check that relabeling by any split's sorted classes permutes the family.

    For each s, the permutation sending (sorted 7-class, sorted 8-class)
    onto (1..15) must map every class pair (s', t) onto some class pair
    (j, t) of the same family.  Returns the witness map (s, i) -> j on
    success, or None if the family is not closed (corrupted data).
    """
    witness: dict[tuple[int, int], int] = {}
    pair_lookup = {
        (tables.class7[j], tables.class8[j]): j + 1 for j in range(15)
    }
    for s in range(1, 16):
        order = sorted(tables.index_class(s, 1)) + sorted(tables.index_class(s, 2))
        if sorted(order) != list(range(1, 16)):
            return None
        sigma = {v: pos + 1 for pos, v in enumerate(order)}
        for i in range(1, 16):
            image7 = frozenset(sigma[x] for x in tables.class7[i - 1])
            image8 = frozenset(sigma[x] for x in tables.class8[i - 1])
            j = pair_lookup.get((image7, image8))
            if j is None:
                return None
            witness[(s, i)] = j
    return witness


def _rev4(s: int) -> int:
    return int(f"{s:04b}"[::-1], 2)


def _members(mask: int) -> frozenset[int]:
    return frozenset(i for i in range(1, 16) if mask >> i & 1)


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


def _dim4_projected_counts(odd_mask: int) -> list[int]:
    """Projected append counts n1[s] + n2[s] for every split, 0-indexed."""
    totals = []
    for s in range(15):
        in7 = (odd_mask & CLASS7_MASKS[s]).bit_count()
        n1 = in7 if in7 < 4 else 7 - in7
        in8 = (odd_mask & CLASS8_MASKS[s]).bit_count()
        n2 = in8 if in8 <= 4 else 8 - in8
        totals.append(n1 + n2)
    return totals


_FAMILIES = [_pair_families(s) for s in range(1, 16)]

DIM4_TABLES = Dim4Tables(
    pairs_small=tuple(small for small, _ in _FAMILIES),
    pairs_large=tuple(large for _, large in _FAMILIES),
    class7=tuple(map(_members, CLASS7_MASKS)),
    class8=tuple(map(_members, CLASS8_MASKS)),
)

validate_tables(DIM4_TABLES)
