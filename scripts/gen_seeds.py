#!/usr/bin/env python3
"""Regenerate the bundled seed codes under src/soembed/data/seeds/.

Every seed is found by search or assembled from verified building blocks,
then written together with a JSON sidecar.  The registry's load checks
(rank, distance, self-orthogonality) run on each seed before it is written
and again on every load, so nothing here is trusted blindly.
Deterministic: fixed search seeds throughout.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from soembed.constructions import SeedEntry, _validate_seed  # noqa: E402
from soembed.distances import d_opt, dso_opt  # noqa: E402
from soembed.embedding import embed  # noqa: E402
from soembed.gf2 import (  # noqa: E402
    BinaryMatrix,
    horizontal_join,
    parse_matrix,
    simplex_matrix,
)
from soembed.oracle import random_so_profile_search, targeted_profile  # noqa: E402
from soembed.profiles import matrix_from_profile  # noqa: E402

OUT_ROOT = Path(__file__).resolve().parents[1] / "src" / "soembed" / "data" / "seeds"


def write_seed(m: BinaryMatrix, t: int, k: int, so: bool, d: int, prov: str) -> None:
    sub = OUT_ROOT / f"k{k}" / ("so" if so else "lin")
    _validate_seed(SeedEntry(t, k, so, m, d, prov), sub / f"t{t}.json")
    sub.mkdir(parents=True, exist_ok=True)
    (sub / f"t{t}.txt").write_text(m.to_text() + "\n")
    meta = {"t": t, "k": k, "so": so, "declared_d": d, "provenance": prov}
    (sub / f"t{t}.json").write_text(json.dumps(meta, indent=2) + "\n")
    print(f"  k={k} {'so ' if so else 'lin'} t={t:2d} d={d}")


def searched(t: int, k: int, d: int, so: bool) -> BinaryMatrix:
    prof = targeted_profile(t, k, d, so)
    assert prof is not None, (t, k, d, so)
    return matrix_from_profile(prof)


def pad_zeros(m: BinaryMatrix, count: int) -> BinaryMatrix:
    return horizontal_join(m, [0] * count)


def pad_pairs(m: BinaryMatrix, cols: list[int]) -> BinaryMatrix:
    return horizontal_join(m, [i for i in cols for _ in range(2)])


def gen_k3() -> None:
    for t in range(3, 10):
        d = d_opt(t, 3).value
        write_seed(searched(t, 3, d, False), t, 3, False, d, "exhaustive profile search")
    for t in range(6, 13):
        d = dso_opt(t, 3).value
        write_seed(searched(t, 3, d, True), t, 3, True, d, "exhaustive profile search")


def gen_k4_lin() -> None:
    for t in range(4, 15):
        d = d_opt(t, 4).value
        write_seed(searched(t, 4, d, False), t, 4, False, d, "exhaustive profile search")
    h4 = simplex_matrix(4)
    for t in range(15, 19):
        d = d_opt(t, 4).value
        write_seed(pad_zeros(h4, t - 15), t, 4, False, d, "simplex padding")


def gen_k4_so() -> None:
    for t in range(8, 15):
        d = dso_opt(t, 4).value
        write_seed(searched(t, 4, d, True), t, 4, True, d, "exhaustive profile search")
    h4 = simplex_matrix(4)
    fixed = {
        15: h4,
        16: pad_zeros(h4, 1),
        17: pad_pairs(h4, [1]),
        18: pad_zeros(pad_pairs(h4, [1]), 1),
        19: pad_pairs(h4, [1, 2]),
        20: pad_zeros(pad_pairs(h4, [1, 2]), 1),
    }
    for t, m in fixed.items():
        write_seed(m, t, 4, True, dso_opt(t, 4).value, "simplex padding")
    m21 = searched(21, 4, dso_opt(21, 4).value, True)
    write_seed(m21, 21, 4, True, dso_opt(21, 4).value, "targeted profile search")
    write_seed(pad_zeros(m21, 1), 22, 4, True, dso_opt(22, 4).value, "targeted profile search + zero pad")
    # doubled simplex with one duplicate pair removed
    cols = [i for i in range(1, 15) for _ in range(2)]
    m28 = horizontal_join(BinaryMatrix(4, 0, (0, 0, 0, 0)), cols)
    write_seed(m28, 28, 4, True, dso_opt(28, 4).value, "doubled simplex minus one pair")


def gen_k5_so() -> None:
    base_9_5 = parse_matrix(
        "000011111\n000100111\n001001011\n010001101\n100001110"
    )
    m11 = embed(base_9_5).output
    write_seed(m11, 11, 5, True, dso_opt(11, 5).value, "embedding of a fixed [9,5] base")
    write_seed(pad_zeros(m11, 1), 12, 5, True, dso_opt(12, 5).value, "embedding + zero pad")

    d15 = dso_opt(15, 5).value
    found, prof = random_so_profile_search(15, 5, 4000, target_d=d15, rng_seed=7)
    assert found >= d15 and prof is not None
    write_seed(matrix_from_profile(prof), 15, 5, True, d15, "randomized search (seed 7)")

    m16 = horizontal_join(BinaryMatrix(5, 0, (0,) * 5), range(16, 32))
    write_seed(m16, 16, 5, True, dso_opt(16, 5).value, "top-bit column family")
    write_seed(pad_zeros(m16, 1), 17, 5, True, dso_opt(17, 5).value, "top-bit family + zero pad")
    m18 = pad_pairs(m16, [16])
    write_seed(m18, 18, 5, True, dso_opt(18, 5).value, "top-bit family + pair")
    write_seed(pad_zeros(m18, 1), 19, 5, True, dso_opt(19, 5).value, "top-bit family + pair + zero")
    m20 = pad_pairs(m16, [16, 17])
    write_seed(m20, 20, 5, True, dso_opt(20, 5).value, "top-bit family + two pairs")


def main() -> None:
    gen_k3()
    gen_k4_lin()
    gen_k4_so()
    gen_k5_so()
    print("done")


if __name__ == "__main__":
    main()
