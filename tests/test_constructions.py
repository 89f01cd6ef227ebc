"""Seed registry and simplex-juxtaposition construction checks."""

import hashlib

import pytest

from soembed import constructions
from soembed.constructions import (
    SeedRegistry,
    build_optimal,
    juxtapose_simplex,
    registry,
)
from soembed.distances import d_opt, dso_opt
from soembed.errors import MissingSeedError, SoEmbedError
from soembed.gf2 import gram, min_distance, parse_matrix, rank, simplex_matrix
from soembed.oracle import _search_profile, random_so_profile_search
from soembed.profiles import _so_parity_masks, matrix_from_profile

# sha256 over "t k so\nmatrix\n" for every seed, keys in sorted order: the
# digest of the seed files the recipes replaced
SEEDS_SHA256 = "8d6ec894fe9cd17b3fab364b8dd64a2b0add5d9bf52d29b16288a3799505280a"


def test_registry_loads_and_validates():
    reg = registry()
    assert len(reg.entries) == 53
    assert reg.lengths(3, False) == list(range(3, 10))
    assert reg.lengths(4, True) == list(range(8, 23)) + [28]
    assert reg.lengths(5, True) == [11, 12, *range(15, 21)]
    h = hashlib.sha256()
    for t, k, so in sorted(reg.entries):
        entry = reg.get(t, k, so)
        assert rank(entry.matrix) == entry.k
        assert min_distance(entry.matrix) == entry.declared_d
        assert entry.declared_d == (dso_opt if so else d_opt)(t, k).value
        h.update(f"{t} {k} {int(so)}\n{entry.matrix.to_text()}\n".encode())
    assert h.hexdigest() == SEEDS_SHA256


@pytest.mark.parametrize(
    "t, k, so", [(11, 4, False), (12, 4, False), (13, 4, False), (14, 4, False), (21, 4, True)]
)
def test_rule_recipes_match_the_search(t, k, so):
    # the profile search each rule or listed witness stands in for still
    # finds its matrix
    d = (dso_opt if so else d_opt)(t, k).value
    profile = _search_profile(t, k, d, _so_parity_masks(k) if so else None)
    assert registry().get(t, k, so).matrix == matrix_from_profile(profile)


def test_listed_k5_seed_matches_the_search():
    found, profile = random_so_profile_search(15, 5, 4000, target_d=6, rng_seed=7)
    assert found == 6
    assert registry().get(15, 5, True).matrix == matrix_from_profile(profile)


def test_registry_rejects_tampered_seed():
    # a recipe whose matrix misses the declared distance d_opt(7, 3) = 4
    recipes = constructions._recipes()
    recipes[7, 3, False] = ("tampered", lambda: constructions._columns(3, [1, 1, 2, 2, 4, 4, 0]))
    with pytest.raises(SoEmbedError, match="distance differs"):
        SeedRegistry(recipes).get(7, 3, False)


def test_juxtapose_examples():
    h3 = simplex_matrix(3)
    doubled = juxtapose_simplex(h3, 1)
    assert doubled.n == 14 and min_distance(doubled) == 8
    assert juxtapose_simplex(h3, 0) == h3

    ext_hamming = parse_matrix("00001111\n00110011\n01010101\n10010110")
    j = juxtapose_simplex(ext_hamming, 1)
    assert (j.n, min_distance(j)) == (23, 12)
    assert gram(j).is_zero()
    assert dso_opt(23, 4).value == 12


def test_juxtapose_distance_additivity():
    reg = registry()
    for t in (8, 10, 14):
        entry = reg.get(t, 4, True)
        for s in (1, 2):
            j = juxtapose_simplex(entry.matrix, s)
            assert min_distance(j) == 8 * s + entry.declared_d


def test_build_examples():
    m, v = build_optimal(22, 3, False)
    assert v.value == 12 == d_opt(22, 3).value and v.status == "exact"
    m, v = build_optimal(23, 4, True)
    assert v.value == 12 and v.status == "exact"
    assert gram(m).is_zero()
    m, v = build_optimal(46, 5, True)
    assert v.value == 22 == dso_opt(46, 5).value and v.status == "exact"


def test_build_missing_seed():
    with pytest.raises(MissingSeedError) as err:
        build_optimal(34, 5, True)
    assert (err.value.t, err.value.k, err.value.so) == (34, 5, True)
    with pytest.raises(MissingSeedError):
        build_optimal(10, 2, False)  # a formula but no seeds at k = 2


def test_so_flag_propagates():
    reg = registry()
    for t in reg.lengths(4, True):
        entry = reg.get(t, 4, True)
        assert gram(juxtapose_simplex(entry.matrix, 1)).is_zero()
