import random

import pytest

from digraphlab import (
    Hom,
    SizeLimitExceeded,
    categorical_product,
    complete,
    hom_exists,
    path,
    tournament,
)
from digraphlab.product import ProductHom
from digraphlab.verify import random_digraph


def test_single_factor_is_the_factor():
    g = tournament(4)
    spec = categorical_product([g])
    assert spec.materialized == g


def test_k2_times_k2():
    spec = categorical_product([complete(2), complete(2)])
    prod = spec.materialize()
    assert prod.n == 4
    assert prod.arcs == ((0, 3), (1, 2), (2, 1), (3, 0))


def test_index_round_trip():
    spec = categorical_product([tournament(3), path(2), complete(2)])
    for idx in range(spec.num_vertices):
        assert spec.index_of(spec.tuple_of(idx)) == idx


def test_adjacency_oracle_matches_materialized():
    rng = random.Random(13)
    for _ in range(10):
        f1 = random_digraph(rng, rng.randint(1, 3), 0.5)
        f2 = random_digraph(rng, rng.randint(1, 3), 0.5)
        spec = categorical_product([f1, f2])
        prod = spec.materialize()
        for u, v in prod.arcs:
            assert spec.has_arc(prod.labels[u], prod.labels[v])
        count = sum(
            spec.has_arc(spec.tuple_of(i), spec.tuple_of(j))
            for i in range(spec.num_vertices)
            for j in range(spec.num_vertices)
        )
        assert count == len(prod.arcs)


def test_arcs_iter_count():
    spec = categorical_product([tournament(3), tournament(4)])
    assert sum(1 for _ in spec.arcs_iter()) == spec.num_arcs == 3 * 6


def test_materialize_refusal_reports_size():
    spec = categorical_product([complete(8)] * 3, threshold=100)
    with pytest.raises(SizeLimitExceeded) as e:
        spec.materialize()
    assert e.value.size == 512 and e.value.limit == 100


def test_universal_property_on_small_instances():
    rng = random.Random(17)
    for _ in range(25):
        g = random_digraph(rng, rng.randint(1, 3), 0.5)
        f1 = random_digraph(rng, rng.randint(1, 3), 0.6)
        f2 = random_digraph(rng, rng.randint(1, 3), 0.6)
        spec = categorical_product([f1, f2])
        via_product = hom_exists(g, spec)
        separately = hom_exists(g, f1) is not None and hom_exists(g, f2) is not None
        assert (via_product is not None) == separately
        if isinstance(via_product, ProductHom):
            assert via_product.validate(g, spec)
            # same decision through the explicit digraph
            assert isinstance(hom_exists(g, spec.materialize()), Hom)
