import random
from itertools import product

import pytest

from digraphlab import (
    Hom,
    SizeLimitExceeded,
    categorical_product,
    complete,
    hom_exists,
    path,
    tournament,
    validate_hom,
)
from digraphlab.verify import random_digraph


def test_single_factor_is_the_factor():
    g = tournament(4)
    assert categorical_product([g]).materialize() is g


def test_k2_times_k2():
    spec = categorical_product([complete(2), complete(2)])
    prod = spec.materialize()
    assert prod.n == 4
    assert prod.arcs == ((0, 3), (1, 2), (2, 1), (3, 0))


def test_adjacency_oracle_matches_materialized():
    # reference: (u, v) is an arc iff every coordinate pair is an arc of its factor
    rng = random.Random(13)
    for _ in range(10):
        factors = [random_digraph(rng, rng.randint(1, 3), 0.5) for _ in range(rng.randint(2, 3))]
        prod = categorical_product(factors).materialize()
        assert prod.labels == tuple(product(*(range(f.n) for f in factors)))
        expected = {
            (i, j)
            for i, u in enumerate(prod.labels)
            for j, v in enumerate(prod.labels)
            if all(f.has_arc(a, b) for f, a, b in zip(factors, u, v))
        }
        assert set(prod.arcs) == expected


def test_arc_count_is_product_of_factor_arc_counts():
    factors = [tournament(3), tournament(4), path(2)]
    assert len(categorical_product(factors).materialize().arcs) == 3 * 6 * 2


def test_materialize_refusal_reports_size():
    spec = categorical_product([complete(60)] * 3)
    with pytest.raises(SizeLimitExceeded) as e:
        spec.materialize()
    assert e.value.size == 216_000 and e.value.limit == 200_000


def test_universal_property_on_small_instances():
    rng = random.Random(17)
    for _ in range(25):
        g = random_digraph(rng, rng.randint(1, 3), 0.5)
        factors = [random_digraph(rng, rng.randint(1, 3), 0.6) for _ in range(2)]
        prod = categorical_product(factors).materialize()
        w = hom_exists(g, prod)
        separately = all(hom_exists(g, f) is not None for f in factors)
        assert (w is not None) == separately
        if w is not None:
            for i, f in enumerate(factors):
                coord = Hom(tuple(prod.labels[x][i] for x in w.map), g.name, f.name)
                assert validate_hom(coord, g, f)
