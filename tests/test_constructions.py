import random
from itertools import product
from math import comb

import pytest

from digraphlab import (
    ConstructionError,
    OrientedPath,
    SizeLimitExceeded,
    arc_graph,
    arc_graph_iter,
    b_graph,
    circular_complete,
    complete,
    hom_equivalent,
    interleaved_adjoint,
    inverse_interleaved_adjoint,
    is_oriented_tree,
    make_digraph,
    path,
    symmetrize,
    tournament,
    tree_dual,
)
from digraphlab import constructions
from digraphlab.core import DEFAULT_VERTEX_LIMIT
from digraphlab.verify import random_digraph

from _helpers import brute_isomorphic


def test_tournament_small():
    assert tournament(2).arcs == ((0, 1),)
    for n in range(8):
        assert len(tournament(n).arcs) == n * (n - 1) // 2


def test_path_builder():
    g = path(3)
    assert g.n == 4 and g.arcs == ((0, 1), (1, 2), (2, 3))


def test_complete_builder():
    g = complete(3)
    assert g.n == 3 and len(g.arcs) == 6 and not g.has_loop()


def test_arc_graph_single_arc():
    d = arc_graph(path(1))
    assert d.n == 1 and d.arcs == ()


def test_arc_graph_t3():
    d = arc_graph(tournament(3))
    assert d.n == 3
    assert d.labels == ((0, 1), (0, 2), (1, 2))
    assert d.arcs == ((0, 2),)  # (0,1) composes with (1,2)


def test_arc_graph_k2_is_two_cycle():
    d = arc_graph(complete(2))
    assert d.n == 2 and d.arcs == ((0, 1), (1, 0)) and not d.has_loop()


def test_arc_graph_keeps_isolated_vertices():
    g = make_digraph(4, [(0, 1), (2, 3)])
    d = arc_graph(g)
    assert d.n == 2 and d.arcs == ()


def test_arc_graph_loop():
    d = arc_graph(make_digraph(1, [(0, 0)]))
    assert d.n == 1 and d.arcs == ((0, 0),)


def test_arc_graph_iter_zero_is_identity():
    g = tournament(4)
    assert arc_graph_iter(g, 0) is g


def test_arc_graph_iter_chains_t4():
    d = arc_graph_iter(tournament(4), 2)
    assert d.n == 4
    assert d.labels == ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
    assert d.arcs == ((0, 3),)


def test_arc_graph_iter_chains_match_walk_enumeration():
    rng = random.Random(3)
    for _ in range(20):
        g = random_digraph(rng, rng.randint(1, 4), 0.5)
        d = arc_graph_iter(g, 2)
        walks = [
            (a, b, c)
            for a in range(g.n)
            for b in range(g.n)
            for c in range(g.n)
            if (a, b) in g.arc_set and (b, c) in g.arc_set
        ]
        assert sorted(d.labels) == sorted(walks)
        # arcs join walks overlapping in all but one position
        expected = {
            (i, j)
            for i, x in enumerate(d.labels)
            for j, y in enumerate(d.labels)
            if x[1:] == y[:-1]
        }
        assert set(d.arcs) == expected


def test_arc_graph_iter_guard(monkeypatch):
    monkeypatch.setattr(constructions, "DEFAULT_VERTEX_LIMIT", 1000)
    with pytest.raises(SizeLimitExceeded):
        arc_graph_iter(complete(8), 6)


def test_interleaved_adjoint_k1_is_same_graph():
    g = tournament(4)
    assert interleaved_adjoint(g, 1) == g


def test_interleaved_adjoint_arc_counts_are_binomial():
    for n in range(9):
        for k in (1, 2, 3):
            iota = interleaved_adjoint(tournament(n), k)
            assert len(iota.arcs) == comb(n, 2 * k)


def test_interleaved_adjoint_t4_single_arc():
    iota = interleaved_adjoint(tournament(4), 2)
    assert iota.n == 16
    ((u, v),) = iota.arcs
    assert iota.labels[u] == (0, 2) and iota.labels[v] == (1, 3)


def test_interleaved_adjoint_matches_definition():
    rng = random.Random(5)
    for _ in range(15):
        g = random_digraph(rng, rng.randint(1, 4), 0.5)
        k = rng.randint(1, 3)
        iota = interleaved_adjoint(g, k)
        tuples = list(product(range(g.n), repeat=k))
        expected = set()
        for iu, u in enumerate(tuples):
            for iv, v in enumerate(tuples):
                if all((u[i], v[i]) in g.arc_set for i in range(k)) and all(
                    (v[i], u[i + 1]) in g.arc_set for i in range(k - 1)
                ):
                    expected.add((iu, iv))
        assert set(iota.arcs) == expected
        assert tuple(tuples) == iota.labels


def test_interleaved_adjoint_guards():
    with pytest.raises(ConstructionError):
        interleaved_adjoint(tournament(3), 0)
    with pytest.raises(SizeLimitExceeded):
        interleaved_adjoint(complete(10), 6)


def test_inverse_adjoint_k1_is_same_graph():
    g = tournament(4)
    assert inverse_interleaved_adjoint(g, 1) == g


def test_inverse_adjoint_of_arc_is_path():
    for k in (1, 2, 3, 4):
        g = inverse_interleaved_adjoint(path(1), k)
        assert g.n == 2 * k and len(g.arcs) == 2 * k - 1
        assert brute_isomorphic(g, path(2 * k - 1))


def test_inverse_adjoint_arc_count():
    g = inverse_interleaved_adjoint(tournament(3), 3)
    assert g.n == 9 and len(g.arcs) == 15  # (2k-1)|A|


def test_inverse_adjoint_labels():
    g = inverse_interleaved_adjoint(path(1), 2)
    assert g.labels == ((0, 1), (0, 2), (1, 1), (1, 2))


def test_builders_refuse_more_vertices_than_the_limit():
    assert path(DEFAULT_VERTEX_LIMIT - 1).n == DEFAULT_VERTEX_LIMIT
    with pytest.raises(SizeLimitExceeded):
        path(DEFAULT_VERTEX_LIMIT)
    with pytest.raises(SizeLimitExceeded):
        OrientedPath("+" * DEFAULT_VERTEX_LIMIT).as_digraph()
    with pytest.raises(SizeLimitExceeded):
        inverse_interleaved_adjoint(make_digraph(1, []), DEFAULT_VERTEX_LIMIT + 1)


def test_quadratic_builders_refuse_before_building_arcs(monkeypatch):
    # make_digraph keeps the real limit, so only the builders' own check,
    # made before their arc list, can refuse 11 vertices here
    monkeypatch.setattr(constructions, "DEFAULT_VERTEX_LIMIT", 10)
    builders = (tournament, complete, lambda n: circular_complete(n, 2), lambda n: arc_graph(path(n)))
    for build in builders:
        assert build(10).n == 10
        with pytest.raises(SizeLimitExceeded):
            build(11)


def test_is_oriented_tree():
    assert is_oriented_tree(path(3))
    assert is_oriented_tree(make_digraph(1, []))
    assert not is_oriented_tree(make_digraph(3, [(0, 1), (1, 2), (2, 0)]))
    assert not is_oriented_tree(make_digraph(2, [(0, 1), (1, 0)]))
    assert not is_oriented_tree(make_digraph(4, [(0, 1), (2, 3)]))


def test_tree_dual_of_single_arc():
    d = tree_dual(path(1))
    assert d.n == 1 and d.arcs == ()


def test_tree_dual_path_sizes():
    for m in range(1, 7):
        assert tree_dual(path(m)).n == 2 ** (m - 1)


def test_tree_dual_matches_direct_enumeration():
    # fresh enumeration of incidence functions and the avoidance condition
    for t in (path(3), make_digraph(4, [(0, 1), (0, 2), (3, 0)])):
        d = tree_dual(t)
        incident = [
            [a for a, (u, v) in enumerate(t.arcs) if u == w or v == w] for w in range(t.n)
        ]
        funcs = list(product(*incident))
        assert d.n == len(funcs)
        expected = set()
        for i, f in enumerate(funcs):
            for j, g in enumerate(funcs):
                if all(f[u] != g[v] for u, v in t.arcs):
                    expected.add((i, j))
        assert set(d.arcs) == expected


def test_tree_dual_rejects_non_trees():
    with pytest.raises(ConstructionError):
        tree_dual(make_digraph(3, [(0, 1), (1, 2), (2, 0)]))


def test_tree_dual_guard(monkeypatch):
    monkeypatch.setattr(constructions, "DEFAULT_VERTEX_LIMIT", 10_000)
    with pytest.raises(SizeLimitExceeded):
        tree_dual(path(20))


def test_tree_dual_of_path_equivalent_to_tournament():
    for n in (1, 2, 3, 4):
        r = hom_equivalent(tree_dual(path(n)), tournament(n))
        assert r.equivalent is True


def test_circular_complete_k1_is_complete():
    for n in (2, 3, 4, 5, 6):
        assert circular_complete(n, 1) == complete(n)


def test_circular_complete_5_2_is_five_cycle():
    g = circular_complete(5, 2)
    assert len(g.arcs) == 10
    assert g.arcs == (
        (0, 2), (0, 3), (1, 3), (1, 4), (2, 0),
        (2, 4), (3, 0), (3, 1), (4, 1), (4, 2),
    )
    # symmetric, 2-regular, connected: a 5-cycle
    assert all((v, u) in g.arc_set for u, v in g.arcs)
    assert all(sum(u == v for u, _ in g.arcs) == 2 for v in range(5))


def test_circular_complete_param_guard():
    with pytest.raises(ConstructionError):
        circular_complete(3, 2)
    with pytest.raises(ConstructionError):
        circular_complete(4, 0)


def test_b_graph_is_symmetrized_adjoint():
    assert b_graph(5, 2) == symmetrize(interleaved_adjoint(tournament(5), 2))
    with pytest.raises(ConstructionError):
        b_graph(3, 2)


def test_first_coordinate_projection_is_hom():
    from digraphlab import Hom, validate_hom

    rng = random.Random(83)
    for _ in range(12):
        g = random_digraph(rng, rng.randint(1, 5), 0.5)
        for k in (1, 2, 3):
            iota = interleaved_adjoint(g, k)
            proj = Hom(tuple(lab[0] for lab in iota.labels))
            assert validate_hom(proj, iota, g)


def test_even_coordinate_embedding_is_hom():
    from digraphlab import Hom, validate_hom

    rng = random.Random(89)
    for _ in range(12):
        g = random_digraph(rng, rng.randint(1, 5), 0.5)
        for k in (1, 2):
            delta = arc_graph_iter(g, 2 * k - 2)
            chains = delta.labels if 2 * k - 2 else [(v,) for v in range(g.n)]
            iota = interleaved_adjoint(g, k)
            rank = {lab: i for i, lab in enumerate(iota.labels)}
            phi = Hom(tuple(rank[c[0::2]] for c in chains))
            assert validate_hom(phi, delta if 2 * k - 2 else g, iota)


def test_diagonal_is_hom_for_symmetric_graphs():
    from digraphlab import Hom, validate_hom

    rng = random.Random(97)
    for _ in range(10):
        g = symmetrize(random_digraph(rng, rng.randint(1, 4), 0.5))
        for k in (1, 2, 3):
            iota = interleaved_adjoint(g, k)
            rank = {lab: i for i, lab in enumerate(iota.labels)}
            diag = Hom(tuple(rank[(u,) * k] for u in range(g.n)))
            assert validate_hom(diag, g, iota)


def test_duality_of_five_arc_trees_on_random_sources():
    from digraphlab import hom_exists

    rng = random.Random(101)
    sources = [random_digraph(rng, rng.randint(1, 4), 0.4, loop_p=0.05) for _ in range(25)]
    trees = [
        make_digraph(6, [((i, i + 1) if d >> i & 1 else (i + 1, i)) for i in range(5)])
        for d in range(32)
    ]
    trees.append(make_digraph(6, [(0, 1), (0, 2), (0, 3), (4, 0), (5, 0)]))
    trees.append(make_digraph(6, [(0, 1), (1, 2), (0, 3), (3, 4), (5, 0)]))
    for t in trees:
        dual = tree_dual(t)
        for g in sources:
            assert (hom_exists(g, dual) is not None) == (hom_exists(t, g) is None)
