import json
import random

import pytest

from digraphlab import (
    ConstructionError,
    Digraph,
    Hom,
    brute_force_hom,
    complete,
    from_json,
    induced,
    interleaved_adjoint,
    make_digraph,
    path,
    symmetrize,
    to_dot,
    to_json,
    tournament,
    validate_hom,
)
from digraphlab import core
from digraphlab.core import DEFAULT_VERTEX_LIMIT, SHARED_PAIR_VERTICES, SizeLimitExceeded
from digraphlab.verify import random_digraph


def test_make_digraph_empty():
    g = make_digraph(0, [])
    assert g.n == 0 and g.arcs == ()


def test_make_digraph_single_arc():
    g = make_digraph(2, [(0, 1)])
    assert g.arcs == ((0, 1),)


def test_make_digraph_dedup_and_sort():
    g = make_digraph(3, [(1, 2), (0, 1), (0, 1)])
    assert g.arcs == ((0, 1), (1, 2))


def test_make_digraph_rejects_bad_endpoint():
    with pytest.raises(ConstructionError):
        make_digraph(2, [(0, 2)])
    with pytest.raises(ConstructionError):
        make_digraph(1, [(-1, 0)])


@pytest.mark.parametrize("arc", [(0, 1.5), (1.0, 2), ("0", 1), (0, None)])
def test_make_digraph_rejects_endpoints_that_are_not_integers(arc):
    with pytest.raises(ConstructionError, match="not an integer"):
        make_digraph(3, [arc])


def test_make_digraph_stores_integer_like_endpoints_as_int():
    class Two:
        def __index__(self):
            return 2

    g = make_digraph(3, [(Two(), True)])
    assert g.arcs == ((2, 1),)
    assert all(type(x) is int for x in g.arcs[0])


def test_loops_allowed():
    g = make_digraph(1, [(0, 0)])
    assert g.has_loop()


def test_equality_ignores_metadata():
    assert make_digraph(2, [(0, 1)], name="a") == make_digraph(2, [(0, 1)], name="b")
    assert make_digraph(2, [(0, 1)]) != make_digraph(2, [(1, 0)])


def test_symmetrize_single_arc():
    assert symmetrize(path(1)).arcs == ((0, 1), (1, 0))


def test_symmetrize_fixed_point_on_complete():
    for n in range(5):
        assert symmetrize(complete(n)) == complete(n)


def test_symmetrize_t3_gives_k3():
    # arcs of T_3 plus their reversals, enumerated by hand
    assert symmetrize(tournament(3)).arcs == (
        (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1),
    )
    assert symmetrize(tournament(3)) == complete(3)


def test_symmetrize_idempotent_and_bounded():
    rng = random.Random(7)
    for _ in range(30):
        g = random_digraph(rng, rng.randint(0, 5), 0.5)
        s = symmetrize(g)
        assert symmetrize(s) == s
        assert len(s.arcs) <= 2 * len(g.arcs)
        assert all((v, u) in s.arc_set for u, v in s.arcs)


def test_validate_hom_identity_on_k3():
    k3 = complete(3)
    assert validate_hom(Hom((0, 1, 2)), k3, k3)


def test_validate_hom_constant_map_fails_without_loop():
    assert not validate_hom(Hom((0, 0)), path(1), make_digraph(1, []))


def test_validate_hom_first_coordinate_projection():
    iota = interleaved_adjoint(tournament(4), 2)
    proj = Hom(tuple(lab[0] for lab in iota.labels))
    assert validate_hom(proj, iota, tournament(4))


def test_validate_hom_length_mismatch_raises():
    with pytest.raises(ValueError):
        validate_hom(Hom((0,)), path(1), path(1))


def test_validate_hom_range_checks_images_of_arcless_vertices():
    g, h = make_digraph(2, []), make_digraph(2, [(0, 1)])
    assert validate_hom(Hom((1, 0)), g, h)
    assert not validate_hom(Hom((0, 2)), g, h)
    assert not validate_hom(Hom((-1, 0)), g, h)


def test_validate_hom_source_loop_needs_looped_image():
    loop, h = make_digraph(1, [(0, 0)]), make_digraph(2, [(0, 1), (1, 1)])
    assert not validate_hom(Hom((0,)), loop, h)
    assert validate_hom(Hom((1,)), loop, h)


def test_validate_hom_empty_source_into_empty_target():
    empty = make_digraph(0, [])
    assert validate_hom(Hom(()), empty, empty)


def test_induced_t3_middle():
    assert induced(tournament(3), {1, 2}) == tournament(2)


def test_induced_rejects_out_of_range():
    with pytest.raises(ConstructionError):
        induced(tournament(3), {3})


def test_induced_triple_of_adjoint_is_t3():
    # the 1-based tuples (1,4),(2,5),(3,6) inside the 2-tuple adjoint of T_6
    iota = interleaved_adjoint(tournament(6), 2)
    ids = [iota.labels.index((0, 3)), iota.labels.index((1, 4)), iota.labels.index((2, 5))]
    assert induced(iota, ids) == tournament(3)


def test_hom_composition_closure():
    rng = random.Random(11)
    found = 0
    while found < 20:
        g = random_digraph(rng, rng.randint(1, 3), 0.4)
        h = random_digraph(rng, rng.randint(1, 3), 0.6)
        k = random_digraph(rng, rng.randint(1, 3), 0.8)
        f1 = brute_force_hom(g, h)
        f2 = brute_force_hom(h, k)
        if f1 is None or f2 is None:
            continue
        composed = Hom(tuple(f2.map[f1.map[u]] for u in range(g.n)))
        assert validate_hom(composed, g, k)
        found += 1


def test_json_round_trip_bytes():
    g = make_digraph(4, [(2, 3), (0, 1)], name="probe")
    text = to_json(g)
    again = to_json(from_json(text))
    assert text == again
    parsed = json.loads(text)
    assert parsed == {"n": 4, "arcs": [[0, 1], [2, 3]], "name": "probe"}


def test_json_rejects_malformed():
    with pytest.raises(ConstructionError):
        from_json("{}")


@pytest.mark.parametrize(
    "text",
    [
        '{"n": true, "arcs": []}',
        '{"n": 2.7, "arcs": []}',
        '{"n": "3", "arcs": []}',
        '{"n": -1, "arcs": []}',
        '{"n": 3, "arcs": [[0.9, 2.2]]}',
        '{"n": 3, "arcs": [["0", 1]]}',
        '{"n": 3, "arcs": [[false, 1]]}',
        '{"n": 3, "arcs": [[0, 1, 2]]}',
        '{"n": 3, "arcs": [0, 1]}',
        '{"n": 3, "arcs": 5}',
        '{"n": 3, "arcs": {"0": 1}}',
        '{"n": 1, "arcs": [], "name": 5}',
    ],
)
def test_json_rejects_ill_typed_fields(text):
    with pytest.raises(ConstructionError):
        from_json(text)


def test_json_refuses_more_vertices_than_the_limit():
    assert from_json(json.dumps({"n": DEFAULT_VERTEX_LIMIT, "arcs": []})).n == DEFAULT_VERTEX_LIMIT
    for n in (DEFAULT_VERTEX_LIMIT + 1, 10**12):
        with pytest.raises(SizeLimitExceeded):
            from_json(json.dumps({"n": n, "arcs": []}))


def test_neighbour_masks_are_the_symmetrised_loopless_adjacency():
    rng = random.Random(67)
    for _ in range(30):
        g = random_digraph(rng, rng.randint(0, 8), 0.3, loop_p=0.3)
        expected = [sum(1 << v for u, v in symmetrize(g).arcs if u == x and v != x) for x in range(g.n)]
        assert g.neighbour_masks == tuple(expected)


def test_small_digraphs_share_equal_arc_pairs():
    n = SHARED_PAIR_VERTICES
    graphs = [
        make_digraph(4, [(0, 1), (1, 2), (3, 3)]),
        make_digraph(n, [(0, 1), (n - 1, 0), (2, n - 1)]),
        from_json('{"n": 5, "arcs": [[0, 1], [3, 3], [4, 0]]}'),
        induced(make_digraph(9, [(2, 3), (3, 4), (5, 5), (8, 2)]), [2, 3, 4, 5, 8]),
        symmetrize(make_digraph(3, [(1, 0), (2, 1)])),
        symmetrize(make_digraph(n, [(0, n - 1), (1, 2)])),
    ]
    shared = 0
    for g in graphs:
        for h in graphs:
            for x in g.arcs:
                for y in h.arcs:
                    if x == y:
                        assert x is y, (g, h, x)
                        shared += g is not h
    assert shared >= 20


def test_digraphs_above_the_sharing_bound_leave_the_table_unchanged():
    make_digraph(SHARED_PAIR_VERTICES, [(0, 1)])
    size = len(core._SHARED_PAIRS)
    n = SHARED_PAIR_VERTICES + 1
    g = make_digraph(n, [(200, 201), (n - 1, 0), (0, n - 1), (201, 200), (5, 5)])
    s = symmetrize(make_digraph(n, [(210, 211), (3, n - 1)]))
    assert len(core._SHARED_PAIRS) == size
    assert g.arcs == ((0, n - 1), (5, 5), (200, 201), (201, 200), (n - 1, 0))
    assert s.arcs == ((3, n - 1), (210, 211), (211, 210), (n - 1, 3))


def test_threshold_graphs_hold_at_most_n_squared_arc_objects():
    """200 sparse graphs at the 3-colourability threshold (average degree
    4.69) on 80 vertices hold some 75,000 arcs, but at most 80 * 80 objects."""
    rng = random.Random(29)
    n, m = 80, 188
    graphs = []
    for _ in range(200):
        edges = set()
        while len(edges) < m:
            edges.add(tuple(sorted(rng.sample(range(n), 2))))
        g = make_digraph(n, edges)
        graphs += [g, symmetrize(g)]
    assert sum(len(g.arcs) for g in graphs) == 200 * 3 * m
    assert len({id(a) for g in graphs for a in g.arcs}) <= n * n


def test_has_arc_is_membership_in_the_arcs():
    rng = random.Random(83)
    odd = [(0.5, 0), (0, 1.5), ("0", 0), (0, "1"), (None, 0), ("a", "b"), (-1, 0), (0, -1)]
    for _ in range(60):
        n = rng.randint(0, 9)
        g = random_digraph(rng, n, rng.random(), loop_p=0.3)
        probes = [(u, v) for u in range(-2, n + 2) for v in range(-2, n + 2)]
        probes += [(float(u), v) for u, v in g.arcs[:3]] + odd
        for u, v in probes:
            assert g.has_arc(u, v) == ((u, v) in g.arcs), (g.arcs, u, v)
        assert not any(g.has_arc(u, v) for u, v in odd)
        assert not g.has_arc(n, 0) and not g.has_arc(0, n)
        assert "arc_set" not in vars(g)


def test_tree_order_is_three_parallel_tuples_in_bfs_order():
    t = make_digraph(7, [(1, 0), (1, 2), (3, 1), (2, 4), (5, 2), (5, 6)])
    assert t.degree_order[0] == 1
    assert t.tree_order == ((0, 2, 3, 4, 5, 6), (1, 1, 1, 2, 2, 5), (True, True, False, True, False, True))
    assert make_digraph(1, []).tree_order == ((), (), ())
    assert make_digraph(3, [(0, 1), (1, 2), (2, 0)]).tree_order is None
    assert make_digraph(4, [(0, 1), (2, 3), (3, 2)]).tree_order is None


def test_dot_export():
    g = make_digraph(2, [(0, 1)])
    dot = to_dot(g)
    assert "0 -> 1;" in dot and dot.startswith("digraph {")


def test_dot_label_escapes_quotes_and_backslashes():
    assert 'label="say \\"hi\\" \\\\ bye";' in to_dot(make_digraph(1, [], name='say "hi" \\ bye'))
    assert 'label="P_1";' in to_dot(path(1))


def test_dot_collapse_symmetric():
    g = symmetrize(path(1))
    dot = to_dot(g, collapse_symmetric=True)
    assert dot.count("->") == 1 and "[dir=none]" in dot


def test_labels_survive_induced():
    iota = interleaved_adjoint(tournament(3), 2)
    sub = induced(iota, [0, 4, 8])
    assert sub.labels == ((0, 0), (1, 1), (2, 2))


def test_hom_witness_decoding_uses_label_table():
    from digraphlab.core import hom_to_json_dict

    iota = interleaved_adjoint(tournament(4), 2)
    (arc,) = iota.arcs
    h = Hom(arc)
    d = hom_to_json_dict(h, iota)
    assert d["map"] == list(arc)
    assert d["decoded"] == [[0, 2], [1, 3]]
