"""Structural invariants checked over generated instances."""

from hypothesis import given, settings, strategies as st

from digraphlab import (
    OrientedPath,
    algebraic_length,
    brute_force_hom,
    categorical_product,
    from_json,
    hom_exists,
    make_digraph,
    path,
    symmetrize,
    to_json,
    validate_hom,
    Hom,
)


@st.composite
def digraphs(draw, max_n=5, loops=True):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if loops or u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    return make_digraph(n, arcs)


@given(digraphs())
def test_arcs_sorted_dedup_and_in_range(g):
    assert list(g.arcs) == sorted(set(g.arcs))
    assert all(0 <= u < g.n and 0 <= v < g.n for u, v in g.arcs)


@given(digraphs())
def test_symmetrize_properties(g):
    s = symmetrize(g)
    assert all((v, u) in s.arc_set for u, v in s.arcs)
    assert set(g.arcs) <= set(s.arcs)
    assert len(s.arcs) <= 2 * len(g.arcs)
    assert symmetrize(s) == s


@given(digraphs())
def test_json_round_trip(g):
    assert to_json(from_json(to_json(g))) == to_json(g)


@given(digraphs(max_n=3), digraphs(max_n=3), digraphs(max_n=3))
@settings(max_examples=40, deadline=None)
def test_hom_composition(g, h, k):
    f1 = brute_force_hom(g, h)
    f2 = brute_force_hom(h, k)
    if f1 is not None and f2 is not None:
        composed = Hom(tuple(f2.map[f1.map[u]] for u in range(g.n)))
        assert validate_hom(composed, g, k)


@given(digraphs(max_n=4), digraphs(max_n=4))
@settings(max_examples=60, deadline=None)
def test_engine_agrees_with_enumeration(g, h):
    fast = hom_exists(g, h)
    slow = brute_force_hom(g, h)
    assert (fast is not None) == (slow is not None)


@given(digraphs(max_n=4, loops=False), digraphs(max_n=4), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_removing_arcs_preserves_homs(g, h, drop):
    if hom_exists(g, h) is None:
        return
    kept = [a for i, a in enumerate(g.arcs) if i != drop]
    sub = make_digraph(g.n, kept)
    assert hom_exists(sub, h) is not None


@given(st.text(alphabet="+-", max_size=6))
@settings(deadline=None)
def test_algebraic_length_is_min_forward_target(dirs):
    p = OrientedPath(dirs)
    levels = p.levels()
    assert algebraic_length(p) == max(levels) - min(levels)
    al = algebraic_length(p)
    assert isinstance(hom_exists(p.as_digraph(), path(al)), Hom)
    if al > 0:
        assert hom_exists(p.as_digraph(), path(al - 1)) is None


@given(digraphs(max_n=3), digraphs(max_n=3))
@settings(max_examples=40, deadline=None)
def test_product_factorization(f1, f2):
    prod = categorical_product([f1, f2]).materialize()
    g = path(2)
    combined = hom_exists(g, prod)
    assert (combined is not None) == (
        hom_exists(g, f1) is not None and hom_exists(g, f2) is not None
    )


@given(digraphs(max_n=7))
def test_rank_masks_are_the_adjacency_in_degree_order(g):
    order = g.degree_order
    assert sorted(order) == list(range(g.n))
    assert all(g.degree_rank[u] == r for r, u in enumerate(order))
    for r, u in enumerate(order):
        adjacent = [s for s, v in enumerate(order) if v != u and ((u, v) in g.arc_set or (v, u) in g.arc_set)]
        assert g.rank_masks[r] == sum(1 << s for s in adjacent)
