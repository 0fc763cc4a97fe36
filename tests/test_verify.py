import json
import random
from itertools import combinations, permutations, product

import pytest

from digraphlab import (
    Hom,
    OrientedPath,
    SizeLimitExceeded,
    arc_graph,
    complete,
    find_steep_path,
    h_function,
    hom_exists,
    interleaved_adjoint,
    is_oriented_tree,
    make_digraph,
    path,
    path_family,
    tournament,
    tree_dual,
    tree_hom,
    validate_hom,
)
from digraphlab import verify as V

from _helpers import brute_isomorphic


def test_report_json_schema():
    rep = V.verify_yz(4, 2)
    d = rep.to_json_dict()
    assert set(d) == {"claim", "params", "verdict", "witnesses", "seed", "timing_ms"}
    assert set(rep.to_json_dict(include_timing=False)) == {
        "claim", "params", "verdict", "witnesses", "seed",
    }
    json.dumps(d)  # witnesses must be serializable


def test_gencol_t5():
    rep = V.verify_gencol(tournament(5), 2)
    assert rep.passed
    w = rep.witnesses
    assert w["chi_g"] == 5 and w["chi_delta_iter"] <= w["chi_adjoint"] <= 5


def test_gencol_k3_upper_tight():
    rep = V.verify_gencol(complete(3), 2)
    assert rep.passed and rep.witnesses["chi_adjoint"] == 3 == rep.witnesses["chi_g"]


def test_gencol_arc_graph_lower_tight():
    rep = V.verify_gencol(arc_graph(complete(4)), 2)
    assert rep.passed and rep.witnesses["lower_tight"]


def test_gencol_k1():
    rep = V.verify_gencol(tournament(3), 1)
    assert rep.passed


def test_gencol_tightness_report():
    rep = V.verify_gencol_tightness()
    assert rep.passed and rep.witnesses["diagonal_hom_valid"]


def test_adjunction_no_hom_both_sides():
    rep = V.verify_adjunction(path(1), tournament(3), 2)
    assert rep.passed
    assert not rep.witnesses["into_adjoint"] and not rep.witnesses["out_of_expansion"]


def test_adjunction_identity_when_k1():
    g = tournament(3)
    rep = V.verify_adjunction(g, g, 1)
    assert rep.passed and rep.witnesses["into_adjoint"]


def test_adjunction_small_sweep():
    rep = V.verify_adjunction_sweep(samples=50, seed=99)
    assert rep.passed and rep.witnesses["checked"] == 50


def test_finobs_bigger_tournament():
    rep = V.verify_finobs(tournament(5), 4, 2)
    assert rep.passed
    assert rep.witnesses["no_hom_to_adjoint"] and rep.witnesses["obstruction_found"]
    assert rep.witnesses["lift_valid"]


def test_finobs_self_target():
    iota = interleaved_adjoint(tournament(4), 2)
    rep = V.verify_finobs(iota, 4, 2)
    assert rep.passed
    assert not rep.witnesses["no_hom_to_adjoint"] and not rep.witnesses["obstruction_found"]


def test_finobs_random_sample():
    rng = random.Random(61)
    for _ in range(30):
        g = V.random_digraph(rng, rng.randint(1, 5), rng.uniform(0.2, 0.7))
        assert V.verify_finobs(g, 4, 2).passed


def test_minty_k4():
    rep = V.verify_minty(complete(4), 3, 2)
    assert rep.passed and rep.witnesses["path"] in {p.dirs for p in V.path_family(6, 1)}


def test_minty_k2_c1():
    rep = V.verify_minty(complete(2), 1, 1)
    assert rep.passed and rep.witnesses["path"] == "+"


def test_minty_t7():
    rep = V.verify_minty(tournament(7), 3, 2)
    assert rep.passed


def test_minty_rejects_low_chromatic_input():
    with pytest.raises(ValueError):
        V.verify_minty(complete(2), 3, 2)


def test_duality_single_arc_tree():
    rep = V.verify_duality_tree(path(1), list(V.all_digraphs(2)))
    assert rep.passed


def test_duality_p3_exhaustive_small():
    rep = V.verify_duality_tree(path(3), list(V.all_digraphs(3)))
    assert rep.passed and rep.witnesses["checked"] == 531


def test_duality_star_random_sources():
    star = make_digraph(4, [(0, 1), (0, 2), (3, 0)])
    rng = random.Random(67)
    sources = [V.random_digraph(rng, rng.randint(1, 4), 0.4, loop_p=0.05) for _ in range(50)]
    rep = V.verify_duality_tree(star, sources)
    assert rep.passed


def _canonical(g):
    """Reference isomorphism key: the minimum relabelled arc tuple over all
    vertex permutations (tiny n only)."""
    best = None
    for perm in permutations(range(g.n)):
        arcs = tuple(sorted((perm[u], perm[v]) for u, v in g.arcs))
        if best is None or arcs < best:
            best = arcs
    return (g.n, best)


def _labelled_oriented_trees(max_arcs):
    """Every labelled oriented tree with at most max_arcs arcs: each m-subset
    of the ordered pairs on m + 1 vertices that is_oriented_tree accepts."""
    for m in range(max_arcs + 1):
        pairs = list(permutations(range(m + 1), 2))
        for arcs in combinations(pairs, m):
            t = make_digraph(m + 1, arcs)
            if is_oriented_tree(t):
                yield t


def _assert_one_per_class(key, trees, expected_keys):
    keys = [key(t) for t in trees]
    assert len(set(keys)) == len(keys)
    assert set(keys) == expected_keys


def test_oriented_tree_enumeration_counts():
    # hand-counted: trivial, 1 arc, then 3 two-arc paths, 4+4 three-arc shapes;
    # in all, partial sums of OEIS A000238 (oriented trees on n vertices:
    # 1, 1, 3, 8, 27, 91, 350, 1376)
    counts = [len(V.oriented_trees(m)) for m in range(8)]
    assert counts == [1, 2, 5, 13, 40, 131, 481, 1857]
    seven = V.oriented_trees(7)
    assert len({V._tree_code(t.n, t.arcs) for t in seven}) == 1857
    trees = V.oriented_trees(4)
    assert all(is_oriented_tree(t) for t in trees)
    assert len({_canonical(t) for t in trees}) == len(trees)


@pytest.mark.parametrize("max_arcs", range(5))
def test_oriented_trees_match_the_permutation_keyed_enumeration(max_arcs):
    expected = {_canonical(t) for t in _labelled_oriented_trees(max_arcs)}
    _assert_one_per_class(_canonical, V.oriented_trees(max_arcs), expected)


def _all_roots_tree_code(t):
    """Reference tree key: the least rooted code over every root."""
    adj = [[] for _ in range(t.n)]
    for u, v in t.arcs:
        adj[u].append((0, v))
        adj[v].append((1, u))

    def code(x, parent):
        return tuple(sorted((d, code(y, x)) for d, y in adj[x] if y != parent))

    return min(code(r, -1) for r in range(t.n))


def test_oriented_trees_match_the_all_roots_keyed_enumeration_at_five_arcs():
    expected = {_all_roots_tree_code(t) for t in _labelled_oriented_trees(5)}
    assert len(expected) == 131
    _assert_one_per_class(_all_roots_tree_code, V.oriented_trees(5), expected)


def test_tree_code_splits_labelled_trees_like_the_permutation_form():
    codes, canons = {}, {}
    count = 0
    for t in _labelled_oriented_trees(4):
        count += 1
        code, canon = V._tree_code(t.n, t.arcs), _canonical(t)
        codes.setdefault(code, set()).add(canon)
        canons.setdefault(canon, set()).add(code)
    assert count == 2143
    assert all(len(c) == 1 for c in codes.values())
    assert all(len(c) == 1 for c in canons.values())
    assert len(codes) == len(canons) == 40


def test_inadprod_31():
    rep = V.verify_inadprod(3, 1)
    assert rep.passed
    covers = rep.witnesses["obstruction_covers"]
    assert all(c["mapped_path"] == c["obstruction"] for c in covers)


def test_inadprod_42():
    rep = V.verify_inadprod(4, 2)
    assert rep.passed and len(rep.witnesses["into_factors"]) == 5


def test_mulpath_p2_p3():
    rep = V.verify_mulpath([path(2), path(3)], 2)
    assert rep.passed and rep.witnesses["product_maps"]


def test_mulpath_single_factor():
    rep = V.verify_mulpath([tournament(3)], 2)
    assert rep.passed


def test_mulpath_sweep():
    assert V.verify_mulpath_sweep(samples=30, seed=71).passed


def test_hompath_forward_path_target():
    rep = V.verify_hompath(path(3), 3)
    assert rep.passed and rep.witnesses["maps_to_path"] and not rep.witnesses["steep_path_found"]


def test_hompath_directed_triangle():
    rep = V.verify_hompath(make_digraph(3, [(0, 1), (1, 2), (2, 0)]), 1)
    assert rep.passed
    assert rep.witnesses["witness_path"] == "++"


def test_hompath_sweep():
    assert V.verify_hompath_sweep(samples=30, seed=73).passed


def test_steep_path_trivial_spans():
    for ell in (1, 2, 3):
        res = find_steep_path(ell)
        assert res.path.dirs == "+" * ell
    assert len(find_steep_path(3).factor_homs) == 1


def test_steep_path_guard():
    with pytest.raises(SizeLimitExceeded):
        find_steep_path(7)
    with pytest.raises(ValueError):
        find_steep_path(0)


def test_steep_path_span_four():
    res = find_steep_path(4)
    assert res.path.algebraic_length() == 4
    assert res.path.dirs == "++-++-++"  # regression: search is deterministic
    assert len(res.factor_homs) == 7
    qd = res.path.as_digraph()
    for hom, member in zip(res.factor_homs, res.family):
        assert validate_hom(hom, qd, member.as_digraph())
    assert hom_exists(qd, path(3)) is None


#: Pinned steep paths: 25 arcs over the 46 members of path_family(9, 2) and
#: 90 arcs over the 299 members of path_family(12, 3).
STEEP_PATHS = {
    5: "++-+-++--++-+-++--++-+-++",
    6: "++-+-+-++-+--+-++-+-+-++--+-+-+--++-+-+-++-+--+-++-+-+-++--+-+-+--++-+-+-++-+--+-++-+-+-++",
}


@pytest.mark.parametrize("ell", [5, 6])
def test_steep_path_spans_five_and_six(ell):
    res = find_steep_path(ell)
    assert res.path.dirs == STEEP_PATHS[ell]
    assert res.path.algebraic_length() == ell
    assert len(res.factor_homs) == len(res.family) == {5: 46, 6: 299}[ell]
    qd = res.path.as_digraph()
    for hom, member in zip(res.factor_homs, res.family):
        assert validate_hom(hom, qd, member.as_digraph())
    assert hom_exists(qd, path(ell - 1)) is None


def test_steep_path_four_is_least_shortest():
    # Every pattern of at most 8 arcs from level 0 to level 4 within 0..4, in
    # lexicographic order ('+' first), tried against the family by hom_exists.
    members = [p.as_digraph() for p in path_family(6, 1)]
    mapping = {}
    for m in range(1, 9):
        for dirs in product("+-", repeat=m):
            q = OrientedPath("".join(dirs))
            levels = q.levels()
            if min(levels) == 0 and max(levels) <= 4 and levels[-1] == 4:
                qd = q.as_digraph()
                mapping[q.dirs] = all(isinstance(hom_exists(qd, f), Hom) for f in members)
    assert not any(ok for dirs, ok in mapping.items() if len(dirs) < 8)
    # The least 8-arc pattern that maps is also the only one.
    assert [dirs for dirs, ok in mapping.items() if ok] == ["++-++-++"]
    assert find_steep_path(4).path.dirs == "++-++-++"


def test_steep_consequence_skips_low_chromatic():
    res = find_steep_path(3)
    rep = V.verify_steep_consequence(res, [complete(3), complete(4), tournament(4)])
    assert rep.passed
    outcomes = rep.witnesses["outcomes"]
    assert outcomes[0].get("skipped") and outcomes[1]["hom_found"]


def test_steep_path_claims_need_no_search(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("a steep-path claim ran the budgeted search")

    monkeypatch.setattr(V, "hom_exists", no_search)
    assert V.verify_steep_path(ell=4, consequence_samples=5).verdict == V.PASS
    rep = V.verify_steep_consequence(find_steep_path(3), [complete(4), tournament(4)])
    assert rep.verdict == V.PASS


def test_steep_path_without_a_hom_is_fail_and_lists_every_target(monkeypatch):
    real = V.tree_hom
    k4 = complete(4)
    monkeypatch.setattr(V, "tree_hom", lambda t, g: None if g == k4 else real(t, g))
    rep = V.verify_steep_path(ell=4, consequence_samples=3)
    assert rep.verdict == V.FAIL
    assert rep.witnesses["consequence"] == [
        {"target": "K_4", "hom_found": False},
        {"target": "T_4", "hom_found": True},
        *({"target": f"random[{i}]", "hom_found": True} for i in range(3)),
    ]


def test_width1_completeness_searches_only_where_arc_consistency_says_yes(monkeypatch):
    real = V.hom_exists
    calls = []
    monkeypatch.setattr(V, "hom_exists", lambda g, h, *args: calls.append(1) or real(g, h, *args))
    rep = V.verify_width1_completeness()
    assert rep.verdict == V.PASS and rep.witnesses["checked"] == 2_028
    assert len(calls) == 355


def test_h_function_k1():
    res = h_function(1)
    assert res.value == 3 and res.argmin.dirs == "+++"
    assert [row["chi"] for row in res.rows] == [3]


def test_h_function_guards():
    with pytest.raises(ValueError):
        h_function(0)
    with pytest.raises(SizeLimitExceeded):
        h_function(4)


def test_h_function_budget_and_mismatch(monkeypatch):
    from dataclasses import replace

    from digraphlab import BUDGET_EXCEEDED

    assert h_function(2, budget=1) is BUDGET_EXCEEDED
    # a decided cross-check that disagrees is a failed row, and the verifier
    # says FAIL, not ERROR or INDETERMINATE
    real = V.chromatic_number
    monkeypatch.setattr(V, "chromatic_number", lambda g, **kw: replace(real(g), chi=real(g).chi + 1))
    res = h_function(1)
    assert res.rows and not any(row["cross_checked"] for row in res.rows)
    assert V.verify_h_function(1).verdict == V.FAIL
    assert V.run_job(("h", "h-function", {"k": 1})).verdict == V.FAIL


def test_h_function_k3_runs_out_of_colouring_budget():
    # the 4th member's dual (256 vertices) needs far more than 20,000
    # colour assignments; the first three finish well inside the budget
    from digraphlab import BUDGET_EXCEEDED

    assert h_function(3, budget=20_000) is BUDGET_EXCEEDED


def test_chick_table_small():
    rep = V.verify_chick_table(max_k=2, max_n=6)
    assert rep.passed


@pytest.mark.parametrize("n", [3, 4])
def test_finobs_check_on_a_shared_target_matches_standalone_finobs(n):
    k = 2
    target = interleaved_adjoint(tournament(n), k)
    paths = V._finobs_paths(n, k)
    for g in V.all_digraphs(2):
        rep = V.verify_finobs(g, n, k)
        shared = V._finobs_check(g, n, k, target, paths, V.DEFAULT_BUDGET)
        assert shared == (rep.params, rep.verdict, rep.witnesses)


def test_chi3k_k1():
    rep = V.verify_chi3k(1)
    assert rep.passed and rep.witnesses["chi"] == 3


def test_yz_42():
    assert V.verify_yz(4, 2).passed


def test_finobs_exhaustive_tiny():
    rep = V.verify_finobs_exhaustive(3, 2, max_vertices=2)
    assert rep.passed and rep.witnesses["checked"] == 19


def test_digraph_class_counts_and_sizes():
    classes = V.digraph_classes(4)
    # OEIS A000595: digraphs with loops allowed on n unlabelled vertices
    assert [sum(g.n == n for g, _ in classes) for n in range(5)] == [1, 2, 10, 104, 3044]
    for n in range(5):
        assert sum(size for g, size in classes if g.n == n) == 2 ** (n * n)
    assert [g.n for g, _ in classes] == sorted(g.n for g, _ in classes)
    assert V.digraph_classes(-1) == []


def test_every_labelled_digraph_falls_in_exactly_one_class():
    classes = V.digraph_classes(3)
    members = [0] * len(classes)
    for g in V.all_digraphs(3):
        hits = [i for i, (r, _) in enumerate(classes) if brute_isomorphic(g, r)]
        assert len(hits) == 1
        members[hits[0]] += 1
    assert members == [size for _, size in classes]


def test_class_sweeps_match_labelled_sweeps_at_two_vertices():
    n, k, budget = 3, 2, V.DEFAULT_BUDGET
    target = interleaved_adjoint(tournament(n), k)
    paths = V._finobs_paths(n, k)
    trees = V.oriented_trees(2)
    classes = V.digraph_classes(2)

    def answers(g):
        _, verdict, w = V._finobs_check(g, n, k, target, paths, budget)
        duality = [
            (
                V._duality_check(t, [(g, 1)], budget)[1],
                hom_exists(g, tree_dual(t)) is not None,
                tree_hom(t, g) is not None,
            )
            for t in trees
        ]
        return verdict, w["no_hom_to_adjoint"], w["obstruction_found"], duality

    for g in V.all_digraphs(2):
        (rep,) = [r for r, _ in classes if brute_isomorphic(g, r)]
        assert answers(g) == answers(rep)

    labelled = V._sweep(
        V.VerifyReport("finobs", *V._finobs_check(g, n, k, target, paths, budget))
        for g in V.all_digraphs(2)
    )
    rep = V.verify_finobs_exhaustive(n, k, max_vertices=2)
    assert (rep.verdict, rep.witnesses) == labelled
    for t in trees:
        by_class = V._duality_check(t, classes, budget)
        by_label = V.verify_duality_tree(t, V.all_digraphs(2))
        assert by_class == (by_label.params, by_label.verdict, by_label.witnesses)
    assert V.verify_duality_tree_exhaustive(2, 2).params["sources"] == 19


def test_source_sweeps_refuse_five_vertices_before_building():
    for build in (V.digraph_classes, lambda m: next(V.all_digraphs(m))):
        with pytest.raises(SizeLimitExceeded):
            build(V.MAX_SOURCE_VERTICES + 1)
    with pytest.raises(SizeLimitExceeded):
        V.verify_finobs_exhaustive(3, 2, max_vertices=5)
    with pytest.raises(SizeLimitExceeded):
        V.verify_duality_tree_exhaustive(1, 5)


@pytest.mark.parametrize(
    "verifier, count",
    [
        (V.verify_gencol_sweep, "samples"),
        (V.verify_adjunction_sweep, "samples"),
        (V.verify_mulpath_sweep, "samples"),
        (V.verify_hompath_sweep, "samples"),
        (V.verify_oracle_equivalence, "samples"),
        (V.verify_width1_completeness, "random_sources"),
        (V.verify_steep_path, "consequence_samples"),
    ],
)
def test_negative_sample_count_is_refused(verifier, count):
    with pytest.raises(ValueError, match=f"{count} must be >= 0, got -1"):
        verifier(**{count: -1})


@pytest.mark.parametrize("n, k", [(0, 2), (3, 0), (3, 5), (-1, 1)])
def test_finobs_refuses_arguments_naming_the_given_k(n, k):
    for verifier in (lambda: V.verify_finobs(path(1), n, k), lambda: V.verify_finobs_exhaustive(n, k, 1)):
        with pytest.raises(ValueError, match=f"got n={n} k={k}$"):
            verifier()


def test_run_profile_quick_inline():
    reports = V.run_profile("quick")
    assert [r.claim for r in reports] == [job[0] for job in V.QUICK_PROFILE]
    assert all(r.verdict == V.PASS for r in reports)


def test_pass_witnesses_revalidate_independently():
    from digraphlab import arc_graph_iter, check_colouring

    g = tournament(5)
    rep = V.verify_gencol(g, 2)
    delta = arc_graph_iter(g, 2)
    iota = interleaved_adjoint(g, 2)
    assert validate_hom(Hom(tuple(rep.witnesses["even_projection_map"])), delta, iota)
    assert validate_hom(Hom(tuple(rep.witnesses["first_coordinate_map"])), iota, g)

    rep = V.verify_chi3k(2)
    iota = interleaved_adjoint(tournament(6), 2)
    assert check_colouring(iota, rep.witnesses["colouring"])

    rep = V.verify_yz(5, 2)
    from digraphlab import b_graph, circular_complete

    b = b_graph(5, 2)
    c = circular_complete(5, 2)
    assert validate_hom(Hom(tuple(rep.witnesses["forward"])), b, c)
    assert validate_hom(Hom(tuple(rep.witnesses["backward"])), c, b)

    rep = V.verify_finobs(tournament(5), 4, 2)
    p = V.OrientedPath(rep.witnesses["path"])
    assert validate_hom(Hom(tuple(rep.witnesses["path_hom"])), p.as_digraph(), tournament(5))


def test_equivalence_verifiers_agree_with_enumeration():
    # recompute each verifier's internal decisions with the raw oracle
    from digraphlab import brute_force_hom, tree_dual
    from digraphlab.paths import path_family

    rng = random.Random(103)
    for _ in range(12):
        g = V.random_digraph(rng, rng.randint(1, 3), rng.uniform(0.2, 0.7))

        n, k = 3, 2
        target = interleaved_adjoint(tournament(n), k)
        i = brute_force_hom(g, target) is None
        ii = any(
            brute_force_hom(p.as_digraph(), g) is not None for p in path_family(n, k - 1)
        )
        assert V.verify_finobs(g, n, k).passed and i == ii

        t = path(2)
        dual = tree_dual(t)
        assert (brute_force_hom(g, dual) is not None) == (brute_force_hom(t, g) is None)
        assert V.verify_duality_tree(t, [g]).passed

        assert V.verify_hompath(g, 2).passed
        h = V.random_digraph(rng, rng.randint(1, 3), rng.uniform(0.2, 0.7))
        assert V.verify_mulpath([g, h], 2).passed
        assert V.verify_adjunction(g, h, 2).passed


@pytest.mark.parametrize(
    "verifier, kwargs",
    [
        (V.verify_finobs_exhaustive, {"n": 3, "k": 2}),
        (V.verify_mulpath_sweep, {}),
        (V.verify_hompath_sweep, {}),
        (V.verify_oracle_equivalence, {}),
        (V.verify_duality_tree_exhaustive, {"max_tree_arcs": 2, "max_source_vertices": 2}),
        (V.verify_inadprod, {"n": 4, "k": 2}),
        (V.verify_yz, {"n": 4, "k": 2}),
        (V.verify_adjunction, {"g": complete(3), "h": complete(3), "k": 2}),
        (V.verify_width1_completeness, {"random_sources": 5}),
        (V.verify_h_function, {"k": 2}),
        (V.verify_minty, {"g": complete(4), "c": 3, "k": 2}),
    ],
)
def test_exhausted_budget_is_indeterminate(verifier, kwargs):
    rep = verifier(budget=1, **kwargs)
    assert rep.verdict == V.INDETERMINATE
    assert rep.witnesses == {"budget": 1}
    passed = verifier(**kwargs)
    assert passed.verdict == V.PASS and rep.params == passed.params


def test_failure_before_an_indeterminate_subcheck_is_kept(monkeypatch):
    real = V._finobs_check
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        params, verdict, witnesses = real(*args, **kwargs)
        if len(calls) == 2:
            return params, V.FAIL, witnesses
        if len(calls) == 5:
            return params, V.INDETERMINATE, {"budget": 1}
        return params, verdict, witnesses

    monkeypatch.setattr(V, "_finobs_check", flaky)
    rep = V.verify_finobs_exhaustive(3, 2, max_vertices=2)
    assert rep.verdict == V.FAIL
    assert rep.witnesses["checked"] == 4 and rep.witnesses["stopped_by"] == {"budget": 1}
    assert [f["index"] for f in rep.witnesses["failures"]] == [1]


@pytest.mark.parametrize(
    "verifier, kwargs",
    [
        (V.verify_duality_tree, {"t": path(2), "sources": [path(1), path(2), complete(3), tournament(3)]}),
        (V.verify_oracle_equivalence, {"samples": 10}),
        (V.verify_width1_completeness, {"random_sources": 5}),
    ],
)
def test_failure_before_an_exhausted_search_is_kept(monkeypatch, verifier, kwargs):
    # the first search answers wrongly and the third runs out of budget
    real = V.hom_exists
    calls = []

    def flaky(g, h, *args):
        calls.append(1)
        if len(calls) == 3:
            return V.BUDGET_EXCEEDED
        found = real(g, h, *args)
        if len(calls) == 1:
            return None if found is not None else Hom((0,) * g.n)
        return found

    monkeypatch.setattr(V, "hom_exists", flaky)
    rep = verifier(**kwargs)
    assert rep.verdict == V.FAIL
    # width1-completeness searches only where arc consistency says yes; it
    # refutes the looped one-vertex source into T_1, its third pair, unsearched
    checked = 3 if verifier is V.verify_width1_completeness else 2
    assert rep.witnesses["checked"] == checked and len(rep.witnesses["failures"]) == 1
    assert rep.witnesses["stopped_by"] == {"budget": V.DEFAULT_BUDGET}
