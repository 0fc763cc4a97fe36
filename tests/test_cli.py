import hashlib
import json
from dataclasses import replace

import pytest

from digraphlab import from_json, tournament
from digraphlab.cli import main
from digraphlab.verify import REGISTRY


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_tournament_stdout(capsys):
    code, out, _ = run(capsys, "construct", "--family", "tournament", "--n", "3")
    assert code == 0
    assert from_json(out) == tournament(3)


def test_construct_writes_file(tmp_path, capsys):
    target = tmp_path / "t6.json"
    code, _, _ = run(capsys, "construct", "--family", "tournament", "--n", "6", "--out", str(target))
    assert code == 0
    assert from_json(target.read_text()) == tournament(6)


def test_construct_refuses_more_vertices_than_the_limit(tmp_path, capsys):
    t3 = tmp_path / "t3.json"
    t3.write_text(json.dumps({"n": 3, "arcs": [[0, 1], [0, 2], [1, 2]]}))
    target = tmp_path / "out.json"
    for argv in (
        ["--family", "path", "--n", "250000"],
        ["--family", "iota-star", "--input", str(t3), "--k", "100000"],
    ):
        code, _, err = run(capsys, "construct", *argv, "--out", str(target))
        assert code == 2 and err.startswith("refused:")
        assert not target.exists()


def test_chi_of_adjoint_via_files(tmp_path, capsys):
    t6 = tmp_path / "t6.json"
    iota = tmp_path / "iota2_t6.json"
    run(capsys, "construct", "--family", "tournament", "--n", "6", "--out", str(t6))
    run(capsys, "construct", "--family", "iota", "--input", str(t6), "--k", "2", "--out", str(iota))
    code, out, _ = run(capsys, "chi", "--input", str(iota))
    assert code == 0 and out.strip() == "3"


def test_path_family_listing(capsys):
    code, out, _ = run(capsys, "construct", "--family", "path-family", "--n", "6", "--k", "1")
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == 7 and lines[0] == "++++++"


def test_hom_none_exits_zero(tmp_path, capsys):
    p2 = tmp_path / "p2.json"
    t2 = tmp_path / "t2.json"
    run(capsys, "construct", "--family", "path", "--n", "2", "--out", str(p2))
    run(capsys, "construct", "--family", "tournament", "--n", "2", "--out", str(t2))
    code, out, _ = run(capsys, "hom", "--source", str(p2), "--target", str(t2))
    assert code == 0
    assert json.loads(out) == {"result": "none"}


def test_hom_witness(tmp_path, capsys):
    p2 = tmp_path / "p2.json"
    t3 = tmp_path / "t3.json"
    run(capsys, "construct", "--family", "path", "--n", "2", "--out", str(p2))
    run(capsys, "construct", "--family", "tournament", "--n", "3", "--out", str(t3))
    code, out, _ = run(capsys, "hom", "--source", str(p2), "--target", str(t3))
    assert code == 0
    assert json.loads(out)["map"] == [0, 1, 2]


def test_construct_oriented_path_dirs(capsys):
    code, out, _ = run(capsys, "construct", "--family", "path", "--dirs", "+-+")
    g = from_json(out)
    assert code == 0 and g.n == 4 and g.arcs == ((0, 1), (2, 1), (2, 3))


def test_dot_output(capsys):
    code, out, _ = run(capsys, "construct", "--family", "path", "--n", "1", "--dot")
    assert code == 0 and "0 -> 1;" in out


def test_verify_gencol_on_file(tmp_path, capsys):
    t4 = tmp_path / "t4.json"
    run(capsys, "construct", "--family", "tournament", "--n", "4", "--out", str(t4))
    code, out, _ = run(capsys, "verify", "--claim", "gencol", "--input", str(t4), "--k", "2")
    assert code == 0 and out.startswith("[PASS] gencol")


def test_verify_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--claim", "yz-both-ways", "--n", "4", "--k", "2", "--json")
    code2, out2, _ = run(capsys, "verify", "--claim", "yz-both-ways", "--n", "4", "--k", "2", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "timing_ms" not in json.loads(out1)


def test_verify_timings_flag(capsys):
    _, out, _ = run(capsys, "verify", "--claim", "yz-both-ways", "--n", "4", "--k", "2", "--json", "--timings")
    assert "timing_ms" in json.loads(out)


def test_construct_deterministic_bytes(capsys):
    _, out1, _ = run(capsys, "construct", "--family", "circular", "--n", "6", "--k", "2")
    _, out2, _ = run(capsys, "construct", "--family", "circular", "--n", "6", "--k", "2")
    assert out1 == out2


def test_find_steep_path_small(capsys):
    code, out, _ = run(capsys, "find-steep-path", "--ell", "3")
    lines = out.splitlines()
    assert code == 0 and lines[0] == "+++" and "[PASS]" in lines[-1]


def test_find_steep_path_span_five(capsys):
    code, out, _ = run(capsys, "find-steep-path", "--ell", "5")
    lines = out.splitlines()
    assert code == 0 and lines[0] == "++-+-++--++-+-++--++-+-++"


def test_find_steep_path_guard(capsys):
    code, _, err = run(capsys, "find-steep-path", "--ell", "7")
    assert code == 2 and "refused" in err


def test_h_function_table(capsys):
    code, out, _ = run(capsys, "h-function", "--k", "1")
    assert code == 0 and "h(1) = 3" in out


def test_h_function_json(capsys):
    code, out, _ = run(capsys, "h-function", "--k", "1", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["value"] == 3 and payload["k"] == 1


def test_h_function_budget_exhaustion_exits_two(capsys):
    code, out, err = run(capsys, "h-function", "--k", "2", "--budget", "1")
    assert code == 2 and json.loads(out) == {"result": "budget_exceeded", "budget": 1}
    assert err == ""


#: `h-function` argv -> (exit code, sha256 of stdout), taken while the
#: subcommand still called `h_function` directly instead of its verifier.
H_FUNCTION_CLI_DIGESTS = {
    "--k 1": (0, "b994ea904cc26d0e0cfa9d7b792a978f54c424df2559ca9ed54f6a56d6cc52d2"),
    "--k 2": (0, "57eed98f3341d6516a5f3cf4e69265c9fdaba795a4a1f2e9b8b3dc2ffde27941"),
    "--k 2 --json": (0, "84652effa8508527fdaf98923a7400cfe7cf71b802cd63af97af04071b2f1b11"),
    "--k 2 --budget 1": (2, "3eb1a2fb19337b7058821c3437cf69f4ee68c3cfcb79e0b985e06a6d85d07863"),
}


@pytest.mark.parametrize("argv", H_FUNCTION_CLI_DIGESTS)
def test_h_function_cli_bytes_are_pinned(capsys, argv):
    import hashlib

    code, out, err = run(capsys, "h-function", *argv.split())
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == H_FUNCTION_CLI_DIGESTS[argv]
    assert err == ""


def test_h_function_fails_when_its_verifier_does(capsys, monkeypatch):
    """The subcommand exits 1 on the verifier's FAIL, here its value <= 3k
    check, and still prints the table."""
    from digraphlab import verify as V

    real = V.h_function
    monkeypatch.setattr(V, "h_function", lambda k, budget: replace(real(k, budget), value=3 * k + 1))
    code, out, _ = run(capsys, "h-function", "--k", "1")
    assert code == 1 and "h(1) = 4" in out


def test_h_function_cross_check_failure_exits_one_with_its_table(capsys, monkeypatch):
    from digraphlab import verify as V

    real = V.chromatic_number
    monkeypatch.setattr(V, "chromatic_number", lambda g, **kw: replace(real(g), chi=real(g).chi + 1))
    assert V.verify_h_function(1).verdict == "FAIL"
    code, out, err = run(capsys, "h-function", "--k", "1")
    lines = out.splitlines()
    assert code == 1 and err == ""
    assert lines == ["+++  chi(dual)=4  dual_vertices=4", "h(1) = 4  argmin +++"]


#: `find-steep-path` argv -> (exit code, sha256 of stdout), taken while the
#: subcommand had its own runner instead of `verify --claim steep-path`'s.
FIND_STEEP_PATH_CLI_DIGESTS = {
    "--ell 3": (0, "989e50c0bb8c1e8d30c8e93e2adaac69f191f9fc9e01c86eb51ba1a8b64248aa"),
    "--ell 5": (0, "d2bd7383dd1fd40ddbbb5f545ec57896ba1b284005b12bce46a155fa708f68ef"),
    "--ell 4 --check-consequence 20": (0, "613f45abaee8699723b126f4acbaf50d3bf6d0c8e8d999783fc6a2e5aa0690f2"),
    "--ell 5 --json": (0, "ece74dc4a80e399c2ff34ea717b5432cb5746ecf94b317e08bc7804562eea8d4"),
}


@pytest.mark.parametrize("argv", FIND_STEEP_PATH_CLI_DIGESTS)
def test_find_steep_path_cli_bytes_are_pinned(capsys, argv):
    import hashlib

    code, out, err = run(capsys, "find-steep-path", *argv.split())
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == FIND_STEEP_PATH_CLI_DIGESTS[argv]
    assert err == ""


def test_find_steep_path_has_no_budget(capsys):
    """The steep path is a tree source, so no search of the claim can run
    out: `find-steep-path` has no --budget and `verify` ignores it."""
    argv = ["--claim", "steep-path", "--ell", "4", "--check-consequence", "1"]
    code, out, err = run(capsys, "verify", *argv, "--budget", "1")
    assert (code, out, err) == run(capsys, "verify", *argv)
    assert code == 0 and out.startswith("[PASS] steep-path")
    with pytest.raises(SystemExit) as e:
        main(["find-steep-path", "--ell", "4", "--budget", "1"])
    assert e.value.code == 3


#: Claims that `verify --claim` runs at their defaults, each checked against
#: the direct registry call.
AT_DEFAULTS = ["chick-table", "gencol-tightness", "oracle-equivalence", "width1-completeness", "steep-path"]


@pytest.mark.parametrize("claim", list(REGISTRY))
def test_verify_reaches_every_registered_claim(capsys, claim):
    from digraphlab.cli import build_parser

    assert build_parser().parse_args(["verify", "--claim", claim]).claim == claim
    if claim == "steep-consequence":
        code, out, err = run(capsys, "verify", "--claim", claim)
        assert code == 3 and out == ""
        assert err == "error: steep-consequence needs result: SteepPathResult, which no flag sets\n"
    elif claim in ("chi3k", "h-function"):
        code, out, err = run(capsys, "verify", "--claim", claim)
        assert code == 3 and out == "" and err == "error: --k is required for this claim\n"
    elif claim in AT_DEFAULTS:
        code, out, _ = run(capsys, "verify", "--claim", claim, "--json")
        direct = REGISTRY[claim]().to_json_dict(include_timing=False)
        assert code == 0 and out == json.dumps(direct, separators=(",", ":")) + "\n"


@pytest.mark.parametrize(
    "claim, argv",
    [
        ("yz-both-ways", "verify --claim yz-both-ways --n 4 --k 2"),
        ("gencol-sweep", "verify --claim gencol --samples 2"),
        ("steep-path", "find-steep-path --ell 3"),
        ("h-function", "h-function --k 1"),
    ],
)
def test_crashing_verifier_is_error_and_exits_four(capsys, monkeypatch, claim, argv):
    from functools import wraps

    from digraphlab import verify as V

    def boom(*args, **kwargs):
        raise ZeroDivisionError("boom")

    monkeypatch.setitem(V.REGISTRY, claim, wraps(V.REGISTRY[claim])(boom))
    code, out, err = run(capsys, *argv.split(), "--json")
    assert code == 4 and err == ""
    report = json.loads(out)
    assert report["claim"] == claim and report["verdict"] == "ERROR" and report["seed"] is None
    assert report["witnesses"] == {"error": "ZeroDivisionError: boom"}
    code, out, _ = run(capsys, *argv.split())
    assert code == 4 and out.startswith(f"[ERROR] {claim} ") and "ZeroDivisionError: boom" in out


def test_verifier_raising_a_usage_error_or_guard_keeps_its_exit_code(capsys, monkeypatch):
    from functools import wraps

    from digraphlab import verify as V
    from digraphlab.core import SizeLimitExceeded

    def refuse(*args, **kwargs):
        raise SizeLimitExceeded("probe", 9, 4)

    def reject(*args, **kwargs):
        raise ValueError("bad probe")

    real = V.REGISTRY["yz-both-ways"]
    monkeypatch.setitem(V.REGISTRY, "yz-both-ways", wraps(real)(refuse))
    code, out, err = run(capsys, "verify", "--claim", "yz-both-ways", "--n", "4", "--k", "2")
    assert code == 2 and out == "" and err.startswith("refused: probe")
    monkeypatch.setitem(V.REGISTRY, "yz-both-ways", wraps(real)(reject))
    code, out, err = run(capsys, "verify", "--claim", "yz-both-ways", "--n", "4", "--k", "2")
    assert code == 3 and out == "" and err == "error: bad probe\n"


def test_verify_claim_steep_path_is_find_steep_path(capsys):
    """`find-steep-path` is a spelling of `verify --claim steep-path` whose
    --check-consequence defaults to 0."""
    argv = ["--ell", "3", "--check-consequence", "2", "--seed", "4", "--json"]
    assert run(capsys, "verify", "--claim", "steep-path", *argv) == run(capsys, "find-steep-path", *argv)
    _, out, _ = run(capsys, "find-steep-path", "--ell", "3", "--json")
    assert json.loads(out)["params"]["consequence_samples"] == 0


def test_h_function_failure_before_an_exhausted_row_prints_the_report(capsys, monkeypatch):
    """The first row's chi is one too high and the third row runs out: the
    failed row is kept, FAIL with ``stopped_by``, printed as the report."""
    from digraphlab import verify as V

    real = V.chromatic_number
    calls = []

    def flaky(g, **kw):
        calls.append(1)
        if len(calls) == 3:
            return V.BUDGET_EXCEEDED
        res = real(g, **kw)
        return replace(res, chi=res.chi + 1) if len(calls) == 1 else res

    monkeypatch.setattr(V, "chromatic_number", flaky)
    code, out, err = run(capsys, "h-function", "--k", "2", "--json")
    report = json.loads(out)
    assert code == 1 and err == "" and report["verdict"] == "FAIL"
    assert report["witnesses"] == {
        "checked": 2,
        "failures": [{"path": "++++++", "dual_vertices": 32, "chi": 7, "cross_checked": False}],
        "stopped_by": {"budget": V.DEFAULT_BUDGET},
    }


def test_minty_path_search_out_of_budget_is_an_error(tmp_path, capsys, monkeypatch):
    """A path search cannot run out within its own length; if it does, the
    engine is at fault: ERROR, exit 4, never INDETERMINATE."""
    from digraphlab import verify as V

    monkeypatch.setattr(V, "hom_exists", lambda *args: V.BUDGET_EXCEEDED)
    k4 = _graph_files(tmp_path)("k4")
    code, out, err = run(capsys, "verify", "--claim", "minty", "--input", k4, "--c", "3", "--k", "2", "--json")
    assert code == 4 and err == ""
    assert json.loads(out)["verdict"] == "ERROR"


def test_h_function_k3_colouring_budget_exits_two(capsys):
    code, out, err = run(capsys, "h-function", "--k", "3", "--budget", "20000")
    assert code == 2 and json.loads(out) == {"result": "budget_exceeded", "budget": 20000}
    assert err == ""


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        main(["chi", "--input", "x.json", "--frobnicate"])
    assert e.value.code == 3


def test_missing_required_param(capsys):
    code, _, err = run(capsys, "construct", "--family", "tournament")
    assert code == 3 and "--n" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "chi", "--input", "/nonexistent/g.json")
    assert code == 3


def test_directory_as_file_is_usage_error(tmp_path, capsys):
    code, out, err = run(capsys, "chi", "--input", str(tmp_path))
    assert code == 3 and out == "" and err.startswith("error: ")
    code, _, err = run(capsys, "construct", "--family", "tournament", "--n", "3", "--out", str(tmp_path))
    assert code == 3 and err.startswith("error: ")


@pytest.mark.parametrize(
    "bad", [{"n": 3, "arcs": 5}, {"n": True, "arcs": []}, {"n": 3, "arcs": [[0.9, 2.2]]}]
)
def test_malformed_json_input_is_usage_error(tmp_path, capsys, bad):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(bad))
    code, out, _ = run(capsys, "chi", "--input", str(src))
    assert code == 3 and out == ""


def test_hom_budget_exceeded_exit(tmp_path, capsys):
    c7 = tmp_path / "c7.json"
    c5 = tmp_path / "c5.json"
    c7.write_text(json.dumps({"n": 7, "arcs": [[i, (i + 1) % 7] for i in range(7)]}))
    c5.write_text(json.dumps({"n": 5, "arcs": [[i, (i + 1) % 5] for i in range(5)]}))
    code, out, _ = run(capsys, "hom", "--source", str(c7), "--target", str(c5), "--budget", "2")
    assert code == 2 and json.loads(out)["result"] == "budget_exceeded"


@pytest.mark.parametrize(
    "argv, params",
    [
        ("--claim mulpath --samples 2 --max-vertices 2", {"samples": 2, "max_vertices": 2, "max_n": 3}),
        ("--claim hompath --samples 2 --max-vertices 2", {"samples": 2, "max_vertices": 2, "max_n": 3}),
        ("--claim gencol --samples 0", {"samples": 0, "max_vertices": 5, "k": 2}),
    ],
)
def test_verify_passes_every_flag_the_verifier_takes(capsys, argv, params):
    code, out, _ = run(capsys, "verify", *argv.split(), "--json")
    report = json.loads(out)
    assert code == 0 and report["params"] == params
    assert report["witnesses"]["checked"] == params["samples"]


@pytest.mark.parametrize(
    "argv, params",
    [
        ("--claim chick-table --max-k 2 --max-n 5", {"max_k": 2, "max_n": 5}),
        ("--claim chick-table --max-n 3", {"max_k": 3, "max_n": 3}),
        ("--claim width1-completeness --random-sources 3",
         {"max_target_n": 6, "max_target_k": 2, "random_sources": 3, "max_source_vertices": 6}),
        ("--claim adjunction --samples 2 --max-k 1", {"samples": 2, "max_vertices": 4, "max_k": 1}),
        ("--claim mulpath --samples 2 --max-n 2", {"samples": 2, "max_vertices": 4, "max_n": 2}),
        ("--claim hompath --samples 2 --max-n 1", {"samples": 2, "max_vertices": 4, "max_n": 1}),
    ],
)
def test_verify_sweep_size_flags_are_echoed_in_params(capsys, argv, params):
    code, out, _ = run(capsys, "verify", *argv.split(), "--json")
    report = json.loads(out)
    assert code == 0 and report["verdict"] == "PASS" and report["params"] == params


def test_chick_table_flags_bound_the_table(capsys):
    code, out, _ = run(capsys, "verify", "--claim", "chick-table", "--max-k", "4", "--max-n", "12", "--json")
    rows = json.loads(out)["witnesses"]["table"]
    assert code == 0 and len(rows) == 32
    assert {(r["k"], r["n"]) for r in rows} == {(k, n) for k in range(1, 5) for n in range(2 * k, 13)}


@pytest.mark.parametrize(
    "argv, flag",
    [
        ("--claim inadprod --n 3", "--k"),
        ("--claim minty --c 3 --k 2", "--input"),
        ("--claim finobs --k 2", "--n"),
    ],
)
def test_verify_missing_argument_is_usage_error(capsys, argv, flag):
    code, out, err = run(capsys, "verify", *argv.split())
    assert code == 3 and out == "" and f"{flag} is required for this claim" in err


@pytest.mark.parametrize(
    "argv",
    [
        "verify --claim duality-tree --max-tree-arcs 1 --max-vertices 5",
        "verify --claim duality-tree --tree @p2 --max-vertices 5",
        "verify --claim finobs --n 3 --k 2 --max-vertices 5",
    ],
)
def test_source_sweep_past_four_vertices_is_refused(tmp_path, capsys, argv):
    file_of = _graph_files(tmp_path)
    args = [file_of(a[1:]) if a.startswith("@") else a for a in argv.split()]
    code, out, err = run(capsys, *args)
    assert code == 2 and out == "" and err.startswith("refused: source digraphs: size 5 exceeds limit 4")


def test_duality_tree_sweeps_one_source_per_class(tmp_path, capsys, monkeypatch):
    from digraphlab import verify

    calls = []
    tree_hom = verify.tree_hom
    monkeypatch.setattr(verify, "tree_hom", lambda t, g: calls.append(g) or tree_hom(t, g))
    code, out, _ = run(capsys, "verify", "--claim", "duality-tree", "--tree",
                       _graph_files(tmp_path)("p2"), "--max-vertices", "4", "--json")
    assert code == 0 and json.loads(out)["witnesses"]["checked"] == 66_067
    assert len(calls) == len(verify.digraph_classes(4)) == 3_161


@pytest.mark.parametrize(
    "argv",
    [
        "verify --claim gencol --samples -1",
        "verify --claim adjunction --samples -1",
        "verify --claim mulpath --samples -1",
        "verify --claim hompath --samples -1",
        "find-steep-path --ell 3 --check-consequence -1",
    ],
)
def test_negative_sample_count_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 3 and out == "" and "must be >= 0, got -1" in err


def test_finobs_usage_error_names_the_given_k(capsys):
    code, out, err = run(capsys, "verify", "--claim", "finobs", "--n", "0", "--k", "2")
    assert code == 3 and out == ""
    assert err == "error: finobs needs n >= 0 and 1 <= k <= n + 1, got n=0 k=2\n"


@pytest.mark.parametrize("claim", ["finobs", "mulpath", "hompath"])
def test_verify_budget_exhaustion_exits_two(capsys, claim):
    code, out, _ = run(capsys, "verify", "--claim", claim, "--n", "3", "--k", "2", "--budget", "1", "--json")
    assert code == 2 and json.loads(out)["verdict"] == "INDETERMINATE"


def test_verify_all_quick(capsys):
    code, out, _ = run(capsys, "verify-all", "--profile", "quick")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert lines[-1].endswith("PASS")
    assert any("chick-table" in l for l in lines)


def test_verify_all_json(capsys):
    code, out, _ = run(capsys, "verify-all", "--profile", "quick", "--json")
    reports = json.loads(out)
    assert code == 0 and all(r["verdict"] == "PASS" for r in reports)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3d5f6522eebbdeb62c25909effc8f9b45bf7db243854d8f98d951713244b1c93"
    )


def test_verify_all_full_json_is_pinned(capsys):
    # taken before `verify` gained --random-sources, --max-k and --max-n
    code, out, _ = run(capsys, "verify-all", "--profile", "full", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f984ede31a852b13a8c66c2028400eb79e869b0907d1f6d6137232dfaa49d65b"
    )


def test_verify_all_profiles_come_from_the_registry(capsys, monkeypatch):
    from digraphlab import verify as V

    monkeypatch.setitem(V.PROFILES, "tiny", V.QUICK_PROFILE[:2])
    code, out, _ = run(capsys, "verify-all", "--profile", "tiny", "--json")
    assert code == 0 and [r["claim"] for r in json.loads(out)] == ["chick-table", "chi3k[k=1]"]
    with pytest.raises(SystemExit) as e:
        main(["verify-all", "--workers", "2"])
    assert e.value.code == 3


def test_crashed_job_is_error_and_exits_four(capsys, monkeypatch):
    from digraphlab import verify as V

    def boom(**kwargs):
        raise ZeroDivisionError("boom")

    jobs = V.QUICK_PROFILE[:4]  # chick-table, chi3k[k=1], chi3k[k=2], gencol-sweep
    monkeypatch.setitem(V.PROFILES, "quick", jobs)
    monkeypatch.setitem(V.REGISTRY, "chi3k", boom)
    code, out, _ = run(capsys, "verify-all", "--profile", "quick", "--json")
    reports = json.loads(out)
    assert code == 4
    assert [r["verdict"] for r in reports] == ["PASS", "ERROR", "ERROR", "PASS"]
    assert reports[1] == {
        "claim": "chi3k[k=1]",
        "params": {"k": 1},
        "verdict": "ERROR",
        "witnesses": {"error": "ZeroDivisionError: boom"},
        "seed": None,
    }

    # A FAIL still decides the exit code.
    fail = V.REGISTRY["chick-table"](max_k=1, max_n=3)
    monkeypatch.setitem(V.REGISTRY, "chick-table", lambda **kwargs: replace(fail, verdict=V.FAIL))
    code, _, _ = run(capsys, "verify-all", "--profile", "quick")
    assert code == 1


def test_fail_verdict_maps_to_exit_one(capsys):
    from types import SimpleNamespace

    from digraphlab.cli import _report_out
    from digraphlab.verify import VerifyReport

    args = SimpleNamespace(json=False, timings=False)
    report = VerifyReport("probe", {}, "FAIL", {"counterexample": [1, 2]})
    assert _report_out(args, report) == 1
    out = capsys.readouterr().out
    assert "[FAIL] probe" in out and "counterexample" in out


def _graph_files(tmp_path):
    from digraphlab import complete, make_digraph, path, to_json

    graphs = {
        "t4": tournament(4),
        "t5": tournament(5),
        "k4": complete(4),
        "p1": path(1),
        "p2": path(2),
        "p3": path(3),
        "c3": make_digraph(3, [(0, 1), (1, 2), (2, 0)]),
    }
    for name, g in graphs.items():
        (tmp_path / f"{name}.json").write_text(to_json(g))
    return lambda name: str(tmp_path / f"{name}.json")


#: `verify ... --json` argv ("@name" is a graph file) -> sha256 of stdout,
#: taken before the verifiers shared one registry and one sweep helper.
VERIFY_CLI_DIGESTS = {
    "--claim gencol --samples 5":
        "ef3bdcdb5ec04f6e6e15682a6d9244e4213f9aea3459d11bed048fe1aa4e4f10",
    "--claim gencol --input @t4":
        "952f824c256f28d0cea91972708de3c2dac85d01c7de8b4021078a6447bd4208",
    "--claim adjunction --samples 5":
        "f0e945539b378e4d2699c3e9ad45214447724c9efdb174c6ef328b33207d0545",
    "--claim adjunction --source @p1 --target @t4":
        "5438bc5dc566ed07afced41f9822096d3ee19e6350cf16728578f3e6b8e233eb",
    "--claim finobs --n 3 --k 2 --max-vertices 2":
        "316de75e1274c67d315443158430513adc9ea46a35795bb0bbb1c1e13e8c6483",
    "--claim finobs --input @t5 --n 4 --k 2":
        "5a2c5f9e9e588d9a75f02b87a0bf4ee8a3df88b54fec01d79c6a7b0d71d8be2d",
    "--claim minty --input @k4 --c 3 --k 2":
        "24c16e988788d84902e74e94bd1d348d56435c0af2db1a0d6399277e20c208d2",
    "--claim minty --input @k4 --c 3 --k 2 --budget 1":
        "24c16e988788d84902e74e94bd1d348d56435c0af2db1a0d6399277e20c208d2",
    "--claim duality-tree --max-tree-arcs 2 --max-vertices 2":
        "4b422beb91a335e8a20464a9857620e77e4953f9a17ec464d82e4b8b18c15ba3",
    "--claim duality-tree --tree @p2":
        "e64a46d2b1e4cd6c59f1c455ba364b25672a0b78b780bfc90e49ff50bd5ef835",
    "--claim duality-tree --tree @p2 --max-vertices 2":
        "0914af9d972baaf007e2b8aaacd089a420824597813c7244f4c865762f2ac93c",
    "--claim duality-tree --tree @p2 --max-vertices 4":
        "7a540aa4d5533d6cf530a9ee1476215a5ef29862c0ed0eb10d8857503a78164d",
    "--claim inadprod --n 3 --k 1":
        "633a92e6ec3da02968f7eceb70cc1f8b712abf86d5459dd2e0353cc43961ce08",
    "--claim mulpath --samples 3":
        "0ff9e0a798d7a03e582ad670a646ba56c0f5c9e74905582c861d5ed4fb3f30a3",
    "--claim mulpath --factors @p2 @p3 --n 2":
        "1bfb81c61dfd9269d2e12a640616d7f4445c2c3b5cb5a55641e6173c30c087c2",
    "--claim hompath --samples 3 --seed 5":
        "879692c352c84e516d8c74eed10801e8a391b66f4112ac7775181d801e4d3a2c",
    "--claim hompath --input @c3 --n 1":
        "8279f11d8ada42a52135bfb399e8fae5f4126b9de1f87fe5933c5b51ca48a250",
    "--claim yz-both-ways --n 4 --k 2":
        "6930ad39f9498a33684eb7ad5d85bfc6562d076cf03f28c3305e21fc10b985f0",
}


@pytest.mark.parametrize("argv", VERIFY_CLI_DIGESTS)
def test_verify_cli_bytes_are_pinned(tmp_path, capsys, argv):
    import hashlib

    file_of = _graph_files(tmp_path)
    args = [file_of(a[1:]) if a.startswith("@") else a for a in argv.split()]
    code, out, _ = run(capsys, "verify", *args, "--json")
    assert code == 0 and json.loads(out)["verdict"] == "PASS"
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_CLI_DIGESTS[argv]


def _dot(name, n, arcs):
    body = [f'  label="{name}";'] + [f"  {v};" for v in range(n)] + [f"  {u} -> {v};" for u, v in arcs]
    return "\n".join(["digraph {", *body, "}"]) + "\n"


#: factor file names -> (JSON stdout, DOT stdout) of `construct --family product`.
PRODUCT_CLI_OUTPUT = {
    ("p1", "c3"): (
        '{"n":6,"arcs":[[0,4],[1,5],[2,3]],"name":"product(P_1,C3)"}\n',
        _dot("product(P_1,C3)", 6, [(0, 4), (1, 5), (2, 3)]),
    ),
    ("p1", "k2", "c3"): (
        '{"n":12,"arcs":[[0,10],[1,11],[2,9],[3,7],[4,8],[5,6]],"name":"product(P_1,K_2,C3)"}\n',
        _dot("product(P_1,K_2,C3)", 12, [(0, 10), (1, 11), (2, 9), (3, 7), (4, 8), (5, 6)]),
    ),
    # one factor is printed unchanged
    ("c3",): (
        '{"n":3,"arcs":[[0,1],[1,2],[2,0]],"name":"C3"}\n',
        _dot("C3", 3, [(0, 1), (1, 2), (2, 0)]),
    ),
}


@pytest.mark.parametrize("factors", PRODUCT_CLI_OUTPUT, ids="x".join)
def test_construct_product_bytes_are_pinned(tmp_path, capsys, factors):
    from digraphlab import complete, make_digraph, path, to_json

    graphs = {"p1": path(1), "k2": complete(2), "c3": make_digraph(3, [(0, 1), (1, 2), (2, 0)], name="C3")}
    files = []
    for name in factors:
        (tmp_path / f"{name}.json").write_text(to_json(graphs[name]))
        files.append(str(tmp_path / f"{name}.json"))
    as_json, as_dot = PRODUCT_CLI_OUTPUT[factors]
    assert run(capsys, "construct", "--family", "product", "--factors", *files) == (0, as_json, "")
    assert run(capsys, "construct", "--family", "product", "--factors", *files, "--dot") == (0, as_dot, "")


def test_dot_label_of_a_quoted_name_is_escaped(tmp_path, capsys):
    q = tmp_path / "q.json"
    q.write_text('{"n":2,"arcs":[[0,1]],"name":"say \\"hi\\""}')
    code, out, _ = run(capsys, "construct", "--family", "arc-graph", "--k", "0", "--input", str(q), "--dot")
    assert code == 0 and '  label="say \\"hi\\"";\n' in out
