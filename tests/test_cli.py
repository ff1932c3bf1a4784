import json

import pytest

from weylseed import cli, intervals, laurent
from weylseed.cartan import MAX_RANK, CartanMatrix, ReducedWord
from weylseed.cli import _dump, main
from weylseed.laurent import LaurentPoly
from weylseed.quiver import Seed
from weylseed.words import g_V

GAMMA7 = {"rank": 3, "edges": [[1, 2, 2], [2, 3, 1]], "word": [3, 1, 2, 3, 1, 2, 1]}
A4 = {
    "rank": 4,
    "edges": [[1, 2, 1], [2, 3, 1], [3, 4, 1]],
    "word": [3, 4, 2, 1, 3, 4, 2, 1],
}
PBW6 = {"rank": 3, "edges": [[1, 2, 1], [2, 3, 1]], "word": [2, 3, 1, 2, 3, 1]}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_gamma_golden_and_determinism(capsys, tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(GAMMA7))
    code, out1 = run(capsys, "gamma", "--input", str(path))
    assert code == 0
    code, out2 = run(capsys, "gamma", "--input", str(path))
    assert out1 == out2  # byte-identical reruns
    doc = json.loads(out1)
    assert doc["quiver"]["frozen"] == [5, 6, 7]
    assert [1, 2, 2] in doc["quiver"]["arrows"]


def test_mutate_and_modes(capsys):
    doc = dict(PBW6, path=[3, 2])
    code, out = run(capsys, "mutate", "--inline", json.dumps(doc))
    assert code == 0
    parsed = json.loads(out)
    assert parsed["provenance"] == [3, 2]
    code, out_spec = run(
        capsys, "mutate", "--inline", json.dumps(doc), "--mode", "specialized"
    )
    assert code == 0
    spec = json.loads(out_spec)
    for entry in spec["cluster"]:
        for term in entry["terms"]:
            assert all(e == 0 for e in term["exp"][3:])


def test_mutate_matrix_document(capsys):
    # A2 pentagon: mutating at 1, 2, 1, 2, 1 returns the initial cluster, swapped
    matrix = {"vertices": 2, "mutable": [1, 2], "rows": [[0, -1], [1, 0]]}
    doc = {"matrix": matrix, "path": [1, 2, 1, 2, 1]}
    code, out = run(capsys, "mutate", "--inline", json.dumps(doc))
    assert code == 0
    parsed = json.loads(out)
    assert parsed["matrix"] == {"vertices": 2, "mutable": [1, 2], "rows": [[0, 1], [-1, 0]]}
    assert [c["terms"] for c in parsed["cluster"]] == [
        [{"exp": [0, 1], "coef": "1"}],
        [{"exp": [1, 0], "coef": "1"}],
    ]


def test_mutate_rejects_bad_matrix_documents(capsys):
    non_skew = {"vertices": 2, "mutable": [1, 2], "rows": [[0, -1], [2, 0]]}
    for matrix in (non_skew, {"vertices": 2}, dict(non_skew, rows=[[0, "a"], [1, 0]])):
        code = main(["mutate", "--inline", json.dumps({"matrix": matrix})])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ")
    main(["mutate", "--inline", json.dumps({"matrix": non_skew})])
    assert "not skew-symmetric" in capsys.readouterr().err


def test_mode_invertible_removed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mutate", "--inline", json.dumps(PBW6), "--mode", "invertible"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_consecutive_calls_do_not_share_flags(capsys):
    """Each call in one process sees only its own flags and their defaults."""
    doc = json.dumps(dict(PBW6, path=[3, 2]))
    _, frozen = run(capsys, "mutate", "--inline", doc)
    _, specialized = run(capsys, "mutate", "--inline", doc, "--mode", "specialized")
    _, again = run(capsys, "mutate", "--inline", doc)
    assert frozen == again != specialized
    _, out = run(capsys, "walk", "--inline", json.dumps(GAMMA7), "--depth", "2", "--seed", "3")
    assert json.loads(out)["steps"] == 2
    _, out = run(capsys, "walk", "--inline", json.dumps(GAMMA7))
    assert json.loads(out)["steps"] == 6 and json.loads(out)["rng_seed"] == 20240801
    _, out = run(capsys, "mu-i", "--inline", json.dumps(PBW6), "--plan-only")
    assert "report" not in json.loads(out)
    _, out = run(capsys, "mu-i", "--inline", json.dumps(PBW6))
    assert "report" in json.loads(out)


def test_mutate_specialized_empty_word(capsys):
    doc = {"rank": 2, "edges": [[1, 2, 1]], "word": []}
    code, out = run(capsys, "mutate", "--inline", json.dumps(doc), "--mode", "specialized")
    assert code == 0 and json.loads(out)["cluster"] == []


def test_mutate_specialized_never_substitutes(monkeypatch, capsys):
    """Setting the frozen variables to one is a projection of exponents."""
    calls = []
    monkeypatch.setattr(LaurentPoly, "substitute", lambda *args: calls.append(args))
    frozen_row = {"vertices": 3, "mutable": [1, 2], "rows": [[0, 1], [-1, 0], [1, -1]]}
    for doc in (dict(PBW6, path=[3, 2]), {"matrix": frozen_row, "path": [1, 2, 1]}):
        code, out = run(capsys, "mutate", "--inline", json.dumps(doc), "--mode", "specialized")
        assert code == 0 and json.loads(out)["cluster"]
    assert calls == []


def test_walk_reproducible(capsys):
    doc = dict(GAMMA7)
    code, out1 = run(
        capsys, "walk", "--inline", json.dumps(doc), "--seed", "5", "--depth", "5"
    )
    assert code == 0
    code, out2 = run(
        capsys, "walk", "--inline", json.dumps(doc), "--seed", "5", "--depth", "5"
    )
    assert out1 == out2
    assert json.loads(out1)["steps"] == 5


def test_dimvec_commands(capsys):
    doc = {
        "rank": 3,
        "edges": [[1, 2, 2], [2, 3, 1]],
        "word": [1, 3, 2, 1, 3, 2, 1],
        "path": [4],
    }
    code, out = run(capsys, "dimvec", "--inline", json.dumps(doc))
    assert code == 0
    parsed = json.loads(out)
    assert parsed["labels"][3] == [0, 2, 2, 4, 8, 6, 13]
    assert parsed["sides"] == ["in"]
    code, out = run(capsys, "delta-dimvec", "--inline", json.dumps(doc))
    assert code == 0
    parsed = json.loads(out)
    assert parsed["labels"][3] == [0, 2, 0, 0, 0, 0, 1]
    # a longer path needs the exchange matrix mutated between the steps
    doc["path"] = [4, 1, 2, 4, 1]
    code, out = run(capsys, "dimvec", "--inline", json.dumps(doc))
    parsed = json.loads(out)
    assert code == 0 and parsed["sides"] == ["in", "in", "in", "in", "out"]
    assert parsed["labels"][0] == [1, 6, 6, 11, 22, 16, 36]
    code, out = run(capsys, "delta-dimvec", "--inline", json.dumps(doc))
    assert code == 0 and json.loads(out)["labels"][0] == [1, 4, 0, 0, 0, 0, 3]


def test_mu_i_plan_only_e8(capsys):
    word = list(range(8, 0, -1)) * 15
    doc = {
        "rank": 8,
        "edges": [
            [5, 6, 1],
            [6, 8, 1],
            [7, 8, 1],
            [8, 4, 1],
            [4, 3, 1],
            [3, 2, 1],
            [2, 1, 1],
        ],
        "word": word,
    }
    code, out = run(capsys, "mu-i", "--plan-only", "--inline", json.dumps(doc))
    assert code == 0
    assert json.loads(out)["plan"]["length"] == 840


def test_mu_i_executed(capsys):
    code, out = run(capsys, "mu-i", "--inline", json.dumps(PBW6))
    assert code == 0
    report = json.loads(out)["report"]
    assert report["final_labels_ok"] and report["chains_reversed"]


def test_identities_command(capsys):
    doc = dict(PBW6, pairs=[[1, 1], [2, 2], [3, 3]])
    code, out = run(capsys, "identities", "--inline", json.dumps(doc))
    assert code == 0
    assert all(x["ok"] for x in json.loads(out)["identities"])


def test_identities_empty_plan(capsys):
    # [1, 2] has no repeated letter, so its mu-i plan has no steps
    doc = {"rank": 2, "edges": [[1, 2, 1]], "word": [1, 2]}
    code, out = run(capsys, "identities", "--inline", json.dumps(doc))
    assert (code, json.loads(out)) == (0, {"identities": []})
    code, out = run(capsys, "identities", "--inline", json.dumps(dict(PBW6, pairs=[])))
    assert (code, json.loads(out)) == (0, {"identities": []})


def test_identities_without_pairs_plans_once(monkeypatch, capsys):
    """The pairs are the steps of the one pass that also yields the values."""
    plans, steps = [], []
    plan, step = intervals.mu_i_plan, intervals.identity_step

    def counting_plan(word):
        plans.append(word)
        return plan(word)

    def counting_step(*args):
        steps.append(args)
        return step(*args)

    for module in (cli, intervals):
        monkeypatch.setattr(module, "mu_i_plan", counting_plan)
        monkeypatch.setattr(module, "identity_step", counting_step)
    code, out = run(capsys, "identities", "--inline", json.dumps(PBW6))
    assert code == 0
    identities = json.loads(out)["identities"]
    assert len(plans) == 1 and steps == []
    assert len(identities) == plan(plans[0]).length and all(x["ok"] for x in identities)


def test_walk_too_few_mutable_vertices(capsys):
    # position 1 is the only mutable vertex of [1, 2, 1]: step 2 has no choice
    doc = {"rank": 2, "edges": [[1, 2, 1]], "word": [1, 2, 1]}
    code = main(["walk", "--inline", json.dumps(doc), "--depth", "3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "walk step 2" in captured.err and "mutable vertices: 1" in captured.err
    code, out = run(capsys, "walk", "--inline", json.dumps(doc), "--depth", "1")
    assert code == 0 and json.loads(out)["final_provenance"] == [1]


def test_walk_engine_error_names_step_and_vertex(monkeypatch, capsys):
    monkeypatch.setattr(laurent, "MAX_TERM_PAIRS", 4)
    argv = ["walk", "--inline", json.dumps(PBW6), "--depth", "8", "--seed", "1"]
    assert main(argv) == 3
    assert json.loads(capsys.readouterr().err) == {
        "error": "TermLimitError",
        "detail": "step 8, vertex 2: product of 3 by 3 terms forms 9 term pairs, "
        "over the limit of 4",
    }


def test_mutate_engine_error_names_step_and_vertex(monkeypatch, capsys):
    monkeypatch.setattr(laurent, "MAX_TERM_PAIRS", 4)
    doc = dict(PBW6, path=[3, 2, 1, 3])
    assert main(["mutate", "--inline", json.dumps(doc)]) == 3
    assert json.loads(capsys.readouterr().err) == {
        "error": "TermLimitError",
        "detail": "step 4, vertex 3: product of 3 by 3 terms forms 9 term pairs, "
        "over the limit of 4",
    }


def test_pbw_command(capsys):
    doc = dict(PBW6, targets=[["V", 4], ["M", 5, 2]])
    code, out = run(capsys, "pbw", "--inline", json.dumps(doc))
    assert code == 0
    parsed = json.loads(out)["expansions"]
    assert parsed[0]["poly"]["terms"] == [
        {"exp": [0, 0, 1, 0, 0, 0], "coef": "-1"},
        {"exp": [1, 0, 0, 1, 0, 0], "coef": "1"},
    ]


def test_pbw_zero_laurent_target_uses_the_expansion_variables(capsys):
    zero = {"vars": ["y1"], "terms": [{"exp": [1], "coef": "0"}]}
    doc = dict(PBW6, targets=[["laurent", zero], ["V", 1]])
    code, out = run(capsys, "pbw", "--inline", json.dumps(doc))
    assert code == 0
    polys = [entry["poly"] for entry in json.loads(out)["expansions"]]
    assert polys[0] == {"terms": [], "vars": [f"m{k}" for k in range(1, 7)]}
    assert polys[1]["vars"] == polys[0]["vars"]


def test_euler_gen_and_phi(capsys):
    doc = dict(GAMMA7, positions=[2])
    code, out = run(capsys, "euler-gen", "--inline", json.dumps(doc))
    assert code == 0
    gf = json.loads(out)["generating_functions"][0]
    assert gf["sum"]["terms"] == [{"word": [2, 1, 1], "coef": "2"}]
    code, out = run(
        capsys, "phi-eval", "--inline", json.dumps(dict(A4, positions=[1]))
    )
    assert code == 0
    val = json.loads(out)["values"][0]["value"]
    assert len(val["terms"]) == 2


def euler_gen_oracle(doc: dict) -> dict:
    """Oracle: the euler-gen document built as dicts, each sum in the
    ``WordSum`` JSON form."""
    word = ReducedWord(CartanMatrix.from_edges(doc["rank"], doc["edges"]), doc["word"])
    out = []
    for k in doc.get("positions", range(1, word.r + 1)):
        g = g_V(word, k)
        ordered = sorted(
            ((tuple(map(ord, w)), c) for w, c in g.terms.items()),
            key=lambda t: (len(t[0]), t[0]),
        )
        terms = [{"word": list(w), "coef": str(c)} for w, c in ordered]
        out.append({"k": k, "words": g.word_count(), "sum": {"terms": terms}})
    return {"generating_functions": out}


@pytest.mark.parametrize("positions", [[], [4, 4], None], ids=["none", "repeated", "default"])
def test_euler_gen_writes_the_dump_of_the_oracle(capsys, tmp_path, positions):
    doc = A4 if positions is None else dict(A4, positions=positions)
    code, out = run(capsys, "euler-gen", "--inline", json.dumps(doc))
    assert code == 0 and out == _dump(euler_gen_oracle(doc))
    path = tmp_path / "out.json"
    assert main(["euler-gen", "--inline", json.dumps(doc), "--output", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == out.encode()


def test_minor_check_command(capsys):
    code, out = run(capsys, "minor-check", "--inline", json.dumps(A4))
    assert code == 0
    checks = json.loads(out)["checks"]
    assert len(checks) == 8 and all(c["ok"] for c in checks)


def test_acyclic_command(capsys):
    doc = {"rank": 3, "arrows": [[1, 3, 1], [2, 3, 1]]}
    code, out = run(capsys, "acyclic", "--inline", json.dumps(doc))
    assert code == 0
    parsed = json.loads(out)
    assert parsed["matrix_returns"] and parsed["disjoint"]
    assert parsed["double_word"] == [3, 2, 1, 3, 2, 1]


def test_acyclic_builds_no_seed_of_the_double_word(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(Seed, "from_word", staticmethod(lambda word: calls.append(word)))
    doc = {"rank": 3, "arrows": [[1, 3, 1], [2, 3, 1]]}
    code, out = run(capsys, "acyclic", "--inline", json.dumps(doc))
    assert code == 0 and json.loads(out)["double_word"] == [3, 2, 1, 3, 2, 1]
    assert calls == []


def test_validation_error_exit_code(capsys):
    bad = {"rank": 2, "edges": [[1, 2, 1]], "word": [1, 1]}
    code = main(["gamma", "--inline", json.dumps(bad)])
    capsys.readouterr()
    assert code == 2


def test_engine_error_exit_code(capsys):
    # 1/y4 cannot be polynomial in the dual basis variables
    target = {
        "vars": [f"y{k}" for k in range(1, 7)],
        "terms": [{"exp": [0, 0, 0, -1, 0, 0], "coef": "1"}],
    }
    doc = dict(PBW6, targets=[["laurent", target]])
    code = main(["pbw", "--inline", json.dumps(doc)])
    captured = capsys.readouterr()
    assert code == 3
    assert "NotPolynomialAfterSubstitutionError" in captured.err


def test_output_file(capsys, tmp_path):
    out_path = tmp_path / "out.json"
    code = main(
        ["gamma", "--inline", json.dumps(GAMMA7), "--output", str(out_path)]
    )
    capsys.readouterr()
    assert code == 0
    assert json.loads(out_path.read_text())["quiver"]["vertices"] == 7


def test_malformed_json_exits_2(capsys):
    for text in ("{bad", "[1, 2]", '"word"'):
        code = main(["gamma", "--inline", text])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ")


def test_negative_depth_rejected(capsys):
    for command in ("walk", "mu-i"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--inline", json.dumps(GAMMA7), "--depth", "-5"])
        assert exc.value.code == 2
        assert "-5 is negative" in capsys.readouterr().err


def test_commands_reject_flags_they_do_not_read(capsys):
    for argv in (
        ["gamma", "--inline", json.dumps(GAMMA7), "--depth", "3"],
        ["walk", "--inline", json.dumps(GAMMA7), "--mode", "frozen"],
        ["selftest", "--inline", "{}"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    code, out = run(capsys, "walk", "--inline", json.dumps(GAMMA7))
    assert code == 0 and json.loads(out)["steps"] == 6


@pytest.mark.parametrize(
    "command, doc",
    [
        ("gamma", {"rank": 3, "edges": [[1, 2, 1.5]], "word": [1]}),
        ("gamma", {"rank": 2, "edges": [[1, 2, True]], "word": [1]}),
        ("gamma", {"rank": 2, "edges": [[1, "2"]], "word": [1]}),
        ("gamma", {"rank": 2, "edges": [[1, 2, 1, 1]], "word": [1]}),
        ("gamma", {"rank": 2, "edges": 3, "word": [1]}),
        ("gamma", {"rank": 2, "edges": [[1, 2, 1]], "word": "121"}),
        ("gamma", {"rank": 2, "edges": [[1, 2, 1]], "word": [True, 2]}),
        ("gamma", {"rank": 2, "edges": [[1, 2, 1]], "word": [1.0, 2]}),
        ("gamma", {"rank": 2.0, "edges": [], "word": [1]}),
        ("gamma", {"rank": True, "edges": [], "word": [1]}),
        ("gamma", {"rank": "2", "edges": [], "word": [1]}),
        ("gamma", {"rank": -1, "edges": [], "word": []}),
        ("acyclic", {"rank": 2, "arrows": [[1, 2, 1.5]]}),
        ("acyclic", {"rank": 2, "arrows": [[True, 2]]}),
        ("acyclic", {"rank": -2, "arrows": []}),
    ],
)
def test_non_integer_input_exits_2(capsys, command, doc):
    code = main([command, "--inline", json.dumps(doc)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("rank", [MAX_RANK + 1, 10**9])
def test_rank_above_the_limit_exits_2(capsys, rank):
    """The rank is checked before any row of the dense Cartan matrix exists."""
    for command, doc in (
        ("gamma", {"rank": rank, "edges": [], "word": [1]}),
        ("acyclic", {"rank": rank, "arrows": []}),
    ):
        code = main([command, "--inline", json.dumps(doc)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: rank {rank} exceeds the limit of {MAX_RANK}")


A2_WORD = {"rank": 2, "edges": [[1, 2, 1]], "word": [1, 2, 1]}
BAD_LAURENT = [
    {},
    {"vars": ["y1"]},
    {"vars": "y1", "terms": []},
    {"vars": [1], "terms": []},
    {"vars": ["y1"], "terms": [{"exp": [1]}]},
    {"vars": ["y1"], "terms": [{"exp": [1, 0], "coef": "1"}]},
    {"vars": ["y1"], "terms": [{"exp": ["a"], "coef": "1"}]},
    {"vars": ["y1"], "terms": [{"exp": [1], "coef": 1.5}]},
    {"vars": ["y1"], "terms": [{"exp": [1], "coef": "x"}]},
    {"vars": ["y1"], "terms": [[1]]},
]
# appended after the other cases, so that their parameter ids stay put
REPEATED_EXPONENT = {"vars": ["y1"], "terms": [{"exp": [1], "coef": "1"}, {"exp": [1], "coef": "2"}]}


@pytest.mark.parametrize(
    "argv",
    [
        ["identities", "--inline", json.dumps(dict(A2_WORD, pairs=[["a", 1]]))],
        ["identities", "--inline", json.dumps(dict(A2_WORD, pairs=[[1]]))],
        ["identities", "--inline", json.dumps(dict(A2_WORD, pairs=5))],
        ["euler-gen", "--inline", json.dumps(dict(A2_WORD, positions=["a"]))],
        ["euler-gen", "--inline", json.dumps(dict(A2_WORD, positions=[4]))],
        ["phi-eval", "--inline", json.dumps(dict(A2_WORD, positions=["a"]))],
        ["phi-eval", "--inline", json.dumps(dict(A2_WORD, pattern="ab"))],
        ["phi-eval", "--inline", json.dumps(dict(A2_WORD, pattern=[1, 3]))],
        ["phi-eval", "--inline", json.dumps(dict(A2_WORD, pattern=[1, 2], vars=["a"]))],
        ["phi-eval", "--inline", json.dumps(dict(A2_WORD, pattern=[1, 2], vars=["a", "a"]))],
        ["phi-eval", "--inline", json.dumps(dict(A2_WORD, pattern=[1, 2], vars=["a", 2]))],
        ["pbw", "--inline", json.dumps(dict(A2_WORD, targets=[["V", "a"]]))],
        ["pbw", "--inline", json.dumps(dict(A2_WORD, targets=[["M", 5]]))],
        ["pbw", "--inline", json.dumps(dict(A2_WORD, targets=[["M", 3, "1"]]))],
        ["pbw", "--inline", json.dumps(dict(A2_WORD, targets=[[]]))],
        ["pbw", "--inline", json.dumps(dict(A2_WORD, targets="V"))],
        ["pbw", "--inline", json.dumps(dict(A2_WORD, targets=[["laurent", {}]]))],
        *(
            ["pbw", "--inline", json.dumps(dict(A2_WORD, targets=[["laurent", bad]]))]
            for bad in BAD_LAURENT
        ),
        ["mutate", "--inline", json.dumps(dict(A2_WORD, path=5))],
        ["mutate", "--inline", json.dumps(dict(A2_WORD, path=[1.0]))],
        ["dimvec", "--inline", json.dumps(dict(A2_WORD, path=[None]))],
        ["delta-dimvec", "--inline", json.dumps(dict(A2_WORD, path="1"))],
        ["gamma", "--input", "{tmp}/missing.json"],
        ["gamma", "--inline", json.dumps(A2_WORD), "--output", "{tmp}/missing/out.json"],
        ["pbw", "--inline", json.dumps(dict(A2_WORD, targets=[["laurent", REPEATED_EXPONENT]]))],
        ["acyclic", "--inline", json.dumps({"rank": 2, "arrows": [[1, 2, 1], [2, 1, 1]]})],
        ["euler-gen", "--inline", json.dumps(dict(A2_WORD, positions=2))],
        ["euler-gen", "--inline", json.dumps(dict(A2_WORD, positions=[0]))],
        ["euler-gen", "--inline", json.dumps(dict(A2_WORD, positions=[1.0]))],
        ["euler-gen", "--inline", json.dumps(dict(A2_WORD, positions=[True]))],
    ],
)
def test_malformed_fields_exit_2(capsys, tmp_path, argv):
    code = main([a.replace("{tmp}", str(tmp_path)) for a in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")


def test_selftest_command(capsys):
    code, out = run(capsys, "selftest", "--seed", "7")
    summary = json.loads(out)["selftest"]
    assert code == 0 and len(summary) == 7 and all(summary.values())


def test_document_on_stdin(capsys, monkeypatch):
    import io

    text = json.dumps(GAMMA7)
    _, inline = run(capsys, "gamma", "--inline", text)
    for argv in (["gamma"], ["gamma", "--input", "-"]):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out = run(capsys, *argv)
        assert code == 0 and out == inline
