"""Guards on the package as a whole: every name the benchmark rebinds exists,
the modules import only the standard library and only what they use, every
specific error class is an EngineError that is still raised somewhere, and no
module-level definition, class member or function is dead."""
import ast
import contextlib
import importlib
import io
import json
import pathlib
import sys

from weylseed.cli import main
from weylseed.intervals import MuIReport

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "weylseed"
ERROR_BASES = {"WeylseedError", "ValidationError", "EngineError"}


def test_benchmark_rebinding_targets_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "weylbench"))
    spans = importlib.import_module("spans")
    missing = []
    for module_name, class_name, attr, *_ in spans.TARGETS:
        module = importlib.import_module(f"weylseed.{module_name}")
        if class_name is None:
            found = callable(getattr(module, attr, None))
        else:
            found = attr in vars(getattr(module, class_name, object))
        if not found:
            missing.append(".".join(filter(None, (module_name, class_name, attr))))
    assert missing == []
    # the run_mu_i count hook reads this field of the result
    assert "steps_checked" in MuIReport.__dataclass_fields__


def test_stdlib_only_and_no_unused_imports():
    problems = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [(alias.name, alias.asname or alias.name.split(".")[0]) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                bound = [(node.module, alias.asname or alias.name) for alias in node.names]
            else:
                continue
            absolute = isinstance(node, ast.Import) or node.level == 0
            for module, name in bound:
                if absolute and module.split(".")[0] not in sys.stdlib_module_names:
                    problems.append(f"{path.name}: imports {module} from outside the standard library")
                if module != "__future__" and name not in used:
                    problems.append(f"{path.name}: imports {name} but never uses it")
    assert problems == []


def test_only_quiver_reads_matrix_columns():
    """The sparse column form of ``ExchangeMatrix`` stays behind its module:
    no other package module reads a ``.cols`` attribute."""
    readers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "quiver.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "cols"
    ]
    assert readers == []


def _sites(is_site) -> list[str]:
    """``file:function`` of each package node for which ``is_site`` holds;
    ``<module>`` for a node outside every function."""
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for fn in ast.walk(tree):  # outer functions first, so inner ones own their body
            if isinstance(fn, ast.FunctionDef):
                owner.update((node, fn.name) for node in ast.walk(fn))
        sites += [
            f"{path.name}:{owner.get(node, '<module>')}" for node in ast.walk(tree) if is_site(node)
        ]
    return sites


def test_skew_symmetry_is_checked_only_on_entry():
    """The dense-row constructor is the one owner of the skew-symmetry check:
    its message is raised in ``ExchangeMatrix.__init__`` and nowhere else.
    ``mutate``, which keeps a matrix skew-symmetric, calls no function or
    class of ``quiver`` but the column reader, the one in-place mutation rule
    and the unchecked wrapper; the rule calls none at all, and neither
    raises."""
    message = "principal part is not skew-symmetric"
    assert _sites(lambda node: isinstance(node, ast.Constant) and node.value == message) == [
        "quiver.py:__init__"
    ]
    tree = ast.parse((PACKAGE / "quiver.py").read_text(encoding="utf-8"))
    matrix = next(
        node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "ExchangeMatrix"
    )
    init, mutate = (
        next(node for node in matrix.body if isinstance(node, ast.FunctionDef) and node.name == name)
        for name in ("__init__", "mutate")
    )
    rule = next(
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_mutate_columns"
    )
    assert message in {node.value for node in ast.walk(init) if isinstance(node, ast.Constant)}
    defined = {
        node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }

    def called(fn):
        return {
            node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
            for node in ast.walk(fn)
            if isinstance(node, ast.Call)
        }

    assert called(mutate) & defined == {"column", "_mutate_columns", "_of_columns"}
    assert called(rule) & defined == set()
    for fn in (mutate, rule):
        assert not any(isinstance(node, ast.Raise) for node in ast.walk(fn))


def test_only_located_and_main_catch_engine_errors():
    """``errors.located`` is the one rule that puts a step, position or target
    before an engine error's detail, and ``cli.main`` the one place that
    turns the error into exit 3: no other function has ``except EngineError``."""
    sites = _sites(
        lambda node: isinstance(node, ast.ExceptHandler)
        and node.type is not None
        and "EngineError" in {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
    )
    assert sites == ["cli.py:main", "errors.py:located"]


def test_only_cartan_reads_private_word_attributes():
    """The chain tables of ``ReducedWord`` stay behind its module: no other
    package module reads a private attribute or method of the class, so
    every read goes through ``place``, ``chain`` and the other accessors."""
    cartan = ast.parse((PACKAGE / "cartan.py").read_text(encoding="utf-8"))
    word = next(
        node
        for node in cartan.body
        if isinstance(node, ast.ClassDef) and node.name == "ReducedWord"
    )
    private = {
        node.attr
        for node in ast.walk(word)
        if isinstance(node, ast.Attribute) and ast.unparse(node.value) == "self"
    } | {node.name for node in word.body if isinstance(node, ast.FunctionDef)}
    private = {name for name in private if name.startswith("_") and not name.endswith("__")}
    assert {"_chains", "_occ", "_k_plus"} <= private
    readers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "cartan.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in private
    ]
    assert readers == []


def test_chain_pass_keeps_one_label_representation():
    """The chain pass holds interval labels only: ``intervals`` takes nothing
    from ``homdata`` but ``hom_tables``, so no dense filtration vector or its
    exchange comes back beside the labels."""
    tree = ast.parse((PACKAGE / "intervals.py").read_text(encoding="utf-8"))
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "homdata"
        for alias in node.names
    ]
    assert imported == ["hom_tables"]


def test_letters_become_digits_only_in_json_text():
    """The digit table ``_DIGITS`` is read in ``WordSum.json_text`` and
    nowhere else in the package, so words turn back into digits at one
    place.  The text memo ``_Memo`` is read there and in the CLI's int-row
    writer, which imports it: one memo class serves both."""

    def reads(name):
        return lambda node: (
            (isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load))
            or (isinstance(node, ast.Attribute) and node.attr == name)
            or (isinstance(node, ast.alias) and node.name == name)
        )

    assert sorted(set(_sites(reads("_DIGITS")))) == ["words.py:json_text"]
    assert sorted(set(_sites(reads("_Memo")))) == [
        "cli.py:<module>",
        "cli.py:_int_rows",
        "words.py:json_text",
    ]


def test_no_assert_statements():
    """Every engine contract is a raised ``EngineError`` (exit 3): an
    ``assert`` vanishes under ``python -O`` and otherwise ends in a
    traceback."""
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def test_every_error_class_is_raised():
    """Exit-3 diagnostics print the class name, so each class other than the
    three bases must have a ``raise Name(...)`` site in the package."""
    errors = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                func = node.exc.func
                if isinstance(func, ast.Name):
                    raised.add(func.id)
    assert sorted(classes - ERROR_BASES - raised) == []


def test_every_specific_error_is_an_engine_error():
    """Exit 2 prints only the message, so no ValidationError subclass could
    be told apart: bad input raises ValidationError itself."""
    errors = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    assert [
        node.name
        for node in errors.body
        if isinstance(node, ast.ClassDef)
        and node.name not in ERROR_BASES
        and [ast.unparse(base) for base in node.bases] != ["EngineError"]
    ] == []


def test_every_module_level_definition_is_referenced():
    """Each module-level function and class is named somewhere in the package
    outside ``__init__``: as a name, an attribute, or an imported name.
    ``__init__`` imports nothing, so a re-export never counts as a use."""
    defined, referenced = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [
            (path.stem, node.name)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    assert [f"{m}.{name}" for m, name in defined if name not in referenced] == []
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert not any(isinstance(node, (ast.Import, ast.ImportFrom)) for node in ast.walk(init))


def test_every_class_member_is_referenced():
    """Each non-dunder method or property of a package class is named as an
    attribute somewhere in the package outside its own body."""
    members, attributes = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        attributes += [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                members += [
                    (cls.name, node)
                    for node in cls.body
                    if isinstance(node, ast.FunctionDef)
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                ]
    dead = []
    for cls_name, member in members:
        own = {id(node) for node in ast.walk(member)}
        if not any(a.attr == member.name and id(a) not in own for a in attributes):
            dead.append(f"{cls_name}.{member.name}")
    assert dead == []


def _reachability_documents(monkeypatch) -> list[list[str]]:
    """Every cli-small document of seed 1, plus the inputs it leaves out."""
    monkeypatch.syspath_prepend(str(ROOT / "weylbench"))
    workloads = importlib.import_module("workloads")
    a3 = {"rank": 3, "edges": [[1, 2, 1], [2, 3, 1]], "word": [2, 3, 1, 2, 3, 1]}
    target = {"vars": ["y1", "y4"], "terms": [{"exp": [2, -1], "coef": "3"}]}
    # the image of y4 has terms of degrees 2 and 1: squaring it up to the 64th
    # power and adding the image of y6 widen 8-bit digits to 16 bits
    wide = {
        "vars": ["y4", "y6"],
        "terms": [{"exp": [64, 0], "coef": "1"}, {"exp": [0, 1], "coef": "1"}],
    }
    matrix = {"vertices": 3, "mutable": [1, 2], "rows": [[0, 1], [-1, 0], [1, -1]]}
    extra = [
        ("mutate", {"matrix": matrix, "path": [1, 2]}, "--mode", "specialized"),
        ("pbw", dict(a3, targets=[["V", 4], ["M", 5, 2], ["laurent", target]])),
        ("pbw", dict(a3, targets=[["laurent", wide]])),
        ("identities", dict(a3, pairs=[[1, 1], [2, 2]])),
        ("phi-eval", dict(a3, pattern=[1, 2, 3], vars=["a", "b", "c"], positions=[4])),
    ]
    docs = [list(doc.argv) for doc in workloads.cli_small(1)]
    docs += [[cmd, "--inline", json.dumps(body), *flags] for cmd, body, *flags in extra]
    return docs + [["selftest", "--seed", "7"]]


def test_every_function_runs_for_some_command(monkeypatch):
    """Each non-dunder function or method in the package, nested ones
    included, is entered while ``cli.main`` runs the reachability documents.
    A code object is matched by its file and first line, which is the line
    of its first decorator when it has one."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    docs = _reachability_documents(monkeypatch)
    sink = io.StringIO()
    previous = sys.getprofile()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        sys.setprofile(profile)
        try:
            for argv in docs:
                main(argv)
        finally:
            sys.setprofile(previous)
    lines = {(pathlib.Path(code.co_filename).resolve(), code.co_firstlineno) for code in entered}
    never = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.FunctionDef):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if (path.resolve(), first) not in lines:
                never.append(f"{path.stem}.{node.name}")
    assert never == []
