"""Command-line front end with deterministic JSON input and output.

Every command prints one canonical JSON document: keys sorted, no spaces.
``gamma``, ``dimvec``, ``delta-dimvec``, ``mu-i`` and ``euler-gen`` write that
text themselves and return it in pieces; the other commands return a dict for
``_dump``.

Exit codes: 0 on success, 2 on input validation problems, 3 on violated
engine contracts (failed exactness or consistency assertions).
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Any, Iterable, Iterator

from .cartan import CartanMatrix, QuiverOrientation, ReducedWord, _is_int
from .errors import EngineError, ValidationError, WeylseedError, located
from .homdata import (
    hom_tables,
    initial_delta_labels,
    initial_dimvec_labels,
    mutate_delta_dimvec,
    mutate_dimvec,
)
from .intervals import (
    IntervalLabel,
    PBWExpander,
    _compact,
    identity_step,
    mu_i_plan,
    run_mu_i,
    verify_identity,
)
from .laurent import LaurentPoly
from .minors import cross_validate
from .quiver import (
    ExchangeMatrix,
    Seed,
    SeedRegistry,
    WorkingMatrix,
    acyclic_double,
    b_matrix,
    coefficient_free_matrix,
    denominator_vector,
    gamma_i,
    y_dagger,
)
from .words import _Memo, g_V, phi_eval, to_word

# Largest accepted `walk --depth`: the output lists the whole path, and each
# step mutates a seed whose Laurent values may grow, so work and bytes grow
# with the depth.
MAX_WALK_DEPTH = 10**4


def _dump(doc: Any) -> str:
    return _compact(doc, sort_keys=True) + "\n"


def _int_rows(rows: Iterable[Iterable[int]]) -> str:
    """The canonical JSON of int rows, ``[[a,b],[c]]``: each distinct entry
    is formatted once, through a memo of int -> str."""
    text = _Memo(str).__getitem__
    return "[%s]" % ",".join(["[%s]" % ",".join(map(text, row)) for row in rows])


def _load_doc(args) -> dict:
    try:
        if args.inline is not None:
            doc = json.loads(args.inline)
        elif args.input is None or args.input == "-":
            doc = json.load(sys.stdin)
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read input: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, bytes or nesting
        raise ValidationError(f"input is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("input document must be a JSON object")
    return doc


def _word_from_doc(doc: dict) -> ReducedWord:
    try:
        cartan = CartanMatrix.from_edges(doc["rank"], doc.get("edges", []))
        return ReducedWord(cartan, doc["word"])
    except KeyError as exc:
        raise ValidationError(f"missing input field {exc}") from exc


def _int_list(value, what: str, lo: int, hi: int) -> list[int]:
    """``value`` if it is a list of ints in lo..hi; a ValidationError otherwise."""
    if not (isinstance(value, list) and all(_is_int(x) and lo <= x <= hi for x in value)):
        raise ValidationError(f"{what} must be a list of integers in {lo}..{hi}, got {value!r}")
    return value


def _path(doc: dict, matrix: ExchangeMatrix | WorkingMatrix) -> list[int]:
    """The document's mutation path, checked to run over mutable vertices
    of ``matrix`` only."""
    path = _int_list(doc.get("path", []), "path", 1, matrix.r)
    frozen = matrix.frozen
    for n, k in enumerate(path, start=1):
        if k in frozen:
            raise ValidationError(f"path step {n}: vertex {k} is frozen")
    return path


def _cluster_json(seed: Seed, mode: str) -> list:
    cluster = seed.specialize_frozen() if mode == "specialized" else seed.cluster
    return [x.to_json() for x in cluster]


def cmd_gamma(doc, args) -> tuple[str]:
    quiver = gamma_i(_word_from_doc(doc))
    matrix, quiver_text = b_matrix(quiver).to_json(), _compact(quiver.to_json(), sort_keys=True)
    return (
        '{"b_matrix":{"mutable":%s,"rows":%s,"vertices":%d},"quiver":%s}\n'
        % (_compact(matrix["mutable"]), _int_rows(matrix["rows"]), matrix["vertices"], quiver_text),
    )


def cmd_mutate(doc, args) -> dict:
    if "matrix" in doc:
        seed = Seed.initial(ExchangeMatrix.from_json(doc["matrix"]))
    else:
        seed = Seed.from_word(_word_from_doc(doc))
    path = _path(doc, seed.matrix)
    for seed in seed.walk(path):
        pass
    return {
        "matrix": seed.matrix.to_json(),
        "cluster": _cluster_json(seed, args.mode),
        "provenance": path,
        "denominators": [
            list(denominator_vector(seed, pos)) for pos in seed.matrix.mutable
        ],
    }


def cmd_walk(doc, args) -> dict:
    if args.depth > MAX_WALK_DEPTH:
        raise ValidationError(f"walk depth {args.depth} exceeds the limit of {MAX_WALK_DEPTH}")
    seed = Seed.from_word(_word_from_doc(doc))
    mutable = seed.matrix.mutable
    # each step draws a vertex other than the last one: fewer than two
    # mutable vertices run out at step len(mutable) + 1
    if len(mutable) < 2 and args.depth > len(mutable):
        raise ValidationError(
            f"walk step {len(mutable) + 1}: no vertex to mutate (mutable vertices: {len(mutable)})"
        )
    rng, path = random.Random(args.seed), []
    for _ in range(args.depth):
        path.append(rng.choice([k for k in mutable if k not in path[-1:]]))
    registry = SeedRegistry()
    registry.insert_if_absent(seed)
    for later, k in zip(seed.walk(path), path):
        registry.insert_if_absent(later, k)
    return {
        "steps": args.depth,
        "rng_seed": args.seed,
        "distinct_seeds": len(registry.seen),
        "denominator_collisions": sorted(
            [list(c) for c in registry.collisions]
        ),
        "final_provenance": path,
    }


def _walk_labels(doc: dict, word: ReducedWord, start, exchange) -> tuple[tuple, list[str]]:
    """Exchange the labels and totals of ``start`` along ``path``, mutating
    a working copy of the word's matrix in place once per step; the labels
    reached and the side picked at each step."""
    matrix = WorkingMatrix(b_matrix(gamma_i(word)))
    labels, totals = start
    picks = []
    for n, k in enumerate(_path(doc, matrix), start=1):
        with located(f"step {n}, vertex {k}"):
            move = exchange(matrix, labels, totals, k)
        matrix.mutate(k)
        labels, totals = move.labels, move.totals
        picks.append("in" if move.picked_in_side else "out")
    return labels, picks


def cmd_dimvec(doc, args) -> tuple[str]:
    """The walk reads the VV columns before any table is written."""
    word = _word_from_doc(doc)
    tables = hom_tables(word)
    labels, sides = _walk_labels(doc, word, initial_dimvec_labels(tables), mutate_dimvec)
    vm, vv, d_delta = _int_rows(tables.VM), _int_rows(tables.VV), _compact(tables.d_delta)
    return (
        '{"labels":%s,"sides":%s,"tables":{"VM":%s,"VV":%s,"d_delta":%s,"word":%s}}\n'
        % (_int_rows(labels), _compact(sides), vm, vv, d_delta, _compact(word.printed)),
    )


def cmd_delta_dimvec(doc, args) -> tuple[str]:
    word = _word_from_doc(doc)
    tables = hom_tables(word)
    labels, sides = _walk_labels(doc, word, initial_delta_labels(tables), mutate_delta_dimvec)
    return (
        '{"d_delta":%s,"labels":%s,"sides":%s}\n'
        % (_compact(tables.d_delta), _int_rows(labels), _compact(sides)),
    )


def cmd_mu_i(doc, args) -> tuple[str, ...]:
    """Its canonical text in pieces: the plan's own text, then the report's
    (``"plan"`` sorts before ``"report"``)."""
    word = _word_from_doc(doc)
    if args.plan_only:
        return '{"plan":', mu_i_plan(word).json_text(), "}\n"
    report = run_mu_i(word, max_seed_steps=args.depth)
    checks = {
        "steps_checked": report.steps_checked,
        "final_labels": [[lab.b, lab.a] for lab in report.final_labels],
        "final_labels_ok": report.final_labels_expected(word),
        "chains_reversed": report.final_chains_reversed(word),
    }
    # the dump of {"report": checks} without its opening brace
    return '{"plan":', report.plan.json_text(), ",", _dump({"report": checks})[1:]


def cmd_identities(doc, args) -> dict:
    word = _word_from_doc(doc)
    if "pairs" not in doc:
        # every step of the pass, checked against the values of that one pass
        report = run_mu_i(word)
        pairs = [(step.group, step.before.b) for step in report.plan.steps]
    else:
        pairs = doc["pairs"]
        if not isinstance(pairs, list) or any(
            len(_int_list(pair, "pair", 1, word.r)) != 2 for pair in pairs
        ):
            raise ValidationError(f"pairs must be a list of [k, s] pairs, got {pairs!r}")
        if not pairs:
            return {"identities": []}
        cutoff = max(identity_step(word, k, s) for k, s in pairs)
        report = run_mu_i(word, max_seed_steps=cutoff)
    return {"identities": [verify_identity(word, k, s, report.label_values) for k, s in pairs]}


def cmd_pbw(doc, args) -> dict:
    word = _word_from_doc(doc)
    expander = PBWExpander(word)
    targets = doc.get("targets", [["V", k] for k in range(1, word.r + 1)])
    if not isinstance(targets, list):
        raise ValidationError(f"targets must be a list, got {targets!r}")
    results = []
    for n, target in enumerate(targets, start=1):
        kind, *rest = target if isinstance(target, list) and target else [None]
        with located(f"target {n}"):
            if kind == "V" and len(_int_list(rest, "V target", 1, word.r)) == 1:
                poly = expander.expand_initial(rest[0])
            elif kind == "M" and len(_int_list(rest, "M target", 0, word.r + 1)) == 2:
                label = IntervalLabel(*rest)
                label.validate(word)
                poly = expander.expand(label)
            elif kind == "laurent" and len(rest) == 1:
                poly = expander.expand_laurent(LaurentPoly.from_json(rest[0]))
            else:
                raise ValidationError(f"unknown expansion target {target!r}")
        results.append({"target": target, "poly": poly.to_json()})
    return {"expansions": results}


def _positions(doc: dict, word: ReducedWord) -> list[int]:
    return _int_list(doc.get("positions", list(range(1, word.r + 1))), "positions", 1, word.r)


def cmd_euler_gen(doc, args) -> Iterator[str]:
    """Its canonical text in pieces: a sum can hold tens of thousands of words.

    Every sum is lowered before the pieces start, so an ``EngineError`` comes
    before any byte is written; each sum is formatted only as ``main`` writes
    its pieces.
    """
    word = _word_from_doc(doc)
    sums = []
    for k in _positions(doc, word):
        with located(f"position {k}"):
            sums.append((k, g_V(word, k)))

    def pieces():
        yield '{"generating_functions":['
        for n, (k, g) in enumerate(sums):
            yield '%s{"k":%d,"sum":' % ("," if n else "", k)
            yield from g.json_text()
            yield ',"words":%d}' % g.word_count()
        yield "]}\n"

    return pieces()


def cmd_phi_eval(doc, args) -> dict:
    word = _word_from_doc(doc)
    pattern = _int_list(doc.get("pattern", list(word.printed)), "pattern", 1, word.cartan.n)
    names = doc.get("vars", [f"t{q}" for q in range(len(pattern), 0, -1)])
    if not (
        isinstance(names, list)
        and len(names) == len(pattern)
        and all(isinstance(name, str) for name in names)
        and len(set(names)) == len(names)
    ):
        raise ValidationError(
            f"vars must be {len(pattern)} distinct names, one per pattern letter, got {names!r}"
        )
    letters = to_word(pattern)
    out = []
    for k in _positions(doc, word):
        with located(f"position {k}"):
            val = phi_eval(g_V(word, k, letters), letters, names)
        out.append({"k": k, "value": val.to_json()})
    return {"pattern": pattern, "values": out}


def cmd_minor_check(doc, args) -> dict:
    checks = cross_validate(_word_from_doc(doc))
    return {
        "checks": [
            {"k": k, "rows": list(rows), "cols": list(cols), "value": val.to_json(), "ok": True}
            for k, (rows, cols, val) in enumerate(checks, start=1)
        ]
    }


def cmd_acyclic(doc, args) -> dict:
    try:
        orientation = QuiverOrientation.from_arrows(doc["rank"], doc["arrows"])
    except KeyError as exc:
        raise ValidationError(f"missing input field {exc}") from exc
    matrix = coefficient_free_matrix(orientation)
    initial = Seed.initial(matrix)
    dagger = y_dagger(initial)
    result = {
        "matrix_returns": dagger.matrix == matrix,
        "disjoint": not (set(initial.cluster) & set(dagger.cluster)),
        "dagger_cluster": [x.to_json() for x in dagger.cluster],
    }
    try:
        result["double_word"] = list(acyclic_double(orientation).printed)
    except WeylseedError as exc:
        result["double_word"] = None
        result["caveat"] = str(exc)
    return result


def cmd_selftest(doc, args) -> dict:
    from . import acceptance  # only selftest reads it; other commands skip its import

    summary = acceptance.quick_selftest(seed=args.seed)
    if not all(summary.values()):
        raise EngineError(f"selftest failed: {summary}")
    return {"selftest": summary}


COMMANDS = {
    "gamma": cmd_gamma,
    "mutate": cmd_mutate,
    "walk": cmd_walk,
    "dimvec": cmd_dimvec,
    "delta-dimvec": cmd_delta_dimvec,
    "mu-i": cmd_mu_i,
    "identities": cmd_identities,
    "pbw": cmd_pbw,
    "euler-gen": cmd_euler_gen,
    "phi-eval": cmd_phi_eval,
    "minor-check": cmd_minor_check,
    "acyclic": cmd_acyclic,
    "selftest": cmd_selftest,
}


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, carrying only the flags that command reads."""
    parser = argparse.ArgumentParser(
        prog="weylseed",
        description="exact cluster-seed engine over Weyl group words",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        if name != "selftest":
            p.add_argument("--input", help="input JSON document (default stdin)")
            p.add_argument("--inline", help="inline JSON document")
        p.add_argument("--output", help="output path (default stdout)")
    cmd = sub.choices
    cmd["mutate"].add_argument(
        "--mode",
        choices=["frozen", "specialized"],
        default="frozen",
        help="coefficient handling for cluster output",
    )
    cmd["walk"].add_argument(
        "--depth", type=_non_negative_int, default=6, help="number of mutation steps"
    )
    # --plan-only runs no pass, so it takes no --depth
    mu_i = cmd["mu-i"].add_mutually_exclusive_group()
    mu_i.add_argument(
        "--depth",
        type=_non_negative_int,
        default=None,
        help="plan steps tracked symbolically (default all)",
    )
    mu_i.add_argument(
        "--plan-only",
        action="store_true",
        help="plan combinatorics without symbolic execution",
    )
    for name in ("walk", "selftest"):
        cmd[name].add_argument("--seed", type=int, default=20240801, help="RNG seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = None if args.command == "selftest" else _load_doc(args)
        # a command returns a document to dump, or its canonical text in pieces
        result = COMMANDS[args.command](doc, args)
        pieces = [_dump(result)] if isinstance(result, dict) else result
        if args.output:
            try:
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.writelines(pieces)
            except OSError as exc:
                raise ValidationError(f"cannot write output: {exc}") from exc
        else:
            sys.stdout.writelines(pieces)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        diag = {"error": type(exc).__name__, "detail": str(exc)}
        print(_dump(diag), file=sys.stderr, end="")
        return 3
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
