"""Command-line front end with deterministic JSON input and output.

Exit codes: 0 on success, 2 on input validation problems, 3 on violated
engine contracts (failed exactness or consistency assertions).
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from functools import partial
from typing import Any

from . import acceptance
from .cartan import CartanMatrix, QuiverOrientation, ReducedWord, _is_int
from .errors import EngineError, ValidationError, WeylseedError
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
    acyclic_double,
    b_matrix,
    coefficient_free_matrix,
    denominator_vector,
    gamma_i,
    y_dagger,
)
from .words import g_V, phi_eval, to_word


def _dump(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


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


def _cluster_json(seed: Seed, mode: str) -> list:
    cluster = seed.specialize_frozen() if mode == "specialized" else seed.cluster
    return [x.to_json() for x in cluster]


def cmd_gamma(doc, args) -> dict:
    word = _word_from_doc(doc)
    quiver = gamma_i(word)
    return {"quiver": quiver.to_json(), "b_matrix": b_matrix(quiver).to_json()}


def cmd_mutate(doc, args) -> dict:
    if "matrix" in doc:
        seed = Seed.initial(ExchangeMatrix.from_json(doc["matrix"]))
    else:
        seed = Seed.from_word(_word_from_doc(doc))
    seed = seed.mutate_path(_int_list(doc.get("path", []), "path", 1, seed.matrix.r))
    return {
        "matrix": seed.matrix.to_json(),
        "cluster": _cluster_json(seed, args.mode),
        "provenance": list(seed.provenance),
        "denominators": [
            list(denominator_vector(seed, pos)) for pos in seed.matrix.mutable
        ],
    }


def cmd_walk(doc, args) -> dict:
    word = _word_from_doc(doc)
    rng = random.Random(args.seed)
    seed = Seed.from_word(word)
    registry = SeedRegistry()
    registry.insert_if_absent(seed)
    mutable = seed.matrix.mutable
    last = None
    for step in range(1, args.depth + 1):
        choices = [k for k in mutable if k != last]
        if not choices:
            raise ValidationError(
                f"walk step {step}: no vertex to mutate "
                f"(mutable vertices: {len(mutable)})"
            )
        k = rng.choice(choices)
        try:
            seed = seed.mutate(k)
        except EngineError as exc:
            raise type(exc)(f"step {step}, vertex {k}: {exc}") from exc
        registry.insert_if_absent(seed)
        last = k
    return {
        "steps": args.depth,
        "rng_seed": args.seed,
        "distinct_seeds": len(registry.seen),
        "denominator_collisions": sorted(
            [list(c) for c in registry.collisions]
        ),
        "final_provenance": list(seed.provenance),
    }


def _walk_labels(doc: dict, word: ReducedWord, labels, exchange) -> dict:
    """Exchange ``labels`` along ``path``, mutating the word's matrix once per step."""
    matrix = b_matrix(gamma_i(word))
    picks = []
    for k in _int_list(doc.get("path", []), "path", 1, word.r):
        move = exchange(matrix, labels, k)
        matrix, labels = matrix.mutate(k), move.labels
        picks.append("in" if move.picked_in_side else "out")
    return {"labels": [list(v) for v in labels], "sides": picks}


def cmd_dimvec(doc, args) -> dict:
    word = _word_from_doc(doc)
    tables = hom_tables(word)
    walk = _walk_labels(doc, word, initial_dimvec_labels(tables), mutate_dimvec)
    return {"tables": tables.to_json(), **walk}


def cmd_delta_dimvec(doc, args) -> dict:
    word = _word_from_doc(doc)
    tables = hom_tables(word)
    exchange = partial(mutate_delta_dimvec, d_delta=tables.d_delta)
    walk = _walk_labels(doc, word, initial_delta_labels(word), exchange)
    return {"d_delta": list(tables.d_delta), **walk}


def cmd_mu_i(doc, args) -> dict:
    word = _word_from_doc(doc)
    if args.plan_only:
        return {"plan": mu_i_plan(word).to_json()}
    report = run_mu_i(word, max_seed_steps=args.depth)
    return {
        "plan": report.plan.to_json(),
        "report": {
            "steps_checked": report.steps_checked,
            "final_labels": [[lab.b, lab.a] for lab in report.final_labels],
            "final_labels_ok": report.final_labels_expected(word),
            "chains_reversed": report.final_chains_reversed(word),
        },
    }


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
    for target in targets:
        kind, *rest = target if isinstance(target, list) and target else [None]
        if kind == "V" and len(_int_list(rest, "V target", 1, word.r)) == 1:
            poly = expander.expand_initial(rest[0])
        elif kind == "M" and len(_int_list(rest, "M target", 0, word.r + 1)) == 2:
            poly = expander.expand(IntervalLabel(*rest))
        elif kind == "laurent" and len(rest) == 1:
            poly = expander.expand_laurent(LaurentPoly.from_json(rest[0]))
        else:
            raise ValidationError(f"unknown expansion target {target!r}")
        results.append({"target": target, "poly": poly.to_json()})
    return {"expansions": results}


def _positions(doc: dict, word: ReducedWord) -> list[int]:
    return _int_list(doc.get("positions", list(range(1, word.r + 1))), "positions", 1, word.r)


def cmd_euler_gen(doc, args) -> str:
    """Writes its canonical text itself: a sum can hold tens of thousands of words."""
    word = _word_from_doc(doc)
    out = []
    for k in _positions(doc, word):
        try:
            g = g_V(word, k)
        except EngineError as exc:
            raise type(exc)(f"position {k}: {exc}") from exc
        out.append('{"k":%d,"sum":%s,"words":%d}' % (k, g.json_text(), g.word_count()))
    return '{"generating_functions":[' + ",".join(out) + "]}\n"


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
        try:
            val = phi_eval(g_V(word, k, letters), letters, names)
        except EngineError as exc:
            raise type(exc)(f"position {k}: {exc}") from exc
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
    cmd["mu-i"].add_argument(
        "--depth",
        type=_non_negative_int,
        default=None,
        help="plan steps tracked symbolically (default all)",
    )
    cmd["mu-i"].add_argument(
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
        # a command returns a document to dump, or its canonical text as a str
        result = COMMANDS[args.command](doc, args)
        text = result if isinstance(result, str) else _dump(result)
        if args.output:
            try:
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ValidationError(f"cannot write output: {exc}") from exc
        else:
            sys.stdout.write(text)
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
