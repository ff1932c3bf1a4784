"""Documents of the four benchmark workloads.

Every document is a ``weylseed`` argv list run in-process through
``weylseed.cli.main``.  The fixed workloads are the named cases of the
roadmap and the tests; only ``cli-small`` depends on the workload seed.
Words are generated and validated here with an independent reducedness
check, so a change to the package cannot change the inputs.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass

WILD3 = (3, ((1, 2, 3), (1, 3, 2), (2, 3, 2)))
E8 = (8, ((5, 6, 1), (6, 8, 1), (7, 8, 1), (8, 4, 1), (4, 3, 1), (3, 2, 1), (2, 1, 1)))
DOUBLE3 = (3, ((1, 2, 2), (2, 3, 1)))
A6 = (6, ((1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (5, 6, 1)))
E8_WORD = (8, 7, 6, 5, 4, 3, 2, 1) * 15
A6_WORD = (1, 2, 1, 3, 2, 1, 4, 3, 2, 1, 5, 4, 3, 2, 1, 6, 5, 4, 3, 2, 1)

# The tame pool of cli-small: A2, A3, A4 and the D4 star.
TAME = (
    (2, ((1, 2, 1),)),
    (3, ((1, 2, 1), (2, 3, 1))),
    (4, ((1, 2, 1), (2, 3, 1), (3, 4, 1))),
    (4, ((1, 4, 1), (2, 4, 1), (3, 4, 1))),
)
TYPE_A = TAME[:3]
SMALL_COMMANDS = (
    "gamma", "mutate", "walk", "dimvec", "delta-dimvec", "mu-i", "identities",
    "pbw", "euler-gen", "phi-eval", "minor-check", "acyclic",
)
SMALL_PER_COMMAND = 20
MALFORMED_SLOT = 5  # slots 5, 15, ...: one document in ten is malformed

# Defects of the engine that end in a traceback, with the exception each
# raises.  cli-small keeps documents that hit them, at fixed slots (half of
# the well-formed walk documents, a quarter of the identities ones); they
# count as failed, so a fix shows as a rising ok_ratio.
KNOWN_DEFECTS = {
    # walk on a word with fewer than two mutable vertices: rng.choice([])
    "walk-few-mutable": "IndexError",
    # identities on a word whose mu-i plan is empty: max() of nothing
    "identities-empty-plan": "ValueError",
}


@dataclass(frozen=True)
class Doc:
    """One CLI call and the outcome class it must land in.

    ``expect`` is ``"ok"`` (exit 0), ``"invalid"`` (exit 2) or the name of a
    known defect.
    """

    argv: tuple[str, ...]
    expect: str
    label: str


def cartan_rows(rank: int, edges) -> list[list[int]]:
    rows = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j, m in edges:
        rows[i - 1][j - 1] -= m
        rows[j - 1][i - 1] -= m
    return rows


def _reflect(rows, i: int, d: list[int]) -> list[int]:
    coef = sum(dj * rows[j][i - 1] for j, dj in enumerate(d))
    out = list(d)
    out[i - 1] -= coef
    return out


def _beta_positive(rows, positions, letter: int) -> bool:
    """Whether s_{i_1} ... s_{i_r}(alpha_letter) is a positive root."""
    d = [0] * len(rows)
    d[letter - 1] = 1
    for j in reversed(positions):
        d = _reflect(rows, j, d)
    return all(x >= 0 for x in d)


def is_reduced(rank: int, edges, printed) -> bool:
    rows = cartan_rows(rank, edges)
    positions = list(reversed(printed))
    return all(
        1 <= letter <= rank and _beta_positive(rows, positions[:k], letter)
        for k, letter in enumerate(positions)
    )


def random_reduced_word(rng: random.Random, rank: int, edges, length: int) -> list[int]:
    """Prepend letters while the word stays reduced; shorter if stuck."""
    rows = cartan_rows(rank, edges)
    positions: list[int] = []
    for _ in range(length):
        letters = list(range(1, rank + 1))
        rng.shuffle(letters)
        for letter in letters:
            if _beta_positive(rows, positions, letter):
                positions.append(letter)
                break
        else:
            break
    return positions[::-1]


def mutable_positions(printed) -> list[int]:
    """Positions (1 = rightmost) whose letter occurs again further left."""
    positions = list(reversed(printed))
    return [
        k for k, letter in enumerate(positions, start=1)
        if letter in positions[k:]
    ]


def plan_vertices(printed) -> list[int]:
    """Vertices mutated by the chain-reversal pass, in plan order."""
    positions = list(reversed(printed))
    chains: dict[int, list[int]] = {}
    for k, letter in enumerate(positions, start=1):
        chains.setdefault(letter, []).append(k)
    out = []
    for k, letter in enumerate(positions, start=1):
        chain = chains[letter]
        out.extend(chain[: len(chain) - 1 - chain.index(k)])
    return out


def _doc(command: str, body: dict, *flags: str, expect: str = "ok", label: str = "") -> Doc:
    text = json.dumps(body, separators=(",", ":"))
    return Doc((command, "--inline", text, *flags), expect, label or command)


def _word_doc(cartan, word, **extra) -> dict:
    rank, edges = cartan
    if not is_reduced(rank, edges, word):
        raise ValueError(f"benchmark word {list(word)} is not reduced")
    return {"rank": rank, "edges": [list(e) for e in edges], "word": list(word), **extra}


def chain_pass(seed: int) -> list[Doc]:
    return [
        _doc("mu-i", _word_doc(WILD3, (1, 2, 3, 1, 3, 1, 2, 3, 1, 3)), "--depth", "9",
             label="mu-i wild depth 9 (single-term divisors)"),
        _doc("mu-i", _word_doc(WILD3, (2, 3, 1, 3, 2, 3, 2, 1, 3)),
             label="mu-i wild uncut (multi-term divisors)"),
        _doc("mu-i", _word_doc(WILD3, (3, 2, 3, 2, 1, 3, 2, 1, 3)),
             label="mu-i wild uncut (multiplication heavy)"),
    ]


def e8_combinatorial(seed: int) -> list[Doc]:
    # dimvec and delta-dimvec run far apart in a pass, so that the two
    # mid-length documents are not timed in the same stretch of machine noise
    path = plan_vertices(E8_WORD)[:60]
    return [
        _doc("dimvec", _word_doc(E8, E8_WORD, path=path), label="dimvec E8 60 steps"),
        _doc("gamma", _word_doc(E8, E8_WORD), label="gamma E8"),
        _doc("mu-i", _word_doc(E8, E8_WORD), "--plan-only", label="mu-i E8 plan only"),
        _doc("mu-i", _word_doc(E8, E8_WORD), "--depth", "0", label="mu-i E8 depth 0"),
        _doc("delta-dimvec", _word_doc(E8, E8_WORD, path=path),
             label="delta-dimvec E8 60 steps"),
    ]


def word_eval(seed: int) -> list[Doc]:
    return [
        _doc("phi-eval", _word_doc(DOUBLE3, (2, 3, 1, 2, 3, 1)), label="phi-eval 231231"),
        _doc("phi-eval", _word_doc(DOUBLE3, (1, 2, 1, 2, 3, 2)), label="phi-eval 121232"),
        _doc("euler-gen", _word_doc(DOUBLE3, (2, 3, 1, 2, 3, 1)), label="euler-gen 231231"),
        _doc("minor-check", _word_doc(A6, A6_WORD), label="minor-check A6"),
    ]


def _malformed(rng: random.Random, command: str, body: dict) -> tuple[dict, str]:
    rank = body["rank"]
    if command == "acyclic":
        kind = rng.choice(("missing field", "bad edge"))
    else:
        kind = rng.choice(("missing field", "non-reduced word", "bad edge", "letter out of range"))
    body = dict(body)
    if kind == "missing field":
        del body[rng.choice([k for k in ("rank", "word", "arrows") if k in body])]
    elif kind == "non-reduced word":
        body["word"] = [body["word"][0]] + body["word"]
    elif kind == "bad edge":
        key = "arrows" if command == "acyclic" else "edges"
        body[key] = body[key] + [[1, rank + 1, 1]]
    else:
        word = list(body["word"])
        word[rng.randrange(len(word))] = rank + 1
        body["word"] = word
    return body, kind


def _pick_word(rng: random.Random, pools, length: int, predicate=None):
    """A random reduced word from ``pools``; with ``predicate``, one that meets it.

    Without a predicate the Cartan matrix is the first of ``pools`` and the
    word is tried at ``length``.  With one, matrix and length are drawn
    afresh until the word meets the predicate.
    """
    rank, edges = pools[0]
    while True:
        word = random_reduced_word(rng, rank, edges, length)
        if predicate is None or predicate(word):
            return (rank, edges), word
        rank, edges = rng.choice(pools)
        length = rng.randint(3, 7)


def _small_doc(rng: random.Random, command: str, slot: int) -> Doc:
    """Document ``slot`` of ``command``: its shape is fixed by the slot, its words by ``rng``.

    The Cartan matrix and word length cycle through the pool and through 3..7,
    every tenth document is malformed, and the documents that hit a known
    defect sit at fixed slots, so every seed gets the same mix.
    """
    pools = TYPE_A if command == "minor-check" else TAME
    pools = pools[slot % len(pools):] + pools[:slot % len(pools)]
    length = 3 + (slot // len(pools)) % 5
    malformed = slot % 10 == MALFORMED_SLOT
    expect, predicate = "ok", None
    if command == "walk" and not malformed:
        expect = "walk-few-mutable" if slot % 2 == 0 else "ok"
        predicate = lambda w: (len(mutable_positions(w)) < 2) == (expect != "ok")  # noqa: E731
    elif command == "identities" and not malformed:
        expect = "identities-empty-plan" if slot % 4 == 0 else "ok"
        predicate = lambda w: (not plan_vertices(w)) == (expect != "ok")  # noqa: E731
    (rank, edges), word = _pick_word(rng, pools, length, predicate)
    mutable = mutable_positions(word)
    flags: tuple[str, ...] = ()
    if command == "acyclic":
        arrows = [[i, j, m] if rng.random() < 0.5 else [j, i, m] for i, j, m in edges]
        body = {"rank": rank, "arrows": arrows}
    else:
        body = {"rank": rank, "edges": [list(e) for e in edges], "word": word}
    if command in ("mutate", "dimvec", "delta-dimvec") and mutable:
        body["path"] = [rng.choice(mutable) for _ in range(1 + slot % 4)]
    if command == "mutate":
        flags = ("--mode", ("frozen", "specialized")[slot % 2])
    elif command == "walk":
        flags = ("--depth", "6")
    label = f"{command} rank {rank} {word}"
    if malformed:
        body, kind = _malformed(rng, command, body)
        expect, label = "invalid", f"{label} ({kind})"
    return _doc(command, body, *flags, expect=expect, label=label)


def cli_small(seed: int) -> list[Doc]:
    """SMALL_PER_COMMAND documents of each command, interleaved by slot."""
    rng = random.Random(seed)
    return [
        _small_doc(rng, command, slot)
        for slot in range(SMALL_PER_COMMAND)
        for command in SMALL_COMMANDS
    ]


WORKLOADS = {
    "chain-pass": chain_pass,
    "e8-combinatorial": e8_combinatorial,
    "word-eval": word_eval,
    "cli-small": cli_small,
}
