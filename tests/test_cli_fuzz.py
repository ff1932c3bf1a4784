"""Fuzz the CLI boundary: a document with one field replaced by a small JSON
value must exit 0, 2 or 3 and never raise."""
import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings, strategies as st

from weylseed.cli import main

A2 = {"rank": 2, "edges": [[1, 2, 1]], "word": [1, 2, 1]}
A3 = {"rank": 3, "edges": [[1, 2, 1], [2, 3, 1]], "word": [2, 1, 3, 2]}

# one small document per command that reads a document
BASE = {
    "gamma": A3,
    "mutate": dict(A3, path=[1]),
    "walk": A3,
    "dimvec": dict(A2, path=[1]),
    "delta-dimvec": dict(A3, path=[1]),
    "mu-i": A3,
    "identities": dict(A2, pairs=[[1, 3]]),
    "pbw": dict(A2, targets=[["V", 1], ["M", 3, 1]]),
    "euler-gen": dict(A2, positions=[1, 2]),
    "phi-eval": dict(A2, pattern=[1, 2, 1], vars=["a", "b", "c"], positions=[3]),
    "minor-check": A2,
    "acyclic": {"rank": 3, "arrows": [[1, 2, 1], [3, 2, 1]]},
}
FIELDS = (
    "rank", "edges", "word", "arrows", "matrix", "path", "pairs", "positions",
    "pattern", "vars", "targets",
)

scalars = (
    st.integers(-3, 10)
    | st.text(max_size=3)
    | st.booleans()
    | st.none()
    | st.floats(allow_nan=False, allow_infinity=False, width=16)
)
values = (
    scalars
    | st.lists(scalars, max_size=4)
    | st.dictionaries(st.text(max_size=3), scalars, max_size=3)
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(BASE)), st.sampled_from(FIELDS), values)
def test_perturbed_documents_exit_cleanly(command, field, value):
    doc = dict(BASE[command], **{field: value})
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([command, "--inline", json.dumps(doc)])
    assert code in (0, 2, 3)
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
