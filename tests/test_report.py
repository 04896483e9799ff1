"""``report.write_json`` against ``json.dumps(sort_keys=True, indent=i)``."""
import io
import json

import numpy as np
from hypothesis import given, settings, strategies as st

from moritakit.report import _BLOCK, write_json

TRICKY = ["", ", ", "],\n[", "\n", '"', "\\", "é", "☃ snow", "x,\ny", "]", "[", "\x00"]

scalars = (st.none() | st.booleans() | st.integers()
           | st.floats(allow_nan=True, allow_infinity=True)
           | st.sampled_from([1e300, -1e300, float("inf"), -float("inf"),
                              float("nan"), -0.0])
           | st.sampled_from(TRICKY) | st.text(max_size=6))
# subclasses that take the json.dumps fallback
leaves = scalars | st.floats(allow_nan=False).map(np.float64)


def repeated(items):
    """Long lists built cheaply, so that block boundaries are crossed."""
    return st.builds(lambda xs, n: xs * n, st.lists(items, min_size=1, max_size=4),
                     st.integers(1, _BLOCK))


rows = st.lists(scalars, min_size=1, max_size=4)


def containers(children):
    return (st.lists(children, max_size=4)
            | st.lists(children, max_size=3).map(tuple)
            | st.dictionaries(st.sampled_from(TRICKY) | st.text(max_size=4),
                              children, max_size=4)
            | st.dictionaries(st.integers(), children, max_size=3)
            | repeated(scalars) | repeated(rows))


trees = st.recursive(leaves, containers, max_leaves=40)


def written(obj, indent):
    buf = io.StringIO()
    write_json(obj, buf, indent)
    return buf.getvalue()


@settings(max_examples=300, deadline=None)
@given(trees)
def test_write_json_is_json_dumps(tree):
    for indent in (1, 2):
        assert written(tree, indent) == json.dumps(tree, sort_keys=True,
                                                   indent=indent)


def test_write_json_writes_bounded_pieces():
    # the shape of a Cayley table of order 720 in a report
    doc = {"result": {"table": [list(range(720))] * 720,
                      "elements": [f"e{i}" for i in range(720)]}}
    pieces = []

    class Sink:
        write = pieces.append

    write_json(doc, Sink, 2)
    text = "".join(pieces)
    assert text == json.dumps(doc, sort_keys=True, indent=2)
    assert max(map(len, pieces)) < len(text) / 8
