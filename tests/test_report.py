"""``report.write_json`` against ``json.dumps(plain(obj), sort_keys=True, indent=i)``."""
import io
import json
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from moritakit import report
from moritakit.bibundles import morita_equivalent
from moritakit.groupoids import group_as_groupoid
from moritakit.groups import symmetric_group
from moritakit.io import bibundle_to_dict, groupoid_to_dict
from moritakit.picard import picard_group
from moritakit.report import _BLOCK, _CELLS, Rows, plain, write_json

from support import gauge_over

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


name_seqs = (st.lists(st.sampled_from(TRICKY) | st.text() | st.integers(),
                      min_size=1, max_size=6)
             | st.integers(1, 30).map(range))


@st.composite
def tables(draw):
    names = draw(name_seqs)
    n, w = draw(st.integers(0, 30)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return Rows(rng.integers(0, len(names), (n, w)), names)


@settings(max_examples=300, deadline=None)
@given(tables())
def test_rows_are_the_names_at_their_index(table):
    assert plain(table) == [[table.names[i] for i in row]
                            for row in table.index.tolist()]


@settings(max_examples=300, deadline=None)
@given(st.recursive(leaves | tables(), containers, max_leaves=20),
       st.sampled_from([1, 2, 3, 7, _CELLS]))
def test_write_json_is_json_dumps_of_plain(tree, cells):
    # small pieces, so that tables of a few rows cross piece boundaries
    with mock.patch.object(report, "_CELLS", cells):
        for indent in (1, 2):
            assert written(tree, indent) == json.dumps(plain(tree), sort_keys=True,
                                                       indent=indent)


def test_write_json_writes_bounded_pieces_of_rows():
    # the Cayley table of Z720 as the index array a report builds
    n = 720
    doc = {"result": {"table": Rows((np.arange(n)[:, None] + np.arange(n)) % n, range(n)),
                      "elements": [f"e{i}" for i in range(n)]}}
    pieces = []

    class Sink:
        write = pieces.append

    write_json(doc, Sink, 2)
    text = "".join(pieces)
    assert text == json.dumps(plain(doc), sort_keys=True, indent=2)
    assert max(map(len, pieces)) < len(text) / 8


def json_native(obj):
    kind = type(obj)
    if kind is dict:
        return all(type(k) is str and json_native(v) for k, v in obj.items())
    if kind is list:
        return all(map(json_native, obj))
    return kind in (str, int, float, bool, type(None))


def test_public_documents_are_json_native():
    s3 = symmetric_group(3)
    s3x2 = gauge_over(s3, 2)
    witness = morita_equivalent(s3x2, group_as_groupoid(s3))
    docs = {"groupoid_to_dict": groupoid_to_dict(s3x2),
            "bibundle_to_dict": bibundle_to_dict(witness),
            "FiniteGroup.as_dict": s3.as_dict(),
            "PicardGroup.as_dict": picard_group(s3x2).as_dict()}
    for name, doc in docs.items():
        assert json_native(doc), name
    assert docs["FiniteGroup.as_dict"]["table"][1] == list(s3.table[1])
