"""Validation reports, and the one JSON writer for reports and files.

Violations are data, not exceptions.  ``write_json`` writes every JSON
document moritakit emits: the stdout report (``indent=2``) and the
groupoid, bibundle, TSS and field-sidecar files (``indent=1``).  Its
output is exactly ``json.dumps(plain(obj), sort_keys=True,
indent=indent)``.

Large tables (composition and action rows, Cayley tables) reach the
writer as ``Rows`` leaves: an integer index array and the names it
indexes.  Each name is encoded once, and a block of rows is written as
one gather of the encoded names through the index.  ``plain`` turns the
``Rows`` leaves of a document into lists, so the public document
functions (``io.groupoid_to_dict``, ``FiniteGroup.as_dict``, ...) return
JSON-native values.  Lists of scalars go through the C encoder in
blocks, and other containers item by item.  The pure-Python encoder
that ``json.dumps`` runs when ``indent`` is set is left to small
values, and the text is written in bounded pieces rather than built as
one string.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Violation:
    """One violated axiom together with a witness tuple of ids."""

    rule: str
    witness: tuple

    def as_dict(self):
        return {"rule": self.rule, "witness": list(self.witness)}


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, rule: str, *witness) -> None:
        self.violations.append(Violation(rule, tuple(witness)))

    def rules(self) -> set[str]:
        return {v.rule for v in self.violations}

    def as_dict(self):
        return {"ok": self.ok, "violations": [v.as_dict() for v in self.violations]}


# ---------------------------------------------------------------------------
# JSON emission

# Items of a list of scalars per C-encoder call, and so per written piece.
_BLOCK = 64
# Cells of a Rows table per written piece: 64 rows of the order-720
# Cayley table in a report are 0.7 MB of its 7.7 MB.
_CELLS = 64 * 720
# Exact types the C encoder writes as json.dumps does; subclasses such
# as np.float64 or IntEnum take the json.dumps fallback.
_SCALARS = frozenset({str, int, float, bool, type(None)})
# The C encoder puts a raw newline after every item separator.  Encoded
# strings never contain a raw newline, so each ",\n" is a separator and
# can be re-indented with str.replace.
_encode = json.JSONEncoder(separators=(",\n", ": ")).encode


class Rows:
    """A table leaf of a document: row r is ``[names[i] for i in index[r]]``.

    ``index`` is an (R, w) integer array with w >= 1, and ``names`` one
    sequence of exact ``str`` or exact ``int`` values.  Columns over
    different id sets index one concatenation of those sets.
    """

    __slots__ = ("index", "names")

    def __init__(self, index, names):
        self.index = index
        self.names = names

    def tolist(self) -> list[list]:
        return np.array(self.names, dtype=object)[self.index].tolist()


def plain(obj):
    """``obj`` with each ``Rows`` leaf made a list of rows, and tuples lists.

    Dicts, lists and tuples are rebuilt; other values are kept as they are.
    """
    kind = type(obj)
    if kind is Rows:
        return obj.tolist()
    if kind is dict:
        return {key: plain(value) for key, value in obj.items()}
    if kind is list or kind is tuple:
        return [plain(item) for item in obj]
    return obj


def write_json(obj, fh, indent: int) -> None:
    """Write ``json.dumps(plain(obj), sort_keys=True, indent=indent)`` to ``fh``.

    ``fh`` is an open text file; the text goes out in pieces of bounded
    size.  No trailing newline is written.
    """
    _write(obj, fh.write, " " * indent, "\n")


def _write(obj, write, step, pad):
    """Write ``obj``, whose closing bracket goes on the line ``pad`` opens."""
    kind = type(obj)
    inner = pad + step
    if kind in _SCALARS:
        write(_encode(obj))
    elif kind is Rows:
        _write_rows(obj, write, step, pad)
    elif kind is dict and obj and set(map(type, obj)) == {str}:
        sep = "{" + inner
        for key in sorted(obj):
            write(sep + _encode(key) + ": ")
            _write(obj[key], write, step, inner)
            sep = "," + inner
        write(pad + "}")
    elif kind is list and obj:
        kinds = set(map(type, obj))
        if kinds <= _SCALARS:
            _write_leaf(obj, write, step, pad)
        else:
            sep = "[" + inner
            for item in obj:
                write(sep)
                _write(item, write, step, inner)
                sep = "," + inner
            write(pad + "]")
    else:
        # tuples, non-str keys, scalar subclasses, empty containers
        write(json.dumps(plain(obj), sort_keys=True, indent=len(step)).replace("\n", pad))


def _write_leaf(items, write, step, pad):
    """Write a list of scalars, one per line, ``_BLOCK`` per C-encoder call."""
    inner = pad + step
    write("[" + inner)
    for start in range(0, len(items), _BLOCK):
        if start:
            write("," + inner)
        write(_encode(items[start:start + _BLOCK])[1:-1].replace(",\n", "," + inner))
    write(pad + "]")


def _write_rows(rows, write, step, pad):
    """Write a ``Rows`` table, at most ``_CELLS`` cells per piece.

    Each name is encoded once, and its token is held in two forms:
    followed by the separator to the next cell of its row, and followed
    by the close of its row and the open of the next.  A piece is one
    gather of those texts through the index and one join.
    """
    index = rows.index
    n, w = index.shape
    if not n:
        write("[]")
        return
    inner = pad + step
    deeper = inner + step
    tokens = [_encode(name) for name in rows.names]
    within = np.array([t + "," + deeper for t in tokens], dtype=object)
    across = np.array([t + inner + "]," + inner + "[" + deeper for t in tokens],
                      dtype=object)
    per_piece = max(1, _CELLS // w)
    write("[" + inner + "[" + deeper)
    for start in range(0, n, per_piece):
        block = index[start:start + per_piece]
        cells = within[block]
        cells[:, -1] = across[block[:, -1]]
        if start + per_piece >= n:  # the table's last cell closes nothing
            cells[-1, -1] = tokens[block[-1, -1]]
        write("".join(cells.ravel().tolist()))
    write(inner + "]" + pad + "]")
