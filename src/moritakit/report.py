"""Validation reports, and the one JSON writer for reports and files.

Violations are data, not exceptions.  ``write_json`` writes every JSON
document moritakit emits: the stdout report (``indent=2``) and the
groupoid, bibundle, TSS and field-sidecar files (``indent=1``).  Its
output is exactly ``json.dumps(obj, sort_keys=True, indent=indent)``.
The pure-Python encoder that ``json.dumps`` runs when ``indent`` is set
is replaced by C-encoder calls on blocks of leaf lists, and the text is
written in bounded pieces rather than built as one string.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain


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

# Items of a leaf list per C-encoder call, and so per written piece: 64
# rows of the order-720 Cayley table in a report are 0.7 MB of its 7.7 MB.
_BLOCK = 64
# Exact types the C encoder writes as json.dumps does; subclasses such
# as np.float64 or IntEnum take the json.dumps fallback.
_SCALARS = frozenset({str, int, float, bool, type(None)})
# The C encoder puts a raw newline after every item separator.  Encoded
# strings never contain a raw newline, so each ",\n" is a separator and
# can be re-indented with str.replace.
_encode = json.JSONEncoder(separators=(",\n", ": ")).encode


def write_json(obj, fh, indent: int) -> None:
    """Write ``json.dumps(obj, sort_keys=True, indent=indent)`` to ``fh``.

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
            _write_leaf(obj, _scalars_text, write, step, pad)
        elif kinds == {list} and all(obj) and set(
                map(type, chain.from_iterable(obj))) <= _SCALARS:
            _write_leaf(obj, _rows_text, write, step, pad)
        else:
            sep = "[" + inner
            for item in obj:
                write(sep)
                _write(item, write, step, inner)
                sep = "," + inner
            write(pad + "]")
    else:
        # tuples, non-str keys, scalar subclasses, empty containers
        write(json.dumps(obj, sort_keys=True, indent=len(step)).replace("\n", pad))


def _write_leaf(items, block_text, write, step, pad):
    """Write a leaf list, ``_BLOCK`` items per C-encoder call."""
    inner = pad + step
    write("[" + inner)
    for start in range(0, len(items), _BLOCK):
        if start:
            write("," + inner)
        write(block_text(items[start:start + _BLOCK], inner, step))
    write(pad + "]")


def _scalars_text(block, inner, step):
    """A block of scalars, one per line at ``inner``, without brackets."""
    return _encode(block)[1:-1].replace(",\n", "," + inner)


def _rows_text(block, inner, step):
    """A block of scalar rows, each a list opening at ``inner``."""
    deeper = inner + step
    text = _encode(block)[2:-2].replace(",\n", "," + deeper)
    # once the scalars are indented, "],<deeper>[" occurs only between
    # rows: no encoded scalar ends in "]"
    text = text.replace("]," + deeper + "[", inner + "]," + inner + "[" + deeper)
    return "[" + deeper + text + inner + "]"
