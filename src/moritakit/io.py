"""File formats: JSON for the finite algebra, binary + sidecar for fields.

Groupoid files are JSON with explicit tables, or one of the shorthand
forms ``{"pair": n}``, ``{"group": ...}``, ``{"action": ...}``,
``{"gauge": ...}``.  Sampled fields are little-endian float64 binaries
holding the upper-triangular entries per point (row-major over points),
described by a ``<name>.json`` sidecar; analytic field specs carry
coefficient tables for constant/linear/quadratic entries instead.
"""
from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import numpy as np

from .bibundles import Bibundle
from .gauge import (GridSpec, SampledBivectorField, SampledTwoFormField)
from .groups import FiniteGroup, validate_group
from .groupoids import (FiniteGroupoid, PrincipalBundleData, action_groupoid,
                        gauge_groupoid, group_as_groupoid, pair_groupoid)
from .report import Rows, plain, write_json
from .tss import LabeledSurfaceGraph


def sha256_digest(path) -> str:
    """The file's sha256, read in blocks of 1 MiB."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(functools.partial(fh.read, 1 << 20), b""):
            digest.update(block)
    return "sha256:" + digest.hexdigest()


def _save_json(data, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_json(data, fh, 1)


# ---------------------------------------------------------------------------
# malformed ids and rows

def _is_id(x) -> bool:
    return type(x) is str


def _is_row(row) -> bool:
    return type(row) is list and len(row) == 3 and all(map(_is_id, row))


def _is_arrow(a) -> bool:
    return type(a) is dict and all(_is_id(a.get(k)) for k in ("id", "src", "tgt"))


# the id-bearing keys of the explicit groupoid and bibundle formats:
# key -> (JSON container, test of an entry, what an entry must be)
_ENTRIES = {
    **{key: (list, _is_id, "an id (a string)") for key in ("objects", "carrier")},
    "arrows": (list, _is_arrow, 'an arrow {"id", "src", "tgt"} of ids'),
    **{key: (list, _is_row, "a row of three ids")
       for key in ("comp", "leftAct", "rightAct")},
    **{key: (dict, _is_id, "an id (a string)") for key in ("units", "inv", "J1", "J2")},
}


def _misplaced(data) -> ValueError | None:
    """A ValueError naming the first id-bearing key not held in its JSON container.

    A JSON object where rows belong would be read as a dict of pairs, each
    key split into its characters, so this is checked before construction.
    """
    for key, (container, _, _) in _ENTRIES.items():
        if key in data and type(data[key]) is not container:
            kind = "array" if container is list else "object"
            return ValueError(f"{key!r} is not a JSON {kind}: {data[key]!r}")
    return None


def _malformed(data) -> ValueError | None:
    """A ValueError naming the first malformed id or row of a document, or None.

    The containers are those of ``_ENTRIES``, as ``_misplaced`` checked.
    """
    for key, (container, ok, what) in _ENTRIES.items():
        if key not in data:
            continue
        value = data[key]
        for entry in (value if container is list else value.values()):
            if not ok(entry):
                return ValueError(f"{key!r} holds {entry!r}, which is not {what}")
    return None


def _ids_checked(from_dict):
    """``from_dict``, raising ValueError for a malformed id or row.

    A container of the wrong kind is refused first.  A list where an id
    belongs, or a number where a row belongs, makes a lookup or an
    unpacking raise TypeError.  Only then is the document searched for the
    fault; a TypeError with no such fault propagates.
    """
    @functools.wraps(from_dict)
    def load(data, *args, **kwargs):
        if type(data) is dict:
            fault = _misplaced(data)
            if fault is not None:
                raise fault
        try:
            return from_dict(data, *args, **kwargs)
        except TypeError:
            fault = _malformed(data) if type(data) is dict else None
            if fault is None:
                raise
            raise fault from None
    return load


# ---------------------------------------------------------------------------
# groups and groupoids

def _nested(data, key, load):
    """``load(data[key])``, raising a TypeError there as a ValueError naming the key.

    A part of the wrong shape (a number for a table, a list for a count)
    fails in ``load`` with a TypeError that does not say where it is.
    """
    try:
        return load(data[key])
    except TypeError as exc:
        raise ValueError(f"{key!r} is malformed: {exc}") from None


def group_from_dict(data) -> FiniteGroup:
    """A group from its elements and its table of element ids or indices.

    A table with no identity, an element with no inverse, or a triple
    that does not associate is refused with a ValueError.
    """
    elements = [str(e) for e in data["elements"]]
    index = {e: i for i, e in enumerate(elements)}
    index.update((i, i) for i in range(len(elements)))
    try:
        table = [[index[v] for v in row] for row in data["table"]]
    except KeyError as exc:
        raise ValueError(f"'table' holds unknown element id {exc.args[0]!r}") from None
    group = FiniteGroup(elements, table)
    if group.inverse is None:
        raise ValueError("'table' is not a group table: it has no identity, "
                         "or an element with no inverse")
    report = validate_group(group)
    if not report.ok:
        a, b, c = report.violations[0].witness
        raise ValueError("'table' is not a group table: (a b) c differs from "
                         f"a (b c) for a, b, c = {a!r}, {b!r}, {c!r}")
    return group


def _action_from_dict(spec) -> FiniteGroupoid:
    group = _nested(spec, "group", group_from_dict)
    act = {(g, x): y for g, x, y in spec["act"]}
    return action_groupoid(group, [str(x) for x in spec["objects"]], act)


def _gauge_from_dict(spec) -> FiniteGroupoid:
    return gauge_groupoid(PrincipalBundleData(
        total=tuple(str(e) for e in spec["total"]),
        base=tuple(str(b) for b in spec["base"]),
        projection={str(e): str(b) for e, b in spec["projection"].items()},
        group=_nested(spec, "group", group_from_dict),
        action={(e, g): f for e, g, f in spec["action"]},
    ))


# the shorthand groupoid documents: key -> the loader of its value
_SHORTHANDS = {
    "pair": lambda n: pair_groupoid(int(n)),
    "group": lambda spec: group_as_groupoid(group_from_dict(spec)),
    "action": _action_from_dict,
    "gauge": _gauge_from_dict,
}


@_ids_checked
def groupoid_from_dict(data) -> FiniteGroupoid:
    for key, load in _SHORTHANDS.items():
        if key in data:
            return _nested(data, key, load)
    arrows = [a["id"] for a in data["arrows"]]
    src = {a["id"]: a["src"] for a in data["arrows"]}
    tgt = {a["id"]: a["tgt"] for a in data["arrows"]}
    comp = data["comp"]  # rows [g, h, k], passed as they are
    return FiniteGroupoid(data["objects"], arrows, src, tgt,
                          data["units"], data["inv"], comp)


def _table_rows(table, sentinel, rows, cols, values) -> Rows:
    """``[rows[i], cols[j], values[table[i, j]]]`` per defined cell, row-major.

    ``table`` is a dense index table without its sentinel row and column,
    and ``rows``, ``cols`` and ``values`` are id sequences.  The
    constructors index ids in sorted order, so row-major order is the
    order of the sorted id pairs.
    """
    i, j = np.nonzero(table != sentinel)
    index = np.stack((i, j + len(rows), table[i, j] + len(rows) + len(cols)), axis=1)
    return Rows(index, (*rows, *cols, *values))


def _groupoid_doc(g: FiniteGroupoid) -> dict:
    """The groupoid file's document, with ``comp`` as ``Rows``."""
    m, arrows = g.n_arrows, g.arrows
    return {
        "objects": list(g.objects),
        "arrows": [{"id": a, "src": g.objects[g.src[i]], "tgt": g.objects[g.tgt[i]]}
                   for i, a in enumerate(g.arrows)],
        "comp": _table_rows(g._table[:m, :m], m, arrows, arrows, arrows),
        "units": {x: g.arrows[g.unit[i]] for i, x in enumerate(g.objects)},
        "inv": {a: g.arrows[g.inv[i]] for i, a in enumerate(g.arrows)},
    }


def groupoid_to_dict(g: FiniteGroupoid) -> dict:
    return plain(_groupoid_doc(g))


def load_groupoid(path) -> FiniteGroupoid:
    with open(path, encoding="utf-8") as fh:
        return groupoid_from_dict(json.load(fh))


def save_groupoid(g: FiniteGroupoid, path) -> None:
    _save_json(_groupoid_doc(g), path)


# ---------------------------------------------------------------------------
# bibundles

@_ids_checked
def bibundle_from_dict(data, base_dir=".") -> Bibundle:
    def side(spec):
        if isinstance(spec, str):
            return load_groupoid(Path(base_dir) / spec)
        return groupoid_from_dict(spec)

    left = _nested(data, "left", side)
    right = _nested(data, "right", side)
    return Bibundle(left, right, [str(x) for x in data["carrier"]],
                    data["J1"], data["J2"], data["leftAct"], data["rightAct"])


def _bibundle_doc(s: Bibundle) -> dict:
    """The bibundle file's document, with its tables as ``Rows``."""
    n, carrier = len(s.carrier), s.carrier
    left, right = s._tables
    return {
        "left": _groupoid_doc(s.left),
        "right": _groupoid_doc(s.right),
        "carrier": list(s.carrier),
        "J1": {x: s.left.objects[p] for x, p in zip(s.carrier, s.j1)},
        "J2": {x: s.right.objects[p] for x, p in zip(s.carrier, s.j2)},
        "leftAct": _table_rows(left[:-1, :n], n, s.left.arrows, carrier, carrier),
        "rightAct": _table_rows(right[:n, :-1], n, carrier, s.right.arrows, carrier),
    }


def bibundle_to_dict(s: Bibundle) -> dict:
    return plain(_bibundle_doc(s))


def load_bibundle(path) -> Bibundle:
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        return bibundle_from_dict(json.load(fh), base_dir=path.parent)


def save_bibundle(s: Bibundle, path) -> None:
    _save_json(_bibundle_doc(s), path)


# ---------------------------------------------------------------------------
# labeled surface graphs

def tss_from_dict(data) -> LabeledSurfaceGraph:
    vertices = [v["id"] for v in data["vertices"]]
    genus = {v["id"]: int(v["genus"]) for v in data["vertices"]}
    edges = [(e["tail"], e["head"], float(e["period"])) for e in data["edges"]]
    return LabeledSurfaceGraph(vertices, genus, edges, data.get("volume"))


def tss_to_dict(g: LabeledSurfaceGraph) -> dict:
    data = {
        "vertices": [{"id": v, "genus": g.genus[i]}
                     for i, v in enumerate(g.vertices)],
        "edges": [{"tail": g.vertices[t], "head": g.vertices[h], "period": p}
                  for (t, h, p) in g.edges],
    }
    if g.volume is not None:
        data["volume"] = g.volume
    return data


def load_tss(path) -> LabeledSurfaceGraph:
    with open(path, encoding="utf-8") as fh:
        return tss_from_dict(json.load(fh))


def save_tss(g: LabeledSurfaceGraph, path) -> None:
    _save_json(tss_to_dict(g), path)


# ---------------------------------------------------------------------------
# sampled fields

_FIELD_CLASSES = {"bivector": SampledBivectorField, "two_form": SampledTwoFormField}


def _sidecar_path(path) -> Path:
    path = Path(path)
    return path if path.suffix == ".json" else Path(str(path) + ".json")


def _data_path(path) -> Path:
    path = Path(path)
    return Path(str(path)[: -len(".json")]) if str(path).endswith(".json") else path


def save_field(field, path, kind: str) -> None:
    """Write the binary payload at ``path`` and the sidecar at ``path.json``.

    The payload is written from the upper entries as they are held, with
    no copy when they are a contiguous little-endian float64 array.
    """
    if kind not in _FIELD_CLASSES:
        raise ValueError(f"unknown field kind {kind!r}")
    grid = field.grid
    payload = np.ascontiguousarray(field.upper, dtype="<f8")
    Path(path).write_bytes(payload.reshape(-1).view(np.uint8))
    sidecar = {
        "dimension": grid.dimension,
        "origin": list(grid.origin),
        "spacing": grid.spacing,
        "shape": list(grid.shape),
        "kind": kind,
    }
    _save_json(sidecar, _sidecar_path(path))


def _field_from_analytic(spec):
    grid_spec = spec["grid"]
    grid = GridSpec(int(grid_spec["dimension"]),
                    tuple(float(v) for v in grid_spec["origin"]),
                    float(grid_spec["spacing"]),
                    tuple(int(v) for v in grid_spec["shape"]))
    kind = spec.get("kind", "bivector")
    cls = _FIELD_CLASSES[kind]
    return cls.from_polynomials(grid, spec["entries"]), kind


def load_field(path):
    """Load a field from a binary+sidecar pair or an analytic JSON spec.

    Returns ``(field, kind)``.
    """
    with open(_sidecar_path(path), encoding="utf-8") as fh:
        return _field_from_json(json.load(fh), path)


def _field_from_json(data, path):
    """``(field, kind)`` from the parsed analytic spec or sidecar of ``path``.

    ``path`` names the binary payload or its sidecar, as for ``load_field``.
    """
    if "analytic" in data:
        return _field_from_analytic(data["analytic"])
    grid = GridSpec(int(data["dimension"]),
                    tuple(float(v) for v in data["origin"]),
                    float(data["spacing"]),
                    tuple(int(v) for v in data["shape"]))
    kind = data.get("kind", "bivector")
    n_upper = grid.dimension * (grid.dimension - 1) // 2
    flat = np.frombuffer(_data_path(path).read_bytes(), dtype="<f8")
    expected = grid.n_points() * n_upper
    if flat.size != expected:
        raise ValueError(f"field payload has {flat.size} floats, expected {expected}")
    return _FIELD_CLASSES[kind](grid, flat.reshape(*grid.shape, n_upper)), kind


# ---------------------------------------------------------------------------
# kind detection for ``validate``

def detect_kind(path):
    """Return ``(kind, document)``: the kind of file and its parsed JSON.

    The document is ``None`` for a binary field payload, which is
    recognised by its sidecar.
    """
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError):
        if _sidecar_path(path).exists():
            return "field", None
        raise ValueError(f"cannot determine the kind of {path}") from None
    if not isinstance(data, dict):
        raise ValueError(f"cannot determine the kind of {path}")
    if "vertices" in data:
        return "tss", data
    if "carrier" in data:
        return "bibundle", data
    if {"objects", "pair", "group", "action", "gauge"} & set(data):
        return "groupoid", data
    if "analytic" in data or {"dimension", "shape", "spacing"} <= set(data):
        return "field", data
    raise ValueError(f"cannot determine the kind of {path}")
