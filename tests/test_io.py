import json
import random
import tracemalloc

import numpy as np
import pytest

from moritakit.bibundles import (Bibundle, identity_bibundle, morita_equivalent,
                                 validate_bibundle)
from moritakit.gauge import (GridSpec, SampledBivectorField,
                             SampledTwoFormField, apply_gauge)
from moritakit.groups import cyclic_group
from moritakit.groupoids import (group_as_groupoid, groupoid_isomorphic,
                                 pair_groupoid, validate)
from moritakit.io import (bibundle_to_dict, detect_kind, groupoid_to_dict,
                          load_bibundle, load_field, load_groupoid, load_tss,
                          save_bibundle, save_field, save_groupoid, save_tss,
                          sha256_digest, tss_to_dict)
from moritakit.tss import LabeledSurfaceGraph

from support import (corpus_factors, corpus_groupoids, equiv_morita_pairs,
                     random_tss, reference_bibundle_to_dict,
                     reference_groupoid_to_dict, with_composites)


def test_groupoid_roundtrip(tmp_path):
    for name, g in corpus_groupoids()[:8]:
        path = tmp_path / f"{name.replace('/', '_')}.json"
        save_groupoid(g, path)
        loaded = load_groupoid(path)
        assert loaded == g, name
        assert validate(loaded).ok


def test_groupoid_shorthands(tmp_path):
    (tmp_path / "pair.json").write_text(json.dumps({"pair": 3}))
    assert load_groupoid(tmp_path / "pair.json") == pair_groupoid(3)

    table = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    (tmp_path / "grp.json").write_text(json.dumps(
        {"group": {"elements": ["e", "r", "rr"], "table": table}}))
    g = load_groupoid(tmp_path / "grp.json")
    assert g.n_objects == 1 and g.n_arrows == 3 and validate(g).ok

    # table entries may also be element names
    (tmp_path / "grp2.json").write_text(json.dumps(
        {"group": {"elements": ["e", "s"], "table": [["e", "s"], ["s", "e"]]}}))
    g2 = load_groupoid(tmp_path / "grp2.json")
    assert validate(g2).ok and g2.n_arrows == 2

    (tmp_path / "act.json").write_text(json.dumps({"action": {
        "group": {"elements": ["e", "s"], "table": [[0, 1], [1, 0]]},
        "objects": ["1", "2"],
        "act": [["e", "1", "1"], ["e", "2", "2"],
                ["s", "1", "2"], ["s", "2", "1"]]}}))
    act = load_groupoid(tmp_path / "act.json")
    assert groupoid_isomorphic(act, pair_groupoid(2)) is not None

    (tmp_path / "gauge.json").write_text(json.dumps({"gauge": {
        "total": ["e0", "e1"], "base": ["b"],
        "projection": {"e0": "b", "e1": "b"},
        "group": {"elements": ["e", "s"], "table": [[0, 1], [1, 0]]},
        "action": [["e0", "e", "e0"], ["e0", "s", "e1"],
                   ["e1", "e", "e1"], ["e1", "s", "e0"]]}}))
    gg = load_groupoid(tmp_path / "gauge.json")
    assert gg.n_objects == 1 and gg.n_arrows == 2


def test_bibundle_roundtrip(tmp_path):
    s = identity_bibundle(pair_groupoid(2))
    save_bibundle(s, tmp_path / "ib.json")
    loaded = load_bibundle(tmp_path / "ib.json")
    assert loaded.carrier == s.carrier
    assert loaded.left_act == s.left_act
    assert loaded.right_act == s.right_act
    assert validate_bibundle(loaded).ok


def test_bibundle_with_groupoid_references(tmp_path):
    g = pair_groupoid(2)
    save_groupoid(g, tmp_path / "g.json")
    data = bibundle_to_dict(identity_bibundle(g))
    data["left"] = "g.json"
    data["right"] = "g.json"
    (tmp_path / "ref.json").write_text(json.dumps(data))
    loaded = load_bibundle(tmp_path / "ref.json")
    assert loaded.left == g and loaded.right == g


def test_loaded_tables_refuse_writes(tmp_path):
    g = pair_groupoid(2)
    save_groupoid(g, tmp_path / "g.json")
    save_bibundle(identity_bibundle(g), tmp_path / "ib.json")
    s = load_bibundle(tmp_path / "ib.json")
    built = identity_bibundle(g)  # constructed from classes, not loaded
    for table in (load_groupoid(tmp_path / "g.json")._table, *s._rows, *s._tables,
                  *built._rows, *built._tables):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0


def test_tss_roundtrip(tmp_path):
    g = LabeledSurfaceGraph(["n", "s"], {"n": 0, "s": 1},
                            [("n", "s", 1.5), ("s", "n", 0.5)], volume=2.0)
    save_tss(g, tmp_path / "t.json")
    loaded = load_tss(tmp_path / "t.json")
    assert loaded.edges == g.edges
    assert loaded.genus == g.genus
    assert loaded.volume == 2.0
    # volume stays optional
    data = tss_to_dict(LabeledSurfaceGraph(["v"], {"v": 1}, []))
    assert "volume" not in data


def test_field_roundtrip(tmp_path):
    grid = GridSpec(3, (0.0, -1.0, 0.5), 0.25, (4, 3, 5))
    field = SampledBivectorField.from_entry_functions(grid, {
        (0, 1): lambda x, y, z: x + 2 * y,
        (1, 2): lambda x, y, z: z * z,
        (0, 2): lambda x, y, z: np.sin(x)})
    save_field(field, tmp_path / "pi.field", "bivector")
    loaded, kind = load_field(tmp_path / "pi.field")
    assert kind == "bivector"
    assert loaded.grid == grid
    assert np.array_equal(loaded.values, field.values)
    # loading via the sidecar path works too
    again, _ = load_field(tmp_path / "pi.field.json")
    assert np.array_equal(again.values, field.values)
    # the payload is the upper entries as held, byte for byte
    payload = (tmp_path / "pi.field").read_bytes()
    assert payload == field.upper.astype("<f8").tobytes()
    assert loaded.upper.tobytes() == payload


def test_field_io_holds_only_the_stored_entries(tmp_path):
    # 32^3 points, d = 3: full matrices would be 3x the payload, and each
    # load used to build them, and apply_gauge to work on them
    grid = GridSpec(3, (0.0,) * 3, 1 / 31, (32,) * 3)
    rng = np.random.default_rng(0)
    m = rng.standard_normal((*grid.shape, 3))
    save_field(SampledBivectorField(grid, m), tmp_path / "pi.field", "bivector")
    save_field(SampledTwoFormField(grid, 0.01 * m), tmp_path / "b.field", "two_form")
    payload = (tmp_path / "pi.field").stat().st_size
    tracemalloc.start()
    try:
        pi, _ = load_field(tmp_path / "pi.field")
        load_peak = tracemalloc.get_traced_memory()[1]
        b, _ = load_field(tmp_path / "b.field")
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        apply_gauge(pi, b)
        apply_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert load_peak <= 1.5 * payload
    assert apply_peak <= 5 * payload


def test_analytic_field_spec(tmp_path):
    spec = {"analytic": {"kind": "two_form",
                         "grid": {"dimension": 2, "origin": [0, 0],
                                  "spacing": 0.5, "shape": [3, 3]},
                         "entries": [{"i": 0, "j": 1, "const": 1.0,
                                      "linear": [2.0, 0.0],
                                      "quadratic": [[0, 1], [0, 0]]}]}}
    (tmp_path / "b.json").write_text(json.dumps(spec))
    field, kind = load_field(tmp_path / "b.json")
    assert kind == "two_form"
    # value at (x, y) = (1.0, 0.5): 1 + 2x + xy = 3.5
    assert field.values[2, 1, 0, 1] == pytest.approx(3.5)
    assert field.values[2, 1, 1, 0] == pytest.approx(-3.5)


def test_detect_kind(tmp_path):
    save_groupoid(pair_groupoid(2), tmp_path / "g.json")
    kind, data = detect_kind(tmp_path / "g.json")
    assert kind == "groupoid" and data == groupoid_to_dict(pair_groupoid(2))
    save_bibundle(identity_bibundle(pair_groupoid(2)), tmp_path / "s.json")
    assert detect_kind(tmp_path / "s.json")[0] == "bibundle"
    save_tss(LabeledSurfaceGraph(["v"], {"v": 1}, []), tmp_path / "t.json")
    assert detect_kind(tmp_path / "t.json")[0] == "tss"
    grid = GridSpec(2, (0.0, 0.0), 0.5, (3, 3))
    save_field(SampledBivectorField.constant(grid, np.zeros((2, 2))),
               tmp_path / "f.field", "bivector")
    assert detect_kind(tmp_path / "f.field") == ("field", None)
    assert detect_kind(tmp_path / "f.field.json")[0] == "field"


def test_saved_files_are_sorted_json_with_indent_1(tmp_path):
    def assert_layout(path, data):
        with open(path, "rb") as fh:
            raw = fh.read()
        assert raw == json.dumps(data, sort_keys=True, indent=1).encode(), path

    for i, (name, g) in enumerate(corpus_groupoids()):
        save_groupoid(g, tmp_path / f"g{i}.json")
        assert_layout(tmp_path / f"g{i}.json", groupoid_to_dict(g))
        save_bibundle(identity_bibundle(g), tmp_path / f"s{i}.json")
        assert_layout(tmp_path / f"s{i}.json", bibundle_to_dict(identity_bibundle(g)))
    rng = random.Random(11)
    for i in range(20):
        t = random_tss(rng) if i else LabeledSurfaceGraph(
            ["n", "s"], {"n": 0, "s": 1}, [("n", "s", 1.5)] * 6, 2.5)
        save_tss(t, tmp_path / f"t{i}.json")
        assert_layout(tmp_path / f"t{i}.json", tss_to_dict(t))
    for d, shape in ((2, (5, 5)), (3, (2, 3, 4))):
        grid = GridSpec(d, (0.0,) * d, 0.25, shape)
        save_field(SampledBivectorField.constant(grid, np.zeros((d, d))),
                   tmp_path / f"f{d}.field", "bivector")
        assert_layout(tmp_path / f"f{d}.field.json",
                      {"dimension": d, "origin": [0.0] * d, "spacing": 0.25,
                       "shape": list(shape), "kind": "bivector"})


def test_digest_is_stable(tmp_path):
    p = tmp_path / "x.json"
    p.write_text("{}")
    assert sha256_digest(p) == sha256_digest(p)
    assert sha256_digest(p).startswith("sha256:")


def test_groupoid_dict_is_canonical():
    g = pair_groupoid(2)
    assert groupoid_to_dict(g) == groupoid_to_dict(load_groupoid_roundtrip(g))


def load_groupoid_roundtrip(g):
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "g.json"
        save_groupoid(g, path)
        return load_groupoid(path)


def invalid_groupoids():
    """Z4 with one redirected composite (as z4bad.json), and pair(2) with a
    composite on a non-composable pair."""
    z4 = group_as_groupoid(cyclic_group(4))
    c = z4.arr_index
    pair2 = pair_groupoid(2)
    a = pair2.arr_index
    return [("z4bad", with_composites(z4, {(c["c1"], c["c1"]): c["c3"]})),
            ("non-composable", with_composites(
                pair2, {(a["(1,2)"], a["(1,2)"]): a["(1,1)"]}))]


def test_groupoid_emission_matches_the_sorted_loop():
    for name, g in corpus_groupoids() + invalid_groupoids():
        data = groupoid_to_dict(g)
        assert data == reference_groupoid_to_dict(g), name
        # exact str ids, which the writer encodes once per name as Rows tokens
        assert {type(v) for row in data["comp"] for v in row} <= {str}, name
    bad = dict(invalid_groupoids())
    assert ["(1,2)", "(1,2)", "(1,1)"] in groupoid_to_dict(bad["non-composable"])["comp"]
    assert not validate(bad["z4bad"]).ok


def test_bibundle_emission_matches_the_sorted_loop():
    bibundles = corpus_factors()
    for name, a, b in equiv_morita_pairs():
        bibundles.append((name, morita_equivalent(a, b)))
    g = pair_groupoid(2)
    s = identity_bibundle(g)
    bibundles.append(("empty carrier", Bibundle(g, g, [], {}, {}, {}, {})))
    # an action entry outside the action's domain, and one redirected
    j1, j2, left, right = s.as_dicts()
    left[("(1,2)", "(1,2)")] = "(2,1)"
    left[("(1,1)", "(1,1)")] = "(1,2)"
    bibundles.append(("invalid actions", Bibundle(g, g, s.carrier, j1, j2, left, right)))
    for name, s in bibundles:
        data = bibundle_to_dict(s)
        assert data == reference_bibundle_to_dict(s), name
        rows = data["leftAct"] + data["rightAct"]
        assert {type(v) for row in rows for v in row} <= {str}, name
    assert not validate_bibundle(bibundles[-1][1]).ok
    assert bibundle_to_dict(bibundles[-2][1])["leftAct"] == []
