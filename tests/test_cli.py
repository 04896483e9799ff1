import gc
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from moritakit.cli import main
from moritakit.gauge import GridSpec, SampledBivectorField, SampledTwoFormField
from moritakit.groupoids import group_as_groupoid, pair_groupoid
from moritakit.groups import cyclic_group
from moritakit.io import save_field, save_groupoid, save_tss
from moritakit.tss import LabeledSurfaceGraph
from support import count_tree_walks

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


@pytest.fixture
def files(tmp_path):
    save_groupoid(group_as_groupoid(cyclic_group(4)), tmp_path / "z4.json")
    save_groupoid(pair_groupoid(3), tmp_path / "pair3.json")
    save_groupoid(group_as_groupoid(cyclic_group(3)), tmp_path / "z3.json")
    save_tss(LabeledSurfaceGraph(["n", "s"], {"n": 0, "s": 0},
                                 [("n", "s", 1.0)]), tmp_path / "sphere.json")
    save_tss(LabeledSurfaceGraph(["n", "s"], {"n": 0, "s": 0},
                                 [("n", "s", 2.0)]), tmp_path / "sphere2.json")
    grid = GridSpec(2, (0.0, 0.0), 0.25, (5, 5))
    save_field(SampledBivectorField.constant(grid, J2),
               tmp_path / "pi.field", "bivector")
    save_field(SampledTwoFormField.constant(grid, 0.5 * J2),
               tmp_path / "b.field", "two_form")
    save_field(SampledTwoFormField.constant(grid, J2),
               tmp_path / "bsing.field", "two_form")
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, json.loads(captured.out)


def test_validate_ok_and_exit_codes(files, capsys):
    code, report = run(capsys, "validate", files / "z4.json", "--quiet")
    assert code == 0
    assert report["result"]["ok"]
    assert report["result"]["kind"] == "groupoid"


def test_validate_broken_groupoid(files, capsys):
    data = json.loads((files / "z4.json").read_text())
    data["comp"][0][2] = data["comp"][1][2]  # corrupt one composite
    (files / "bad.json").write_text(json.dumps(data))
    code, report = run(capsys, "validate", files / "bad.json", "--quiet")
    assert code == 1
    assert report["result"]["violations"]


def test_validate_tss_with_bad_period(files, capsys):
    save_tss(LabeledSurfaceGraph(["n", "s"], {"n": 0, "s": 0},
                                 [("n", "s", -1.0)]), files / "bad_tss.json")
    code, report = run(capsys, "validate", files / "bad_tss.json", "--quiet")
    assert code == 1


def test_orbits_and_isotropy(files, capsys):
    code, report = run(capsys, "orbits", files / "pair3.json", "--quiet")
    assert code == 0
    assert report["result"]["orbits"] == [["1", "2", "3"]]
    code, report = run(capsys, "isotropy", files / "z4.json",
                       "--object", "pt", "--quiet")
    assert code == 0
    assert len(report["result"]["isotropy"]["elements"]) == 4


def test_isotropy_at_an_unknown_object(files, capsys):
    code, report = run(capsys, "isotropy", files / "z4.json", "--object", "zz", "--quiet")
    assert code == 2
    assert report["error"] == {"type": "ValueError", "message": "unknown object id 'zz'"}


def test_group_theory_commands(files, capsys):
    code, report = run(capsys, "aut", files / "z4.json", "--quiet")
    assert code == 0 and report["result"]["order"] == 2
    code, report = run(capsys, "inaut", files / "z4.json", "--quiet")
    assert code == 0 and report["result"]["order"] == 1
    code, report = run(capsys, "out", files / "z4.json", "--quiet")
    assert code == 0 and report["result"]["order"] == 2
    code, report = run(capsys, "bisections", files / "pair3.json", "--quiet")
    assert code == 0 and report["result"]["count"] == 6


def test_picard_command_and_formula_exit(files, capsys):
    code, report = run(capsys, "picard", files / "z4.json", "--quiet")
    assert code == 0
    assert report["result"]["order"] == 2
    assert report["result"]["method"] == "enumeration"
    assert report["result"]["cross_checked"] == ["skeleton-formula"]
    # the formula also covers orbits with different isotropy groups
    from moritakit.groupoids import disjoint_union
    save_groupoid(disjoint_union(pair_groupoid(2),
                                 group_as_groupoid(cyclic_group(3))),
                  files / "du.json")
    code, report = run(capsys, "picard", files / "du.json",
                       "--method", "formula", "--quiet")
    assert code == 0
    assert report["result"]["order"] == 2
    assert report["result"]["method"] == "skeleton-formula"


def test_verify_exact_command(files, capsys):
    code, report = run(capsys, "verify-exact", files / "z4.json", "--quiet")
    assert code == 0
    assert report["result"]["ok"]
    assert report["result"]["orders"]["pic"] == 2


def test_morita_command(files, capsys):
    code, report = run(capsys, "morita", files / "pair3.json",
                       files / "z3.json", "--quiet")
    assert code == 4
    assert report["result"]["equivalent"] is False
    assert "isotropy" in report["result"]["obstruction"]

    # a transitive groupoid against its isotropy group, witness emitted
    from support import gauge_over
    save_groupoid(gauge_over(cyclic_group(3), 2), files / "gauge.json")
    witness = files / "witness.json"
    code, report = run(capsys, "morita", files / "gauge.json",
                       files / "z3.json", "--emit-witness", witness,
                       "--quiet")
    assert code == 0
    assert report["result"]["equivalent"] is True
    assert report["result"]["witness_carrier"] == 6
    assert witness.exists()
    from moritakit.io import load_bibundle
    from moritakit.bibundles import principality
    assert principality(load_bibundle(witness)).biprincipal


def test_non_associative_table_is_a_precondition_failure(files, capsys):
    # identity and inverses exist, but b.b = b, so b has no finite order
    names = ["e", "a", "b"]
    table = [["e", "a", "b"], ["a", "b", "e"], ["b", "e", "b"]]
    doc = {"objects": ["pt"],
           "arrows": [{"id": x, "src": "pt", "tgt": "pt"} for x in names],
           "comp": [[x, y, table[i][j]] for i, x in enumerate(names)
                    for j, y in enumerate(names)],
           "units": {"pt": "e"}, "inv": {"e": "e", "a": "b", "b": "a"}}
    (files / "nonassoc.json").write_text(json.dumps(doc))
    code, report = run(capsys, "picard", files / "nonassoc.json", "--quiet")
    assert code == 2
    assert report["error"]["type"] == "ValueError"


def test_bisections_on_corrupted_z4(files, capsys):
    # Two redirected composites leave every product among the four arrows,
    # so the (non-associative) table comes back; a deleted composite is a
    # product outside the bisections and a precondition failure.
    data = json.loads((files / "z4.json").read_text())
    assert data["comp"][5] == ["c1", "c1", "c2"]
    assert data["comp"][10] == ["c2", "c2", "c0"]
    data["comp"][5][2], data["comp"][10][2] = "c3", "c1"
    (files / "bad2.json").write_text(json.dumps(data))
    code, report = run(capsys, "bisections", files / "bad2.json", "--quiet")
    assert code == 0 and "error" not in report
    assert report["result"]["group"]["table"][1][1] == 3
    code, report = run(capsys, "validate", files / "bad2.json", "--quiet")
    assert code == 1
    assert ({v["rule"] for v in report["result"]["violations"]}
            == {"associativity", "inverse-law"})
    del data["comp"][5]
    (files / "gap.json").write_text(json.dumps(data))
    code, report = run(capsys, "bisections", files / "gap.json", "--quiet")
    assert code == 2
    assert report["error"] == {
        "type": "KeyError", "message": "'product of b001 and b001 is not among the items'"}


def test_orbits_and_validate_of_corrupted_z4_walk_no_spanning_tree(files, capsys,
                                                                   monkeypatch):
    walks = count_tree_walks(monkeypatch)
    data = json.loads((files / "z4.json").read_text())
    data["comp"][5][2], data["comp"][10][2] = "c3", "c1"
    (files / "bad2.json").write_text(json.dumps(data))
    del data["comp"][5]
    (files / "gap.json").write_text(json.dumps(data))
    for name in ("bad2.json", "gap.json"):
        code, report = run(capsys, "orbits", files / name, "--quiet")
        assert code == 0 and report["result"]["orbits"] == [["pt"]]
        assert run(capsys, "validate", files / name, "--quiet")[0] == 1
    assert walks == []
    assert run(capsys, "verify-exact", files / "z4.json", "--quiet")[0] == 0
    assert len(walks) == 1


def test_closed_stdout_gives_no_traceback(files):
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout now fails with EPIPE
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "moritakit", "validate", str(files / "z4.json")],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert "groupoid: valid" in proc.stderr


def test_reader_closing_mid_report_gives_no_traceback(files):
    # six parallel edges: |Aut| = 720 and a 7.7 MB report, streamed
    save_tss(LabeledSurfaceGraph(["n", "s"], {"n": 0, "s": 1},
                                 [("n", "s", 1.0)] * 6), files / "par6.json")
    with subprocess.Popen(
            [sys.executable, "-m", "moritakit", "tss-picard-ingredients",
             str(files / "par6.json")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}) as proc:
        head = [proc.stdout.readline() for _ in range(5)]
        proc.stdout.close()
        try:
            _, stderr = proc.communicate(timeout=120)
        finally:
            proc.kill()
    assert head[0] == "{\n"
    assert proc.returncode == 0
    assert "Traceback" not in stderr
    assert "|Aut| = 720" in stderr


def test_missing_file_is_a_precondition_failure(files, capsys):
    code, report = run(capsys, "orbits", files / "nope.json", "--quiet")
    assert code == 2
    assert "error" in report


def test_compose_command(files, capsys):
    from moritakit.bibundles import identity_bibundle
    from moritakit.io import save_bibundle
    s = identity_bibundle(pair_groupoid(3))
    save_bibundle(s, files / "ib.json")
    out = files / "composed.json"
    code, report = run(capsys, "compose", files / "ib.json", files / "ib.json",
                       "--emit-witness", out, "--quiet")
    assert code == 0
    assert report["result"]["carrier_size"] == 9
    assert report["result"]["left_principal"] and report["result"]["right_principal"]
    assert out.exists()


def test_compose_rejects_an_invalid_input(files, capsys):
    # the identity bibundle of Z4 with the Klein-four Latin square
    # c_i . c_j = c_(i XOR j) as its left action: compose used to take it
    from moritakit.bibundles import identity_bibundle
    from moritakit.io import save_bibundle
    save_bibundle(identity_bibundle(group_as_groupoid(cyclic_group(4))), files / "id.json")
    data = json.loads((files / "id.json").read_text())
    data["leftAct"] = [[f"c{i}", f"c{j}", f"c{i ^ j}"] for i in range(4) for j in range(4)]
    (files / "bad.json").write_text(json.dumps(data))
    code, validated = run(capsys, "validate", files / "bad.json", "--quiet")
    assert code == 1
    assert {v["rule"] for v in validated["result"]["violations"]} == {
        "left-action-associativity", "commutation"}
    out = files / "composed.json"
    for first, second in (("bad.json", "id.json"), ("id.json", "bad.json")):
        code, report = run(capsys, "compose", files / first, files / second,
                           "--emit-witness", out, "--quiet")
        assert code == 1, (first, second)
        assert report["result"] == {"input": str(files / "bad.json"),
                                    **validated["result"]}
        assert not out.exists()


def test_compose_validates_each_input_once(files, capsys, monkeypatch):
    # counted wherever compose could call it: in tensor or in the CLI
    from moritakit import bibundles, cli
    from moritakit.bibundles import identity_bibundle
    from moritakit.io import save_bibundle
    save_bibundle(identity_bibundle(pair_groupoid(3)), files / "ib.json")
    calls = []
    validate_bibundle = bibundles.validate_bibundle

    def counted(s):
        calls.append(s)
        return validate_bibundle(s)

    monkeypatch.setattr(bibundles, "validate_bibundle", counted)
    monkeypatch.setattr(cli, "validate_bibundle", counted)
    code, _ = run(capsys, "compose", files / "ib.json", files / "ib.json", "--quiet")
    assert code == 0 and len(calls) == 2


@pytest.mark.parametrize("side", ["leftAct", "rightAct"])
def test_unknown_action_arrow_is_a_precondition_failure(files, capsys, side):
    from moritakit.bibundles import identity_bibundle
    from moritakit.io import save_bibundle
    save_bibundle(identity_bibundle(group_as_groupoid(cyclic_group(2))), files / "id.json")
    data = json.loads((files / "id.json").read_text())
    k = 0 if side == "leftAct" else 1  # the arrow's place in an entry
    data[side][0][k] = "zz"
    (files / "bad.json").write_text(json.dumps(data))
    code, report = run(capsys, "validate", files / "bad.json", "--quiet")
    assert code == 2
    assert report["error"] == {"type": "ValueError", "message": "unknown arrow id 'zz'"}


@pytest.fixture
def z2_doc(files):
    save_groupoid(group_as_groupoid(cyclic_group(2)), files / "z2.json")
    return json.loads((files / "z2.json").read_text())


def validate_z2_with(files, capsys, doc, comp):
    (files / "bad.json").write_text(json.dumps(dict(doc, comp=comp)))
    return run(capsys, "validate", files / "bad.json", "--quiet")


@pytest.mark.parametrize("length", [2, 4])
def test_composite_rows_of_another_length_are_refused(files, capsys, z2_doc, length):
    row = (z2_doc["comp"][1] + ["c0"])[:length]
    for comp in ([row] + z2_doc["comp"][1:], z2_doc["comp"][:1] + [row] * 3):
        code, report = validate_z2_with(files, capsys, z2_doc, comp)
        assert code == 2
        assert report["error"]["type"] == "ValueError"
        assert "values to unpack" in report["error"]["message"]


def test_a_repeated_composite_row_wins_last(files, capsys, z2_doc):
    code, report = validate_z2_with(files, capsys, z2_doc,
                                    z2_doc["comp"] + [["c1", "c1", "c1"]])
    assert code == 1
    assert report["result"]["violations"] == [
        {"rule": "inverse-law", "witness": ["c1", "c1"]}]
    # the same pair repeated with its right composite last is valid again
    code, _ = validate_z2_with(files, capsys, z2_doc,
                               z2_doc["comp"] + [["c1", "c1", "c1"], ["c1", "c1", "c0"]])
    assert code == 0


@pytest.mark.parametrize("bad,message", [("zz", "unknown arrow id 'zz'"),
                                         (5, "unknown arrow id 5")])
def test_unknown_composite_ids_are_named(files, capsys, z2_doc, bad, message):
    # the first unknown id in row order is named, whatever its column
    comp = [list(row) for row in z2_doc["comp"]]
    comp[1][2], comp[2][0] = bad, "yy"
    code, report = validate_z2_with(files, capsys, z2_doc, comp)
    assert code == 2
    assert report["error"] == {"type": "ValueError", "message": message}


def test_tss_commands(files, capsys):
    code, report = run(capsys, "tss-iso", files / "sphere.json",
                       files / "sphere2.json", "--quiet")
    assert code == 4
    assert "period" in report["result"]["obstruction"]
    code, report = run(capsys, "tss-iso", files / "sphere.json",
                       files / "sphere.json", "--quiet")
    assert code == 0
    code, report = run(capsys, "tss-genus", files / "sphere.json", "--quiet")
    assert code == 0 and report["result"]["genus"] == 0
    code, report = run(capsys, "tss-picard-ingredients",
                       files / "sphere.json", "--quiet")
    assert code == 0
    assert report["result"]["torus_rank"] == 1
    assert report["result"]["leaf_descriptors"] == [[0, 1], [0, 1]]


def test_tss_genus_validates_its_graph(files, capsys):
    # a disconnected graph read genus 1 and a negative period genus 0;
    # both now get validate's report of the file, under its path
    save_tss(LabeledSurfaceGraph(["a", "b"], {"a": 1, "b": 1}, []), files / "apart.json")
    save_tss(LabeledSurfaceGraph(["n", "s"], {"n": 0, "s": 0}, [("n", "s", -1.0)]),
             files / "negative.json")
    for name, rule in (("apart.json", "connected"), ("negative.json", "period-positive")):
        path = str(files / name)
        code, report = run(capsys, "tss-genus", path, "--quiet")
        assert code == 1
        _, validated = run(capsys, "validate", path, "--quiet")
        assert report["result"] == {"input": path, **validated["result"]}
        assert rule in {v["rule"] for v in report["result"]["violations"]}


def test_tss_volume_flag(files, capsys):
    save_tss(LabeledSurfaceGraph(["n", "s"], {"n": 0, "s": 0},
                                 [("n", "s", 1.0)], volume=3.0),
             files / "v3.json")
    save_tss(LabeledSurfaceGraph(["n", "s"], {"n": 0, "s": 0},
                                 [("n", "s", 1.0)], volume=4.0),
             files / "v4.json")
    code, report = run(capsys, "tss-iso", files / "v3.json", files / "v4.json",
                       "--volume", "--quiet")
    assert code == 4
    assert "volume" in report["result"]["obstruction"]
    # missing volume is a precondition failure
    code, report = run(capsys, "tss-iso", files / "sphere.json",
                       files / "v3.json", "--volume", "--quiet")
    assert code == 2
    assert report["error"]["type"] == "MissingVolume"


def test_gauge_commands(files, capsys):
    out = files / "tau.field"
    code, report = run(capsys, "gauge-apply", files / "pi.field",
                       files / "b.field", "--out", out, "--quiet")
    assert code == 0
    assert report["result"]["min_abs_det"] == pytest.approx(0.25)
    assert out.exists() and (str(out) + ".json")
    from moritakit.io import load_field
    tau, _ = load_field(out)
    assert np.allclose(tau.values, 2 * J2)

    code, report = run(capsys, "gauge-apply", files / "pi.field",
                       files / "bsing.field", "--quiet")
    assert code == 3
    assert report["error"]["type"] == "SingularEndomorphism"
    assert report["error"]["worst_point"] == [0, 0]

    code, report = run(capsys, "gauge-check", files / "pi.field",
                       files / "b.field", "--quiet")
    assert code == 0
    assert report["result"]["jacobi_residual"] == 0.0
    assert report["result"]["rank_histogram"] == {"2": 25}


def test_gauge_accepts_analytic_specs(files, capsys):
    spec = {"analytic": {"kind": "two_form",
                         "grid": {"dimension": 2, "origin": [0.0, 0.0],
                                  "spacing": 0.25, "shape": [5, 5]},
                         "entries": [{"i": 0, "j": 1, "const": 0.5}]}}
    (files / "bspec.json").write_text(json.dumps(spec))
    code, report = run(capsys, "gauge-check", files / "pi.field",
                       files / "bspec.json", "--quiet")
    assert code == 0
    assert report["result"]["invertibility"]["ok"]
    assert report["result"]["closedness_residual"] == 0.0


def save_with_nonfinite(files, name, cls, kind, matrix, point, value):
    field = cls.constant(GridSpec(2, (0.0, 0.0), 0.25, (5, 5)), matrix)
    field.upper[point] = value
    save_field(field, files / name, kind)
    return files / name


def test_validate_rejects_nonfinite_field(files, capsys):
    path = save_with_nonfinite(files, "pinan.field", SampledBivectorField,
                               "bivector", J2, (2, 3), np.nan)
    code, report = run(capsys, "validate", path, "--quiet")
    assert code == 1
    assert report["result"]["violations"] == [{"rule": "finite",
                                               "witness": [2, 3]}]



@pytest.mark.parametrize("name", ["pi.field.json", "spec.json"])
def test_validate_parses_a_json_field_once(files, capsys, monkeypatch, name):
    (files / "spec.json").write_text(json.dumps({"analytic": {
        "kind": "bivector",
        "grid": {"dimension": 2, "origin": [0, 0], "spacing": 0.5, "shape": [3, 3]},
        "entries": [{"i": 0, "j": 1, "const": 1.0}]}}))
    calls = []
    load = json.load

    def counted(fh, **kwargs):
        calls.append(fh.name)
        return load(fh, **kwargs)

    monkeypatch.setattr(json, "load", counted)
    code, report = run(capsys, "validate", files / name, "--quiet")
    assert code == 0 and report["result"] == {"kind": "field", "ok": True,
                                              "violations": []}
    assert calls == [str(files / name)]

def test_gauge_commands_reject_nonfinite_fields(files, capsys):
    pinan = save_with_nonfinite(files, "pinan.field", SampledBivectorField,
                                "bivector", J2, (2, 3), np.nan)
    binf = save_with_nonfinite(files, "binf.field", SampledTwoFormField,
                               "two_form", 0.5 * J2, (4, 1), np.inf)
    for argv, point in ((["gauge-apply", pinan, files / "b.field"], "(2, 3)"),
                        (["gauge-check", files / "pi.field", binf], "(4, 1)")):
        code = main([str(a) for a in argv] + ["--quiet"])
        out = capsys.readouterr().out
        assert code == 2, argv
        assert "NaN" not in out and "Infinity" not in out
        assert point in json.loads(out)["error"]["message"]


@pytest.mark.parametrize("eps_sing", ["-1", "nan", "inf"])
def test_gauge_commands_reject_bad_eps_sing(files, capsys, eps_sing):
    out = files / "tau.field"
    for two_form in ("b.field", "bsing.field"):
        for argv in (["gauge-apply", "--out", out], ["gauge-check"]):
            code, report = run(capsys, *argv, files / "pi.field", files / two_form,
                               "--eps-sing", eps_sing, "--quiet")
            assert code == 2, (argv, two_form)
            assert report["error"]["type"] == "ValueError"
            assert "eps_sing" in report["error"]["message"]
    assert not out.exists()


def analytic_spec(kind, d, shape, entries):
    return {"analytic": {"kind": kind,
                         "grid": {"dimension": d, "origin": [0.0] * d,
                                  "spacing": 0.25, "shape": shape},
                         "entries": entries}}


class LapackCalled(Exception):
    pass


@pytest.fixture
def no_lapack(monkeypatch):
    """np.linalg.det, inv and svd raise LapackCalled naming themselves."""
    for name in ("det", "inv", "svd"):
        def refuse(*args, name=name, **kwargs):
            raise LapackCalled(name)
        monkeypatch.setattr(np.linalg, name, refuse)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gauge_commands_make_no_lapack_call_up_to_d3(files, capsys, no_lapack, d):
    pi = [{"i": i, "j": j, "const": 0.5 + i, "linear": [0.25] * d}
          for i in range(d) for j in range(i + 1, d)]
    b = [{"i": i, "j": j, "const": 0.1 * (j - i)}
         for i in range(d) for j in range(i + 1, d)]
    (files / "pi3.json").write_text(json.dumps(analytic_spec("bivector", d, [4] * d, pi)))
    (files / "b3.json").write_text(json.dumps(analytic_spec("two_form", d, [4] * d, b)))
    code, report = run(capsys, "gauge-apply", files / "pi3.json", files / "b3.json",
                       "--out", files / "tau3.field", "--quiet")
    assert code == 0, report
    code, report = run(capsys, "gauge-check", files / "pi3.json", files / "b3.json",
                       "--quiet")
    assert code == 0, report
    assert report["result"]["rank_histogram"] == {"2" if d > 1 else "0": 4 ** d}


def test_gauge_commands_reach_lapack_in_d4(files, capsys, no_lapack):
    pi = [{"i": 0, "j": 1, "const": 1.0}, {"i": 2, "j": 3, "const": 1.0}]
    b = [{"i": 0, "j": 2, "const": 0.1}]
    (files / "pi4.json").write_text(json.dumps(analytic_spec("bivector", 4, [3] * 4, pi)))
    (files / "b4.json").write_text(json.dumps(analytic_spec("two_form", 4, [3] * 4, b)))
    for command in ("gauge-apply", "gauge-check"):
        with pytest.raises(LapackCalled, match="det"):
            main([command, str(files / "pi4.json"), str(files / "b4.json"), "--quiet"])


def test_reports_are_byte_identical(files, capsys):
    code1 = main(["picard", str(files / "z4.json"), "--quiet"])
    out1 = capsys.readouterr().out
    code2 = main(["picard", str(files / "z4.json"), "--quiet"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_report_carries_inputs_and_version(files, capsys):
    code, report = run(capsys, "orbits", files / "pair3.json", "--quiet")
    assert str(files / "pair3.json") in report["inputs"]
    assert report["inputs"][str(files / "pair3.json")].startswith("sha256:")
    assert report["version"]
    assert report["timing_ms"] is None
    code, report = run(capsys, "orbits", files / "pair3.json", "--quiet",
                       "--timing")
    assert report["timing_ms"] is not None


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "-1e-12"])
def test_tss_iso_rejects_bad_tol(files, capsys, tol):
    for volume in ([], ["--volume"]):
        # with --tol nan, periods 1.0 and 2.0 used to compare as equal
        code, report = run(capsys, "tss-iso", files / "sphere.json",
                           files / "sphere2.json", f"--tol={tol}", *volume, "--quiet")
        assert code == 2, volume
        assert report["error"]["type"] == "ValueError"
        assert "--tol" in report["error"]["message"]
    for tol, code in (("0", 0), ("0.5", 0), ("1e300", 0)):
        assert run(capsys, "tss-iso", files / "sphere.json", files / "sphere.json",
                   "--tol", tol, "--quiet")[0] == code


def test_validate_reads_an_analytic_spec_under_any_name(files, capsys):
    spec = {"analytic": {
        "kind": "bivector",
        "grid": {"dimension": 2, "origin": [0, 0], "spacing": 0.5, "shape": [3, 3]},
        "entries": [{"i": 0, "j": 1, "const": 1.0}]}}
    (files / "spec.txt").write_text(json.dumps(spec))
    code, report = run(capsys, "validate", files / "spec.txt", "--quiet")
    assert code == 0 and report["result"] == {"kind": "field", "ok": True,
                                              "violations": []}
    spec["analytic"]["entries"][0]["const"] = float("nan")
    (files / "nan").write_text(json.dumps(spec))
    code, report = run(capsys, "validate", files / "nan", "--quiet")
    assert code == 1 and report["result"]["violations"][0]["rule"] == "finite"


def test_validate_names_the_sidecar_a_json_document_needs(files, capsys):
    sidecar = files / "pi.field.json"
    (files / "pi.txt").write_text(sidecar.read_text())
    code, report = run(capsys, "validate", files / "pi.txt", "--quiet")
    assert code == 2
    assert report["error"]["type"] == "ValueError"
    assert str(files / "pi.txt.json") in report["error"]["message"]
    # the sidecar under its own name still validates
    assert run(capsys, "validate", sidecar, "--quiet")[0] == 0


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_the_collector_state(files, capsys, monkeypatch, enabled):
    import moritakit.cli as cli

    z4bad = json.loads((files / "z4.json").read_text())
    z4bad["comp"][5][2] = "c3"  # one redirected composite
    (files / "z4bad.json").write_text(json.dumps(z4bad))
    during = []
    validate = cli.validate

    def probe(g):
        during.append(gc.isenabled())
        return validate(g)

    monkeypatch.setattr(cli, "validate", probe)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for code, path in ((0, "z4.json"), (1, "z4bad.json"), (2, "nope.json")):
            assert run(capsys, "validate", files / path, "--quiet")[0] == code
            assert gc.isenabled() == enabled, code
        assert during == [False, False]  # paused while the command ran
        for argv in (["no-such-command"], ["orbits"]):
            code, report = run(capsys, *argv)
            assert code == 2 and report["error"]["type"] == "UsageError", argv
            assert gc.isenabled() == enabled, argv
        with pytest.raises(SystemExit):
            main(["--version"])
        assert gc.isenabled() == enabled
        capsys.readouterr()
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("argv, message", [
    (["tss-iso", "a.json", "b.json", "--tol", "-inf"], "--tol"),
    (["gauge-check", "pi.field", "b.field", "--eps-sing", "-inf"], "--eps-sing"),
    (["no-such-command"], "no-such-command"),
    (["tss-iso", "a.json"], "second"),
])
def test_usage_errors_get_the_json_report(capsys, argv, message):
    # argparse would print usage text and exit with nothing on stdout
    for quiet in ([], ["--quiet"]):
        assert main(argv + quiet) == 2
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report == {"command": argv + quiet, "version": report["version"],
                          "timing_ms": None, "error": report["error"]}
        assert report["error"]["type"] == "UsageError"
        assert message in report["error"]["message"]
        assert ("usage error" in captured.err) == (not quiet)


def save_tss_doc(path, period, volume=None):
    doc = {"vertices": [{"id": "n", "genus": 0}, {"id": "s", "genus": 0}],
           "edges": [{"tail": "n", "head": "s", "period": period}]}
    if volume is not None:
        doc["volume"] = volume
    # json.dumps writes float("nan") and float("inf") as NaN and Infinity
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("period, volume, rule", [
    (float("nan"), None, "period-positive"),
    (float("inf"), None, "period-finite"),
    (1.0, float("nan"), "volume-finite"),
    (1.0, float("-inf"), "volume-finite"),
])
def test_tss_search_commands_validate_their_inputs(files, capsys, period, volume, rule):
    bad = save_tss_doc(files / "bad.json", period, volume)
    good = save_tss_doc(files / "good.json", 1.0, 3.0)
    code, report = run(capsys, "validate", bad, "--quiet")
    assert code == 1 and [v["rule"] for v in report["result"]["violations"]] == [rule]
    # a NaN period used to give |Aut| = 0, a NaN volume a Poisson isomorphism
    runs = [["tss-picard-ingredients", bad], ["tss-iso", good, bad, "--volume"],
            ["tss-iso", bad, good], ["tss-iso", good, bad, "--reversed"]]
    for argv in runs:
        code, report = run(capsys, *argv, "--quiet")
        assert code == 1, argv
        assert report["result"] == {"input": str(bad), "kind": "tss", "ok": False,
                                    "violations": report["result"]["violations"]}
        assert [v["rule"] for v in report["result"]["violations"]] == [rule]


MALFORMED = [  # (file, key, replace the first entry's value with, named entry)
    ("groupoid", "comp", 5, "5"),
    ("groupoid", "comp", ["c0", ["c0"], "c0"], "['c0', ['c0'], 'c0']"),
    ("groupoid", "units", ["c0"], "['c0']"),
    ("bibundle", "leftAct", 5, "5"),
    ("bibundle", "leftAct", ["c0", ["c0"], "c0"], "['c0', ['c0'], 'c0']"),
    ("bibundle", "leftAct", ["c0", "c0", ["c0"]], "['c0', 'c0', ['c0']]"),
    ("bibundle", "J1", ["pt"], "['pt']"),
]


def malformed_runs(files, kind, edit):
    """Save Z2 and its identity bibundle, and bad.json, a copy of one of them
    that ``edit`` changed; return the commands that load bad.json."""
    from moritakit.bibundles import identity_bibundle
    from moritakit.io import save_bibundle
    z2 = group_as_groupoid(cyclic_group(2))
    save_groupoid(z2, files / "z2.json")
    save_bibundle(identity_bibundle(z2), files / "ib.json")
    name = "z2.json" if kind == "groupoid" else "ib.json"
    data = json.loads((files / name).read_text())
    edit(data)
    (files / "bad.json").write_text(json.dumps(data))
    commands = [["validate", "bad.json"]]
    if kind == "bibundle":
        commands += [["compose", "bad.json", "ib.json"],
                     ["compose", "ib.json", "bad.json"]]
    return [[argv[0], *(files / p for p in argv[1:])] for argv in commands]


@pytest.mark.parametrize("kind, key, bad, named", MALFORMED)
def test_malformed_rows_and_ids_are_precondition_failures(files, capsys, kind, key,
                                                          bad, named):
    # a number for a row, or a list for an id, made the load raise TypeError
    def edit(data):
        if type(data[key]) is list:
            data[key][0] = bad
        else:
            data[key][next(iter(data[key]))] = bad

    for argv in malformed_runs(files, kind, edit):
        code, report = run(capsys, *argv, "--quiet")
        assert code == 2, argv
        assert report["error"]["type"] == "ValueError"
        assert report["error"]["message"].startswith(f"{key!r} holds {named}, ")


@pytest.mark.parametrize("kind, key", [("groupoid", "comp"), ("bibundle", "leftAct"),
                                       ("bibundle", "rightAct")])
def test_rows_given_as_an_object_are_precondition_failures(files, capsys, kind, key):
    # an object's keys were split into characters: "unknown arrow id 'c'"
    def edit(data):
        data[key] = {"c0": "c1"}

    for argv in malformed_runs(files, kind, edit):
        code, report = run(capsys, *argv, "--quiet")
        assert code == 2, argv
        assert report["error"] == {
            "type": "ValueError",
            "message": f"{key!r} is not a JSON array: {{'c0': 'c1'}}"}


def test_commands_build_no_action_dicts(files, capsys, monkeypatch):
    # the actions reach every kernel as rows and tables; the index dicts
    # left_act and right_act are views for callers, never built by a command
    from moritakit.bibundles import Bibundle, identity_bibundle
    from moritakit.io import save_bibundle

    def built(self):
        raise AssertionError("an action dict was built")

    save_bibundle(identity_bibundle(pair_groupoid(3)), files / "ib.json")
    monkeypatch.setattr(Bibundle, "left_act", property(built))
    monkeypatch.setattr(Bibundle, "right_act", property(built))
    runs = [["validate", "ib.json"],
            ["compose", "ib.json", "ib.json", "--emit-witness", "c.json"],
            ["validate", "c.json"],
            ["morita", "pair3.json", "z3.json"],
            ["morita", "z3.json", "z3.json", "--emit-witness", "w.json"],
            ["picard", "z4.json", "--method", "enumerate"],
            ["picard", "pair3.json"],
            ["verify-exact", "z4.json"]]
    for argv in runs:
        code, report = run(capsys, *argv[:1], *(files / p if p.endswith(".json") else p
                                               for p in argv[1:]), "--quiet")
        assert code in (0, 4) and "error" not in report, argv



def corpus_files(files):
    """The corpus groupoids saved under ``files``, by file name."""
    from support import corpus_groupoids

    names = []
    for i, (_, g) in enumerate(corpus_groupoids()):
        save_groupoid(g, files / f"corpus{i}.json")
        names.append(f"corpus{i}.json")
    return names


def run_all(files, capsys, runs):
    for argv in runs:
        code, report = run(capsys, *argv[:1], *(files / p if p.endswith(".json") else p
                                               for p in argv[1:]), "--quiet")
        assert code in (0, 4) and "error" not in report, argv


def test_commands_build_no_comp_dict(files, capsys, monkeypatch):
    # the composition reaches every kernel as the dense table; the comp
    # dict is a view for callers, never built by a command
    from moritakit.groupoids import FiniteGroupoid

    corpus = corpus_files(files)
    built = []
    comp = FiniteGroupoid.comp.func
    monkeypatch.setattr(FiniteGroupoid, "comp", property(lambda g: built.append(g) or comp(g)))
    runs = [[command, name] for name in corpus
            for command in ("validate", "aut", "bisections", "picard", "verify-exact")]
    # gaugeZ3/2 ~ Z3, pair1 ~ pair3, gaugeZ4/2 ~ Z4, each way, and Z5 !~ Z2xZ2
    pairs = [("corpus13.json", "corpus1.json"), ("corpus9.json", "pair3.json"),
             ("corpus15.json", "corpus2.json")]
    for i, (a, b) in enumerate(pairs):
        runs += [["morita", a, b, "--emit-witness", f"w{i}.json"],
                 ["morita", b, a, "--emit-witness", f"v{i}.json"],
                 ["compose", f"w{i}.json", f"v{i}.json", "--emit-witness", f"c{i}.json"],
                 ["validate", f"c{i}.json"]]
    runs.append(["morita", "corpus3.json", "corpus8.json"])
    run_all(files, capsys, runs)
    assert built == []


def test_aut_and_graph_automorphisms_build_no_group_table(files, capsys, monkeypatch):
    # group tables reach the reports and the searches as index arrays; the
    # tuple table is a view for callers
    from moritakit.groups import FiniteGroup

    runs = [["aut", name] for name in corpus_files(files)]
    save_tss(LabeledSurfaceGraph(["n", "s"], {"n": 0, "s": 1}, [("n", "s", 1.0)] * 6),
             files / "par6.json")
    built = []
    table = FiniteGroup.table.func
    monkeypatch.setattr(FiniteGroup, "table", property(lambda g: built.append(g) or table(g)))
    run_all(files, capsys, runs + [["tss-picard-ingredients", "par6.json"]])
    assert built == []


def test_verify_exact_builds_no_group_table(files, capsys, monkeypatch):
    # the three pair checks are gathers over the index arrays of Aut, Bis
    # and Pic, not loops over their tuple tables
    from moritakit.groups import FiniteGroup

    runs = [["verify-exact", name] for name in corpus_files(files)]
    built = []
    table = FiniteGroup.table.func
    monkeypatch.setattr(FiniteGroup, "table", property(lambda g: built.append(g) or table(g)))
    run_all(files, capsys, runs)
    assert built == []


NON_ASSOCIATIVE_LOOP = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                        [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


@pytest.mark.parametrize("command", ["aut", "picard", "verify-exact", "validate"])
def test_a_non_associative_group_shorthand_is_refused(files, capsys, command):
    # the order-5 loop has an identity and two-sided inverses, but
    # (1 1) 2 = 2 while 1 (1 2) = 1 3 = 4
    doc = {"group": {"elements": ["e", "a", "b", "c", "d"], "table": NON_ASSOCIATIVE_LOOP}}
    (files / "loop.json").write_text(json.dumps(doc))
    code, report = run(capsys, command, files / "loop.json", "--quiet")
    assert code == 2
    assert report["error"] == {
        "type": "ValueError",
        "message": "'table' is not a group table: (a b) c differs from a (b c) "
                   "for a, b, c = 'a', 'a', 'b'"}


def test_memory_error_is_a_precondition_failure(files, capsys, monkeypatch):
    from moritakit import picard

    def exhausted(*args):
        raise MemoryError("Unable to allocate 3.03 GiB for an array")

    monkeypatch.setattr(picard, "_cayley", exhausted)
    code, report = run(capsys, "aut", files / "z4.json", "--quiet")
    assert code == 2
    assert report["error"] == {"type": "MemoryError",
                               "message": "Unable to allocate 3.03 GiB for an array"}


MALFORMED_DOCUMENTS = [  # (document, the key the report names)
    ({"pair": [3]}, "pair"),
    ({"group": {"elements": ["e"], "table": 5}}, "group"),
    ({"group": {"elements": ["e", "a"], "table": [[0, 1], [1, 5]]}}, "table"),
    ({"group": {"elements": ["e", "a"], "table": [["e", "a"], ["a", "b"]]}}, "table"),
    ({"group": {"elements": ["e", "a"], "table": [[0, 1], [1, 1]]}}, "table"),
    ({"action": {"group": {"elements": ["e"], "table": [[0]]}, "objects": 5,
                 "act": []}}, "action"),
    ({"gauge": 5}, "gauge"),
]


@pytest.mark.parametrize("doc, key", MALFORMED_DOCUMENTS)
def test_malformed_documents_are_precondition_failures(files, capsys, doc, key):
    # a shorthand, or a groupoid nested in a bibundle, of the wrong shape
    # made the load raise TypeError, or let a non-group through
    from moritakit.bibundles import identity_bibundle
    from moritakit.io import save_bibundle
    (files / "bad.json").write_text(json.dumps(doc))
    save_bibundle(identity_bibundle(pair_groupoid(2)), files / "ib.json")
    bibundle = json.loads((files / "ib.json").read_text())
    bibundle["left"] = doc
    (files / "nested.json").write_text(json.dumps(bibundle))
    for name in ("bad.json", "nested.json"):
        code, report = run(capsys, "validate", files / name, "--quiet")
        assert code == 2, name
        assert report["error"]["type"] == "ValueError", name
        assert repr(key) in report["error"]["message"], name


@pytest.mark.parametrize("side", [5, [1, 2], "no-such-file.json"])
def test_malformed_nested_groupoids_are_precondition_failures(files, capsys, side):
    from moritakit.bibundles import identity_bibundle
    from moritakit.io import save_bibundle
    save_bibundle(identity_bibundle(pair_groupoid(2)), files / "ib.json")
    bibundle = json.loads((files / "ib.json").read_text())
    bibundle["left"] = side
    (files / "nested.json").write_text(json.dumps(bibundle))
    code, report = run(capsys, "validate", files / "nested.json", "--quiet")
    assert code == 2
    if side != "no-such-file.json":
        assert report["error"]["type"] == "ValueError"
        assert report["error"]["message"].startswith("'left' ")


# ---------------------------------------------------------------------------
# the parser of one command against the parser of all

def parsed(parser, argv, capsys):
    """What a parser makes of argv: a namespace, a usage error or an exit."""
    from moritakit.cli import _UsageError
    try:
        return "args", vars(parser.parse_args(argv))
    except _UsageError as exc:
        return "usage", str(exc)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return "exit", exc.code, captured.out, captured.err


def parser_argvs():
    from moritakit.cli import _COMMANDS
    argvs = [[], ["-h"], ["--help"], ["--version"], ["--vers"], ["--quiet"],
             ["no-such-command"], ["--quiet", "picard", "x"],
             ["tss-iso", "a.json", "b.json", "--tol", "-inf"],
             ["gauge-check", "pi.field", "b.field", "--eps-sing", "-inf"],
             ["tss-iso", "a.json"], ["orbits"], ["picard", "x", "--method", "nope"],
             ["picard", "x", "--version"], ["picard", "x", "picard"]]
    for name, (_, _, positionals, _, _) in _COMMANDS.items():
        required = ["--object", "pt"] if name == "isotropy" else []
        argvs += [[name, *positionals, *required], [name, *positionals, *required, "--quiet",
                                                    "--timing"],
                  [name, "--help"], [name], [name, *positionals, "extra", *required],
                  [name, *positionals, *required, "--no-such-flag"]]
    return argvs


@pytest.mark.parametrize("argv", parser_argvs(), ids=" ".join)
def test_the_command_parser_answers_as_the_full_parser(capsys, argv):
    from moritakit.cli import _parser_for, build_parser
    assert parsed(_parser_for(argv), argv, capsys) == parsed(build_parser(), argv, capsys)


def test_a_command_line_builds_only_its_commands_parser():
    import argparse
    from moritakit.cli import _COMMANDS, _parser_for

    def commands(parser):
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return list(sub.choices)

    assert commands(_parser_for(["picard", "x.json"])) == ["picard"]
    for argv in ([], ["--help"], ["--version"], ["no-such-command"], ["--quiet", "picard"]):
        assert commands(_parser_for(argv)) == list(_COMMANDS), argv


# ---------------------------------------------------------------------------
# Picard groups from the command line

def test_picard_on_an_isotropy_table_without_identity_is_a_precondition_failure(
        files, capsys):
    # (c0, c0) -> c1 leaves the table of Z2 with no identity; the search for
    # generators then indexed the table with None
    save_groupoid(group_as_groupoid(cyclic_group(2)), files / "z2.json")
    z2 = json.loads((files / "z2.json").read_text())
    assert z2["comp"][0] == ["c0", "c0", "c0"]
    z2["comp"][0][2] = "c1"
    (files / "noid.json").write_text(json.dumps(z2))
    for method in ("auto", "enumerate", "formula"):
        code, report = run(capsys, "picard", files / "noid.json", "--method", method,
                           "--quiet")
        assert code == 2, method
        assert report["error"]["type"] == "ValueError", method
        assert "has no identity element" in report["error"]["message"], method


def test_picard_of_z2_over_six_points_by_enumeration(files, capsys):
    # Pic = S6: one candidate functor per orbit matching, 720 of them,
    # against the 6^6 * 2^6 endofunctors of a walk over all of them
    import time
    from moritakit.groupoids import bundle_of_groups
    save_groupoid(bundle_of_groups({f"p{i}": cyclic_group(2) for i in range(6)}),
                  files / "z2x6.json")
    started = time.perf_counter()
    code, report = run(capsys, "picard", files / "z2x6.json", "--method", "enumerate",
                       "--quiet")
    assert time.perf_counter() - started < 2.0
    assert code == 0 and report["result"]["order"] == 720
    assert report["result"]["method"] == "enumeration"


def test_cli_import_loads_only_the_stdlib_numpy_and_moritakit():
    # every command pays for this import before it starts
    code = ("import json, sys; before = set(sys.modules); import moritakit.cli; "
            "print(json.dumps(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
            " - set(sys.stdlib_module_names))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ,
                                           "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout)) <= {"moritakit", "numpy"}
