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
    assert report["error"]["type"] == "KeyError"


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
    field.values[point][0, 1] = value
    save_field(field, files / name, kind)
    return files / name


def test_validate_rejects_nonfinite_field(files, capsys):
    path = save_with_nonfinite(files, "pinan.field", SampledBivectorField,
                               "bivector", J2, (2, 3), np.nan)
    code, report = run(capsys, "validate", path, "--quiet")
    assert code == 1
    assert report["result"]["violations"] == [{"rule": "finite",
                                               "witness": [2, 3]}]


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
