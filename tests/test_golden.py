"""Golden CLI results: exit code and SHA-256 of every subcommand's answer.

Each case runs one subcommand through ``cli.main`` on fixed inputs,
checks that stdout is the report as ``json.dumps(sort_keys=True,
indent=2)`` plus a newline, and
compares the exit code, the SHA-256 of the sorted ``result`` (and
``error``) JSON and, for commands that write a file, the SHA-256 of that
file with digests recorded before the searches were merged into the
shared kernels of ``moritakit._search``.  The five ``picard`` cases whose
answer names the formula were re-recorded when the two special-case
formulas became the one skeleton formula: ``picard-q8`` and
``picard-union`` (its cross-check), ``picard-q8-formula`` and
``picard-v4bundle-formula`` (method, and Out's bracketed coset names on
the bundle), and ``picard-union-formula`` (a disjoint union with
different isotropy, which the old formula refused).  ``validate-broken``
(a Z4 table with one redirected composite, whose witnesses are in the
digest) and ``tss-picard-ingredients-parallel5`` (S5 on five parallel
edges) were recorded with the plain-loop ``validate`` and Cayley table,
before both became array kernels.  ``compose-witness`` (an emitted
``morita`` witness of S3 over 2 points against S3, composed with the
bibundle of the automorphism that swaps the two points) was recorded
with the plain-loop bibundle kernels, before ``validate_bibundle``,
``principality`` and ``tensor`` became array kernels.
``compose-invalid`` (the identity bibundle of Z4 with the Klein-four
Latin square as its left action) was recorded after ``compose`` began
to validate its inputs: before, it exited 0 with a biprincipal product
of an invalid bibundle.  ``tss-picard-ingredients-parallel6`` (S6 on
six parallel edges, order 720) and ``morita-s4`` (the witness of the S4
gauge groupoid over 4 points against the one over 2 points, report and
emitted file) were recorded with the per-row Cayley search and the
dict-keyed groupoid load, before tables came from generator rows and
groupoids were loaded straight into their composition table.
``aut-z2cube`` (Aut of the Z2 x Z2 x Z2 group groupoid, GL(3,2) of
order 168, a group table that crosses the writer's 64-row piece
boundary) was recorded with the writer that re-indents C-encoded blocks
of lists, before tables were written from their index arrays.
``validate-bibundle-shuffled`` (``compose-invalid``'s Latin-square
bibundle with both action tables shuffled and one key repeated on each
side with a different image, so that the witnesses follow the file's row
order and the last image of a key wins) was recorded with the actions
held as dicts, before they were held as index rows.  The
inputs exercise the searches whose first witness is part of the answer:
orbit matching on a disjoint union, the TSS vertex and edge maps of a
relabelled circulant graph, parallel-edge automorphisms and emitted
Morita witnesses.
"""
import hashlib
import json
import random

import numpy as np
import pytest

from moritakit.bibundles import (from_homomorphism, identity_bibundle,
                                 morita_equivalent)
from moritakit.cli import main
from moritakit.gauge import GridSpec, SampledBivectorField, SampledTwoFormField
from moritakit.groupoids import (bundle_of_groups, disjoint_union,
                                 group_as_groupoid, groupoid_isomorphisms,
                                 pair_groupoid)
from moritakit.groups import (cyclic_group, direct_product, klein_four_group,
                              quaternion_group, symmetric_group)
from moritakit.io import save_bibundle, save_field, save_groupoid, save_tss
from moritakit.tss import LabeledSurfaceGraph

from support import gauge_over

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
RELABEL = [5, 2, 7, 0, 3, 6, 1, 4]


def circulant(steps, names):
    n = len(names)
    edges = [(names[i], names[(i + s) % n], float(k + 1))
             for i in range(n) for k, s in enumerate(steps)]
    return LabeledSurfaceGraph(names, {v: 0 for v in names}, edges)


def write_inputs():
    """Write every input file into the current directory."""
    z3 = group_as_groupoid(cyclic_group(3))
    save_groupoid(disjoint_union(pair_groupoid(2), pair_groupoid(3), z3), "du.json")
    save_groupoid(disjoint_union(z3, pair_groupoid(3), pair_groupoid(2)), "du2.json")
    save_groupoid(disjoint_union(pair_groupoid(2), pair_groupoid(2), z3), "du3.json")
    v4 = klein_four_group()
    save_groupoid(bundle_of_groups({"a": v4, "b": v4}), "v4bundle.json")
    save_groupoid(group_as_groupoid(cyclic_group(4)), "z4.json")
    with open("z4.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["comp"][5] == ["c1", "c1", "c2"]
    doc["comp"][5][2] = "c3"  # one redirected composite
    with open("z4bad.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    save_groupoid(group_as_groupoid(quaternion_group()), "q8.json")
    z2 = cyclic_group(2)
    save_groupoid(group_as_groupoid(direct_product(direct_product(z2, z2), z2)),
                  "z2cube.json")
    save_bibundle(identity_bibundle(pair_groupoid(3)), "ib.json")
    # the Morita witness of S3 over 2 points against S3, as `morita` emits
    # it, and the bibundle of the automorphism that swaps the two points
    s3 = symmetric_group(3)
    s3x2 = gauge_over(s3, 2)
    save_bibundle(morita_equivalent(s3x2, group_as_groupoid(s3)), "ws3.json")
    swap = next(h for h in groupoid_isomorphisms(s3x2, s3x2) if h.obj_map == (1, 0))
    save_bibundle(from_homomorphism(swap), "swap.json")
    # the identity bibundle of Z4 with the Klein-four Latin square
    # c_i . c_j = c_(i XOR j) as its left action
    save_bibundle(identity_bibundle(group_as_groupoid(cyclic_group(4))), "idz4.json")
    with open("idz4.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["leftAct"] = [[f"c{i}", f"c{j}", f"c{i ^ j}"]
                      for i in range(4) for j in range(4)]
    with open("z4latin.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    # the same bibundle with both action tables shuffled, and one key
    # repeated on each side with a different image: the left one's first
    # image is wrong, the right one's last image is
    rng = random.Random(18)
    rng.shuffle(doc["leftAct"])
    rng.shuffle(doc["rightAct"])
    at = doc["leftAct"].index(["c1", "c2", "c3"])
    doc["leftAct"].insert(at // 2, ["c1", "c2", "c0"])
    at = doc["rightAct"].index(["c1", "c1", "c2"])
    doc["rightAct"].insert(at + (len(doc["rightAct"]) - at) // 2, ["c1", "c1", "c0"])
    with open("z4shuffled.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    names = [f"v{i}" for i in range(8)]
    save_tss(circulant((1, 2), names), "c8.json")
    save_tss(circulant((1, 2), [f"x{RELABEL[i]}" for i in range(8)]), "c8r.json")
    save_tss(circulant((1, 3), names), "c8b.json")
    save_tss(LabeledSurfaceGraph(["n", "s"], {"n": 0, "s": 1},
                                 [("n", "s", 1.0)] * 3), "par3.json")
    save_tss(LabeledSurfaceGraph(["n", "s"], {"n": 0, "s": 1},
                                 [("n", "s", 1.0)] * 5), "par5.json")
    save_tss(LabeledSurfaceGraph(["n", "s"], {"n": 0, "s": 1},
                                 [("n", "s", 1.0)] * 6), "par6.json")
    grid = GridSpec(2, (0.0, 0.0), 0.25, (5, 5))
    save_field(SampledBivectorField.constant(grid, J2), "pi.field", "bivector")
    save_field(SampledTwoFormField.constant(grid, 0.5 * J2), "b.field", "two_form")
    save_field(SampledTwoFormField.constant(grid, J2), "bsing.field", "two_form")


def write_s4_inputs():
    """The S4 gauge groupoids over 4 and 2 points (384 and 96 arrows).

    They take most of a second to build, so only their case writes them.
    """
    s4 = symmetric_group(4)
    save_groupoid(gauge_over(s4, 4), "s4x4.json")
    save_groupoid(gauge_over(s4, 2), "s4x2.json")


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_inputs()
    return tmp_path


# name -> (argv, emitted file or None)
CASES = {
    "validate-groupoid": (["validate", "du.json"], None),
    "validate-bibundle": (["validate", "ib.json"], None),
    "validate-tss": (["validate", "c8.json"], None),
    "validate-field": (["validate", "pi.field"], None),
    "validate-broken": (["validate", "z4bad.json"], None),
    "validate-bibundle-shuffled": (["validate", "z4shuffled.json"], None),
    "orbits": (["orbits", "du.json"], None),
    "isotropy": (["isotropy", "du.json", "--object", "u2:pt"], None),
    "aut-v4bundle": (["aut", "v4bundle.json"], None),
    "aut-z2cube": (["aut", "z2cube.json"], None),
    "inaut-v4bundle": (["inaut", "v4bundle.json"], None),
    "out-v4bundle": (["out", "v4bundle.json"], None),
    "bisections-v4bundle": (["bisections", "v4bundle.json"], None),
    "aut-union": (["aut", "du.json"], None),
    "bisections-union": (["bisections", "du.json"], None),
    "picard-union": (["picard", "du3.json"], None),
    "picard-union-formula": (["picard", "du.json", "--method", "formula"], None),
    "picard-q8": (["picard", "q8.json"], None),
    "picard-q8-formula": (["picard", "q8.json", "--method", "formula"], None),
    "picard-v4bundle-formula": (["picard", "v4bundle.json", "--method", "formula"],
                                None),
    "verify-exact-z4": (["verify-exact", "z4.json"], None),
    "verify-exact-q8": (["verify-exact", "q8.json"], None),
    "verify-exact-union": (["verify-exact", "du.json"], None),
    "compose": (["compose", "ib.json", "ib.json", "--emit-witness", "comp.json"],
                "comp.json"),
    "compose-witness": (["compose", "swap.json", "ws3.json",
                         "--emit-witness", "cw.json"], "cw.json"),
    "compose-invalid": (["compose", "z4latin.json", "idz4.json"], None),
    "morita-union": (["morita", "du.json", "du2.json", "--emit-witness", "w.json"],
                     "w.json"),
    "morita-negative": (["morita", "du.json", "v4bundle.json"], None),
    "morita-s4": (["morita", "s4x4.json", "s4x2.json", "--emit-witness", "ws4.json"],
                  "ws4.json"),
    "tss-iso-relabelled": (["tss-iso", "c8.json", "c8r.json"], None),
    "tss-iso-negative": (["tss-iso", "c8.json", "c8b.json"], None),
    "tss-picard-ingredients-parallel": (["tss-picard-ingredients", "par3.json"], None),
    "tss-picard-ingredients-parallel5": (["tss-picard-ingredients", "par5.json"],
                                         None),
    "tss-picard-ingredients-parallel6": (["tss-picard-ingredients", "par6.json"],
                                         None),
    "tss-picard-ingredients-c8": (["tss-picard-ingredients", "c8.json"], None),
    "tss-genus": (["tss-genus", "c8.json"], None),
    "gauge-apply": (["gauge-apply", "pi.field", "b.field", "--out", "tau.field"],
                    "tau.field"),
    "gauge-apply-singular": (["gauge-apply", "pi.field", "bsing.field"], None),
    "gauge-check": (["gauge-check", "pi.field", "b.field"], None),
}

# cases whose inputs are too slow to write for every case
EXTRA_INPUTS = {"morita-s4": write_s4_inputs}

# name -> (exit code, result digest, emitted-file digest or None)
GOLDEN = {
    "aut-union": (0, "f230d9d89d12e47913a43a81b94b8359b2e9147fe50d9af9b207ce0c288f249e",
        None),
    "aut-v4bundle": (0, "0c8d00d0aa1ae25a4e52a7ee6454f374bae896be40336f9212e4c1ffd88a74a0",
        None),
    "aut-z2cube": (0, "ac2d4a62e402b4dd7ed0b04ad35d514b8aefaf982ee775acbf5b696c20f08186",
        None),
    "bisections-union": (0, "cfbdf79526f16a72046cc9bb7e021baf2e72147d9f7a1a014192cb3bfb4c008f",
        None),
    "bisections-v4bundle": (0, "33b5f6d4c1de47897934ca6bc2755e31e5ad699c2c21be9c32211bbc87ff4126",
        None),
    "compose": (0, "e5644eed1db4075d4747f8be073c84c742dc36347ff334f0bc68d1888dd140ad",
        "7953fbe96bd101aa95522a57e2eff0d8d762b1788cb79aebadacc6575bd814bb"),
    "compose-invalid": (1, "0066cb3a58e91297fbf894e2e3618b075e24010cb58ebb84328f38c643033698",
        None),
    "compose-witness": (0, "a5463b5d7c7eb63429b0ca748d8b0763fc065da3d6b64cc701b60663478bdc07",
        "439989ac85d274c1c8d3633bb79d3e2aaaa3d6bb01e681b39d81e54fa7a3c92e"),
    "gauge-apply": (0, "da5c245a2c00b1ef0fb696a60ab5406232be571b5ecbf9c43d4aeb727ad1646a",
        "3030823012c88c9561ba27927ec14fcd2540d642d4ecd0a4d1650b315234fdf2"),
    "gauge-apply-singular": (3, "b096297bd2e2837447909e52588f7eb11b645983e039980bce6545a4ebc54ca5",
        None),
    "gauge-check": (0, "23888bd816b51651064061bdea50a6d30b92b369421194a8c2a4e0312f72612b",
        None),
    "inaut-v4bundle": (0, "3f4657a73051425490654bbeeedabea1672110a75a92cbbce3596b7a4414150d",
        None),
    "isotropy": (0, "5d075620235873d26116e0d34dd136f5cbb993eb9f9137354e091d86af8366d3",
        None),
    "morita-negative": (4, "ce9fd2bd7bfb1110ca49ca28f0653ce422a8dc312f07c33872908ce57f55090b",
        None),
    "morita-s4": (0, "8c8e178a8a6ce35c7b169cab46c7f9fba66250d0b398bef7971a156884dd630f",
        "1363eda18ecd5e8b0e7747c7cb9d171f377623c7406a8e9df766b379a17d3ef3"),
    "morita-union": (0, "f020c8abe7dbf01fbfd91a70ef45f564652019d3f46332cefd0a0d3d6821481c",
        "839152f9f655493108721b48661643267a495c05e4e0d28c1a571979b0f8777a"),
    "orbits": (0, "b9addb4da3ecbaebed30311a59a3a2bd030ecc4fcdc5cc6249aa2df752618ba7",
        None),
    "out-v4bundle": (0, "8090425daf888d590e7f3c018a9549f6ac9438d1e9e9f3e6265aef3fd02df710",
        None),
    "picard-q8": (0, "dd0c324c7b453116c1f42cc4b220bb80c3a7ff3535cbd7efac6de705082bdcf8",
        None),
    "picard-q8-formula": (0, "08e56edcefde51bc6401c7d5ab91db8c84ded711568b14e60e4000f13268b83d",
        None),
    "picard-union": (0, "b5b08d39229bb8a06a306ef147f98250b4b9ae30a97188fc28a0e4442dcc012a",
        None),
    "picard-union-formula": (0, "be10ad4c1f9aef9b48163ed75e97f8a149c2e2089f71f3cc4058434bf91cd762",
        None),
    "picard-v4bundle-formula": (0, "c743df1aaf86418a793cae22980987e728f6ca7138da1d46e581c2fb9dfbe95b",
        None),
    "tss-genus": (0, "fd0ade184ad703e6c6aebf65f481be0471346c848807194226a7018788ddaa46",
        None),
    "tss-iso-negative": (4, "0aa96eadf74cb7a2df4a05cbd38af506cfae5618a7b543b6dd81b87264310d95",
        None),
    "tss-iso-relabelled": (0, "163d016badabbceaf2592b2c42e7d5b30f756df8d142474d11ab9775831e1635",
        None),
    "tss-picard-ingredients-c8": (0, "3001fca542d8a06e1aa82f5d80fa5c39d949a2ee0ecb32e704bd46a3b39a13b1",
        None),
    "tss-picard-ingredients-parallel": (0, "6754a63a4f60b10e4d9a9d893ae8910abf15cd13d15b54328740b2ab55517979",
        None),
    "tss-picard-ingredients-parallel5": (0, "d8b710db486eea6f31127e68e8ede4ad10a06c5da0a779dfb6cf313a7faab749",
        None),
    "tss-picard-ingredients-parallel6": (0, "15c3fafbdc332478b362338bf8f77850cd3772d9d9152a5fbfff16a44e3b47b9",
        None),
    "validate-broken": (1, "eda3664e01995203f9535e86b4f08efaba5ec33d3f3634b80965847ea3928dd2",
        None),
    "validate-bibundle-shuffled": (1, "2cb2bd3f6f868fc64a885f3fc9cce747c2e4aababad033cee3f3aabdcd4408b4",
        None),
    "validate-bibundle": (0, "2dc1f22f66eee0babc68df2c52c2664b2b218b12b7e899ca57e707ab3569c04f",
        None),
    "validate-field": (0, "7b5c373905bfd9dede3188f923a2c531c64369fd3103f2d70fcc249417ba23c1",
        None),
    "validate-groupoid": (0, "dff7b43dec8e5aa17d6b982d1090bd0cad977cb3cd7c975432ebe0bb0f9c903b",
        None),
    "validate-tss": (0, "f807ff687b960169888db6873e94aa352250459de31498007913e52f299f3ce1",
        None),
    "verify-exact-q8": (0, "6f90a2847ff7480259e4bbb5f1f2605cfe60c02452906aacbd688adee8ac41cc",
        None),
    "verify-exact-union": (0, "fe261e27304ab89af070b4a2433ff53ea8e9a2bd6ec8388c230cd48d57a5c145",
        None),
    "verify-exact-z4": (0, "c73667110e1476113d10896ad5765479b317863d34124c8d966a601e1ca736ad",
        None),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(name, capsys):
    argv, emitted = CASES[name]
    code = main(argv + ["--quiet"])
    out = capsys.readouterr().out
    report = json.loads(out)
    # the raw layout: sorted keys, two-space indent, one trailing newline
    assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"
    answer = {key: report.get(key) for key in ("result", "error")}
    digest = sha256(json.dumps(answer, sort_keys=True).encode())
    file_digest = None
    if emitted is not None:
        with open(emitted, "rb") as fh:
            file_digest = sha256(fh.read())
    return code, digest, file_digest


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_result(name, inputs, capsys):
    EXTRA_INPUTS.get(name, lambda: None)()
    assert run_case(name, capsys) == GOLDEN[name]
