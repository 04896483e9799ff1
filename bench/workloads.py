"""The four workloads: one round is a fixed list of CLI jobs on fresh inputs.

Every round draws new random ids, file orders and parameters from the
run's generator, so no input file is read by two jobs of a run.  The job
mix of a round is the same for every seed; the seed changes labels,
orders, genera, periods, field coefficients and which partner a
non-equivalent pair gets.  ``size="tiny"`` shrinks every input for the
self-check.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from math import factorial, gcd
from pathlib import Path

import gen

WORKLOADS = ("pic-enum", "pic-table", "equiv", "gauge")


@dataclass
class Job:
    command: str
    argv: list
    expect: dict


class Round:
    """Writes one round's inputs under ``workdir`` and lists its jobs."""

    def __init__(self, workdir: Path, rng, lab, size: str):
        self.dir = workdir
        self.rng = rng
        self.lab = lab
        self.size = size
        self.jobs: list[Job] = []
        self.dir.mkdir(parents=True, exist_ok=True)

    def path(self, stem):
        return str(self.dir / f"{stem}-{self.lab.fresh()}")

    def write(self, stem, doc):
        path = self.path(stem) + ".json"
        Path(path).write_text(json.dumps(doc))
        return path

    def add(self, command, args, **expect):
        self.jobs.append(Job(command, [command, *args, "--quiet"], expect))

    def groupoid(self, g):
        lg = gen.Labelled(g, self.lab, self.rng)
        return lg, self.write("g", lg.doc)


# ---------------------------------------------------------------------------
# expected answers, from the models in gen.py


def center_size(h):
    return sum(all(h.table[z][x] == h.table[x][z] for x in range(h.n))
               for z in range(h.n))


def exact_orders(h, out):
    """Orders that verify-exact reports for a group seen as a groupoid.

    Aut = Inn . Out, Inn = H / Z(H), bisections are the elements of H, the
    ones acting trivially are Z(H), and Pic = static Pic = Out(H).
    """
    z = center_size(h)
    inn = h.n // z
    return {"aut": inn * out.n, "inaut": inn, "outaut": out.n, "bis": h.n,
            "ciso": z, "pic": out.n, "static-pic": out.n}


def symmetric_profile(k):
    """Element orders of S_k: the lcm of each permutation's cycle lengths."""
    from itertools import permutations

    out = []
    for p in permutations(range(k)):
        seen, order = set(), 1
        for i in range(k):
            n, j = 0, i
            while j not in seen:
                seen.add(j)
                j = p[j]
                n += 1
            if n:
                order = order * n // gcd(order, n)
        out.append(order)
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# pic-enum: many endofunctors, small Pic


def pic_enum(r: Round):
    z1, z3 = gen.cyclic(1), gen.cyclic(3)
    if r.size == "tiny":
        cases = [(3, z1, z1), (2, z3, gen.units_mod(3))]
    else:
        # pair5 has 5^5 = 3125 endofunctors and Pic = 1; Z3 over three
        # points has Pic = Out(Z3) = Z2; Out(S4) = 1.
        cases = [(5, z1, z1), (3, z3, gen.units_mod(3)),
                 (1, gen.symmetric(4), z1), (4, z1, z1)]
    for n, h, out in cases:
        _, path = r.groupoid(gen.transitive(n, h))
        r.add("picard", [path, "--method", "auto"], exit=0, order=out.n,
              profile=out.profile())


# ---------------------------------------------------------------------------
# pic-table: large Pic, so classification and tensor tables dominate


def pic_table(r: Round):
    z2, z3, z4 = gen.cyclic(2), gen.cyclic(3), gen.cyclic(4)
    s3 = gen.symmetric(3)
    if r.size == "tiny":
        bundle, groups = 2, [(gen.product_group(z2, z2), s3)]
    else:
        # A bundle of m abelian fibres Z3 has Pic = Aut(Z3)^m x| S_m, the
        # signed permutations: 48 classes for m = 3.
        bundle = 3
        groups = [(gen.cyclic(15), gen.units_mod(15)),
                  (gen.quaternion(), s3),
                  (gen.product_group(z2, z4), gen.dihedral4()),
                  (gen.product_group(z2, z2), s3)]
    pic = gen.signed_permutations(bundle)
    _, path = r.groupoid(gen.Groupoid([(1, z3)] * bundle))
    r.add("picard", [path, "--method", "auto"], exit=0, order=pic.n,
          profile=pic.profile())
    for h, out in groups:
        _, path = r.groupoid(gen.transitive(1, h))
        r.add("picard", [path, "--method", "auto"], exit=0, order=out.n,
              profile=out.profile())
    for h, out in groups:
        _, path = r.groupoid(gen.transitive(1, h))
        r.add("verify-exact", [path], exit=0, orders=exact_orders(h, out))


# ---------------------------------------------------------------------------
# equiv: validation, Morita decisions with witnesses, composition, TSS


def _z4_semidirect_z4():
    """Z4 x| Z4 with the generator of the right factor inverting the left."""
    return gen.group_from_mul(
        "Z4sdZ4", [(a, b) for a in range(4) for b in range(4)],
        lambda x, y: ((x[0] + (-1) ** x[1] * y[0]) % 4, (x[1] + y[1]) % 4), (0, 0))


def equiv(r: Round):
    rng = r.rng
    tiny = r.size == "tiny"
    z2, z3, z4 = gen.cyclic(2), gen.cyclic(3), gen.cyclic(4)
    s3, s4 = gen.symmetric(3), gen.symmetric(4)

    # validate: a large groupoid, a broken one, a bibundle and a graph
    _, path = r.groupoid(gen.transitive(2 if tiny else 4, s3 if tiny else s4))
    r.add("validate", [path], exit=0, kind="groupoid")
    broken = gen.transitive(3, z3)
    lg = gen.Labelled(broken, r.lab, rng)
    r.add("validate", [r.write("bad", gen.corrupt_one_composite(broken, lg, rng))],
          exit=1, kind="groupoid", rules={"associativity"})
    lg = gen.Labelled(gen.transitive(2 if tiny else 4, s3), r.lab, rng)
    perm = dict(zip(lg.g.objects, gen.shuffled(rng, lg.g.objects)))
    doc = gen.object_permutation_bibundle(lg, perm, r.lab, rng)
    r.add("validate", [r.write("bib", doc)], exit=0, kind="bibundle")
    nc = 4 if tiny else 8
    genus = int(rng.integers(0, 3))
    r.add("validate", [r.write("tss", gen.tss_doc(
        *gen.circulant(nc, (1, 2), genus, [1.0, 2.0]), r.lab, rng))],
        exit=0, kind="tss")

    # morita: equivalent pairs (emit a witness, then compose it with the
    # bibundle of an object permutation) and non-equivalent pairs whose
    # isotropy groups share their order profile
    if tiny:
        pairs = [([(2, s3)], [(1, s3)])]
    else:
        pairs = [([(4, s4)], [(2, s4)]),
                 ([(3, s3), (2, z4)], [(4, z4), (2, s3)])]
    for left, right in pairs:
        a = gen.Groupoid(gen.shuffled(rng, left))
        b = gen.Groupoid(gen.shuffled(rng, right))
        _, pa = r.groupoid(a)
        lb, pb = r.groupoid(b)
        carrier = sum(n1 * n2 * h.n for n1, h in left for n2, h2 in right
                      if h is h2)
        witness = r.path("w") + ".json"
        r.add("morita", [pa, pb, "--emit-witness", witness], exit=0,
              carrier=carrier, witness=witness)
        perm = {}
        for piece, (n, _) in enumerate(b.pieces):
            pts = [f"{piece}.{x}" for x in range(n)]
            perm.update(zip(pts, gen.shuffled(rng, pts)))
        twist = gen.object_permutation_bibundle(lb, perm, r.lab, rng)
        out = r.path("c") + ".json"
        r.add("compose", [witness, r.write("twist", twist), "--emit-witness", out],
              exit=0, carrier=carrier, witness=out)
    z4z4 = gen.product_group(z4, z4)
    partners = [gen.product_group(gen.quaternion(), z2), _z4_semidirect_z4()]
    for n1, n2 in ([(1, 2)] if tiny else [(2, 3), (3, 2)]):
        partner = partners[int(rng.integers(len(partners)))]
        _, pa = r.groupoid(gen.transitive(n1, z4 if tiny else z4z4))
        _, pb = r.groupoid(gen.transitive(n2, z2 if tiny else partner))
        r.add("morita", [pa, pb], exit=4)

    # tss-iso: relabelled positives, and directed circulants C8(1,2) and
    # C8(1,3) whose vertex signatures agree, so the search is exhaustive
    genus, period = int(rng.integers(0, 4)), float(rng.integers(1, 5))
    c12 = gen.circulant(nc, (1, 2), genus, [period, period])
    c13 = gen.circulant(nc, (1, 3), genus, [period, period])
    for first, second, code in ((c12, c12, 0), (c12, c13, 4), (c13, c13, 0)):
        da, db = (gen.tss_doc(*g, r.lab, rng) for g in (first, second))
        r.add("tss-iso", [r.write("ta", da), r.write("tb", db)], exit=code,
              graphs=(da, db))

    # tss-picard-ingredients: k parallel edges of one period between two
    # leaves, so the automorphism group is S_k
    for k in ((3, 4) if tiny else (5, 6)):
        g1, g2 = (int(v) for v in rng.integers(0, 4, 2))
        p = float(rng.integers(1, 5))
        edges = [("n", "s", p)] * k
        doc = gen.tss_doc(["n", "s"], {"n": g1, "s": g2}, edges, r.lab, rng)
        r.add("tss-picard-ingredients", [r.write("par", doc)], exit=0,
              order=factorial(k), profile=symmetric_profile(k), torus_rank=k,
              leaves=sorted([[g1, k], [g2, k]]))


# ---------------------------------------------------------------------------
# gauge: numpy kernels and binary field io


def gauge(r: Round):
    n = 8 if r.size == "tiny" else 64
    apply_case, check_case = gen.GaugeCase(r.rng, n), gen.GaugeCase(r.rng, n)
    pi, b = r.path("pi") + ".field", r.path("b") + ".field"
    apply_case.write(pi, b)
    out = r.path("tau") + ".field"
    r.add("gauge-apply", [pi, b, "--out", out], exit=0, case=apply_case, out=out)
    pi, b = r.path("pi") + ".field", r.path("b") + ".field"
    check_case.write(pi, b)
    r.add("gauge-check", [pi, b], exit=0, case=check_case)


BUILDERS = {"pic-enum": pic_enum, "pic-table": pic_table, "equiv": equiv,
            "gauge": gauge}
