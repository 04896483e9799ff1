"""Independent answer checker: every job's report is checked, none skipped.

Nothing here calls the library.  Picard tables are checked by order,
identity and order profile, which leaves element naming free to change.
Witness bibundles written by the CLI are re-read and checked for
biprincipality.  Gauge outputs are compared with a per-point
``np.linalg.solve`` at sampled points.
"""
from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

import numpy as np

GAUGE_TOL = 1e-10
SAMPLED_POINTS = 32


def check(job, code, report, rng):
    """None when the job's exit code and answer are right, else the reason."""
    exp = job.expect
    if code != exp["exit"]:
        return f"exit code {code}, expected {exp['exit']}"
    res = report.get("result")
    if res is None:
        return f"no result: {report.get('error')}"
    return CHECKS[job.command](exp, res, rng)


def _group_table(res, order):
    names, table = res["elements"], res["table"]
    n = len(names)
    if n != order or res.get("order", n) != order:
        return None, f"order {n}, expected {order}"
    full = set(range(n))
    if len(table) != n or any(set(row) != full for row in table):
        return None, "table is not a Latin square"
    if any({table[i][j] for i in range(n)} != full for j in range(n)):
        return None, "table is not a Latin square"
    e = names.index(res["identity"])
    if any(table[e][x] != x or table[x][e] != x for x in range(n)):
        return None, "identity does not act as one"
    return (table, e), None


def _profile(table, e):
    out = []
    for a in range(len(table)):
        x, k = a, 1
        while x != e:
            x = table[x][a]
            k += 1
        out.append(k)
    return tuple(sorted(out))


def check_picard(exp, res, rng):
    got, err = _group_table(res, exp["order"])
    if err:
        return err
    if _profile(*got) != tuple(exp["profile"]):
        return "order profile differs"
    return None


def check_verify_exact(exp, res, rng):
    if not res["ok"]:
        return "exactness reported as failed"
    if res["orders"] != exp["orders"]:
        return f"orders {res['orders']}, expected {exp['orders']}"
    return None


def check_validate(exp, res, rng):
    if res["kind"] != exp["kind"]:
        return f"kind {res['kind']}, expected {exp['kind']}"
    if res["ok"] != (exp["exit"] == 0):
        return "validity differs"
    rules = {v["rule"] for v in res["violations"]}
    if rules != exp.get("rules", set()):
        return f"violated rules {sorted(rules)}"
    return None


def biprincipal(path, carrier):
    """Re-read a bibundle file and check both actions are principal."""
    doc = json.loads(Path(path).read_text())
    if len(doc["carrier"]) != carrier:
        return f"witness carrier {len(doc['carrier'])}, expected {carrier}"
    sides = {}
    for side in ("left", "right"):
        g = doc[side]
        sides[side] = ({a["id"]: a["src"] for a in g["arrows"]},
                       {a["id"]: a["tgt"] for a in g["arrows"]}, set(g["objects"]))
    j1, j2 = doc["J1"], doc["J2"]
    left = {(g, x): y for g, x, y in doc["leftAct"]}
    right = {(x, g): y for x, g, y in doc["rightAct"]}
    # the left groupoid acts along J1 on J2-fibres, the right one along J2
    # on J1-fibres; principal means free and transitive on those fibres
    for act, (src, tgt, objs), moment, other, side in (
            (lambda g, x: left.get((g, x)), sides["left"], j1, j2, "left"),
            (lambda g, x: right.get((x, g)), sides["right"], j2, j1, "right")):
        start = src if side == "left" else tgt
        if set(moment.values()) != objs:
            return f"{side} moment is not onto"
        fibre = Counter(other.values())
        for x in doc["carrier"]:
            orbit = [act(g, x) for g in start if start[g] == moment[x]]
            if None in orbit or len(set(orbit)) != len(orbit):
                return f"{side} action not free at {x}"
            if len(orbit) != fibre[other[x]] or any(other[y] != other[x] for y in orbit):
                return f"{side} action not transitive at {x}"
    return None


def check_morita(exp, res, rng):
    if exp["exit"] != 0:
        return None if res["equivalent"] is False and res["obstruction"] else \
            "non-equivalence not reported"
    if not res["equivalent"] or res["witness_carrier"] != exp["carrier"]:
        return f"witness carrier {res.get('witness_carrier')}, expected {exp['carrier']}"
    return biprincipal(exp["witness"], exp["carrier"])


def check_compose(exp, res, rng):
    if res["carrier_size"] != exp["carrier"]:
        return f"carrier {res['carrier_size']}, expected {exp['carrier']}"
    if not (res["left_principal"] and res["right_principal"]):
        return "tensor of biprincipal bibundles is not biprincipal"
    return biprincipal(exp["witness"], exp["carrier"])


def check_tss_iso(exp, res, rng):
    if exp["exit"] != 0:
        return None if res["equivalent"] is False else "non-equivalence not reported"
    da, db = exp["graphs"]
    vmap = res["isomorphism"]["vertices"]
    ga = {v["id"]: v["genus"] for v in da["vertices"]}
    gb = {v["id"]: v["genus"] for v in db["vertices"]}
    if set(vmap) != set(ga) or sorted(vmap.values()) != sorted(gb):
        return "vertex map is not a bijection"
    if any(ga[v] != gb[w] for v, w in vmap.items()):
        return "vertex map changes a genus"
    emap = res["isomorphism"]["edges"]
    if sorted(emap) != list(range(len(da["edges"]))):
        return "edge map is not a bijection"
    # edge i of the first graph must land on an edge with the image tail and
    # head and the same period
    ea, eb = _canonical_edges(da), _canonical_edges(db)
    for (t, h, p), j in zip(ea, emap):
        if (vmap[t], vmap[h], p) != eb[j]:
            return "edge map does not carry an edge onto its image"
    return None


def _canonical_edges(doc):
    """Edges in the order the CLI numbers them, whatever the file order.

    That order sorts (tail, head, period) by the positions of tail and head
    among the sorted vertex ids, then by period.
    """
    pos = {v: i for i, v in enumerate(sorted(v["id"] for v in doc["vertices"]))}
    edges = [(e["tail"], e["head"], float(e["period"])) for e in doc["edges"]]
    return sorted(edges, key=lambda e: (pos[e[0]], pos[e[1]], e[2]))


def check_tss_picard(exp, res, rng):
    if res["graph_aut_order"] != exp["order"] or res["torus_rank"] != exp["torus_rank"]:
        return "order or torus rank differs"
    if sorted(res["leaf_descriptors"]) != exp["leaves"]:
        return "leaf descriptors differ"
    group = res["graph_aut"]
    got, err = _group_table(group, exp["order"])
    if err:
        return err
    if _profile(*got) != exp["profile"]:
        return "order profile differs"
    return None


def _det_min(case):
    """min |det(1 + B pi)| = min (1 - w . grad f)^2 over the grid."""
    x = np.stack(case.coords(), axis=-1)
    s = np.einsum("...k,...k->...", case.w(x), case.grad_f(x))
    return float(np.min((1.0 - s) ** 2))


def _sampled_tau(case, points):
    out = []
    for p in points:
        x = case.point(p)
        pi = case.matrix(case.upper_from_vector(case.grad_f(x)))
        b = case.matrix(case.upper_from_vector(case.w(x)))
        m = np.eye(3) + b @ pi
        out.append(np.linalg.solve(m.T, pi.T).T)  # pi (1 + B pi)^-1
    return np.array(out)


def check_gauge_apply(exp, res, rng):
    case, out = exp["case"], Path(exp["out"])
    if not np.isclose(res["min_abs_det"], _det_min(case), rtol=1e-9, atol=0):
        return f"min_abs_det {res['min_abs_det']} differs"
    if res["max_asymmetry"] > 1e-12:
        return "transform is not antisymmetric"
    data = out.read_bytes()
    if res["output_digest"] != "sha256:" + hashlib.sha256(data).hexdigest():
        return "output digest does not match the file"
    sidecar = json.loads(Path(str(out) + ".json").read_text())
    if sidecar["shape"] != [case.n] * 3 or sidecar["kind"] != "bivector":
        return "output sidecar differs"
    upper = np.frombuffer(data, dtype="<f8").reshape(case.n, case.n, case.n, 3)
    points = [tuple(int(v) for v in rng.integers(0, case.n, 3))
              for _ in range(SAMPLED_POINTS)]
    ref = _sampled_tau(case, points)
    got = case.matrix(np.array([upper[p] for p in points]))
    err = float(np.max(np.abs(got - ref)))
    if err > GAUGE_TOL:
        return f"tau differs from the per-point solve by {err:.3e}"
    return None


def check_gauge_check(exp, res, rng):
    case = exp["case"]
    inv = res["invertibility"]
    if not inv["ok"] or not np.isclose(inv["min_abs_det"], _det_min(case),
                                       rtol=1e-9, atol=0):
        return "invertibility differs"
    n = case.n ** 3
    if res["rank_histogram"] != {"0": 1, "2": n - 1}:
        return f"rank histogram {res['rank_histogram']}"
    # pi is quadratic and B linear in x, so order-2 differences are exact
    if res["jacobi_residual"] > 1e-8 or res["closedness_residual"] > 1e-8:
        return "residuals of a Poisson bivector and a closed form are not small"
    return None


CHECKS = {
    "picard": check_picard,
    "verify-exact": check_verify_exact,
    "validate": check_validate,
    "morita": check_morita,
    "compose": check_compose,
    "tss-iso": check_tss_iso,
    "tss-picard-ingredients": check_tss_picard,
    "gauge-apply": check_gauge_apply,
    "gauge-check": check_gauge_check,
}
