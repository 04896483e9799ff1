"""Batch command line: validate inputs, run computations, emit JSON reports.

One JSON document goes to stdout; a short human summary goes to stderr
(suppressed by --quiet).  Exit codes are a stable contract:

    0  success / valid / equivalent
    1  validation failure
    2  precondition failure
    3  numerical singularity
    4  not equivalent (for equivalence queries)

Reports are byte-identical across runs for identical inputs and version;
timing therefore stays out of the JSON unless --timing is passed.

Every subcommand is declared in one place, ``_COMMANDS``: its arguments
and the function that runs it, which the parser sets as the ``handler``
default.  A handler takes the parsed arguments and returns the result
payload, the exit code and the summary line.
"""
from __future__ import annotations

import argparse
import gc
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bibundles import (morita_equivalent, principality, tensor,
                        validate_bibundle)
from .errors import InvalidBibundle, MoritaKitError, SingularEndomorphism
from .gauge import (_rank_slabs, apply_gauge, closedness_residual,
                    invertibility_check, jacobi_residual)
from .groupoids import isotropy, orbit_partition, orbits, validate
from .io import (_field_from_json, bibundle_from_dict, detect_kind,
                 groupoid_from_dict, load_bibundle, load_field, load_groupoid,
                 load_tss, save_bibundle, save_field, sha256_digest,
                 tss_from_dict)
from .picard import (automorphisms, bisections, inaut, outaut, picard_group,
                     verify_exact_sequences)
from .report import ValidationReport, write_json
from .tss import (morita_equivalent_tss, picard_ingredients,
                  poisson_isomorphic_tss, surface_genus, validate_tss)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PRECONDITION = 2
EXIT_SINGULAR = 3
EXIT_NOT_EQUIVALENT = 4

# MemoryError: a table too large for this machine is reported, not raised
_PRECONDITION_ERRORS = (MoritaKitError, ValueError, OSError, KeyError, MemoryError)


class _UsageError(Exception):
    """A malformed command line, reported as JSON rather than by argparse."""


class _Parser(argparse.ArgumentParser):
    # subparsers are built with the parent's class, so they raise too
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand."""
    return _parser(_COMMANDS)


def _parser_for(argv) -> argparse.ArgumentParser:
    """The parser of argv's command alone when its first token names one.

    A subcommand's parser does not depend on its siblings, so it parses
    the command, and words its errors and help, as the full parser does.
    Any other argv (no command, an unknown one, ``-h``, ``--version``)
    gets the full parser, whose answers list the commands.
    """
    first = argv[0] if argv else None
    return _parser([first] if first in _COMMANDS else _COMMANDS)


def _parser(names) -> argparse.ArgumentParser:
    parser = _Parser(
        prog="moritakit",
        description="Morita equivalence, Picard groups, surface graphs and "
                    "gauge transforms for finite models.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        handler, summary, positionals, options, defaults = _COMMANDS[name]
        p = sub.add_parser(name, help=summary)
        p.add_argument("--quiet", action="store_true",
                       help="suppress the stderr summary")
        p.add_argument("--timing", action="store_true",
                       help="include wall time in the JSON report "
                            "(breaks byte-identical output)")
        for positional in positionals:
            p.add_argument(positional)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(handler=handler, **defaults)
    return parser


# ---------------------------------------------------------------------------
# handlers: each returns (result payload, exit code, summary line)

def _validate(args):
    kind, data = detect_kind(args.path)
    if kind == "groupoid":
        report = validate(groupoid_from_dict(data))
    elif kind == "bibundle":
        report = validate_bibundle(
            bibundle_from_dict(data, base_dir=Path(args.path).parent))
    elif kind == "tss":
        report = validate_tss(tss_from_dict(data))
    else:
        # a binary payload is read through its sidecar; an analytic spec
        # stands alone under any name, a sidecar only under a .json name
        if data is None:
            field, _ = load_field(args.path)
        elif "analytic" in data or Path(args.path).suffix == ".json":
            field, _ = _field_from_json(data, args.path)
        else:
            raise ValueError(f"{args.path} is a field sidecar; a sidecar is read "
                             f"only as <payload>.json, here {args.path}.json")
        report = ValidationReport()
        point = field.nonfinite_point()
        if point is not None:
            report.add("finite", *point)
    payload = {"kind": kind, **report.as_dict()}
    code = EXIT_OK if report.ok else EXIT_INVALID
    return payload, code, f"{kind}: {'valid' if report.ok else 'INVALID'}"


def _orbits(args):
    blocks = orbits(load_groupoid(args.path))
    return ({"orbits": [list(b) for b in blocks]}, EXIT_OK,
            f"{len(blocks)} orbit(s)")


def _isotropy(args):
    group = isotropy(load_groupoid(args.path), args.obj)
    return ({"object": args.obj, "isotropy": group._doc()}, EXIT_OK,
            f"isotropy at {args.obj} has order {len(group)}")


def _automorphism_group(args):
    """``aut``, ``inaut`` and ``out``: a group whose payload is functors."""
    group = args.group(load_groupoid(args.path))
    payload = {"order": len(group), "group": group._doc(),
               args.listing: [h.as_dict() for h in group.payload]}
    return payload, EXIT_OK, f"|{args.label}| = {len(group)}"


def _bisections(args):
    bis = bisections(load_groupoid(args.path))
    payload = {"count": len(bis), "group": bis._doc(),
               "bisections": [list(b.arrow_ids()) for b in bis.payload]}
    return payload, EXIT_OK, f"{len(bis)} bisection(s)"


def _picard(args):
    pic = picard_group(load_groupoid(args.path), args.method)
    payload = pic._doc()
    payload["order"] = len(pic)
    if pic.cross_checked:
        payload["cross_checked"] = list(pic.cross_checked)
    return payload, EXIT_OK, f"|Pic| = {len(pic)} via {pic.method}"


def _verify_exact(args):
    report = verify_exact_sequences(load_groupoid(args.path))
    code = EXIT_OK if report.ok else EXIT_INVALID
    return report.as_dict(), code, ("exact sequences verified" if report.ok
                                    else "exactness FAILED")


def _compose(args):
    paths = (args.first, args.second)
    factors = [load_bibundle(path) for path in paths]
    try:
        prod = tensor(*factors)
    except InvalidBibundle as exc:
        path = paths[exc.factor]
        payload = {"input": path, "kind": "bibundle", **exc.report.as_dict()}
        return payload, EXIT_INVALID, f"{path}: bibundle INVALID"
    # The inputs, and the product's action tables that principality
    # builds, are not held while the product is written.
    del factors
    if args.emit:
        save_bibundle(prod, args.emit)
    pr = principality(prod)
    payload = {"carrier_size": len(prod.carrier),
               "left_principal": pr.left_principal,
               "right_principal": pr.right_principal}
    if args.emit:
        payload["witness"] = args.emit
    return payload, EXIT_OK, f"tensor carrier has {len(prod.carrier)} point(s)"


def _morita(args):
    g1 = load_groupoid(args.first)
    g2 = load_groupoid(args.second)
    witness = morita_equivalent(g1, g2)
    if witness is None:
        payload = {"equivalent": False,
                   "obstruction": _morita_obstruction(g1, g2)}
        return payload, EXIT_NOT_EQUIVALENT, "not Morita equivalent"
    payload = {"equivalent": True, "witness_carrier": len(witness.carrier)}
    if args.emit:
        save_bibundle(witness, args.emit)
        payload["witness"] = args.emit
    return payload, EXIT_OK, "Morita equivalent"


def _invalid_tss(paths, graphs):
    """The exit-1 result for the first graph failing ``validate_tss``, or None."""
    for path, g in zip(paths, graphs):
        report = validate_tss(g)
        if not report.ok:
            payload = {"input": path, "kind": "tss", **report.as_dict()}
            return payload, EXIT_INVALID, f"{path}: tss INVALID"
    return None


def _tss_iso(args):
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError(f"--tol must be finite and >= 0, got {args.tol}")
    paths = (args.first, args.second)
    a, b = (load_tss(path) for path in paths)
    invalid = _invalid_tss(paths, (a, b))
    if invalid:
        return invalid
    if args.reversed_:
        b = b.reversed_orientation()
    if args.volume:
        iso = poisson_isomorphic_tss(a, b, args.tol)
    else:
        iso = morita_equivalent_tss(a, b, args.tol)
    if iso is None:
        payload = {"equivalent": False,
                   "obstruction": _tss_obstruction(a, b, args.tol, args.volume)}
        return payload, EXIT_NOT_EQUIVALENT, "not equivalent"
    payload = {"equivalent": True,
               "isomorphism": {
                   "vertices": {a.vertices[v]: b.vertices[iso.vertex_map[v]]
                                for v in range(a.n_vertices)},
                   "edges": list(iso.edge_map)}}
    return payload, EXIT_OK, "equivalent"


def _tss_picard_ingredients(args):
    g = load_tss(args.path)
    invalid = _invalid_tss((args.path,), (g,))
    if invalid:
        return invalid
    ing = picard_ingredients(g)
    payload = {"graph_aut_order": len(ing.graph_aut),
               "graph_aut": ing.graph_aut._doc(),
               "torus_rank": ing.torus_rank,
               "leaf_descriptors": [list(d) for d in ing.leaf_descriptors]}
    return payload, EXIT_OK, (f"|Aut| = {len(ing.graph_aut)}, "
                              f"torus rank {ing.torus_rank}")


def _tss_genus(args):
    g = load_tss(args.path)
    genus = surface_genus(g)
    return ({"euler_characteristic": g.euler_characteristic(),
             "genus": genus}, EXIT_OK, f"genus {genus}")


def _gauge_apply(args):
    pi, _ = load_field(args.bivector)
    b, _ = load_field(args.two_form)
    result = apply_gauge(pi, b, args.eps_sing)
    payload = {"min_abs_det": result.invertibility_report.min_abs_det,
               "max_asymmetry": result.asymmetry_report}
    if args.out:
        save_field(result, args.out, "bivector")
        payload["out"] = args.out
        payload["output_digest"] = sha256_digest(args.out)
    return payload, EXIT_OK, "gauge transform applied"


def _gauge_check(args):
    pi, _ = load_field(args.bivector)
    b, _ = load_field(args.two_form)
    check = invertibility_check(pi, b, args.eps_sing)
    # ranks run from 0 to d; counted slab by slab, never held as a map
    counts = np.zeros(pi.grid.dimension + 1, dtype=np.intp)
    for _, ranks in _rank_slabs(pi):
        counts += np.bincount(ranks.ravel(), minlength=len(counts))
    payload = {"invertibility": check.as_dict(),
               "jacobi_residual": jacobi_residual(pi),
               "closedness_residual": closedness_residual(b),
               "rank_histogram": {str(r): int(c)
                                  for r, c in enumerate(counts.tolist()) if c}}
    code = EXIT_OK if check.ok else EXIT_SINGULAR
    return payload, code, ("fields pass the gauge checks" if check.ok else
                           "endomorphism singular")


def _morita_obstruction(g1, g2) -> str:
    b1, b2 = orbit_partition(g1), orbit_partition(g2)
    if len(b1) != len(b2):
        return f"orbit counts differ ({len(b1)} vs {len(b2)})"
    prof1 = sorted(isotropy(g1, g1.objects[b[0]]).order_profile() for b in b1)
    prof2 = sorted(isotropy(g2, g2.objects[b[0]]).order_profile() for b in b2)
    if prof1 != prof2:
        return "isotropy order profiles differ"
    return "no orbit matching with isomorphic isotropy groups"


def _tss_obstruction(a, b, tol, use_volume) -> str:
    if use_volume and abs(a.volume - b.volume) > tol:
        return f"volumes differ ({a.volume} vs {b.volume})"
    if a.n_vertices != b.n_vertices or a.n_edges != b.n_edges:
        return "vertex or edge counts differ"
    if sorted(a.genus) != sorted(b.genus):
        return "genus multisets differ"
    pa = sorted(p for *_, p in a.edges)
    pb = sorted(p for *_, p in b.edges)
    if not all(abs(x - y) <= tol for x, y in zip(pa, pb)):
        return "period multisets differ"
    return "no label-preserving graph isomorphism"


# ---------------------------------------------------------------------------
# the subcommands: name -> (handler, summary, positionals, options, defaults)

def _command(handler, summary, *positionals, options=(), **defaults):
    return handler, summary, positionals, options, defaults


def _emit_witness(what):
    return ("--emit-witness", {"dest": "emit", "default": None,
                               "help": f"write the {what} bibundle to this path"})


_EPS_SING = ("--eps-sing", {"type": float, "default": 1e-10})

_COMMANDS = {
    "validate": _command(_validate, "validate a groupoid/bibundle/tss/field file",
                         "path"),
    "orbits": _command(_orbits, "orbit partition of a groupoid", "path"),
    "isotropy": _command(_isotropy, "isotropy group at an object", "path",
                         options=[("--object", {"required": True, "dest": "obj"})]),
    "aut": _command(_automorphism_group, "groupoid automorphism group", "path",
                    group=automorphisms, listing="automorphisms", label="Aut"),
    "inaut": _command(_automorphism_group, "inner automorphism group", "path",
                      group=inaut, listing="automorphisms", label="Inaut"),
    "out": _command(_automorphism_group, "outer automorphism group", "path",
                    group=outaut, listing="coset_representatives", label="Outaut"),
    "bisections": _command(_bisections, "group of bisections", "path"),
    "picard": _command(_picard, "Picard group of a groupoid", "path",
                       options=[("--method", {"choices": ["auto", "enumerate", "formula"],
                                              "default": "auto"})]),
    "verify-exact": _command(_verify_exact, "check the exact sequences", "path"),
    "compose": _command(_compose, "tensor product of two bibundles", "first", "second",
                        options=[_emit_witness("composed")]),
    "morita": _command(_morita, "decide Morita equivalence", "first", "second",
                       options=[_emit_witness("witness")]),
    "tss-iso": _command(
        _tss_iso, "compare labeled surface graphs", "first", "second",
        options=[("--tol", {"type": float, "default": 0.0}),
                 ("--volume", {"action": "store_true",
                               "help": "also require the volume invariant to match"}),
                 ("--reversed", {"action": "store_true", "dest": "reversed_",
                                 "help": "compare against the orientation-reversed "
                                         "second graph (not an equivalence invariant)"})]),
    "tss-picard-ingredients": _command(_tss_picard_ingredients,
                                       "Picard-group ingredients of a graph", "path"),
    "tss-genus": _command(_tss_genus, "genus of the encoded surface", "path"),
    "gauge-apply": _command(
        _gauge_apply, "apply a gauge transform", "bivector", "two_form",
        options=[("--out", {"default": None, "help": "write the transformed field here"}),
                 _EPS_SING]),
    "gauge-check": _command(_gauge_check, "invertibility and residual diagnostics",
                            "bivector", "two_form", options=[_EPS_SING]),
}


def _inputs_of(args) -> dict:
    paths = [getattr(args, name) for name in
             ("path", "first", "second", "bivector", "two_form")
             if getattr(args, name, None)]
    return {p: sha256_digest(p) for p in paths}


def _emit(report, code, summary, quiet) -> int:
    """Write the report to stdout and the summary to stderr; return ``code``."""
    try:
        write_json(report, sys.stdout, 2)
        sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (e.g. `| head`).  Point stdout at
        # devnull so the interpreter's final flush cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    if not quiet:
        print(summary, file=sys.stderr)
    return code


def main(argv=None) -> int:
    """Run one command; the cyclic collector is paused while it runs.

    Commands build large acyclic trees (a parsed 384-arrow groupoid is
    about 46k lists), and the collector's passes over them find nothing
    to free.  The caller's collector state is restored on every exit.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        echo = list(argv) if argv is not None else sys.argv[1:]
        report = {"command": echo, "version": __version__, "timing_ms": None}
        try:
            args = _parser_for(echo).parse_args(argv)
        except _UsageError as exc:
            report["error"] = {"type": "UsageError", "message": str(exc)}
            return _emit(report, EXIT_PRECONDITION, f"usage error: {exc}",
                         "--quiet" in echo)
        started = time.monotonic()
        try:
            report["inputs"] = _inputs_of(args)
            result, code, summary = args.handler(args)
            report["result"] = result
        except SingularEndomorphism as exc:
            report["error"] = {"type": type(exc).__name__, "message": str(exc),
                               "worst_point": list(exc.point), "det": exc.det}
            code, summary = EXIT_SINGULAR, f"singular: {exc}"
        except _PRECONDITION_ERRORS as exc:
            report["error"] = {"type": type(exc).__name__, "message": str(exc)}
            code, summary = EXIT_PRECONDITION, f"precondition failed: {exc}"
        if args.timing:
            report["timing_ms"] = int((time.monotonic() - started) * 1000)
        return _emit(report, code, summary, args.quiet)
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
