"""Command line front door.

One verb per module surface, TSV on stdout, errors on stderr.  Exit status:
0 when the requested checks pass, 1 when a check fails, 2 on bad input.
Graphs are catalog names or paths to edge-list files; kernels accept the
shorthands `half`, `random:<k>:<seed>`, `block:<graph file>`, or a path to
a kernel text file.

Each verb handler imports the package modules it reads when it runs, so a
fresh process loads only its own verb's modules: `catalog` and `tritree`
never load numpy.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction

from .graphs import catalog, catalog_names, parse_graph


def _fmt(x, exact: bool) -> str:
    if exact and isinstance(x, (int, Fraction)):
        return str(x)
    return "%.12g" % float(x)


def _load_graph(spec: str):
    try:
        return catalog(spec)
    except KeyError:
        pass
    try:
        with open(spec) as fh:
            return parse_graph(fh.read())
    except OSError:
        raise ValueError(f"no catalog graph or readable graph file named {spec!r}") from None


def _load_graphon(spec: str, exact_required: bool):
    import numpy as np

    from .density import _FLOAT_CAP
    from .graphons import block_graphon, half, parse_graphon, random_graphon

    if spec == "half":
        w = half()
    elif spec.startswith("random:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError("random kernel spec is random:<parts>:<seed>")
        k = int(parts[1])
        if k * k > _FLOAT_CAP:  # no graph with an edge fits: refuse before building
            raise ValueError("random:%d: k^2 entries over the float cap of %d" % (k, _FLOAT_CAP))
        w = random_graphon(k, np.random.default_rng(int(parts[2])))
    elif spec.startswith("block:"):
        with open(spec[len("block:"):]) as fh:
            w = block_graphon(parse_graph(fh.read()))
    else:
        with open(spec) as fh:
            w = parse_graphon(fh.read())
    if exact_required and not w.exact:
        raise ValueError("--exact requires fraction-valued kernel entries")
    return w


# ---------------------------------------------------------------------------
# verb handlers

def _cmd_density(args) -> int:
    from .density import t_hom

    w = _load_graphon(args.graphon, args.exact)
    print(_fmt(t_hom(_load_graph(args.graph), w), args.exact))
    return 0


def _cmd_m(args) -> int:
    from .density import m

    w = _load_graphon(args.graphon, args.exact)
    print(_fmt(m(_load_graph(args.graph), w), args.exact))
    return 0


def _cmd_expand_check(args) -> int:
    from .density import expansion_value, m

    g = _load_graph(args.graph)
    w = _load_graphon(args.graphon, args.exact)
    direct = m(g, w)
    expanded = expansion_value(g, w)
    gap = direct - expanded
    print("m\t%s" % _fmt(direct, args.exact))
    print("expansion\t%s" % _fmt(expanded, args.exact))
    print("gap\t%s" % _fmt(gap, args.exact))
    ok = gap == 0 if args.exact else abs(float(gap)) <= args.tolerance
    return 0 if ok else 1


def _cmd_tritree(args) -> int:
    from .decomposition import find_triangle_decomposition

    rep = find_triangle_decomposition(_load_graph(args.graph))
    if rep is None:
        print("not a triangle-tree")
        return 1
    print("triangle-tree phi=%d kappa=%d" % (rep.phi, rep.kappa))
    return 0


def _cmd_inequalities(args) -> int:
    from .graphons import corner_graphons, random_suite
    from .inequalities import format_reports, standard_battery

    if args.graphon is not None:
        reports = standard_battery(_load_graphon(args.graphon, args.exact), args.tolerance)
        sys.stdout.write(format_reports(reports))
        return 0 if all(r.holds for r in reports) else 1
    if args.exact:
        raise ValueError("--exact needs --graphon: a suite sweeps float kernels")
    kernels = random_suite(args.suite, args.seed) + corner_graphons()
    checked = 0
    bad = []
    for w in kernels:
        for r in standard_battery(w, args.tolerance):
            checked += 1
            if not r.holds:
                bad.append(r)
    for r in bad:
        print(r.tsv_row())
    print("checked\t%d" % checked)
    print("violations\t%d" % len(bad))
    return 0 if not bad else 1


def _cmd_verify_certificate(args) -> int:
    from .certificate import conclude_commonality, load_certificate

    if args.path is None:
        cert = load_certificate()
    else:
        sums = args.sums
        if sums is None:
            sums = os.path.splitext(args.path)[0] + ".sums"
        cert = load_certificate(args.path, sums)
    conclusion = conclude_commonality(cert, count=args.suite, seed=args.seed,
                                      tolerance=args.tolerance)
    print("\n".join(conclusion.lines()))
    return 0 if conclusion.ok else 1


def _cmd_minimize(args) -> int:
    from .graphons import format_graphon
    from .search import MinimizeConfig, minimize_m

    cfg = MinimizeConfig(parts=args.parts, restarts=args.restarts,
                         max_iter=args.max_iter, seed=args.seed,
                         optimize_weights=args.optimize_weights)
    res = minimize_m(_load_graph(args.graph), cfg)
    sys.stdout.write(res.tsv())
    sys.stdout.write(format_graphon(res.graphon))
    return 0


def _cmd_ramsey(args) -> int:
    from .search import estimate_ramsey_constant, exact_ramsey_multiplicity

    g = _load_graph(args.graph)
    count = exact_ramsey_multiplicity(g, args.n)
    print("copies\t%d" % count)
    if args.n >= max(g.n, 1):
        print("normalized\t%s" % _fmt(estimate_ramsey_constant(g, args.n), args.exact))
    else:
        print("normalized\tna")
    print("counting\tinjective vertex maps")
    return 0


def _cmd_catalog(args) -> int:
    for name in catalog_names():
        g = catalog(name)
        print("%s\t%d\t%d" % (name, g.n, g.e))
    return 0


# ---------------------------------------------------------------------------
# parser

def _tolerance(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and at least 0, got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    # each verb takes only the shared flags its handler reads
    exact = argparse.ArgumentParser(add_help=False)
    exact.add_argument("--exact", action="store_true",
                       help="rational arithmetic; needs fraction-valued inputs")
    tolerance = argparse.ArgumentParser(add_help=False)
    tolerance.add_argument("--tolerance", type=_tolerance, default=1e-9)
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=2026)

    parser = argparse.ArgumentParser(
        prog="commonality",
        description="monochromatic density toolkit over step kernels")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("density", parents=[exact], help="homomorphism density t")
    p.add_argument("graph")
    p.add_argument("--graphon", required=True)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("m", parents=[exact], help="monochromatic density t + t-complement")
    p.add_argument("graph")
    p.add_argument("--graphon", required=True)
    p.set_defaults(func=_cmd_m)

    p = sub.add_parser("expand-check", parents=[exact, tolerance],
                       help="m against its even-subset expansion")
    p.add_argument("graph")
    p.add_argument("--graphon", required=True)
    p.set_defaults(func=_cmd_expand_check)

    p = sub.add_parser("tritree", help="triangle-tree recognition")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_tritree)

    p = sub.add_parser("inequalities", parents=[exact, tolerance, seed], help="inequality battery")
    p.add_argument("--graphon", help="single kernel; default is a random suite")
    p.add_argument("--suite", type=int, default=12, help="random kernels to sweep")
    p.set_defaults(func=_cmd_inequalities)

    p = sub.add_parser("verify-certificate", parents=[tolerance, seed],
                       help="exact certificate tables plus numeric spot checks")
    p.add_argument("path", nargs="?", help="table file; packaged tables by default")
    p.add_argument("--sums", help="checksum file; <path>.sums by default")
    p.add_argument("--suite", type=int, default=60)
    p.set_defaults(func=_cmd_verify_certificate)

    p = sub.add_parser("minimize", parents=[seed], help="search for low m kernels")
    p.add_argument("graph")
    p.add_argument("--parts", type=int, default=3)
    p.add_argument("--restarts", type=int, default=16)
    p.add_argument("--max-iter", type=int, default=400)
    p.add_argument("--optimize-weights", action="store_true")
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("ramsey", parents=[exact],
                       help="exact minimum monochromatic copies at n points")
    p.add_argument("graph")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_ramsey)

    p = sub.add_parser("catalog", help="named graphs")
    p.set_defaults(func=_cmd_catalog)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
