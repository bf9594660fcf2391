"""Command-line front end.

Exit codes: 0 for success or a true verification, 1 for a verification failure
(violations are printed, capped by --witnesses), 2 for usage errors such as
unknown names, missing files, malformed JSON, or exceeded size bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import catalog, io
from .constructions import check_triangle_condition, geometry_from_hypergroup
from .errors import Report, VerificationError
from .hypergroup import Hypergroup, product_hypergroup, quotient_hypergroup, sub_hypergroups
from .realize import search_realization, to_hypergroup
from .scheme import (
    AssociationScheme,
    closed_subsets,
    complex_mult,
    is_commutative,
    product_scheme,
    quotient_scheme,
    restrict_scheme,
)


class _UsageError(Exception):
    pass


def thread_cap() -> int:
    """SCHEME_FORGE_THREADS caps internal parallelism; 0 means sequential.

    Evaluation in this implementation is always sequential, which respects any
    cap; the variable is still validated so misconfigurations surface early.
    """
    raw = os.environ.get("SCHEME_FORGE_THREADS", "0")
    try:
        return max(0, int(raw))
    except ValueError:
        raise _UsageError(f"SCHEME_FORGE_THREADS must be an integer, got {raw!r}") from None


def _witness_json(w) -> object:
    if isinstance(w, tuple):
        return [_witness_json(x) for x in w]
    return w


def _violations_json(violations) -> list[dict]:
    return [{"axiom": v.axiom, "witness": _witness_json(v.witness)} for v in violations]


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc


def _parse_class_set(spec: str) -> list[int]:
    try:
        return [int(tok) for tok in spec.split(",") if tok != ""]
    except ValueError:
        raise _UsageError(f"expected a comma-separated index list, got {spec!r}") from None


def _load_scheme(token: str):
    if token in catalog.scheme_names():
        return catalog.catalog_scheme(token)
    if os.path.exists(token):
        try:
            return io.load_scheme(_read_file(token))
        except (ValueError, TypeError) as exc:  # a JSONDecodeError is a ValueError
            raise _UsageError(f"malformed scheme file {token}: {exc}") from exc
    raise _UsageError(f"unknown scheme {token!r}: not a catalog name or file")


def _load_hypergroup(token: str):
    if token in catalog.hypergroup_names() or token in catalog.scheme_names():
        return catalog.catalog_hypergroup(token)
    if os.path.exists(token):
        text = _read_file(token)
        try:
            obj = json.loads(text)
            if isinstance(obj, dict) and "rel" in obj:
                scheme = io.load_scheme(text)
                return scheme if isinstance(scheme, Report) else to_hypergroup(scheme)
            return io.load_hypergroup(text)
        except (ValueError, TypeError) as exc:
            raise _UsageError(f"malformed hypergroup file {token}: {exc}") from exc
    raise _UsageError(f"unknown hypergroup {token!r}: not a catalog name or file")


def _emit_report(report: Report, args, verdict: str, key: str = "valid") -> None:
    """Print a verdict: JSON {key: ok, violations}, or the capped witnesses and a last line."""
    if args.json:
        print(io.canonical_json({key: report.ok, "violations": _violations_json(report.violations)}))
        return
    for v in report.violations[:args.witnesses]:
        print(v.text())
    print(verdict)


def _require(result, args, kind: str):
    """A loaded value, or exit 1 after reporting why it failed verification."""
    if isinstance(result, Report):
        _emit_report(result, args, f"invalid {kind}: {len(result.violations)} violation(s) recorded")
        raise SystemExit(1)
    return result


def _require_scheme(token: str, args) -> AssociationScheme:
    return _require(_load_scheme(token), args, "scheme")


def _require_hypergroup(token: str, args) -> Hypergroup:
    return _require(_load_hypergroup(token), args, "hypergroup")


def _write_out(text: str, args) -> bool:
    """Write text to --out when the verb has one and it is given."""
    if not getattr(args, "out", None):
        return False
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return True


def _write_or_print(text: str, args) -> None:
    if not _write_out(text, args):
        print(text)


# ---------------------------------------------------------------------------
# verb handlers

def _cmd_catalog(args) -> int:
    if args.json:
        print(io.canonical_json({
            "schemes": catalog.scheme_names(),
            "hypergroups": catalog.hypergroup_names(),
            "valued_rings": catalog.valued_ring_names(),
        }))
        return 0
    for name in catalog.scheme_names():
        print(f"scheme\t{name}")
    for name in catalog.hypergroup_names():
        print(f"hypergroup\t{name}")
    for name in catalog.valued_ring_names():
        print(f"valued-ring\t{name}")
    return 0


def _cmd_verify(args) -> int:
    """verify scheme|hyper TARGET; build FILE is verify scheme with --out."""
    if args.kind == "scheme":
        result = _require_scheme(args.target, args)
        label, size, commutative = "s", result.s, is_commutative(result)
    else:
        result = _require_hypergroup(args.target, args)
        label, size, commutative = "m", result.m, result.is_commutative()
    if args.json:
        print(io.canonical_json({"valid": True, label: size, "commutative": commutative}))
    else:
        word = "commutative" if commutative else "non-commutative"
        print(f"valid, {label}={size}, {word}")
    if args.kind == "scheme":
        _write_out(io.dump_scheme(result), args)
    return 0


def _format_cell(cell) -> str:
    return "{" + ",".join(str(x) for x in sorted(cell)) + "}"


def _cmd_hyper(args) -> int:
    scheme = _require_scheme(args.target, args)
    h = to_hypergroup(scheme)
    if args.json:
        _write_or_print(io.dump_hypergroup(h), args)
        return 0
    _write_out(io.dump_hypergroup(h), args)
    print(f"m={h.m} e={h.e} inv={list(h.inv)}")
    for p in range(h.m):
        for q in range(h.m):
            print(f"{p}*{q}={_format_cell(h.table[p][q])}")
    return 0


def _cmd_mult(args) -> int:
    scheme = _require_scheme(args.target, args)
    result = complex_mult(scheme, _parse_class_set(args.p), _parse_class_set(args.q))
    if args.json:
        print(io.canonical_json(sorted(result)))
    else:
        print(_format_cell(result))
    return 0


def _cmd_sub(args) -> int:
    if args.kind == "scheme":
        subsets = closed_subsets(_require_scheme(args.target, args))
    else:
        subsets = sub_hypergroups(_require_hypergroup(args.target, args))
    if args.json:
        print(io.canonical_json([sorted(t) for t in subsets]))
    else:
        for t in subsets:
            print(_format_cell(t))
    return 0


def _cmd_quotient(args) -> int:
    by = _parse_class_set(args.by)
    if args.kind == "scheme":
        result = quotient_scheme(_require_scheme(args.target, args), by)
        _write_or_print(io.dump_scheme(result), args)
    else:
        result = quotient_hypergroup(_require_hypergroup(args.target, args), by)
        _write_or_print(io.dump_hypergroup(result), args)
    return 0


def _cmd_product(args) -> int:
    if args.kind == "scheme":
        result = product_scheme(_require_scheme(args.a, args), _require_scheme(args.b, args))
        _write_or_print(io.dump_scheme(result), args)
    else:
        result = product_hypergroup(
            _require_hypergroup(args.a, args), _require_hypergroup(args.b, args)
        )
        _write_or_print(io.dump_hypergroup(result), args)
    return 0


def _cmd_restrict(args) -> int:
    scheme = _require_scheme(args.target, args)
    result = restrict_scheme(scheme, _parse_class_set(args.set), args.point)
    _write_or_print(io.dump_scheme(result), args)
    return 0


def _cmd_search(args) -> int:
    h = _require_hypergroup(args.target, args)
    stream = sys.stderr if args.json else sys.stdout
    found = search_realization(h, args.nmax, progress=lambda line: print(line, file=stream))
    if found is None:
        if args.json:
            print(io.canonical_json({"found": False, "n_max": args.nmax}))
        else:
            print(f"no realization on ≤ {args.nmax} points")
        return 1
    if args.json:
        print(io.canonical_json(
            {"found": True, "n": found.n, "scheme": json.loads(io.dump_scheme(found))}
        ))
    else:
        print(f"found on n={found.n} points")
        print(io.dump_scheme(found))
    _write_out(io.dump_scheme(found), args)
    return 0


def _cmd_geometry(args) -> int:
    h = _require_hypergroup(args.target, args)
    try:
        geom = geometry_from_hypergroup(h)
    except VerificationError as exc:
        _emit_report(Report(exc.violations), args, "geometry axioms fail")
        return 1
    if args.json:
        _write_or_print(io.dump_geometry(geom), args)
        return 0
    _write_out(io.dump_geometry(geom), args)
    print(f"points={geom.n_points} lines={len(geom.lines)} degenerate={str(geom.degenerate).lower()}")
    return 0


def _cmd_triangle(args) -> int:
    if args.name not in catalog.valued_ring_names():
        raise _UsageError(
            f"unknown valued ring {args.name!r}; choices: {', '.join(catalog.valued_ring_names())}"
        )
    report = check_triangle_condition(catalog.catalog_valued_ring(args.name))
    verdict = "triangle condition holds" if report.ok else "triangle condition fails"
    _emit_report(report, args, verdict, key="ok")
    return 0 if report.ok else 1


def _cmd_export(args) -> int:
    if args.name in catalog.scheme_names():
        text = io.dump_scheme(catalog.catalog_scheme(args.name))
    elif args.name in catalog.hypergroup_names():
        text = io.dump_hypergroup(catalog.catalog_hypergroup(args.name))
    else:
        raise _UsageError(f"unknown catalog entry {args.name!r}")
    _write_or_print(text, args)
    return 0


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--witnesses", type=int, default=5,
                        help="maximum violations printed (default 5)")

    parser = argparse.ArgumentParser(prog="schemeforge", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    sub.add_parser("catalog", parents=[common], help="list built-in named instances")

    p = sub.add_parser("build", parents=[common], help="verify a scheme file")
    p.add_argument("target", metavar="file")
    p.add_argument("--out", help="write the canonical scheme JSON here")
    p.set_defaults(kind="scheme")

    p = sub.add_parser("verify", parents=[common], help="verify a scheme or hypergroup")
    p.add_argument("kind", choices=["scheme", "hyper"])
    p.add_argument("target")

    p = sub.add_parser("hyper", parents=[common], help="class hypergroup of a scheme")
    p.add_argument("target")
    p.add_argument("--out")

    p = sub.add_parser("mult", parents=[common], help="complex product of class sets")
    p.add_argument("target")
    p.add_argument("p")
    p.add_argument("q")

    p = sub.add_parser("sub", parents=[common], help="closed subsets / sub-hypergroups")
    p.add_argument("kind", choices=["scheme", "hyper"])
    p.add_argument("target")

    p = sub.add_parser("quotient", parents=[common], help="quotient by a normal subset")
    p.add_argument("kind", choices=["scheme", "hyper"])
    p.add_argument("target")
    p.add_argument("--by", required=True, help="comma-separated class/element indices")
    p.add_argument("--out")

    p = sub.add_parser("product", parents=[common], help="direct product")
    p.add_argument("kind", choices=["scheme", "hyper"])
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--out")

    p = sub.add_parser("restrict", parents=[common], help="restrict to a closed subset")
    p.add_argument("target")
    p.add_argument("--set", required=True, help="comma-separated closed class set")
    p.add_argument("--point", type=int, required=True)
    p.add_argument("--out")

    p = sub.add_parser("search", parents=[common], help="search for a realizing scheme")
    p.add_argument("target")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--out")

    p = sub.add_parser("geometry", parents=[common], help="geometry of a vector-space hypergroup")
    p.add_argument("target")
    p.add_argument("--out")

    p = sub.add_parser("triangle", parents=[common], help="triangle condition of a valued ring")
    p.add_argument("name")

    p = sub.add_parser("export", parents=[common], help="canonical JSON of a catalog entry")
    p.add_argument("name")
    p.add_argument("--out")
    return parser


_HANDLERS = {
    "catalog": _cmd_catalog,
    "build": _cmd_verify,
    "verify": _cmd_verify,
    "hyper": _cmd_hyper,
    "mult": _cmd_mult,
    "sub": _cmd_sub,
    "quotient": _cmd_quotient,
    "product": _cmd_product,
    "restrict": _cmd_restrict,
    "search": _cmd_search,
    "geometry": _cmd_geometry,
    "triangle": _cmd_triangle,
    "export": _cmd_export,
}


def run(argv: list[str]) -> int:
    """Parse and execute one command; returns the process exit code."""
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        thread_cap()
        return _HANDLERS[args.verb](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (_UsageError, ValueError, OSError) as exc:  # a SchemeForgeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
