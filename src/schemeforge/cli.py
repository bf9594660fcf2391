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
from types import SimpleNamespace

from . import catalog, io
from .constructions import check_triangle_condition, geometry_from_hypergroup
from .errors import Report, VerificationError
from .hypergroup import Hypergroup, product_hypergroup, quotient_hypergroup, sub_hypergroups
from .realize import search_realization, to_hypergroup
from .scheme import (
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


def _parse_class_set(spec: str) -> list[int]:
    try:
        return [int(tok) for tok in spec.split(",") if tok != ""]
    except ValueError:
        raise _UsageError(f"expected a comma-separated index list, got {spec!r}") from None


def _read_hypergroup(obj):
    """(word, value or Report) of a hypergroup file, or of a scheme file read
    as its class hypergroup, from its parsed JSON."""
    if isinstance(obj, dict) and "rel" in obj:
        scheme = io._scheme_from(obj)
        return "scheme", scheme if isinstance(scheme, Report) else to_hypergroup(scheme)
    return "hypergroup", io._hypergroup_from(obj)


# Each kind of object: the word for messages, the catalog names and getter, the
# parser of a file's JSON, which returns the word for what the file held and its
# value or Report, the dumper, the attribute that counts classes or elements,
# and the operations of the verbs.
_KINDS = {
    "scheme": SimpleNamespace(
        word="scheme", names=catalog.scheme_names, get=catalog.catalog_scheme,
        parse=lambda obj: ("scheme", io._scheme_from(obj)), dump=io.dump_scheme,
        size="s", commutative=is_commutative,
        sub=closed_subsets, quotient=quotient_scheme, product=product_scheme,
    ),
    # a scheme name or file stands for its class hypergroup
    "hyper": SimpleNamespace(
        word="hypergroup", names=lambda: catalog.hypergroup_names() + catalog.scheme_names(),
        get=catalog.catalog_hypergroup, parse=_read_hypergroup, dump=io.dump_hypergroup,
        size="m", commutative=Hypergroup.is_commutative,
        sub=sub_hypergroups, quotient=quotient_hypergroup, product=product_hypergroup,
    ),
}


def _load(kind: str, token: str, args):
    """The verified value of a catalog name or file, or exit 1 after reporting
    why the file fails verification."""
    spec = _KINDS[kind]
    if token in spec.names():
        return spec.get(token)
    if not os.path.exists(token):
        raise _UsageError(f"unknown {spec.word} {token!r}: not a catalog name or file")
    try:
        with open(token, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {token}: {exc}") from exc
    try:
        word, result = spec.parse(json.loads(text))
    except (ValueError, TypeError) as exc:  # a JSONDecodeError is a ValueError
        raise _UsageError(f"malformed {spec.word} file {token}: {exc}") from exc
    if isinstance(result, Report):
        _emit_report(result, args, f"invalid {word}: {len(result.violations)} violation(s) recorded")
        raise SystemExit(1)
    return result


def _emit_report(report: Report, args, verdict: str, key: str = "valid") -> None:
    """Print a verdict: JSON {key: ok, violations}, or the capped witnesses and a last line."""
    if args.json:
        # a witness tuple is written as a JSON array
        violations = [{"axiom": v.axiom, "witness": v.witness} for v in report.violations]
        print(io.canonical_json({key: report.ok, "violations": violations}))
        return
    for v in report.violations[:args.witnesses]:
        print(v.text())
    print(verdict)


def _write_out(text: str, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _emit_value(text: str, args, summary: str | None = None) -> None:
    """Write the JSON text to --out if given.  Print the summary, or the text
    with --json or when there is no summary, unless it went to --out."""
    if args.out:
        _write_out(text, args.out)
    if summary is not None and not args.json:
        print(summary)
    elif not args.out:
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
    spec = _KINDS[args.kind]
    value = _load(args.kind, args.target, args)
    size, commutative = getattr(value, spec.size), spec.commutative(value)
    if args.json:
        print(io.canonical_json({"valid": True, spec.size: size, "commutative": commutative}))
    else:
        word = "commutative" if commutative else "non-commutative"
        print(f"valid, {spec.size}={size}, {word}")
    if getattr(args, "out", None):
        _write_out(spec.dump(value), args.out)
    return 0


def _format_cell(cell) -> str:
    return "{" + ",".join(str(x) for x in sorted(cell)) + "}"


def _cmd_hyper(args) -> int:
    h = to_hypergroup(_load("scheme", args.target, args))
    lines = [f"m={h.m} e={h.e} inv={list(h.inv)}"]
    lines += [f"{p}*{q}={_format_cell(h.table[p][q])}" for p in range(h.m) for q in range(h.m)]
    _emit_value(io.dump_hypergroup(h), args, "\n".join(lines))
    return 0


def _cmd_mult(args) -> int:
    scheme = _load("scheme", args.target, args)
    result = complex_mult(scheme, _parse_class_set(args.p), _parse_class_set(args.q))
    if args.json:
        print(io.canonical_json(sorted(result)))
    else:
        print(_format_cell(result))
    return 0


def _cmd_sub(args) -> int:
    subsets = _KINDS[args.kind].sub(_load(args.kind, args.target, args))
    if args.json:
        print(io.canonical_json([sorted(t) for t in subsets]))
    else:
        for t in subsets:
            print(_format_cell(t))
    return 0


def _cmd_quotient(args) -> int:
    by = _parse_class_set(args.by)
    spec = _KINDS[args.kind]
    _emit_value(spec.dump(spec.quotient(_load(args.kind, args.target, args), by)), args)
    return 0


def _cmd_product(args) -> int:
    spec = _KINDS[args.kind]
    a, b = _load(args.kind, args.a, args), _load(args.kind, args.b, args)
    _emit_value(spec.dump(spec.product(a, b)), args)
    return 0


def _cmd_restrict(args) -> int:
    scheme = _load("scheme", args.target, args)
    result = restrict_scheme(scheme, _parse_class_set(args.set), args.point)
    _emit_value(io.dump_scheme(result), args)
    return 0


def _cmd_search(args) -> int:
    h = _load("hyper", args.target, args)
    stream = sys.stderr if args.json else sys.stdout
    found = search_realization(h, args.nmax, progress=lambda line: print(line, file=stream))
    if found is None:
        if args.json:
            print(io.canonical_json({"found": False, "n_max": args.nmax}))
        else:
            print(f"no realization on ≤ {args.nmax} points")
        return 1
    text = io.dump_scheme(found)
    if args.json:
        print(io.canonical_json({"found": True, "n": found.n, "scheme": json.loads(text)}))
    else:
        print(f"found on n={found.n} points")
        print(text)
    if args.out:
        _write_out(text, args.out)
    return 0


def _cmd_geometry(args) -> int:
    h = _load("hyper", args.target, args)
    try:
        geom = geometry_from_hypergroup(h)
    except VerificationError as exc:
        _emit_report(Report(exc.violations), args, exc.what)
        return 1
    summary = f"points={geom.n_points} lines={len(geom.lines)} degenerate={str(geom.degenerate).lower()}"
    _emit_value(io.dump_geometry(geom), args, summary)
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
    # a scheme name is exported as the scheme, not as its class hypergroup
    spec = next((k for k in _KINDS.values() if args.name in k.names()), None)
    if spec is None:
        raise _UsageError(f"unknown catalog entry {args.name!r}")
    _emit_value(spec.dump(spec.get(args.name)), args)
    return 0


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--witnesses", type=int, default=5,
                        help="maximum violations printed (default 5)")

    parser = argparse.ArgumentParser(prog="schemeforge", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name: str, handler, about: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common], help=about)
        p.set_defaults(handler=handler)
        return p

    verb("catalog", _cmd_catalog, "list built-in named instances")

    p = verb("build", _cmd_verify, "verify a scheme file")
    p.add_argument("target", metavar="file")
    p.add_argument("--out", help="write the canonical scheme JSON here")
    p.set_defaults(kind="scheme")

    p = verb("verify", _cmd_verify, "verify a scheme or hypergroup")
    p.add_argument("kind", choices=list(_KINDS))
    p.add_argument("target")

    p = verb("hyper", _cmd_hyper, "class hypergroup of a scheme")
    p.add_argument("target")
    p.add_argument("--out")

    p = verb("mult", _cmd_mult, "complex product of class sets")
    p.add_argument("target")
    p.add_argument("p")
    p.add_argument("q")

    p = verb("sub", _cmd_sub, "closed subsets / sub-hypergroups")
    p.add_argument("kind", choices=list(_KINDS))
    p.add_argument("target")

    p = verb("quotient", _cmd_quotient, "quotient by a normal subset")
    p.add_argument("kind", choices=list(_KINDS))
    p.add_argument("target")
    p.add_argument("--by", required=True, help="comma-separated class/element indices")
    p.add_argument("--out")

    p = verb("product", _cmd_product, "direct product")
    p.add_argument("kind", choices=list(_KINDS))
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--out")

    p = verb("restrict", _cmd_restrict, "restrict to a closed subset")
    p.add_argument("target")
    p.add_argument("--set", required=True, help="comma-separated closed class set")
    p.add_argument("--point", type=int, required=True)
    p.add_argument("--out")

    p = verb("search", _cmd_search, "search for a realizing scheme")
    p.add_argument("target")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--out")

    p = verb("geometry", _cmd_geometry, "geometry of a vector-space hypergroup")
    p.add_argument("target")
    p.add_argument("--out")

    p = verb("triangle", _cmd_triangle, "triangle condition of a valued ring")
    p.add_argument("name")

    p = verb("export", _cmd_export, "canonical JSON of a catalog entry")
    p.add_argument("name")
    p.add_argument("--out")
    return parser


def run(argv: list[str]) -> int:
    """Parse and execute one command; returns the process exit code."""
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        if args.witnesses < 0:
            raise _UsageError(f"--witnesses needs N >= 0, got {args.witnesses}")
        thread_cap()
        return args.handler(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (_UsageError, ValueError, OSError) as exc:  # a SchemeForgeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
