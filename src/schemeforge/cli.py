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
from typing import NamedTuple

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


class _Verdict(NamedTuple):
    """What a verb found: its exit code, the JSON text --json prints, the text
    printed without --json, and the canonical JSON --out receives.  A printed
    field left None is the --out value itself, printed when no --out is given."""

    code: int = 0
    json: str | None = None
    text: str | None = None
    out: str | None = None


class _Refused(Exception):
    """A verification refused its input: its Report, the verdict line printed
    after the witnesses, and the key that --json gives the verdict under."""

    def __init__(self, report: Report, line: str, key: str = "valid"):
        super().__init__(line)
        self.report, self.line, self.key = report, line, key

    def verdict(self, cap: int) -> _Verdict:
        violations = self.report.violations
        # a witness tuple is written as a JSON array
        found = [{"axiom": v.axiom, "witness": v.witness} for v in violations]
        lines = [v.text() for v in violations[:cap]] + [self.line]
        return _Verdict(1, io.canonical_json({self.key: False, "violations": found}), "\n".join(lines))


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


def _load(kind: str, token: str):
    """The verified value of a catalog name or file; _Refused with the Report
    of a file that fails verification."""
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
        raise _Refused(result, f"invalid {word}: {len(result.violations)} violation(s) recorded")
    return result


def _emit(verdict: _Verdict, args) -> int:
    """The one place that prints a verdict or writes its --out file."""
    shown = verdict.json if args.json else verdict.text
    if args.out and verdict.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(verdict.out + "\n")
    elif shown is None:
        shown = verdict.out
    if shown is not None:
        print(shown)
    return verdict.code


# ---------------------------------------------------------------------------
# verb handlers: each returns its _Verdict and prints nothing

def _cmd_catalog(args) -> _Verdict:
    listing = {"schemes": catalog.scheme_names(), "hypergroups": catalog.hypergroup_names(),
               "valued_rings": catalog.valued_ring_names()}
    words = {"schemes": "scheme", "hypergroups": "hypergroup", "valued_rings": "valued-ring"}
    text = "\n".join(f"{words[key]}\t{name}" for key, names in listing.items() for name in names)
    return _Verdict(0, io.canonical_json(listing), text)


def _cmd_verify(args) -> _Verdict:
    """verify scheme|hyper TARGET; build FILE is verify scheme with --out."""
    spec = _KINDS[args.kind]
    value = _load(args.kind, args.target)
    size, commutative = getattr(value, spec.size), spec.commutative(value)
    word = "commutative" if commutative else "non-commutative"
    return _Verdict(0, io.canonical_json({"valid": True, spec.size: size, "commutative": commutative}),
                    f"valid, {spec.size}={size}, {word}", spec.dump(value) if args.out else None)


def _format_cell(cell) -> str:
    return "{" + ",".join(str(x) for x in sorted(cell)) + "}"


def _cmd_hyper(args) -> _Verdict:
    h = to_hypergroup(_load("scheme", args.target))
    lines = [f"m={h.m} e={h.e} inv={list(h.inv)}"]
    lines += [f"{p}*{q}={_format_cell(h.table[p][q])}" for p in range(h.m) for q in range(h.m)]
    return _Verdict(text="\n".join(lines), out=io.dump_hypergroup(h))


def _cmd_mult(args) -> _Verdict:
    scheme = _load("scheme", args.target)
    result = complex_mult(scheme, _parse_class_set(args.p), _parse_class_set(args.q))
    return _Verdict(0, io.canonical_json(sorted(result)), _format_cell(result))


def _cmd_sub(args) -> _Verdict:
    subsets = _KINDS[args.kind].sub(_load(args.kind, args.target))
    return _Verdict(0, io.canonical_json([sorted(t) for t in subsets]), "\n".join(map(_format_cell, subsets)))


def _cmd_quotient(args) -> _Verdict:
    by = _parse_class_set(args.by)
    spec = _KINDS[args.kind]
    return _Verdict(out=spec.dump(spec.quotient(_load(args.kind, args.target), by)))


def _cmd_product(args) -> _Verdict:
    spec = _KINDS[args.kind]
    a, b = _load(args.kind, args.a), _load(args.kind, args.b)
    return _Verdict(out=spec.dump(spec.product(a, b)))


def _cmd_restrict(args) -> _Verdict:
    scheme = _load("scheme", args.target)
    return _Verdict(out=io.dump_scheme(restrict_scheme(scheme, _parse_class_set(args.set), args.point)))


def _cmd_search(args) -> _Verdict:
    h = _load("hyper", args.target)
    stream = sys.stderr if args.json else sys.stdout
    found = search_realization(h, args.nmax, progress=lambda line: print(line, file=stream))
    if found is None:
        return _Verdict(1, io.canonical_json({"found": False, "n_max": args.nmax}),
                        f"no realization on ≤ {args.nmax} points")
    text = io.dump_scheme(found)
    return _Verdict(0, io.canonical_json({"found": True, "n": found.n, "scheme": json.loads(text)}),
                    f"found on n={found.n} points\n{text}", text)


def _cmd_geometry(args) -> _Verdict:
    h = _load("hyper", args.target)
    try:
        geom = geometry_from_hypergroup(h)
    except VerificationError as exc:
        raise _Refused(Report(exc.violations), exc.what) from None
    summary = f"points={geom.n_points} lines={len(geom.lines)} degenerate={str(geom.degenerate).lower()}"
    return _Verdict(text=summary, out=io.dump_geometry(geom))


def _cmd_triangle(args) -> _Verdict:
    if args.name not in catalog.valued_ring_names():
        raise _UsageError(
            f"unknown valued ring {args.name!r}; choices: {', '.join(catalog.valued_ring_names())}"
        )
    report = check_triangle_condition(catalog.catalog_valued_ring(args.name))
    if not report.ok:
        raise _Refused(report, "triangle condition fails", key="ok")
    return _Verdict(0, io.canonical_json({"ok": True, "violations": []}), "triangle condition holds")


def _cmd_export(args) -> _Verdict:
    # a scheme name is exported as the scheme, not as its class hypergroup
    spec = next((k for k in _KINDS.values() if args.name in k.names()), None)
    if spec is None:
        raise _UsageError(f"unknown catalog entry {args.name!r}")
    return _Verdict(out=spec.dump(spec.get(args.name)))


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--witnesses", type=int, default=5,
                        help="maximum violations printed (default 5)")

    parser = argparse.ArgumentParser(prog="schemeforge", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name: str, handler, about: str, *positionals: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common], help=about)
        p.set_defaults(handler=handler, out=None)
        for arg in positionals:
            p.add_argument(arg, choices=list(_KINDS) if arg == "kind" else None)
        return p

    verb("catalog", _cmd_catalog, "list built-in named instances")

    p = verb("build", _cmd_verify, "verify a scheme file")
    p.add_argument("target", metavar="file")
    p.add_argument("--out", help="write the canonical scheme JSON here")
    p.set_defaults(kind="scheme")

    verb("verify", _cmd_verify, "verify a scheme or hypergroup", "kind", "target")
    verb("hyper", _cmd_hyper, "class hypergroup of a scheme", "target").add_argument("--out")
    verb("mult", _cmd_mult, "complex product of class sets", "target", "p", "q")
    verb("sub", _cmd_sub, "closed subsets / sub-hypergroups", "kind", "target")

    p = verb("quotient", _cmd_quotient, "quotient by a normal subset", "kind", "target")
    p.add_argument("--by", required=True, help="comma-separated class/element indices")
    p.add_argument("--out")

    verb("product", _cmd_product, "direct product", "kind", "a", "b").add_argument("--out")

    p = verb("restrict", _cmd_restrict, "restrict to a closed subset", "target")
    p.add_argument("--set", required=True, help="comma-separated closed class set")
    p.add_argument("--point", type=int, required=True)
    p.add_argument("--out")

    p = verb("search", _cmd_search, "search for a realizing scheme", "target")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--out")

    verb("geometry", _cmd_geometry, "geometry of a vector-space hypergroup", "target").add_argument("--out")
    verb("triangle", _cmd_triangle, "triangle condition of a valued ring", "name")
    verb("export", _cmd_export, "canonical JSON of a catalog entry", "name").add_argument("--out")
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
        try:
            verdict = args.handler(args)
        except _Refused as refused:
            verdict = refused.verdict(args.witnesses)
        return _emit(verdict, args)
    except (_UsageError, ValueError, OSError) as exc:  # a SchemeForgeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
