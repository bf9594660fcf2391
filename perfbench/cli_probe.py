"""Run one schemeforge command as `python -m schemeforge` would, timing its stages.

Usage: python cli_probe.py TIMINGS.json ARGS...

The traced cli workload runs each job through this wrapper.  It times the
import of ``schemeforge.cli``, the cold catalog build of every scheme the
command names, and ``cli.run(ARGS)``, which then finds those schemes cached,
and writes the three to TIMINGS.json.  Stdout and the exit code are the
command's own.
"""

import json
import sys
from time import perf_counter

# commands whose name arguments are not catalog schemes to load
_NO_SCHEME_ARGS = {"catalog", "triangle", "build"}


def main() -> None:
    timings, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    from schemeforge import catalog, cli
    t1 = perf_counter()
    catalog_ms = []
    if argv[0] not in _NO_SCHEME_ARGS:
        for token in argv[1:]:
            if token in catalog.scheme_names():
                t = perf_counter()
                catalog.catalog_scheme(token)
                catalog_ms.append(1000 * (perf_counter() - t))
    t2 = perf_counter()
    rc = cli.run(argv)
    t3 = perf_counter()
    sys.stdout.flush()
    with open(timings, "w", encoding="utf-8") as fh:
        json.dump({"import_ms": 1000 * (t1 - t0), "catalog_ms": catalog_ms,
                   "run_ms": 1000 * (t3 - t2)}, fh)
    sys.exit(rc)


if __name__ == "__main__":
    main()
