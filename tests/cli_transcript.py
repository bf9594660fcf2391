"""The golden CLI transcript: a table of commands with their exit code, stdout,
stderr and the bytes they wrote to --out.

Every command runs in process through ``cli.run`` in a working directory that
holds the input files of ``FILES``; a command that takes --out writes
``out.json`` there.  ``test_io_cli`` replays the table and requires every
field byte for byte.  The usage and --help rows are argparse's text, whose
wording can differ between Python versions.  After a deliberate change of
CLI output, record the table again and review the diff of the JSON file:

    PYTHONPATH=src python tests/cli_transcript.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

from schemeforge.cli import run

TRANSCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_transcript.json")
OUT = "out.json"

FILES = {
    "f3.json": '{"n":3,"rel":[[0,1,1],[1,0,1],[1,1,0]]}',
    "z4.json": '{"n":4,"rel":[[0,3,2,1],[1,0,3,2],[2,1,0,3],[3,2,1,0]]}',
    "sign.json": '{"e":0,"inv":[0,2,1],"m":3,"table":[[[0],[1],[2]],[[1],[1],[0,1,2]],[[2],[0,1,2],[2]]]}',
    # 2*2 = {0} breaks associativity and reversibility; inv(1) = 1 is no inverse
    "badhyper.json": '{"e":0,"inv":[0,1,2],"m":3,"table":[[[0],[1],[2]],[[1],[1],[0,1,2]],[[2],[0,1,2],[0]]]}',
    "bad.json": '{"n":2,"rel":[[0,1],[1,1]]}',
    "bad3.json": '{"n":3,"rel":[[0,1,1],[2,0,1],[1,2,0]]}',
    "garbled.json": "{oops",
    "typed.json": '{"m":1,"e":0,"inv":[0],"table":5}',
    "nulln.json": '{"n":null,"rel":[[0]]}',
    # numbers that are no integer input: none is converted
    "floatrel.json": '{"n":2,"rel":[[0,1.0],[1.0,0]]}',
    "truerel.json": '{"n":2,"rel":[[0,true],[true,0]]}',
    "strn.json": '{"n":"2","rel":[[0,1],[1,0]]}',
    "floatn.json": '{"n":2.7,"rel":[[0,1],[1,0]]}',
    "floatcell.json": '{"e":0,"inv":[0,1],"m":2,"table":[[[0],[1.0]],[[1],[0]]]}',
    "boolinv.json": '{"e":0,"inv":[0,true],"m":2,"table":[[[0],[1]],[[1],[0]]]}',
}

VERBS = ["catalog", "build", "verify", "hyper", "mult", "sub", "quotient", "product",
         "restrict", "search", "geometry", "triangle", "export"]

COMMANDS = [
    ["catalog"],
    ["catalog", "--json"],
    ["verify", "scheme", "fano-flags"],
    ["verify", "scheme", "Z3", "--json"],
    ["verify", "scheme", "bad3.json", "--witnesses", "1"],
    ["verify", "hyper", "K"],
    ["verify", "hyper", "S3-inn", "--json"],
    ["verify", "hyper", "f3.json"],
    ["verify", "hyper", "sign.json", "--json"],
    ["verify", "hyper", "bad.json"],
    ["verify", "hyper", "bad.json", "--json"],
    ["verify", "hyper", "badhyper.json"],
    ["verify", "hyper", "badhyper.json", "--json", "--witnesses", "0"],
    ["build", "bad.json"],
    ["build", "bad3.json", "--json"],
    ["build", "bad3.json", "--witnesses", "0"],
    ["build", "bad.json", "--witnesses", "-1"],
    ["build", "z4.json", "--out", OUT],
    ["build", "f3.json", "--json", "--out", OUT],
    ["hyper", "hamming-2"],
    ["hyper", "S3", "--json"],
    ["hyper", "fano-flags", "--out", OUT],
    ["hyper", "Z4", "--json", "--out", OUT],
    ["hyper", "K"],
    ["mult", "hamming-2", "1", "1"],
    ["mult", "fano-flags", "1,2", "3", "--json"],
    ["mult", "Z4", "1,x", "1"],
    ["sub", "scheme", "Z4"],
    ["sub", "scheme", "f3.json", "--json"],
    ["sub", "hyper", "S", "--json"],
    ["sub", "hyper", "A4"],
    ["quotient", "scheme", "Z4", "--by", "0,2"],
    ["quotient", "scheme", "Z4", "--by", "0,1"],
    ["quotient", "hyper", "S3-inn", "--by", "0,2", "--out", OUT],
    ["quotient", "hyper", "z4.json", "--by", "0,2", "--json"],
    ["product", "scheme", "Z2", "Z3"],
    ["product", "scheme", "z4.json", "Z2", "--json", "--out", OUT],
    ["product", "hyper", "K", "S", "--out", OUT],
    ["product", "hyper", "K", "bad.json"],
    ["restrict", "Z4", "--set", "0,2", "--point", "0"],
    ["restrict", "Z4", "--set", "0,1", "--point", "0", "--out", OUT],
    ["search", "K", "--nmax", "3"],
    ["search", "S", "--nmax", "4", "--json"],
    ["search", "f3.json", "--nmax", "3", "--out", OUT],
    ["search", "bad.json", "--nmax", "3"],
    ["search", "K", "--nmax", "9"],
    ["geometry", "F16/F4", "--json"],
    ["geometry", "F64/F4", "--out", OUT],
    ["geometry", "S"],
    ["geometry", "bad.json"],
    ["geometry", "bad.json", "--json"],
    ["triangle", "Z9-3adic"],
    ["triangle", "Z8-2adic", "--witnesses", "2"],
    ["triangle", "Z8-2adic", "--json"],
    ["triangle", "no-such-ring"],
    ["export", "S3-inn"],
    ["export", "K", "--out", OUT],
    ["export", "no-such-entry"],
    ["frobnicate"],
    ["verify"],
    ["verify", "scheme", "no-such-name"],
    ["verify", "hyper", "no-such-name"],
    ["build", "missing.json"],
    ["build", "garbled.json"],
    ["verify", "hyper", "typed.json"],
    ["verify", "hyper", "nulln.json"],
    ["verify", "scheme", "nulln.json"],
    ["verify", "scheme", "floatrel.json"],
    ["verify", "scheme", "truerel.json"],
    ["verify", "scheme", "strn.json"],
    ["verify", "scheme", "floatn.json"],
    ["verify", "hyper", "floatcell.json"],
    ["verify", "hyper", "boolinv.json"],
    ["verify", "scheme", "sign.json"],
    ["build", "f3.json", "--witnesses", "x"],
    ["--help"],
] + [[verb, "--help"] for verb in VERBS]

# each command runs with these variables set, and SCHEME_FORGE_THREADS unset
# unless the row names it
ENV = {"COLUMNS": "80"}
THREAD_ROWS = [
    (["verify", "scheme", "Z2"], "many"),
    (["search", "K", "--nmax", "3"], "4"),
]


def rows() -> list[dict]:
    """The commands of the table, each with the environment it runs in."""
    plain = [{"argv": argv, "threads": None} for argv in COMMANDS]
    return plain + [{"argv": argv, "threads": threads} for argv, threads in THREAD_ROWS]


def replay(row: dict) -> dict:
    """Run one row in the current directory: write the input files, run the
    command in process, and collect its exit code, stdout, stderr and --out."""
    for name, text in FILES.items():
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(text)
    if os.path.exists(OUT):
        os.remove(OUT)
    saved = {key: os.environ.get(key) for key in [*ENV, "SCHEME_FORGE_THREADS"]}
    os.environ.update(ENV)
    os.environ.pop("SCHEME_FORGE_THREADS", None)
    if row["threads"] is not None:
        os.environ["SCHEME_FORGE_THREADS"] = row["threads"]
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run(list(row["argv"]))
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    out = None
    if os.path.exists(OUT):
        with open(OUT, encoding="utf-8") as fh:
            out = fh.read()
    return {**row, "code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "out": out}


def record(path: str = TRANSCRIPT) -> None:
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            table = [replay(row) for row in rows()]
        finally:
            os.chdir(here)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, ensure_ascii=False)
        fh.write("\n")


if __name__ == "__main__":
    record()
