"""The four workloads.  Each set-up function returns one round: the list of
jobs that every run repeats whole, in an order fixed by the seed.

A job's ``call`` is the timed part and makes only public schemeforge calls,
each inside a tracer span.  Its ``check`` runs after the timer stops and
compares the output with ``oracles``, which does not use schemeforge.  The
round compositions, and the latency family each percentile falls in, are
listed in README.md; keep the two in step.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import subprocess
import sys
from collections.abc import Callable
from math import inf
from time import perf_counter

import numpy as np

import oracles
from oracles import CheckFailure
from tracing import NULL

from schemeforge import catalog, constructions as con, hypergroup as hg, realize, scheme as sc
from schemeforge.errors import SizeGuardError

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


@dataclasses.dataclass
class Job:
    family: str
    call: Callable[[object], object]          # call(tracer) -> output, timed
    check: Callable[[object], None]           # check(output), untimed; raises CheckFailure
    expected_failure: type | None = None      # the one fault this job is known to hit


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailure(msg)


def _shuffled(rng: np.random.Generator, items: list) -> list:
    return [items[i] for i in rng.permutation(len(items))]


# ---------------------------------------------------------------------------
# verify: build_scheme on relation matrices from every (n, s) regime

def _verify_job(tag: str, rel: np.ndarray, check_rng, closed_form=None) -> Job:
    n = len(rel)

    def call(tracer):
        with tracer.span("scheme.build_scheme", tag):
            result = sc.build_scheme(n, rel)
        if isinstance(result, sc.AssociationScheme):
            with tracer.span("realize.to_hypergroup", tag):
                return result, realize.to_hypergroup(result)
        return result, None

    def check_accepted(out):
        s, h = out
        _expect(isinstance(s, sc.AssociationScheme), f"{tag}: a scheme was refused")
        _expect(s.n == n and s.s == int(rel.max()) + 1, f"{tag}: wrong n or s")
        oracles.check_sampled_counts(rel, s.constants, check_rng)
        oracles.check_scheme_identities(rel, s.constants, s.star, s.valency)
        if closed_form is not None:
            closed_form(s)
        oracles.check_class_hypergroup(h, s.constants, s.star)

    def check_refused(out):
        _expect(isinstance(out[0], sc.SchemeReport) and out[0].violations,
                f"{tag}: a matrix that is not a scheme was accepted")
        oracles.check_refused(rel)

    return Job(tag, call, check_refused if tag == "refuse" else check_accepted)


VERIFY_TAGS = ("refuse", "partition", "hamming", "product", "group", "product-441")


def setup_verify(seed: int, tracer=NULL) -> list[Job]:
    rng = np.random.default_rng(seed)
    check_rng = np.random.default_rng([seed, 1])
    fano, h3, h8 = oracles.fano_flag_rel(), oracles.hamming_rel(3), oracles.hamming_rel(8)
    fano_h3 = oracles.product_rel(fano, h3)
    fano_fano = oracles.product_rel(fano, fano)
    f64 = oracles.f64_f4_rel()
    z64 = oracles.cyclic_rel(64)
    jobs = []

    def add(tag, base, count, closed_form=None):
        for _ in range(count):
            rel, sigma = oracles.relabel(base, rng)
            form = None if closed_form is None else (lambda s, sigma=sigma: closed_form(s, sigma))
            jobs.append(_verify_job(tag, rel, check_rng, form))

    # every class of H(8,2) is symmetric; perturbing classes 1 and 2 after the
    # relabelling puts the first violation at the same class on every seed
    for _ in range(15):
        rel, _ = oracles.relabel(h8, rng)
        jobs.append(_verify_job("refuse", oracles.perturb(rel, rng, 1, 2), check_rng))
    add("partition", f64, 22)
    add("hamming", h8, 3, lambda s, sigma: oracles.check_hamming_valencies(s.valency, sigma, 8))
    add("product", fano_h3, 3)
    add("group", z64, 6, lambda s, sigma: oracles.check_cyclic_constants(s.constants, sigma, 64))
    add("product-441", fano_fano, 1)
    return _shuffled(rng, jobs)


# ---------------------------------------------------------------------------
# lattice: the full closed-subset analysis of one prebuilt scheme

def _lattice_bases(tracer) -> dict[str, tuple]:
    """name -> (scheme, number of closed subsets): the number of subgroups
    of a group scheme, of F_q-subspaces for F64/F4, of equivalence relations
    made of classes otherwise."""
    def timed(layer, fn, *args):
        with tracer.span(f"constructions.{layer}", "setup"):
            return fn(*args)

    z2 = con.cyclic_group(2)
    z2_4 = con.product_group(con.product_group(z2, z2), con.product_group(z2, z2))
    r64 = timed("gf_ring", con.gf_ring, 64)
    f4_scaling = con.scaling_automorphisms(r64, con.units_of_order_dividing(r64, 3))
    f64 = timed("partition_scheme", con.partition_scheme, con.additive_group(r64), f4_scaling)
    return {
        "fano-flags": (con.fano_flag_scheme(), 4),   # diagonal, same line, same point, all
        "S3": (timed("group_scheme", con.group_scheme, con.symmetric_group(3)), 6),
        "hamming-3": (timed("hamming_scheme", con.hamming_scheme, 3), 4),   # {0}, even, antipodal, all
        "A4": (timed("group_scheme", con.group_scheme, con.alternating_group(4)), 10),
        "Z16": (timed("group_scheme", con.group_scheme, con.cyclic_group(16)), oracles.divisor_count(16)),
        "Z2^4": (timed("group_scheme", con.group_scheme, z2_4), oracles.subspace_count(2, 4)),
        "Z20": (timed("group_scheme", con.group_scheme, con.cyclic_group(20)), oracles.divisor_count(20)),
        "F64/F4": (f64, oracles.subspace_count(4, 3)),
    }


def _lattice_job(name: str, s, h, expected: int) -> Job:
    def call(tracer):
        with tracer.span("scheme.closed_subsets", name):
            closed = sc.closed_subsets(s)
        subs = None
        if h.m <= hg.SUB_HYPERGROUP_BOUND:
            with tracer.span("hypergroup.sub_hypergroups", name):
                subs = hg.sub_hypergroups(h)
        normal = []
        for t in closed:
            with tracer.span("scheme.is_normal_closed", name):
                if sc.is_normal_closed(s, t)[0]:
                    normal.append(t)
        quotients = []
        for t in normal:
            with tracer.span("scheme.quotient_scheme", name):
                qs = sc.quotient_scheme(s, t)
            with tracer.span("hypergroup.quotient_hypergroup", name):
                qh = hg.quotient_hypergroup(h, t)
            quotients.append((t, qs, qh))
        tracer.sample("scheme.closed_subsets.found", len(closed))
        tracer.sample("hypergroup.sub_hypergroups.found", len(subs or ()))
        return closed, subs, quotients

    def check(out):
        closed, subs, quotients = out
        rel = np.asarray(s.rel)
        oracles.check_closed_subsets(rel, closed, expected)
        # closed subsets of a scheme are the sub-hypergroups of its class hypergroup
        _expect(subs is None or sorted(map(sorted, subs)) == sorted(map(sorted, closed)),
                f"{name}: sub-hypergroups differ from closed subsets")
        _expect(sorted(map(sorted, (q[0] for q in quotients)))
                == sorted(map(sorted, oracles.normal_subsets(rel, closed))),
                f"{name}: the normal closed subsets differ from those with pT = Tp")
        _, valency = oracles.star_and_valency(rel)
        for t, qs, qh in quotients:
            block = sum(valency[p] for p in t)
            _expect(qs.n * block == s.n, f"{name}/{sorted(t)}: quotient has {qs.n} points")
            _expect(qh.m == qs.s, f"{name}/{sorted(t)}: quotient hypergroup and scheme disagree")

    return Job(name, call, check)


LATTICE_ROUND = {"fano-flags": 10, "S3": 10, "hamming-3": 10, "A4": 54, "Z16": 12,
                 "Z2^4": 2, "Z20": 1, "F64/F4": 1}


def setup_lattice(seed: int, tracer=NULL) -> list[Job]:
    rng = np.random.default_rng(seed)
    jobs = []
    for name, (base, expected) in _lattice_bases(tracer).items():
        for _ in range(LATTICE_ROUND[name]):
            rel, _ = oracles.relabel(np.asarray(base.rel), rng)
            with tracer.span("scheme.build_scheme", "setup"):
                s = sc.build_scheme(len(rel), rel)
            with tracer.span("realize.to_hypergroup", "setup"):
                h = realize.to_hypergroup(s)
            jobs.append(_lattice_job(name, s, h, expected))
    return _shuffled(rng, jobs)


# ---------------------------------------------------------------------------
# search: realize.search_realization at the current bound

SEARCH_NMAX = 8
LEAF_HEAVY = ("dense", "petersen")
FOUND_FAMILIES = ("F7", "Z8-2adic", "hamming-3", "S3-inn")
EMPTY_FAMILIES = ("KxK", "linear-3", "S", "dense", "petersen")


def _relabelled(h, perm):
    """The hypergroup with element a renamed perm[a]."""
    m = h.m
    table = [[None] * m for _ in range(m)]
    inv = [0] * m
    for a in range(m):
        inv[perm[a]] = perm[h.inv[a]]
        for b in range(m):
            table[perm[a]][perm[b]] = {perm[t] for t in h.table[a][b]}
    return hg.build_hypergroup(table, perm[h.e], inv)


def _labellings(h) -> list:
    """h under every renaming of its nonidentity elements (the identity is 0)."""
    return [_relabelled(h, (0,) + p) for p in itertools.permutations(range(1, h.m))]


def _search_call(tracer, family: str, h, n_max: int):
    marks = []

    def progress(line: str) -> None:
        marks.append((perf_counter(), line))

    if tracer is NULL:
        progress = None
    with tracer.span("realize.search_realization", family) as span:
        start = perf_counter()
        found = realize.search_realization(h, n_max, progress=progress)
    if tracer is not NULL:
        leaves, last = 0, start
        for t, line in marks:                  # "n=<k> exhausted: <leaves> candidate ..."
            k = int(line.split("=")[1].split()[0])
            count = int(line.split(":")[1].split()[0])
            tracer.sample(f"realize.search_realization.n{k}_ms", 1000 * (t - last))
            leaves += count
            last = t
        tracer.sample("realize.search_realization.leaves", leaves)
        if family in LEAF_HEAVY:
            t0, t1 = tracer.spans[span.index][3:5]
            tracer.sample("leaf_heavy.s", t1 - t0)
            tracer.sample("leaf_heavy.leaves", leaves)
    return found


def _check_search(family: str, h, n_max: int, found) -> None:
    if family in EMPTY_FAMILIES:
        _expect(found is None, f"{family}: realized on {getattr(found, 'n', '?')} points, "
                               "which README.md shows impossible")
    else:
        _expect(found is not None, f"{family}: no realization found on <= {n_max} points")
        _expect(found.n <= n_max, f"{family}: realization has {found.n} > {n_max} points")
        oracles.check_realization(found.rel, h)


def _search_job(targets: list[tuple[str, object, int]], family: str, expected_failure=None) -> Job:
    def call(tracer):
        return [_search_call(tracer, fam, h, n_max) for fam, h, n_max in targets]

    def check(out):
        for (fam, h, n_max), found in zip(targets, out):
            _check_search(fam, h, n_max, found)

    return Job(family, call, check, expected_failure)


def _table_hypergroup(c11, c12, c22):
    """3 elements, all self-inverse, with the given products 1*1, 1*2, 2*2."""
    table = [[{0}, {1}, {2}], [{1}, c11, c12], [{2}, c12, c22]]
    return hg.build_hypergroup(table, 0, (0, 1, 2))


def setup_search(seed: int, tracer=NULL) -> list[Job]:
    rng = np.random.default_rng(seed)
    k = con.krasner_hypergroup()
    targets = {
        "F7": catalog.catalog_hypergroup("F7"),
        "Z8-2adic": catalog.catalog_hypergroup("Z8-2adic"),
        "hamming-3": catalog.catalog_hypergroup("hamming-3"),
        "S3-inn": catalog.catalog_hypergroup("S3-inn"),
        "KxK": hg.product_hypergroup(k, k),
        "linear-3": con.linear_hypergroup([0, 1, inf]),
        "S": con.sign_hypergroup(),
        "dense": _table_hypergroup({0, 1, 2}, {1, 2}, {0, 1, 2}),
        "petersen": _table_hypergroup({0, 2}, {1, 2}, {0, 1, 2}),
    }
    labelled = {name: _labellings(h) for name, h in targets.items()}
    jobs = []

    def add(name, repeats):
        for _ in range(repeats):
            jobs.extend(_search_job([(name, h, SEARCH_NMAX)], name) for h in labelled[name])

    add("F7", 2)            # 2 labellings each
    add("Z8-2adic", 2)      # 6
    add("KxK", 1)           # 6
    add("linear-3", 3)      # 2
    add("petersen", 2)      # 2
    add("dense", 1)         # 2
    light = [(name, h, SEARCH_NMAX) for name in ("hamming-3", "S3-inn", "S") for h in labelled[name]]
    jobs.extend(_search_job(light, "light") for _ in range(6))
    # Z9-3adic is realized on 9 points, one above SEARCH_POINT_BOUND; until
    # the bound is raised the call is refused with SizeGuardError every time
    z9 = catalog.catalog_hypergroup("Z9-3adic")
    jobs.append(_search_job([("Z9-3adic", z9, 9)], "Z9-3adic@9", SizeGuardError))
    return _shuffled(rng, jobs)


# ---------------------------------------------------------------------------
# cli: one `python -m schemeforge` child per job

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


PROBE = os.path.join(HERE, "cli_probe.py")


def _cli_job(key: str, argv: list[str], check: Callable[[int, str], None], workdir: str) -> Job:
    env = _child_env()

    def call(tracer):
        if tracer is NULL:
            cmd = [sys.executable, "-m", "schemeforge", *argv]
        else:
            timings = os.path.join(workdir, "probe.json")
            cmd = [sys.executable, PROBE, timings, *argv]
        proc = subprocess.run(cmd, env=env, cwd=workdir, capture_output=True, text=True,
                              timeout=120, check=False)
        if tracer is not NULL:
            with open(timings, encoding="utf-8") as fh:
                probe = json.load(fh)
            tracer.sample("cli.import_ms", probe["import_ms"])
            for ms in probe["catalog_ms"]:
                tracer.sample("catalog.catalog_scheme.cold_ms", ms)
            tracer.sample(f"cli.run.{key}_ms", probe["run_ms"])
        return proc.returncode, proc.stdout

    def checked(out):
        rc, stdout = out
        check(rc, stdout)

    return Job(key, call, checked)


def _exact(rc_expected: int, text: str):
    def check(rc, stdout):
        _expect(rc == rc_expected and stdout == text,
                f"exit {rc}, stdout {stdout[:80]!r}; expected exit {rc_expected}, {text!r}")
    return check


def _rc(rc_expected: int):
    def check(rc, stdout):
        _expect(rc == rc_expected, f"exit {rc}, expected {rc_expected}")
    return check


def _check_catalog(rc, stdout):
    lines = set(stdout.splitlines())
    _expect(rc == 0 and {"scheme\tfano-flags", "hypergroup\tK", "valued-ring\tZ9-3adic"} <= lines,
            "catalog lacks fano-flags, K or Z9-3adic")


def _check_hyper_hamming2(rc, stdout):
    # H(2,2) is the 4-cycle: two steps of distance 1 end at distance 0 or 2
    _expect(rc == 0 and "1*1={0,2}" in stdout.splitlines(), "hyper hamming-2 lacks 1*1={0,2}")


def _check_sub_a4(rc, stdout):
    # the subgroups of A4 have orders 1, 2, 2, 2, 3, 3, 3, 3, 4, 12
    sets = [line.strip("{}").split(",") for line in stdout.split()]
    _expect(rc == 0 and sorted(map(len, sets)) == [1, 2, 2, 2, 3, 3, 3, 3, 4, 12]
            and all("0" in t for t in sets), "sub hyper A4 does not list the subgroups of A4")


def _check_product(rc, stdout):
    """fano-flags x hamming-3: class p1*4 + p2, with p2 the distance in H(3,2)."""
    _expect(rc == 0, f"product exited {rc}")
    obj = json.loads(stdout)
    rel = np.array(obj["rel"])
    _expect(obj["n"] == 168 and rel.shape == (168, 168), "product is not on 21 x 8 = 168 points")
    second = rel.reshape(21, 8, 21, 8) % 4
    first = rel.reshape(21, 8, 21, 8) // 4
    ham = oracles.hamming_rel(3)
    _expect((second == ham[None, :, None, :]).all(), "second factor is not H(3,2)")
    _expect((first == first[:, :1, :, :1]).all(), "first factor depends on the second coordinate")
    counts = sorted(np.bincount(first[0, 0, :, 0], minlength=6).tolist())
    _expect(counts == [1, 2, 2, 4, 4, 8], f"fano-flag valencies are {counts}")


def setup_cli(seed: int, tracer=NULL, workdir: str = ".") -> list[Job]:
    rng = np.random.default_rng(seed)

    def job(key, argv, check):
        return [_cli_job(key, argv, check, workdir)]

    def round_trip(name, summary):
        a, b = f"{name}.json", f"{name}.rebuilt.json"

        def same_bytes(rc, stdout):
            _exact(0, summary)(rc, stdout)
            with open(os.path.join(workdir, a), "rb") as fa, open(os.path.join(workdir, b), "rb") as fb:
                _expect(fa.read() == fb.read(), f"export -> build of {name} is not byte-identical")

        return (job("export", ["export", name, "--out", a], _rc(0))
                + job("build", ["build", a, "--out", b], same_bytes))

    units = (
        2 * [job("catalog", ["catalog"], _check_catalog)]
        + 2 * [job("verify", ["verify", "scheme", "fano-flags"], _exact(0, "valid, s=6, non-commutative\n"))]
        + 2 * [job("hyper", ["hyper", "hamming-2"], _check_hyper_hamming2)]
        + [job("sub", ["sub", "hyper", "A4"], _check_sub_a4)]
        + [job("triangle_holds", ["triangle", "Z9-3adic"], _rc(0))]
        + [job("triangle_fails", ["triangle", "Z8-2adic"], _rc(1))]
        # K is realized by the triangle K3; on 2 points 1*1 = {0} only
        + 2 * [job("search", ["search", "K", "--nmax", str(SEARCH_NMAX)],
                   lambda rc, out: _expect(rc == 0 and "found on n=3 points" in out, "K not found on n=3"))]
        + [round_trip("S3-inn", "valid, s=3, commutative\n")]
        + [round_trip("fano-flags", "valid, s=6, non-commutative\n")]
        # Z4 / {0, 2} is Z2, whose only 2-point scheme is [[0,1],[1,0]]
        + [job("quotient", ["quotient", "scheme", "Z4", "--by", "0,2"], _exact(0, '{"n":2,"rel":[[0,1],[1,0]]}\n'))]
        + 3 * [job("product", ["product", "scheme", "fano-flags", "hamming-3"], _check_product)]
        # PG(2, 4) has 21 points and 21 lines
        + [job("geometry", ["geometry", "F64/F4"], _exact(0, "points=21 lines=21 degenerate=false\n"))]
    )
    return [j for unit in _shuffled(rng, units) for j in unit]


def cli_interpreter_ms() -> float:
    """Wall time of a bare `python -c pass`, the floor under every CLI job."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return 1000 * (perf_counter() - t0)


SETUP = {"verify": setup_verify, "lattice": setup_lattice, "search": setup_search}

# families run once, untimed, before timing starts; cli has no warm-up because
# a shell user pays first-call costs on every call
WARM_UP = {"verify": ("refuse", "partition", "hamming"), "lattice": ("S3", "A4"),
           "search": ("F7", "light"), "cli": ()}
