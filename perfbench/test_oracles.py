"""Each output check of the benchmark accepts a right answer and rejects a
deliberately wrong one.  Run with: python -m pytest perfbench/test_oracles.py
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from oracles import CheckFailure  # noqa: E402

import schemeforge as sf  # noqa: E402


def cyclic_constants(n):
    a = np.arange(n)
    return ((a[:, None, None] + a[None, :, None] - a[None, None, :]) % n == 0).astype(np.int64)


def test_sampled_counts_reject_a_flipped_constant():
    rel = oracles.cyclic_rel(6)
    c = cyclic_constants(6)
    oracles.check_sampled_counts(rel, c, np.random.default_rng(0))
    c[1, 2, 3] += 1
    with pytest.raises(CheckFailure):
        oracles.check_sampled_counts(rel, c, np.random.default_rng(0))


def test_scheme_identities_reject_wrong_valency_and_constant():
    rel = oracles.hamming_rel(3)
    s = sf.build_scheme(8, rel)
    oracles.check_scheme_identities(rel, s.constants, s.star, s.valency)
    with pytest.raises(CheckFailure):
        oracles.check_scheme_identities(rel, s.constants, s.star, (1, 3, 1, 3))
    c = s.constants.copy()
    c[1, 1, 0] = 2
    with pytest.raises(CheckFailure):
        oracles.check_scheme_identities(rel, c, s.star, s.valency)


def test_closed_forms_reject_wrong_answers():
    sigma = np.array([0, 2, 1, 3])
    oracles.check_hamming_valencies((1, 3, 3, 1), sigma, 3)
    with pytest.raises(CheckFailure):
        oracles.check_hamming_valencies((1, 3, 1, 3), sigma, 3)
    ident = np.arange(5)
    c = cyclic_constants(5)
    oracles.check_cyclic_constants(c, ident, 5)
    c[2, 2, 4], c[2, 2, 3] = 0, 1
    with pytest.raises(CheckFailure):
        oracles.check_cyclic_constants(c, ident, 5)


def test_class_hypergroup_check_rejects_a_changed_cell():
    s = sf.build_scheme(8, oracles.hamming_rel(3))
    h = sf.to_hypergroup(s)
    oracles.check_class_hypergroup(h, s.constants, s.star)
    table = [list(row) for row in h.table]
    table[1][1] = frozenset({0})
    wrong = sf.Hypergroup(m=h.m, table=tuple(map(tuple, table)), e=h.e, inv=h.inv)
    with pytest.raises(CheckFailure):
        oracles.check_class_hypergroup(wrong, s.constants, s.star)


def test_refusal_proof_exists_only_for_a_perturbed_matrix():
    rel = oracles.hamming_rel(4)
    oracles.check_refused(oracles.perturb(rel, np.random.default_rng(3), 1, 2))
    with pytest.raises(CheckFailure):
        oracles.check_refused(rel)


def test_closed_subset_check_rejects_a_missing_or_open_set():
    rel = oracles.cyclic_rel(6)
    right = [{0}, {0, 3}, {0, 2, 4}, set(range(6))]
    oracles.check_closed_subsets(rel, right, oracles.divisor_count(6))
    with pytest.raises(CheckFailure):
        oracles.check_closed_subsets(rel, right[:-1], oracles.divisor_count(6))
    with pytest.raises(CheckFailure):
        oracles.check_closed_subsets(rel, right[:-1] + [{0, 1, 5}], oracles.divisor_count(6))


def test_independent_counts():
    assert oracles.subspace_count(2, 4) == 67
    assert oracles.subspace_count(4, 3) == 44
    assert oracles.divisor_count(20) == 6


def test_normal_subsets_of_s3_are_the_normal_subgroups():
    s = sf.group_scheme(sf.symmetric_group(3))
    rel = np.asarray(s.rel)
    assert len(oracles.normal_subsets(rel, sf.closed_subsets(s))) == 3


def test_closed_form_matrices_are_schemes():
    for rel in (oracles.f64_f4_rel(), oracles.fano_flag_rel(),
                oracles.product_rel(oracles.fano_flag_rel(), oracles.hamming_rel(2))):
        relabelled, _ = oracles.relabel(rel, np.random.default_rng(1))
        assert isinstance(sf.build_scheme(len(rel), relabelled), sf.AssociationScheme)


def test_realization_check_rejects_wrong_target_and_non_scheme():
    k3 = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    oracles.check_realization(k3, sf.krasner_hypergroup())
    z2 = sf.group_hypergroup(sf.cyclic_group(2))
    with pytest.raises(CheckFailure):
        oracles.check_realization(k3, z2)
    path = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]])   # the 3-point path is not a scheme
    with pytest.raises(CheckFailure):
        oracles.check_realization(path, sf.linear_hypergroup([0, 1, float("inf")]))


def test_cli_checks_reject_wrong_outputs():
    workloads._exact(0, "points=21 lines=21 degenerate=false\n")(0, "points=21 lines=21 degenerate=false\n")
    with pytest.raises(CheckFailure):
        workloads._exact(0, "points=21 lines=21 degenerate=false\n")(0, "points=21 lines=20 degenerate=false\n")
    with pytest.raises(CheckFailure):
        workloads._rc(1)(0, "triangle condition holds\n")
    a4 = "{0}\n{0,1}\n{0,2}\n{0,3}\n{0,4,5}\n{0,6,7}\n{0,8,9}\n{0,10,11}\n{0,1,2,3}\n{%s}\n" % (
        ",".join(map(str, range(12))))
    workloads._check_sub_a4(0, a4)
    with pytest.raises(CheckFailure):
        workloads._check_sub_a4(0, a4.replace("{0,8,9}\n", ""))


def test_product_check_rejects_a_swapped_factor():
    rel = oracles.product_rel(oracles.fano_flag_rel(), oracles.hamming_rel(3))
    out = '{"n":168,"rel":%s}' % rel.tolist()
    workloads._check_product(0, out)
    wrong = oracles.product_rel(oracles.fano_flag_rel(), oracles.hamming_rel(3)[::-1])
    with pytest.raises(CheckFailure):
        workloads._check_product(0, '{"n":168,"rel":%s}' % wrong.tolist())
