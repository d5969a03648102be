"""The identities ``report`` checks in split-prime slots, against their
exact ``CycNum`` references in ``reference.py``: sigma_hat, the
centralizer relation, the dimension ratio, the counting2 degrees and
the Frobenius-Perron column; and the ``CycNum`` work ``run_analysis``
has left."""

import dataclasses
import time

import pytest

import reference
from conftest import DIFFERENTIAL, PRODUCTS, _edited
from modgal import _splitprime, modular_data
from modgal._numtheory import unit_group_generators, units_mod
from modgal.analysis import run_analysis
from modgal.cyclotomic import CycNum, sign_of_real
from modgal.galois_action import dims_ratio_check, galois_permutation, orbit_partition
from modgal.modular_data import InvalidModularData, deligne_product
from modgal.subcategories import _relations, all_subcategories, centralizer, counting2_degree_check

DATA = {**DIFFERENTIAL, **PRODUCTS}


def _units(data):
    """The generators of the unit group and complex conjugation."""
    n = data.conductor
    return sorted(set(unit_group_generators(n)) | {(n - 1) % n})


@pytest.mark.parametrize("name", sorted(DATA))
def test_galois_permutation_matches_column_matching(name):
    data = DATA[name]()
    cols = reference.character_columns(data)
    for k in _units(data):
        assert galois_permutation(data, k) == reference.column_permutation(data, k, cols), k


@pytest.mark.parametrize("name", sorted(DATA))
def test_centralizing_table_matches_the_definition(name):
    data = DATA[name]()
    assert _relations(data)[1] == reference.centralizing(data)


@pytest.mark.parametrize("name", sorted(DATA))
def test_dims_ratio_matches_the_exact_identity(name):
    data = DATA[name]()
    part = orbit_partition(data)
    assert dims_ratio_check(data).failures == reference.dims_ratio_failures(data, part.perm_of_unit)
    gens = unit_group_generators(data.conductor)
    if not gens or data.rank < 2:
        return
    # a planted fault: sigma_hat of the first generator with 0 and the
    # last object swapped, so that the failures are compared too
    perm = list(part.perm_of_unit[gens[0]])
    perm[0], perm[-1] = perm[-1], perm[0]
    planted = {**part.perm_of_unit, gens[0]: tuple(perm)}
    data._memo["orbit_partition"] = dataclasses.replace(part, perm_of_unit=planted)
    failures = dims_ratio_check(data).failures
    assert failures == reference.dims_ratio_failures(data, planted)


@pytest.mark.parametrize("name", sorted(DATA))
def test_counting2_degrees_match_the_fixing_groups(name):
    data = DATA[name]()
    stabilizers = orbit_partition(data).stabilizers
    for sub in all_subcategories(data):
        report = counting2_degree_check(data, sub)
        cent = centralizer(data, sub).members
        want = reference.counting2_degrees(data, sub.members, cent, stabilizers)
        assert [entry[3] for entry in report.entries] == want, sub.sorted_members


@pytest.mark.parametrize("name", sorted(DATA))
def test_fp_dims_are_the_positive_character_column(name):
    data = DATA[name]()
    positive = [
        col for col in reference.character_columns(data)
        if all(v.conjugate() == v and sign_of_real(v) > 0 for v in col)
    ]
    assert [data.fp_dims] == positive


def test_fp_dims_stops_at_the_positive_column(monkeypatch):
    # at most one column is totally positive (argued in ``fp_dims``), so
    # the search stops at Y0 = 0 here: sign(d_0) and r - 1 entries
    data = PRODUCTS["sl2_11_x_sl2_13"]()
    signed = []

    def counting(a):
        signed.append(a)
        return sign_of_real(a)

    monkeypatch.setattr(modular_data, "sign_of_real", counting)
    assert data.fp_dims == tuple(data.dims)
    assert len(signed) <= data.rank == 30, len(signed)


def _counted(monkeypatch, *names):
    """Count the calls of the named ``CycNum`` methods from here on."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        method = getattr(CycNum, name)

        def counting(*args, _name=name, _method=method):
            calls[_name] += 1
            return _method(*args)

        monkeypatch.setattr(CycNum, name, counting)
    return calls


def test_run_analysis_makes_almost_no_cyclotomic_products(monkeypatch):
    # the residue route leaves at most one column division (fp_dims),
    # r products and one inverse of phi(N) products
    data = PRODUCTS["sl2_11_x_sl2_13"]()
    calls = _counted(monkeypatch, "__mul__", "__rmul__", "inverse")
    report = run_analysis(data, "sl2_11 x sl2_13")
    assert report.ok
    phi = len(units_mod(data.conductor))
    assert calls["__mul__"] + calls["__rmul__"] <= data.rank + phi, calls
    assert calls["inverse"] <= 1, calls


def test_a_wrong_sigma_hat_candidate_is_refuted(monkeypatch):
    data = PRODUCTS["z5_x_sl2_11"]()
    g = unit_group_generators(data.conductor)[0]
    right = galois_permutation(data, g)
    candidate = _splitprime._column_candidate

    def swapped(residues, at):
        perm = candidate(residues, at)
        perm[3], perm[7] = perm[7], perm[3]
        return perm

    monkeypatch.setattr(_splitprime, "_column_candidate", swapped)
    got = _splitprime.certified_permutation(data._residues, g)
    assert got == [None if y in (3, 7) else z for y, z in enumerate(right)]
    with pytest.raises(InvalidModularData, match=f"sigma_{g} maps column 3 outside"):
        galois_permutation(data, g)


def _flip_pair_3_7(s):
    s[3][7] = -s[3][7]
    s[7][3] = -s[7][3]


def test_a_corrupted_rank_30_pair_is_named_within_budget():
    # N_0x^y is tested against dim(C) without an inverse
    data = _edited(PRODUCTS["sl2_11_x_sl2_13"](), _flip_pair_3_7)
    start = time.monotonic()
    failures = data.validate().failures
    elapsed = time.monotonic() - start
    assert failures == ("fusion coefficient N(0,0)^3 is not an integer",)
    assert elapsed < 3, elapsed


def test_a_failing_verlinde_row_is_named_within_budget(phase2_invalid):
    # the r weights 1 / (d_a dim(C)) come from one inverse, and each
    # failing row's products from one pass over a
    data = deligne_product(phase2_invalid["non-integer-coefficient"], PRODUCTS["sl2_11_x_sl2_13"]())
    assert (data.rank, data.conductor) == (60, 143)
    start = time.monotonic()
    failures = data.validate().failures
    elapsed = time.monotonic() - start
    assert failures == ("fusion coefficient N(30,30)^30 is not an integer",)
    assert elapsed < 10, elapsed
