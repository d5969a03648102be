"""The certified split-prime Verlinde table against the exact reference.

``exact_verlinde`` is the O(r^4) loop over ``CycNum`` that built the
table before the split-prime engine: every coefficient is the defining
sum N_xy^z = sum_a chi_x(a) chi_y(a) conj(chi_z(a)) s_0a^2 / dim(C),
computed exactly.
"""

import gc
import json
import math
import random
import re
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from conftest import LADDER, PRODUCTS, _double_pair, _edited
from reference import character_columns, numeric_value
from modgal import _splitprime
from modgal._numtheory import factorize, is_prime, unit_group_generators, units_mod
from modgal._splitprime import Residues, certified_verlinde, certify, split_prime, split_primes
from modgal.analysis import run_analysis
from modgal.cli import main
from modgal.cyclotomic import CycNum, dot
from modgal.families import fibonacci, fixture_names, sl2_level_adjoint
from modgal.galois_action import galois_conjugate_data
from modgal.modular_data import (
    MAX_CONDUCTOR,
    MAX_ENTRY_BITS,
    InvalidModularData,
    ModularData,
    deligne_product,
    save_modular_data,
)

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def exact_verlinde(data):
    """The table coefficient by coefficient in exact arithmetic; raises
    ``InvalidModularData`` at the first coefficient, in the order
    x <= y, z, that is not a nonnegative integer."""
    r = data.rank
    cols = character_columns(data)
    dim_inv = data.global_dim.inverse()
    weights = [data.s[0][a] * data.s[0][a] * dim_inv for a in range(r)]
    conj_rows = [tuple(cols[a][z].conjugate() for a in range(r)) for z in range(r)]
    coeffs = [[[0] * r for _ in range(r)] for _ in range(r)]
    for x in range(r):
        for y in range(x, r):
            prods = [cols[a][x] * cols[a][y] * weights[a] for a in range(r)]
            for z in range(r):
                acc = dot(prods, conj_rows[z])
                if not acc.is_rational_integer:
                    raise InvalidModularData(f"fusion coefficient N({x},{y})^{z} is not an integer")
                n = int(acc.as_rational())
                if n < 0:
                    raise InvalidModularData(f"fusion coefficient N({x},{y})^{z} = {n} is negative")
                coeffs[x][y][z] = coeffs[y][x][z] = n
    return tuple(tuple(tuple(row) for row in plane) for plane in coeffs)


def _conjugates(fixture_catalog):
    for name in fixture_names():
        data = fixture_catalog[name]
        yield name, data
        for g in unit_group_generators(data.conductor):
            yield f"{name}^sigma_{g}", galois_conjugate_data(data, g)


class TestDifferential:
    def test_fixtures_and_their_conjugates(self, fixture_catalog):
        seen = 0
        for name, data in _conjugates(fixture_catalog):
            assert data.fusion.coeffs == exact_verlinde(data), name
            seen += 1
        assert seen > len(fixture_names())

    @pytest.mark.parametrize("name", sorted(LADDER))
    def test_ladder_rungs(self, name):
        data = LADDER[name]()
        assert data.fusion.coeffs == exact_verlinde(data)

    def test_rank_12(self):
        data = PRODUCTS["fib_x_sl2_13"]()
        assert data.rank == 12 and data.conductor == 65
        assert data.fusion.coeffs == exact_verlinde(data)

    def test_phase2_failures_name_the_reference_coefficient(self, phase2_invalid):
        for name, data in phase2_invalid.items():
            with pytest.raises(InvalidModularData) as reference:
                exact_verlinde(data)
            assert data.validate().failures == (str(reference.value),), name


def _residues_and_table(data):
    residues = data._residues
    table, bad_pairs, bad_rows = certified_verlinde(residues)
    assert not bad_pairs and not bad_rows
    return residues, table


class TestCertificate:
    def test_one_coefficient_off_by_one_is_rejected(self):
        data = deligne_product(fibonacci(0), sl2_level_adjoint(7))
        residues, table = _residues_and_table(data)
        primes = [split_primes(data.conductor, 0)]
        assert certify(residues, table, primes) == (set(), set())
        for x, y, z in [(0, 0, 0), (1, 2, 3), (4, 2, 5)]:
            wrong = table.copy()
            wrong[x, y, z] += 1
            wrong[y, x, z] = wrong[x, y, z]
            assert certify(residues, wrong, primes) == (set(), {(min(x, y), max(x, y))})

    def test_negative_coefficients_are_certified(self, phase2_invalid):
        # the slot reading is lifted to (-p/2, p/2], so N(1,1)^1 = -1 is
        # proved like any other coefficient, with no exact fallback
        data = phase2_invalid["fibonacci-row-1-negated"]
        table, bad_pairs, bad_rows = certified_verlinde(data._residues)
        assert not bad_pairs and not bad_rows
        assert table[1, 1, 1] == -1

    def test_a_wrong_candidate_is_repaired_exactly(self, monkeypatch):
        # the rows the certificate rejects are recomputed with dot, so a
        # wrong slot reading can change the work but not the table
        data = deligne_product(fibonacci(0), sl2_level_adjoint(7))
        reference = exact_verlinde(data)
        candidate = _splitprime._candidate

        def off_by_one(residues, prime):
            table = candidate(residues, prime)
            table[1, 2, 3] += 1
            table[2, 1, 3] += 1
            return table

        monkeypatch.setattr(_splitprime, "_candidate", off_by_one)
        assert data.fusion.coeffs == reference

    def test_primes_below_the_bound_are_never_a_certificate(self):
        data = fibonacci(0)
        residues, table = _residues_and_table(data)
        bound = _splitprime.certificate_bound(residues, table)
        small = [p for p in range(11, bound + 1, 5) if _is_split(p)]
        assert small, bound
        for p in small:
            with pytest.raises(ValueError, match="bound"):
                certify(residues, table, [split_prime(5, p)])
        # a repeated prime counts once
        p = small[-1]
        assert p * p > bound
        with pytest.raises(ValueError, match="bound"):
            certify(residues, table, [split_prime(5, p), split_prime(5, p)])
        above = [split_prime(5, p) for p in (11, 31, 41)]
        assert 11 * 31 * 41 > bound
        assert certify(residues, table, above) == (set(), set())

    def test_bound_by_hand(self):
        # fibonacci: the entries 1, -1 and -zeta^2 - zeta^3 have l1 norms
        # 1, 1, 2, and tau x tau = 1 + tau has row mass 2, so
        # B = 2^2 * max(2 * 2, 1 + 2) = 16
        residues, table = _residues_and_table(fibonacci(0))
        assert _splitprime.certificate_bound(residues, table) == 16

    def test_bound_covers_every_conjugate_of_a_residue(self):
        data = deligne_product(fibonacci(0), sl2_level_adjoint(7))
        view, table = _residues_and_table(data)
        n, r, s = data.conductor, data.rank, data.s
        wrong = table.copy()
        wrong[1, 2, 3] += 5
        wrong[2, 1, 3] += 5
        bound = _splitprime.certificate_bound(view, wrong)
        row = [CycNum.rational(int(v), n) for v in wrong[1, 2]]
        residues = [s[1][a] * s[2][a] - s[0][a] * dot(row, [s[z][a] for z in range(r)])
                    for a in range(r)]
        residues += [dot(s[x], [v.conjugate() for v in s[y]]) - (x == y) * data.global_dim
                     for x in range(r) for y in range(r)]
        assert any(residues)
        for y in residues:
            for k in units_mod(n):
                assert abs(numeric_value(y.galois_apply(k))) <= bound

    def test_small_primes_still_refute(self):
        # a nonzero residue is a proof on its own, at any prime
        data = fibonacci(0)
        residues, table = _residues_and_table(data)
        wrong = table.copy()
        wrong[1, 1, 1] = 0
        assert certify(residues, wrong, [split_prime(5, p) for p in (11, 31, 41)])[1] == {(1, 1)}

    def test_every_slot_is_checked(self, monkeypatch):
        # e = (zeta - w)(zeta^-1 - w) = 1 + w + w^2 + w zeta^2 + w zeta^3
        # is real and vanishes in the slots k = 1 and k = -1 of p = 11,
        # but not in k = 2 and k = 3.  Adding it to s_11 changes the
        # identities only where the slots 2 and 3 can see it.
        fib = fibonacci(0)
        residues, table = _residues_and_table(fib)
        prime = split_prime(5, 11)
        w = int(prime.powers[1, 0])
        e = np.array([1 + w + w * w, 0, w, w])
        images = _splitprime._images(e, prime).ravel()
        assert images[0] == images[3] == 0 and images[1] and images[2]
        bad = residues.num.copy()
        bad[1, 1] += e
        # one prime is below the bound, so lift the bound for this check;
        # unitarity fails, so the Verlinde rows are not evaluated
        monkeypatch.setattr(_splitprime, "certificate_bound", lambda residues, table: 1)
        assert certify(Residues(bad, 5), table, [prime]) == ({(0, 1), (1, 0), (1, 1)}, set())
        assert certify(residues, table, [prime]) == (set(), set())

    def test_every_prime_is_checked(self, monkeypatch):
        # s_11 + 11 agrees with s_11 in every slot of p = 11, so only
        # p = 31 can refute it, after p = 11 has passed every row
        residues, table = _residues_and_table(fibonacci(0))
        bad = residues.num.copy()
        bad[1, 1, 0] += 11
        bad = Residues(bad, 5)
        monkeypatch.setattr(_splitprime, "certificate_bound", lambda residues, table: 1)
        p11, p31 = split_prime(5, 11), split_prime(5, 31)
        assert certify(bad, table, [p11]) == (set(), set())
        refuted = certify(bad, table, [p31])
        assert refuted[0] and not refuted[1]
        assert certify(bad, table, [p11, p31]) == refuted

    def test_primes_are_split_and_roots_primitive(self):
        for n in (1, 2, 5, 12, 55, 143, 1024):
            prime = split_primes(n, 0)
            p = prime.p
            assert p % n == 1 % n and p < 1 << _splitprime.PRIME_BITS
            if prime.powers.shape[0] > 1:
                w = int(prime.powers[1, 0])
                assert pow(w, n, p) == 1
                assert all(pow(w, n // q, p) != 1 for q, _ in factorize(n))
            # slot j sends zeta to w^(k_j); conj slots pair k with -k
            assert sorted(prime.conj.tolist()) == list(range(prime.powers.shape[1]))
            assert (prime.conj[prime.conj] == np.arange(prime.powers.shape[1])).all()


def _is_split(p):
    return p % 5 == 1 and is_prime(p)


def _huge_denominators():
    """Rank 2 at conductor 1021 with s_01 = s_10 a sum of eight 1/q_i,
    the q_i distinct coprime 4000-digit integers."""
    rng = random.Random(3)
    qs = []
    while len(qs) < 8:
        q = rng.randrange(10**3999, 10**4000)
        if all(math.gcd(q, other) == 1 for other in qs):
            qs.append(q)
    entry = [[1, q, 0] for q in qs]
    return {"conductor": 1021, "rank": 2, "labels": ["1", "x"], "t": [0, 1],
            "s": [[[[1, 1, 0]], entry], [entry, [[-1, 1, 0]]]]}


class TestBeyondThePrimes:
    def test_huge_entries_are_refused(self, tmp_path, capsys):
        path = tmp_path / "huge.mtc"
        path.write_text(json.dumps(_huge_denominators()))
        start = time.monotonic()
        assert main(["validate", str(path)]) == 2
        elapsed = time.monotonic() - start
        err = capsys.readouterr().err
        assert str(path) in err and f"2^{MAX_ENTRY_BITS}" in err
        assert elapsed < 1, elapsed

    def test_a_fractional_entry_fails_phase_1(self, tmp_path, capsys):
        data = _edited(fibonacci(0), lambda s: s[1].__setitem__(1, s[1][1] / 2))
        failure = "s-entry (1,1) is not in Z[zeta_N]"
        assert data.validate().failures == (failure,)
        with pytest.raises(InvalidModularData, match=re.escape(failure)):
            ModularData(*_parts(data)).fusion
        path = tmp_path / "half.mtc"
        save_modular_data(data, path)
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().out == f"{path}: INVALID\n  {failure}\n"

    def test_every_conductor_has_enough_primes_above_2_20(self):
        # every prime in (2^20, 2^21] by a sieve, so certified_verlinde's
        # bound argument holds at every conductor the loader accepts
        top = 1 << _splitprime.PRIME_BITS
        sieve = np.ones(top + 1, dtype=bool)
        sieve[:2] = False
        for q in range(2, math.isqrt(top) + 1):
            if sieve[q]:
                sieve[q * q::q] = False
        primes = np.flatnonzero(sieve[(top >> 1) + 1:]) + (top >> 1) + 1
        for n in range(1, MAX_CONDUCTOR + 1):
            assert np.count_nonzero(primes % n == 1 % n) >= _splitprime.MAX_PRIMES, n
        for n in (1, 5, 143):
            want = sorted(primes[primes % n == 1 % n].tolist(), reverse=True)
            got = [split_primes(n, i).p for i in range(_splitprime.MAX_PRIMES)]
            assert got == want[:_splitprime.MAX_PRIMES], n

    def test_no_usable_prime_is_refused(self, monkeypatch, capsys):
        data = fibonacci(0)
        monkeypatch.setattr(_splitprime, "_usable", lambda residues, prime: False)
        with pytest.raises(ValueError, match="vanishes"):
            certified_verlinde(data._residues)
        path = str(FIXTURE_DIR / "fibonacci.mtc")
        for argv in (["validate", path], ["report", path]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: ") and "vanishes" in err, argv

    def test_a_prime_that_is_not_usable_still_certifies(self, monkeypatch):
        # the candidate is read at the second prime; the first, where it
        # cannot be read, is enough for the certificate
        data = PRODUCTS["fib_x_sl2_13"]()
        first = split_primes(data.conductor, 0)
        usable, certify_ = _splitprime._usable, _splitprime.certify
        seen = []

        def recorded(residues, table, primes):
            seen.append([prime.p for prime in primes])
            return certify_(residues, table, primes)

        monkeypatch.setattr(
            _splitprime, "_usable",
            lambda residues, prime: prime is not first and usable(residues, prime),
        )
        monkeypatch.setattr(_splitprime, "certify", recorded)
        assert ModularData(*_parts(data)).fusion.coeffs == exact_verlinde(data)
        assert seen == [[first.p]]

    def test_split_primes_stop_when_they_run_out(self, monkeypatch):
        # below 2^6 the primes = 1 (mod 5) are 61, 41, 31 and 11
        monkeypatch.setattr(_splitprime, "PRIME_BITS", 6)
        split_primes.cache_clear()
        try:
            assert [split_primes(5, i).p for i in range(4)] == [61, 41, 31, 11]
            with pytest.raises(ValueError, match="fewer than 5 primes"):
                split_primes(5, 4)
        finally:
            split_primes.cache_clear()


def _parts(data):
    """A fresh datum with nothing cached."""
    return data.conductor, data.rank, data.labels, data.s, data.t_exponents


def _counted_images(monkeypatch):
    """Record the prime of every imaging of s from here on, and a weak
    reference to each image."""
    primes, refs = [], []
    images = _splitprime._images

    def counting(num, prime):
        img = images(num, prime)
        primes.append(prime.p)
        refs.append(weakref.ref(img))
        return img

    monkeypatch.setattr(_splitprime, "_images", counting)
    return primes, refs


class TestKeptImages:
    def test_report_images_s_once_per_prime(self, monkeypatch):
        data = PRODUCTS["sl2_11_x_sl2_13"]()
        primes, _ = _counted_images(monkeypatch)
        assert run_analysis(data, "sl2_11 x sl2_13").ok
        assert primes and len(primes) == len(set(primes)), primes

    def test_pointed_64_images_s_once(self, monkeypatch, capsys):
        primes, _ = _counted_images(monkeypatch)
        assert main(["pointed", "64"]) == 0
        capsys.readouterr()
        assert len(primes) == 1, primes

    def test_a_datum_and_its_images_are_freed_after_report(self, monkeypatch):
        data = PRODUCTS["fib_x_sl2_13"]()
        _, refs = _counted_images(monkeypatch)
        assert run_analysis(data, "fib x sl2_13").ok
        refs.append(weakref.ref(data))
        del data
        gc.collect()
        assert len(refs) > 1 and all(ref() is None for ref in refs)


class TestUnitarityFailure:
    def test_integral_unit_plane_reports_the_failing_pairs(self):
        # s = [[1, 1], [1, 1]]: N_0x^y = (s conj(s)^T)_xy / 2 is 1 everywhere,
        # a nonnegative integer, but s conj(s)^T != 2 I at (0, 1)
        one = CycNum.one(1)
        data = ModularData(1, 2, ("1", "x"), ((one, one), (one, one)), (0, 0))
        assert data.validate().failures == ("s * conj(s)^T fails at (0,1)",)
        with pytest.raises(InvalidModularData):
            data.fusion

    def test_every_failing_pair_is_in_the_message(self):
        # s = all ones at rank 3: N_0x^y = 3 / 3 = 1, but s conj(s)^T != 3 I
        one = CycNum.one(1)
        data = ModularData(1, 3, ("1", "x", "y"), ((one,) * 3,) * 3, (0, 0, 0))
        pairs = ("s * conj(s)^T fails at (0,1)", "s * conj(s)^T fails at (0,2)",
                 "s * conj(s)^T fails at (1,2)")
        with pytest.raises(InvalidModularData) as failure:
            data.fusion
        assert failure.value.failures == pairs
        assert str(failure.value) == "; ".join(pairs)
        assert data.validate().failures == pairs

    def test_a_failing_unit_plane_coefficient_is_named(self):
        # s = [[1, 1], [1, 2]]: dim(C) = 2 and N_00^1 = (1 + 2) / 2
        one = CycNum.one(1)
        data = ModularData(1, 2, ("1", "x"), ((one, one), (one, one * 2)), (0, 0))
        assert data.validate().failures == ("fusion coefficient N(0,0)^1 is not an integer",)


class TestRegression:
    def test_doubled_pair_at_rank_25_fails(self, tmp_path, capsys):
        data = _edited(PRODUCTS["z5_x_sl2_11"](), _double_pair)
        assert data.rank == 25
        report = data.validate()
        assert not report.ok
        path = tmp_path / "bad.mtc"
        save_modular_data(data, path)
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "INVALID" in out and "skipped" not in out
