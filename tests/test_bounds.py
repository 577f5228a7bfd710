import random

import pytest

from syzlab.arith import binom_safe
from syzlab.betti import BettiTable, betti_table, dual_b, dual_cell_coords
from syzlab.bounds import (
    PredictedRange,
    REGIME_CONJECTURED,
    REGIME_OUTSIDE,
    REGIME_PROVED,
    all_ranges,
    compare_report,
    direct_range,
    kp0_exact,
    kpn1_exact,
    kpn_exact,
    linear_strand_range,
    linearity_zero_oracle,
    sharp_range,
    surface_q2_anchor,
)

from helpers import lo_hi


def test_sharp_range_frozen_values():
    assert lo_hi(sharp_range(2, 0, 3, 2)) == (7, 7)
    assert lo_hi(sharp_range(2, 0, 5, 2)) == (13, 18)
    assert lo_hi(sharp_range(1, 0, 3, 1)) == (1, 2)
    assert lo_hi(sharp_range(2, 0, 3, 1)) == (1, 6)


def test_sharp_range_regimes():
    assert sharp_range(2, 0, 3, 2).regime == REGIME_PROVED
    assert sharp_range(2, 1, 4, 2).regime == REGIME_PROVED
    r = sharp_range(2, 1, 3, 1)       # b + q + 1 <= d < b + n + 1
    assert r.regime == REGIME_CONJECTURED and r.valid
    r = sharp_range(2, 1, 2, 1)
    assert r.regime == REGIME_OUTSIDE and not r.valid


def test_direct_range_frozen_values():
    assert direct_range(2, 0, 3, 2).hi == 7
    assert direct_range(3, 0, 4, 2).lo == 10
    assert direct_range(2, 1, 4, 2).valid
    assert not direct_range(2, 1, 3, 2).valid


def test_sharp_and_direct_share_the_lower_bound():
    rng = random.Random(53)
    for _ in range(50):
        n = rng.randrange(2, 5)
        b = rng.randrange(0, 3)
        d = rng.randrange(1, 12)
        q = rng.randrange(2, n + 1)
        assert sharp_range(n, b, d, q).lo == direct_range(n, b, d, q).lo


def test_direct_vs_sharp_upper_bound_at_top_strand():
    # at q = n the two upper bounds differ by exactly binom(d-b-2, n-1) - 1,
    # so they agree precisely on the smallest proved degree d = b + n + 1
    from syzlab.arith import binom_safe
    rng = random.Random(54)
    for _ in range(50):
        n = rng.randrange(2, 5)
        b = rng.randrange(0, 2)
        d = rng.randrange(b + n + 1, b + n + 8)
        diff = sharp_range(n, b, d, n).hi - direct_range(n, b, d, n).hi
        assert diff == binom_safe(d - b - 2, n - 1) - 1
        if d == b + n + 1:
            assert diff == 0


def test_linear_strand_range():
    assert lo_hi(linear_strand_range(1, 0, 3)) == (1, 2)
    assert lo_hi(linear_strand_range(2, 0, 3)) == (1, 5)
    assert lo_hi(linear_strand_range(2, 1, 4)) == (2, 9)
    assert linear_strand_range(1, 0, 3).valid
    assert not linear_strand_range(1, 2, 3).valid  # d < b + 2


def test_kp0_strand():
    assert lo_hi(kp0_exact(1, 0, 3)) == (0, 0)
    assert lo_hi(kp0_exact(2, 1, 3)) == (0, 2)
    assert lo_hi(kp0_exact(3, 2, 4)) == (0, 9)


def test_kpn_strand():
    assert lo_hi(kpn_exact(2, 0, 3)) == (7, 7)
    assert lo_hi(kpn_exact(1, 0, 3)) == (1, 2)
    assert not kpn_exact(2, 1, 3).valid


def test_kpn_coincides_with_sharp_at_top_strand():
    rng = random.Random(55)
    for _ in range(60):
        n = rng.randrange(1, 5)
        b = rng.randrange(0, 3)
        d = rng.randrange(b + n + 1, b + n + 9)
        assert lo_hi(sharp_range(n, b, d, n)) == lo_hi(kpn_exact(n, b, d))


def test_kpn_and_surface_anchor_keep_their_closed_forms():
    # both are sharp_range under another name: in every regime, their
    # endpoints, validity and regime are their own closed forms
    for n in range(1, 4):
        for b in range(3):
            for d in range(1, b + n + 4):
                v = binom_safe(d + n, n)
                r = kpn_exact(n, b, d)
                valid = d >= b + n + 1
                assert (r.source, r.q, r.lo, r.hi, r.valid, r.regime) == (
                    "kpn", n, v - binom_safe(d - b - 1, n) - n, v - n - 1, valid,
                    REGIME_PROVED if valid else REGIME_OUTSIDE), (n, b, d)
    for d in range(1, 10):
        r = surface_q2_anchor(d)
        r_d = binom_safe(d + 2, 2) - 1
        assert (r.source, r.q, r.lo, r.hi, r.valid, r.regime) == (
            "surface_q2_anchor", 2, 3 * d - 2, r_d - 2, d >= 3,
            REGIME_PROVED if d >= 3 else REGIME_OUTSIDE), d


def test_kpn1_strand_is_empty():
    r = kpn1_exact(2, 0, 3)
    assert r.is_empty and r.valid
    assert not kpn1_exact(2, 0, 2).valid


def test_surface_anchor_matches_sharp():
    for d in range(3, 9):
        assert lo_hi(surface_q2_anchor(d)) == lo_hi(sharp_range(2, 0, d, 2))
    assert lo_hi(surface_q2_anchor(3)) == (7, 7)
    assert not surface_q2_anchor(2).valid


def test_linearity_zero_oracle():
    assert linearity_zero_oracle(2, 5, 3, 2)
    assert linearity_zero_oracle(2, 5, 5, 3)
    assert not linearity_zero_oracle(2, 5, 0, 2)
    assert not linearity_zero_oracle(2, 5, 6, 2)
    assert not linearity_zero_oracle(2, 5, 3, 1)


def test_duality_pair_involution_and_validity():
    rng = random.Random(56)
    for _ in range(200):
        n = rng.randrange(1, 5)
        b = rng.randrange(0, 4)
        d = rng.randrange(1, 12)
        p = rng.randrange(0, 10)
        q = rng.randrange(0, n + 1)
        b2 = dual_b(n, b, d)
        # the dual twist is a twist exactly in the duality regime
        assert (b2 >= 0) == (d >= n + 1 + b)
        if b2 >= 0:
            assert dual_b(n, b2, d) == b
            p2, q2 = dual_cell_coords(n, b, d, p, q)
            assert dual_cell_coords(n, b2, d, p2, q2) == (p, q)


def test_range_validation_errors():
    with pytest.raises(ValueError):
        sharp_range(2, 0, 3, 0)
    with pytest.raises(ValueError):
        sharp_range(2, 0, 3, 3)
    with pytest.raises(ValueError):
        direct_range(2, 0, 3, 1)
    with pytest.raises(ValueError):
        kp0_exact(0, 0, 3)
    with pytest.raises(ValueError):
        linear_strand_range(1, -1, 3)


def test_empty_range_semantics():
    r = PredictedRange("x", 1, 3, 2, True, REGIME_PROVED)
    assert r.is_empty
    assert not r.contains(3)
    assert r.to_dict()["empty"] is True


def test_all_ranges_inventory():
    sources = [r.source for r in all_ranges(2, 0, 3)]
    assert sources.count("sharp") == 2
    assert "surface_q2_anchor" in sources
    assert "kpn1" in sources
    assert "surface_q2_anchor" not in [r.source for r in all_ranges(2, 1, 3)]


# ----------------------------------------------------- report against tables

def test_report_on_clean_tables():
    for (n, b, d) in [(1, 0, 3), (1, 1, 3), (1, 0, 4), (1, 1, 4), (2, 0, 2)]:
        report = compare_report(betti_table(n, b, d))
        assert report.ok, (n, b, d, [s.to_dict() for s in report.strands])
        assert report.linearity_violations == []
        for strand in report.strands:
            assert strand.candidates == []


def test_report_exactness_verdicts():
    report = compare_report(betti_table(1, 0, 3))
    by_q = {s.q: s for s in report.strands}
    assert by_q[0].exact_expected and by_q[0].required_ok
    assert by_q[0].computed_nonzero == [0]
    assert by_q[1].required.source == "sharp"
    assert by_q[1].exact_expected  # q = n strand here
    assert by_q[1].computed_nonzero == [1, 2]
    assert by_q[2].required_ok     # empty top strand


def test_report_flags_zeroed_proved_cell():
    table = betti_table(1, 0, 3)
    cells = dict(table.cells)
    cells[(1, 1)] = cells[(1, 1)].replace(dim=0)
    tampered = BettiTable(1, 0, 3, table.p_range, table.q_range, cells, {})
    report = compare_report(tampered)
    assert not report.ok
    bad = [s for s in report.strands if s.q == 1][0]
    assert not bad.required_ok
    assert "computed as zero: [1]" in bad.note


def test_report_flags_extra_nonzero_in_exact_strand():
    table = betti_table(1, 0, 3)
    cells = dict(table.cells)
    cells[(0, 1)] = cells[(0, 1)].replace(dim=4)
    tampered = BettiTable(1, 0, 3, table.p_range, table.q_range, cells, {})
    report = compare_report(tampered)
    assert not report.ok
    bad = [s for s in report.strands if s.q == 1][0]
    assert "outside the proved-exact" in bad.note


def test_report_flags_linearity_violation():
    table = betti_table(1, 0, 3)
    cells = dict(table.cells)
    cells[(1, 2)] = cells[(1, 2)].replace(dim=1)
    tampered = BettiTable(1, 0, 3, table.p_range, table.q_range, cells, {})
    report = compare_report(tampered)
    assert not report.ok
    assert report.linearity_violations == [[1, 2, 1]]


def test_report_flags_uncomputed_required_cells():
    table = betti_table(1, 0, 3)
    cells = {pq: c for pq, c in table.cells.items() if pq != (2, 1)}
    partial = BettiTable(1, 0, 3, table.p_range, table.q_range, cells, {})
    report = compare_report(partial)
    assert not report.ok
    bad = [s for s in report.strands if s.q == 1][0]
    assert "not computed: [(2" in bad.note or "not computed: [2]" in bad.note


def test_report_on_window_skips_absent_strands():
    window = betti_table(1, 0, 3, q_range=(1, 1))
    report = compare_report(window)
    assert [s.q for s in report.strands] == [1]
    assert report.ok
