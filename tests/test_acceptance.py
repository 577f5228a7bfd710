"""Acceptance criteria, one test per numbered criterion.

Each test states its claim in terms of exact equalities; expected values
come either from closed forms evaluated right here or from the independent
brute-force oracles in helpers.py.  The stretch computation (criterion 10)
is marked slow so it can be deselected with -m "not slow".
"""

import math
import random
import time

import pytest

import conftest
from syzlab.betti import (
    LEVEL_EXACT,
    LEVEL_TWO_PRIME,
    betti_table,
    cell_result,
    check_duality,
    euler_check,
    kpq_dim,
    make_config,
)
from syzlab.bounds import (
    compare_report,
    direct_range,
    kp0_exact,
    kpn1_exact,
    kpn_exact,
    sharp_range,
    surface_q2_anchor,
)
from syzlab.cli import main as cli_main
from syzlab.cycles import build_kp0_cycle, verify_nonzero_class
from syzlab.koszul import Parameters
from syzlab.schur import schur_multiplicities, weyl_dim

from helpers import (
    AllWeightsStarCell,
    all_weights_cell,
    brute_hilbert_numerator,
    full_complex,
    kpq_dim_unblocked,
    lo_hi,
    to_dense,
)

# every full table the criteria below share (memoized in the tables fixture)
ACCEPTANCE_TABLES = [
    (1, 0, 2), (1, 0, 3), (1, 1, 3), (1, 0, 4), (1, 2, 4), (1, 1, 4),
    (2, 0, 3), (3, 0, 2),
]


def test_criterion_01_rational_curve_strands():
    """dim K_{p,1}(P^1, 0; d) = p * binom(d, p+1), cross-checked against the
    alternating-sum recursion, for d = 2..6 in under ten seconds."""
    t0 = time.monotonic()
    for d in range(2, 7):
        table = betti_table(1, 0, d)
        coeffs = brute_hilbert_numerator(1, 0, d, d + 3)
        for p in range(0, d + 1):
            closed_form = p * math.comb(d, p + 1)
            assert table.dim(p, 1) == closed_form, (d, p)
            if p >= 1:
                # the closed form equals the independent series coefficient
                assert closed_form == (-1) ** p * coeffs[p + 1], (d, p)
        assert table.nonzero_p(0) == [0] and table.dim(0, 0) == 1
        assert table.nonzero_p(2) == []
    assert time.monotonic() - t0 < 10.0


def test_criterion_02_cubic_veronese_surface():
    """K_{7,2}(P^2, 0; 3) = 1 with two independent primes agreeing, and the
    q = 2 strand is empty through p = 3; all in under five minutes."""
    t0 = time.monotonic()
    config = make_config()
    top = cell_result(2, 0, 3, 7, 2, config)
    assert top.dim == 1
    assert top.agreement is True
    assert top.level in (LEVEL_EXACT, LEVEL_TWO_PRIME)
    assert len(top.primes) == 2
    for p in range(0, 4):
        res = cell_result(2, 0, 3, p, 2, config)
        assert res.dim == 0, p
        assert res.agreement is True
    assert time.monotonic() - t0 < 300.0


def test_criterion_03_closed_form_ranges(tables):
    # the curve strand range equals the support of the closed form, 40 degrees
    for d in range(2, 42):
        support = [p for p in range(0, d + 1) if p * math.comb(d, p + 1) > 0]
        assert (support[0], support[-1]) == (1, d - 1)
        assert lo_hi(sharp_range(1, 0, d, 1)) == (1, d - 1)
    # boundary-strand identities across the proved regime (128 parameter sets)
    cases = 0
    for n in range(1, 5):
        for b in range(0, 4):
            for d in range(b + n + 1, b + n + 9):
                assert lo_hi(kpn_exact(n, b, d)) == \
                    lo_hi(sharp_range(n, b, d, n))
                top = kpn1_exact(n, b, d)
                assert top.is_empty and top.valid
                assert lo_hi(kp0_exact(n, b, d)) == \
                    (0, math.comb(n + b, n) - 1)
                for q in range(2, n + 1):
                    assert direct_range(n, b, d, q).lo == \
                        sharp_range(n, b, d, q).lo
                cases += 1
    assert cases == 128
    for d in range(3, 12):
        assert lo_hi(surface_q2_anchor(d)) == \
            lo_hi(sharp_range(2, 0, d, 2))
    # every computed acceptance table satisfies every proved statement
    for (n, b, d) in ACCEPTANCE_TABLES:
        report = compare_report(tables(n, b, d))
        assert report.ok, (n, b, d, [s.to_dict() for s in report.strands])
        assert report.linearity_violations == []


def test_criterion_04_duality(tables):
    pairs = [((1, 0, 3), (1, 1, 3)), ((1, 0, 4), (1, 2, 4))]
    for left, right in pairs:
        rep = check_duality(tables(*left), tables(*right))
        assert rep.ok, (left, right, rep.mismatches)
        rep = check_duality(tables(*right), tables(*left))
        assert rep.ok, (right, left, rep.mismatches)
    for nbd in [(1, 1, 4), (2, 0, 3)]:
        rep = check_duality(tables(*nbd))
        assert rep.ok, (nbd, rep.mismatches)


def test_criterion_05_euler(tables):
    for (n, b, d) in [(1, 0, 3), (1, 1, 3), (1, 0, 4), (1, 1, 4),
                      (2, 0, 3), (3, 0, 2)]:
        table = tables(n, b, d)
        report = euler_check(table)
        assert report.ok, (n, b, d, report.nonzero_residuals())
        jmax = table.r_d + n + 2
        assert [report.coefficients[j] for j in range(jmax + 1)] == \
            brute_hilbert_numerator(n, b, d, jmax), (n, b, d)
    # two classical spot values for the series coefficients
    assert euler_check(tables(2, 0, 3)).coefficients[2] == -27
    assert euler_check(tables(3, 0, 2)).coefficients[2] == -20


def test_criterion_06_boundary_strands(tables):
    for (n, b, d) in ACCEPTANCE_TABLES:
        table = tables(n, b, d)
        r0 = kp0_exact(n, b, d)
        assert r0.valid
        assert table.nonzero_p(0) == list(range(r0.lo, r0.hi + 1)), (n, b, d)
        if d >= b + n + 1:
            rn = kpn_exact(n, b, d)
            assert table.nonzero_p(n) == list(range(rn.lo, rn.hi + 1)), (n, b, d)
            assert table.nonzero_p(n + 1) == [], (n, b, d)


def test_criterion_07_schur_plethysm():
    """K_{1,1}(P^2, 0; 2) is one copy of the partition-(2,2) irreducible; the
    oracle is the classical splitting of Sym^2(Sym^2) into Sym^4 plus (2,2)."""
    m = schur_multiplicities(2, 0, 2, 1, 1)
    assert dict(m.entries) == {(2, 2): 1}
    sym2_of_sym2 = math.comb(6 + 1, 2)      # Sym^2 of a 6-dimensional space
    s4 = weyl_dim((4,), 3)
    s22 = weyl_dim((2, 2), 3)
    assert sym2_of_sym2 == s4 + s22 == 21
    assert m.total_dim == sym2_of_sym2 - s4 == kpq_dim(2, 0, 2, 1, 1) == 6
    # nonnegative multiplicities recomposing to the Betti number, more cells
    for (n, b, d, p, q) in [(1, 0, 3, 2, 1), (2, 0, 3, 1, 1),
                            (1, 1, 4, 1, 0), (2, 1, 3, 1, 1)]:
        dec = schur_multiplicities(n, b, d, p, q)
        assert all(v > 0 for v in dec.entries.values())
        recomposed = sum(v * weyl_dim(lam, n + 1)
                         for lam, v in dec.entries.items())
        assert recomposed == dec.total_dim == kpq_dim(n, b, d, p, q), \
            (n, b, d, p, q)
    # every weight block contributes as its dominant rearrangement's (the
    # all-weights oracle asserts it), and they add up to the Betti number
    assert all_weights_cell(2, 0, 2, 1, 1, make_config(), AllWeightsStarCell)["dim"] == 6
    # nonvanishing is stable in the ambient dimension n once n >= p
    assert [kpq_dim(n, 0, 3, 2, 1) for n in (2, 3, 4)] == [105, 1200, 7645]


def test_criterion_08_cycle_strand_sweep(session_store):
    """Every cell of every q = 0 strand with n <= 2, b <= 2, d <= 5 carries an
    explicitly constructed nonzero cycle, and the strand stops exactly where
    the construction runs out of distinct monomials."""
    config = make_config()
    checked = 0
    for n in (1, 2):
        for b in (0, 1, 2):
            count = math.comb(n + b, n)
            for d in range(b + 1, 6):
                for p in range(0, count):
                    chain = build_kp0_cycle(n, b, d, p)
                    rep = verify_nonzero_class(chain)
                    assert rep.certifies_nonvanishing, (n, b, d, p)
                    assert kpq_dim(n, b, d, p, 0, config, session_store) >= 1, \
                        (n, b, d, p)
                    checked += 1
                with pytest.raises(ValueError):
                    build_kp0_cycle(n, b, d, count)
            # the vanishing boundary, checked once per strand shape
            assert kpq_dim(n, b, b + 1, count, 0, config, session_store) == 0, \
                (n, b)
    assert checked == 57


def test_criterion_09_metamorphic(tables, capsys):
    rng = random.Random(91)
    # d_out . d_in = 0 over the integers on random small cells
    for _ in range(4):
        n = rng.randrange(1, 3)
        par = Parameters(n, rng.randrange(0, 2), rng.randrange(1, 3),
                         rng.randrange(0, 3), rng.randrange(0, 3))
        d_in, d_out, mid = full_complex(par)
        a, bm = to_dense(d_out), to_dense(d_in)
        for i in range(d_out.rows):
            for j in range(d_in.cols):
                assert sum(a[i][k] * bm[k][j] for k in range(mid)) == 0, par
    # weight decomposition changes nothing
    for (n, b, d, p, q) in [(1, 0, 3, 2, 1), (2, 0, 2, 1, 1),
                            (1, 1, 3, 1, 1), (2, 1, 2, 2, 1)]:
        assert kpq_dim(n, b, d, p, q) == kpq_dim_unblocked(n, b, d, p, q)
    # permuting variables permutes weights without changing block dimensions:
    # the all-weights oracle asserts it on every weight of these cells
    config = make_config()
    for cell in [(2, 0, 2, 1, 1), (2, 1, 2, 2, 1)]:
        assert all_weights_cell(*cell, config, AllWeightsStarCell)["dim"] == \
            kpq_dim(*cell, config), cell
    # both primes agreed on every cell of every acceptance table
    for nbd in ACCEPTANCE_TABLES:
        for cell in tables(*nbd).cells.values():
            assert cell.agreement, (nbd, cell.p, cell.q)
    # CLI output is byte-identical across reruns
    argv = ["kpq", "--n", "1", "--b", "0", "--d", "3", "--p", "2", "--q", "1",
            "--no-cache"]
    assert cli_main(list(argv)) == 0
    first = capsys.readouterr().out
    assert cli_main(list(argv)) == 0
    assert capsys.readouterr().out == first


@pytest.mark.slow
def test_criterion_10_stretch_quartic_surface(session_store):
    """The whole Betti table of (n, b, d) = (2, 0, 4), r_d = 14: all 60
    cells, p in [0, 14] on the four strands.  It passes the Euler identity
    and every proved strand statement; the q = 2 strand starts and stops
    exactly where the closed form says, and the high-p tail matches its
    twisted dual."""
    config = make_config()
    t0 = time.monotonic()
    table = betti_table(2, 0, 4, config=config, store=session_store)
    assert not table.failures and not table.missing_cells()
    dims = {pq: cell.dim for pq, cell in table.cells.items()}
    assert len(dims) == 60
    max_block = max(cell.max_block_dim for cell in table.cells.values())
    for (p, q), cell in table.cells.items():
        assert cell.agreement, (p, q)
    window_p = range(0, 15)
    report = euler_check(table)
    assert report.ok, report.nonzero_residuals()
    bounds = compare_report(table)
    assert bounds.ok, [s.to_dict() for s in bounds.strands]
    assert all(s.required_ok for s in bounds.strands)
    assert bounds.linearity_violations == []
    # q = 0: the single generator
    for p in window_p:
        assert dims[(p, 0)] == (1 if p == 0 else 0), p
    # q = 1: nonzero throughout the proved range
    assert lo_hi(sharp_range(2, 0, 4, 1)) == (1, 10)
    for p in window_p:
        if 1 <= p <= 10:
            assert dims[(p, 1)] > 0, p
    # q = 2 = n: exact on both sides of the proved window
    assert lo_hi(sharp_range(2, 0, 4, 2)) == (10, 12)
    for p in window_p:
        assert (dims[(p, 2)] > 0) == (10 <= p <= 12), p
    # q = 3 = n + 1: identically zero
    for p in window_p:
        assert dims[(p, 3)] == 0, p
    # the high tail equals its twisted dual (companion twist b' = 1)
    for p in range(9, 15):
        for q in range(0, 3):
            p2, q2 = 12 - p, 2 - q
            if p2 >= 0:
                comp = cell_result(2, 1, 4, p2, q2, config, session_store)
                assert dims[(p, q)] == comp.dim, (p, q, p2, q2)
            else:
                assert dims[(p, q)] == 0, (p, q)
    elapsed = time.monotonic() - t0
    conftest.notes[10] = (
        f"wall {elapsed:.0f}s, max block dim {max_block}, {len(dims)} cells"
    )
