"""Closed-form predictions for the nonvanishing ranges of K_{p,q}(P^n, b; d).

Each evaluator returns a PredictedRange [lo, hi] of p values in a strand q,
tagged with its validity regime:

  sharp_range        two-sided range for 1 <= q <= n, proved for
                     d >= b + n + 1 and conjectured to be the exact
                     nonvanishing set already for d >= b + q + 1;
  direct_range       same lower bound with a weaker upper bound, proved
                     directly for 2 <= q <= n once d >= b + q + 1;
  linear_strand_range  the q = 1 strand, proved for d >= b + 2;
  kp0_exact          the q = 0 strand, exactly [0, binom(n+b, n) - 1]
                     for d >= b + 1;
  kpn_exact          the q = n strand where the sharp range is exact,
                     for d >= b + n + 1;
  kpn1_exact         the q = n + 1 strand, empty for d >= b + n + 1.

All endpoints are pure binomial arithmetic (binom = 0 out of range), so they
evaluate for enormous d.  compare_report confronts the predictions with a
computed table: containment failures inside a proved regime signal an engine
bug, while nonzero cells outside a conjecturally-exact range are surfaced as
counterexample candidates, not errors.
"""

from __future__ import annotations

from .arith import binom_safe
from .betti import BettiTable
from .koszul import check_nbd
from .records import FrozenRecord, Record, set_field

REGIME_PROVED = "proved"
REGIME_CONJECTURED = "conjectured"
REGIME_OUTSIDE = "outside"


class PredictedRange(FrozenRecord):
    """Closed interval [lo, hi] of p where a strand is predicted nonzero."""

    _fields = ("source", "q", "lo", "hi", "valid", "regime")

    def __init__(self, source: str, q: int, lo: int, hi: int, valid: bool, regime: str):
        set_field(self, "source", source)
        set_field(self, "q", q)
        set_field(self, "lo", lo)
        set_field(self, "hi", hi)
        set_field(self, "valid", valid)
        set_field(self, "regime", regime)

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    def contains(self, p: int) -> bool:
        return self.lo <= p <= self.hi

    def to_dict(self) -> dict:
        return {
            "source": self.source, "q": self.q, "lo": self.lo, "hi": self.hi,
            "valid": self.valid, "regime": self.regime, "empty": self.is_empty,
        }


def sharp_range(n: int, b: int, d: int, q: int) -> PredictedRange:
    """The two-sided nonvanishing range for an interior strand 1 <= q <= n.

    lo = binom(d+q, q) - binom(d-b-1, q) - q
    hi = binom(d+n, n) - binom(d+n-q, n-q) + binom(n+b, n-q) - q - 1
    """
    check_nbd(n, b, d)
    if not 1 <= q <= n:
        raise ValueError(f"sharp_range needs 1 <= q <= n, got q={q}")
    lo = binom_safe(d + q, q) - binom_safe(d - b - 1, q) - q
    hi = (
        binom_safe(d + n, n)
        - binom_safe(d + n - q, n - q)
        + binom_safe(n + b, n - q)
        - q
        - 1
    )
    if d >= b + n + 1:
        regime = REGIME_PROVED
    elif d >= b + q + 1:
        regime = REGIME_CONJECTURED
    else:
        regime = REGIME_OUTSIDE
    return PredictedRange("sharp", q, lo, hi, regime != REGIME_OUTSIDE, regime)


def direct_range(n: int, b: int, d: int, q: int) -> PredictedRange:
    """Same lower bound as sharp_range with the directly-proved upper bound

    hi = binom(d+n-1, n) + binom(d+q-1, q-1) - binom(d-b-2, q-1) - q

    for 2 <= q <= n, proved once d >= b + q + 1.
    """
    check_nbd(n, b, d)
    if not 2 <= q <= n:
        raise ValueError(f"direct_range needs 2 <= q <= n, got q={q}")
    lo = binom_safe(d + q, q) - binom_safe(d - b - 1, q) - q
    hi = (
        binom_safe(d + n - 1, n)
        + binom_safe(d + q - 1, q - 1)
        - binom_safe(d - b - 2, q - 1)
        - q
    )
    valid = d >= b + q + 1
    return PredictedRange("direct", q, lo, hi, valid,
                          REGIME_PROVED if valid else REGIME_OUTSIDE)


def linear_strand_range(n: int, b: int, d: int) -> PredictedRange:
    """Nonvanishing range [b + 1, binom(d+n-1, n) - 1] of the q = 1 strand,
    proved for d >= b + 2."""
    check_nbd(n, b, d)
    valid = d >= b + 2
    return PredictedRange("linear_strand", 1, b + 1, binom_safe(d + n - 1, n) - 1,
                          valid, REGIME_PROVED if valid else REGIME_OUTSIDE)


def kp0_exact(n: int, b: int, d: int) -> PredictedRange:
    """Exact q = 0 strand: K_{p,0} != 0 iff 0 <= p <= binom(n+b, n) - 1,
    valid for d >= b + 1."""
    check_nbd(n, b, d)
    valid = d >= b + 1
    return PredictedRange("kp0", 0, 0, binom_safe(n + b, n) - 1,
                          valid, REGIME_PROVED if valid else REGIME_OUTSIDE)


def kpn_exact(n: int, b: int, d: int) -> PredictedRange:
    """Exact q = n strand for d >= b + n + 1, sharp_range(n, b, d, n):

    K_{p,n} != 0 iff binom(d+n, n) - binom(d-b-1, n) - n <= p <= binom(d+n, n) - n - 1.
    """
    return sharp_range(n, b, d, n).replace(source="kpn")


def kpn1_exact(n: int, b: int, d: int) -> PredictedRange:
    """The q = n + 1 strand, which is empty for every b >= 0 once
    d >= b + n + 1 (the twisting sheaf dual to O(b) has no sections)."""
    check_nbd(n, b, d)
    valid = d >= b + n + 1
    return PredictedRange("kpn1", n + 1, 0, -1, valid,
                          REGIME_PROVED if valid else REGIME_OUTSIDE)


def surface_q2_anchor(d: int) -> PredictedRange:
    """The q = 2 strand on P^2 with b = 0: nonzero for 3d - 2 <= p <= r_d - 2
    (d >= 3): sharp_range(2, 0, d, 2)."""
    return sharp_range(2, 0, d, 2).replace(source="surface_q2_anchor")


def linearity_zero_oracle(n: int, d: int, p: int, q: int) -> bool:
    """True when K_{p,q}(P^n, 0; d) = 0 is forced because the resolution of
    the b = 0 section ring is linear through the first d steps: q >= 2 and
    1 <= p <= d."""
    check_nbd(n, 0, d)
    return q >= 2 and 1 <= p <= d


class StrandVerdict(Record):
    """Bound-vs-table comparison for one strand."""

    _fields = ("q", "required", "sharp", "computed_nonzero", "required_ok",
               "exact_expected", "candidates", "note")

    def __init__(self, q: int, required: PredictedRange, sharp: PredictedRange,
                 computed_nonzero: list, required_ok: bool, exact_expected: bool,
                 candidates: list, note: str = ""):
        self.q = q
        self.required = required        # range whose containment is proved here (or None)
        self.sharp = sharp              # the conjecturally exact range (or None)
        self.computed_nonzero = computed_nonzero
        self.required_ok = required_ok              # proved containment / exactness held
        self.exact_expected = exact_expected        # strand is proved exactly equal to `required`
        self.candidates = candidates    # nonzero p outside the sharp range (conjecture data)
        self.note = note

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "required": self.required.to_dict() if self.required else None,
            "sharp": self.sharp.to_dict() if self.sharp else None,
            "computed_nonzero": self.computed_nonzero,
            "required_ok": self.required_ok,
            "exact_expected": self.exact_expected,
            "candidates": self.candidates,
            "note": self.note,
        }


class BoundsReport(Record):
    _fields = ("n", "b", "d", "strands", "linearity_violations", "ok")

    def __init__(self, n: int, b: int, d: int, strands: list,
                 linearity_violations: list, ok: bool):
        self.n, self.b, self.d, self.strands = n, b, d, strands
        self.linearity_violations, self.ok = linearity_violations, ok

    def to_dict(self) -> dict:
        return {
            "n": self.n, "b": self.b, "d": self.d,
            "strands": [s.to_dict() for s in self.strands],
            "linearity_violations": self.linearity_violations,
            "ok": self.ok,
        }


def _window_clip(rng: PredictedRange, p_range) -> tuple:
    return max(rng.lo, p_range[0]), min(rng.hi, p_range[1])


def _required_range(n, b, d, q):
    """The strongest containment statement proved at these parameters."""
    sharp = sharp_range(n, b, d, q)
    if sharp.regime == REGIME_PROVED:
        return sharp
    if q == 1:
        lin = linear_strand_range(n, b, d)
        return lin if lin.valid else None
    direct = direct_range(n, b, d, q)
    return direct if direct.valid else None


def compare_report(table: BettiTable) -> BoundsReport:
    """Confront every strand of a computed table with the closed forms.

    `ok` reflects only statements proved in the current regime; data about
    the conjecturally exact ranges is reported but never fails the check.
    """
    n, b, d = table.n, table.b, table.d
    strands = []
    ok = True
    q_lo, q_hi = table.q_range

    def strand_present(q):
        return q_lo <= q <= q_hi

    # q = 0: exactly [0, binom(n+b, n) - 1] whenever d >= b + 1.
    rng0 = kp0_exact(n, b, d)
    nz0 = table.nonzero_p(0)
    if rng0.valid and strand_present(0):
        lo, hi = _window_clip(rng0, table.p_range)
        expected = list(range(lo, hi + 1))
        inside = [p for p in nz0 if table.p_range[0] <= p <= table.p_range[1]]
        good = inside == expected
    else:
        good = True
    if strand_present(0):
        strands.append(StrandVerdict(
            q=0, required=rng0, sharp=rng0, computed_nonzero=nz0,
            required_ok=good, exact_expected=rng0.valid, candidates=[],
            note="" if rng0.valid else "outside validity regime, informational only",
        ))
        ok = ok and good

    for q in range(1, n + 1):
        if not strand_present(q):
            continue
        sharp = sharp_range(n, b, d, q)
        required = _required_range(n, b, d, q)
        nz = table.nonzero_p(q)
        good = True
        note = ""
        if required is not None:
            lo, hi = _window_clip(required, table.p_range)
            span = list(range(lo, hi + 1))
            missing = [p for p in span if table.has_cell(p, q) and table.dim(p, q) == 0]
            unknown = [p for p in span if not table.has_cell(p, q)]
            good = not missing and not unknown
            if missing:
                note = f"proved-nonzero cells computed as zero: {missing}"
            if unknown:
                note = (note + "; " if note else "") + f"cells not computed: {unknown}"
            exact_here = required.source == "sharp" and q == n
            if exact_here:
                extras = [p for p in nz if not required.contains(p)]
                if extras:
                    good = False
                    note = (note + "; " if note else "") + (
                        f"nonzero outside the proved-exact q=n range: {extras}"
                    )
        else:
            note = "outside every proved regime, informational only"
        candidates = [p for p in nz if not sharp.contains(p)] if sharp.valid and q < n else []
        ok = ok and good
        strands.append(StrandVerdict(
            q=q, required=required, sharp=sharp, computed_nonzero=nz,
            required_ok=good,
            exact_expected=(required is not None and required.source == "sharp" and q == n),
            candidates=candidates, note=note,
        ))

    if strand_present(n + 1):
        rng_top = kpn1_exact(n, b, d)
        nz_top = table.nonzero_p(n + 1)
        good_top = not (rng_top.valid and nz_top)
        ok = ok and good_top
        strands.append(StrandVerdict(
            q=n + 1, required=rng_top, sharp=rng_top, computed_nonzero=nz_top,
            required_ok=good_top, exact_expected=rng_top.valid, candidates=[],
            note="" if good_top else "strand should vanish identically",
        ))

    linearity_violations = []
    if b == 0:
        for (p, q), cell in sorted(table.cells.items()):
            if cell.dim and linearity_zero_oracle(n, d, p, q):
                linearity_violations.append([p, q, cell.dim])
        ok = ok and not linearity_violations

    return BoundsReport(n=n, b=b, d=d, strands=strands,
                        linearity_violations=linearity_violations, ok=ok)


def all_ranges(n: int, b: int, d: int) -> list:
    """Every closed-form range at (n, b, d), for display."""
    out = [kp0_exact(n, b, d)]
    if n >= 1:
        out.append(linear_strand_range(n, b, d))
    for q in range(1, n + 1):
        out.append(sharp_range(n, b, d, q))
    for q in range(2, n + 1):
        out.append(direct_range(n, b, d, q))
    out.append(kpn_exact(n, b, d))
    out.append(kpn1_exact(n, b, d))
    if n == 2 and b == 0:
        out.append(surface_q2_anchor(d))
    return out
