"""The fixed 3x3 self-dual system that satisfies the coefficient identity
yet admits no commuting-pair certificate (the diameter-2 boundary case).

Everything here is exact over Q.  The module recomputes the six spectral
projections by their definition, the product formula
realization.primitive_idempotents, on the dense 3 x 3 A and A*: the
verdicts read closed forms instead, but at n = 3 the definition is the
plainest route.  It compares the projections entrywise with their known
values.  On them it checks the tridiagonal patterns and extracts the
bilinear coefficient forms of the certificate equation
W_star W A_star = A W_star W in the eigenprojection coefficients
(g_0, g_1, g_2) and (g*_0, g*_1, g*_2), matches the five known entry
equations up to their recorded scales, and then mechanizes the
elimination that forces g_0 g*_0 = 0: a contradiction with
invertibility.

The elimination genuinely uses the nonvanishing of the coefficients.  The
form g_0 g*_0 is NOT in the plain linear span of the five entry forms
(the exact rank test jumps from 5 to 6); the literal span test is still
run and reported so the distinction stays visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from . import linalg
from .errors import MismatchAtEntry
from .exactfield import Rationals
from .realization import primitive_idempotents

_Q = Rationals()


def _mat(rows):
    return [[_Q(x) for x in row] for row in rows]


def base_matrices():
    """The fixed pair: A lower bidiagonal, A_star upper bidiagonal, eigenvalues 1, 2, 5."""
    a = _mat([[1, 0, 0], [1, 2, 0], [0, 1, 5]])
    a_star = _mat([["1", "-1", "0"], ["0", "2", "-9"], ["0", "0", "5"]])
    eigs = [_Q(1), _Q(2), _Q(5)]
    return a, a_star, eigs


EXPECTED_E = (
    (("1", "0", "0"), ("-1", "0", "0"), ("1/4", "0", "0")),
    (("0", "0", "0"), ("1", "1", "0"), ("-1/3", "-1/3", "0")),
    (("0", "0", "0"), ("0", "0", "0"), ("1/12", "1/3", "1")),
)
EXPECTED_E_STAR = (
    (("1", "1", "9/4"), ("0", "0", "0"), ("0", "0", "0")),
    (("0", "-1", "-3"), ("0", "1", "3"), ("0", "0", "0")),
    (("0", "0", "3/4"), ("0", "0", "-3"), ("0", "0", "1")),
)

# Entry equations of the certificate identity, as coefficient matrices
# C[i][j] of g_i g*_j, in normalized form, with the exact scale
# relating the raw extracted entry form to the normalized one.
KNOWN_FORMS = {
    (2, 2): ("3", (("0", "0", "0"), ("0", "0", "1"), ("0", "-1", "0"))),
    (2, 1): ("1/12", (("0", "0", "-3"), ("0", "0", "4"), ("0", "-12", "-1"))),
    (2, 0): ("1/12", (("0", "3", "-3"), ("0", "0", "4"), ("0", "-3", "-1"))),
    (0, 1): ("1/16", (("-9", "-4", "-3"), ("0", "0", "0"), ("9", "-12", "3"))),
    (1, 0): ("1/16", (("-9", "0", "9"), ("-4", "0", "-12"), ("-3", "0", "3"))),
}
KNOWN_ORDER = ((2, 2), (2, 1), (2, 0), (0, 1), (1, 0))


@dataclass
class EliminationStep:
    description: str
    relation: str


@dataclass
class CounterexampleReport:
    """What counterexample_d2 computed.  A projection that does not match
    its known value, an extracted form off its known equation and a failed
    elimination step each raise MismatchAtEntry before the report is
    built, so only the pattern check can read no."""

    patterns_hold: bool
    form_scales: dict
    rank_five_forms: int
    rank_with_g0g0star: int
    g0g0star_in_span: bool
    elimination_steps: list = dc_field(default_factory=list)

    @property
    def ok(self):
        return self.patterns_hold


def tridiagonal_patterns_hold(a, a_star, e_set, estar_set):
    """E*_i A E*_j and E_i A* E_j vanish iff |i-j| > 1 and are nonzero at |i-j| = 1."""
    for outer, inner in ((estar_set, a), (e_set, a_star)):
        for i in range(3):
            for j in range(3):
                prod = linalg.mat_mul(linalg.mat_mul(outer[i], inner), outer[j])
                vanished = linalg.is_zero_matrix(prod)
                if abs(i - j) > 1 and not vanished:
                    return False
                if abs(i - j) == 1 and vanished:
                    return False
    return True


def certificate_forms(a, a_star, e_set, estar_set):
    """Coefficient matrix of g_i g*_j for each entry of W* W A* - A W* W.

    W = sum g_i E_i and W* = sum g*_j E*_j, so the (r, c) entry of the
    certificate equation is the bilinear form with coefficient
    [E*_j E_i A* - A E*_j E_i]_(r, c) on g_i g*_j; evaluating at unit
    coefficient vectors reads the matrix off directly.
    """
    forms = {}
    for i in range(3):
        for j in range(3):
            prod = linalg.mat_mul(estar_set[j], e_set[i])
            diff = linalg.mat_sub(linalg.mat_mul(prod, a_star),
                                  linalg.mat_mul(a, prod))
            for r in range(3):
                for c in range(3):
                    forms.setdefault((r, c), [[None] * 3 for _ in range(3)])
                    forms[(r, c)][i][j] = diff[r][c]
    return forms


def _substitute_g(form, var, target, coef):
    """Rewrite the form under g_var = coef * g_target (rows move)."""
    out = [row[:] for row in form]
    for j in range(3):
        out[target][j] = out[target][j] + coef * out[var][j]
        out[var][j] = _Q(0)
    return out


def _outer(gvec, hvec):
    return [[gi * hj for hj in hvec] for gi in gvec]


def _expect(label, got, expected):
    if got != expected:
        for i in range(3):
            for j in range(3):
                if got[i][j] != expected[i][j]:
                    raise MismatchAtEntry(label, (i, j), str(got[i][j]),
                                          str(expected[i][j]))
    return True


def run_elimination(norm):
    """The exact deduction chain from the five entry forms to g0 g*_0 = 0.

    Each step is an asserted matrix identity followed by a division by one
    coefficient that invertibility forces to be nonzero.
    """
    q = _Q
    steps = []
    f22, f21, f20, f01, f10 = (norm[k] for k in KNOWN_ORDER)

    step1 = linalg.mat_sub(f20, f21)
    _expect("step1", step1, _outer([q(3), q(0), q(9)], [q(0), q(1), q(0)]))
    steps.append(EliminationStep(
        "entry(2,0) form minus entry(2,1) form equals 3*(g0 + 3*g2)*g*1",
        "g*1 != 0, so g0 = -3*g2"))

    step2 = _substitute_g(f01, 0, 2, q(-3))
    _expect("step2", step2, _outer([q(0), q(0), q(1)], [q(36), q(0), q(12)]))
    steps.append(EliminationStep(
        "entry(0,1) form under g0 = -3*g2 equals 12*g2*(3*g*0 + g*2)",
        "g2 != 0, so g*2 = -3*g*0"))

    step3 = _substitute_g(f21, 0, 2, q(-3))
    step3 = linalg.mat_sub(step3, linalg.mat_scale(q(12), f22))
    _expect("step3", step3, _outer([q(0), q(-8), q(8)], [q(0), q(0), q(1)]))
    steps.append(EliminationStep(
        "entry(2,1) form under g0 = -3*g2, minus 12 times the entry(2,2) "
        "form, equals 8*(g2 - g1)*g*2",
        "g*2 != 0, so g1 = g2"))

    step4 = _substitute_g(f22, 1, 2, q(1))
    _expect("step4", step4, _outer([q(0), q(0), q(1)], [q(0), q(-1), q(1)]))
    steps.append(EliminationStep(
        "entry(2,2) form under g1 = g2 equals g2*(g*2 - g*1)",
        "g2 != 0, so g*1 = g*2"))

    step5 = _substitute_g(f10, 0, 2, q(-3))
    step5 = _substitute_g(step5, 1, 2, q(1))
    _expect("step5", step5, _outer([q(0), q(0), q(1)], [q(20), q(0), q(-36)]))
    steps.append(EliminationStep(
        "entry(1,0) form under g0 = -3*g2 and g1 = g2 equals "
        "g2*(20*g*0 - 36*g*2)",
        "g2 != 0, so 20*g*0 = 36*g*2"))

    # combine: 20*g*0 = 36*g*2 and g*2 = -3*g*0 force 128*g*0 = 0
    combined = q(20) - q(36) * q(-3)
    if combined != q(128):
        raise MismatchAtEntry("step6", (0, 0), str(combined), "128")
    steps.append(EliminationStep(
        "substituting g*2 = -3*g*0 into 20*g*0 = 36*g*2 gives 128*g*0 = 0",
        "so g*0 = 0 and g0*g*0 = 0, contradicting invertibility"))
    return steps


def counterexample_d2():
    """Recompute, match, and certify the diameter-2 boundary example."""
    a, a_star, eigs = base_matrices()
    e_set = primitive_idempotents(a, eigs, _Q)
    estar_set = primitive_idempotents(a_star, eigs, _Q)

    expected_e = [_mat(m) for m in EXPECTED_E]
    expected_estar = [_mat(m) for m in EXPECTED_E_STAR]
    for label, got, want in (("E", e_set, expected_e),
                             ("E_star", estar_set, expected_estar)):
        for k in range(3):
            _expect(f"{label}{k}", got[k], want[k])
    patterns = tridiagonal_patterns_hold(a, a_star, e_set, estar_set)

    forms = certificate_forms(a, a_star, e_set, estar_set)
    scales = {key: _Q(KNOWN_FORMS[key][0]) for key in KNOWN_ORDER}
    normalized = {key: _mat(KNOWN_FORMS[key][1]) for key in KNOWN_ORDER}
    for key in KNOWN_ORDER:
        if forms[key] != linalg.mat_scale(scales[key], normalized[key]):
            raise MismatchAtEntry(f"form{key}", key, "extracted", "scaled known")

    five_flat = [linalg.flatten(normalized[k]) for k in KNOWN_ORDER]
    g0g0 = [_Q(0)] * 9
    g0g0[0] = _Q(1)
    rank_five = linalg.rank(five_flat)
    rank_six = linalg.rank(five_flat + [g0g0])
    in_span = rank_five == rank_six

    steps = run_elimination(normalized)

    return CounterexampleReport(
        patterns_hold=patterns,
        form_scales=scales,
        rank_five_forms=rank_five,
        rank_with_g0g0star=rank_six,
        g0g0star_in_span=in_span,
        elimination_steps=steps)


def render_report(report):
    lines = ["counterexample:"]
    lines.append("  idempotents_match = yes")
    lines.append(f"  tridiagonal_patterns = {'yes' if report.patterns_hold else 'no'}")
    lines.append("  E_star0 row 0 = " + ", ".join(EXPECTED_E_STAR[0][0]))
    lines.append("forms:")
    for key in KNOWN_ORDER:
        lines.append(f"  entry{key} matches known equation, scale = "
                     f"{report.form_scales[key]}")
    lines.append("span_test:")
    lines.append(f"  rank of five forms = {report.rank_five_forms}")
    lines.append(f"  rank with g0*g0star = {report.rank_with_g0g0star}")
    lines.append("  g0*g0star in linear span of five forms: "
                 + ("yes" if report.g0g0star_in_span else "no"))
    lines.append("elimination:")
    for k, step in enumerate(report.elimination_steps, 1):
        lines.append(f"  step{k}: {step.description}")
        lines.append(f"         {step.relation}")
    lines.append("  g0*g0star vanishes given invertibility: yes")
    lines.append("conclusion: certificate pair impossible, no spin")
    return "\n".join(lines) + "\n"
