"""The inequality battery: pairwise density comparisons that certify
monochromatic-density lower bounds, plus the small rational functions used
by the doubled-wheel bounds.

Reports are one-sided unless marked as identities.  A report can be
not-applicable (a hypothesis failed or a precondition is outside range),
which is a distinct outcome from a violated inequality.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .decomposition import find_triangle_decomposition
from .density import _signed_entry, m, t_complement, t_hom
from .graphs import (
    Graph,
    apex_add,
    canonical_form,
    catalog,
    connected_bipartite_up_to_5,
    pendant_attach,
)
from .graphons import StepGraphon, _exact_num

INEQ_TOL = 1e-9
IDENTITY_TOL = 1e-12


def _fmt(x):
    if isinstance(x, Fraction):
        return str(x)
    return "%.12g" % float(x)


@dataclass
class InequalityReport:
    name: str
    lhs: object
    rhs: object
    holds: bool
    applicable: bool = True
    identity: bool = False
    witness: object = None
    detail: str = ""

    @property
    def slack(self):
        return self.lhs - self.rhs

    def tsv_row(self) -> str:
        status = "true" if self.holds else "false"
        if not self.applicable:
            status = "na"
        return "\t".join(
            [self.name, status, _fmt(self.slack), _fmt(self.lhs), _fmt(self.rhs)]
        )


def format_reports(reports) -> str:
    lines = ["name\tholds\tslack\tlhs\trhs"]
    lines += [r.tsv_row() for r in reports]
    return "\n".join(lines) + "\n"


def _sides(lhs, rhs):
    """The one choice between exact and float arithmetic in the battery:
    (lhs, rhs, True) when both sides are exact, else both as floats."""
    if _exact_num(lhs) and _exact_num(rhs):
        return lhs, rhs, True
    return float(lhs), float(rhs), False


def _ge(name, lhs, rhs, w=None, tol=INEQ_TOL, detail=""):
    lhs, rhs, exact = _sides(lhs, rhs)
    holds = lhs >= rhs if exact else lhs - rhs >= -tol
    return InequalityReport(name, lhs, rhs, holds, witness=w, detail=detail)


def _identity(name, lhs, rhs, w=None, tol=IDENTITY_TOL, detail=""):
    lhs, rhs, exact = _sides(lhs, rhs)
    holds = lhs == rhs if exact else abs(lhs - rhs) <= tol
    return InequalityReport(name, lhs, rhs, holds, identity=True, witness=w, detail=detail)


def _na(name, w=None, detail=""):
    return InequalityReport(name, 0, 0, holds=True, applicable=False, witness=w, detail=detail)


def check_goodman(w: StepGraphon, tol=IDENTITY_TOL) -> InequalityReport:
    """Triangle density identity: m(K3) = (3/2) m(path-2) - 1/2, exactly."""
    rhs = (3 * m(catalog("k1,2"), w) - 1) / 2
    return _identity("goodman", m(catalog("k3"), w), rhs, w, tol)


def check_holder(h: Graph, j: Graph, f: Graph, k: int, l: int, w: StepGraphon,
                 tol=INEQ_TOL, name=None) -> InequalityReport:
    """If t_h >= t_j^l / t_f^(k-1) holds in both colours, then
    m_h >= 2^(k-l) m_j^l / m_f^(k-1).  Hypotheses are tested first; a failed
    hypothesis or m_f = 0 gives a not-applicable report."""
    if not l >= k >= 1:
        raise ValueError("exponents must satisfy l >= k >= 1")
    name = name or f"holder[k={k},l={l}]"
    for side, dens in (("", t_hom), ("complement", t_complement)):
        th, tj, tf = dens(h, w), dens(j, w), dens(f, w)
        # multiplicative form avoids dividing by a vanishing t_f
        lhs, rhs = th * tf ** (k - 1), tj ** l
        if not _ge("hyp", lhs, rhs, tol=tol).holds:
            return _na(name, w, detail=f"hypothesis failed in {side or 'first'} colour")
    mh, mj, mf = m(h, w), m(j, w), m(f, w)
    if mf <= 0:
        return _na(name, w, detail="m of the denominator graph vanishes")
    return _ge(name, mh, Fraction(2) ** (k - l) * mj ** l / mf ** (k - 1), w, tol)


def _triangle_power_bound(name, dens, g, phi, x, w, tol):
    """t_g >= t_K3^phi / t_K2^x in the colour that dens measures, in the
    multiplicative form t_g t_K2^x >= t_K3^phi when t_K2 vanishes."""
    tg, t_edge, t_tri = dens(g, w), dens(catalog("k2"), w), dens(catalog("k3"), w)
    if t_edge <= 0:
        return _ge(name, tg * t_edge ** x, t_tri ** phi, w, tol,
                   detail="multiplicative form, edge density vanishes")
    return _ge(name, tg, t_tri ** phi / t_edge ** x, w, tol)


def check_jtree_bound(h: Graph, w: StepGraphon, tol=INEQ_TOL) -> InequalityReport:
    """t_h >= t_triangle^phi / t_edge^kappa for a graph glued from triangles."""
    rep = find_triangle_decomposition(h)
    if rep is None:
        return _na("jtree", w, detail="not glued from triangles")
    return _triangle_power_bound(f"jtree[phi={rep.phi},kappa={rep.kappa}]", t_hom, h,
                                 rep.phi, rep.kappa, w, tol)


def check_tritree_chain(h: Graph, w: StepGraphon, tol=INEQ_TOL, prefix="tritree"):
    """Full commonality chain for a triangle-glued graph: the two-colour
    density hypotheses, then m_h >= 2^(kappa+1-phi) m_K3^phi >= 2^(1-e)."""
    rep = find_triangle_decomposition(h)
    if rep is None:
        return [_na(prefix, w, detail="not glued from triangles")]
    k3, k2 = catalog("k3"), catalog("k2")
    out = [check_jtree_bound(h, w, tol)]
    out[0].name = f"{prefix}:density"
    mid = check_holder(h, k3, k2, rep.kappa + 1, rep.phi, w, tol, name=f"{prefix}:holder")
    out.append(mid)
    out.append(_ge(f"{prefix}:common", m(h, w), Fraction(2) ** (1 - h.e), w, tol))
    return out


def check_addtree_bound(t: Graph, u: int, h: Graph, v: int, w: StepGraphon,
                        tol=INEQ_TOL):
    """Commonality of a triangle-glued graph with a pendant tree attached,
    provided the tree has at most kappa edges."""
    rep = find_triangle_decomposition(h)
    if rep is None:
        return [_na("addtree", w, detail="base graph not glued from triangles")]
    if t.e > rep.kappa:
        return [_na("addtree", w,
                    detail=f"tree has {t.e} edges, budget is kappa={rep.kappa}")]
    glued = pendant_attach(t, u, h, v)
    out = [_triangle_power_bound(f"addtree:{side}", dens, glued, rep.phi, rep.kappa - t.e,
                                 w, tol)
           for side, dens in (("density", t_hom), ("density-complement", t_complement))]
    out.append(_ge("addtree:common", m(glued, w), Fraction(2) ** (1 - glued.e), w, tol))
    return out


DIAMOND_C_MAX_EXACT = Fraction(19, 100)


def check_diamond_lemma(w: StepGraphon, c, tol=INEQ_TOL) -> InequalityReport:
    """m_diamond - 1/16 >= c (m_C4 - 1/8) for small nonnegative c."""
    if w.exact and _exact_num(c):
        if not 0 <= c <= DIAMOND_C_MAX_EXACT:
            raise ValueError("exact mode accepts c up to 19/100")
    else:
        c = float(c)
        if not 0 <= c <= (3 - math.sqrt(5)) / 4 + 1e-15:
            raise ValueError("c outside [0, (3-sqrt5)/4]")
    lhs = m(catalog("diamond"), w) - Fraction(1, 16)
    rhs = c * (m(catalog("c4"), w) - Fraction(1, 8))
    return _ge(f"diamond-lemma[c={_fmt(c)}]", lhs, rhs, w, tol)


def check_k3plus_cs(w: StepGraphon, tol=INEQ_TOL):
    """Cauchy-Schwarz on the signed kernel 2w - 1: the tailed-triangle
    contraction squared is at most the product of the cherry and 4-cycle
    contractions, both of which are nonnegative.  The three densities are
    signed entries of w's own pack, so no 2w - 1 kernel is built."""
    star = _signed_entry(catalog("k1,2"), w)
    c4 = _signed_entry(catalog("c4"), w)
    tail = _signed_entry(catalog("k3plus"), w)
    return [
        _ge("k3plus-cs:star-nonneg", star, Fraction(0), w, tol),
        _ge("k3plus-cs:c4-nonneg", c4, Fraction(0), w, tol),
        _ge("k3plus-cs", star * c4, tail * tail, w, tol),
    ]


def beachball_h(k: int, c, x):
    """Lower-bound curve for the doubled wheel over a 2k-cycle, as a function
    of x = sqrt(m_diamond).  Rational in x; exact for Fraction inputs."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if not x >= Fraction(1, 4):
        raise ValueError("defined for x >= 1/4")
    den = (2 * x + 1) ** (2 * k - 2) * (16 * x * x - 1 + 2 * c)
    if not den > 0:
        raise ValueError("pole in the denominator")
    return 16 * 3 ** (2 * k - 2) * c * x ** (4 * k) / den


def beachball_p(k: int, x):
    """Cubic controlling monotone growth of the doubled-wheel curve."""
    return 112 * k * x ** 3 + (112 * k - 56) * x ** 2 - (5 * k + 5) * x - 5 * k


def beachball_p_shifted(k: int, x):
    """Same cubic recentred at 1/4; coefficients there are positive for k >= 2."""
    y = x - Fraction(1, 4)
    return (112 * k * y ** 3 + (196 * k - 56) * y ** 2 + (72 * k - 33) * y
            + Fraction(10 * k - 19, 4))


def beachball_p_positive_on_grid(k: int, lo=Fraction(1, 4), hi=Fraction(4),
                                 step=Fraction(1, 64)) -> bool:
    x = Fraction(lo)
    while x <= hi:
        if beachball_p(k, x) <= 0:
            return False
        x += step
    return True


def check_beachball_chain(k: int, w: StepGraphon, c=Fraction(1, 7), tol=INEQ_TOL):
    """m of the doubled wheel over C_{2k}: first against the diamond-power
    ratio, then against the explicit curve at x = sqrt(m_diamond)."""
    if k < 2:
        raise ValueError("the doubled wheel needs k >= 2")
    ball = catalog(f"beachball:{k}")
    md = m(catalog("diamond"), w)
    mstar = m(catalog("k1,2"), w)
    mc4 = m(catalog("c4"), w)
    mb = m(ball, w)
    out = []
    if mstar <= 0 or mc4 <= 0:
        out.append(_na(f"beachball{2 * k}:ratio", w, detail="denominator vanishes"))
    else:
        out.append(_ge(f"beachball{2 * k}:ratio", mb,
                       md ** (2 * k) / (mstar ** (2 * k - 2) * mc4), w, tol))
    # floating sqrt can land a hair under 1/4 when m_diamond sits at its minimum
    x = max(math.sqrt(float(md)), 0.25)
    out.append(_ge(f"beachball{2 * k}:curve", float(mb), beachball_h(k, float(c), x), w, tol))
    return out


@cache
def _ten_list():
    return frozenset(connected_bipartite_up_to_5())


def _require_ten_list(h: Graph):
    if canonical_form(h) not in _ten_list():
        raise ValueError("apex bound is only claimed for the ten small connected bipartite graphs")


def check_apex_lemma(h: Graph, w: StepGraphon, tol=INEQ_TOL) -> InequalityReport:
    """m(h plus one dominating vertex) >= 2^(-v) m(h), for h in the list of
    connected bipartite graphs on up to five vertices."""
    _require_ten_list(h)
    return _ge(f"apex[v={h.n},e={h.e}]", m(apex_add(h, 1), w), Fraction(2) ** -h.n * m(h, w),
               w, tol)


def check_apex_chain(h: Graph, a: int, w: StepGraphon, tol=INEQ_TOL):
    """Chain for a dominating vertices: m_(h+a) >= m_(h+1)^a / m_h^(a-1)
    and then m_(h+a) >= 2^(1 - e(h) - a v(h))."""
    if a < 1:
        raise ValueError("need at least one dominating vertex")
    _require_ten_list(h)
    mh = m(h, w)
    m1 = m(apex_add(h, 1), w)
    ma = m(apex_add(h, a), w)
    out = []
    if mh <= 0:
        out.append(_na("apex-chain:intermediate", w, detail="m of the base vanishes"))
    else:
        out.append(_ge("apex-chain:intermediate", ma, m1 ** a / mh ** (a - 1), w, tol))
    out.append(_ge("apex-chain:final", ma, Fraction(2) ** (1 - h.e - a * h.n), w, tol))
    return out


def standard_battery(w: StepGraphon, tol=INEQ_TOL):
    """Every check in the module against one kernel."""
    out = [check_goodman(w)]
    for name in ("jst", "diamond", "k1,1,3"):
        out += check_tritree_chain(catalog(name), w, tol, prefix=f"tritree:{name}")
    out.append(check_holder(catalog("diamond"), catalog("k3"), catalog("k2"), 2, 2, w, tol,
                            name="holder:diamond"))
    d = catalog("diamond")
    out += check_addtree_bound(catalog("k2"), 0, d, 2, w, tol)
    out += check_addtree_bound(catalog("k2"), 0, d, 0, w, tol)
    out += check_addtree_bound(catalog("k1,3"), 0, catalog("k1,1,4"), 0, w, tol)
    out.append(check_diamond_lemma(w, Fraction(1, 7), tol))
    out.append(check_diamond_lemma(w, (3 - math.sqrt(5)) / 4, tol))
    out += check_k3plus_cs(w, tol)
    for h in connected_bipartite_up_to_5():
        out.append(check_apex_lemma(h, w, tol))
    out += check_apex_chain(catalog("c4"), 2, w, tol)
    out += check_apex_chain(catalog("k2,3"), 1, w, tol)
    out += check_apex_chain(catalog("k2"), 3, w, tol)
    out += check_beachball_chain(2, w, Fraction(1, 7), tol)
    out += check_beachball_chain(3, w, Fraction(1, 7), tol)
    return out
