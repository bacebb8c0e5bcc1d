"""
The two Lusztig morphisms into the completed graded algebra and the two
composite routes around the main diagram.

On the commutative part both morphisms agree:  theta_x goes to exp of the
differential of x and v goes to exp(r).  On the finite Hecke part,

    L_r(T_s + 1) = (t_s + 1) * u(alpha),
    L_l(T_s + 1) = u(alpha) * (t_s + 1),

where u(alpha) is the unit series

    u(alpha) = (exp(a + 2r) - 1)/(a + 2r) * a/(exp(a) - 1),   a = alpha-dot.

The fraction form (v^2 theta_alpha - 1)/(theta_alpha - 1) is never
materialized on the series side: its denominator maps to a non-unit, and
the closed form above is unit-times-unit after the shared linear factors
cancel.  Each factor is a series sum_k F^(k)(0) l^k/k! of one linear form
l, with F^(k)(0) = 1/(k+1) for (exp(l) - 1)/l and the Bernoulli number B_k
for l/(exp(l) - 1), built in closed form by :func:`fs_exp_sum`.  The
product depends only on the two forms a and r: it is taken in those two
variables and pulled back along a |-> alpha-dot (:func:`fs_pullback`).

The two diagram routes are

    pipeline_K: h |-> e_B * L_r( parity(duality(koszul(h))) ) * e_B^{-1}
                    = L_r( m(h) )
    pipeline_H: h |-> fourier( L_l(h) )

and the verifier checks they agree modulo degree > order.  The second
form is evaluated: parity o duality o koszul = Ad(theta_{-rho}) o m for
m: v |-> v^-1, theta_x |-> theta_x, T_s |-> -v^-2 T_s (:func:`twist`), so
the K-route is Ad(S) o L_r o m with S = e_B exp(-rho.), the product over
alpha > 0 of (alpha./2)/sinh(alpha./2).  S is even in each root, so it is
W-invariant, hence central under Lusztig's rule, and Ad(S) is the
identity; ``diagram`` and ``display`` check that invariance in the run,
on the positive roots, and build no part of S.

What the routes reuse is built once: the :class:`Context` of a work order
holds the unit factors and both Lusztig maps, whose T_w images are kept
per compared order (:class:`GeneratorImages`); the map m and the Weyl
substitution tables live in the datum's store (:meth:`RootDatum.memo`).
So do the (a, r) product of the unit factors, per (order, r-coefficient),
and ch of each coefficient, per (order, terms), which L_r, L_l and both
routes share: ch is the one map both morphisms apply.

Only the unit factors are built at the work order order + guard; every
product after them runs at the order a case compares.  Series products
stop at the lower order of their factors and t_s keeps degrees, so
truncation commutes with every step and the guard changes no value.
"""

from .affine_hecke import twist
from .formal_series import bernoulli_weights, diff, fs_exp_sum, fs_pullback, quotient_weights
from .graded_hecke import GradedElement, GradedRule, fourier_map, gh_mul
from .lattice_algebra import scriptG_terms
from .normal_form import GeneratorImages

DEFAULT_GUARD = 2          # every guard default of the package and the CLI reads this


def series_of_group_algebra(datum, ga, order):
    """Image of an element of Z[v,v^-1][X]:  v^k theta_x |-> exp(x-dot + k r),
    kept in the datum's store under ``order`` and the set of (c, x-and-k)
    terms, so both Lusztig maps share one image per coefficient."""
    pairs = [(c, x + (k,)) for x, laurent in ga.coeffs.items() for k, c in laurent.coeffs.items()]
    return datum.memo(("ch", order, frozenset(pairs)),
                      lambda: fs_exp_sum(datum.rank + 1, order, pairs))


def unit_factor(datum, i, order, r_coeff=2):
    """(exp(a + cr) - 1)/(a + cr) * a/(exp(a) - 1)  with a = alpha_i-dot, in closed form.

    The product depends on neither the datum nor alpha: it is taken in the
    two variables (a, r), kept in the datum's store under (order, c), and
    pulled back along a |-> alpha_i-dot (:func:`fs_pullback`), so the
    roots of a datum share it.
    """
    product = datum.memo(("unit_product", order, r_coeff), lambda: (
        fs_exp_sum(2, order, [(1, (1, r_coeff))], quotient_weights(order))
        * fs_exp_sum(2, order, [(1, (1, 0))], bernoulli_weights(order))))
    return fs_pullback(product, diff(datum.simple_roots[i]))


def _ts_image(datum, i, order, side, u):
    """Image of T_s under L_r (side='r') or L_l (side='l'), given u(alpha_i)."""
    u = GradedElement.series(datum, u)
    ts1 = GradedElement.ts(datum, i, order) + GradedElement.one(datum, order)
    img = gh_mul(ts1, u) if side == "r" else gh_mul(u, ts1)
    return img - GradedElement.one(datum, order)


class _LusztigMap(GeneratorImages):
    """Evaluate a Lusztig morphism on normal forms, caching T_w images.

    ``unit`` maps a simple index i to the unit factor u(alpha_i), built at
    the work order ``order``.  The T_s image at a compared order is made
    from the unit factor truncated to it, and every T_w image is kept per
    (w, compared order) (:class:`GeneratorImages`).
    """

    def __init__(self, datum, order, side, unit):
        super().__init__(GradedRule.of(datum), lambda i, o: _ts_image(
            datum, i, o, side, unit(i).truncate(o)), order)

    def __call__(self, h, order):
        """sum_w series(h_w) image(T_w) at ``order``, for h = sum_w h_w T_w."""
        return GradedElement(self.datum, order, self.evaluate(
            h, order, lambda c: series_of_group_algebra(self.datum, c, order)))


class Context:
    """The Lusztig side of one (root datum, work order), shared through
    :func:`context`: ``units`` maps i to the unit factor u(alpha_i), made on
    first use, and ``lusztig_r``, ``lusztig_l`` keep T_w images per order."""

    def __init__(self, datum, order):
        self.datum = datum
        self.order = order
        self.units = {}
        self.lusztig_r = _LusztigMap(datum, order, "r", self.unit)
        self.lusztig_l = _LusztigMap(datum, order, "l", self.unit)

    def unit(self, i):
        u = self.units.get(i)
        if u is None:
            u = self.units[i] = unit_factor(self.datum, i, self.order)
        return u


def context(datum, order):
    """The shared :class:`Context` of ``datum`` at working order ``order``."""
    return datum.memo(("context", order), lambda: Context(datum, order))


def lusztig_r(h, order, guard=0):
    """Right Lusztig morphism modulo degree > order, built at order + guard."""
    return context(h.datum, order + guard).lusztig_r(h, order)


def lusztig_l(h, order, guard=0):
    """Left Lusztig morphism modulo degree > order, built at order + guard."""
    return context(h.datum, order + guard).lusztig_l(h, order)


def pipeline_K(h, order, guard=DEFAULT_GUARD):
    """Top-then-right route, as L_r(m(h)) through the order + guard context.

    The route is Ad(S) o L_r o m with S = e_B exp(-rho.), and S is central
    once each s_i permutes the positive roots other than alpha_i, which
    ``verify.check_diagram`` checks.
    """
    return lusztig_r(twist(h.datum)(h), order, guard)


def pipeline_H(h, order, guard=DEFAULT_GUARD):
    """Left-then-bottom route: fourier(L_l(h)), through the order + guard context."""
    return fourier_map(lusztig_l(h, order, guard))


def difference_times_scriptG(datum, i, x, order):
    """Series image of (theta_x - theta_{sx}) * (v^2 theta_alpha - 1)/(theta_alpha - 1).

    The image of the fraction alone has a pole, but the product is regular:
    it is ch of the K-side value :func:`mul_by_scriptG`, the one exp-sum
    sum_y sign_y (exp(y. + 2r) - exp((y - alpha).)) over :func:`scriptG_terms`,
    with no division and no series product.
    """
    return fs_exp_sum(datum.rank + 1, order, [
        (c, y + (k,)) for c, y, k in scriptG_terms(datum, x, i)])
