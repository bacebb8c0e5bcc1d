"""The construction walk: the library's map evaluators on every T_w.

The ``morphisms`` suite proves from the defining relations that the
generator images of each map extend to an algebra homomorphism.  On T_e
and the T_s, where the suites evaluate the maps, it also checks that the
evaluators give that extension.  That they give it on every T_w, as the
product of the T_s images along the reduced word, and on c T_w as
image(c) image(T_w), is a contract of the library.  This module walks all
of W to check it; it is quadratic in |W|, so the tests run it on ranks up
to 3.
"""

import operator

from heckeverify.affine_hecke import HeckeElement, twist
from heckeverify.formal_series import FormalSeries
from heckeverify.graded_hecke import GradedElement, fourier_map
from heckeverify.lattice_algebra import GroupAlgebraElement, LS_V
from heckeverify.lusztig import context

from weyl_group import weyl_elements


def construction_failure(datum, image, term, c, equal, one=None):
    """Where ``image`` is not the product of generator images on normal forms.

    ``term(w, coeff=None)`` is coeff T_w (T_w for None).  For every w,
    image(T_w) must equal the product of the image(T_s) along w.word,
    recomputed right to left onto ``one``, the unit of the target
    (default T_e), and image(c T_w) must equal image(c) image(T_w).
    Returns a description of the first failure, or None.
    """
    ts = [image(term(datum.simple(i))) for i in range(datum.rank)]
    image_c = image(term(datum.identity, c))
    products = {(): term(datum.identity) if one is None else one}

    def along(word):
        p = products.get(word)
        if p is None:
            p = products[word] = ts[word[0]] * along(word[1:])
        return p

    for w in weyl_elements(datum):
        image_w = image(term(w))
        if not equal(image_w, along(w.word)):
            return "image of T(%r) is not the product along its word" % (w,)
        if not equal(image(term(w, c)), image_c * image_w):
            return "image of c*T(%r) is not image(c)*image(T(%r)), c = %r" % (w, w, c)
    return None


def walk_failure(datum, order, guard=2, fourier=fourier_map):
    """The first failing walk of L_r, L_l, m and ``fourier``, named, or None.

    The Lusztig maps are those of the order + guard context of ``datum``
    and m is :func:`twist`, so a fault planted in them on a private datum
    is walked; ``fourier`` stands for the Fourier map.
    """
    n = datum.rank

    def k_term(w, c=None):
        return HeckeElement(datum, {w: GroupAlgebraElement.one(n) if c is None else c})

    def g_term(w, c=None):
        return GradedElement(datum, order, {w: FormalSeries.one(n + 1, order) if c is None else c})

    def g_equal(a, b):
        return a.eq(b, order)

    ctx = context(datum, order + guard)
    v_theta = GroupAlgebraElement.theta((1,) + (0,) * (n - 1), LS_V)
    for side, lmap in (("r", ctx.lusztig_r), ("l", ctx.lusztig_l)):
        failed = construction_failure(datum, lambda h: lmap(h, order), k_term, v_theta,
                                      g_equal, GradedElement.one(datum, order))
        if failed:
            return "L_%s map: %s" % (side, failed)
    failed = construction_failure(datum, twist(datum), k_term, v_theta, operator.eq)
    if failed:
        return "twist map m: %s" % failed
    y1_plus_r = FormalSeries(n + 1, order, {(1,) + (0,) * n: 1, (0,) * n + (1,): 1})
    failed = construction_failure(datum, fourier, g_term, y1_plus_r, g_equal)
    if failed:
        return "fourier map: %s" % failed
    return None
