"""
The one normal-form engine behind the affine Hecke algebra and its graded
version.

An element of either algebra is a finite sum  sum_w c_w T_w  with c_w in a
commutative coefficient ring, written on the LEFT of T_w.  The algebra is
fixed by a :class:`Rule`: how T_s moves past a coefficient, and the
quadratic relation T_s^2 = a T_s + b,

    T_s c     = s(c) T_s + D_s(c)
    T_s T_w   = T_{sw}                 if l(sw) = l(w) + 1
              = a T_w + b T_{sw}       otherwise.

The two rules are :class:`heckeverify.affine_hecke.BernsteinRule` and
:class:`heckeverify.graded_hecke.GradedRule`.  On a rule this module runs,
once for both, the T_s push, the product, the antispherical action
(:class:`AsphElement`) and the T_w images of maps given on generators
(:class:`GeneratorImages`).  The entry points (``h_mul``, ``gh_mul``,
``asph_act_left``, ``g_asph_act``, the map classes) stay in the modules of
their algebras and call in.
"""


class Rule:
    """A commutation rule, and the engine that runs on it.

    A subclass holds ``datum``, the scalars ``a``, ``b`` and ``sign`` (a
    falsy ``a`` is zero), ``element``, the element class of its algebra
    (``element.one(datum, order)`` is the unit), and the coefficient-ring
    operations on an accumulator ``acc``, a dict keyed by Weyl element:

    * ``commute(i, c)``: the pair (s_i(c), D_{s_i}(c)), in the form ``add``
      takes;
    * ``add(acc, w, term, scale=one)``: acc[w] += scale * term.

    The defaults of ``add_product`` (acc[w] += c * d) and ``close`` (the
    coefficient dict {w: c_w} of acc) hold coefficients in ``acc`` as they
    are; a rule that accumulates in another form overrides both.  ``scalar(c)``
    is the scale of a coefficient c that scales as cheaply as a sum adds, and
    None for any other c (the default).
    """

    @classmethod
    def of(cls, datum):
        """The rule of ``datum``, built once per datum in its store."""
        return datum.memo(("rule", cls), lambda: cls(datum))

    def install(self):
        """Make this the rule of its datum, which nothing may have used yet.

        A negative control installs a corrupted instance on its private
        datum copy, so every entry point there runs on it.
        """
        if self.datum.memo(("rule", type(self)), lambda: self) is not self:
            raise ValueError("the datum already runs on a %s" % type(self).__name__)

    def add_product(self, acc, w, c, d):
        self.add(acc, w, c * d)

    def close(self, acc):
        return acc

    def scalar(self, c):
        return None

    def push(self, i, coeffs):
        """The coefficient dict of T_{s_i} * sum_w coeffs[w] T_w."""
        datum = self.datum
        acc = {}
        for w, c in coeffs.items():
            sc, dc = self.commute(i, c)
            sw = datum.left_mul(i, w)
            if sw.length > w.length:
                self.add(acc, sw, sc)
            else:
                if self.a:
                    self.add(acc, w, sc, self.a)
                self.add(acc, sw, sc, self.b)
            self.add(acc, w, dc)
        return self.close(acc)

    def product(self, a, b):
        """The coefficient dict of (sum_w a[w] T_w) * (sum_u b[u] T_u).

        This is sum_w a_w (T_w b).  Each T_w b is pushed once, as
        T_{s_i} (T_{s_i w} b) with i the first letter of w, so the terms
        of ``a`` share their suffixes.
        """
        pushed = {self.datum.identity: b}
        acc = {}
        for w, aw in a.items():
            for u, c in self._along_word(pushed, w, self.push).items():
                self.add_product(acc, u, aw, c)
        return self.close(acc)

    def act(self, a, value, zero):
        """sum_w a[w] (T_w . (value.1)) in the antispherical module.

        T_s (h.1) = s(h) T_s.1 + D_s(h).1 = sign s(h) + D_s(h), applied
        letter by letter, so T_w . (value.1) is built once per w, from
        T_{s_i w} . (value.1).  Terms whose coefficients are equal (``==``)
        are summed before they are scaled, as c sum_{a_w = c} T_w . (value.1),
        so L_l(1 + T_s) = u(alpha) (t_s + 1) makes one product, not two.  A
        coefficient with a ``scalar`` is not merged: its product costs what
        the sum would, so K-side T_s + 1 makes two scaled sums, not three.
        The result is the module coordinate; ``zero()`` makes the zero
        coefficient, for a sum that vanishes.
        """
        e = self.datum.identity
        images = {e: value}

        def step(i, h):
            sh, dh = self.commute(i, h)
            acc = {}
            self.add(acc, e, sh, self.sign)
            self.add(acc, e, dh)
            return self.close(acc).get(e) or zero()

        acc = {}
        merged = []         # [c, sum of T_w . (value.1) over the w with a_w == c]
        for w, aw in a.items():
            image = self._along_word(images, w, step)
            if self.scalar(aw) is not None:
                self.add_product(acc, e, aw, image)
                continue
            for pair in merged:
                if pair[0] == aw:
                    pair[1] = pair[1] + image
                    break
            else:
                merged.append([aw, image])
        for aw, image in merged:
            self.add_product(acc, e, aw, image)
        return self.close(acc).get(e) or zero()

    def _along_word(self, images, w, step):
        """images[w], after filling in each missing suffix of w's word.

        images[w] = step(i, images[s_i w]) with i the first letter of w:
        walk back to the longest suffix already in ``images``, then step
        forward.  It loops rather than recursing through a closure over
        ``images``, which would leave each call's dict in a reference cycle
        for the collector.
        """
        left_mul = self.datum.left_mul
        missing = []
        got = images.get(w)
        while got is None:
            i = w.word[0]
            missing.append((i, w))
            w = left_mul(i, w)
            got = images.get(w)
        for i, w in reversed(missing):
            got = images[w] = step(i, got)
        return got


class AsphElement:
    """An element h.1 of an antispherical module, stored as h.

    ``value`` is a coefficient of the algebra acting: an element of
    Z[v,v^-1][X] on the K side, a truncated series on the graded side.
    """

    __slots__ = ("datum", "value")

    def __init__(self, datum, value):
        self.datum = datum
        self.value = value

    def __neg__(self):
        return AsphElement(self.datum, -self.value)

    def __eq__(self, other):
        return isinstance(other, AsphElement) and self.value == other.value

    def eq(self, other, order=None):
        """Series equality of graded values up to ``order`` (``FormalSeries.eq``)."""
        return self.value.eq(other.value, order)

    def __repr__(self):
        return "(%r).1" % self.value


class GeneratorImages:
    """The T_w images of a map given on generators, kept per (w, order).

    ``ts_image(i, order)`` is the image of T_{s_i} at ``order``; T_w maps
    to image(T_{s_i}) * image(T_{s_i w}) with i the first letter of w.
    s_i w is one shorter, so this is the product along the reduced word.
    The letter goes on the left: a product pushes each T_u of its left
    factor through the right one, so a long left factor would cost a push
    per term.  ``rule`` is the rule of the target algebra, and an order
    above ``work_order`` is refused.  That the map is a homomorphism is
    not assumed here; the ``morphisms`` suite proves it.
    """

    def __init__(self, rule, ts_image, work_order=None):
        self.rule = rule
        self.datum = rule.datum
        self.ts_image = ts_image
        self.work_order = work_order
        self._images = {}

    def image(self, w, order=None):
        """The image of T_w at ``order``."""
        img = self._images.get((w, order))
        if img is None:
            if not w.word:
                img = self.rule.element.one(self.datum, order)
            elif len(w.word) == 1:
                img = self.ts_image(w.word[0], order)
            else:
                i = w.word[0]
                img = self.image(self.datum.simple(i), order) * \
                    self.image(self.datum.left_mul(i, w), order)
            self._images[(w, order)] = img
        return img

    def evaluate(self, h, order, coeff_image):
        """The coefficient dict of sum_w coeff_image(h_w) image(T_w) at
        ``order``, for h = sum_w h_w T_w."""
        if order is not None and order > self.work_order:
            raise ValueError("compared order %d is above the work order %d"
                             % (order, self.work_order))
        rule = self.rule
        acc = {}
        for w, c in h.coeffs.items():
            cimg = coeff_image(c)
            for u, cu in self.image(w, order).coeffs.items():
                rule.add_product(acc, u, cimg, cu)
        return rule.close(acc)
