"""Eigenstructure of ad of an axis, fusion law, identity suites.

Every axis a(i) acts semisimply with eigenvalues 1, 5/2, 0, 2, 1/2
(which may coincide after reduction mod p; in characteristic 5 the
values 5/2 and 0 merge).  The decomposition at a(0) is computed slice
by slice, on integers: the i-th slice spans a(-i), a(i), s(i), p(1,i),
p(2,i) and, with a share of a(0), splits exactly into the eigenvectors
of ``FAMILIES``, each an integer combination of these six slots that is
read off its constructor once; so the computed residual is always zero.
``FAMILIES`` is the one place that pairs each family with its eigenvalue:
``EIGENVALUES``, ``eigendecompose`` and ``fusion_check`` all read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import elements as el
from .fields import QQ, Field, Scalar

# (name, constructor, eigenvalue) of the eigenvectors of ad a(0) that span
# the cover.  The first row is a(0) itself, built as axis(field, 0); the
# others are indexed by i >= 1, and z(i), wt(i) vanish unless 3 | i.
FAMILIES = (
    ("a", el.axis, Fraction(1)),
    ("z", el.z_elem, Fraction(5, 2)),
    ("u", el.u_elem, Fraction(0)),
    ("v", el.v_elem, Fraction(2)),
    ("w", el.w_elem, Fraction(1, 2)),
    ("wt", el.w_tilde, Fraction(1, 2)),
)

EIGENVALUES = tuple(dict.fromkeys(q for _, _, q in FAMILIES))


def _slots(i: int) -> tuple:
    """The keys of slice i >= 1; its p-keys vanish unless 3 | i."""
    keys = (("a", 0), ("a", -i), ("a", i), ("s", i))
    return keys if i % 3 else keys + (("p", 1, i), ("p", 2, i))


# each family after a(0) as integers on the slots of its slice
_SHAPES = {name: tuple(int(make(QQ, 3).terms.get(k, 0)) for k in _slots(3))
           for name, make, _ in FAMILIES[1:]}

# fusion rule table on the rational eigenvalues; missing pairs are empty
_F = Fraction
_RATIONAL_FUSION = {
    (_F(1), _F(1)): {_F(1)},
    (_F(1), _F(5, 2)): {_F(5, 2)},
    (_F(1), _F(0)): set(),
    (_F(1), _F(2)): {_F(2)},
    (_F(1), _F(1, 2)): {_F(1, 2)},
    (_F(5, 2), _F(5, 2)): {_F(5, 2)},
    (_F(5, 2), _F(0)): {_F(5, 2)},
    (_F(5, 2), _F(2)): set(),
    (_F(5, 2), _F(1, 2)): {_F(1, 2)},
    (_F(0), _F(0)): {_F(5, 2), _F(0)},
    (_F(0), _F(2)): {_F(5, 2), _F(2)},
    (_F(0), _F(1, 2)): {_F(1, 2)},
    (_F(2), _F(2)): {_F(5, 2), _F(0)},
    (_F(2), _F(1, 2)): {_F(1, 2)},
    (_F(1, 2), _F(1, 2)): {_F(5, 2), _F(0), _F(2)},
}


class FusionLaw:
    """The fusion law evaluated in a field, merging coincident values."""

    def __init__(self, field: Field):
        self.field = field
        self.values = list(dict.fromkeys(field.from_fraction(q)
                                         for q in EIGENVALUES))
        table: dict[tuple[Scalar, Scalar], set[Scalar]] = {}
        for (lam, mu), out in _RATIONAL_FUSION.items():
            lv, mv = field.from_fraction(lam), field.from_fraction(mu)
            for key in ((lv, mv), (mv, lv)):
                table.setdefault(key, set()).update(
                    field.from_fraction(q) for q in out)
        self.table = {k: frozenset(v) for k, v in table.items()}
        # the eigenvalue of each row of FAMILIES, raw, in order, for _split
        self.raw = tuple(field._value(q) for _, _, q in FAMILIES)

    def allowed(self, lam: Scalar, mu: Scalar) -> frozenset:
        return self.table[(lam, mu)]


@lru_cache(maxsize=None)
def fusion_law(field: Field) -> FusionLaw:
    return FusionLaw(field)


@dataclass(frozen=True)
class EigenDecomposition:
    axis_index: int
    components: dict  # evaluated eigenvalue Scalar -> nonzero Element
    residual: el.Element

    def component(self, q) -> el.Element:
        """The component for eigenvalue q: an int, Fraction or Scalar."""
        field = self.residual.field
        key = q if isinstance(q, Scalar) else field.from_fraction(q)
        field.zero._check(key)  # a Scalar of this field, or raise
        return self.components.get(key, el.zero(field))

    @property
    def is_total(self) -> bool:
        return self.residual.is_zero()


def eigendecompose(x: el.Element, axis_index: int = 0) -> EigenDecomposition:
    """Exact eigenspace decomposition of x for ad a(axis_index).

    At a(0) on integers: residues over F_p; over Q, 16 den times each value
    n / den, whose half and sixteenth are 8n and n, divided once at the end."""
    field = x.field
    if axis_index:
        inner = eigendecompose(el.apply(el.theta(-axis_index), x), 0)
        back = el.theta(axis_index)
        return EigenDecomposition(
            axis_index,
            {lam: el.apply(back, comp)
             for lam, comp in inner.components.items()},
            el.apply(back, inner.residual))

    p = field.characteristic
    den, xs = el._integral(x.terms, p)
    comp, residual = _split(xs, p, fusion_law(field).raw)
    for terms in () if p else (residual, *comp.values()):
        for k, n in terms.items():
            terms[k] = Fraction(n, 16 * den)
    return EigenDecomposition(
        0, {Scalar(field, lam): el.Element._of(field, terms)
            for lam, terms in comp.items()},
        el.Element._of(field, residual))


def _split(xs: dict, p: int, lams: tuple) -> tuple[dict, dict]:
    """The split at a(0) of integer terms xs, with the raw eigenvalues
    ``lams`` of ``FAMILIES``: the nonzero components as raw eigenvalue ->
    integer terms, and the residual.  Over F_p these add up to xs; over Q
    to 16 xs, whose half and sixteenth are 8n and n, so no value leaves Z.
    Every coefficient is linear in xs, so a nonzero multiple of xs has the
    same nonzero components, and a zero residual exactly when xs has."""
    one, half, sixteenth = (1, pow(2, -1, p), pow(16, -1, p)) if p else \
        (16, 8, 1)
    families = [(name, lam, _SHAPES[name])
                for (name, _, _), lam in zip(FAMILIES[1:], lams[1:])]
    comp: dict = {}

    def put(lam, c, slots, shape):
        if c % p if p else c:
            el._add_scaled(comp.setdefault(lam, {}), c,
                           [(k, n) for k, n in zip(slots, shape) if n], p)

    get = xs.get
    used = 0  # the share of a(0) held by the u and v components
    for i in sorted({abs(k[1]) if k[0] == "a" else k[1] if k[0] == "s"
                     else k[2] for k in xs} - {0}):
        am, ap = get(("a", -i), 0), get(("a", i), 0)
        s = get(("s", i), 0)
        p1, p2 = get(("p", 1, i), 0), get(("p", 2, i), 0)
        cu = (s - 2 * (am + ap)) * sixteenth    # s/16 - (am + ap)/8
        cv = (-3 * s - 2 * (am + ap)) * sixteenth    # cu - s/4
        coeffs = {"z": (p1 - p2 - 2 * s) * half, "u": cu, "v": cv,
                  "w": (am - ap) * half, "wt": (p1 + p2) * half}
        slots = _slots(i)
        for name, lam, shape in families:
            put(lam, coeffs[name], slots, shape)
        used += 6 * cu + 2 * cv
    put(lams[0], one * get(("a", 0), 0) - used, (("a", 0),), (1,))

    residual = {k: one * n for k, n in xs.items()}
    for terms in comp.values():
        el._add_scaled(residual, -1, terms.items(), p)
    return {lam: terms for lam, terms in comp.items() if terms}, residual


def fusion_check(field: Field, i_max: int) -> dict:
    """Check every product of eigenvectors against the fusion law.

    Uses the spanning eigenvectors of ``FAMILIES``, a(0) and the others
    for 1 <= i <= i_max; returns a report with the number of products
    checked and any violations found.  Each product x y is split on the
    integers that ``_products`` gives, 8 den_x den_y x y over Q and 8 x y
    over F_p: a nonzero multiple of x y, so by linearity of the split it
    has the same nonzero components, and a zero residual exactly when x y
    has.
    """
    law = fusion_law(field)
    p = field.characteristic
    vectors = []  # (eigenvalue, name, integral terms)
    for i in range(i_max + 1):
        for name, make, q in FAMILIES[1:] if i else FAMILIES[:1]:
            if v := make(field, i):
                vectors.append((field.from_fraction(q), f"{name}({i})",
                                el._integral(v.terms, p)[1]))

    checked = 0
    violations = []
    for idx, (lam, name1, xs) in enumerate(vectors):
        for mu, name2, ys in vectors[idx:]:
            allowed = {q.value for q in law.allowed(lam, mu)}
            comp, residual = _split(el._products(xs, ys, p), p, law.raw)
            checked += 1
            if residual:
                violations.append({"pair": (name1, name2),
                                   "reason": "decomposition not total"})
                continue
            violations += [{"pair": (name1, name2), "eigenvalue": str(ev),
                            "reason": "component outside fusion law"}
                           for ev in comp if ev not in allowed]
    return {"characteristic": field.characteristic, "i_max": i_max,
            "checked": checked, "violations": violations,
            "ok": not violations}


def miyamoto_map(x: el.Element, axis_index: int) -> el.Element:
    """Image of x under the involution negating the 1/2-eigenspace: x is
    the sum of its components and its residual, so the image is x - 2 x½."""
    return x - 2 * eigendecompose(x, axis_index).component(Fraction(1, 2))


def miyamoto_consistency(field: Field, axis_index: int,
                         support_bound: int) -> dict:
    """Compare the eigenspace route with the index route for miyamoto.

    The eigenspace route negates the 1/2-component of the decomposition
    at a(axis_index); the index route applies the reflection about the
    axis subscript.  The two must agree on every basis key.
    """
    keys = [("a", j) for j in range(-support_bound, support_bound + 1)]
    keys += [("s", j) for j in range(1, support_bound + 1)]
    keys += [("p", r, k) for k in range(3, support_bound + 1, 3)
             for r in (1, 2)]
    aut = el.miyamoto(axis_index)
    failures = []
    for key in keys:
        x = el.Element(field, {key: field.one})
        if miyamoto_map(x, axis_index) != el.apply(aut, x):
            failures.append(key)  # pragma: no cover - should not happen
    return {"characteristic": field.characteristic, "axis": axis_index,
            "support_bound": support_bound, "checked": len(keys),
            "failures": failures, "ok": not failures}


# -- identity suites ----------------------------------------------------------

def _entry(results, name, index, ok):
    results.append({"name": name, "index": index, "ok": bool(ok)})


def product_identity_suite(field: Field, i_max: int) -> list[dict]:
    """Product identities among the derived families c, t, u, v, z.

    Covers products with difference symbols, the transition formulas
    between the c/t and u/v families, pair-template expansions and the
    eigenvector product table used to establish the fusion law.
    """
    res: list[dict] = []
    third = Fraction(1, 3)
    for i in range(1, i_max + 1):
        for j in range(1, i_max + 1):
            ci, cj = el.c_elem(field, i), el.c_elem(field, j)
            si, sj = el.sigma(field, i), el.sigma(field, j)
            zi, zj = el.z_elem(field, i), el.z_elem(field, j)
            ui, uj = el.u_elem(field, i), el.u_elem(field, j)
            vi, vj = el.v_elem(field, i), el.v_elem(field, j)
            tij = el.t_pair(field, i, j)
            cij = el.c_pair(field, i, j)
            zij = el.z_pair(field, i, j)

            # products with the difference symbols
            for r in range(3):
                zr = el.zed(field, r, j)
                _entry(res, "axis_by_z", (i, j, r),
                       el.axis(field, i) * zr ==
                       zr * Fraction(3, 2) + el.zed(field, -(i + r), j))
            if i % 3 == 0 and j % 3 == 0:
                for r in range(3):
                    for t in range(3):
                        lhs = el.pi(field, r, i) * el.zed(field, t, j)
                        rhs = (el.pi(field, -(r + t), i)
                               + el.pi(field, -(r + t), j)) * Fraction(3, 4) \
                            - (el.pi(field, -(r + t), abs(i - j))
                               + el.pi(field, -(r + t), i + j)) * Fraction(3, 8)
                        _entry(res, "p_by_z", (i, j, r, t), lhs == rhs)
                        lhs = el.zed(field, r, i) * el.zed(field, t, j)
                        rhs = (el.zed(field, -(r + t), i)
                               + el.zed(field, -(r + t), j)) * Fraction(-3, 4) \
                            + (el.zed(field, -(r + t), abs(i - j))
                               + el.zed(field, -(r + t), i + j)) * Fraction(3, 8)
                        _entry(res, "z_by_z", (i, j, r, t), lhs == rhs)
            if j % 3 == 0:
                for r in range(3):
                    lhs = si * el.zed(field, r, j)
                    rhs = (el.zed(field, r, i) + el.zed(field, r, j)) \
                        * Fraction(3, 4) \
                        - (el.zed(field, r, abs(i - j))
                           + el.zed(field, r, i + j)) * Fraction(3, 8)
                    _entry(res, "s_by_z", (i, j, r), lhs == rhs)

            # transition formulas
            rhs = tij * 2 + zij * 2
            if i % 3:
                rhs = rhs - (el.z_elem(field, abs(i - j))
                             + el.z_elem(field, i + j)) * 3
            _entry(res, "c_by_c", (i, j), ci * cj == rhs)
            rhs = cij * Fraction(3, 8)
            if i % 3:
                rhs = rhs - zj * 3
            _entry(res, "c_by_s", (i, j), ci * sj == rhs)
            rhs = el.zero(field) if i % 3 == 0 else zj * 3
            _entry(res, "c_by_zj", (i, j), ci * zj == rhs)

            # pair rewrites and the s/z pair products
            _entry(res, "s_by_s_pair", (i, j),
                   si * sj == tij * Fraction(-3, 8))
            if i % 3 == 0 and j % 3 == 0:
                _entry(res, "z_by_z_pair", (i, j),
                       zi * zj == zij * Fraction(3, 8))
            if j % 3 == 0:
                _entry(res, "s_by_z_pair", (i, j),
                       si * zj == zij * Fraction(-3, 8))
            _entry(res, "u_pair_rewrite", (i, j),
                   el.u_pair(field, i, j) == cij * 3 + tij * 4 + zij * 4)
            _entry(res, "v_pair_rewrite", (i, j),
                   el.v_pair(field, i, j) == cij - tij * 4 - zij * 4)

            # eigenvector products
            rhs = el.u_pair(field, i, j) * 3
            if (i * j) % 3:
                rhs = rhs - zij * 21
            _entry(res, "u_by_u", (i, j), ui * uj == rhs)
            rhs = el.v_pair(field, i, j) * (-3)
            if (i * j) % 3:
                rhs = rhs - zij * 15
            _entry(res, "u_by_v", (i, j), ui * vj == rhs)
            rhs = -el.u_pair(field, i, j)
            if (i * j) % 3:
                rhs = rhs + zij * 3
            _entry(res, "v_by_v", (i, j), vi * vj == rhs)
            rhs = el.zero(field) if i % 3 == 0 else zj * 12
            _entry(res, "u_by_zj", (i, j), ui * zj == rhs)
            _entry(res, "v_by_zj", (i, j), (vi * zj).is_zero())
    return res


def twisted_identity_suite(field: Field, i_max: int) -> list[dict]:
    """Identities expressing reflected eigenvectors through products.

    These are the closed formulas used to steer ideal generation:
    images under the half-integer reflections tau(3/2) and tau(1/2) of
    the u/v/w/z/wt families written in terms of algebra products.  The
    five-halves and wt-reflection formulas only hold in characteristic
    5 and are checked there alone.
    """
    res: list[dict] = []
    t32 = el.tau(3)            # reflection about 3/2
    t12 = el.tau(1)            # reflection about 1/2
    a3, am3 = el.axis(field, 3), el.axis(field, -3)
    s3, z3 = el.sigma(field, 3), el.z_elem(field, 3)
    char5 = field.characteristic == 5
    for i in range(1, i_max + 1):
        zi = el.z_elem(field, i)
        wti = el.w_tilde(field, i)
        ui, vi = el.u_elem(field, i), el.v_elem(field, i)
        wi = el.w_elem(field, i)

        _entry(res, "z_reflect_fixed", i, el.apply(t32, zi) == zi)
        _entry(res, "wt_reflect_negated", i, el.apply(t32, wti) == -wti)

        ref_u = el.from_terms(field, [(("a", 3), 6), (("a", 3 - i), -3),
                                      (("a", 3 + i), -3)]) \
            + el.sigma(field, i) * 4 + zi * 4
        _entry(res, "u_reflect_expansion", i, el.apply(t32, ui) == ref_u)
        ref_v = el.from_terms(field, [(("a", 3), 2), (("a", 3 - i), -1),
                                      (("a", 3 + i), -1)]) \
            - el.sigma(field, i) * 4 - zi * 4
        _entry(res, "v_reflect_expansion", i, el.apply(t32, vi) == ref_v)

        tu = el.apply(t32, ui)
        tv = el.apply(t32, vi)
        shift = el.compose(t32, el.tau(0))   # net translation by -3
        cp = el.c_pair(field, 3, i)
        _entry(res, "c_pair_via_u", i,
               cp == (ui * (-2) + tu + el.apply(shift, ui)) * Fraction(1, 3))
        _entry(res, "c_pair_via_v", i,
               cp == vi * (-2) + tv + el.apply(shift, vi))

        _entry(res, "u_reflect_product", i,
               tu == ui - (a3 * ui) * Fraction(5, 4)
               + (am3 * ui) * Fraction(3, 4) + s3 * ui + z3 * ui)
        _entry(res, "v_reflect_product", i,
               tv == (a3 * vi) * Fraction(7, 12)
               - (am3 * vi) * Fraction(1, 12)
               + (s3 * vi) * Fraction(1, 3) + (z3 * vi) * Fraction(1, 3))

        if char5:
            for name, xv in (("five_halves_u", ui), ("five_halves_z", zi)):
                _entry(res, name, i,
                       el.apply(t32, xv) ==
                       xv + (am3 * xv) * 2 + s3 * xv + z3 * xv)

        # reflection about 1/2 of the half-eigenvectors, via products
        def w_formula(x):
            a1x = el.axis(field, 1) * x
            y = a1x - x * Fraction(1, 2)
            corr = el.apply(el.tau(4), y) - el.apply(
                el.compose(el.tau(4), el.tau(2)), y)
            return (el.axis(field, 0) * a1x) * Fraction(4, 3) \
                - (el.sigma(field, 1) * x) * Fraction(4, 3) \
                - x * Fraction(4, 3) - y * 2 + corr * Fraction(4, 3)

        _entry(res, "w_reflect_product", i,
               el.apply(t12, wi) == w_formula(wi))
        if char5 and i % 3 == 0:
            _entry(res, "wt_reflect_product", i,
                   el.apply(t12, wti) == w_formula(wti))

        # translation-averaging identities
        if i % 3 == 0:
            _entry(res, "wt_translation_sum", i,
                   (wti + el.apply(el.theta(2), wti)
                    + el.apply(el.theta(4), wti)).is_zero())
        for k in range(1, i_max + 1):
            if k % 3 == 0:
                continue
            if i % 3 == 0:
                _entry(res, "s_by_wt", (k, i),
                       el.sigma(field, k) * wti == wti * Fraction(3, 4))
            _entry(res, "s_by_w", (k, i),
                   el.sigma(field, k) * wi ==
                   wi * Fraction(-3, 4)
                   + (el.apply(el.theta(k), wi)
                      + el.apply(el.theta(-k), wi)) * Fraction(3, 8))
    return res
