"""Brute-force references for the Miyamoto path, kept out of the engine.

``axis_orbit`` reads the orbit and the group order off the axis images
and builds no matrix.  The tests check it against the matrices here: the
Miyamoto involution of an axis image from its adjoint, and the group
that the involutions of a(0) and a(1) generate.
"""

import highwater.elements as el
from highwater import linalg
from highwater.eigen import fusion_law
from highwater.quotients import _identity, _shift


def mat_mul(a, b, field):
    cols = list(zip(*b)) if b else []
    return [linalg.mat_vec(cols, row, field) for row in a]


def miyamoto_matrix(q, axis_vec):
    """The involution negating the half-eigenspace of an axis image.

    It is I - 2E, where E, the projection onto the 1/2-eigenspace, is the
    Lagrange product of (ad - mu*I)/(1/2 - mu) over the other values mu
    of the fusion law.  None when ad has no total eigendecomposition,
    that is when the product of (ad - mu*I) over all values is not zero.
    """
    field = q.field
    p = field.characteristic
    ad = q.adjoint(axis_vec)
    half = field.scalar(1, 2)
    proj = _identity(field, q.dim)
    for mu in fusion_law(field).values:
        if mu != half:
            c = (half - mu).inverse().value
            proj = [linalg.vec_scale(row, c, p) for row in
                    mat_mul(proj, _shift(ad, mu), field)]
    if any(map(any, mat_mul(proj, _shift(ad, half), field))):
        return None
    # -2E - (-1)I
    return _shift([linalg.vec_scale(row, -2, p) for row in proj], -field.one)


def brute_force_group(q, cap):
    """The group generated by tau0 and tau1 as matrices, or None when it
    has more than ``cap`` elements."""
    F = q.field
    taus = [miyamoto_matrix(q, q.to_vector(el.axis(F, i))) for i in (0, 1)]
    assert None not in taus
    ident = _identity(F, q.dim)
    group = {tuple(map(tuple, ident))}
    frontier = [ident]
    while frontier:
        g = frontier.pop()
        for t in taus:
            h = mat_mul(g, t, F)
            key = tuple(map(tuple, h))
            if key not in group:
                if len(group) == cap:
                    return None
                group.add(key)
                frontier.append(h)
    return group
