"""Parabolic root data between face Levis and the restriction diagram.

For faces J -> J' (J in the closure of J'), the Levi root set of J' sits
inside that of J, and the roots of phi_J positive on J' form the
nilradical.  The parabolic set is the union of the two, i.e. the part of
phi_J nonnegative on J'.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

from .alcove import AffineRoot, Face, faces_of_alcove
from .centralizer import matrix_shape
from .ratmat import int_dot, over_common_denominator
from .rootdata import RootSystem
from .weylaff import int_root_scan

_DIAGRAM_MAX_RANK = 3


@dataclass(frozen=True)
class ParabolicData:
    ambient: tuple[AffineRoot, ...]  # phi of the smaller face J
    levi: tuple[AffineRoot, ...]  # phi of the larger face J'
    nilradical: tuple[AffineRoot, ...]

    def parabolic_set(self) -> frozenset:
        return frozenset(self.levi) | frozenset(self.nilradical)


def has_arrow(j: Face, jp: Face) -> bool:
    return j.vanishing_walls >= jp.vanishing_walls


def parabolics(rs: RootSystem, faces: Sequence[Face],
               arrows: Sequence[tuple[int, int]]) -> dict:
    """{(i, j): ParabolicData of faces[i] -> faces[j]} for each arrow.  Each
    face is scanned at its witness (the barycenter, inside the face) once
    per (root system, face); with J' written as num / d, an ambient root
    (idx, n) has the sign of the integer grads[idx] . num - n d at J'."""
    scans = {k: _face_scan(rs, faces[k])
             for k in {k for arrow in arrows for k in arrow}}
    table = {}
    for i, j in arrows:
        if not has_arrow(faces[i], faces[j]):
            raise ValueError(
                f"no arrow from face {sorted(faces[i].vanishing_walls)} to "
                f"face {sorted(faces[j].vanishing_walls)}: an arrow J -> J' "
                "needs the walls of J' to be a subset of those of J")
        ambient, (levi, d, num) = scans[i][0], scans[j]
        vals = [(ar, int_dot(rs.grads[ar.root_index], num) - ar.level * d)
                for ar in ambient]
        if set(levi) != {ar for ar, v in vals if v == 0}:
            raise RuntimeError("Levi roots of J' are not the roots of phi_J "
                               "vanishing on J' (bug)")
        table[i, j] = ParabolicData(ambient, levi,
                                    tuple(ar for ar, v in vals if v > 0))
    return table


@lru_cache(maxsize=None)
def _face_scan(rs: RootSystem, j: Face) -> tuple:
    """(phi_J, d, num): the roots vanishing at the witness of J as affine
    roots in root-index order, and the witness as integer numerators num
    over d; at most 2^(ell+1) - 1 entries per root system."""
    d, (num,) = over_common_denominator((j.witness,), rs.dim)
    return (tuple(AffineRoot(idx, v) for idx, (v,) in
                  int_root_scan(rs, d, (), (num,))), d, num)


def parabolic(rs: RootSystem, j: Face, jp: Face) -> ParabolicData:
    return parabolics(rs, (j, jp), ((0, 1),))[0, 1]


def chains(arrows: Sequence[tuple[int, int]]) -> list[tuple[int, int, int]]:
    """Each (i, j, k) with arrows i -> j, j -> k and i -> k, in the order
    of `arrows`."""
    arrow_set = set(arrows)
    return [(i, j, k) for i, j in arrows for j2, k in arrows
            if j2 == j and (i, k) in arrow_set]


def composes(table: dict, i: int, j: int, k: int) -> bool:
    """Composing the nilradical of i -> j onto the parabolic of j -> k
    must give the parabolic of i -> k."""
    composed = table[j, k].parabolic_set() | frozenset(table[i, j].nilradical)
    return composed == table[i, k].parabolic_set()


def restriction_diagram(rs: RootSystem) -> dict:
    """The full diagram over the face poset: Levi data on nodes,
    parabolic data on arrows, verified composition triangles."""
    if rs.cartan_type.isogeny != "sc":
        raise ValueError("restriction diagram requires simply-connected "
                         "isogeny")
    if rs.rank > _DIAGRAM_MAX_RANK:
        raise ValueError(
            f"rank {rs.rank} exceeds diagram guard {_DIAGRAM_MAX_RANK}")
    cat = faces_of_alcove(rs)
    type_a = rs.cartan_type.family == "A"
    arrows = sorted(a for a in cat.arrows if a[0] != a[1])
    # the identity arrow k -> k carries phi of face k as its ambient roots
    table = parabolics(rs, cat.faces,
                       arrows + [(k, k) for k in range(len(cat.faces))])
    nodes = []
    for k, f in enumerate(cat.faces):
        phi = table[k, k].ambient
        node = {"face": sorted(f.vanishing_walls),
                "phi": [[ar.root_index, ar.level] for ar in phi]}
        if type_a:
            node["shape"] = matrix_shape(rs, phi).to_json()
        nodes.append(node)

    edges = []
    for i, j in arrows:
        p = table[i, j]
        edge = {"src": i, "dst": j,
                "levi": [[ar.root_index, ar.level] for ar in p.levi],
                "nilradical": [[ar.root_index, ar.level]
                               for ar in p.nilradical]}
        if type_a:
            parab = tuple(p.parabolic_set())
            edge["shape"] = matrix_shape(rs, parab).to_json()
        edges.append(edge)

    triangles = [{"i": i, "j": j, "k": k, "verified": composes(table, i, j, k)}
                 for i, j, k in chains(arrows)]
    return {
        "cartan_type": rs.cartan_type.label() + "-" + rs.cartan_type.isogeny,
        "nodes": nodes,
        "edges": edges,
        "triangles": triangles,
    }
