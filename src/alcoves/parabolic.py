"""Parabolic root data between face Levis and the restriction diagram.

For faces J -> J' (J in the closure of J'), the Levi root set of J' sits
inside that of J, and the roots of phi_J positive on J' form the
nilradical.  The parabolic set is the union of the two, i.e. the part of
phi_J nonnegative on J'.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .alcove import (
    AffineRoot,
    Face,
    eval_affine_root,
    faces_of_alcove,
)
from .centralizer import centralizer_face, matrix_shape
from .rootdata import RootSystem
from .weylaff import vanishing_affine_roots

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


def parabolic(rs: RootSystem, j: Face, jp: Face) -> ParabolicData:
    if not has_arrow(j, jp):
        raise ValueError("no arrow between the given faces")
    ambient = vanishing_affine_roots(rs, j.vertices)
    levi = set(vanishing_affine_roots(rs, jp.vertices))
    vals = [(ar, eval_affine_root(rs, ar, jp.witness)) for ar in ambient]
    nil = [ar for ar, v in vals if v > 0]
    if levi != {ar for ar, v in vals if v == 0}:
        raise RuntimeError("Levi roots of J' are not the roots of phi_J "
                           "vanishing on J' (bug)")
    return ParabolicData(tuple(ambient), tuple(sorted(levi,
                         key=lambda a: (a.root_index, a.level))),
                         tuple(nil))


def compose_parabolics(rs: RootSystem, j: Face, jp: Face, jpp: Face) -> bool:
    """Composing the nilradical of J -> J' onto the parabolic of J' -> J''
    must give the parabolic of J -> J''."""
    p1 = parabolic(rs, j, jp)
    p2 = parabolic(rs, jp, jpp)
    p13 = parabolic(rs, j, jpp)
    composed = p2.parabolic_set() | frozenset(p1.nilradical)
    return composed == p13.parabolic_set()


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
    nodes = []
    for f in cat.faces:
        data = centralizer_face(rs, f)
        node = {
            "face": sorted(f.vanishing_walls),
            "phi": [[ar.root_index, ar.level] for ar in data.phi],
        }
        if type_a:
            node["shape"] = matrix_shape(rs, data.phi).to_json()
        nodes.append(node)

    edges = []
    arrows = sorted(a for a in cat.arrows if a[0] != a[1])
    for i, j in arrows:
        p = parabolic(rs, cat.faces[i], cat.faces[j])
        edge = {
            "src": i,
            "dst": j,
            "levi": [[ar.root_index, ar.level] for ar in p.levi],
            "nilradical": [[ar.root_index, ar.level] for ar in p.nilradical],
        }
        if type_a:
            edge["shape"] = matrix_shape(
                rs, tuple(p.parabolic_set())
            ).to_json()
        edges.append(edge)

    arrow_set = set(arrows)
    triangles = []
    for i, j in arrows:
        for j2, k in arrows:
            if j2 == j and (i, k) in arrow_set:
                triangles.append({
                    "i": i, "j": j, "k": k,
                    "verified": compose_parabolics(
                        rs, cat.faces[i], cat.faces[j], cat.faces[k]
                    ),
                })
    return {
        "cartan_type": rs.cartan_type.label() + "-" + rs.cartan_type.isogeny,
        "nodes": nodes,
        "edges": edges,
        "triangles": triangles,
    }


def restriction_diagram_json(rs: RootSystem) -> str:
    return json.dumps(restriction_diagram(rs), indent=2)
