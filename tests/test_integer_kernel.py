"""The integer kernels of `rootdata`, `alcove` and `weylaff` against
Fraction oracles.

The oracles below are the earlier Fraction implementations of
`weyl_group`, the root and W scans, `facet_of`, the facet closure test
and `reduce_to_alcove`.  They use only the
Fraction data of a root system (Cartan matrix, roots, inner product,
coweight basis), never its integer tables.  Each kernel must give the
same values in the same order on seeded points: generic ones with
numerators near 10^12 over denominators up to 10^6, and special ones
(W-images of alcove vertices and face witnesses, shifted by large
coweights) where the scans keep elements.  The scans `int_root_scan` and
`int_weyl_scan` take integer numerators over one denominator, and
`scan_roots` and `scan_weyl` below write the points so.  The W scan
runs on int64 arrays inside a stated bound and on Python ints past it;
it is checked on both, with points on either side of the bound and far
past it.
The alcove-reduction oracle, the wall-order walk, takes O(|x|) wall
reflections, so its points have |x| <= 8, still over denominators up to
10^6, or lie on walls shifted by at most 50 coroots above rank 4.
`reduce_to_alcove` itself is also run at scale 10^6, with its scans of
the wall values counted against its step cap, which does not depend on
|x|.
"""

import random
import time
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm

import numpy as np
import pytest

from alcoves import ratmat, rootdata, weylaff
from alcoves.alcove import (
    alcove_vertices,
    faces_of_alcove,
    facet_of,
    fundamental_alcove,
    root_values,
)
from alcoves.centralizer import (
    GaugePoint,
    centralizer_elliptic,
    double_affine_centralizer,
    exp_point,
    gauge_centralizer_circle,
)
from alcoves.rootdata import (
    FAMILIES,
    ISOGENIES,
    CartanType,
    InvalidCartanType,
    build_root_system,
    times_word,
    weyl_element,
    weyl_group,
)
from alcoves.weylaff import (
    int_root_scan,
    int_weyl_scan,
    reduce_to_alcove,
    stabilizer_of_point,
    weyl_elements,
)

# (family, rank, isogeny, generic points, special points)
CASES = [
    ("A", 1, "sc", 12, 12), ("A", 2, "sc", 12, 12), ("A", 3, "sc", 10, 10),
    ("B", 2, "sc", 12, 12), ("B", 3, "sc", 8, 8), ("B", 4, "sc", 4, 4),
    ("C", 3, "sc", 8, 8), ("G", 2, "sc", 12, 12), ("F", 4, "sc", 2, 2),
    ("B", 2, "adjoint", 12, 12), ("C", 3, "adjoint", 8, 8),
    ("F", 4, "adjoint", 2, 2), ("A", 2, "gl", 12, 12),
]
IDS = [f"{f}{r}-{i}" for f, r, i, _, _ in CASES]


def accepted_types(max_rank):
    """Every (family, rank, isogeny) that `CartanType` accepts up to
    max_rank."""
    out = []
    for family, rank, isogeny in product(FAMILIES, range(1, max_rank + 1),
                                         ISOGENIES):
        try:
            CartanType(family, rank, isogeny)
        except InvalidCartanType:
            continue
        out.append((family, rank, isogeny))
    return out


RANK4_TYPES = accepted_types(4)
# every type of rank <= 4, and sc and adjoint E6-E8
TABLE_TYPES = RANK4_TYPES + [("E", r, i) for r in (6, 7, 8)
                             for i in ("sc", "adjoint")]
TABLE_IDS = [f"{f}{r}-{i}" for f, r, i in TABLE_TYPES]


def rs_of(family, rank, isogeny):
    return build_root_system(CartanType(family, rank, isogeny))


def scan_roots(rs, fixed, points):
    """`int_root_scan` on the points written over one common
    denominator."""
    d, nums = ratmat.over_common_denominator((*fixed, *points), rs.dim)
    return int_root_scan(rs, d, nums[:len(fixed)], nums[len(fixed):])


def scan_weyl(rs, fixed, pairs):
    """`int_weyl_scan` on the points written over one common
    denominator."""
    nf = len(fixed)
    d, nums = ratmat.over_common_denominator(
        (*fixed, *(p for pair in pairs for p in pair)), rs.dim)
    return int_weyl_scan(rs, d, nums[:nf],
                         tuple(zip(nums[nf::2], nums[nf + 1::2])))


def closure_contains(rs, x, y):
    """Whether y lies in the closure of the facet of x."""
    return facet_of(rs, x).closure_contains(*root_values(rs, y))


# -- Fraction oracles ------------------------------------------------------


@lru_cache(maxsize=None)
def grad(rs, idx):
    r = rs.all_roots[idx]
    g = [sum((rs.cartan[i][j] * r[j] for j in range(rs.rank)), Fraction(0))
         for i in range(rs.rank)]
    return tuple(g) + (Fraction(0),) * (rs.dim - rs.rank)


def ev(rs, idx, x):
    return ratmat.dot(grad(rs, idx), x)


@lru_cache(maxsize=None)
def coroot(rs, idx):
    c = rs.all_roots[idx]
    ip = rs.inner_product_matrix
    half = sum(c[i] * ip[i][j] * c[j]
               for i in range(rs.rank) for j in range(rs.rank)) / 2
    v = [c[i] * ip[i][i] / 2 / half for i in range(rs.rank)]
    return tuple(v) + (Fraction(0),) * (rs.dim - rs.rank)


@lru_cache(maxsize=None)
def coweight_inverse(rs):
    return ratmat.inverse(ratmat.transpose(rs.coweight_lattice_basis))


def frac_identity(n):
    return ratmat.mat(ratmat.int_identity(n))


def in_lattice(rs, x):
    return all(c.denominator == 1
               for c in ratmat.matvec(coweight_inverse(rs), x))


def negate(rs, idx):
    return rs.all_roots.index(ratmat.scale(-1, rs.all_roots[idx]))


def oracle_weyl_group(rs):
    """Breadth-first closure under simple reflections, Fraction matrices;
    the matrices depend only on the Cartan matrix and the dimension."""
    return _oracle_weyl_group(rs.cartan_type.family, rs.rank, rs.dim)


@lru_cache(maxsize=None)
def _oracle_weyl_group(family, rank, n):
    rs = build_root_system(CartanType(family, rank))
    gens = []
    for i in range(rs.rank):
        m = [list(row) for row in frac_identity(n)]
        for k in range(rs.rank):
            m[i][k] -= rs.cartan[k][i]
        gens.append(ratmat.mat(m))
    ident = (frac_identity(n), ())
    elements = [ident]
    seen = {ident[0]}
    frontier = [ident]
    while frontier:
        nxt = []
        for m, word in frontier:
            for i, s in enumerate(gens):
                p = ratmat.matmul(s, m)
                if p not in seen:
                    seen.add(p)
                    e = (p, word + (i,))
                    elements.append(e)
                    nxt.append(e)
        frontier = nxt
    return tuple(elements)


def oracle_root_scan(rs, fixed, points):
    out = []
    for idx in range(len(rs.all_roots)):
        if any(ev(rs, idx, x) != 0 for x in fixed):
            continue
        vals = []
        for p in points:
            v = ev(rs, idx, p)
            if v.denominator != 1:
                break
            vals.append(int(v))
        else:
            out.append((idx, tuple(vals)))
    return out


class PointImages:
    """Each point's Fraction images m x under the elements m of
    `oracle_weyl_group(rs)`, in that order, computed once per point, and
    `in_lattice` of each translation y - m x, tested once per vector (a
    pair recurs across the scans of a case): a case makes one and hands
    it to each of its oracle scans."""

    def __init__(self, rs):
        self.rs = rs
        self.group = oracle_weyl_group(rs)
        self._images = {}
        self._in_lattice = {}

    def __call__(self, x):
        x = tuple(x)
        if x not in self._images:
            self._images[x] = [ratmat.matvec(m, x) for m, _ in self.group]
        return self._images[x]

    def in_lattice(self, lam):
        if lam not in self._in_lattice:
            self._in_lattice[lam] = in_lattice(self.rs, lam)
        return self._in_lattice[lam]


def oracle_weyl_scan(rs, fixed, pairs, images=None):
    if images is None:
        images = PointImages(rs)
    fixed = [(tuple(x), images(x)) for x in fixed]
    pairs = [(images(x), y) for x, y in pairs]
    out = []
    for k, (m, word) in enumerate(images.group):
        if any(image[k] != x for x, image in fixed):
            continue
        lams = []
        for image, y in pairs:
            lam = ratmat.sub(y, image[k])
            if not images.in_lattice(lam):
                break
            lams.append(lam)
        else:
            out.append((m, word, tuple(lams)))
    return out


def oracle_facet_of(rs, x):
    key, vanishing = [], []
    for p in rs.positive_indices:
        val = ev(rs, p, x)
        fl = val.numerator // val.denominator
        key.append((fl, val.denominator == 1))
        if val.denominator == 1:
            vanishing += [(p, fl), (negate(rs, p), -fl)]
    return tuple(key), tuple(vanishing)


def oracle_facet_closure_contains(rs, x, y):
    for p in rs.positive_indices:
        t, u = ev(rs, p, x), ev(rs, p, y)
        if t.denominator == 1:
            if u != t:
                return False
        else:
            fl = t.numerator // t.denominator
            if not fl <= u <= fl + 1:
                return False
    return True


def oracle_reduce(rs, x):
    """(finite matrix, translation, reduced point): reflect in the first
    wall x lies beyond, composing Fraction affine maps.  The reflection in
    the wall (alpha, n) is y -> y - (alpha(y) - n) alpha-check."""
    walls = fundamental_alcove(rs)
    m, t, cur = frac_identity(rs.dim), ratmat.zeros(rs.dim), tuple(x)
    while True:
        bad = next((w for w in walls
                    if ev(rs, w.root_index, cur) - w.level < 0), None)
        if bad is None:
            return m, t, cur
        g, c = grad(rs, bad.root_index), coroot(rs, bad.root_index)
        cur = ratmat.sub(cur, ratmat.scale(ratmat.dot(g, cur) - bad.level, c))
        t = ratmat.sub(t, ratmat.scale(ratmat.dot(g, t) - bad.level, c))
        m = reflect_rows(m, g, c)


def reflect_rows(m, g, c):
    """(I - c g^T) m: the reflection with gradient g and coroot c after
    the Fraction matrix m."""
    gm = [ratmat.dot(g, col) for col in zip(*m)]
    return tuple(tuple(a - ci * b for a, b in zip(row, gm))
                 for row, ci in zip(m, c))


def dense_times_word(simple, m, word):
    """m s_j1 ... s_jm by the dense column update: m s_j is m with column
    k less g_k times column j, for every entry g_k of the Fraction
    gradient `simple[j]` of alpha_j."""
    m = [list(row) for row in m]
    for j in word:
        for row in m:
            x = row[j]
            for k, c in enumerate(simple[j]):
                row[k] -= x * c
    return tuple(map(tuple, m))


def dense_descent(rs, simple, matrix):
    """The word of the descent on the dense heights: h = 1^T w over the
    first `rank` rows; while some h_j < 0, append the smallest such j and
    take h to h - h_j times the whole gradient `simple[j]`."""
    h = [sum(col) for col in zip(*matrix[:rs.rank])]
    word = []
    while neg := [j for j in range(rs.rank) if h[j] < 0]:
        j = neg[0]
        word.append(j)
        h = [a - h[j] * g for a, g in zip(h, simple[j])]
    return tuple(word)


# -- seeded points -----------------------------------------------------------


def big_point(rng, dim):
    return tuple(Fraction(rng.randint(-10 ** 12, 10 ** 12),
                          rng.randint(1, 10 ** 6)) for _ in range(dim))


def small_point(rng, dim, bound=8):
    out = []
    for _ in range(dim):
        den = rng.randint(1, 10 ** 6)
        out.append(Fraction(rng.randint(-bound * den, bound * den), den))
    return tuple(out)


def coweight(rs, rng, size):
    return rs.from_coweight_coords(
        tuple(Fraction(rng.randint(-size, size)) for _ in range(rs.dim)))


def special_point(rs, rng, size=10 ** 6):
    """A W-image of a vertex or face witness, shifted by a coweight; for
    gl, with a random central part."""
    seeds = list(alcove_vertices(rs)) + [
        f.witness for f in faces_of_alcove(rs).faces]
    x = seeds[rng.randrange(len(seeds))]
    w = rng.choice(oracle_weyl_group(rs))[0]
    x = ratmat.add(ratmat.matvec(w, x), coweight(rs, rng, size))
    if rs.cartan_type.isogeny == "gl":
        x = x[:-1] + (x[-1] + Fraction(rng.randint(-99, 99), 7),)
    return x


def points(rs, seed, generic, special):
    rng = random.Random(seed)
    return [special_point(rs, rng) for _ in range(special)] + \
        [big_point(rng, rs.dim) for _ in range(generic)]


def seed_of(family, rank, isogeny):
    return f"{family}{rank}-{isogeny}"


# -- the int64 bound of the W scan ---------------------------------------


def coweight_den(rs):
    return lcm(*(c.denominator for row in coweight_inverse(rs) for c in row))


def int64_limit(rs):
    """The largest |numerator| X with n K (n A + 1) X < 2^63: n = dim, A
    the largest |entry| of a Weyl matrix, K that of the coweight inverse
    written over its least common denominator."""
    n, den = rs.dim, coweight_den(rs)
    a = max(abs(c) for m, _ in oracle_weyl_group(rs) for row in m for c in row)
    k = max(abs(c * den) for row in coweight_inverse(rs) for c in row)
    return (2 ** 63 - 1) // (n * k * (n * a + 1))


def near(rng, size):
    return rng.choice((-1, 1)) * (size - rng.randrange(2 ** 20))


def large_points(rs, rng):
    """Points on both sides of the int64 bound and far past it: integer
    points whose largest |entry| is the bound and one more; special points
    shifted by coweights with coordinates near 2^61, 2^63 and 10^30;
    points with such numerators over 3 * 2^40; and small numerators over
    the least d with d * (coweight denominator) >= 2^63."""
    limit = int64_limit(rs)
    out = [(Fraction(-x_max),) + tuple(Fraction(rng.randint(-x_max, x_max))
                                       for _ in range(rs.dim - 1))
           for x_max in (limit, limit + 1)]
    for size in (2 ** 61, 2 ** 63, 10 ** 30):
        big = rs.from_coweight_coords(
            tuple(Fraction(near(rng, size)) for _ in range(rs.dim)))
        out.append(ratmat.add(special_point(rs, rng, 10), big))
        out.append(tuple(Fraction(near(rng, size), 3 * 2 ** 40)
                         for _ in range(rs.dim)))
    d = -(-2 ** 63 // coweight_den(rs))
    out.append(tuple(Fraction(rng.randint(1, 99), d) for _ in range(rs.dim)))
    return out


class DtypeSpy:
    """Replaces `weylaff._scan_dtype`: records the dtype it picks, or
    forces dtype object while `force_object` is set."""

    def __init__(self, monkeypatch):
        self.pick = weylaff._scan_dtype
        self.seen = set()
        self.force_object = False
        monkeypatch.setattr(weylaff, "_scan_dtype", self)

    def __call__(self, *args, **kwargs):
        if self.force_object:
            return object
        dtype = self.pick(*args, **kwargs)
        self.seen.add(dtype)
        return dtype

    def both_scans(self, rs, fixed, pairs):
        return self.both(scan_weyl, rs, fixed, pairs)

    def both(self, fn, *args):
        """fn(*args) on the dtypes the scans pick, then on dtype object."""
        natural = fn(*args)
        self.force_object = True
        try:
            return natural, fn(*args)
        finally:
            self.force_object = False


# -- tests -------------------------------------------------------------------


def test_every_type_of_rank_at_most_4_is_listed():
    assert len(RANK4_TYPES) == 32


@pytest.mark.parametrize("family,rank,isogeny", RANK4_TYPES,
                         ids=[f"{f}{r}-{i}" for f, r, i in RANK4_TYPES])
def test_weyl_group_matches_fraction_enumeration(family, rank, isogeny):
    rs = rs_of(family, rank, isogeny)
    got = [(w.matrix, w.word) for w in weyl_group(rs)]
    assert got == list(oracle_weyl_group(rs))
    for w in weyl_group(rs):
        assert all(type(c) is int for row in w.matrix for c in row)


@pytest.mark.parametrize("family,rank,isogeny", RANK4_TYPES,
                         ids=[f"{f}{r}-{i}" for f, r, i in RANK4_TYPES])
def test_descent_gives_the_bfs_word(family, rank, isogeny):
    """`weyl_element` finds, from the matrix alone, the element and word
    that `weyl_group` lists."""
    rs = rs_of(family, rank, isogeny)
    for w in weyl_group(rs):
        assert weyl_element(rs, w.matrix) == w


@pytest.mark.parametrize("family,rank,isogeny", RANK4_TYPES,
                         ids=[f"{f}{r}-{i}" for f, r, i in RANK4_TYPES])
def test_sparse_words_match_the_dense_column_update(family, rank, isogeny):
    """`times_word` and the descent of `weyl_element` read only the
    nonzero entries of each simple gradient, `simple_entries`, which run
    over all `dim` entries (rank + 1 for gl).  On random words, from the
    identity and from a random integer matrix, they give the matrix of
    the dense column update and the word of the dense descent, both on
    the Fraction gradients."""
    rs = rs_of(family, rank, isogeny)
    rng = random.Random(f"sparse-{seed_of(family, rank, isogeny)}")
    simple = [grad(rs, rs.all_roots.index(a)) for a in rs.simple_roots]
    assert all(len(g) == rs.dim for g in simple)
    assert rs.simple_entries == tuple(
        tuple((k, c) for k, c in enumerate(g) if c) for g in simple)
    one = ratmat.int_identity(rs.dim)
    for _ in range(25):
        word = tuple(rng.randrange(rank)
                     for _ in range(rng.randrange(4 * rank + 1)))
        start = tuple(tuple(rng.randint(-9, 9) for _ in range(rs.dim))
                      for _ in range(rs.dim))
        for m in (one, start):
            assert times_word(rs, m, word) == dense_times_word(simple, m,
                                                               word)
        w = dense_times_word(simple, one, word)
        got = weyl_element(rs, w)
        assert got.matrix == w
        assert got.word == dense_descent(rs, simple, w)


@pytest.mark.parametrize("family,rank,isogeny,generic,special", CASES,
                         ids=IDS)
def test_root_tables(family, rank, isogeny, generic, special):
    rs = rs_of(family, rank, isogeny)
    for idx, root in enumerate(rs.all_roots):
        assert rs.grads[idx] == grad(rs, idx)
        assert rs.coroots[idx] == coroot(rs, idx)
        assert rs.negation[idx] == negate(rs, idx)
        assert rs.root_index(root) == idx
    rng = random.Random(seed_of(family, rank, isogeny))
    for x in points(rs, rng.random(), generic, special):
        lam = ratmat.sub(x, ratmat.matvec(
            rng.choice(oracle_weyl_group(rs))[0], x))
        for p in (x, lam, coweight(rs, rng, 10 ** 9)):
            assert all(c.denominator == 1
                       for c in rs.coweight_coords(p)) == in_lattice(rs, p)
            assert rs.coweight_coords(p) == \
                ratmat.matvec(coweight_inverse(rs), p)


@pytest.mark.parametrize("family,rank,isogeny,generic,special", CASES,
                         ids=IDS)
def test_scans_match_fraction_scans(family, rank, isogeny, generic, special,
                                    monkeypatch):
    """Both dtypes of the W scan against the oracle: the one it picks,
    and dtype object forced on every input."""
    rs = rs_of(family, rank, isogeny)
    rng = random.Random(seed_of(family, rank, isogeny))
    pts = points(rs, rng.random(), generic, special) + large_points(rs, rng)
    group = oracle_weyl_group(rs)
    images = PointImages(rs)
    spy = DtypeSpy(monkeypatch)
    nontrivial = 0
    for k, x in enumerate(pts):
        # y = w(x) + lam is W_aff-related to x; z is another point
        w = rng.choice(group)[0]
        y = ratmat.add(ratmat.matvec(w, x), coweight(rs, rng, 10 ** 6))
        z = pts[(k + 1) % len(pts)]
        # a fixed set with many vanishing roots: one scaled vertex
        v = ratmat.scale(rng.randint(1, 10 ** 6),
                         rng.choice(alcove_vertices(rs)))
        fixed = [(), (x,), (ratmat.sub(x, y),), (v,)][k % 4]
        for pair_set in (((x, x),), ((x, y),), ((x, x), (z, z)),
                         ((x, y), (v, v))):
            want = oracle_weyl_scan(rs, fixed, pair_set, images)
            for got in spy.both_scans(rs, fixed, pair_set):
                assert [(w0.matrix, w0.word, lams)
                        for w0, lams in got] == want
                for _, lams in got:
                    assert all(isinstance(c, Fraction)
                               for lam in lams for c in lam)
            nontrivial += len(got) > 1
        for pt_set in ((x,), (x, y), (x, z), (v,)):
            assert scan_roots(rs, fixed, pt_set) == \
                oracle_root_scan(rs, fixed, pt_set)
    assert nontrivial  # the special points keep more than the identity
    assert spy.seen == {np.int64, object}


# -- the point-stabilizer kernels against composed oracles ---------------------


def oracle_from_coweight_coords(rs, c):
    """sum c_i b_i over the coweight lattice basis, in Fractions."""
    out = ratmat.zeros(rs.dim)
    for ci, b in zip(c, rs.coweight_lattice_basis, strict=True):
        out = ratmat.add(out, ratmat.scale(ci, b))
    return out


def half_grid(rng, dim, size=4):
    return tuple(Fraction(rng.randint(-size, size), 2) for _ in range(dim))


def kernel_inputs(rs, rng):
    """(theta, a, a_im) triples: theta in coweight coordinates, a and a_im
    in ambient coordinates.  theta = 0 at a special point; 1/2-grid theta
    at a 1/2-grid point and at two points of `large_points` past the
    int64 bounds, one by its numerators, one by its denominator.  a_im is
    a scaled alcove vertex, so that the gauge scans keep a parabolic
    subgroup."""
    large = large_points(rs, rng)
    pts = [special_point(rs, rng, 10), half_grid(rng, rs.dim), large[1],
           large[-1]]
    out = []
    for k, a in enumerate(pts):
        theta = ratmat.zeros(rs.dim) if k == 0 else half_grid(rng, rs.dim, 1)
        a_im = ratmat.scale(rng.randint(1, 9),
                            rng.choice(alcove_vertices(rs)))
        out.append((theta, a, a_im))
    return out


def centralizer_rows(data):
    """The roots and the group part of `CentralizerData`, comparable with
    the oracles."""
    return ([(ar.root_index, ar.level) for ar in data.phi],
            [(e.finite_part.matrix, e.finite_part.word, e.translation)
             for e in data.w.elements])


@pytest.mark.parametrize("family,rank,isogeny", RANK4_TYPES,
                         ids=[f"{f}{r}-{i}" for f, r, i in RANK4_TYPES])
def test_point_kernels_match_composed_oracles(family, rank, isogeny,
                                              monkeypatch):
    """`centralizer_elliptic`, `gauge_centralizer_circle`,
    `double_affine_centralizer` and `stabilizer_of_point` against the
    Fraction root and W scan oracles composed as the earlier code
    composed the scans, element order included, on both dtypes: theta
    enters through the Fraction sum over the lattice basis, and W is
    scanned whole, with the translation at theta formed and dropped."""
    rs = rs_of(family, rank, isogeny)
    rng = random.Random(f"point-kernels-{family}{rank}-{isogeny}")
    spy = DtypeSpy(monkeypatch)
    images = PointImages(rs)
    zero = ratmat.zeros(rs.dim)
    for theta, a, a_im in kernel_inputs(rs, rng):
        t = oracle_from_coweight_coords(rs, theta)
        both = oracle_weyl_scan(rs, (), ((t, t), (a, a)), images)
        at_t = oracle_weyl_scan(rs, (), ((t, t),), images)
        at_a = oracle_weyl_scan(rs, (), ((a, a),), images)
        roots = oracle_root_scan(rs, (), (t, a))
        circle = {
            x: ([(i, n) for i, (n,) in oracle_root_scan(rs, (), (x,))],
                [(m, word, lam) for m, word, (lam,) in scan])
            for x, scan in ((t, at_t), (a, at_a))}
        want = ([(i, n) for i, (_, n) in roots],
                [(m, word, lam) for m, word, (_, lam) in both])
        for got in spy.both(centralizer_elliptic, rs, exp_point(rs, theta, a)):
            assert centralizer_rows(got) == want
        for got in spy.both(stabilizer_of_point, rs, a):
            assert [(e.finite_part.matrix, e.finite_part.word,
                     (e.translation,)) for e in got.elements] == at_a
        want = ([(i, n) for i, (n,) in oracle_root_scan(rs, (a_im,), (a,))],
                [(m, word, lam) for m, word, (lam,) in
                 oracle_weyl_scan(rs, (a_im,), ((a, a),), images)])
        for got in spy.both(gauge_centralizer_circle, rs, GaugePoint(a, a_im)):
            assert centralizer_rows(got) == want
        for got in spy.both(gauge_centralizer_circle, rs, GaugePoint(a, zero)):
            assert centralizer_rows(got) == circle[a]
        for got in spy.both(double_affine_centralizer, rs, t, a):
            assert [(r.n1, r.n2, r.root_index) for r in got.phi_b] == \
                [(-v1, -v2, i) for i, (v1, v2) in roots]
            assert [(w0.matrix, w0.word, (l1, l2)) for w0, l1, l2 in
                    got.w_b] == both
            assert centralizer_rows(got.proj1) == circle[t]
            assert centralizer_rows(got.proj2) == circle[a]
    assert spy.seen == {np.int64, object}


def test_one_centralizer_call_converts_its_points_once(monkeypatch):
    """theta reaches ambient coordinates on integers, not through the
    Fraction `from_coweight_coords`, and theta and a are written over one
    denominator once, for both scans."""
    rs = rs_of("F", 4, "adjoint")
    s = exp_point(rs, tuple(map(Fraction, ("1/4", "0", "1/2", "3/4"))),
                  tuple(map(Fraction, ("5/6", "7/6", "-5/3", "1"))))
    want = centralizer_elliptic(rs, s)
    calls = {"from_coweight_coords": 0, "over_common_denominator": 0}

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(rootdata.RootSystem, "from_coweight_coords")
    counted(ratmat, "over_common_denominator")
    assert centralizer_elliptic(rs, s) == want
    assert calls == {"from_coweight_coords": 0, "over_common_denominator": 1}


def test_w_scans_reuse_the_bfs_stack():
    """The W scans test W on the stack the Weyl-group BFS returned, not on
    a stack rebuilt from the listed tuples."""
    for family, rank in (("B", 3), ("F", 4)):
        rs = rs_of(family, rank, "sc")
        stack = rootdata.weyl_stack(rs)
        assert weylaff._weyl_stack(rs)[0] is stack
        assert not stack.flags.writeable
        assert [tuple(map(tuple, m)) for m in stack.tolist()] == \
            [w.matrix for w in weyl_group(rs)]


@pytest.mark.parametrize("family,rank,isogeny,generic,special", CASES,
                         ids=IDS)
def test_scan_dtype_follows_the_int64_bound(family, rank, isogeny, generic,
                                            special):
    """int64 exactly while n K (n A + 1) X < 2^63 and
    d * coweight_inv_den < 2^63; the stack and the coweight inverse are
    cached, read-only and in `weyl_elements` order."""
    rs = rs_of(family, rank, isogeny)
    stack, cinv, _ = weylaff._weyl_stack(rs)
    assert weylaff._weyl_stack(rs)[0] is stack
    assert stack.dtype == cinv.dtype == np.int64
    assert not stack.flags.writeable and not cinv.flags.writeable
    assert [tuple(map(tuple, m)) for m in stack.tolist()] == \
        [w.matrix for w in weyl_elements(rs)]
    assert cinv.tolist() == [list(r) for r in rs.coweight_inv_num]
    assert rs.coweight_inv_den == coweight_den(rs)
    pick = weylaff._scan_dtype
    limit, top = int64_limit(rs), (2 ** 63 - 1) // coweight_den(rs)
    rest = (0,) * (rs.dim - 1)
    for sign in (1, -1):
        assert pick(rs, 1, ((sign * limit,) + rest,)) is np.int64
        assert pick(rs, 1, (rest + (sign * (limit + 1),),)) is object
        assert pick(rs, 1, ((1,) + rest, (sign * (limit + 1),) + rest)) \
            is object
    assert pick(rs, top, ((1,) + rest,)) is np.int64
    assert pick(rs, top + 1, ((1,) + rest,)) is object
    assert pick(rs, 1, ()) is np.int64
    # the root test: n G X < 2^63, G the largest |entry| of a gradient,
    # and d < 2^63; the gradients are cached, read-only, in root order
    grads, grads_object, _ = weylaff._grad_arrays(rs)
    assert weylaff._grad_arrays(rs)[0] is grads
    assert grads.dtype == np.int64 and grads_object.dtype == object
    assert not grads.flags.writeable and not grads_object.flags.writeable
    assert [tuple(c) for c in grads.T.tolist()] == \
        [grad(rs, i) for i in range(len(rs.all_roots))]
    assert grads_object.tolist() == grads.tolist()
    g_max = max(abs(c) for i in range(len(rs.all_roots)) for c in grad(rs, i))
    g_limit = (2 ** 63 - 1) // (rs.dim * g_max)
    for sign in (1, -1):
        assert pick(rs, 1, ((sign * g_limit,) + rest,), roots=True) \
            is np.int64
        assert pick(rs, 1, (rest + (sign * (g_limit + 1),),), roots=True) \
            is object
    assert pick(rs, 2 ** 63 - 1, ((1,) + rest,), roots=True) is np.int64
    assert pick(rs, 2 ** 63, ((1,) + rest,), roots=True) is object
    assert pick(rs, 1, (), roots=True) is np.int64


def test_one_f4_scan_calls_no_python_matvec(monkeypatch):
    rs = rs_of("F", 4, "sc")
    weylaff._weyl_stack.cache_clear()
    calls = []
    matvec = ratmat.int_matvec
    monkeypatch.setattr(ratmat, "int_matvec",
                        lambda m, v: calls.append(v) or matvec(m, v))
    x = tuple(map(Fraction, ("1/2", "1/2", "0", "0")))
    assert len(scan_weyl(rs, (), ((x, x),))) == 96
    assert calls == []


@pytest.mark.parametrize("family,rank,isogeny", [
    ("A", 3, "sc"), ("A", 3, "adjoint"), ("A", 2, "gl"), ("B", 2, "sc"),
    ("B", 4, "adjoint"), ("C", 3, "sc"), ("D", 4, "sc"), ("D", 4, "adjoint"),
    ("F", 4, "sc"), ("G", 2, "adjoint")])
def test_cartan_pairing_is_an_integer_dot(family, rank, isogeny):
    """2(a, b)/(a, a) in the root-space inner product is b(a-check), the
    integer dot product of b's gradient with a's coroot."""
    rs = rs_of(family, rank, isogeny)
    ip = rs.inner_product_matrix

    def form(a, b):
        return sum(a[i] * ip[i][j] * b[j]
                   for i in range(rs.rank) for j in range(rs.rank))

    for i, a in enumerate(rs.all_roots):
        for j, b in enumerate(rs.all_roots):
            assert ratmat.int_dot(rs.grads[j], rs.coroots[i]) == \
                2 * form(a, b) / form(a, a)


@pytest.mark.parametrize("family,rank,isogeny,generic,special", CASES,
                         ids=IDS)
def test_facets_match_fraction_facets(family, rank, isogeny, generic,
                                      special):
    rs = rs_of(family, rank, isogeny)
    rng = random.Random(seed_of(family, rank, isogeny))
    pts = points(rs, rng.random(), generic, special)
    witnesses = [f.witness for f in faces_of_alcove(rs).faces]
    for x in pts + witnesses + list(alcove_vertices(rs)):
        key = facet_of(rs, x)
        want_key, want_vanishing = oracle_facet_of(rs, x)
        assert key.key == want_key
        assert [(a.root_index, a.level) for a in key.vanishing_set] == \
            list(want_vanishing)
        assert key.witness == x
    for k, x in enumerate(pts):
        # y in the closure of facet(x): on the same walls, or nearby
        shift = coweight(rs, rng, 10 ** 6)
        for y in (pts[(k + 1) % len(pts)], ratmat.add(x, shift),
                  rng.choice(witnesses),
                  ratmat.add(rng.choice(witnesses), shift)):
            for a, b in ((x, y), (y, x)):
                assert closure_contains(rs, a, b) == \
                    oracle_facet_closure_contains(rs, a, b)
    for a in witnesses:
        for b in witnesses:
            assert closure_contains(rs, a, b) == \
                oracle_facet_closure_contains(rs, a, b)


@pytest.mark.parametrize("family,rank,isogeny,generic,special", CASES,
                         ids=IDS)
def test_reduce_matches_fraction_reduction(family, rank, isogeny, generic,
                                           special):
    rs = rs_of(family, rank, isogeny)
    rng = random.Random(seed_of(family, rank, isogeny))
    pts = [small_point(rng, rs.dim) for _ in range(generic + special)]
    # points on walls: W-images of face witnesses, shifted by coweights
    for _ in range(special):
        f = rng.choice(faces_of_alcove(rs).faces)
        w = rng.choice(oracle_weyl_group(rs))[0]
        pts.append(ratmat.add(ratmat.matvec(w, f.witness),
                              coweight(rs, rng, 3)))
    for x in pts:
        if isogeny == "gl":
            with pytest.raises(ValueError):
                reduce_to_alcove(rs, x)
            continue
        w, xr = reduce_to_alcove(rs, x)
        m, t, cur = oracle_reduce(rs, x)
        assert (w.finite_part.matrix, w.translation, xr) == (m, t, cur)
        assert all(isinstance(c, Fraction) for c in w.translation + xr)


def walk_cap(rs):
    """The step cap of the reduction walk, from the Fraction data: the
    sum over the positive roots of the absolute entries of their
    gradients."""
    return sum(abs(c) for i, r in enumerate(rs.all_roots)
               if next(c for c in r if c) > 0 for c in grad(rs, i))


def cap_walk_passes(monkeypatch):
    """Make each walk of `reduce_to_alcove` raise once it scans the wall
    values more often than its step cap allows, one scan per step and one
    to stop: a walk that is not bounded fails at once instead of running
    on.  Each scan reads the walls' columns of the affine Cartan matrix,
    the `near` of `_walk_data`, in wall order, so it is counted there."""
    data_of = weylaff._walk_data

    class Counted(tuple):
        scans = 0

        def __iter__(self):
            self.scans += 1
            if self.scans > self.limit:
                raise AssertionError(f"more than {self.limit} wall scans")
            return super().__iter__()

    def counted(rs):
        e, cap, walls, sparse, near = data_of(rs)
        near = Counted(near)
        near.limit = walk_cap(rs) + 1
        return e, cap, walls, sparse, near

    monkeypatch.setattr(weylaff, "_walk_data", counted)


def random_weyl_matrix(rs, rng, length):
    """A product of `length` random simple reflections, from the Fraction
    data; W is not listed."""
    m = frac_identity(rs.dim)
    for _ in range(length):
        i = rs.all_roots.index(rs.simple_roots[rng.randrange(rs.rank)])
        m = reflect_rows(m, grad(rs, i), coroot(rs, i))
    return m


@pytest.mark.parametrize("family,rank,isogeny", [
    ("D", 5, "sc"), ("E", 6, "sc"), ("E", 7, "adjoint"),
])
def test_reduce_matches_the_wall_order_walk_above_rank_4(
        monkeypatch, family, rank, isogeny):
    """Points on walls, W-images of face witnesses shifted by up to 50
    times a coroot: the reduction gives the element and point of the
    wall-order walk, within the step cap."""
    rs = rs_of(family, rank, isogeny)
    rng = random.Random(f"far-walls-{family}{rank}-{isogeny}")
    faces = faces_of_alcove(rs).faces
    cap_walk_passes(monkeypatch)
    for _ in range(8):
        f = rng.choice(faces)
        shift = ratmat.scale(rng.randint(-50, 50),
                             coroot(rs, rng.randrange(len(rs.all_roots))))
        x = ratmat.add(ratmat.matvec(random_weyl_matrix(rs, rng, 3 * rank),
                                     f.witness), shift)
        w, xr = reduce_to_alcove(rs, x)
        assert (w.finite_part.matrix, w.translation, xr) == \
            oracle_reduce(rs, x)


@pytest.mark.parametrize("family,rank,isogeny", [
    ("F", 4, "sc"), ("B", 4, "adjoint"), ("G", 2, "sc"), ("E", 8, "sc"),
])
def test_a_far_point_reduces_in_bounded_time(monkeypatch, family, rank,
                                             isogeny):
    """Points at scale 10^6, on walls and off them, reduce within the step
    cap, which does not depend on |x|, and within 1 s; the wall-order
    walk would take about 10^6 steps."""
    rs = rs_of(family, rank, isogeny)
    rng = random.Random(f"far-{family}{rank}-{isogeny}")
    s = 10 ** 6
    pts = [tuple(Fraction(rng.randint(-s * den, s * den), den)
                 for _ in range(rs.dim)) for den in (1, 2, 3, 12, 10 ** 6)]
    if family == "F":
        pts.append((Fraction(7 * s, 3), Fraction(-5 * s, 2),
                    Fraction(3 * s, 8), Fraction(-s, 5)))
    walls = fundamental_alcove(rs)
    cap_walk_passes(monkeypatch)
    for x in pts:
        start = time.perf_counter()
        w, xr = reduce_to_alcove(rs, x)
        assert time.perf_counter() - start < 1.0
        assert w.apply(x) == xr
        assert all(ev(rs, wall.root_index, xr) >= wall.level
                   for wall in walls)


@pytest.mark.parametrize("family,rank,isogeny", TABLE_TYPES, ids=TABLE_IDS)
def test_coweight_tables_match_the_fraction_inverse(family, rank, isogeny):
    """`coweight_inv_num` over `coweight_inv_den` is the Fraction inverse
    of the transposed lattice basis, over its least common denominator."""
    rs = rs_of(family, rank, isogeny)
    den = coweight_den(rs)
    assert rs.coweight_inv_den == den
    assert rs.coweight_inv_num == tuple(
        tuple(int(c * den) for c in row) for row in coweight_inverse(rs))


@pytest.mark.parametrize("family,rank,isogeny", TABLE_TYPES, ids=TABLE_IDS)
def test_from_coweight_coords_is_the_fraction_sum(family, rank, isogeny):
    """`from_coweight_coords`, on integer numerators, equals the Fraction
    sum of c_i b_i over the lattice basis, and refuses a wrong length."""
    rs = rs_of(family, rank, isogeny)
    rng = random.Random(seed_of(family, rank, isogeny))
    basis = rs.coweight_lattice_basis
    for c in [big_point(rng, rs.dim) for _ in range(8)] + [
            tuple(int(i == k) for i in range(rs.dim)) for k in range(rs.dim)]:
        want = ratmat.zeros(rs.dim)
        for ci, b in zip(c, basis, strict=True):
            want = ratmat.add(want, ratmat.scale(ci, b))
        got = rs.from_coweight_coords(c)
        assert got == want
        assert all(type(v) is Fraction for v in got)
    # other rationals are taken as Fractions, as before
    rest = rs.dim - 1
    assert rs.from_coweight_coords((0.5,) + ("-1/3",) * rest) == \
        rs.from_coweight_coords((Fraction(1, 2),) + (Fraction(-1, 3),) * rest)
    for size in (rs.dim - 1, rs.dim + 1):
        with pytest.raises(ValueError):
            rs.from_coweight_coords((Fraction(1, 2),) * size)


@pytest.mark.parametrize("family,rank,isogeny,generic,special", CASES,
                         ids=IDS)
def test_coweight_image_stack(family, rank, isogeny, generic, special):
    """The stack `int_weyl_scan` tests W on: cached, read-only, int64,
    and its entry [k, j, i] is entry (k, j) of coweight_inv_num times
    (w - 1), w the i-th element of `weyl_elements`, checked against the
    Fraction inverse and oracle.  The dtype-object copies hold the same
    values and are read-only too."""
    rs = rs_of(family, rank, isogeny)
    arrays = weylaff._scan_arrays(rs, np.int64)
    dw = arrays[2]
    assert weylaff._scan_arrays(rs, np.int64)[2] is dw
    assert all(np.array_equal(a, b)
               for a, b in zip(arrays, weylaff._weyl_stack(rs)[:2]))
    assert dw.dtype == np.int64 and not dw.flags.writeable
    objects = weylaff._scan_arrays(rs, object)
    for a, b in zip(arrays, objects):
        assert b.dtype == object and not b.flags.writeable
        assert b.tolist() == a.tolist()
    den = coweight_den(rs)
    one = frac_identity(rs.dim)
    want = [tuple(tuple(int(c * den) for c in row) for row in ratmat.matmul(
                coweight_inverse(rs),
                tuple(ratmat.sub(r, e) for r, e in zip(m, one))))
            for m, _ in oracle_weyl_group(rs)]
    assert [w.matrix for w in weyl_elements(rs)] == \
        [m for m, _ in oracle_weyl_group(rs)]
    assert dw.shape == (rs.dim, rs.dim, len(want))
    assert [tuple(map(tuple, m)) for m in dw.transpose(2, 0, 1).tolist()] \
        == want


@pytest.mark.parametrize("family,rank,isogeny,generic,special", CASES,
                         ids=IDS)
def test_scan_translations_are_normalised_fractions(
        family, rank, isogeny, generic, special, monkeypatch):
    """On both dtypes every translation entry is a Fraction in lowest
    terms with a positive denominator."""
    rs = rs_of(family, rank, isogeny)
    rng = random.Random(seed_of(family, rank, isogeny))
    spy = DtypeSpy(monkeypatch)
    for x in points(rs, rng.random(), 2, special) + large_points(rs, rng):
        y = ratmat.add(x, coweight(rs, rng, 10 ** 6))
        for got in spy.both_scans(rs, (), ((x, x), (x, y))):
            for _, lams in got:
                for c in (c for lam in lams for c in lam):
                    assert type(c) is Fraction
                    assert c.denominator > 0
                    assert gcd(c.numerator, c.denominator) == 1


def test_object_scans_drop_elements_with_nonzero_residues(monkeypatch):
    """On A1, x = 1/7 is moved by s to -1/7 and 2/7 is no coweight: the
    residue of s is 2 * coweight_inv_den, nonzero and not -1, so both
    dtypes keep the identity alone, and x and 3/7 (s(x) - 3/7 = -4/7)
    likewise.  An `any` that returns an element rather than a bool (as on
    object arrays under numpy 1.x) would keep s."""
    rs = rs_of("A", 1, "sc")
    spy = DtypeSpy(monkeypatch)
    x, y = (Fraction(1, 7),), (Fraction(3, 7),)
    for fixed, pairs in (((), ((x, x),)), ((x,), ()), ((), ((x, y),))):
        want = oracle_weyl_scan(rs, fixed, pairs)
        assert len(want) <= 1
        for got in spy.both_scans(rs, fixed, pairs):
            assert [(w0.matrix, w0.word, lams) for w0, lams in got] == want


def test_the_fraction_memo_is_per_scan(monkeypatch):
    """Two scans whose translation numerators agree over different
    denominators: on A1, s(x) = -x, so x = 1/2 (d = 2) and x = 1 (d = 1)
    both give the numerator 2 for s, the translations 1 and 2."""
    rs = rs_of("A", 1, "sc")
    spy = DtypeSpy(monkeypatch)
    for x, lam in (("1/2", 1), ("1", 2), ("1/2", 1), ("3/2", 3)):
        x = (Fraction(x),)
        for got in spy.both_scans(rs, (), ((x, x),)):
            assert [lams for _, lams in got] == [((0,),), ((lam,),)]


# -- the floor-division remainder and the per-point W test --------------------


def most_negative(rows, limit):
    """(x, v): numerators x with |x| <= limit that make the dot product
    with the row of `rows` of largest absolute sum as negative as it gets,
    and that value v."""
    row = max(rows, key=lambda r: sum(map(abs, r)))
    x = tuple(limit * ((c < 0) - (c > 0)) for c in row)
    return x, sum(a * b for a, b in zip(row, x))


def wraps(v, m):
    """Whether (v // m) m, taken in int64, wraps past -2^63."""
    return v // m * m < -2 ** 63


@pytest.mark.parametrize("family,rank,isogeny", RANK4_TYPES,
                         ids=[f"{f}{r}-{i}" for f, r, i in RANK4_TYPES])
def test_floor_remainders_are_exact_at_the_int64_edge(family, rank, isogeny,
                                                      monkeypatch):
    """Both tests on int64 agree with dtype object at the edge of their
    bounds: numerators at the limit of `_weyl_stack` (of `_grad_arrays`
    for the root test), signed so that one product entry v is as negative
    as it gets, and m = d * coweight_inv_den (d for the root test) at the
    top of int64 or just below |v|.  There (v // m) m wraps past -2^63
    whenever |v| > 2^62: on A1 for the W test, on most types for the root
    test."""
    rs = rs_of(family, rank, isogeny)
    spy = DtypeSpy(monkeypatch)
    n, den = rs.dim, rs.coweight_inv_den
    dw = weylaff._scan_arrays(rs, np.int64)[2]
    x, v = most_negative(dw.transpose(2, 0, 1).reshape(-1, n).tolist(),
                         weylaff._weyl_stack(rs)[2])
    neg = tuple(-c for c in x)
    for m in ((2 ** 63 - 1) // den * den, (-v - 1) // den * den):
        assert wraps(v, m) == (m == (-v - 1) // den * den and -v > 2 ** 62)
        for fixed, pairs, lattice in (((), ((x, x),), ()), ((x,), (), ()),
                                      ((), ((x, neg),), ()),
                                      ((), ((neg, x),), (x,)),
                                      ((), (), (x,))):
            natural, forced = spy.both(weylaff.int_weyl_test, rs, m // den,
                                       fixed, pairs, lattice)
            assert natural.tolist() == forced.tolist()
    x, v = most_negative(weylaff._grad_arrays(rs)[0].T.tolist(),
                         weylaff._grad_arrays(rs)[2])
    neg = tuple(-c for c in x)
    for d in (2 ** 63 - 1, -v - 1):
        assert wraps(v, d) == (d == -v - 1 and -v > 2 ** 62)
        for fixed, pts in (((), (x,)), ((x,), (neg,)), ((), (x, neg))):
            natural, forced = spy.both(int_root_scan, rs, d, fixed, pts)
            assert natural == forced
    assert spy.seen == {np.int64}


def counted_takes(monkeypatch):
    """The lengths of the row sets the W test narrows its stack to, one
    `take` per point tested after the first."""
    taken = []

    class Stack(np.ndarray):
        def take(self, rows, axis=None):
            taken.append(len(rows))
            return np.asarray(self).take(rows, axis=axis)

    arrays = weylaff._scan_arrays
    monkeypatch.setattr(weylaff, "_scan_arrays", lambda rs, dtype: (
        *arrays(rs, dtype)[:2], arrays(rs, dtype)[2].view(Stack)))
    return taken


def test_w_test_narrows_per_point_and_stops_when_nothing_is_kept(
        monkeypatch):
    """On F4 each point after the first is tested on the rows the points
    before it kept, and the rows kept are the intersection of the
    one-point tests; a first point that keeps nothing ends the test, and
    points that are all zero keep all of W, on both dtypes."""
    rs = rs_of("F", 4, "sc")
    spy = DtypeSpy(monkeypatch)
    taken = counted_takes(monkeypatch)
    test = weylaff.int_weyl_test
    # over d = 4: a = (1/2, 1/2, 0, 0) keeps 96 elements
    a, b, c = (2, 2, 0, 0), (1, 0, 2, 0), (0, 1, 1, 1)
    alone = [set(test(rs, 4, (), ((p, p),)).tolist()) for p in (a, b, c)]
    assert len(alone[0]) == 96 and taken == []
    for got in spy.both(test, rs, 4, (), ((a, a),), (b, c)):
        assert got.tolist() == sorted(set.intersection(*alone))
    assert taken == [96, len(alone[0] & alone[1])] * 2
    taken.clear()
    # on A1, 3/7 - w0(1/7) is a coweight for no w0
    a1 = rs_of("A", 1, "sc")
    for got in spy.both(test, a1, 7, (), (((1,), (3,)),), ((1,),)):
        assert got.tolist() == [] and taken == []
    zero = (0,) * rs.dim
    for got in spy.both(test, rs, 4, (zero,), ((zero, zero),), (zero,)):
        assert got.tolist() == list(range(len(weyl_elements(rs))))
    assert test(rs, 1, (), ()).tolist() == list(range(1152))
    assert taken == []
    assert spy.seen == {np.int64}


@pytest.mark.parametrize("family,rank,isogeny,generic,special", CASES,
                         ids=IDS)
def test_hash_and_equality_follow_the_cartan_type(family, rank, isogeny,
                                                  generic, special):
    rs = rs_of(family, rank, isogeny)
    assert hash(rs) == hash(build_root_system(rs.cartan_type))
    fresh = build_root_system.__wrapped__(rs.cartan_type)
    assert fresh is not rs
    assert fresh == rs and hash(fresh) == hash(rs)
    other = rs_of("A", rank, "gl" if isogeny == "sc" else "sc")
    assert other != rs


def test_alcove_data_is_built_once_and_immutable():
    rs = rs_of("B", 3, "sc")
    assert fundamental_alcove(rs) is fundamental_alcove(rs)
    assert isinstance(fundamental_alcove(rs), tuple)
    assert alcove_vertices(rs) is alcove_vertices(rs)
    assert faces_of_alcove(rs) is faces_of_alcove(rs)
