import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from ymesh import projective
from ymesh.rational import ExtQ, DegenerateError
from ymesh.projective import (Point, Flat, span, join, meet, meet_point, rank_of, collinear,
                              cross_ratio, cross_ratio_pair, multi_ratio, multi_ratio_pair,
                              nullspace, rref)
from ymesh.mesh import solve_menelaus

from fraction_gauss import fraction_meet, fraction_nullspace, fraction_rref

coords = st.fractions(min_value=-12, max_value=12, max_denominator=6)


def pt(*xs):
    return Point.affine(*xs)


def test_point_normalization_and_equality():
    assert Point(2, 4, 6) == Point(1, 2, 3)
    assert Point(0, 3, 6) == Point(0, 1, 2)
    with pytest.raises(ValueError):
        Point(0, 0, 0)


def test_point_primitive_integer_vector():
    p = Point(Fraction(-1, 2), Fraction(1, 3), 0)
    assert p.z == (3, -2, 0)
    assert p.v == (1, Fraction(-2, 3), 0)
    assert Point((0, -6, 4)) == Point(0, 3, -2)
    assert Point((0, -6, 4)).z == (0, 3, -2)


def test_join_meet_oracle():
    # y = 1 meets y = 2x at (1/2, 1)
    l1 = join(pt(0, 1), pt(1, 1))
    l2 = join(pt(0, 0), pt(1, 2))
    assert meet_point(l1, l2) == pt(Fraction(1, 2), 1)


def test_meet_of_parallel_lines_is_at_infinity():
    l1 = join(pt(0, 0), pt(1, 1))
    l2 = join(pt(0, 1), pt(1, 2))
    p = meet_point(l1, l2)
    assert p.v[-1] == 0  # ideal point


def test_cross_ratio_oracles():
    a, b, c = pt(0), pt(1), pt(2)
    inf = Point(1, 0)
    assert cross_ratio(a, b, c, inf) == ExtQ(-1)
    assert cross_ratio(pt(1), pt(2), pt(3), pt(4)) == ExtQ(-1, 3)


def test_multi_ratio_oracles():
    pts = [pt(k) for k in range(6)]
    assert multi_ratio(pts) == ExtQ(-1, 5)
    assert multi_ratio(pts[:4]) == cross_ratio(*pts[:4])


def test_multi_ratio_degeneracies():
    assert multi_ratio([pt(0), pt(0), pt(1), pt(2)]) == ExtQ(0)
    with pytest.raises(DegenerateError):
        multi_ratio([pt(0), pt(0), pt(0), pt(2)])  # 0/0 chart factor


def test_multi_ratio_more_inf_than_zero_factors_raises():
    # factors: (0,0,1) is 0, (1,2,2) and (2,0,0) are inf; inf * inf * 0 is
    # indeterminate, as ExtQ makes inf * 0
    with pytest.raises(DegenerateError):
        multi_ratio([pt(0), pt(0), pt(1), pt(2), pt(2), pt(0)])


def test_rank_and_collinear():
    assert rank_of([pt(0, 0), pt(1, 1), pt(2, 2)]) == 2
    assert collinear([pt(0, 0), pt(1, 1), pt(2, 2)])
    assert not collinear([pt(0, 0), pt(1, 1), pt(1, 0)])


def test_flat_equality_is_representation_independent():
    f1 = span([pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0)])
    f2 = span([pt(2, 3, 0), pt(-1, 5, 0), pt(7, 0, 0)])
    assert f1 == f2


@given(st.lists(coords, min_size=4, max_size=4, unique=True))
def test_cross_ratio_projective_invariance(xs):
    # a fractional-linear substitution x -> (2x+3)/(x+5) preserves cross ratios
    pts = [pt(x) for x in xs]

    def moebius(x):
        den = x + 5
        if den == 0:
            return Point(1, 0)
        return pt((2 * x + 3) / den)

    imgs = [moebius(x) for x in xs]
    if len(set(imgs)) < 4:
        return
    assert cross_ratio(*pts) == cross_ratio(*imgs)


def test_menelaus_on_complete_quadrilateral():
    # four generic lines; the six pairwise intersections have multi-ratio -1
    lines = [join(pt(0, 0), pt(1, 2)), join(pt(3, 0), pt(0, 3)),
             join(pt(-1, 1), pt(4, 2)), join(pt(0, 5), pt(5, 1))]
    la, lb, lc, ld = lines
    def x(u, v):
        return meet_point(u, v)
    six = [x(la, ld), x(la, lc), x(la, lb), x(lb, lc), x(lb, ld), x(lc, ld)]
    assert multi_ratio(six) == ExtQ(-1)


# ---- the integer kernel agrees with the Fraction Gauss-Jordan route ---------


def line_chart(points):
    """Pivot-coordinate chart on the line through the given points: for each
    point the pair of its coordinates in the pivot columns of the line's RREF
    basis.  The points must span a line."""
    pts = list(points)
    red, _ = fraction_rref([p.z for p in pts])
    if len(red) != 2:
        raise DegenerateError("points span rank %d, expected a line" % len(red))
    j1 = next(i for i, c in enumerate(red[0]) if c != 0)
    j2 = next(i for i, c in enumerate(red[1]) if c != 0)
    return [(p.v[j1], p.v[j2]) for p in pts]


def _flat_cross_ratio(*pts):
    c1, c2, c3, c4 = line_chart(pts)

    def det(p, q):
        return p[0] * q[1] - p[1] * q[0]

    return ExtQ(det(c1, c2) * det(c3, c4), det(c2, c3) * det(c4, c1))


def _flat_multi_ratio(pts):
    n = len(pts)
    num, den, inf_count = Fraction(1), Fraction(1), 0
    for i in range(0, n, 2):
        c1, c2, c3 = line_chart([pts[i], pts[(i + 1) % n], pts[(i + 2) % n]])
        a = c1[0] * c2[1] - c1[1] * c2[0]
        b = c2[0] * c3[1] - c2[1] * c3[0]
        if a == 0 and b == 0:
            raise DegenerateError("0/0 factor in multi-ratio")
        inf_count += (b == 0) - (a == 0)
        num, den = num * a, den * b
    if num == 0 and den == 0:
        raise DegenerateError("inf * 0 in multi-ratio")
    if inf_count > 0:
        return ExtQ.infinity()
    return ExtQ(num, den)


def _line_meet(a, b, c, d):
    return meet_point(join(a, b), join(c, d))


def _flat_meet(a, b, c, d):
    m = fraction_meet([a.z, b.z], [c.z, d.z], len(a.z))
    if len(m) != 1:
        raise DegenerateError("flats meet in rank %d, expected a point" % len(m))
    return Point(m[0])


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except (DegenerateError, ValueError) as e:
        return ("raises", type(e))


def _rand_vec(rng, n):
    while True:
        v = [rng.randint(-9, 9) for _ in range(n)]
        if any(v):
            return v


def _combo(rng, *vecs):
    """A random point of the span of the integer vectors."""
    while True:
        coeffs = [rng.randint(-5, 5) for _ in vecs]
        v = [sum(c * x[k] for c, x in zip(coeffs, vecs)) for k in range(len(vecs[0]))]
        if any(v):
            return Point(v)


@pytest.mark.parametrize("dim", range(2, 7))
def test_integer_kernel_matches_flat_route(dim):
    rng = random.Random(dim)
    n = dim + 1
    for _ in range(40):
        p, q, r = (_rand_vec(rng, n) for _ in range(3))
        line = [_combo(rng, p, q) for _ in range(4)]
        assert _outcome(cross_ratio, *line) == _outcome(_flat_cross_ratio, *line)
        k = rng.randint(1, n)
        basis = [_rand_vec(rng, n) for _ in range(k)]
        pts = [_combo(rng, *basis) for _ in range(rng.randint(1, n + 2))]
        assert rank_of(pts) == len(fraction_rref([x.v for x in pts])[0])
        assert collinear(pts) == (span(pts).rank <= 2)
        # two lines of one plane
        l1 = [_combo(rng, p, q, r) for _ in range(2)]
        l2 = [_combo(rng, p, q, r) for _ in range(2)]
        assert _outcome(_line_meet, *l1, *l2) == _outcome(_flat_meet, *l1, *l2)
        # a closed chain of six points whose consecutive triples are collinear
        lines = [[_combo(rng, p, q, r) for _ in range(2)] for _ in range(4)]
        six = [_flat_meet(*lines[u], *lines[v])
               for u, v in ((0, 3), (0, 2), (0, 1), (1, 2), (1, 3), (2, 3))]
        assert _outcome(multi_ratio, six) == _outcome(_flat_multi_ratio, six)


@pytest.mark.parametrize("dim", range(2, 7))
def test_integer_kernel_degenerate_inputs_raise_alike(dim):
    rng = random.Random(100 + dim)
    n = dim + 1

    for _ in range(10):
        p, q, r, s = (Point(_rand_vec(rng, n)) for _ in range(4))
        x = _combo(rng, p.z, q.z)
        y = _combo(rng, p.z, q.z)
        cases = [
            (p, p, q, r),   # a line through one point, off the other line
            (p, p, p, q),   # a line through one point, on the other line
            (p, q, p, q),   # coincident lines, same points
            (p, q, x, y),   # coincident lines, other points
            (p, q, r, r),
        ]
        if dim >= 3:
            cases.append((p, q, r, s))  # skew lines
        for case in cases:
            got = _outcome(_line_meet, *case)
            assert got == _outcome(_flat_meet, *case), case
        quadruples = [
            (p, p, p, p),   # rank 1
            (p, p, q, q),
            (p, p, p, q),   # 0/0
            (p, q, r, x),   # not collinear
            (p, x, q, y),
        ]
        for quad in quadruples:
            got = _outcome(cross_ratio, *quad)
            assert got == _outcome(_flat_cross_ratio, *quad), quad
        chains = [
            [p, p, p, q],           # a triple of one point
            [p, q, r, x, y, s],     # triples off one line
            [p, x, p, q, y, q],     # 0/0 factors
            [p, p, q, x, q, y],     # a zero factor
        ]
        for chain in chains:
            got = _outcome(multi_ratio, chain)
            assert got == _outcome(_flat_multi_ratio, chain), chain
    assert _outcome(_line_meet, p, q, p, q) == ("raises", DegenerateError)
    assert _outcome(cross_ratio, p, p, p, p) == ("raises", DegenerateError)
    if dim >= 3:
        assert _outcome(_line_meet, p, q, r, s) == ("raises", DegenerateError)


def _matrices(rng, n):
    """Integer matrices with n columns, of every rank 0..n, with zero rows,
    repeated rows and rows with a common factor, the rows shuffled."""
    for k in range(n + 1):
        basis = [_rand_vec(rng, n) for _ in range(k)]
        rows = [list(_combo(rng, *basis).z) for _ in range(k + rng.randint(0, 2))] if k else []
        rows += [[0] * n] * rng.randint(0, 2)
        if rows:
            rows += [rng.choice(rows), [rng.randint(2, 9) * x for x in rng.choice(rows)]]
        rng.shuffle(rows)
        yield rows


def _flats(rng, n):
    """Random point lists in RP^(n-1) whose spans share a random subspace."""
    common = [_rand_vec(rng, n) for _ in range(rng.randint(0, n - 1))]
    for _ in range(2):
        free = n - len(common)
        own = [_rand_vec(rng, n) for _ in range(rng.randint(0 if common else 1, free // 2 + 1))]
        yield [_combo(rng, *common, *own) for _ in range(len(common) + len(own) + rng.randint(0, 1))]


@pytest.mark.parametrize("dim", range(2, 7))
def test_integer_flats_match_fraction_reference(dim):
    rng = random.Random(500 + dim)
    n = dim + 1
    ranks, meet_ranks = set(), set()
    for _ in range(12):
        for rows in _matrices(rng, n):
            red, pivots = rref(rows)
            want, want_pivots = fraction_rref(rows)
            assert pivots == want_pivots, rows
            assert red == tuple(Point(r).z for r in want), rows  # pivots positive
            ranks.add(len(red))
            ker = nullspace(rows, n)
            assert len(ker) == n - len(red)
            assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in rows for v in ker)
            assert ker == [Point(v).z for v in fraction_nullspace(rows, n)]
    for _ in range(40):
        a, b = _flats(rng, n)
        m = meet(span(a), span(b))
        want = fraction_meet([p.z for p in a], [p.z for p in b], n)
        assert m.rank == len(want)
        assert m.rows == tuple(Point(r).z for r in want)
        if m.rank == 1:
            assert m.point() == Point(want[0])
        meet_ranks.add(m.rank)
        assert meet(Flat([], ncols=n), span(a)).rank == 0
    assert ranks == set(range(n + 1))
    assert {0, 1, 2} <= meet_ranks


# ---- one line chart decides every collinearity ---------------------------


def _bareiss_rank(rows):
    """Rank of integer rows by fraction-free elimination, pivoting on the
    first nonzero entry of each column."""
    mat = [list(r) for r in rows]
    rank, prev = 0, 1
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for r in range(rank + 1, len(mat)):
            mat[r] = [(mat[rank][col] * x - mat[r][col] * y) // prev
                      for x, y in zip(mat[r], mat[rank])]
        prev = mat[rank][col]
        rank += 1
    return rank


def _point_sets(rng, n):
    """Collinear, non-collinear, repeated and all-equal point lists in
    RP^(n-1), each shuffled."""
    p, q, r = (_rand_vec(rng, n) for _ in range(3))
    on = [_combo(rng, p, q) for _ in range(rng.randint(1, 5))]
    off = [_combo(rng, p, q, r) for _ in range(rng.randint(1, 5))]
    one = Point(p)
    sets = [on, off, on + off, on + on, [one] * rng.randint(1, 5),
            [one] * 2 + [Point(q)] + [one], [Point(p), Point(q), Point(r)]]
    for pts in sets:
        rng.shuffle(pts)
    return sets


@pytest.mark.parametrize("dim", range(1, 7))
def test_collinear_matches_bareiss_reference(dim):
    rng = random.Random(200 + dim)
    seen = set()
    for _ in range(60):
        for pts in _point_sets(rng, dim + 1):
            want = _bareiss_rank([x.z for x in pts]) <= 2
            assert collinear(pts) == want, pts
            seen.add(want)
    assert seen == {True, False} or dim == 1
    assert collinear([]) and collinear([Point(1, 2)])


@pytest.mark.parametrize("dim", range(1, 7))
def test_rank_of_tall_lists_match_bareiss(dim):
    """Lists longer than the vectors, independent or not in their first
    D + 1 vectors (a repeat, a collinear prefix), so both the prefix and the
    full elimination run."""
    rng = random.Random(400 + dim)
    n = dim + 1
    for _ in range(40):
        basis = [_rand_vec(rng, n) for _ in range(rng.randint(1, n))]
        pts = [_combo(rng, *basis) for _ in range(rng.randint(n + 1, n + 6))]
        p, q = pts[0], pts[1]
        for head in ([], [p] * n, [p, q] + [_combo(rng, p.z, q.z) for _ in range(n - 2)]):
            tall = head + pts
            assert rank_of(tall) == _bareiss_rank([x.z for x in tall]), tall
    free = [Point(_rand_vec(rng, n)) for _ in range(n + 3)]
    assert rank_of(free) == _bareiss_rank([x.z for x in free])
    assert rank_of([]) == 0


@pytest.mark.parametrize("dim", range(1, 7))
def test_rank_of_short_lists_match_bareiss(dim):
    """Lists of up to three vectors, decided by the line chart: repeated,
    collinear, general and mixed, in every order."""
    rng = random.Random(500 + dim)
    n = dim + 1
    seen = set()
    for _ in range(40):
        p, q, r = (Point(_rand_vec(rng, n)) for _ in range(3))
        on = _combo(rng, p.z, q.z)
        for pts in ([], [p], [p, p], [p, p, p], [p, q], [p, q, p], [p, p, q], [p, q, on],
                    [on, p, q], [p, q, r], [p, r, q], [p, p, r]):
            want = _bareiss_rank([x.z for x in pts])
            assert rank_of(pts) == want, pts
            seen.add(want)
    assert seen == {0, 1, 2, 3} or (dim == 1 and seen == {0, 1, 2})


def _outcome_msg(fn, *args):
    try:
        return ("value", fn(*args))
    except DegenerateError as e:
        return ("raises", str(e))


def _pair_cross_ratio(*pts):
    return ExtQ(*cross_ratio_pair(*pts))


def _pair_multi_ratio(pts):
    return ExtQ(*multi_ratio_pair(pts))


@pytest.mark.parametrize("dim", range(1, 7))
def test_pair_helpers_match_line_chart_reference(dim):
    rng = random.Random(300 + dim)
    n = dim + 1
    for _ in range(30):
        p, q, r = (_rand_vec(rng, n) for _ in range(3))
        a, b = Point(p), Point(q)
        line = [_combo(rng, p, q) for _ in range(4)]
        quads = [line, [a, a, a, a], [a, a, b, b], [a, a, a, b], [a, b, a, b],
                 line[:3] + [_combo(rng, p, q, r)]]
        for quad in quads:
            got, want = _outcome(_pair_cross_ratio, *quad), _outcome(_flat_cross_ratio, *quad)
            assert got == want, quad
            if want[0] == "value":
                continue
            got, want = _outcome_msg(_pair_cross_ratio, *quad), _outcome_msg(_flat_cross_ratio, *quad)
            assert got == want or "rank" not in want[1], quad
        if dim == 1:
            six = [Point(_rand_vec(rng, n)) for _ in range(6)]
        else:
            lines = [[_combo(rng, p, q, r) for _ in range(2)] for _ in range(4)]
            six = [_flat_meet(*lines[u], *lines[v])
                   for u, v in ((0, 3), (0, 2), (0, 1), (1, 2), (1, 3), (2, 3))]
        chains = [six, line + line[:2], [a, a, a, b], [a, b, a, b, a, b], [a, a, b, b, a, b]]
        if dim >= 2:
            chains.append(six[:5] + [_combo(rng, p, q, r)])
        for chain in chains:
            assert _outcome(_pair_multi_ratio, chain) == _outcome(_flat_multi_ratio, chain), chain


def _fraction_solve_menelaus(points):
    """The six-point relation solved in the leading-coordinate charts
    (Point.v), as a Fraction reference."""
    idx = points.index(None)

    def det(u, v):
        return points[u].v[0] * points[v].v[1] - points[u].v[1] * points[v].v[0]

    terms = []
    for pairs in (((0, 1), (2, 3), (4, 5)), ((1, 2), (3, 4), (5, 0))):
        scale, form = Fraction(1), None
        for u, v in pairs:
            if u == idx:
                form = (points[v].v[1], -points[v].v[0])
            elif v == idx:
                form = (-points[u].v[1], points[u].v[0])
            else:
                scale *= det(u, v)
        terms.append((scale * form[0], scale * form[1]))
    ax, by = terms[0][0] + terms[1][0], terms[0][1] + terms[1][1]
    if ax == 0 and by == 0:
        raise DegenerateError("Menelaus solve is indeterminate")
    return Point((by, -ax))


def test_solve_menelaus_matches_fraction_reference():
    rng = random.Random(7)
    pool = [Point(1, 0), Point(0, 1), Point(-3, 7)]
    raised = 0
    for _ in range(300):
        pts = [Point(rng.randint(-40, 40) or 1, rng.randint(-40, 40)) for _ in range(5)]
        if rng.random() < 0.3:
            pts[rng.randrange(5)] = rng.choice(pool + pts)
        for slot in range(6):
            six = pts[:slot] + [None] + pts[slot:]
            got = _outcome_msg(solve_menelaus, six)
            assert got == _outcome_msg(_fraction_solve_menelaus, six), six
            raised += got[0] == "raises"
            six[slot] = got[1] if got[0] == "value" else None
            if None not in six and len(set(six)) == 6:
                assert sum(multi_ratio_pair(six)) == 0
    assert raised > 0


@pytest.mark.parametrize("dim", range(2, 7))
def test_degenerate_meets_match_flat_route_without_rref(dim, monkeypatch):
    rng = random.Random(400 + dim)
    n = dim + 1
    calls, checked = [], 0
    original = projective.rref

    def counted(rows):
        calls.append(1)
        return original(rows)

    for _ in range(10):
        p, q, r, s = (Point(_rand_vec(rng, n)) for _ in range(4))
        x, y = _combo(rng, p.z, q.z), _combo(rng, p.z, q.z)
        if len({p, q, x, y}) < 4:
            continue
        cases = [(p, q, p, q), (p, q, x, y), (p, q, q, p)]  # coincident lines
        if _bareiss_rank([p.z, q.z, r.z, s.z]) == 4:
            cases.append((p, q, r, s))  # skew lines
        for case in cases:
            want = _outcome_msg(_flat_meet, *case)
            assert want[0] == "raises"
            monkeypatch.setattr(projective, "rref", counted)
            assert _outcome_msg(_line_meet, *case) == want, case
            monkeypatch.setattr(projective, "rref", original)
            checked += 1
        # a line given by one point twice meets a point in that point when
        # they are equal, and a line when the point is on it
        one_point = [(p, p, p, q), (p, p, q, p), (p, p, x, y), (x, y, p, p), (p, p, q, r),
                     (q, r, p, p), (p, p, p, p), (p, p, q, q), (q, q, p, p)]
        for case in one_point:
            want = _outcome_msg(_flat_meet, *case)
            monkeypatch.setattr(projective, "rref", counted)
            assert _outcome_msg(_line_meet, *case) == want, case
            monkeypatch.setattr(projective, "rref", original)
        assert meet_point(join(p, p), join(p, q)) == p
        assert meet_point(join(p, p), join(p, p)) == p
        assert not calls
    assert checked >= 20


# ---- meets from a content-free Cramer vector -------------------------------


def _cramer_meet_vector(a, b, u, w):
    """The meet of lines <a, b> and <u, w> by Cramer's rule with lam and mu
    left unreduced: det(a, b, w) u - det(a, b, u) w on the first chart of
    three coordinates where they are not both zero; None where
    ``projective._meet_lines`` gives None."""
    for i, j, k in combinations(range(len(a)), 3):
        def det3(x):
            return (a[i] * (b[j] * x[k] - b[k] * x[j]) - a[j] * (b[i] * x[k] - b[k] * x[i])
                    + a[k] * (b[i] * x[j] - b[j] * x[i]))
        lam, mu = det3(w), det3(u)
        if lam or mu:
            x = [lam * s - mu * t for s, t in zip(u, w)]
            on = len(a) == 3 or _bareiss_rank([a, b, x]) <= 2
            return x if any(x) and on else None
    return None


def _scaled(rng, pts):
    """Vectors of the points, each times a random large factor, so lam and
    mu share a large common factor."""
    out = []
    for p in pts:
        k = rng.choice((1, -1)) * rng.randint(1, 2 ** 40)
        out.append([k * x for x in p.z])
    return out


@pytest.mark.parametrize("dim", range(2, 6))
def test_meet_point_matches_unreduced_cramer_reference(dim, monkeypatch):
    rng = random.Random(300 + dim)
    n = dim + 1
    met = 0
    for _ in range(60):
        p, q, r, s = (_rand_vec(rng, n) for _ in range(4))
        a, b, u, w = _scaled(rng, [_combo(rng, p, q, r) for _ in range(4)])
        x = _cramer_meet_vector(a, b, u, w)
        got = _outcome(meet_point, Flat([a, b]), Flat([u, w]))
        if x is not None:
            assert got == ("value", Point(x))
            met += 1
        # degenerate inputs: coincident lines, skew lines (D >= 3), a line
        # given by one point twice, on the other line or off it
        y, z = _combo(rng, p, q), _combo(rng, p, q)
        cases = [([p, q], [y.z, z.z]), ([p, p], [p, q]), ([p, p], [q, r]), ([p, p], [p, p]),
                 ([p, p], [q, q]), ([p, q], [r, s]),
                 (_scaled(rng, [Point(p)] * 2), _scaled(rng, [Point(p), Point(q)]))]
        want = [_outcome(meet_point, Flat(g1), Flat(g2)) for g1, g2 in cases]
        with monkeypatch.context() as mp:
            mp.setattr(projective, "_meet_lines", _cramer_meet_vector)
            assert [_outcome(meet_point, Flat(g1), Flat(g2)) for g1, g2 in cases] == want
            assert got == _outcome(meet_point, Flat([a, b]), Flat([u, w]))
    assert met > 50


def test_meet_point_of_a_plane_and_a_line_in_rp3():
    # three generators take meet_point past its two-line cases to ``meet``
    plane = span([Point(1, 0, 0, 0), Point(0, 1, 0, 0), Point(0, 0, 1, 1)])
    line = join(Point(1, 2, 3, 4), Point(5, -1, 2, 7))
    assert meet_point(plane, line) == meet(plane, line).point() == Point(0, 11, 13, 13)
    inside = join(Point(1, 2, 0, 0), Point(3, 1, 4, 4))
    with pytest.raises(DegenerateError, match="flats meet in rank 2, expected a point"):
        meet_point(plane, inside)
