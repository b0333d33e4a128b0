"""Each rule written once for a float and a column, at its thresholds.

The world's placement rules (`world._overlap`, `_inside_open`, `_rest_gap`,
`_opening_fit` and `_outside`) and `helpers.position_within_bounds` are
scores or tests that the skills call on Python floats and the place screen
on numpy columns.  On boxes and points a few ulps either side of each
threshold, the float call must give the verdict of the retired chained
comparisons in `reference`, and each row of a column call must equal the
float call on that row.  A zero may differ in its sign between numpy's
`minimum` and the builtin `min`; no comparison with 0 reads it.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from owltamp import world as W
from owltamp.geometry import Aabb
from owltamp.lang.ast import BoundsBox
from owltamp.lang.helpers import position_within_bounds, within_score

from reference import (
    admits_gripper, contains_position, fits_opening, inside_open_interior, overlaps, rests_on,
)

COORD = st.one_of(st.sampled_from([-0.5, 0.0, 0.25, 0.5, 1.0]), st.floats(-2.0, 2.0))
SIZE = st.one_of(st.sampled_from([0.0, W.CONTACT_TOL, 0.02, 0.05]), st.floats(0.0, 1.0))
ULPS = st.integers(-3, 3)
CASES = st.integers(1, 8)


def _ulps(value, n):
    """`value` moved `n` ulps."""
    for _ in range(abs(n)):
        value = math.nextafter(value, math.inf if n > 0 else -math.inf)
    return value


def _box(lower, sizes):
    return Aabb(lower, tuple(lo + s for lo, s in zip(lower, sizes)))


def _columns(boxes):
    """The boxes as one box whose corner coordinates are columns."""
    return Aabb.trusted(tuple(np.array([b.lower[k] for b in boxes]) for k in range(3)),
                        tuple(np.array([b.upper[k] for b in boxes]) for k in range(3)))


def _rows_equal(column, floats):
    assert len(column) == len(floats)
    for got, want in zip(column.tolist(), floats):
        assert type(got) is type(want)
        assert got == want


@st.composite
def boxes(draw):
    return _box(tuple(draw(COORD) for _ in range(3)), tuple(draw(SIZE) for _ in range(3)))


@st.composite
def overlap_pairs(draw):
    """Two boxes that interpenetrate by CONTACT_TOL, a few ulps either side,
    on one axis, or two boxes drawn apart."""
    a = draw(boxes())
    if draw(st.booleans()):
        return a, draw(boxes())
    axis = draw(st.integers(0, 2))
    lower = [draw(COORD) for _ in range(3)]
    lower[axis] = _ulps(a.upper[axis] - W.CONTACT_TOL, draw(ULPS))
    b = _box(tuple(lower), tuple(draw(SIZE) for _ in range(3)))
    return (a, b) if draw(st.booleans()) else (b, a)


@settings(max_examples=200, deadline=None)
@given(st.lists(overlap_pairs(), min_size=1, max_size=8))
def test_overlap_is_the_retired_test_for_a_float_and_each_row(pairs):
    scores = [W._overlap(a, b) for a, b in pairs]
    for (a, b), score in zip(pairs, scores):
        assert (score > W.CONTACT_TOL) is overlaps(a, b, W.CONTACT_TOL)
    a, b = zip(*pairs)
    _rows_equal(W._overlap(_columns(a), _columns(b), np.minimum, np.maximum), scores)


@st.composite
def open_interiors(draw):
    """A container hull and a box whose faces lie at the open interior's
    thresholds, a few ulps either side of them, or a little way off."""
    container = draw(boxes())
    (c0, c1, c2), (C0, C1, _) = container.lower, container.upper
    t, wall = W.CONTACT_TOL, W.WALL_THICKNESS
    edges = ((c0 + wall - t, C0 - wall + t), (c1 + wall - t, C1 - wall + t))
    lower, upper = [], []
    for lo, up in edges:
        lower.append(_ulps(lo, draw(ULPS)) if draw(st.booleans()) else draw(COORD))
        upper.append(_ulps(up, draw(ULPS)) if draw(st.booleans()) else draw(COORD))
    lower.append(_ulps(c2 + W.FLOOR_THICKNESS - t, draw(ULPS)) if draw(st.booleans())
                 else draw(COORD))
    upper.append(lower[2] + draw(SIZE))
    # An inverted footprint never reaches the rule: hulls are ordered.
    return Aabb.trusted(tuple(min(p) for p in zip(lower, upper)),
                        tuple(max(p) for p in zip(lower, upper))), container


@settings(max_examples=200, deadline=None)
@given(st.lists(open_interiors(), min_size=1, max_size=8))
def test_inside_open_is_the_retired_test_for_a_float_and_each_row(cases):
    scores = [W._inside_open(box, container) for box, container in cases]
    for (box, container), score in zip(cases, scores):
        assert (score >= 0) is inside_open_interior(box, container)
    box, container = zip(*cases)
    _rows_equal(W._inside_open(_columns(box), _columns(container), np.minimum), scores)


@st.composite
def rest_pairs(draw):
    """A bottom face within 0.02 + CONTACT_TOL of a top face, a few ulps
    either side, above or below it, or anywhere."""
    top = draw(COORD)
    if draw(st.booleans()):
        return draw(COORD), top
    gap = _ulps(0.02 + W.CONTACT_TOL, draw(ULPS))
    return (top + gap if draw(st.booleans()) else top - gap), top


@settings(max_examples=200, deadline=None)
@given(st.lists(rest_pairs(), min_size=1, max_size=8))
def test_rest_gap_is_the_retired_test_for_a_float_and_each_row(pairs):
    scores = [W._rest_gap(bottom, top) for bottom, top in pairs]
    for (bottom, top), score in zip(pairs, scores):
        assert (score >= 0) is rests_on(bottom, top)
    bottom, top = (np.array(v) for v in zip(*pairs))
    _rows_equal(W._rest_gap(bottom, top), scores)


@st.composite
def openings(draw):
    """An interior and half extents whose doubles are its width and depth,
    a few ulps either side, or any."""
    inner = draw(boxes())
    halves = []
    for k in range(2):
        width = inner.upper[k] - inner.lower[k]
        halves.append(_ulps(width / 2, draw(ULPS)) if draw(st.booleans()) else draw(SIZE))
    return inner, *halves


@settings(max_examples=200, deadline=None)
@given(st.lists(openings(), min_size=1, max_size=8))
def test_opening_fit_is_the_retired_test_for_a_float_and_each_row(cases):
    scores = [W._opening_fit(inner, e0, e1) for inner, e0, e1 in cases]
    for (inner, e0, e1), score in zip(cases, scores):
        assert (score >= 0) is fits_opening(inner, e0, e1)
        gripper = W.GRIPPER_CLEARANCE / 2
        assert (W._opening_fit(inner, gripper, gripper) >= 0) is admits_gripper(inner)
    inner, e0, e1 = zip(*cases)
    _rows_equal(W._opening_fit(_columns(inner), np.array(e0), np.array(e1), np.minimum), scores)


@settings(max_examples=200, deadline=None)
@given(boxes(), st.integers(0, 5), ULPS, st.tuples(COORD, COORD, COORD),
       st.sampled_from([0.0, W.CONTACT_TOL, -W.CONTACT_TOL, W.GRASP_MARGIN]), CASES)
def test_outside_is_the_retired_test_for_a_float_and_each_row(box, face, n, point, slack, cases):
    """`_outside` against `contains_point`: a point with one coordinate on a
    face of the box, grown by the slack, a few ulps either side."""
    corner = (box.lower, box.upper)[face // 3][face % 3]
    point = list(point)
    point[face % 3] = _ulps(corner + (slack if face >= 3 else -slack), n)
    refused = W._outside(box, *point, slack)
    assert refused is (not box.contains_point(point, slack))
    rows = W._outside(box, *(np.full(cases, v) for v in point), slack)
    assert rows.tolist() == [refused] * cases


@st.composite
def bounded_points(draw):
    """Bounds, some of them infinite, and a point with one coordinate on a
    face, a few ulps either side."""
    pairs = [sorted((draw(COORD), draw(COORD))) for _ in range(3)]
    for pair in pairs:
        if draw(st.integers(0, 3)) == 0:
            pair[draw(st.integers(0, 1))] = math.inf if draw(st.booleans()) else -math.inf
    pairs = [sorted(p) for p in pairs]
    b = BoundsBox(tuple(p[0] for p in pairs) + (-math.pi,) * 3,
                  tuple(p[1] for p in pairs) + (math.pi,) * 3)
    point = [draw(COORD) for _ in range(3)]
    axis = draw(st.integers(0, 2))
    face = pairs[axis][draw(st.integers(0, 1))]
    if math.isfinite(face):
        point[axis] = _ulps(face, draw(ULPS))
    return b, tuple(point)


@settings(max_examples=200, deadline=None)
@given(st.lists(bounded_points(), min_size=1, max_size=8))
def test_within_bounds_is_the_retired_test_for_a_float_and_each_row(cases):
    scores = [within_score(p, b) for b, p in cases]
    for (b, p), score in zip(cases, scores):
        assert position_within_bounds(p, b) is contains_position(b, p)
        assert (score >= 0) is contains_position(b, p)
    bounds, points = zip(*cases)
    column = BoundsBox.trusted(tuple(np.array(v) for v in zip(*(b.lower for b in bounds))),
                               tuple(np.array(v) for v in zip(*(b.upper for b in bounds))))
    _rows_equal(within_score(tuple(np.array(v) for v in zip(*points)), column, np.minimum),
                scores)
