import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owltamp.geometry import Aabb, Pose6, box_at_pose, rotated_half_extents, wrap_angle
from owltamp.world import GRASP_MARGIN, _overlap

from reference import rotation_matrix

ANGLES = st.floats(-math.pi, math.pi)
HALF = st.floats(1e-3, 1.0)


def test_wrap_angle_into_range():
    for a in (-9.0, -math.pi, -1.0, 0.0, 1.0, math.pi, 9.0, 100.0):
        w = wrap_angle(a)
        assert -math.pi <= w <= math.pi
        assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-12)
        assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-12)


def test_pose_normalizes_angles_and_rejects_nan():
    p = Pose6(0, 0, 0, roll=4.0, pitch=-4.0, yaw=2 * math.pi)
    assert -math.pi <= p.roll <= math.pi
    assert -math.pi <= p.pitch <= math.pi
    assert abs(p.yaw) < 1e-9
    with pytest.raises(ValueError):
        Pose6(float("nan"), 0, 0)


@pytest.mark.parametrize("components, first_bad", [
    ({"x": math.nan}, "x"),
    ({"yaw": math.inf}, "yaw"),
    ({"z": -math.inf, "roll": math.nan}, "z"),
])
def test_non_finite_pose_names_the_first_bad_component(components, first_bad):
    with pytest.raises(ValueError, match=f"^non-finite pose component {first_bad}="):
        Pose6(**components)


POSE_FIELDS = ("x", "y", "z", "roll", "pitch", "yaw")
WIDE = st.floats(-10.0, 10.0)


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[WIDE] * 6), st.dictionaries(st.sampled_from(POSE_FIELDS), WIDE))
def test_moved_equals_dataclasses_replace(components, changes):
    pose = Pose6(*components)
    got, want = pose.moved(**changes), dataclasses.replace(pose, **changes)
    # Bit for bit: the angles are wrapped again either way.
    assert [v.hex() for v in got.as_tuple()] == [v.hex() for v in want.as_tuple()]


def _corner_hull(half, roll, pitch, yaw):
    """Independent oracle: axis-aligned hull from the 8 rotated corners."""
    r = rotation_matrix(roll, pitch, yaw)
    corners = []
    for sx in (-1, 1):
        for sy in (-1, 1):
            for sz in (-1, 1):
                corners.append(r @ np.array([sx * half[0], sy * half[1], sz * half[2]]))
    corners = np.array(corners)
    return corners.max(axis=0)


def test_rotated_half_extents_matches_corner_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(200):
        half = rng.uniform(0.01, 0.2, size=3)
        rpy = rng.uniform(-math.pi, math.pi, size=3)
        got = rotated_half_extents(half, *rpy)
        want = _corner_hull(half, *rpy)
        assert np.allclose(got, want, atol=1e-12)


def test_yawed_cube_extents():
    # A unit cube yawed 45 degrees spans sqrt(2)/2 per side in x and y.
    got = rotated_half_extents((0.5, 0.5, 0.5), 0.0, 0.0, math.pi / 4)
    assert math.isclose(got[0], math.sqrt(2) / 2, rel_tol=1e-12)
    assert math.isclose(got[1], math.sqrt(2) / 2, rel_tol=1e-12)
    assert math.isclose(got[2], 0.5, rel_tol=1e-12)


def test_aabb_basics():
    box = Aabb.from_center((0, 0, 0), (0.5, 0.5, 0.5))
    assert box.lower == (-0.5, -0.5, -0.5)
    assert box.upper == (0.5, 0.5, 0.5)
    assert box.contains_point((0.5, 0.5, 0.5))
    assert not box.contains_point((0.51, 0, 0))
    with pytest.raises(ValueError):
        Aabb((1, 0, 0), (0, 1, 1))


def test_from_center_gives_python_floats_equal_to_the_validating_box():
    center = tuple(np.float64(v) for v in (0.3, -0.2, 0.1))
    half = (0.05, np.float64(0.04), 0.03)
    box = Aabb.from_center(center, half)
    assert all(type(v) is float for v in box.lower + box.upper)
    assert box == Aabb(tuple(c - h for c, h in zip(center, half)),
                       tuple(c + h for c, h in zip(center, half)))


def test_inverted_public_box_still_raises():
    with pytest.raises(ValueError):
        Aabb((0.0, 0.0, 0.2), (1.0, 1.0, 0.1))


def test_box_without_three_components_raises():
    with pytest.raises(ValueError, match="3 components"):
        Aabb((0.0, 0.0), (1.0, 1.0))


def test_aabb_overlap_convention():
    a = Aabb((0, 0, 0), (1, 1, 1))
    b = Aabb((2, 0, 0), (3, 1, 1))
    assert not _overlap(a, b) > 0.0
    touching = Aabb((1.0, 0, 0), (2, 1, 1))
    assert not _overlap(a, touching) > 0.0
    nudged = Aabb((0.9999, 0, 0), (2, 1, 1))
    assert _overlap(a, nudged) > 0.0
    assert not _overlap(a, nudged) > 1e-3


def test_box_at_pose_translates():
    box = box_at_pose(Pose6(1, 2, 3), (0.1, 0.2, 0.3))
    assert np.allclose(box.lower, (0.9, 1.8, 2.7))
    assert np.allclose(box.upper, (1.1, 2.2, 3.3))


@settings(max_examples=500, deadline=None)
@given(ANGLES, ANGLES, ANGLES, HALF, HALF, HALF)
def test_scalar_kernel_matches_numpy_reference(roll, pitch, yaw, h0, h1, h2):
    # A tolerance, not equality: the BLAS matmul may fuse multiply-adds.
    half = (h0, h1, h2)
    got = rotated_half_extents(half, roll, pitch, yaw)
    want = np.abs(rotation_matrix(roll, pitch, yaw)) @ np.array(half)
    assert type(got) is tuple and len(got) == 3
    for g, w in zip(got, want):
        assert math.isclose(g, w, rel_tol=1e-12)


def test_repeated_box_at_pose_is_an_equal_frozen_box():
    pose = Pose6(0.3, -0.2, 0.1, 0.4, -0.5, 2.0)
    first = box_at_pose(pose, (0.05, 0.04, 0.03))
    again = box_at_pose(Pose6(*pose.as_tuple()), (0.05, 0.04, 0.03))
    assert again == first
    with pytest.raises(AttributeError):
        again.lower = (0.0, 0.0, 0.0)


def test_box_at_pose_accepts_list_and_array_half_extents():
    pose = Pose6(0.3, -0.2, 0.1, 0.4, -0.5, 2.0)
    want = box_at_pose(pose, (0.05, 0.04, 0.03))
    for half in ([0.05, 0.04, 0.03], np.array([0.05, 0.04, 0.03])):
        got = box_at_pose(pose, half)
        assert got == want
        assert all(type(v) is float for v in got.lower + got.upper)


# --- Unrolled box checks against their genexpr forms ----------------------------

# Coordinates drawn often from a small grid, so that faces touch and points
# sit on faces.
COORD = st.one_of(st.sampled_from([-0.5, 0.0, 0.25, 0.5, 1.0]), st.floats(-2.0, 2.0))
POINT = st.tuples(COORD, COORD, COORD)
SLACK = st.one_of(st.sampled_from([0.0, 1e-3, -1e-3, 0.25, -0.25]), st.floats(-0.5, 0.5))


def overlap_extent(a, b):
    """Per-axis interval overlap length of two boxes, negative when they
    are apart on that axis: the reference for the unrolled box checks."""
    return tuple(min(su, ou) - max(sl, ol)
                 for sl, su, ol, ou in zip(a.lower, a.upper, b.lower, b.upper))


@st.composite
def boxes(draw):
    pairs = [sorted((draw(COORD), draw(COORD))) for _ in range(3)]
    return Aabb(tuple(p[0] for p in pairs), tuple(p[1] for p in pairs))


@settings(max_examples=500, deadline=None)
@given(boxes(), boxes(), SLACK)
def test_unrolled_overlaps_equals_the_genexpr(a, b, tol):
    assert (_overlap(a, b) > tol) is all(o > tol for o in overlap_extent(a, b))


@pytest.mark.parametrize("a, b, want", [
    pytest.param(Aabb((0, 0, 0), (1, 1, 1)), Aabb((1, 0, 0), (2, 1, 1)), False,
                 id="touching-in-x"),
    pytest.param(Aabb((0, 0, 0), (1, 1, 1)), Aabb((0.5, 1, 0), (2, 2, 1)), False,
                 id="touching-in-y"),
    pytest.param(Aabb((0, 0, 0), (1, 1, 1)), Aabb((2, 0.5, 0), (3, 0.8, 1)), False,
                 id="separated"),
    pytest.param(Aabb((0, 0, 0), (1, 1, 1)), Aabb((0.2, 0.3, 0.1), (0.5, 0.6, 0.4)), True,
                 id="nested"),
    pytest.param(Aabb((0, 0, 0), (1, 1, 1)), Aabb((0.5, 0.5, 3), (2, 2, 4)), True,
                 id="apart-in-z-only"),
])
def test_overlaps_xy_on_touching_separated_and_nested_boxes(a, b, want):
    for x, y in ((a, b), (b, a)):
        extent = overlap_extent(x, y)
        assert (extent[0] > 0 and extent[1] > 0) is want
        assert x.overlaps_xy(y) is want


@settings(max_examples=500, deadline=None)
@given(boxes(), boxes())
def test_overlaps_xy_equals_the_overlap_extent_test(a, b):
    extent = overlap_extent(a, b)
    assert a.overlaps_xy(b) is (extent[0] > 0 and extent[1] > 0)


@settings(max_examples=500, deadline=None)
@given(boxes(), POINT, SLACK, st.booleans())
def test_unrolled_contains_point_equals_the_genexpr(box, p, slack, as_numpy):
    if as_numpy:
        p = np.array(p)
    want = all(l - slack <= v <= u + slack for v, l, u in zip(p, box.lower, box.upper))
    got = box.contains_point(p, slack)
    # Python-float coordinates give a bool; numpy ones a numpy bool.
    assert (bool(got) if as_numpy else got) is want


def inflate(box: Aabb, margin: float) -> Aabb:
    """The grasp-margin box `world.exec_pick` used to build per draw: the
    reference for checking a point with `slack=margin` instead."""
    return Aabb(tuple(l - margin for l in box.lower), tuple(u + margin for u in box.upper))


@settings(max_examples=500, deadline=None)
@given(boxes(), POINT, st.one_of(st.sampled_from([0.0, GRASP_MARGIN]), st.floats(0.0, 0.5)))
def test_contains_point_with_slack_equals_the_inflated_box(box, p, margin):
    assert box.contains_point(p, slack=margin) is inflate(box, margin).contains_point(p)
