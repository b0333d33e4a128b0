"""6-DoF poses and axis-aligned box arithmetic for the tabletop world."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(a: float) -> float:
    """Normalize an angle into [-pi, pi]."""
    a = math.fmod(a + math.pi, TWO_PI)
    if a < 0.0:
        a += TWO_PI
    return a - math.pi


def wrap_angles(a: np.ndarray) -> np.ndarray:
    """`wrap_angle` of every element, in the same float operations."""
    a = np.fmod(a + math.pi, TWO_PI)
    return np.where(a < 0.0, a + TWO_PI, a) - math.pi


@dataclass(frozen=True)
class Pose6:
    """Position plus roll/pitch/yaw, angles normalized into [-pi, pi]."""

    x: float = 0.0
    y: float = 0.0
    z: float = 0.0
    roll: float = 0.0
    pitch: float = 0.0
    yaw: float = 0.0

    def __post_init__(self):
        isfinite = math.isfinite
        roll, pitch, yaw = self.roll, self.pitch, self.yaw
        if not (isfinite(self.x) and isfinite(self.y) and isfinite(self.z)
                and isfinite(roll) and isfinite(pitch) and isfinite(yaw)):
            for name in ("x", "y", "z", "roll", "pitch", "yaw"):
                v = getattr(self, name)
                if not isfinite(v):
                    raise ValueError(f"non-finite pose component {name}={v!r}")
        object.__setattr__(self, "roll", wrap_angle(roll))
        object.__setattr__(self, "pitch", wrap_angle(pitch))
        object.__setattr__(self, "yaw", wrap_angle(yaw))

    @property
    def position(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)

    @property
    def rpy(self) -> tuple[float, float, float]:
        return (self.roll, self.pitch, self.yaw)

    def as_tuple(self) -> tuple[float, ...]:
        return (self.x, self.y, self.z, self.roll, self.pitch, self.yaw)

    def moved(self, *, x=None, y=None, z=None, roll=None, pitch=None,
              yaw=None) -> "Pose6":
        """The pose with the given components replaced.  Built through the
        constructor, so the angles are wrapped again, as `dataclasses.replace`
        would do: a wrapped angle can change in its last bit."""
        return Pose6(self.x if x is None else x, self.y if y is None else y,
                     self.z if z is None else z,
                     self.roll if roll is None else roll,
                     self.pitch if pitch is None else pitch,
                     self.yaw if yaw is None else yaw)

    @staticmethod
    def from_sequence(vals) -> "Pose6":
        vals = [float(v) for v in vals]
        if len(vals) != 6:
            raise ValueError(f"pose needs 6 components, got {len(vals)}")
        return Pose6(*vals)


def _each(f):
    """`f` of a float, or of each element of a 1-d column, through `math`."""
    def each(a):
        if isinstance(a, float):
            return f(a)
        return np.fromiter(map(f, a.tolist()), float, len(a))
    return each


# `math.cos` and `math.sin` over floats or columns, so that a column path
# rounds each row as the scalar path does: numpy's own may differ from
# `math`'s in the last bit.
cosines, sines = _each(math.cos), _each(math.sin)


def rotated_half_extents(half_extents, roll: float, pitch: float, yaw: float,
                         cos=math.cos, sin=math.sin) -> tuple[float, float, float]:
    """Half extents of the axis-aligned hull of a rotated box, as a 3-tuple.

    Equals |R| @ h for R = Rz(yaw) @ Ry(pitch) @ Rx(roll), which matches the
    max over the 8 rotated corners.  Written out in scalar float math; it
    can differ from a numpy matmul of the same matrices in the last bit,
    where the BLAS fuses multiply-adds.  Given `cosines` and `sines`, it
    takes columns of angles (or floats) and gives columns, each row equal
    to the scalar call's bit for bit: elementwise `*`, `+` and `abs` round
    in numpy as in Python.
    """
    h0, h1, h2 = half_extents
    cr, sr = cos(roll), sin(roll)
    cp, sp = cos(pitch), sin(pitch)
    cy, sy = cos(yaw), sin(yaw)
    cysp, sysp = cy * sp, sy * sp
    return (abs(cy * cp) * h0 + abs(cysp * sr - sy * cr) * h1 + abs(cysp * cr + sy * sr) * h2,
            abs(sy * cp) * h0 + abs(sysp * sr + cy * cr) * h1 + abs(sysp * cr - cy * sr) * h2,
            abs(sp) * h0 + abs(cp * sr) * h1 + abs(cp * cr) * h2)


@dataclass(frozen=True)
class Aabb:
    """Axis-aligned box; lower <= upper componentwise."""

    lower: tuple[float, float, float]
    upper: tuple[float, float, float]

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lower)
        up = tuple(float(v) for v in self.upper)
        if len(lo) != 3 or len(up) != 3:
            raise ValueError(f"box needs 3 components per side: lower={lo} upper={up}")
        if any(l > u for l, u in zip(lo, up)):
            raise ValueError(f"inverted box: lower={lo} upper={up}")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    @classmethod
    def trusted(cls, lower: tuple[float, float, float],
                upper: tuple[float, float, float]) -> "Aabb":
        """A box from 3-tuples of Python floats that the caller has already
        ordered lower <= upper: no conversion, no check."""
        box = object.__new__(cls)
        object.__setattr__(box, "lower", lower)
        object.__setattr__(box, "upper", upper)
        return box

    @staticmethod
    def from_center(center, half_extents) -> "Aabb":
        """The box of non-negative `half_extents` around `center`."""
        (c0, c1, c2), (h0, h1, h2) = center, half_extents
        return Aabb.trusted((float(c0 - h0), float(c1 - h1), float(c2 - h2)),
                            (float(c0 + h0), float(c1 + h1), float(c2 + h2)))

    def contains_point(self, p, slack: float = 0.0) -> bool:
        lo, up = self.lower, self.upper
        return (lo[0] - slack <= p[0] <= up[0] + slack
                and lo[1] - slack <= p[1] <= up[1] + slack
                and lo[2] - slack <= p[2] <= up[2] + slack)

    def contains_xy(self, x: float, y: float, slack: float = 0.0) -> bool:
        return (self.lower[0] - slack <= x <= self.upper[0] + slack
                and self.lower[1] - slack <= y <= self.upper[1] + slack)

    def overlaps_xy(self, other: "Aabb") -> bool:
        """True when the xy footprints overlap with positive area; boxes
        that only touch do not."""
        sl, su, ol, ou = self.lower, self.upper, other.lower, other.upper
        return (min(su[0], ou[0]) - max(sl[0], ol[0]) > 0
                and min(su[1], ou[1]) - max(sl[1], ol[1]) > 0)


def box_at_pose(pose: Pose6, half_extents) -> Aabb:
    """Axis-aligned hull of a box with canonical half extents at a pose.

    Half extents may be any 3-sequence (tuple, list, array).
    """
    h = rotated_half_extents(half_extents, pose.roll, pose.pitch, pose.yaw)
    return Aabb.from_center(pose.position, h)
