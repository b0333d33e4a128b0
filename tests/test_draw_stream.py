"""The refinement draw stream hands out the generator's own values and leaves
the generator exactly where unbuffered `Generator.uniform` calls would."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owltamp import solver
from owltamp import world as W
from owltamp.lang import parse_constraint
from owltamp.solver import Budgets, DrawStream, RefinementFailure, Solution, refine

from test_solver import _manual_solve, _skeleton_for, build

SOLVER_PY = Path(solver.__file__)

EDGE = st.floats(-10.0, 10.0)
# Ordered, zero-width, reversed and non-finite bands: a reversed or
# non-finite one makes both sides raise the same error without a draw.
BAND = st.one_of(
    st.tuples(EDGE, EDGE),
    EDGE.map(lambda v: (v, v)),
    st.tuples(EDGE, st.sampled_from([math.inf, -math.inf, math.nan])),
    st.sampled_from([(-math.pi, math.pi), (0.0, -0.0), (-0.0, 0.0)]),
)
# Each segment is read through the stream and then closed; lengths cross
# the block boundary, and a close mid-block rewinds the rest.
SEGMENTS = st.lists(st.lists(BAND, max_size=3 * solver.DRAW_BLOCK), min_size=1, max_size=3)


def _uniform(draw, lo, hi):
    try:
        return draw(lo, hi).hex()
    except (ValueError, OverflowError) as e:
        return type(e).__name__


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), SEGMENTS)
def test_stream_equals_the_generator(seed, segments):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    draws = DrawStream(rng)
    for bands in segments:
        got = [_uniform(draws.uniform, lo, hi) for lo, hi in bands]
        want = [_uniform(ref.uniform, lo, hi) for lo, hi in bands]
        assert got == want
        draws.close()
        assert rng.bit_generator.state == ref.bit_generator.state
    draws.close()
    assert rng.bit_generator.state == ref.bit_generator.state


# Uniform draws, peeks and skips, with counts that cross the block boundary.
OPS = st.lists(st.one_of(
    BAND.map(lambda band: ("uniform", band)),
    st.tuples(st.sampled_from(["peek", "skip"]), st.integers(0, 2 * solver.DRAW_BLOCK + 3)),
), max_size=40)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(OPS, min_size=1, max_size=3))
def test_peek_and_skip_follow_the_generator(seed, segments):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    draws = DrawStream(rng)
    for ops in segments:
        for op, arg in ops:
            if op == "uniform":
                assert _uniform(draws.uniform, *arg) == _uniform(ref.uniform, *arg)
            elif op == "peek":
                state = ref.bit_generator.state
                want = ref.random(arg).tolist()
                ref.bit_generator.state = state
                assert draws.peek(arg) == want
            else:
                draws.skip(arg)
                ref.random(arg)
        draws.close()
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("bitgen", [np.random.MT19937, np.random.Philox,
                                    np.random.SFC64, np.random.PCG64DXSM])
def test_stream_refuses_generators_it_cannot_rewind(bitgen):
    with pytest.raises(TypeError, match="PCG64"):
        DrawStream(np.random.Generator(bitgen(0)))


# --- refine leaves the generator where its draws left it -----------------------


@pytest.fixture
def drawn(monkeypatch):
    """Counts the values refine's draws take from their stream, and the
    doubles the pick screen skips."""
    count = [0]
    uniform, skip = DrawStream.uniform, DrawStream.skip

    def counting(self, lo, hi):
        count[0] += 1
        return uniform(self, lo, hi)

    def counting_skip(self, n):
        count[0] += n
        return skip(self, n)

    monkeypatch.setattr(DrawStream, "uniform", counting)
    monkeypatch.setattr(DrawStream, "skip", counting_skip)
    return count


def assert_read_exactly(rng, seed, n):
    ref = np.random.default_rng(seed)
    ref.random(n)
    assert rng.bit_generator.state == ref.bit_generator.state


def _berry1_skeleton(steps, constraints=None):
    spec, w0, domain, problem = build("berry1")
    return spec, w0, _skeleton_for(domain, problem, steps, constraints)


def test_refine_rewinds_after_an_accepted_skeleton(drawn):
    spec, w0, sk = _berry1_skeleton([("pick", "strawberry"),
                                     ("place_ontop", "strawberry", "light_grey_region")])
    rng = np.random.default_rng(0)
    result = refine(sk, w0, (), Budgets(500, 5), rng,
                    solver.RestrictionTable(list(spec.sampler_restrictions)))
    assert isinstance(result, Solution)
    assert drawn[0] % solver.DRAW_BLOCK
    assert_read_exactly(rng, 0, drawn[0])


def test_refine_rewinds_after_an_exhausted_skeleton(drawn):
    never = parse_constraint("def never() -> bool:\n"
                             "    return strawberry.pose.x > 100\n")
    spec, w0, sk = _berry1_skeleton([("pick", "strawberry")], {0: (never,)})
    rng = np.random.default_rng(1)
    result = refine(sk, w0, (), Budgets(3, 1), rng)
    assert isinstance(result, RefinementFailure)
    assert (result.index, result.samples_used) == (0, 3)
    assert drawn[0] == 3 * 6
    assert_read_exactly(rng, 1, drawn[0])


def test_refine_rewinds_after_a_precondition_break(drawn):
    spec, w0, sk = _berry1_skeleton([("pick", "strawberry"), ("pick", "strawberry")])
    rng = np.random.default_rng(2)
    result = refine(sk, w0, (), Budgets(500, 1), rng)
    assert isinstance(result, RefinementFailure)
    assert (result.index, result.reason) == (1, "precondition")
    assert_read_exactly(rng, 2, drawn[0])


LEVEL = solver.RestrictionTable([{"roll": [0, 0], "pitch": [0, 0]}])


def test_refine_rewinds_when_a_skill_raises(drawn, monkeypatch):
    # Level grasps inside the box pass the pick screen, so every draw reaches
    # the skill: it refuses three and raises on the fourth.
    spec, w0, sk = _berry1_skeleton([("pick", "strawberry")])
    calls = [0]

    def failing_pick(w, name, grasp):
        calls[0] += 1
        if calls[0] == 4:
            raise RuntimeError("skill failed")
        return W.SkillOutcome(w, False, "grasp-obstructed")

    monkeypatch.setattr(W, "exec_pick", failing_pick)
    rng = np.random.default_rng(3)
    with pytest.raises(RuntimeError, match="skill failed"):
        refine(sk, w0, (), Budgets(500, 1), rng, LEVEL)
    assert drawn[0] == 4 * 6
    assert_read_exactly(rng, 3, drawn[0])


def test_refine_rewinds_when_a_skill_raises_after_screened_draws(drawn, monkeypatch):
    # Full bands: the screen skips the draws it refuses, then the first draw
    # that reaches the skill raises.
    spec, w0, sk = _berry1_skeleton([("pick", "strawberry")])
    at_skill = []

    def raising_pick(w, name, grasp):
        at_skill.append(drawn[0])
        raise RuntimeError("skill failed")

    monkeypatch.setattr(W, "exec_pick", raising_pick)
    rng = np.random.default_rng(4)
    with pytest.raises(RuntimeError, match="skill failed"):
        refine(sk, w0, (), Budgets(500, 1), rng)
    assert at_skill == [drawn[0]]
    assert drawn[0] % 6 == 0 and drawn[0] > 6
    assert_read_exactly(rng, 4, drawn[0])


# --- solve spawns one skeleton stream per attempt ------------------------------


@pytest.mark.parametrize("attempts", [1, 2, 3, 4, 5])
def test_solve_spawns_the_streams_of_one_spawn_call(monkeypatch, attempts):
    seed, states = 3, []

    def failing_refine(sk, scene, goal_fns, budgets, rng, restrictions=None):
        states.append(rng.bit_generator.state)
        return RefinementFailure(-1, "goal-constraint-unsatisfied", 0)

    monkeypatch.setattr(solver, "refine", failing_refine)
    _manual_solve("berry1", seed, Budgets(500, attempts))
    want = np.random.default_rng(seed).spawn(attempts)
    assert states == [g.bit_generator.state for g in want]


# --- Samplers read the generator through the stream only -----------------------

GENERATOR_READS = {name for name in dir(np.random.Generator)
                   if not name.startswith("_")} - {"uniform"}


def direct_generator_reads(source: str) -> list[str]:
    """`name:line` of every generator read in a sampler, `_draw_*` or
    `_screen_*` function other than `uniform`: a read past an open stream
    would reorder it."""
    found = []
    for fn in ast.parse(source).body:
        if not (isinstance(fn, ast.FunctionDef)
                and fn.name.startswith(("sample_", "_draw_", "_screen_"))):
            continue
        for node in ast.walk(fn):
            # `random` also catches `np.random`.
            if isinstance(node, ast.Attribute) and node.attr in GENERATOR_READS:
                found.append(f"{fn.name}:{node.lineno}")
    return found


def test_samplers_never_read_the_generator_directly():
    source = SOLVER_PY.read_text(encoding="utf-8")
    names = {fn.name for fn in ast.parse(source).body if isinstance(fn, ast.FunctionDef)}
    assert {"sample_grasp", "sample_place", "sample_pour", "_draw_pick",
            "_screen_pick"} <= names
    assert direct_generator_reads(source) == []
    # The guard sees the reads it exists to catch.
    assert direct_generator_reads(
        "def sample_x(w, draws):\n    return draws.random()\n"
        "def _draw_y(w, draws):\n    return draws.rng.bit_generator.advance(1)\n"
        "def _draw_z(w, draws):\n    return np.random.default_rng(0).uniform(0, 1)\n"
    ) == ["sample_x:2", "_draw_y:4", "_draw_z:6"]
