"""The refinement draw stream hands out the generator's own doubles, band
tables decode them into the values of `Generator.uniform`, and closing the
stream leaves the generator exactly where unbuffered calls would."""

import ast
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owltamp import solver
from owltamp import world as W
from owltamp.lang import parse_constraint
from owltamp.solver import Budgets, DrawStream, RefinementFailure, Solution, refine

from reference import LEVEL, build, manual_solve, skeleton_for

SOLVER_PY = Path(solver.__file__)

EDGE = st.floats(-10.0, 10.0)
MAX = sys.float_info.max
# Ordered, zero-width, reversed and non-finite bands, and the widest finite
# ones: a reversed or non-finite band makes both sides raise the same error
# once the bands before it are drawn.  The last one rounds its width up at
# a tie, the closest `lo + span * u` comes to overflowing.
BAND = st.one_of(
    st.tuples(EDGE, EDGE).map(lambda band: tuple(sorted(band))),
    st.tuples(EDGE, EDGE),
    EDGE.map(lambda v: (v, v)),
    st.tuples(EDGE, st.sampled_from([math.inf, -math.inf, math.nan])),
    st.sampled_from([(-math.pi, math.pi), (0.0, -0.0), (-0.0, 0.0), (-MAX, 0.0),
                     (0.0, MAX), (-MAX, MAX), (MAX, -MAX), (3 * 2.0**970, MAX)]),
)
# Each segment reads band tables through the stream and is then closed; the
# reads cross the block boundary, and a close mid-block rewinds the rest.
TABLES = st.lists(st.lists(BAND, max_size=8), max_size=3 * solver.DRAW_BLOCK // 4)
SEGMENTS = st.lists(TABLES, min_size=1, max_size=3)


def _table_draw(draws, bands):
    """The hex of each value a table read gives, or the error it raises."""
    try:
        return [v.hex() for v in solver._read(draws, solver._band_table(*bands))]
    except (ValueError, OverflowError) as e:
        return type(e).__name__


def _uniform_draws(rng, bands):
    """`Generator.uniform` over the bands in order, up to the first error."""
    try:
        return [rng.uniform(lo, hi).hex() for lo, hi in bands]
    except (ValueError, OverflowError) as e:
        return type(e).__name__


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), SEGMENTS)
def test_stream_equals_the_generator(seed, segments):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    draws = DrawStream(rng)
    for tables in segments:
        for bands in tables:
            assert _table_draw(draws, bands) == _uniform_draws(ref, bands)
        draws.close()
        assert rng.bit_generator.state == ref.bit_generator.state
    draws.close()
    assert rng.bit_generator.state == ref.bit_generator.state


# Reads, peeks and skips, with counts that cross the block boundary, and
# peeks as large as a screen's largest block of six-double draws.
OPS = st.lists(st.one_of(
    st.tuples(st.sampled_from(["read", "peek", "skip"]),
              st.integers(0, 2 * solver.DRAW_BLOCK + 3)),
    st.tuples(st.just("peek"), st.integers(0, 6 * solver.LAST_BLOCK))), max_size=40)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(OPS, min_size=1, max_size=3))
def test_peek_and_skip_follow_the_generator(seed, segments):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    draws = DrawStream(rng)
    for ops in segments:
        for op, n in ops:
            if op == "read":
                got = draws.read(n)
                assert got == ref.random(n).tolist()
                # `Pose6` and `Value` see the types of unbuffered draws.
                assert all(type(v) is float for v in got)
            elif op == "peek":
                state = ref.bit_generator.state
                want = ref.random(n).tolist()
                ref.bit_generator.state = state
                assert draws.peek(n).tolist() == want
            else:
                draws.skip(n)
                ref.random(n)
        draws.close()
        assert rng.bit_generator.state == ref.bit_generator.state


def test_close_rewinds_after_the_largest_fill():
    # A screen's largest block reads whole blocks past what it skips.
    largest = 6 * solver.LAST_BLOCK
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    draws = DrawStream(rng)
    draws.read(7)
    assert draws.peek(largest).tolist() == ref.random(7 + largest)[7:].tolist()
    draws.skip(largest - 1)
    draws.close()
    ref = np.random.default_rng(5)
    ref.random(largest + 6)
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("bitgen", [np.random.MT19937, np.random.Philox,
                                    np.random.SFC64, np.random.PCG64DXSM])
def test_stream_refuses_generators_it_cannot_rewind(bitgen):
    with pytest.raises(TypeError, match="PCG64"):
        DrawStream(np.random.Generator(bitgen(0)))


# --- refine leaves the generator where its draws left it -----------------------


@pytest.fixture
def drawn(monkeypatch):
    """Counts the doubles refine's draws take from their stream, and the
    doubles the pick screen skips."""
    count = [0]
    read, skip = DrawStream.read, DrawStream.skip

    def counting(self, n):
        count[0] += n
        return read(self, n)

    def counting_skip(self, n):
        count[0] += n
        return skip(self, n)

    monkeypatch.setattr(DrawStream, "read", counting)
    monkeypatch.setattr(DrawStream, "skip", counting_skip)
    return count


def assert_read_exactly(rng, seed, n):
    ref = np.random.default_rng(seed)
    ref.random(n)
    assert rng.bit_generator.state == ref.bit_generator.state


def _berry1_skeleton(steps, constraints=None):
    spec, w0, domain, problem = build("berry1")
    return spec, w0, skeleton_for(problem, steps, constraints)


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
    """A second solve reads the same streams, though every skeleton draws
    from its generator: the memo of their states is never advanced."""
    seed, states = 3, []

    def failing_refine(sk, scene, goal_fns, budgets, rng, restrictions=None):
        states.append(rng.bit_generator.state)
        rng.random(8)
        return RefinementFailure(-1, "goal-constraint-unsatisfied", 0)

    monkeypatch.setattr(solver, "refine", failing_refine)
    want = [g.bit_generator.state for g in np.random.default_rng(seed).spawn(attempts)]
    for _ in range(2):
        states.clear()
        manual_solve("berry1", seed, Budgets(500, attempts))
        assert states == want


# --- Skeleton generators come from a memo of spawned states -------------------

MEMO_SEEDS = [0, 1, 49, 2**63 + 5]


def _memo_generator(seed, k):
    rng = np.random.Generator(np.random.PCG64(0))
    solver._seed_skeleton(rng, seed, k)
    return rng


@pytest.mark.parametrize("seed", MEMO_SEEDS)
def test_memoised_skeleton_streams_are_the_spawned_streams(seed):
    for k, want in enumerate(np.random.default_rng(seed).spawn(5)):
        got = _memo_generator(seed, k)
        assert got.bit_generator.state == want.bit_generator.state
        assert got.random(64).tobytes() == want.random(64).tobytes()
        # Through a stream that is read past a block and closed mid-block.
        got, want = _memo_generator(seed, k), np.random.default_rng(seed).spawn(k + 1)[k]
        draws = DrawStream(got)
        assert draws.read(solver.DRAW_BLOCK + 3) == want.random(solver.DRAW_BLOCK + 3).tolist()
        draws.close()
        assert got.bit_generator.state == want.bit_generator.state
        # Drawing from a seeded generator never advances the memo.
        assert _memo_generator(seed, k).bit_generator.state == \
            np.random.default_rng(seed).spawn(k + 1)[k].bit_generator.state


def test_solves_in_a_row_give_equal_results():
    assert manual_solve("berry2", 4)[2] == manual_solve("berry2", 4)[2]


def test_a_negative_seed_raises_what_default_rng_raises():
    with pytest.raises(ValueError) as want:
        np.random.default_rng(-1)
    with pytest.raises(ValueError) as got:
        manual_solve("berry1", 0, solve_seed=-1)
    assert str(got.value) == str(want.value)


# --- Samplers read the generator through the stream only -----------------------

GENERATOR_READS = {name for name in dir(np.random.Generator) if not name.startswith("_")}
# Functions that read doubles for a draw or a screen: the samplers, each
# skill's step preparation with the draw and screen it defines, and the
# read and decode helpers.
DRAWING = ("sample_", "_prepare_", "_read", "_decode")


def direct_generator_reads(source: str) -> list[str]:
    """`name:line` of every generator read in a function that draws: a read
    past an open stream would reorder it."""
    found = []
    for fn in ast.parse(source).body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith(DRAWING)):
            continue
        for node in ast.walk(fn):
            # `random` also catches `np.random`.
            if isinstance(node, ast.Attribute) and node.attr in GENERATOR_READS:
                found.append(f"{fn.name}:{node.lineno}")
    return found


def test_samplers_never_read_the_generator_directly():
    source = SOLVER_PY.read_text(encoding="utf-8")
    names = {fn.name for fn in ast.parse(source).body if isinstance(fn, ast.FunctionDef)}
    assert {"sample_grasp", "sample_place", "sample_pour", "_prepare_pick",
            "_prepare_place", "_prepare_pour", "_read", "_decode"} <= names
    assert direct_generator_reads(source) == []
    # The guard sees the reads it exists to catch, in nested draws and
    # screens too; `np.random.default_rng(0).uniform` is two reads.
    assert direct_generator_reads(
        "def sample_x(w, draws):\n    return draws.random()\n"
        "def _read(draws, table):\n    return draws.rng.bit_generator.advance(1)\n"
        "def _decode(spans, doubles):\n    return np.random.default_rng(0).uniform(0, 1)\n"
        "def _prepare_x(world, draws):\n"
        "    def screen(limit):\n        return draws.uniform(0, 1)\n"
        "    return None, screen\n"
    ) == ["sample_x:2", "_read:4", "_decode:6", "_decode:6", "_prepare_x:9"]
