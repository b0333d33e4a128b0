import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owltamp import oracle as oracle_module
from owltamp.fixtures import VARIANTS
from owltamp.partial_plan import PlanStep
from owltamp.oracle import (
    ExternalOracle, OracleError, OracleParseError, OracleRequest, OracleServiceError,
    ReplayOracle, ScriptedOracle, UnknownOperatorError, parse_constraint_response,
    parse_goal_literals, parse_plan_response, render_discrete_prompt,
    render_goal_constraint_prompt, validate_steps,
)
from owltamp.tasks import task_ids


def req(kind, task="mug1", listing=""):
    return OracleRequest(kind=kind, task_id=task, goal_text="goal",
                         action_listing=listing)


MUG1_LISTING = "\n".join([
    "pick(mug)", "pick(fork)", "pick(power_drill)", "pick(potted_meat_can)",
    "place_ontop(mug, table_surface)", "place_inside(fork, mug)",
    "place_ontop(fork, table_surface)",
])


def test_scripted_partial_plan_matches_fixture():
    # the four-step shape: pick, upright placement, pick, insertion
    oracle = ScriptedOracle("manual")
    pp = oracle.propose_partial_plan(req("partial_plan", listing=MUG1_LISTING))
    assert [s.action for s in pp.steps] == [
        "pick", "place_ontop", "pick", "place_inside"]
    assert all(s.description for s in pp.steps)


def test_every_fixture_parses_and_type_checks():
    for variant, table in VARIANTS.items():
        oracle = ScriptedOracle(variant)
        for task in task_ids():
            fx = table[task]
            fns = oracle.propose_goal_constraints(req("goal_constraints", task))
            assert all(f.result is not None for f in fns)
            for i in range(1, len(fx.steps) + 1):
                oracle.propose_action_constraints(
                    OracleRequest(kind="action_constraints", task_id=task,
                                  goal_text="", step_index=i))


def test_scripted_unknown_operator_rejected():
    oracle = ScriptedOracle("manual")
    with pytest.raises(UnknownOperatorError):
        oracle.propose_partial_plan(req("partial_plan", listing="pick(mug)"))


def test_every_step_is_checked_when_the_signature_set_is_cached():
    oracle_module._known_signatures.cache_clear()
    good = PlanStep("place_inside", ("fork", "mug"))
    validate_steps((good,), MUG1_LISTING)
    for steps in ((PlanStep("levitate", ("mug",)),),
                  (good, PlanStep("pick", ("spoon",))),
                  (good, good, PlanStep("PICK", ("mug", "fork")))):
        with pytest.raises(UnknownOperatorError) as err:
            validate_steps(steps, MUG1_LISTING)
        assert err.value.operator == steps[-1].signature()
    validate_steps((PlanStep("Pick", (" Mug ",)), good), MUG1_LISTING)
    info = oracle_module._known_signatures.cache_info()
    assert (info.misses, info.hits) == (1, 4)
    # The cached set cannot be changed by a caller.
    assert isinstance(oracle_module._known_signatures(MUG1_LISTING), frozenset)


def test_an_empty_listing_accepts_any_step_on_every_call():
    for listing in ("", "\n  \n"):
        for _ in range(2):
            validate_steps((PlanStep("levitate", ("mug",)),), listing)


def test_direct_goal_translation():
    oracle = ScriptedOracle("manual")
    specs = oracle.translate_goal_direct(req("goal_literals", "berrycook"))
    assert specs == (("Supporting", ("strawberry", "bowl")),)


# --- response parsing --------------------------------------------------------------

GOOD_REPLY = """The mug must be upright before the fork goes in.
The relevant objects are the mug and the fork.
Plan:
place_ontop(mug, table_surface); place the mug upright on the table
place_inside(fork, mug); slide the fork into the mug
achieve_goal(mug, fork); the mug is upright with the fork inside
"""


def test_parse_plan_response_strips_preamble_and_goal():
    pp = parse_plan_response(GOOD_REPLY, MUG1_LISTING)
    assert len(pp.steps) == 2
    assert pp.goal_objects == ("mug", "fork")


def test_parse_plan_response_empty_plan_section():
    with pytest.raises(OracleParseError):
        parse_plan_response("Plan:\n", MUG1_LISTING)


def test_parse_plan_response_unknown_operator():
    bad = "Plan:\nlevitate(mug); float it\n"
    with pytest.raises(UnknownOperatorError) as err:
        parse_plan_response(bad, MUG1_LISTING)
    assert "levitate" in str(err.value)


def test_parse_constraint_response_fenced_blocks():
    raw = ("Here are the checks:\n```python\n"
           "def goal_check0() -> bool:\n    return abs(mug.pose.roll) < 0.1\n```\n"
           "and\n```python\ndef goal_check1() -> bool:\n    return True\n```\n")
    fns = parse_constraint_response(raw)
    assert [f.name for f in fns] == ["goal_check0", "goal_check1"]


def test_parse_constraint_response_rejects_host_code():
    raw = "```python\ndef goal_check0() -> bool:\n    import os\n    return True\n```"
    with pytest.raises(OracleParseError):
        parse_constraint_response(raw)


# --- external backend ---------------------------------------------------------------

PLAN_REPLY = GOOD_REPLY
CONSTRAINT_REPLY = ("```python\ndef goal_check0() -> bool:\n"
                    "    return abs(mug.pose.roll) < 0.1\n```")


class FakeTransport:
    def __init__(self, replies, failures=0):
        self.replies = list(replies)
        self.failures = failures
        self.calls = 0
        self.payloads = []

    def __call__(self, url, headers, payload):
        self.calls += 1
        self.payloads.append(payload)
        if self.failures > 0:
            self.failures -= 1
            raise OracleServiceError("status 500: flaky")
        return self.replies.pop(0)


def test_external_oracle_round_trip(tmp_path):
    transcript = tmp_path / "transcript.jsonl"
    transport = FakeTransport([PLAN_REPLY, CONSTRAINT_REPLY])
    oracle = ExternalOracle(url="http://oracle.test/v1", api_key="k",
                            model="test-model", transcript_path=str(transcript),
                            post_fn=transport, backoff=0.0)
    pp = oracle.propose_partial_plan(req("partial_plan", listing=MUG1_LISTING))
    fns = oracle.propose_goal_constraints(req("goal_constraints"))
    assert len(pp.steps) == 2 and len(fns) == 1
    assert transport.payloads[0]["model"] == "test-model"
    lines = [json.loads(l) for l in transcript.read_text().splitlines()]
    assert [e["kind"] for e in lines] == ["partial_plan", "goal_constraints"]
    assert lines[0]["response"] == PLAN_REPLY


def test_external_oracle_retries_then_succeeds(tmp_path):
    transport = FakeTransport([PLAN_REPLY], failures=2)
    oracle = ExternalOracle(url="http://oracle.test/v1", post_fn=transport,
                            backoff=0.0)
    pp = oracle.propose_partial_plan(req("partial_plan", listing=MUG1_LISTING))
    assert transport.calls == 3 and len(pp.steps) == 2


def test_external_oracle_gives_up_after_attempts(tmp_path):
    transport = FakeTransport([], failures=5)
    oracle = ExternalOracle(url="http://oracle.test/v1", post_fn=transport,
                            backoff=0.0,
                            transcript_path=str(tmp_path / "t.jsonl"))
    with pytest.raises(OracleServiceError, match="3 attempts"):
        oracle.propose_partial_plan(req("partial_plan"))
    entry = json.loads((tmp_path / "t.jsonl").read_text().splitlines()[0])
    assert entry["error"]


def test_external_oracle_requires_endpoint():
    oracle = ExternalOracle(url="", post_fn=lambda *a: "")
    with pytest.raises(OracleServiceError, match="endpoint"):
        oracle.propose_partial_plan(req("partial_plan"))


def test_prompt_templates_render_with_placeholders():
    r = OracleRequest(kind="partial_plan", task_id="mug1",
                      goal_text="set up the mug",
                      action_listing="pick(mug)", literal_listing="HandEmpty()",
                      scene_summary="AtConf((0.2, 0, 0.3))")
    text = render_discrete_prompt(r)
    assert "set up the mug" in text and "pick(mug)" in text and "Plan:" in text
    text2 = render_goal_constraint_prompt(r)
    assert "set up the mug" in text2 and "goal_check" in text2


# --- replay interchangeability -------------------------------------------------------

def test_replay_matches_scripted_payloads(tmp_path):
    """A transcript replayed through the parser produces the same parsed
    payloads as a live backend returning the same text."""
    transcript = tmp_path / "t.jsonl"
    transport = FakeTransport([PLAN_REPLY, CONSTRAINT_REPLY])
    live = ExternalOracle(url="http://oracle.test/v1", post_fn=transport,
                          transcript_path=str(transcript), backoff=0.0)
    live_pp = live.propose_partial_plan(req("partial_plan", listing=MUG1_LISTING))
    live_fns = live.propose_goal_constraints(req("goal_constraints"))

    replay = ReplayOracle(str(transcript))
    replay_pp = replay.propose_partial_plan(req("partial_plan", listing=MUG1_LISTING))
    replay_fns = replay.propose_goal_constraints(req("goal_constraints"))
    assert replay_pp == live_pp
    assert [(f.name, f.assigns, f.result) for f in replay_fns] == \
        [(f.name, f.assigns, f.result) for f in live_fns]


def test_external_oracle_malformed_reply_raises_parse_error():
    transport = FakeTransport([PLAN_REPLY, "Plan:\nnothing useful here\n"])
    oracle = ExternalOracle(url="http://oracle.test/v1", post_fn=transport,
                            backoff=0.0)
    oracle.propose_partial_plan(req("partial_plan", listing=MUG1_LISTING))
    with pytest.raises(OracleParseError):
        oracle.propose_partial_plan(req("partial_plan", listing=MUG1_LISTING))


@pytest.mark.parametrize("raw", [
    "def f(mug):\n    return " + "(" * 400 + "1 < 2" + ")" * 400 + "\n",
    "def f(mug):\n    return " + " + ".join(["1"] * 3000) + " < 2\n",
])
def test_oversized_constraint_programs_are_parse_errors(raw):
    with pytest.raises(OracleParseError, match="constraint program rejected"):
        parse_constraint_response(raw)


GOAL_LITERALS_REPLY = "These must hold:\nSupporting(strawberry, bowl)\nHandEmpty()\n"


def test_replay_translates_direct_goals_like_the_external_path(tmp_path):
    transcript = tmp_path / "t.jsonl"
    live = ExternalOracle(url="http://oracle.test/v1",
                          post_fn=FakeTransport([GOAL_LITERALS_REPLY]),
                          transcript_path=str(transcript), backoff=0.0)
    live_specs = live.translate_goal_direct(req("goal_literals", "berrycook"))
    assert live_specs == parse_goal_literals(GOAL_LITERALS_REPLY) == (
        ("Supporting", ("strawberry", "bowl")), ("HandEmpty", ()))

    replay = ReplayOracle(str(transcript))
    assert replay.translate_goal_direct(req("goal_literals", "berrycook")) == live_specs
    assert replay.calls == 1


@pytest.mark.parametrize("bad_line", [
    "not json at all",
    json.dumps(["partial_plan", PLAN_REPLY]),
    json.dumps({"response": PLAN_REPLY}),
    json.dumps({"kind": "partial_plan"}),
    json.dumps({"kind": "partial_plan", "response": 5}),
], ids=["not-json", "json-list", "no-kind", "no-response", "non-string-response"])
def test_malformed_transcript_lines_are_oracle_errors_naming_the_line(tmp_path, bad_line):
    transcript = tmp_path / "t.jsonl"
    good = json.dumps({"kind": "goal_constraints", "response": CONSTRAINT_REPLY})
    transcript.write_text(f"{good}\n\n{bad_line}\n", encoding="utf-8")
    with pytest.raises(OracleError, match="line 3"):
        ReplayOracle(str(transcript))


def test_non_text_replies_are_failed_attempts(tmp_path):
    calls = []
    oracle = ExternalOracle(url="http://oracle.test/v1", backoff=0.0,
                            post_fn=lambda *a: calls.append(a) or 5,
                            transcript_path=str(tmp_path / "t.jsonl"))
    with pytest.raises(OracleServiceError, match="3 attempts.*int, not text"):
        oracle.propose_partial_plan(req("partial_plan"))
    assert len(calls) == ExternalOracle.MAX_ATTEMPTS


def test_parse_goal_literals_rejects_replies_without_literals():
    with pytest.raises(OracleParseError, match="no literals"):
        parse_goal_literals("I am not sure.")


# Pieces of well-formed replies, so that generated text also reaches the
# plan, program and literal grammars, not only their first token.
REPLY_FRAGMENTS = [
    "Plan:\n", "pick(mug)", "place_inside(fork, mug)", "; ", "\n", "Goal:",
    "def f() -> bool:\n", "    return ", "    x = ", "mug.pose.z", "'mug'", "(", ")",
    " < ", " <= ", " + ", " - ", " and ", " or ", "not ", "abs(", "1.5", "-2",
    "True", "init_bounds", "on_top_of(", "inside(", ", ", "```python\n", "```",
    "Supporting(", "strawberry", "bowl", "HandEmpty()", ":", "#", "\t", "\\",
]
REPLIES = st.one_of(st.text(), st.lists(st.sampled_from(REPLY_FRAGMENTS)).map("".join))


@settings(max_examples=300, deadline=None)
@given(REPLIES)
def test_reply_parsers_raise_only_oracle_errors(raw):
    parsers = (parse_plan_response,
               lambda r: parse_plan_response(r, MUG1_LISTING),
               parse_constraint_response, parse_goal_literals)
    for parse in parsers:
        try:
            parse(raw)
        except OracleError:
            pass


def test_fixture_constraints_parse_once_and_replies_every_time(tmp_path, monkeypatch):
    import owltamp.oracle as oracle_module
    parses = []
    real = oracle_module.parse_constraint_block
    monkeypatch.setattr(oracle_module, "parse_constraint_block",
                        lambda text: parses.append(text) or real(text))
    oracle_module._parse_fixture_constraints.cache_clear()
    scripted = ScriptedOracle("manual")
    first = scripted.propose_goal_constraints(req("goal_constraints"))
    first.clear()  # each call hands out its own list
    second = scripted.propose_goal_constraints(req("goal_constraints"))
    assert second and len(parses) == 1
    assert second == parse_constraint_response(
        "\n".join(VARIANTS["manual"]["mug1"].goal_constraints))

    transcript = tmp_path / "t.jsonl"
    with open(transcript, "w", encoding="utf-8") as fh:
        for _ in range(2):
            fh.write(json.dumps({"kind": "goal_constraints",
                                 "response": CONSTRAINT_REPLY}) + "\n")
    replay = ReplayOracle(str(transcript))
    parses.clear()
    replay.propose_goal_constraints(req("goal_constraints"))
    replay.propose_goal_constraints(req("goal_constraints"))
    assert len(parses) == 2
