"""Constraint providers: one reply path over three sources of reply text.

Every oracle answers a request with text, and `parse_reply` turns that text
into a partial plan, constraint programs or goal literals.  The text comes
from the scripted fixtures rendered as a live reply (`fixture_reply`), from
a chat-completion service (`ExternalOracle`) or from a saved transcript
(`ReplayOracle`), so a transcript of the scripted backend replays its
answers exactly.  Generated constraint code is parsed into the closed
expression language, never executed by the host interpreter.
"""

from __future__ import annotations

import functools
import json
import os
import re
import time
from dataclasses import dataclass
from importlib import resources

from .fixtures import VARIANTS, DIRECT_GOALS
from .lang import ConstraintFn, LangError, parse_constraint_block
from .partial_plan import PartialPlan, PartialPlanError, PlanStep, parse_partial_plan_text


class OracleError(Exception):
    pass


class OracleParseError(OracleError):
    def __init__(self, message: str, raw: str = ""):
        self.raw = raw
        super().__init__(message)


class UnknownOperatorError(OracleError):
    def __init__(self, name: str):
        self.operator = name
        super().__init__(f"response uses an operator outside the grounded set: {name!r}")


class OracleServiceError(OracleError):
    pass


class _Deferred:
    """A text field that also takes a function of no arguments, called on
    each read, so that a listing is formatted only for oracles that read it."""

    def __set_name__(self, owner, name):
        self.slot = "_" + name

    def __get__(self, req, owner=None):
        if req is None:
            return ""  # the field's default
        text = req.__dict__[self.slot]
        return text() if callable(text) else text

    def __set__(self, req, text):
        req.__dict__[self.slot] = text


@dataclass(frozen=True)
class OracleRequest:
    task_id: str
    goal_text: str
    action_listing: str = ""
    literal_listing: str = _Deferred()
    scene_summary: str = _Deferred()
    step_index: int = 0
    step: PlanStep | None = None
    prior_goal_sources: tuple[str, ...] = ()


_SPACE = re.compile(r"\s+")


@functools.lru_cache(maxsize=16)
def _known_signatures(action_listing: str) -> frozenset[str]:
    """The listing's signatures, lowercased and without whitespace.  Every
    cell of a task shows the oracle one of a few listings, so the sets are
    kept per listing text."""
    return frozenset(_SPACE.sub("", line.lower())
                     for line in action_listing.splitlines() if line.strip())


def validate_steps(steps, action_listing: str) -> None:
    """Reject steps naming operators outside the grounded listing."""
    known = _known_signatures(action_listing)
    if not known:
        return
    for step in steps:
        sig = _SPACE.sub("", step.signature().lower())
        if sig not in known:
            raise UnknownOperatorError(step.signature())


# The most steps a plan reply may have.  A valid plan's search cost grows
# about sixfold per doubling of its length (385 steps took one cell 43 s);
# the longest fixture plan has 5 steps.
MAX_PLAN_STEPS = 64


def parse_plan_response(raw: str, action_listing: str = "") -> PartialPlan:
    """Pull the plan out of a free-form reply: everything after the last
    `Plan:` marker, one `operator; description` line per step, at most
    MAX_PLAN_STEPS of them."""
    marker = None
    for m in re.finditer(r"^\s*plan\s*:\s*$", raw, flags=re.IGNORECASE | re.MULTILINE):
        marker = m
    body = raw[marker.end():] if marker else raw
    try:
        plan = parse_partial_plan_text(body)
    except PartialPlanError as e:
        raise OracleParseError(str(e), raw) from None
    if not plan.steps and not plan.goal_objects:
        raise OracleParseError("reply contains no plan steps", raw)
    if len(plan.steps) > MAX_PLAN_STEPS:
        raise OracleParseError(f"plan has {len(plan.steps)} steps, more than the limit of "
                               f"{MAX_PLAN_STEPS}", raw)
    validate_steps(plan.steps, action_listing)
    return plan


def parse_constraint_response(raw: str) -> list[ConstraintFn]:
    """Extract fenced code blocks (or the bare text) and parse each def block."""
    blocks = re.findall(r"```(?:python)?\s*(.*?)```", raw, flags=re.DOTALL)
    text = "\n".join(blocks) if blocks else raw
    if not text.strip():
        return []
    try:
        return parse_constraint_block(text)
    except LangError as e:
        raise OracleParseError(f"constraint program rejected: {e}", raw) from None


def parse_goal_literals(raw: str) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """Pull `Predicate(arg, ...)` lines out of a direct goal translation."""
    out = []
    for line in raw.splitlines():
        m = re.match(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\(([^)]*)\)\s*$", line)
        if m:
            args = tuple(a.strip() for a in m.group(2).split(",") if a.strip())
            out.append((m.group(1), args))
    if not out:
        raise OracleParseError("no literals in reply", raw)
    return tuple(out)


def parse_reply(kind: str, raw: str, action_listing: str = ""):
    """The answer a reply of this kind gives: a `PartialPlan`, goal literal
    specs, or, for any other kind, a tuple of programs."""
    if kind == "partial_plan":
        return parse_plan_response(raw, action_listing)
    if kind == "goal_literals":
        return parse_goal_literals(raw)
    return tuple(parse_constraint_response(raw))


# Fixture replies are constant and a finite set, and every answer is frozen,
# so each is parsed once per process.  Replies from a live or replayed
# oracle are untrusted and are parsed on every call instead.
_parse_fixture_reply = functools.lru_cache(maxsize=None)(parse_reply)


@functools.lru_cache(maxsize=None)
def fixture_reply(variant: str, task_id: str, kind: str, step_index: int = 0) -> str:
    """The fixture's answer as a live reply gives it: a `Plan:` block of
    `operator(args); description` lines, fenced programs or goal literals."""
    if kind == "goal_literals":
        if task_id not in DIRECT_GOALS:
            raise OracleError(f"no direct-goal fixture for task {task_id!r}")
        return "".join(f"{pred}({', '.join(args)})\n" for pred, args in DIRECT_GOALS[task_id])
    fx = VARIANTS[variant].get(task_id)
    if fx is None:
        raise OracleError(f"no {variant} fixture for task {task_id!r}")
    if kind == "partial_plan":
        if fx.raw_plan_override is not None:
            return fx.raw_plan_override
        return "Plan:\n" + "".join(f"{a}({', '.join(o)}); {d}\n" for a, o, d in fx.steps)
    sources = (fx.goal_constraints if kind == "goal_constraints"
               else fx.step_constraints.get(step_index, ()))
    return "".join(f"```python\n{source}```\n" for source in sources)


class ScriptedOracle:
    """The fixture-backed oracle, deterministic and instantaneous, and the
    reply path every oracle shares: each request counts one call, and its
    reply text (`_reply`) goes through `parse_reply`."""

    _parse = staticmethod(_parse_fixture_reply)

    def __init__(self, variant: str = "manual"):
        if variant not in VARIANTS:
            raise OracleError(f"unknown fixture variant {variant!r}")
        self.variant = variant
        self.calls = 0
        self.time_spent = 0.0

    def _reply(self, kind: str, req: OracleRequest) -> str:
        return fixture_reply(self.variant, req.task_id, kind, req.step_index)

    def _answer(self, kind: str, req: OracleRequest):
        self.calls += 1
        # Only a plan reads the listing, and both program kinds parse alike.
        listing = req.action_listing if kind == "partial_plan" else ""
        parse_as = "constraints" if kind.endswith("_constraints") else kind
        return self._parse(parse_as, self._reply(kind, req), listing)

    def propose_partial_plan(self, req: OracleRequest) -> PartialPlan:
        return self._answer("partial_plan", req)

    def propose_goal_constraints(self, req: OracleRequest) -> list[ConstraintFn]:
        return list(self._answer("goal_constraints", req))

    def propose_action_constraints(self, req: OracleRequest) -> list[ConstraintFn]:
        return list(self._answer("action_constraints", req))

    def translate_goal_direct(self, req: OracleRequest) -> tuple[tuple[str, tuple[str, ...]], ...]:
        return self._answer("goal_literals", req)


def _load_prompt(name: str) -> str:
    return resources.files("owltamp.data.prompts").joinpath(name).read_text(encoding="utf-8")


def render_discrete_prompt(req: OracleRequest) -> str:
    return _load_prompt("discrete_plan.txt").format(
        goal_text=req.goal_text, initial_state=req.scene_summary,
        ground_operators=req.action_listing, reachable_literals=req.literal_listing)


def render_goal_constraint_prompt(req: OracleRequest) -> str:
    return _load_prompt("continuous_goal.txt").format(
        goal_text=req.goal_text, initial_state=req.scene_summary)


def render_action_constraint_prompt(req: OracleRequest) -> str:
    step = req.step
    return _load_prompt("continuous_action.txt").format(
        goal_text=req.goal_text, initial_state=req.scene_summary,
        operator=step.signature() if step else "",
        description=step.description if step else "",
        goal_constraints="\n".join(req.prior_goal_sources))


_PROMPTS = {
    "partial_plan": render_discrete_prompt,
    "goal_constraints": render_goal_constraint_prompt,
    "action_constraints": render_action_constraint_prompt,
    "goal_literals": lambda req: (
        "Which of these reachable literals must hold to satisfy the goal "
        f"{req.goal_text!r}?  Answer one literal per line.\n{req.literal_listing}"),
}


class ExternalOracle(ScriptedOracle):
    """Chat-completion client over JSON/HTTP with transcript persistence.

    Configuration comes from OWLTAMP_ORACLE_URL / _KEY / _MODEL environment
    variables unless given explicitly.  `post_fn(url, headers, payload)` is
    injectable for tests and replay tooling.
    """

    MAX_ATTEMPTS = 3
    _parse = staticmethod(parse_reply)

    def __init__(self, url: str | None = None, api_key: str | None = None,
                 model: str | None = None, transcript_path: str | None = None,
                 post_fn=None, backoff: float = 1.0):
        self.url = url or os.environ.get("OWLTAMP_ORACLE_URL", "")
        self.api_key = api_key or os.environ.get("OWLTAMP_ORACLE_KEY", "")
        self.model = model or os.environ.get("OWLTAMP_ORACLE_MODEL", "default")
        self.transcript_path = transcript_path
        self._post = post_fn or self._default_post
        self._backoff = backoff
        self.calls = 0
        self.time_spent = 0.0

    def _default_post(self, url: str, headers: dict, payload: dict) -> str:
        import requests
        resp = requests.post(url, headers=headers, json=payload, timeout=120)
        if resp.status_code != 200:
            raise OracleServiceError(f"status {resp.status_code}: {resp.text[:300]}")
        return resp.json()["choices"][0]["message"]["content"]

    def _complete(self, prompt: str, kind: str) -> str:
        if not self.url:
            raise OracleServiceError("no oracle endpoint configured (set OWLTAMP_ORACLE_URL)")
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        payload = {"model": self.model,
                   "messages": [{"role": "user", "content": prompt}]}
        start = time.perf_counter()
        raw = last_err = None
        for attempt in range(self.MAX_ATTEMPTS):
            try:
                reply = self._post(self.url, headers, payload)
                if not isinstance(reply, str):
                    raise OracleServiceError(f"reply is {type(reply).__name__}, not text")
                raw = reply
                break
            except Exception as e:  # noqa: BLE001 - network layer is opaque
                last_err = e
                if attempt + 1 < self.MAX_ATTEMPTS:
                    time.sleep(self._backoff * (2 ** attempt))
        self.time_spent += time.perf_counter() - start
        if raw is None:
            self._record(kind, prompt, "", error=str(last_err))
            raise OracleServiceError(f"service failed after "
                                     f"{self.MAX_ATTEMPTS} attempts: {last_err}")
        self._record(kind, prompt, raw)
        return raw

    def _record(self, kind: str, prompt: str, raw: str, error: str = "") -> None:
        if not self.transcript_path:
            return
        entry = {"kind": kind, "request": prompt, "response": raw,
                 "error": error, "timestamp": time.time()}
        with open(self.transcript_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")

    def _reply(self, kind: str, req: OracleRequest) -> str:
        return self._complete(_PROMPTS[kind](req), kind)


def _transcript_entry(line: str, lineno: int) -> dict:
    """One transcript line as an entry with a string `kind` and `response`."""
    try:
        entry = json.loads(line)
    except json.JSONDecodeError as e:
        raise OracleParseError(f"transcript line {lineno} is not JSON: {e}", line) from None
    if not isinstance(entry, dict):
        raise OracleParseError(f"transcript line {lineno} is not a JSON object", line)
    for key in ("kind", "response"):
        if not isinstance(entry.get(key), str):
            raise OracleParseError(
                f"transcript line {lineno} has no string {key!r}", line)
    return entry


class ReplayOracle(ScriptedOracle):
    """Replays a persisted transcript through the same parsers."""

    _parse = staticmethod(parse_reply)

    def __init__(self, transcript_path: str):
        self._entries: list[dict] = []
        with open(transcript_path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if line.strip():
                    self._entries.append(_transcript_entry(line, lineno))
        self._cursor = 0
        self.calls = 0
        self.time_spent = 0.0

    def _reply(self, kind: str, req: OracleRequest) -> str:
        """The response of the transcript's next entry of this kind."""
        while self._cursor < len(self._entries):
            entry = self._entries[self._cursor]
            self._cursor += 1
            if entry["kind"] == kind:
                if entry.get("error"):
                    raise OracleServiceError(entry["error"])
                return entry["response"]
        raise OracleError(f"transcript exhausted looking for {kind!r}")
