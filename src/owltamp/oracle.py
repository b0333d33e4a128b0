"""Constraint providers: scripted fixtures and an external text-completion client.

Both backends speak the same interface; the solver only ever sees parsed
replies, so a recorded external transcript replayed through the parser is
indistinguishable from the scripted backend loaded with the same content.
Generated constraint code is parsed into the closed expression language,
never executed by the host interpreter.
"""

from __future__ import annotations

import functools
import json
import os
import re
import time
from dataclasses import dataclass
from importlib import resources

from .fixtures import VARIANTS, DIRECT_GOALS, Fixture
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
    kind: str  # partial_plan | goal_constraints | action_constraints | goal_literals
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


def parse_plan_response(raw: str, action_listing: str = "") -> PartialPlan:
    """Pull the plan out of a free-form reply: everything after the last
    `Plan:` marker, one `operator; description` line per step."""
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


@functools.lru_cache(maxsize=None)
def _parse_fixture_constraints(text: str) -> tuple[ConstraintFn, ...]:
    """Fixture constraint text parsed once per process: fixtures are constant
    and a finite set, and `ConstraintFn` is frozen.  Replies from a live or
    replayed oracle are untrusted and are parsed on every call instead."""
    return tuple(parse_constraint_response(text))


class ScriptedOracle:
    """Fixture-backed oracle; deterministic and instantaneous."""

    def __init__(self, variant: str = "manual"):
        if variant not in VARIANTS:
            raise OracleError(f"unknown fixture variant {variant!r}")
        self.variant = variant
        self.calls = 0
        self.time_spent = 0.0

    def _fixture(self, task_id: str) -> Fixture:
        table = VARIANTS[self.variant]
        if task_id not in table:
            raise OracleError(f"no {self.variant} fixture for task {task_id!r}")
        return table[task_id]

    def propose_partial_plan(self, req: OracleRequest) -> PartialPlan:
        self.calls += 1
        fx = self._fixture(req.task_id)
        if fx.raw_plan_override is not None:
            return parse_plan_response(fx.raw_plan_override, req.action_listing)
        steps = tuple(PlanStep(a, o, d) for a, o, d in fx.steps)
        validate_steps(steps, req.action_listing)
        return PartialPlan(steps)

    def propose_goal_constraints(self, req: OracleRequest) -> list[ConstraintFn]:
        self.calls += 1
        fx = self._fixture(req.task_id)
        return list(_parse_fixture_constraints("\n".join(fx.goal_constraints)))

    def propose_action_constraints(self, req: OracleRequest) -> list[ConstraintFn]:
        self.calls += 1
        fx = self._fixture(req.task_id)
        sources = fx.step_constraints.get(req.step_index, ())
        return list(_parse_fixture_constraints("\n".join(sources)))

    def translate_goal_direct(self, req: OracleRequest) -> tuple[tuple[str, tuple[str, ...]], ...]:
        self.calls += 1
        if req.task_id not in DIRECT_GOALS:
            raise OracleError(f"no direct-goal fixture for task {req.task_id!r}")
        return DIRECT_GOALS[req.task_id]


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


class ExternalOracle:
    """Chat-completion client over JSON/HTTP with transcript persistence.

    Configuration comes from OWLTAMP_ORACLE_URL / _KEY / _MODEL environment
    variables unless given explicitly.  `post_fn(url, headers, payload)` is
    injectable for tests and replay tooling.
    """

    MAX_ATTEMPTS = 3

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
        data = resp.json()
        return data["choices"][0]["message"]["content"]

    def _complete(self, prompt: str, kind: str) -> str:
        if not self.url:
            raise OracleServiceError("no oracle endpoint configured "
                                     "(set OWLTAMP_ORACLE_URL)")
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        payload = {"model": self.model,
                   "messages": [{"role": "user", "content": prompt}]}
        start = time.perf_counter()
        last_err: Exception | None = None
        raw = None
        for attempt in range(self.MAX_ATTEMPTS):
            try:
                reply = self._post(self.url, headers, payload)
                if not isinstance(reply, str):
                    raise OracleServiceError(
                        f"reply is {type(reply).__name__}, not text")
                raw = reply
                break
            except Exception as e:  # noqa: BLE001 - network layer is opaque
                last_err = e
                if attempt + 1 < self.MAX_ATTEMPTS:
                    time.sleep(self._backoff * (2 ** attempt))
        elapsed = time.perf_counter() - start
        self.calls += 1
        self.time_spent += elapsed
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

    def propose_partial_plan(self, req: OracleRequest) -> PartialPlan:
        raw = self._complete(render_discrete_prompt(req), "partial_plan")
        return parse_plan_response(raw, req.action_listing)

    def propose_goal_constraints(self, req: OracleRequest) -> list[ConstraintFn]:
        raw = self._complete(render_goal_constraint_prompt(req), "goal_constraints")
        return parse_constraint_response(raw)

    def propose_action_constraints(self, req: OracleRequest) -> list[ConstraintFn]:
        raw = self._complete(render_action_constraint_prompt(req), "action_constraints")
        return parse_constraint_response(raw)

    def translate_goal_direct(self, req: OracleRequest):
        raw = self._complete(
            "Which of these reachable literals must hold to satisfy the goal "
            f"{req.goal_text!r}?  Answer one literal per line.\n{req.literal_listing}",
            "goal_literals")
        return parse_goal_literals(raw)


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


class ReplayOracle:
    """Replays a persisted transcript through the same parsers."""

    def __init__(self, transcript_path: str):
        self._entries: list[dict] = []
        with open(transcript_path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if line.strip():
                    self._entries.append(_transcript_entry(line, lineno))
        self._cursor = 0
        self.calls = 0
        self.time_spent = 0.0

    def _next(self, kind: str) -> str:
        while self._cursor < len(self._entries):
            entry = self._entries[self._cursor]
            self._cursor += 1
            if entry["kind"] == kind:
                if entry.get("error"):
                    raise OracleServiceError(entry["error"])
                return entry["response"]
        raise OracleError(f"transcript exhausted looking for {kind!r}")

    def propose_partial_plan(self, req: OracleRequest) -> PartialPlan:
        self.calls += 1
        return parse_plan_response(self._next("partial_plan"), req.action_listing)

    def propose_goal_constraints(self, req: OracleRequest) -> list[ConstraintFn]:
        self.calls += 1
        return parse_constraint_response(self._next("goal_constraints"))

    def propose_action_constraints(self, req: OracleRequest) -> list[ConstraintFn]:
        self.calls += 1
        return parse_constraint_response(self._next("action_constraints"))

    def translate_goal_direct(self, req: OracleRequest):
        self.calls += 1
        return parse_goal_literals(self._next("goal_literals"))
