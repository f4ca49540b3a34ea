"""JSON-encoded session programs: the ``.egg`` commands in JSON spelling.

A program is a JSON array of **ops** — ``{"op": ...}`` objects, tabulated
with their fields and results in ``docs/SERVER.md`` — run in order against
one session.  Terms and values reuse the ``repro.snapshot/v1`` wire shapes
(:mod:`repro.serialize.encode`): a term is ``["v", name]`` /
``["l", [sort, payload]]`` / ``["a", func, [args...]]``; a fact is a term or
``["=", term, term]``; an action is ``["let"|"union"|"set"|"delete"|"panic"|
"expr", ...]``; a schedule is ``["run", limit, ruleset?]``,
``["saturate"|"seq", sched...]`` or ``["repeat", n, sched...]``.

This module only decodes.  Each op is shape-checked field by field and
becomes the parser :class:`~repro.frontend.parser.Command` it spells (``add``
is a top-level fact, ``constructor`` a datatype variant of a declared sort),
its terms built directly as the ``Sexp`` nodes the ``.egg`` reader would
produce — never rendered to ``.egg`` text, so names may hold any character.
The session's :class:`~repro.frontend.evaluator.Evaluator` executes it like
an ``.egg`` command (same lowering and checks, global ``let`` environment
and run budgets), and the op encodes the structured result.

``check`` reports ``{"ok": false, "count": 0}`` instead of failing the
program — a query API wants to *ask*, not crash — while malformed ops and
failing commands raise :class:`~repro.session.errors.ProgramError` naming
the op index (HTTP 422 at the server).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from ..core.schema import RunReport
from ..core.values import i64, string
from ..engine.errors import EGraphError
from ..frontend.errors import CheckFailedError, FrontendError
from ..frontend.parser import (
    CheckCmd,
    DatatypeCmd,
    ExplainCmd,
    ExtractCmd,
    FunctionCmd,
    LetCmd,
    RelationCmd,
    RewriteCmd,
    RuleCmd,
    RunCmd,
    RunScheduleCmd,
    SortCmd,
    TopAction,
    UnionCmd,
    Variant,
)
from ..frontend.printer import format_term
from ..frontend.sexp import Literal, Sexp, SList, Symbol
from ..serialize import SnapshotError
from ..serialize.encode import decode_value, encode_term, encode_value
from ..testing.faults import trip
from .errors import ProgramError

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..frontend.evaluator import Evaluator

Json = Any
Op = Dict[str, Json]


def report_json(report: RunReport) -> Dict[str, Json]:
    """A :class:`RunReport` as the wire dict every run-style result carries."""
    return {
        "iterations": report.iterations,
        "matches": report.num_matches,
        "saturated": report.saturated,
        "stopped_reason": report.stopped_reason,
        "updated": report.updated,
        "search_s": report.search_time,
        "apply_s": report.apply_time,
        "rebuild_s": report.rebuild_time,
    }


def _str(op: Op, key: str, default: Optional[str] = None) -> str:
    value = op.get(key, default)
    if not isinstance(value, str):
        raise ProgramError(f"field {key!r} must be a string, got {value!r}")
    return value


def _name(op: Op) -> Optional[str]:
    return None if op.get("name") is None else _str(op, "name")


def _opt_int(op: Op, key: str) -> Optional[int]:
    value = op.get(key)
    if value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ProgramError(f"field {key!r} must be a non-negative integer, got {value!r}")
    return value


def _budgets(op: Op) -> Tuple[Optional[int], Optional[int]]:
    """The op's own run budgets; ``None`` falls back to the request's."""
    return _opt_int(op, "deadline_ms"), _opt_int(op, "max_nodes")


def _sort_list(op: Op, key: str) -> Tuple[str, ...]:
    value = op.get(key, [])
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise ProgramError(f"field {key!r} must be a list of sort names, got {value!r}")
    return tuple(value)


def _list(op: Op, key: str, decode: Callable[[Json], Sexp]) -> Tuple[Sexp, ...]:
    value = op.get(key, [])
    if not isinstance(value, list):
        raise ProgramError(f"field {key!r} must be a list, got {value!r}")
    return tuple(decode(obj) for obj in value)


# -- wire shapes to s-expressions ---------------------------------------------


def _form(head: str, *items: Sexp) -> SList:
    return SList(None, (Symbol(None, head),) + items)


def _term(obj: Json) -> Sexp:
    """A wire term as the s-expression the ``.egg`` reader would build."""
    tag = obj[0] if isinstance(obj, list) and obj else None
    if tag == "v" and len(obj) == 2 and isinstance(obj[1], str):
        return Symbol(None, obj[1])
    if tag == "l" and len(obj) == 2:
        return Literal(None, decode_value(obj[1]))
    if tag == "a" and len(obj) == 3 and isinstance(obj[1], str) and isinstance(obj[2], list):
        return _form(obj[1], *(_term(arg) for arg in obj[2]))
    raise ProgramError(f"malformed term {obj!r}")


def _fact(obj: Json) -> Sexp:
    if isinstance(obj, list) and len(obj) == 3 and obj[0] == "=":
        return _form("=", _term(obj[1]), _term(obj[2]))
    return _term(obj)


def _action(obj: Json) -> Sexp:
    tag, rest = (obj[0], obj[1:]) if isinstance(obj, list) and obj else (None, [])
    if tag == "expr" and len(rest) == 1:
        return _term(rest[0])
    if tag == "let" and len(rest) == 2 and isinstance(rest[0], str):
        return _form(tag, Symbol(None, rest[0]), _term(rest[1]))
    if (tag in ("union", "set") and len(rest) == 2) or (tag == "delete" and len(rest) == 1):
        return _form(tag, *(_term(item) for item in rest))
    if tag == "panic" and len(rest) == 1 and isinstance(rest[0], str):
        return _form(tag, Literal(None, string(rest[0])))
    raise ProgramError(f"malformed action {obj!r}")


def _count(value: Json, what: str) -> Literal:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ProgramError(f"schedule {what} must be an integer, got {value!r}")
    return Literal(None, i64(value))


def _schedule(obj: Json) -> Sexp:
    if not isinstance(obj, list) or not obj or not isinstance(obj[0], str):
        raise ProgramError(f"malformed schedule {obj!r}")
    head, rest = obj[0], obj[1:]
    if head == "run":
        ruleset = rest[1] if len(rest) > 1 else ""
        if not isinstance(ruleset, str):
            raise ProgramError(f"schedule ruleset must be a string, got {ruleset!r}")
        option = (Symbol(None, ":ruleset"), Symbol(None, ruleset)) if ruleset else ()
        return _form(head, _count(rest[0] if rest else 1, "run limit"), *option)
    if head in ("saturate", "seq"):
        return _form(head, *(_schedule(s) for s in rest))
    if head == "repeat" and rest:
        return _form(head, _count(rest[0], "repeat count"), *(_schedule(s) for s in rest[1:]))
    raise ProgramError(f"malformed schedule {obj!r}")


# -- ops: decode one command, execute it, encode its result --------------------


def _declare(command: Callable[[Op], Any]) -> Callable[["Evaluator", Op], Json]:
    def op_fn(ev: "Evaluator", op: Op) -> Json:
        ev.execute(command(op))
        return {"declared": op["name"]}

    return op_fn


def _function(op: Op) -> FunctionCmd:
    merge, default = op.get("merge"), op.get("default")
    if merge is not None and not isinstance(merge, str):
        raise ProgramError(f"field 'merge' must be a string, got {merge!r}")
    default = Literal(None, decode_value(default)) if default is not None else None
    cost, unextractable = _opt_int(op, "cost") or 1, bool(op.get("unextractable", False))
    name, args, out = _str(op, "name"), _sort_list(op, "args"), _str(op, "out")
    return FunctionCmd(None, name, args, out, merge, default, cost, unextractable)


def _constructor(op: Op) -> DatatypeCmd:
    variant = Variant(None, _str(op, "name"), _sort_list(op, "args"), _opt_int(op, "cost") or 1)
    return DatatypeCmd(None, _str(op, "out"), (variant,), extends=True)


def _rule(ev: "Evaluator", op: Op) -> Json:
    facts, actions = _list(op, "facts", _fact), _list(op, "actions", _action)
    result = ev.execute(RuleCmd(None, facts, actions, _name(op), _str(op, "ruleset", "")))
    return {"rule": result.names[0]}


def _rewrite(ev: "Evaluator", op: Op) -> Json:
    lhs, rhs, conditions = _term(op["lhs"]), _term(op["rhs"]), _list(op, "conditions", _fact)
    ruleset, bidirectional = _str(op, "ruleset", ""), bool(op.get("bidirectional", False))
    command = RewriteCmd(None, lhs, rhs, conditions, _name(op), ruleset, bidirectional)
    return {"rules": list(ev.execute(command).names)}


def _let(ev: "Evaluator", op: Op) -> Json:
    name = _str(op, "name")
    value = ev.execute(LetCmd(None, name, _term(op["term"]))).value
    return {"let": name, "value": encode_value(value)}


def _add(ev: "Evaluator", op: Op) -> Json:
    term = _term(op["term"])
    if not isinstance(term, SList):
        raise ProgramError(f"field 'term' must be an application, got {op['term']!r}")
    return {"value": encode_value(ev.execute(TopAction(None, term)).value)}


def _union(ev: "Evaluator", op: Op) -> Json:
    command = UnionCmd(None, _term(op["lhs"]), _term(op["rhs"]))
    return {"value": encode_value(ev.execute(command).value)}


def _run(ev: "Evaluator", op: Op) -> Json:
    limit, budgets = _opt_int(op, "limit"), _budgets(op)
    command = RunCmd(None, 1 if limit is None else limit, _str(op, "ruleset", ""), *budgets)
    return {"report": report_json(ev.execute(command).report)}


def _run_schedule(ev: "Evaluator", op: Op) -> Json:
    schedules = op.get("schedules")
    if not isinstance(schedules, list) or not schedules:
        raise ProgramError("field 'schedules' must be a non-empty list")
    command = RunScheduleCmd(None, tuple(_schedule(s) for s in schedules), *_budgets(op))
    return {"report": report_json(ev.execute(command).report)}


def _check(ev: "Evaluator", op: Op) -> Json:
    facts = _list(op, "facts", _fact)
    if not facts:
        raise ProgramError("check needs at least one fact")
    try:
        return {"ok": True, "count": ev.execute(CheckCmd(None, facts)).count}
    except CheckFailedError:
        return {"ok": False, "count": 0}


def _extract(ev: "Evaluator", op: Op) -> Json:
    best = ev.execute(ExtractCmd(None, _term(op["term"])))
    return {"cost": best.cost, "term": format_term(best.term), "encoded": encode_term(best.term)}


def _explain(ev: "Evaluator", op: Op) -> Json:
    proof = ev.execute(ExplainCmd(None, _term(op["lhs"]), _term(op["rhs"]))).explanation
    steps = [
        {"lhs": s.lhs, "rhs": s.rhs, "kind": s.justification.kind, "name": s.justification.name}
        for s in proof.steps
    ]
    return {"sort": proof.sort, "lhs": proof.lhs, "rhs": proof.rhs, "steps": steps}


_OPS: Dict[str, Callable[["Evaluator", Op], Json]] = {
    "sort": _declare(lambda op: SortCmd(None, _str(op, "name"))),
    "relation": _declare(lambda op: RelationCmd(None, _str(op, "name"), _sort_list(op, "args"))),
    "function": _declare(_function),
    "constructor": _declare(_constructor),
    "rule": _rule,
    "rewrite": _rewrite,
    "let": _let,
    "add": _add,
    "union": _union,
    "run": _run,
    "run-schedule": _run_schedule,
    "check": _check,
    "extract": _extract,
    "explain": _explain,
    "stats": lambda ev, op: ev.stats(),
}


def run_ops(evaluator: "Evaluator", ops: Json) -> List[Json]:
    """Run a JSON program through ``evaluator``; one result object per op.

    The evaluator carries the session's engine, its global ``let``
    environment (``let`` ops bind into it) and its default run budgets.
    Raises :class:`ProgramError` on the first malformed or failing op,
    naming its index.  This function applies ops as it goes; the session
    layer's transactional batches (:meth:`Session.run_program`) roll a
    failed program back to its pre-batch state — call ``run_ops`` directly
    only when partial application is acceptable.
    """
    if not isinstance(ops, list):
        raise ProgramError(f"a program must be a JSON array of ops, got {ops!r}")
    results: List[Json] = []
    for index, op in enumerate(ops):
        if not isinstance(op, dict):
            raise ProgramError(f"op {index}: expected an object, got {op!r}")
        kind = op.get("op")
        handler = _OPS.get(kind) if isinstance(kind, str) else None
        if handler is None:
            known = ", ".join(sorted(_OPS))
            raise ProgramError(f"op {index}: unknown op {kind!r} (known: {known})")
        # Fault-injection point for the durability tests: an exception
        # "between ops" must behave exactly like a failing op.
        trip("batch.op", tag=index)
        try:
            results.append(handler(evaluator, op))
        except ProgramError as error:
            raise ProgramError(f"op {index} ({kind}): {error}") from None
        except (FrontendError, EGraphError, SnapshotError, KeyError, TypeError, ValueError) as err:
            raise ProgramError(f"op {index} ({kind}): {err}") from err
    return results
