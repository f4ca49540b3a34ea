"""The JSON program surface and the ``.egg`` surface are one executor.

JSON ops decode into the parser's commands and run through the same
:class:`~repro.frontend.evaluator.Evaluator` as ``.egg`` text, so the two
surfaces must agree on every answer, every rejection and every byte of the
resulting database.  The directed tests pin the divergences the separate
JSON interpreter used to have (stale globals, rows that break the declared
signature, missing checks); the property test sends random op sequences
through both surfaces side by side.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.frontend import FrontendError
from repro.frontend.errors import CheckFailedError
from repro.serialize.snapshot import dumps_document, engine_document
from repro.session import ProgramError, SessionManager

DATATYPE = "(datatype Math (Num i64) (Add Math Math))"


def _bytes(session):
    return dumps_document(engine_document(session.engine))


def _num(n):
    return ["a", "Num", [["l", ["i64", n]]]]


def _session(mgr=None):
    session = (mgr or SessionManager()).create_session()
    session.run_egg(DATATYPE)
    return session


# ---------------------------------------------------------------------------
# Directed regressions
# ---------------------------------------------------------------------------


def test_check_sees_globals_at_their_canonical_ids():
    json_session, egg_session = _session(), _session()
    results = json_session.run_program(
        [
            {"op": "let", "name": "a", "term": _num(1)},
            {"op": "let", "name": "b", "term": _num(2)},
            {"op": "union", "lhs": ["v", "a"], "rhs": ["v", "b"]},
            {"op": "check", "facts": [["=", ["v", "a"], ["v", "b"]]]},
        ]
    )
    assert results[-1] == {"ok": True, "count": 1}
    lines = egg_session.run_egg("(let a (Num 1))\n(let b (Num 2))\n(union a b)\n(check (= a b))")
    assert lines == ["check: ok (1 match(es))"]
    assert _bytes(json_session) == _bytes(egg_session)


@pytest.mark.parametrize(
    "term, message",
    [
        (["a", "Num", [["l", ["i64", 1]], ["l", ["i64", 2]]]], "'Num' expects 1 argument(s), got 2"),
        (["a", "Add", [["l", ["String", "x"]], ["l", ["i64", 3]]]], "expected a Math here, got a String"),
    ],
)
def test_add_rejects_rows_that_break_the_signature(tmp_path, term, message):
    mgr = SessionManager(state_dir=str(tmp_path))
    session = _session(mgr)
    session.run_program([{"op": "let", "name": "keep", "term": _num(5)}])
    before = _bytes(session)
    with pytest.raises(ProgramError) as info:
        session.run_program([{"op": "add", "term": term}])
    assert str(info.value) == f"op 0 (add): {message}"
    assert _bytes(session) == before
    # The session survives checkpoint, passivation and restore, and a
    # later .egg extract over it still answers.
    mgr.checkpoint_session(session.id)
    assert mgr._retire(session)
    restored = mgr.get(session.id)
    assert restored is not session and _bytes(restored) == before
    assert restored.run_egg("(extract (Num 3))") == ["extract: (Num 3) (cost 1)"]


_UNKNOWN = "unknown function or primitive 'Nope'"


@pytest.mark.parametrize(
    "setup, op, egg, message",
    [
        (
            [{"op": "let", "name": "a", "term": _num(1)}],
            {"op": "let", "name": "a", "term": _num(2)},
            "(let a (Num 2))",
            "global 'a' is already bound",
        ),
        (
            [],
            {"op": "rewrite", "lhs": ["a", "Num", [["v", "x"]]], "rhs": ["a", "Num", [["v", "y"]]]},
            "(rewrite (Num x) (Num y))",
            "rewrite right-hand side uses unbound variable(s): y",
        ),
        (
            [],
            {"op": "relation", "name": "r", "args": ["Nope"]},
            "(relation r (Nope))",
            "undeclared sort 'Nope'",
        ),
        (
            [],
            {"op": "function", "name": "f", "args": ["i64"], "out": "Nope"},
            "(function f (i64) Nope)",
            "undeclared sort 'Nope'",
        ),
        ([], {"op": "add", "term": ["a", "Nope", []]}, "(Nope)", _UNKNOWN),
        ([], {"op": "let", "name": "z", "term": ["a", "Nope", []]}, "(let z (Nope))", _UNKNOWN),
    ],
    ids=["rebind-global", "unbound-rhs-var", "relation-sort", "function-sort", "add-unknown", "let-unknown"],
)
def test_json_rejections_match_egg(setup, op, egg, message):
    json_session, egg_session = _session(), _session()
    json_session.run_program(setup)
    egg_session.run_egg("(let a (Num 1))" if setup else "")
    before = _bytes(json_session)
    with pytest.raises(ProgramError) as json_error:
        json_session.run_program([op])
    with pytest.raises(ProgramError) as egg_error:
        egg_session.run_egg(egg)
    assert egg_error.value.__cause__.message == message
    assert str(json_error.value) == f"op 0 ({op['op']}): {message}"
    assert _bytes(json_session) == before == _bytes(egg_session)


def test_json_primitive_merge_snapshots_as_a_primitive():
    session = _session()
    session.run_program([{"op": "function", "name": "m", "args": ["i64"], "out": "i64", "merge": "min"}])
    (decl,) = [f for f in engine_document(session.engine)["state"]["functions"] if f["name"] == "m"]
    assert decl["merge"] == {"kind": "primitive", "name": "min"}
    session.run_egg("(set (m 1) 5)\n(set (m 1) 3)\n(set (m 1) 4)")
    assert session.run_program([{"op": "extract", "term": ["a", "m", [["l", ["i64", 1]]]]}])[0]["term"] == "3"


def test_json_constructor_extends_a_declared_sort():
    json_session = SessionManager().create_session()
    json_session.run_program(
        [
            {"op": "sort", "name": "Math"},
            {"op": "constructor", "name": "Num", "args": ["i64"], "out": "Math"},
            {"op": "constructor", "name": "Add", "args": ["Math", "Math"], "out": "Math"},
        ]
    )
    assert _bytes(json_session) == _bytes(_session())


def test_run_schedule_budgets_come_from_the_op_or_the_request():
    session = _session()
    session.run_egg("(rewrite (Add x y) (Add y x))\n(let t (Add (Num 1) (Num 2)))")
    schedule = {"op": "run-schedule", "schedules": [["repeat", 3, ["run", 1]]]}
    (own,) = session.run_program([dict(schedule, max_nodes=0)])
    assert own["report"]["stopped_reason"] == "max-nodes"
    (ambient,) = session.run_program([schedule], deadline_ms=0)
    assert ambient["report"]["stopped_reason"] == "deadline"
    assert ambient["report"]["iterations"] == 0


# ---------------------------------------------------------------------------
# Surface parity: random op sequences through JSON and .egg side by side
# ---------------------------------------------------------------------------

GLOBALS = ["g0", "g1", "g2"]  # g0 is bound before the first op

# Ground terms: (json, egg) pairs over Num/Add and (maybe unbound) globals.
_leaf = st.one_of(
    st.integers(0, 3).map(lambda n: (_num(n), f"(Num {n})")),
    st.integers(0, 3).map(lambda n: (_num(n), f"(Num {n})")),
    st.sampled_from(GLOBALS).map(lambda g: (["v", g], g)),
)
_ground = st.recursive(
    _leaf,
    lambda kids: st.tuples(kids, kids).map(
        lambda pair: (["a", "Add", [pair[0][0], pair[1][0]]], f"(Add {pair[0][1]} {pair[1][1]})")
    ),
    max_leaves=3,
)

_X, _Y = ["v", "x"], ["v", "y"]


def _add(a, b):
    return ["a", "Add", [a, b]]


#: Rules and rewrites: (json op, egg text); repeats collide on both sides.
_RULES = [
    (
        {"op": "rewrite", "lhs": _add(_X, _add(_Y, ["v", "z"])), "rhs": _add(_add(_X, _Y), ["v", "z"]),
         "bidirectional": True},
        "(birewrite (Add x (Add y z)) (Add (Add x y) z))",
    ),
    ({"op": "rewrite", "lhs": _add(_X, _num(0)), "rhs": _X}, "(rewrite (Add x (Num 0)) x)"),
    (
        {"op": "rewrite", "lhs": _add(_X, _Y), "rhs": _add(_Y, _X), "name": "comm2",
         "conditions": [["a", "R0", [_X]]]},
        '(rewrite (Add x y) (Add y x) :when ((R0 x)) :name "comm2")',
    ),
    (
        {"op": "rule", "facts": [_add(_X, _Y)], "actions": [["expr", ["a", "R0", [_X]]]], "name": "r0"},
        '(rule ((Add x y)) ((R0 x)) :name "r0")',
    ),
    (
        {"op": "rule", "facts": [["a", "R0", [_X]]], "actions": [["union", _X, _num(0)]]},
        "(rule ((R0 x)) ((union x (Num 0))))",
    ),
]


@st.composite
def _op(draw):
    kind = draw(
        st.sampled_from(
            ["declare", "let", "add", "add", "union", "rule", "rule", "rule", "run", "schedule",
             "check", "check", "extract", "explain"]
        )
    )
    if kind == "declare":
        return {"op": "relation", "name": "R1", "args": ["Math"]}, "(relation R1 (Math))"
    if kind == "let":
        name = draw(st.sampled_from(GLOBALS))
        term, text = draw(_ground)
        return {"op": "let", "name": name, "term": term}, f"(let {name} {text})"
    if kind == "add":
        term, text = draw(_ground.filter(lambda pair: pair[0][0] == "a"))
        return {"op": "add", "term": term}, text
    if kind == "rule":
        return draw(st.sampled_from(_RULES))
    if kind == "run":
        limit = draw(st.integers(1, 2))
        return {"op": "run", "limit": limit}, f"(run {limit})"
    if kind == "schedule":
        times = draw(st.integers(1, 3))
        if draw(st.booleans()):
            return (
                {"op": "run-schedule", "schedules": [["repeat", times, ["run", 1]]]},
                f"(run-schedule (repeat {times} (run 1)))",
            )
        return (
            {"op": "run-schedule", "schedules": [["seq", ["run", times], ["saturate", ["run", 1]]]]},
            f"(run-schedule (seq (run {times}) (saturate (run 1))))",
        )
    if kind == "extract":
        term, text = draw(_ground)
        return {"op": "extract", "term": term}, f"(extract {text})"
    lhs, lhs_text = draw(_ground)
    # Same-term pairs make checks and explanations that succeed.
    rhs, rhs_text = draw(st.one_of(st.just((lhs, lhs_text)), _ground))
    if kind == "union":
        return {"op": "union", "lhs": lhs, "rhs": rhs}, f"(union {lhs_text} {rhs_text})"
    if kind == "explain":
        # g0 is (Add (Num 1) (Num 2)): its mirror exists once a run ran.
        g0, mirror = (["v", "g0"], "g0"), (_add(_num(2), _num(1)), "(Add (Num 2) (Num 1))")
        (lhs, lhs_text), (rhs, rhs_text) = draw(
            st.sampled_from([(g0, g0), (g0, mirror), ((lhs, lhs_text), (rhs, rhs_text))])
        )
        return {"op": "explain", "lhs": lhs, "rhs": rhs}, f"(explain {lhs_text} {rhs_text})"
    if draw(st.booleans()):
        return {"op": "check", "facts": [["=", lhs, rhs]]}, f"(check (= {lhs_text} {rhs_text}))"
    return {"op": "check", "facts": [["a", "R0", [lhs]]]}, f"(check (R0 {lhs_text}))"


def _json_answer(session, op):
    """The op's answer through the JSON surface, in a surface-neutral form."""
    try:
        (result,) = session.run_program([op], atomic=False)
    except ProgramError as error:
        assert isinstance(error.__cause__, FrontendError), error
        return ("error", error.__cause__.message)
    kind = op["op"]
    if kind == "check":
        return ("check", result["count"])
    if kind == "extract":
        return ("extract", result["term"], result["cost"])
    if kind == "explain":
        return ("explain", [f"{step['kind']} {step['name']}".strip() for step in result["steps"]])
    if kind in ("run", "run-schedule"):
        report = result["report"]
        return ("run", report["iterations"], report["matches"], report["saturated"])
    return ("done",)


def _egg_answer(session, kind, text):
    """The same question through the ``.egg`` surface."""
    try:
        lines = session.run_egg(text, atomic=False)
    except ProgramError as error:
        if isinstance(error.__cause__, CheckFailedError):
            return ("check", 0)
        assert isinstance(error.__cause__, FrontendError), error
        return ("error", error.__cause__.message)
    if kind == "check":
        (line,) = lines
        return ("check", int(line.split("(")[1].split(" ")[0]))
    if kind == "extract":
        (line,) = lines
        term, _, cost = line[len("extract: "):].rpartition(" (cost ")
        return ("extract", term, int(cost.rstrip(")")))
    if kind == "explain":
        return ("explain", [line.split(". ", 1)[1] for line in lines[1:]])
    if kind in ("run", "run-schedule"):
        (line,) = lines
        counts, _, status = line.partition(": ")[2].rpartition(", ")
        iterations, matches = (int(part.split(" ")[0]) for part in counts.split(", "))
        return ("run", iterations, matches, status == "saturated")
    assert lines == []
    return ("done",)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(_op(), min_size=1, max_size=10))
def test_json_and_egg_surfaces_agree(ops):
    mgr = SessionManager()
    json_session, egg_session = mgr.create_session(), mgr.create_session()
    json_session.run_program(
        [
            {"op": "sort", "name": "Math"},
            {"op": "constructor", "name": "Num", "args": ["i64"], "out": "Math"},
            {"op": "constructor", "name": "Add", "args": ["Math", "Math"], "out": "Math"},
            {"op": "relation", "name": "R0", "args": ["Math"]},
            {"op": "let", "name": "g0", "term": _add(_num(1), _num(2))},
            {"op": "rewrite", "lhs": _add(_X, _Y), "rhs": _add(_Y, _X)},
        ]
    )
    egg_session.run_egg(
        DATATYPE + "\n(relation R0 (Math))\n(let g0 (Add (Num 1) (Num 2)))\n"
        "(rewrite (Add x y) (Add y x))"
    )
    assert _bytes(json_session) == _bytes(egg_session)
    for op, text in ops:
        json_answer = _json_answer(json_session, op)
        egg_answer = _egg_answer(egg_session, op["op"], text)
        assert json_answer == egg_answer, (op, text)
        assert _bytes(json_session) == _bytes(egg_session), (op, text)
        assert json_session.evaluator.globals == egg_session.evaluator.globals


def test_sessions_keep_no_transcript():
    session = _session()
    assert session.run_egg("(let t (Num 1))\n(extract t)") == ["extract: (Num 1) (cost 1)"]
    session.run_program([{"op": "extract", "term": ["v", "t"]}])
    assert session.evaluator.lines == []
