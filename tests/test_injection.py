"""User text never becomes generated code.

The indexed search and every action program are rendered as Python source
(``repro.engine.codegen``).  Function names, rule names and ``String``
literals arrive from ``.egg`` programs and HTTP requests, so the generator
must route every one of them through the function's namespace and splice
nothing but its own identifiers and integer indices into the source.  Each
test below sends hostile text through one surface, checks the answers
against the interpreted reference, and then scans every cached source.
"""

import io
import tokenize

from repro.core.terms import App, L, V
from repro.core.values import string
from repro.engine import EGraph, Rule
from repro.engine.actions import Expr
from repro.engine.compilecache import CACHE
from repro.engine.rule import compile_facts

from .test_compile import _engine_bytes, _reference_run
from .test_server import LiveServer

#: Text that would break out of a string literal, a line, or an expression.
NASTY = ['"; x = 1', "line\nbreak", "__import__('os')", "q'uote\"s\\"]
#: The same as function names (the engine takes any string as a name).
NAMES = ['rel"; x = 1', "rel\nnew line", "__import__('os')", "q'uote"]


def _assert_sources_clean(texts):
    sources = CACHE.sources()
    assert sources, "nothing was generated"
    for source in sources:
        for text in texts:
            assert text not in source
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            assert token.type != tokenize.STRING, source
            if token.type == tokenize.NUMBER:
                assert token.string.isdigit(), source


def _nasty_engine():
    eg = EGraph()
    for name in NAMES:
        eg.relation(name, ("String",))
    rules = [
        Rule(
            name=f"rule {text}",
            facts=[App(NAMES[0], L(string(text)))],
            actions=[Expr(App(NAMES[1], L(string(text + "!"))))],
        )
        for text in NASTY
    ]
    rules.append(
        Rule(
            name=NAMES[3],
            facts=[App(NAMES[1], V("x"))],
            actions=[Expr(App(NAMES[2], V("x")))],
        )
    )
    eg.add_rules(*rules)
    for text in NASTY:
        eg.add(App(NAMES[0], string(text)))
    return eg


def test_engine_surface_routes_user_text_through_the_namespace():
    CACHE.clear()
    generated, reference = _nasty_engine(), _nasty_engine()
    report = generated.run(10)
    _reference_run(reference, 10)
    assert report.saturated
    assert _engine_bytes(generated) == _engine_bytes(reference)
    derived = {key[0].data for key, _value in generated.table_rows(NAMES[2])}
    assert derived == {text + "!" for text in NASTY}
    for text in NASTY:
        fact = App(NAMES[2], string(text + "!"))
        query = compile_facts([fact], generated.is_table)
        assert generated.query(fact) == list(generated.search(query))
        assert generated.check(fact) == 1
    _assert_sources_clean(NASTY + NAMES)


def test_egg_surface_routes_user_text_through_the_namespace():
    from repro.frontend import Evaluator

    CACHE.clear()
    texts = ['\\"; x = 1', "line\\nbreak", "__import__('os')"]
    program = "\n".join(
        [
            "(relation q'uote (String))",
            "(relation x=1 (String))",
            "(rule ((q'uote s)) ((x=1 s)) :name \"__import__('os')\")",
            *(f'(q\'uote "{text}")' for text in texts),
            "(run 3)",
            *(f'(check (x=1 "{text}"))' for text in texts),
        ]
    )
    lines = Evaluator().run_program(program, "<nasty>")
    assert [line for line in lines if line.startswith("check")] == [
        "check: ok (1 match(es))"
    ] * len(texts)
    _assert_sources_clean(['"; x = 1', "line\nbreak", "__import__('os')", "q'uote", "x=1"])


def test_http_batch_routes_user_text_through_the_namespace():
    CACHE.clear()
    live = LiveServer()
    try:
        _, body = live.request("POST", "/sessions", {})
        sid = body["session"]["id"]
        ops = [
            {"op": "relation", "name": NAMES[0], "args": ["String"]},
            {"op": "relation", "name": NAMES[1], "args": ["String"]},
            {
                "op": "rule",
                "name": NAMES[2],
                "facts": [["a", NAMES[0], [["v", "x"]]]],
                "actions": [["expr", ["a", NAMES[1], [["v", "x"]]]]],
            },
            *(
                {"op": "add", "term": ["a", NAMES[0], [["l", ["String", text]]]]}
                for text in NASTY
            ),
            {"op": "run", "limit": 5},
            *(
                {"op": "check", "facts": [["a", NAMES[1], [["l", ["String", text]]]]]}
                for text in NASTY
            ),
        ]
        status, body = live.request("POST", f"/sessions/{sid}/program", {"ops": ops})
        assert status == 200, body
        checks = body["results"][-len(NASTY):]
        assert all(result["ok"] and result["count"] == 1 for result in checks)
    finally:
        live.stop()
    _assert_sources_clean(NASTY + NAMES)
