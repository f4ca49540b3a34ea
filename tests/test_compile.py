"""The compiled hot path: slot plans, action programs, cache invalidation.

Covers the compilation layer (``repro.core.compile`` +
``repro.engine.program``): compiled searches must agree with the
interpreted strategies match-for-match, compiled action programs must agree
with ``run_actions``, and every event that can strand a stale plan — a rule
edited through a ruleset, push/pop around a compiled run, a strategy switch
mid-session — must recompile (no stale-slot reads).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compile import assign_slots
from repro.core.database import Row, Table
from repro.core.schema import FunctionDecl
from repro.core.terms import App, L, V
from repro.core.values import I64, UNIT, Value, i64
from repro.engine import EGraph, EGraphError, Rule
from repro.engine.actions import Delete, Expr, Let, Panic, Set, Union, run_actions
from repro.core.query import PrimAtom, Query, QVar, TableAtom, search_indexed
from repro.engine.rule import compile_facts

STRATEGIES = ["indexed", "generic"]


def tc_engine(strategy="indexed", edges=((1, 2), (2, 3), (3, 4), (1, 3))):
    eg = EGraph(strategy=strategy)
    eg.relation("edge", (I64, I64))
    eg.relation("path", (I64, I64))
    eg.add_rules(
        Rule(
            name="base",
            facts=[App("edge", V("x"), V("y"))],
            actions=[Expr(App("path", V("x"), V("y")))],
        ),
        Rule(
            name="step",
            facts=[App("path", V("x"), V("y")), App("edge", V("y"), V("z"))],
            actions=[Expr(App("path", V("x"), V("z")))],
        ),
    )
    for a, b in edges:
        eg.add(App("edge", a, b))
    return eg


def path_rows(eg):
    return sorted((k[0][1], k[1][1]) for k, _v in eg.table_rows("path"))


# -- slot assignment ----------------------------------------------------------


def test_assign_slots_table_vars_first_then_prim_vars():
    query = compile_facts(
        [App("edge", V("x"), V("y")), App(">", V("y"), V("bound"))],
        lambda name: name == "edge",
    )
    slot_of, names = assign_slots(query)
    assert names[:2] == ("x", "y")
    assert "bound" in slot_of and slot_of["bound"] == names.index("bound")
    assert len(names) == len(set(names)) == len(slot_of)


# -- compiled search vs interpreted search ------------------------------------


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_compiled_search_matches_interpreted(strategy):
    eg = tc_engine(strategy)
    eg.run(10)
    # The public query path runs the same compiled plans as the scheduler;
    # the interpreted strategies (``eg.search``) stay as the reference.
    # Both must see the same closure, match for match and in order.
    matches = eg.query(App("path", V("a"), V("b")))
    assert len(matches) == len(path_rows(eg))
    rule = eg.rules["step"]
    exec_ = eg.rule_exec(rule)
    compiled = [exec_.substitution(m) for m in exec_.search_full(eg.tables)]
    interpreted = list(eg.search(rule.query))
    assert compiled == interpreted


def test_all_strategies_agree_on_closure():
    closures = []
    for strategy in STRATEGIES:
        eg = tc_engine(strategy, edges=((1, 2), (2, 3), (2, 4), (4, 1)))
        report = eg.run(16)
        assert report.saturated
        closures.append(path_rows(eg))
    assert closures[0] == closures[1]


def test_compiled_prim_guards_and_binders():
    eg = EGraph()
    eg.relation("n", (I64,))
    eg.relation("big-double", (I64,))
    eg.add_rule(
        Rule(
            name="double-big",
            facts=[
                App("n", V("x")),
                App(">", V("x"), L(2)),
                eqf("y", App("*", V("x"), L(2))),
            ],
            actions=[Expr(App("big-double", V("y")))],
        )
    )
    for value in (1, 2, 3, 5):
        eg.add(App("n", value))
    eg.run(5)
    assert sorted(k[0][1] for k, _v in eg.table_rows("big-double")) == [6, 10]


def eqf(name, term):
    from repro.engine import eq

    return eq(V(name), term)


def test_unsafe_prim_query_matches_nothing_compiled_and_interpreted():
    eg = EGraph()
    eg.relation("n", (I64,))
    # "y" is never bound by any atom or primitive output: the interpreted
    # engine fails every match; the compiled plan must do the same.
    eg.add_rule(
        Rule(
            name="unsafe",
            facts=[App("n", V("x")), App(">", V("y"), L(0))],
            actions=[Expr(App("n", V("x")))],
        )
    )
    eg.add(App("n", 1))
    report = eg.run(3)
    assert report.per_rule_matches["unsafe"] == 0
    assert list(eg.search(eg.rules["unsafe"].query)) == []


# -- compiled action programs vs run_actions ----------------------------------


def test_action_program_agrees_with_run_actions():
    def build():
        eg = EGraph()
        eg.declare_sort("S")
        eg.constructor("f", (I64,), "S")
        eg.function("g", (I64,), I64, merge="min")
        eg.relation("r", (I64,))
        return eg

    actions = [
        Let("v", App("+", L(1), L(2))),
        Set(App("g", L(1)), V("v")),
        Expr(App("r", V("v"))),
        Union(App("f", L(1)), App("f", L(2))),
        Delete(App("r", V("v"))),
        Set(App("g", L(1)), L(2)),
    ]

    interpreted = build()
    run_actions(interpreted, actions, {})

    compiled = build()
    rule_name = compiled.add_rule(Rule(name="all-ops", facts=[], actions=actions))
    compiled.run(1)

    for name in ("g", "r"):
        assert dict(interpreted.table_rows(name)) == dict(compiled.table_rows(name))
    assert interpreted.are_equal(App("f", 1), App("f", 2))
    assert compiled.are_equal(App("f", 1), App("f", 2))
    assert compiled.rules[rule_name].last_run > 0


def test_action_program_panic_and_fire_time_errors():
    from repro.engine import EGraphPanic
    from repro.engine.program import compile_actions

    eg = EGraph()
    eg.relation("r", (I64,))
    eg.add_rule(Rule(name="boom", facts=[], actions=[Panic("no")]))
    with pytest.raises(EGraphPanic, match="no"):
        eg.run(1)

    # An unbound variable compiles to the interpreter's fire-time error:
    # compiling succeeds, firing raises.
    ghost = compile_actions(eg, [Expr(App("r", V("ghost")))], {}, 0, Query())
    with pytest.raises(EGraphError, match="unbound variable 'ghost'"):
        ghost(((),))
    assert len(eg.tables["r"]) == 0
    # Let-shadowing reuses the query variable's register, like the dict
    # overwrite in run_actions.
    fire = compile_actions(
        eg, [Let("x", L(7)), Expr(App("r", V("x")))], {"x": 0}, 1, Query()
    )
    fire(((i64(3),),))
    assert (i64(7),) in eg.tables["r"].data


# -- generated code vs the interpreted reference ------------------------------
#
# The indexed strategy's searches and every action program are generated
# Python (``repro.engine.codegen``).  These properties pin them to the
# interpreted reference: ``search_indexed`` match for match *in order*
# (order decides id allocation downstream), and ``run_actions`` down to the
# snapshot bytes (which include union-find parent arrays, so even the
# canonicalize calls must line up).

VARS = ["a", "b", "c", "d"]
COLUMN = st.one_of(
    st.sampled_from(VARS).map(QVar), st.integers(0, 2).map(i64)
)
TABLE_SHAPES = {"r": 2, "s": 1, "f": 1}  # r, s: relations; f: i64 -> i64


ATOM = st.builds(
    lambda func, columns: (func, columns),
    st.sampled_from(sorted(TABLE_SHAPES)),
    st.lists(COLUMN, min_size=3, max_size=3),
)
PRIM = st.one_of(
    st.builds(lambda x, y: PrimAtom("<", (x, y)), COLUMN, COLUMN),
    st.builds(lambda x, y: PrimAtom("+", (x, i64(1)), y), COLUMN, COLUMN),
    st.builds(lambda x, y: PrimAtom("!=", (x, y)), COLUMN, COLUMN),
)
WRITE = st.tuples(
    st.sampled_from(["r", "s", "f", "drop-r", "search"]),
    st.integers(0, 2),
    st.integers(0, 2),
    st.integers(0, 2),
)


def _query(atom_specs, prims):
    atoms = []
    for n, (func, columns) in enumerate(atom_specs):
        arity = TABLE_SHAPES[func]
        out = columns[arity] if func == "f" else QVar(f"$out{n}")
        atoms.append(TableAtom(func, tuple(columns[:arity]), out))
    return Query(atoms=atoms, prims=list(prims))


def _tables():
    decls = {
        "r": FunctionDecl(name="r", arg_sorts=(I64, I64), out_sort=UNIT),
        "s": FunctionDecl(name="s", arg_sorts=(I64,), out_sort=UNIT),
        "f": FunctionDecl(name="f", arg_sorts=(I64,), out_sort=I64),
    }
    return {name: Table(decl) for name, decl in decls.items()}


def _write(tables, op, x, y, ts):
    from repro.core.values import UNIT_VALUE

    if op == "r":
        tables["r"].put((i64(x), i64(y)), UNIT_VALUE, ts)
    elif op == "s":
        tables["s"].put((i64(x),), UNIT_VALUE, ts)
    elif op == "f":
        tables["f"].put((i64(x),), i64(y), ts)  # may overwrite: output moves
    elif op == "drop-r":
        tables["r"].remove((i64(x), i64(y)))


@settings(max_examples=150, deadline=None)
@given(
    atom_specs=st.lists(ATOM, min_size=0, max_size=3),
    prims=st.lists(PRIM, max_size=2),
    writes=st.lists(WRITE, min_size=1, max_size=30),
)
def test_generated_search_matches_search_indexed_in_order(atom_specs, prims, writes):
    """Two identical databases see the same writes; one is searched by the
    interpreted ``search_indexed``, the other by the generated search,
    interleaved with the writes (so lazily built indexes must appear at the
    same moments on both sides).  Full and per-atom delta searches must
    agree match for match, in order."""
    from repro.core.builtins import default_registry
    from repro.engine.compilecache import CompileCacheRegistry

    query = _query(atom_specs, prims)
    registry = default_registry()
    plan, consts = CompileCacheRegistry().plan(query, "indexed")
    reference, generated = _tables(), _tables()
    for ts, (op, x, y, back) in enumerate(writes, start=1):
        if op != "search":
            _write(reference, op, x, y, ts)
            _write(generated, op, x, y, ts)
            continue
        since = max(0, ts - 4 * back)  # a watermark 0, 4 or 8 writes ago
        for delta_atom in [None, *range(len(query.atoms))]:
            expected = list(
                search_indexed(reference, registry, query, delta_atom=delta_atom, since=since)
            )
            out = []
            seen = set() if delta_atom is not None else None
            plan.query_exec.search_into(
                generated, registry.call, consts, delta_atom, since, out, seen
            )
            assert [dict(zip(plan.slot_names, m)) for m in out] == expected


def test_generated_search_builds_indexes_when_the_interpreter_does():
    # An index built later, from ``data``, orders its entries differently
    # from one maintained through the same writes.  The generated search
    # must request a nested step's index at that step's first visit, like
    # the interpreter — not up front when the outer loop has no rows.
    from repro.core.builtins import default_registry
    from repro.core.values import UNIT_VALUE
    from repro.engine.compilecache import CompileCacheRegistry

    query = Query(
        atoms=[
            TableAtom("s", (QVar("a"),), QVar("$0")),
            TableAtom("f", (QVar("b"),), QVar("a")),
        ]
    )
    registry = default_registry()
    plan, consts = CompileCacheRegistry().plan(query, "indexed")
    reference, generated = _tables(), _tables()

    def both(op):
        for tables in (reference, generated):
            op(tables)

    both(lambda t: t["f"].put((i64(0),), i64(1), 1))
    both(lambda t: t["f"].put((i64(1),), i64(1), 1))
    assert list(search_indexed(reference, registry, query)) == []
    out = []
    plan.query_exec.search_into(generated, registry.call, consts, None, 0, out)  # s is empty
    assert out == []
    both(lambda t: t["f"].put((i64(0),), i64(2), 2))  # f(0) moves away...
    both(lambda t: t["f"].put((i64(0),), i64(1), 3))  # ...and back
    both(lambda t: t["s"].put((i64(1),), UNIT_VALUE, 3))
    expected = list(search_indexed(reference, registry, query))
    plan.query_exec.search_into(generated, registry.call, consts, None, 0, out)
    assert [dict(zip(plan.slot_names, m)) for m in out] == expected
    assert [m["b"] for m in expected] == [i64(0), i64(1)]


def test_long_join_orders_continue_in_helper_functions():
    # CPython compiles at most 20 nested blocks per function; a join of
    # more atoms than that must still compile, and still agree with the
    # interpreter in order, for full and delta searches alike.
    def chain_engine():
        eg = EGraph()
        eg.relation("e", (I64, I64))
        eg.relation("far", (I64, I64))
        hops = [App("e", V(f"x{n}"), V(f"x{n + 1}")) for n in range(40)]
        eg.add_rule(
            Rule(name="far", facts=hops, actions=[Expr(App("far", V("x0"), V("x40")))])
        )
        for n in range(44):
            eg.add(App("e", n, n + 1))
        eg.add(App("e", 3, 3))
        return eg

    generated, reference = chain_engine(), chain_engine()
    rule = generated.rules["far"]
    exec_ = generated.rule_exec(rule)
    compiled = [exec_.substitution(m) for m in exec_.search_full(generated.tables)]
    assert compiled == list(generated.search(rule.query))
    assert len(compiled) > 4
    for eg in (generated, reference):
        eg.add(App("e", 44, 45))
    generated.run(3)
    _reference_run(reference, 3)
    assert _engine_bytes(generated) == _engine_bytes(reference)
    assert generated.check(*[App("e", n, n + 1) for n in range(30)]) == 1


def test_queries_differing_in_constants_share_one_plan():
    # Indexed plans are compiled per query *shape*; the constants arrive
    # per search.  Two checks that differ only in a constant must share
    # the plan and still answer with their own constants.
    from repro.engine.compilecache import CACHE

    eg = tc_engine(edges=((1, 2), (2, 3), (3, 4), (1, 3), (5, 1)))
    eg.run(10)
    CACHE.clear()
    counts = [eg.check(App("path", n, V("y"))) for n in (1, 2, 5)]
    stats = CACHE.stats()
    assert (stats["misses"], stats["hits"]) == (1, 2)
    expected = [
        len(list(eg.search(compile_facts([App("path", n, V("y"))], eg.is_table))))
        for n in (1, 2, 5)
    ]
    assert counts == expected == [3, 2, 4]


def test_code_objects_never_evict_plans():
    # Plans and code objects sit in separate LRUs: a burst of new code
    # must not push a rule's plan out (it would recompile every batch).
    from repro.engine.compilecache import CompileCacheRegistry

    cache = CompileCacheRegistry(maxsize=2)
    eg = tc_engine()
    queries = [
        compile_facts([App("edge", V("x"), V("y"))], eg.is_table),
        compile_facts([App("path", V("x"), V("y"))], eg.is_table),
    ]
    plans = [cache.plan(query, "indexed")[0] for query in queries]
    for n in range(3):
        cache.code(f"def f():\n    return {n}\n")
    assert [cache.plan(query, "indexed")[0] for query in queries] == plans
    stats = cache.stats()
    assert (stats["size"], stats["evictions"]) == (2, 0)
    assert (stats["code_size"], stats["code_evictions"]) == (2, 1)


def _action_engine():
    eg = EGraph()
    eg.declare_sort("S")
    eg.constructor("k", (I64,), "S")
    eg.constructor("pair", ("S", "S"), "S")
    eg.function("g", (I64,), I64, merge="min")
    eg.function("h", ("S",), I64, merge="max")
    eg.function("tag", (I64,), "S")  # eq-sorted output, union merge
    eg.function("strict", (I64,), I64, merge="error")
    eg.function("dflt", (I64,), I64, default=i64(5))
    eg.relation("r", (I64,))
    eg.relation("rs", ("S",))
    for n in range(3):
        eg.add(App("k", n))
        eg.add(App("r", n))
    eg.union(App("k", 0), App("k", 1))  # a non-canonical id to chase
    return eg


X = st.sampled_from([V("x"), V("y"), V("w"), L(0), L(1), L(2)])
EQ = st.sampled_from([V("p"), V("q"), V("t")])
I64_TERM = st.one_of(
    X,
    st.builds(lambda a: App("+", a, L(1)), X),
    st.builds(lambda a: App("g", a), X),
    st.builds(lambda a: App("dflt", a), X),
    st.builds(lambda e: App("h", e), EQ),
)
EQ_TERM = st.one_of(
    EQ,
    st.builds(lambda a: App("k", a), X),
    st.builds(lambda e, f: App("pair", e, f), EQ, EQ),
    st.builds(lambda a: App("tag", a), X),
)
ACTION = st.one_of(
    st.builds(lambda t: Let("w", t), I64_TERM),
    st.builds(lambda t: Let("x", t), I64_TERM),  # shadows a query slot
    st.builds(lambda t: Let("t", t), EQ_TERM),
    st.builds(lambda t: Let("p", t), EQ_TERM),  # shadows an eq slot
    st.builds(lambda a: Expr(App("r", a)), I64_TERM),
    st.builds(lambda e: Expr(App("rs", e)), EQ_TERM),
    st.builds(Expr, EQ_TERM),
    st.builds(lambda a, v: Set(App("g", a), v), X, I64_TERM),
    st.builds(lambda e, v: Set(App("h", e), v), EQ, I64_TERM),
    st.builds(lambda a, e: Set(App("tag", a), e), X, EQ_TERM),
    st.builds(lambda a, v: Set(App("strict", a), v), X, X),
    st.builds(lambda a: Delete(App("r", a)), X),
    st.builds(lambda a: Delete(App("g", a)), X),
    st.builds(Union, EQ_TERM, EQ_TERM),
    st.just(Panic("stop here")),
    st.builds(lambda a: Expr(App("/", L(1), a)), X),  # fails on 0
)


def _engine_bytes(eg):
    from repro.serialize.snapshot import dumps_document, engine_document

    return dumps_document(engine_document(eg))


@settings(max_examples=200, deadline=None)
@given(
    actions=st.lists(ACTION, min_size=1, max_size=6),
    matches=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=4),
)
def test_generated_actions_match_run_actions(actions, matches):
    """Fire the same action list under the same matches through
    ``run_actions`` and through the generated program: the same error (if
    any) at the same point, and byte-identical engines afterwards."""
    from repro.core.values import UNIT_VALUE
    from repro.engine import EGraphPanic
    from repro.engine.program import compile_actions

    query = compile_facts(
        [
            App("r", V("x")),
            App("r", V("y")),
            eqf("p", App("k", V("x"))),
            eqf("q", App("k", V("y"))),
        ],
        lambda name: name in ("r", "k"),
    )
    slot_of, names = assign_slots(query)
    reference, generated = _action_engine(), _action_engine()
    fire_generated = compile_actions(generated, actions, slot_of, len(names), query)
    k_rows = reference.tables["k"]
    # Raw (possibly stale) ids, as a search would have bound them before
    # earlier matches' unions.
    bound = [
        {
            "x": i64(x),
            "y": i64(y),
            "p": k_rows.get((i64(x),)),
            "q": k_rows.get((i64(y),)),
        }
        for x, y in matches
    ]
    for subst in bound:
        full = {name: subst.get(name, UNIT_VALUE) for name in names}
        outcomes = []
        for fire in (
            lambda: run_actions(reference, actions, full),
            lambda: fire_generated((tuple(full[name] for name in names),)),
        ):
            try:
                fire()
                outcomes.append(None)
            except (EGraphError, EGraphPanic) as error:
                outcomes.append((type(error), str(error)))
        assert outcomes[0] == outcomes[1]
        assert _engine_bytes(reference) == _engine_bytes(generated)
        assert reference.updates == generated.updates
        assert reference._proof_log == generated._proof_log
        if outcomes[0] is not None:
            break


def _rich_engine():
    """Rules covering the generator's cases: constants, repeated variables,
    primitive guards and binders, let shadowing, ``set`` with a merge,
    ``delete``, eq-sorted outputs and unions."""
    from repro.engine import eq, rewrite

    eg = EGraph()
    eg.declare_sort("E")
    eg.constructor("num", (I64,), "E")
    eg.constructor("add", ("E", "E"), "E")
    eg.relation("edge", (I64, I64))
    eg.relation("path", (I64, I64))
    eg.relation("loop", (I64,))
    eg.relation("far", (I64,))
    eg.function("dist", (I64, I64), I64, merge="min")
    eg.add_rules(
        Rule(
            name="base",
            facts=[App("edge", V("x"), V("y"))],
            actions=[Expr(App("path", V("x"), V("y"))), Set(App("dist", V("x"), V("y")), L(1))],
        ),
        Rule(
            name="step",
            facts=[
                App("path", V("x"), V("y")),
                App("edge", V("y"), V("z")),
                eq(V("d"), App("dist", V("x"), V("y"))),
                App("!=", V("x"), V("z")),
            ],
            actions=[
                Expr(App("path", V("x"), V("z"))),
                Set(App("dist", V("x"), V("z")), App("+", V("d"), L(1))),
            ],
        ),
        Rule(name="loop", facts=[App("edge", V("x"), V("x"))], actions=[Expr(App("loop", V("x")))]),
        Rule(
            name="from-zero",
            facts=[App("edge", L(0), V("y"))],
            actions=[Let("y", App("+", V("y"), L(10))), Expr(App("far", V("y")))],
        ),
        Rule(
            name="prune",
            facts=[App("far", V("x")), App(">", V("x"), L(11))],
            actions=[Delete(App("far", V("x")))],
        ),
        rewrite(App("add", V("a"), V("b")), App("add", V("b"), V("a")), name="comm"),
        rewrite(
            App("add", App("num", V("n")), App("num", V("m"))),
            App("num", App("+", V("n"), V("m"))),
            name="fold",
        ),
    )
    return eg


def _reference_run(eg, limit):
    """The scheduler's iteration, driven by ``search_indexed`` and
    ``run_actions`` instead of generated code."""
    from repro.core.proofs import rule_justification
    from repro.engine.rebuild import rebuild
    from repro.engine.rule import DEFAULT_RULESET

    for _ in range(limit):
        updates = eg.updates
        rebuild(eg)
        searched = []
        for name in eg.rulesets[DEFAULT_RULESET]:
            rule = eg.rules[name]
            query = rule.query
            if rule.last_run <= 0:
                matches = list(search_indexed(eg.tables, eg.registry, query))
            else:
                matches, seen = [], set()
                for index, atom in enumerate(query.atoms):
                    if not eg.tables[atom.func].has_new(rule.last_run):
                        continue
                    for match in search_indexed(
                        eg.tables, eg.registry, query, delta_atom=index, since=rule.last_run
                    ):
                        key = tuple(sorted(match.items()))
                        if key not in seen:
                            seen.add(key)
                            matches.append(match)
            searched.append((rule, matches))
        eg.timestamp += 1
        for table in eg.tables.values():
            table.begin_batch()
        try:
            for rule, matches in searched:
                previous = eg.set_union_reason(rule_justification(rule.name))
                try:
                    for match in matches:
                        run_actions(eg, rule.actions, match)
                finally:
                    eg.set_union_reason(previous)
                rule.last_run = eg.timestamp
        finally:
            for table in eg.tables.values():
                table.end_batch()
        rebuild(eg)
        if eg.updates == updates:
            break


RICH_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("edge"), st.integers(0, 4), st.integers(0, 4)),
        st.tuples(st.just("add"), st.integers(0, 3), st.integers(0, 3)),
        st.tuples(st.just("union"), st.integers(0, 3), st.integers(0, 3)),
        st.tuples(st.just("run"), st.integers(1, 4), st.just(0)),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=40, deadline=None)
@given(ops=RICH_OPS)
def test_scheduler_on_generated_code_matches_interpreted_reference(ops):
    """Random interleavings of inserts, unions and runs: the engine's run
    (generated search and actions) and a reference scheduler built from
    ``search_indexed`` + ``run_actions`` must stay byte-identical."""
    engines = [_rich_engine(), _rich_engine()]
    for op, a, b in ops:
        for n, eg in enumerate(engines):
            if op == "edge":
                eg.add(App("edge", a, b))
            elif op == "add":
                eg.add(App("add", App("num", a), App("num", b)))
            elif op == "union":
                eg.union(App("num", a), App("num", b))
            elif n == 0:
                eg.run(a)
            else:
                _reference_run(eg, a)
        assert _engine_bytes(engines[0]) == _engine_bytes(engines[1])
        assert engines[0].updates == engines[1].updates


# -- cache invalidation: rule edits, push/pop, strategy switches --------------


def test_engine_replace_rule_recompiles_and_resets_watermark():
    eg = tc_engine()
    eg.run(10)
    before = path_rows(eg)
    # Edit the step rule to derive reversed paths instead.
    eg.replace_rule(
        Rule(
            name="step",
            facts=[App("edge", V("x"), V("y"))],
            actions=[Expr(App("path", V("y"), V("x")))],
        )
    )
    assert eg.rules["step"].last_run == 0  # full re-search, not a delta
    eg.run(10)
    after = path_rows(eg)
    assert set(before) < set(after)
    assert (2, 1) in after  # the edited rule actually ran compiled afresh

    with pytest.raises(EGraphError, match="unknown rule"):
        eg.replace_rule(Rule(name="nope", facts=[], actions=[Expr(App("path", L(0), L(0)))]))
    with pytest.raises(EGraphError, match="needs a named rule"):
        eg.replace_rule(Rule(name=None, facts=[], actions=[Expr(App("path", L(0), L(0)))]))
    with pytest.raises(EGraphError, match="cannot move rule"):
        eg.replace_rule(
            Rule(
                name="step",
                facts=[App("edge", V("x"), V("y"))],
                actions=[Expr(App("path", V("x"), V("y")))],
                ruleset="other",
            )
        )


def test_dsl_ruleset_replace_recompiles():
    from repro.dsl import EGraph as DslEGraph
    from repro.dsl import i64 as i64_sort
    from repro.dsl import rule, var

    eg = DslEGraph()
    num = eg.relation("num", i64_sort)
    bumped = eg.relation("bumped", i64_sort)
    rs = eg.ruleset("edits")

    x = var("x", i64_sort)
    rs.register(rule(num(x), name="bump").then(bumped(x + 1)))
    eg.add(num(10))
    eg.run(rs.run(4))
    assert (i64(11),) in eg.engine.tables["bumped"].data

    # Edit the rule through the ruleset: same name, new body.
    rs.replace(rule(num(x), name="bump").then(bumped(x + 100)))
    eg.add(num(20))
    eg.run(rs.run(4))
    data = eg.engine.tables["bumped"].data
    assert (i64(120),) in data and (i64(110),) in data
    assert (i64(21),) not in data  # old program is unreachable

    with pytest.raises(EGraphError, match="unknown rule"):
        rs.replace(rule(num(x), name="ghost").then(bumped(x)))

    # A rejected replace must not corrupt the caller's engine-rule object.
    engine_rule = Rule(
        name="bump",
        facts=[App("num", V("x"))],
        actions=[Expr(App("bumped", V("x")))],
        ruleset="elsewhere",
    )
    other = eg.ruleset("other")
    with pytest.raises(EGraphError, match="cannot move rule"):
        other.replace(engine_rule)
    assert engine_rule.ruleset == "elsewhere"


@pytest.mark.parametrize("strategy", ["indexed", "generic"])
def test_push_pop_across_compiled_run(strategy):
    eg = tc_engine(strategy)
    eg.run(10)  # compile + run
    before = path_rows(eg)
    epoch = eg.compile_epoch
    eg.push()
    assert eg.compile_epoch != epoch
    eg.relation("marked", (I64,))
    eg.add_rule(
        Rule(
            name="mark",
            facts=[App("path", V("x"), V("y"))],
            actions=[Expr(App("marked", V("x")))],
        )
    )
    eg.add(App("edge", 4, 5))
    eg.run(10)
    assert (4, 5) in path_rows(eg)
    assert len(eg.tables["marked"]) > 0
    eg.pop()
    # The popped scope's table and rule are gone; compiled plans of the
    # surviving rules were invalidated and recompile cleanly.
    assert "marked" not in eg.tables and "mark" not in eg.rules
    assert path_rows(eg) == before
    eg.add(App("edge", 4, 6))
    eg.run(10)
    assert (1, 6) in path_rows(eg)


def test_strategy_switch_mid_session_recompiles():
    eg = tc_engine("indexed")
    eg.run(3)
    exec_indexed = eg.rule_exec(eg.rules["step"])
    eg.strategy = "generic"
    exec_generic = eg.rule_exec(eg.rules["step"])
    assert exec_generic is not exec_indexed
    assert exec_generic.strategy == "generic"
    eg.run(10)
    fresh = tc_engine("generic")
    fresh.run(13)
    assert path_rows(eg) == path_rows(fresh)
    # Switching back re-uses the cached indexed executor (same epoch).
    eg.set_strategy("indexed")
    assert eg.rule_exec(eg.rules["step"]) is exec_indexed
    with pytest.raises(EGraphError, match="unknown search strategy"):
        eg.set_strategy("quantum")


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("edge"), st.integers(0, 5), st.integers(0, 5)),
        st.just(("run",)),
        st.just(("push",)),
        st.just(("pop",)),
        st.just(("switch",)),
        st.just(("edit",)),
    ),
    max_size=14,
)


@settings(max_examples=40, deadline=None)
@given(ops=OPS)
def test_invalidation_interleavings_agree_across_strategies(ops):
    """Random interleavings of run/push/pop/edit/switch on two engines.

    Engine A starts on "indexed" and toggles strategies on ``switch``;
    engine B stays on "generic".  Whatever the interleaving, both must end
    with identical path closures — a stale compiled plan or program on
    either side would diverge.
    """
    engines = [tc_engine("indexed", edges=()), tc_engine("generic", edges=())]
    depth = 0
    edited = False
    toggle = ["indexed", "generic"]
    for op in ops:
        if op[0] == "edge":
            for eg in engines:
                eg.add(App("edge", op[1], op[2]))
        elif op[0] == "run":
            for eg in engines:
                eg.run(8)
        elif op[0] == "push":
            depth += 1
            for eg in engines:
                eg.push()
        elif op[0] == "pop" and depth > 0:
            depth -= 1
            for eg in engines:
                eg.pop()
        elif op[0] == "switch":
            toggle.reverse()
            engines[0].set_strategy(toggle[0])
        elif op[0] == "edit":
            edited = not edited
            action = (
                Expr(App("path", V("y"), V("x")))
                if edited
                else Expr(App("path", V("x"), V("z")))
            )
            facts = (
                [App("edge", V("x"), V("y"))]
                if edited
                else [App("path", V("x"), V("y")), App("edge", V("y"), V("z"))]
            )
            for eg in engines:
                eg.replace_rule(Rule(name="step", facts=facts, actions=[action]))
    for eg in engines:
        eg.run(24)
    assert path_rows(engines[0]) == path_rows(engines[1])


# -- table write batching -----------------------------------------------------


def unit_decl(name="t", arity=2):
    return FunctionDecl(name=name, arg_sorts=(I64,) * arity, out_sort=UNIT)


def test_batch_defers_then_flushes_index_maintenance():
    table = Table(FunctionDecl(name="f", arg_sorts=(I64,), out_sort=I64))
    table.put((i64(1),), i64(10), 0)
    index = table.index((0,))
    assert (i64(1),) in index

    table.begin_batch()
    table.put((i64(2),), i64(20), 1)
    table.put((i64(2),), i64(21), 1)  # overwrite coalesces
    table.remove((i64(1),))
    # Reads through data stay current inside the batch.
    assert table.get((i64(2),)) == i64(21)
    # An index read inside the batch flushes pending maintenance first.
    live = table.index((0,))
    assert (i64(2),) in live and (i64(1),) not in live
    table.end_batch()

    with pytest.raises(RuntimeError, match="end_batch without"):
        table.end_batch()
    # Output-column index reflects only the final value of the batch.
    out_index = table.index((1,))
    assert (i64(21),) in out_index and (i64(20),) not in out_index


def test_batch_insert_then_remove_is_a_net_noop():
    from repro.core.values import UNIT_VALUE

    table = Table(unit_decl())
    table.index((0,))
    table.begin_batch()
    key = (i64(7), i64(8))
    table.put(key, UNIT_VALUE, 3)
    table.remove(key)
    table.end_batch()
    assert key not in table
    assert (i64(7),) not in table.index((0,))


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "remove", "flush-read"]),
            st.integers(0, 3),
            st.integers(0, 3),
            st.integers(0, 4),
        ),
        max_size=24,
    )
)
def test_batched_and_unbatched_tables_agree(ops):
    """The same op sequence on a batched and an unbatched table must leave
    identical rows and hash indexes."""
    decl = FunctionDecl(name="f", arg_sorts=(I64,), out_sort=I64)
    batched, plain = Table(decl), Table(decl)
    for table in (batched, plain):
        table.index((0,))
        table.index((1,))
    batched.begin_batch()
    for op, a, value, ts in ops:
        key = (i64(a),)
        if op == "put":
            batched.put(key, i64(value), ts)
            plain.put(key, i64(value), ts)
        elif op == "remove":
            assert batched.remove(key) == plain.remove(key)
        else:
            # Index access mid-batch flushes; both sides must agree there too.
            assert batched.index((0,)) == plain.index((0,))
    batched.end_batch()
    assert dict(batched.data.items()) == dict(plain.data.items())
    assert batched.index((0,)) == plain.index((0,))
    assert batched.index((1,)) == plain.index((1,))
    assert sorted(batched.new_keys(0)) == sorted(plain.new_keys(0))


# -- __slots__ hot objects ----------------------------------------------------


def test_value_and_row_are_slim_and_well_behaved():
    value = Value(I64, 41)
    assert value.sort == I64 and value.data == 41
    assert value == i64(41) and hash(value) == hash(i64(41))
    assert value != i64(40) and value != Value("f64", 41)
    assert repr(value) == "i64#41"
    assert not hasattr(value, "__dict__")

    row = Row(value, 3)
    assert row.value is value and row.timestamp == 3
    assert row == Row(i64(41), 3) and row != Row(i64(41), 4)
    assert "Row(" in repr(row)
    assert not hasattr(row, "__dict__")
    with pytest.raises(AttributeError):
        row.extra = 1  # __slots__: no stray attributes on hot objects

    import pickle

    assert pickle.loads(pickle.dumps(value)) == value
