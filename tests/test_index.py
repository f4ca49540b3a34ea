"""Incremental hash-index maintenance invariants (``Table.index``).

The load-bearing property: a hash index maintained incrementally through
arbitrary interleavings of insert / overwrite / delete / batched writes /
snapshot / restore, and through the engine's union / rebuild / push / pop,
must be *indistinguishable* from a grouping built fresh from the table's
rows.  A hypothesis property drives random op sequences through the Table
API; engine-level cases cover the real write paths.  Generic join keeps no
index of its own (it builds its tries per search), so the last cases pin
its variable order and its agreement with the indexed join.
"""

import pytest

from repro.core.database import Table
from repro.core.genericjoin import structural_var_order
from repro.core.query import Query, QVar, TableAtom
from repro.core.schema import FunctionDecl
from repro.core.terms import App, V
from repro.core.values import i64
from repro.engine import EGraph, Rule
from repro.engine.actions import Expr


def key(*nums):
    return tuple(i64(n) for n in nums)


def fresh_grouping(table, columns):
    """Reference semantics: the projection grouping built from live rows."""
    expected = {}
    for k, row in table.data.items():
        expected.setdefault(table._project(columns, k, row.value), set()).add(k)
    return expected


def assert_index_exact(index, table, columns):
    assert {proj: set(keys) for proj, keys in index.items()} == fresh_grouping(
        table, columns
    )


def assert_all_indexes_match(egraph):
    """Every index the engine has built is exact; at least one exists."""
    built = 0
    for table in egraph.tables.values():
        for columns in list(table._indexes):
            assert_index_exact(table.index(columns), table, columns)
            built += 1
    assert built, "the engine built no hash index; the check would be vacuous"


# ---------------------------------------------------------------------------
# Generic join: structural variable order
# ---------------------------------------------------------------------------


def test_structural_var_order_is_deterministic():
    x, y, z = QVar("x"), QVar("y"), QVar("z")
    query = Query(
        atoms=[
            TableAtom("path", (x, y), QVar("o1")),
            TableAtom("edge", (y, z), QVar("o2")),
        ]
    )
    # y occurs twice -> first; ties broken by first occurrence.
    assert structural_var_order(query.atoms) == ["y", "x", "o1", "z", "o2"]


# ---------------------------------------------------------------------------
# Engine-level invariants: the real write paths
# ---------------------------------------------------------------------------


def tc_engine(strategy="indexed"):
    egraph = EGraph(strategy=strategy)
    egraph.relation("edge", ("i64", "i64"))
    egraph.relation("path", ("i64", "i64"))
    egraph.add_rules(
        Rule(
            facts=[App("edge", V("x"), V("y"))],
            actions=[Expr(App("path", V("x"), V("y")))],
            name="base",
        ),
        Rule(
            facts=[App("path", V("x"), V("y")), App("edge", V("y"), V("z"))],
            actions=[Expr(App("path", V("x"), V("z")))],
            name="step",
        ),
    )
    return egraph


def test_indexes_survive_run_union_rebuild_pushpop_interleaving():
    egraph = tc_engine()
    for a, b in [(1, 2), (2, 3), (3, 4)]:
        egraph.add(App("edge", a, b))
    egraph.run(10)
    assert_all_indexes_match(egraph)

    egraph.push()
    egraph.add(App("edge", 4, 5))
    egraph.run(10)
    assert_all_indexes_match(egraph)
    egraph.pop()
    # Restore drops the indexes; the next run rebuilds them from the
    # pre-push rows and maintains them from there.
    assert len(egraph.tables["edge"]) == 3
    egraph.add(App("edge", 4, 6))
    egraph.run(10)
    assert_all_indexes_match(egraph)
    assert (i64(1), i64(6)) in egraph.tables["path"]


def test_indexes_follow_canonicalization_during_rebuild():
    egraph = EGraph(strategy="indexed")
    egraph.declare_sort("V")
    egraph.constructor("Leaf", ("i64",), "V")
    egraph.constructor("F", ("V",), "V")
    egraph.add_rule(
        Rule(facts=[App("F", V("x"))], actions=[Expr(App("F", App("F", V("x"))))], name="noop")
    )
    a = egraph.add(App("F", App("Leaf", 1)))
    b = egraph.add(App("F", App("Leaf", 2)))
    egraph.run(1)
    # Union the leaves: rebuild rewrites F-rows to canonical ids through
    # its hash-index probes; the indexes must track every remove/re-insert.
    egraph.union(App("Leaf", 1), App("Leaf", 2))
    egraph.rebuild()
    assert egraph.canonicalize(a) == egraph.canonicalize(b)
    assert_all_indexes_match(egraph)
    egraph.run(2)
    assert_all_indexes_match(egraph)


def test_generic_and_indexed_agree_after_runs():
    results = {}
    for strategy in ("generic", "indexed"):
        egraph = tc_engine(strategy)
        for a, b in [(1, 2), (2, 3), (3, 1), (3, 4)]:
            egraph.add(App("edge", a, b))
        egraph.run(12)
        results[strategy] = sorted(
            (k[0].data, k[1].data) for k, _v in egraph.table_rows("path")
        )
    assert results["generic"] == results["indexed"]
    assert len(results["indexed"]) == 12  # 1, 2, 3 reach all of 1..4


# ---------------------------------------------------------------------------
# Hypothesis: random op sequences through the Table API
# ---------------------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

#: An argument-only projection (overwrites skip it), an argument+output
#: projection, and an output-only one.
COLUMN_SETS = [(0,), (1, 2), (2,)]


@st.composite
def op_sequences(draw):
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["put", "remove", "snapshot", "restore", "begin", "end", "check"]
                ),
                # Few distinct keys, so writes often hit a live row.
                st.integers(0, 2),  # first arg
                st.integers(0, 1),  # second arg
                st.integers(0, 4),  # value / timestamp salt
            ),
            min_size=1,
            max_size=30,
        )
    )
    return ops


@settings(max_examples=200, deadline=None)
@given(ops=op_sequences())
def test_random_op_interleavings_keep_indexes_exact(ops):
    table = Table(FunctionDecl("f", ("i64", "i64"), "i64"))
    # Start from live rows, so removes and overwrites hit indexed keys.
    for a in range(3):
        for b in range(2):
            table.put(key(a, b), i64(a), 0)
    for columns in COLUMN_SETS:
        table.index(columns)
    saved = None
    timestamp = 0
    depth = 0
    for op, a, b, salt in ops:
        if op == "put":
            timestamp += salt % 2  # non-decreasing, sometimes repeating
            table.put(key(a, b), i64(salt), timestamp)
        elif op == "remove":
            table.remove(key(a, b))
        elif op == "snapshot":
            saved = table.snapshot()
        elif op == "restore" and saved is not None:
            table.restore(saved)
            # Restore drops the indexes; request them again so the rest
            # of the sequence exercises their maintenance.
            for columns in COLUMN_SETS:
                table.index(columns)
        elif op == "begin":
            table.begin_batch()
            depth += 1
        elif op == "end" and depth:
            table.end_batch()
            depth -= 1
        elif op == "check":
            # An index read inside a batch flushes pending maintenance first.
            for columns in COLUMN_SETS:
                assert_index_exact(table.index(columns), table, columns)
    for _ in range(depth):
        table.end_batch()
    # Closing the outermost batch must have flushed everything: read the
    # maintained indexes directly, without the flush ``index`` performs.
    assert not table._pending
    for columns in COLUMN_SETS:
        assert_index_exact(table._indexes[columns], table, columns)
