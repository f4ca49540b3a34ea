"""Generated straight-line Python for rule plans: search and actions.

A compiled rule runs the same query and the same actions once per match,
hundreds of thousands of times per run.  Interpreting a plan per row — a
recursive walker re-reading step records, an action tree of nested
closures — costs several Python frames and allocations per match that the
plan itself never needed.  This module renders each plan as the source of
one Python function instead (Soufflé's approach to Datalog rules: one
specialized loop nest per rule), compiles it once per process, and binds
it per executor:

* :class:`IndexedSearch` — the default ``indexed`` strategy's search, per
  query shape (constants are arguments).  One function per ``(delta
  atom, join order)``: nested ``for`` loops over
  write-log deltas, hash-index entries or full scans, with constant, bind
  and repeated-variable checks inline, the primitive program inlined at
  the leaf, and each match appended to ``out`` (deduplicated through
  ``seen`` when the search is a semi-naïve delta).  Tables, indexes and
  their ``get`` are hoisted once per call — the database is frozen while a
  search runs.
* :func:`render_actions` — a rule's action list as one function that fires
  a whole batch of matches.  Terms are evaluated with the engine's
  get-or-default semantics (§3.2) inline; ``canonicalize`` is called only
  for slots whose declared sort is an eq-sort (or unknown).

**Only generator-chosen text reaches the source.**  The rendered source
holds nothing but identifiers picked here (``s3``, ``k0``, ``c2``, ...)
and integer indices.  Every function name, constant ``Value``, message and
callable reaches the code through the namespace it is bound to (a
search's constants through its ``consts`` argument), so text from
``.egg`` programs or HTTP requests is never spliced into code — and
structurally equal plans render identical source, which is what lets the
process-level cache (:meth:`~repro.engine.compilecache.CompileCacheRegistry
.code`) compile each distinct source exactly once.

Both renderings reproduce the executors they replaced operation for
operation: matches are enumerated in the same order, ids are allocated,
nodes logged and updates noted in the same order, and ``canonicalize`` is
called on the same eq-sorted values (its path compression is visible in a
snapshot's union-find bytes).
"""

from __future__ import annotations

import builtins
from types import CodeType, FunctionType
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, cast

from ..core.compile import (
    OUT_BIND,
    OUT_CHECK_SLOT,
    OUT_GUARD,
    IndexedStep,
    MatchTuple,
    PrimStep,
    QConst,
    schedule_prims,
    table_bound_slots,
)
from ..core.database import Table
from ..core.proofs import Justification
from ..core.query import Query, QVar, plan_order
from ..core.schema import FunctionDecl
from ..core.terms import Term, TermApp, TermLit, TermVar
from ..core.values import BOOL, UNIT, UNIT_VALUE, Value
from .actions import Action, Delete, Expr, Let, Panic, Set as SetAction, Union
from .actions import set_function_value
from .errors import EGraphError, EGraphPanic

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .egraph import EGraph

#: Compiles one generated source into the code object of its function.
CodeFor = Callable[[str], CodeType]


def compile_source(source: str) -> CodeType:
    """Compile ``source`` (one ``def``) and return that function's code."""
    module = compile(source, "<repro-generated>", "exec")
    for const in module.co_consts:
        if isinstance(const, CodeType):
            return const
    raise EGraphError("generated source defines no function")


def bind(code: CodeType, namespace: Dict[str, Any]) -> Callable[..., Any]:
    """Instantiate cached ``code`` over ``namespace`` (its globals)."""
    return FunctionType(code, namespace)


def _tuple(items: Sequence[str]) -> str:
    if len(items) == 1:
        return f"({items[0]},)"
    return "(" + ", ".join(items) + ")"


def _ints(values: Sequence[int]) -> str:
    return _tuple([str(int(value)) for value in values])


class _Writer:
    """Source lines plus the namespace their free names resolve in."""

    def __init__(self, depth: int) -> None:
        self.lines: List[str] = []
        self.namespace: Dict[str, Any] = {"__builtins__": builtins}
        self.depth = depth
        self._consts = 0
        self._temps = 0

    def const(self, value: object) -> str:
        """A fresh namespace name bound to ``value``."""
        name = f"c{self._consts}"
        self._consts += 1
        self.namespace[name] = value
        return name

    def temp(self) -> str:
        name = f"v{self._temps}"
        self._temps += 1
        return name

    def line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def source(self, signature: str, prologue: Sequence[str]) -> str:
        body = ["    " + text for text in prologue] + self.lines
        return f"def {signature}:\n" + "\n".join(body) + "\n"


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


def _param(const: object) -> str:
    """The local holding a parametrized query's constant (see
    :func:`~repro.core.compile.split_constants`)."""
    return f"q{cast(QConst, const).index}"


#: Nested ``for`` loops per generated function.  CPython refuses more than
#: 20 statically nested blocks, so a longer join order continues in a
#: helper function defined inside ``search``.
_LOOPS_PER_FUNCTION = 16


def render_search(
    steps: Sequence[IndexedStep],
    prims: Tuple[PrimStep, ...],
    n_slots: int,
    n_consts: int,
    dedup: bool,
) -> Tuple[str, Dict[str, Any]]:
    """Render one join order as ``search(tables, since, out, seen, consts,
    call)`` over a parametrized query: constant ``i`` arrives as
    ``consts[i]``, primitives are applied through ``call``.

    Every ``_LOOPS_PER_FUNCTION`` steps the loop nest continues in a helper
    ``deep<p>`` that takes the slots bound so far; the helpers are defined
    at the top of ``search`` and share its locals as closure variables.
    """
    w = _Writer(depth=1)
    main = w.lines
    helpers: List[str] = []
    bound: List[str] = []
    w.namespace.update(BOOL=BOOL, UNIT=UNIT)
    prologue = ["append = out.append"]
    if dedup:
        prologue.append("seen_add = seen.add")
    if n_consts == 1:
        prologue.append("q0 = consts[0]")
    elif n_consts:
        prologue.append(", ".join(f"q{i}" for i in range(n_consts)) + " = consts")
    for p, step in enumerate(steps):
        if p and p % _LOOPS_PER_FUNCTION == 0:
            params = ", ".join(bound)
            w.line(f"deep{p}({params})")
            helpers.append(f"    def deep{p}({params}):")
            chunk = range(p, min(p + _LOOPS_PER_FUNCTION, len(steps)))
            lazy = [f"i{q}" for q in chunk if steps[q].proj_cols and not steps[q].is_delta]
            if lazy:
                helpers.append("        nonlocal " + ", ".join(lazy))
            w.lines = helpers
            w.depth = 2
        prologue.append(f"t{p} = tables[{w.const(step.func)}]")
        # The row is fetched only when the output column matters.
        needs_row = (
            step.out_bind is not None
            or step.out_dup is not None
            or step.out_const is not None
        )
        scan = not step.is_delta and not step.proj_cols
        if needs_row or scan:
            prologue.append(f"d{p} = t{p}.data")
        fail = "continue" if p % _LOOPS_PER_FUNCTION else "return"
        if step.is_delta:
            w.line(f"for k{p} in t{p}.new_keys(since):")
        elif step.proj_cols:
            # Requested at first use, exactly when the plan interpreter
            # did: an index built earlier would order its entries
            # differently and change the enumeration order.
            get_index = f"t{p}.index({_ints(step.proj_cols)}).get"
            if p:
                prologue.append(f"i{p} = None")
                w.line(f"if i{p} is None:")
                w.line(f"    i{p} = {get_index}")
            else:
                prologue.append(f"i{p} = {get_index}")
            proj = [f"s{spec}" if is_slot else _param(spec) for is_slot, spec in step.proj_get]
            w.line(f"e{p} = i{p}({_tuple(proj)})")
            w.line(f"if not e{p}:")
            w.line(f"    {fail}")
            w.line(f"for k{p} in e{p}:")
        elif needs_row:
            w.line(f"for k{p}, r{p} in d{p}.items():")
        else:
            w.line(f"for k{p} in d{p}:")
        w.depth += 1
        # At most one of out_bind/out_dup/out_const is set: one read.
        value = f"r{p}.value" if scan else f"d{p}[k{p}].value"
        for col, const in step.key_consts:
            w.line(f"if k{p}[{int(col)}] != {_param(const)}:")
            w.line("    continue")
        if step.out_const is not None:
            w.line(f"if {value} != {_param(step.out_const)}:")
            w.line("    continue")
        bind_cols = [col for col, _slot in step.key_binds]
        if len(bind_cols) > 1 and bind_cols == list(range(step.arity)):
            names = ", ".join(f"s{int(slot)}" for _col, slot in step.key_binds)
            w.line(f"{names} = k{p}")
        else:
            for col, slot in step.key_binds:
                w.line(f"s{int(slot)} = k{p}[{int(col)}]")
        if step.out_bind is not None:
            w.line(f"s{int(step.out_bind)} = {value}")
        bound.extend(f"s{int(slot)}" for _col, slot in step.key_binds)
        if step.out_bind is not None:
            bound.append(f"s{int(step.out_bind)}")
        for col, slot in step.key_dups:
            w.line(f"if k{p}[{int(col)}] != s{int(slot)}:")
            w.line("    continue")
        if step.out_dup is not None:
            w.line(f"if {value} != s{int(step.out_dup)}:")
            w.line("    continue")
    fail = "continue" if steps else "return"
    for op, arg_specs, out_kind, payload in prims:
        args = [f"s{spec}" if is_slot else _param(spec) for is_slot, spec in arg_specs]
        w.line(f"p = call({w.const(op)}, {_tuple(args)})")
        w.line("if p is None:")
        w.line(f"    {fail}")
        if out_kind == OUT_GUARD:
            w.line("if p[0] == BOOL:")
            w.line("    if not p[1]:")
            w.line(f"        {fail}")
            w.line("elif p[0] != UNIT:")
            w.line(f"    {fail}")
        elif out_kind == OUT_BIND:
            w.line(f"s{cast(int, payload)} = p")
        elif out_kind == OUT_CHECK_SLOT:
            w.line(f"if p != s{cast(int, payload)}:")
            w.line(f"    {fail}")
        else:
            w.line(f"if p != {_param(payload)}:")
            w.line(f"    {fail}")
    match = _tuple([f"s{slot}" for slot in range(n_slots)])
    if dedup:
        w.line(f"m = {match}")
        w.line("if m not in seen:")
        w.line("    seen_add(m)")
        w.line("    append(m)")
    else:
        w.line(f"append({match})")
    w.lines = helpers + main
    return w.source("search(tables, since, out, seen, consts, call)", prologue), w.namespace


class IndexedSearch:
    """The ``indexed`` strategy's search for one query shape, as generated
    code.

    ``query`` is parametrized (:func:`~repro.core.compile.split_constants`):
    its constants are placeholders, so one plan serves every query of the
    same shape.  The greedy atom order still adapts to live table sizes via
    :func:`~repro.core.query.plan_order`, exactly like the interpreted
    ``search_indexed``; each ``(delta_atom, order)`` seen is rendered once
    (:func:`render_search`) and its bound function cached here.  The code
    object comes from ``code_for`` — the process-level cache.
    """

    def __init__(
        self,
        query: Query,
        slot_of: Dict[str, int],
        n_slots: int,
        n_consts: int,
        code_for: CodeFor,
    ) -> None:
        self.query = query
        self.slot_of = slot_of
        self.n_slots = n_slots
        self.n_consts = n_consts
        #: ``None`` for an unsafe primitive schedule: every match fails.
        self.prims = schedule_prims(
            query.prims, slot_of, table_bound_slots(query, slot_of)
        )
        self._code_for = code_for
        self._fns: Dict[Tuple[Optional[int], Tuple[int, ...]], Callable[..., None]] = {}

    def search_into(
        self,
        tables: Dict[str, Table],
        call: Callable[..., Optional[Value]],
        consts: Tuple[Value, ...],
        delta_atom: Optional[int],
        since: int,
        out: List[MatchTuple],
        seen: Optional[Set[MatchTuple]] = None,
    ) -> None:
        """Append every match to ``out``, in plan order.

        ``consts`` are the concrete query's constants in placeholder order
        and ``call`` applies primitives (the engine registry's ``call``).
        A delta search (``delta_atom`` given) restricts that atom to rows
        stamped at or after ``since`` and skips matches already in ``seen``
        (recording the new ones), the semi-naïve cross-atom dedup.
        """
        prims = self.prims
        if prims is None:
            return
        atoms = self.query.atoms
        for atom in atoms:
            if atom.func not in tables:
                return
        order = tuple(plan_order(atoms, tables, delta_atom))
        key = (delta_atom, order)
        fn = self._fns.get(key)
        if fn is None:
            fn = self._fns[key] = self._build(delta_atom, order, prims, tables)
        if seen is None and delta_atom is not None:
            seen = set()
        fn(tables, since, out, seen, consts, call)

    def _build(
        self,
        delta_atom: Optional[int],
        order: Tuple[int, ...],
        prims: Tuple[PrimStep, ...],
        tables: Dict[str, Table],
    ) -> Callable[..., None]:
        atoms = self.query.atoms
        bound: Set[int] = set()
        steps = [
            IndexedStep(
                atoms[index],
                tables[atoms[index].func].decl.arity,
                bound,
                self.slot_of,
                delta_atom is not None and index == delta_atom,
            )
            for index in order
        ]
        source, namespace = render_search(
            steps, prims, self.n_slots, self.n_consts, delta_atom is not None
        )
        return bind(self._code_for(source), namespace)


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------


def _prim_failed(op: str, args: Tuple[Value, ...]) -> None:
    raise EGraphError(f"primitive {op!r} failed on {args!r}")


def plain_slots(egraph: "EGraph", query: Query, slot_of: Dict[str, int]) -> Set[int]:
    """Slots that only ever hold primitive-sorted values.

    A slot qualifies when every table column it appears in is declared with
    a non-eq sort; reading it needs no ``canonicalize``.  Slots bound only
    by primitive atoms, or in a column of an eq-sort or an unknown sort,
    are canonicalized on every read.
    """
    plain: Set[int] = set()
    other: Set[int] = set()
    for atom in query.atoms:
        decl = egraph.decls.get(atom.func)
        columns = atom.columns()
        if decl is None or len(atom.args) != decl.arity:
            sorts: Tuple[Optional[str], ...] = (None,) * len(columns)
        else:
            sorts = tuple(decl.arg_sorts) + (decl.out_sort,)
        for col, sort_name in zip(columns, sorts):
            if not isinstance(col, QVar):
                continue
            sort = egraph.sorts.get(sort_name) if sort_name is not None else None
            slot = slot_of[col.name]
            if sort is None or sort.is_eq_sort:
                other.add(slot)
            else:
                plain.add(slot)
    return plain - other


class _Value:
    """A rendered term: its expression and what is known about it.

    ``canonical`` mirrors the closures this code replaced: variable reads,
    constructor and unit-relation results, and non-eq literals need no
    ``canonicalize`` when used as an argument.  ``effect`` marks an
    expression that must still be evaluated when its value is discarded
    (a ``canonicalize`` call compresses union-find paths).
    """

    __slots__ = ("expr", "canonical", "plain", "effect")

    def __init__(
        self, expr: str, canonical: bool, plain: bool = False, effect: bool = False
    ) -> None:
        self.expr = expr
        self.canonical = canonical
        self.plain = plain
        self.effect = effect


class _ActionRenderer:
    def __init__(
        self,
        egraph: "EGraph",
        slot_of: Dict[str, int],
        n_slots: int,
        plain: Set[int],
        reason: Optional[Justification],
    ) -> None:
        self.eg = egraph
        self.env = dict(slot_of)
        self.n_slots = n_slots
        self.n_regs = n_slots
        self.plain = set(plain)
        self.w = _Writer(depth=2)
        self.w.namespace.update(
            eg=egraph,
            canon=egraph.canonicalize,
            call=egraph.registry.call,
            union=egraph.union_values,
            why=reason,
            set_value=set_function_value,
            default_value=egraph._default_value,
            record=egraph.record_node,
            Value=Value,
            UNIT_VALUE=UNIT_VALUE,
            EGraphError=EGraphError,
            EGraphPanic=EGraphPanic,
            prim_failed=_prim_failed,
        )
        #: Function name -> table number (``t{j}``/``d{j}`` in the source).
        self.tables: Dict[str, int] = {}
        self.uses: Set[str] = set()

    # -- helpers --------------------------------------------------------------

    def table(self, name: str) -> int:
        number = self.tables.get(name)
        if number is None:
            number = self.tables[name] = len(self.tables)
            self.w.namespace[f"t{number}"] = self.eg.tables[name]
        return number

    def note_update(self) -> None:
        self.w.line("eg._updates += 1")

    def fail(self, message: str) -> None:
        """Emit the fire-time error the interpreter raises at this point."""
        self.w.line(f"raise EGraphError({self.w.const(message)})")

    def arg(self, term: Term) -> str:
        """Render an argument position: always canonical."""
        value = self.term(term)
        return value.expr if value.canonical else f"canon({value.expr})"

    def key(self, args: Sequence[Term]) -> str:
        exprs = [self.arg(arg) for arg in args]
        name = self.w.temp()
        self.w.line(f"{name} = {_tuple(exprs)}")
        return name

    # -- terms ----------------------------------------------------------------

    def term(self, term: Term, discard: bool = False) -> _Value:
        """Emit the statements evaluating ``term``; return its value.

        With ``discard`` the result is unused (an ``Expr`` action), so the
        unit-relation and constructor hits skip building it.
        """
        w = self.w
        if isinstance(term, TermLit):
            canonical = term.value[0] not in self.eg._eq_sorts  # type: ignore[index]
            return _Value(w.const(term.value), canonical, plain=canonical)
        if isinstance(term, TermVar):
            reg = self.env.get(term.name)
            if reg is None:
                self.fail(f"unbound variable {term.name!r} in term evaluation")
                return _Value("None", True)
            if reg in self.plain:
                return _Value(f"s{reg}", True, plain=True)
            return _Value(f"canon(s{reg})", True, effect=True)
        if isinstance(term, TermApp):
            return self.app(term, discard)
        raise EGraphError(f"cannot evaluate {term!r}")

    def app(self, term: TermApp, discard: bool) -> _Value:
        w = self.w
        decl = self.eg.decls.get(term.func)
        if decl is None:
            exprs = [self.arg(arg) for arg in term.args]
            args, result = w.temp(), w.temp()
            op = w.const(term.func)
            w.line(f"{args} = {_tuple(exprs)}")
            w.line(f"{result} = call({op}, {args})")
            w.line(f"if {result} is None:")
            w.line(f"    prim_failed({op}, {args})")
            return _Value(result, False)
        key = self.key(term.args)
        j = self.table(decl.name)
        self.uses.add(f"d{j} = t{j}.data")
        self.uses.add(f"put{j} = t{j}.put")
        self.uses.add("ts = eg.timestamp")
        out_is_eq = self.eg.sorts[decl.out_sort].is_eq_sort
        if decl.default is None and decl.out_sort == UNIT:
            # Unit relation: the default is the unit value, which is its
            # own canonical form.
            if discard:
                w.line(f"if {key} not in d{j}:")
                w.depth += 1
                w.line(f"put{j}({key}, UNIT_VALUE, ts)")
                self.note_update()
                w.depth -= 1
                return _Value("None", True)
            row, result = w.temp(), w.temp()
            w.line(f"{row} = d{j}.get({key})")
            w.line(f"if {row} is None:")
            w.depth += 1
            w.line(f"put{j}({key}, UNIT_VALUE, ts)")
            self.note_update()
            w.line(f"{result} = UNIT_VALUE")
            w.depth -= 1
            w.line("else:")
            w.line(f"    {result} = {row}.value")
            return _Value(result, True)
        row, result = w.temp(), w.temp()
        func = w.const(decl.name)
        w.line(f"{row} = d{j}.get({key})")
        w.line(f"if {row} is None:")
        w.depth += 1
        if decl.default is None and out_is_eq:
            # Constructor: the default is a fresh e-class id (make-set).
            self.uses.add("plog = eg._proof_log")
            self.uses.add("make_set = eg.uf.make_set")
            w.line(f"{result} = Value({w.const(decl.out_sort)}, make_set())")
            w.line(f"put{j}({key}, {result}, ts)")
            w.line("if plog is not None:")
            w.line(f"    plog.setdefault(({func}, {key}), {result})")
            self.note_update()
            w.depth -= 1
            w.line("else:")
            w.line(f"    {result} = canon({row}.value)")
            return _Value(result, True)
        w.line(f"{result} = default_value({w.const(decl)}, {key})")
        w.line(f"put{j}({key}, canon({result}), ts)")
        w.line(f"record({func}, {key}, {result})")
        self.note_update()
        w.depth -= 1
        w.line("else:")
        w.line(f"    {result} = canon({row}.value)" if out_is_eq else f"    {result} = {row}.value")
        return _Value(result, False)

    # -- actions --------------------------------------------------------------

    def call_key(self, call: TermApp) -> Optional[Tuple[FunctionDecl, str]]:
        """A Set/Delete target's (decl, key temp); None after emitting the
        fire-time error for an unknown function or an arity mismatch."""
        decl = self.eg.decls.get(call.func)
        if decl is None:
            self.fail(f"action targets unknown function {call.func!r}")
            return None
        if len(call.args) != decl.arity:
            self.fail(f"{call.func} expects {decl.arity} arguments, got {len(call.args)}")
            return None
        return decl, self.key(call.args)

    def action(self, action: Action) -> None:
        w = self.w
        if isinstance(action, Let):
            reg = self.env.get(action.name)
            if reg is None:
                reg = self.n_regs
                self.n_regs += 1
            value = self.term(action.expr)
            w.line(f"s{reg} = {value.expr}")
            self.env[action.name] = reg
            if value.plain:
                self.plain.add(reg)
            else:
                self.plain.discard(reg)
        elif isinstance(action, Union):
            lhs = self.term(action.lhs).expr
            rhs = self.term(action.rhs).expr
            w.line(f"union({lhs}, {rhs}, why)")
        elif isinstance(action, SetAction):
            target = self.call_key(action.call)
            if target is not None:
                decl, key = target
                new = self.arg(action.value)
                w.line(f"set_value(eg, {w.const(decl)}, {key}, {new})")
        elif isinstance(action, Delete):
            target = self.call_key(action.call)
            if target is not None:
                decl, key = target
                j = self.table(decl.name)
                w.line(f"if t{j}.remove({key}) is not None:")
                w.depth += 1
                self.note_update()
                w.depth -= 1
        elif isinstance(action, Panic):
            w.line(f"raise EGraphPanic({w.const(action.message)})")
        elif isinstance(action, Expr):
            value = self.term(action.expr, discard=True)
            if value.effect:
                w.line(value.expr)
        else:
            self.fail(f"unknown action {action!r}")

    def render(self, actions: Sequence[Action]) -> Tuple[str, Dict[str, Any]]:
        n_slots = self.n_slots
        for action in actions:
            self.action(action)
        if not self.w.lines:
            self.w.line("pass")
        prologue = sorted(self.uses)
        prologue.append("for m in matches:")
        if n_slots == 1:
            prologue.append("    s0 = m[0]")
        elif n_slots:
            prologue.append("    " + ", ".join(f"s{slot}" for slot in range(n_slots)) + " = m")
        return self.w.source("fire(matches)", prologue), self.w.namespace


def render_actions(
    egraph: "EGraph",
    actions: Sequence[Action],
    slot_of: Dict[str, int],
    n_slots: int,
    plain: Set[int],
    reason: Optional[Justification],
) -> Tuple[str, Dict[str, Any]]:
    """Render ``actions`` as ``fire(matches)``, which runs them once per
    match tuple in order.  ``plain`` names the slots read without
    ``canonicalize`` (see :func:`plain_slots`); ``reason`` justifies the
    unions the actions perform."""
    return _ActionRenderer(egraph, slot_of, n_slots, plain, reason).render(actions)
