"""Compiled query plans: slots, column roles, and the generic-join executor.

The interpreted strategies in :mod:`repro.core.query` and
:mod:`repro.core.genericjoin` pay per-match interpretation costs the paper's
engine never does (journals_pacmpl_ZhangWFCZRTW23 §4–5): every row binding
goes through a ``Dict[str, Value]`` substitution, every column is
re-inspected with ``isinstance(col, QVar)``, and every primitive atom
re-discovers its evaluation order.  A compiled rule runs its query millions
of times against the same *structure* — only the data changes — so all of
that is resolved here once per (rule, strategy):

* **Slots.**  Query variables become integer slots
  (:func:`assign_slots`); a match is a plain ``tuple`` of values in slot
  order instead of a dict.  Scheduler-side deduplication of semi-naïve
  delta matches hashes those canonical tuples directly.
* **Column roles.**  Each atom's columns are classified at plan time into
  constants, first-occurrence bindings, and repeated-variable checks
  (:class:`IndexedStep`), so per-row code does zero ``isinstance`` work.
* **Primitive programs.**  Primitive atoms are scheduled once into a
  straight-line program (:func:`schedule_prims`) whose steps fetch
  arguments from slots; the interpreted retry loop of ``apply_prims`` is
  gone from the hot path.
* **Constants as parameters.**  :func:`split_constants` turns a query into
  its shape, constants replaced by :class:`QConst` placeholders, so
  queries that differ only in their constants can share a plan.

The default ``indexed`` strategy renders these plans as generated Python
source, one function per (delta atom, join order)
(:class:`repro.engine.codegen.IndexedSearch`).  The generic-join executor
below, :class:`CompiledGenericQuery`, stays a plan interpreter: a
worst-case optimal join over tries built per search, whose per-depth sets
of involved atoms are fully static, so the descent does no per-node atom
scanning.  Both enumerate matches in exactly the order of their
interpreted counterparts for the same database state, so compiled and
interpreted runs produce identical results (same e-class allocation
order, same extraction tie-breaks).

Cache invalidation is the engine's job: compiled executors are cached per
(rule, strategy) and keyed by the engine's compile epoch, which push/pop
and rule replacement bump (see ``EGraph.rule_exec``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .database import Table
from .genericjoin import structural_var_order
from .query import PrimAtom, Query, QVar, TableAtom
from .values import BOOL, UNIT, Value

MatchTuple = Tuple[Value, ...]

#: Shared immutable "exhausted sub-trie" node (never mutated: the descent
#: only calls ``len``/``get``/iteration on nodes).
_EMPTY: Dict = {}

#: Sub-trie for a fully-constant atom that matched: non-empty but never
#: descended (the atom binds no variables).
NONEMPTY = {"__nonempty__": True}


def _recorder(
    out: List[MatchTuple], seen: Optional[Set[MatchTuple]]
) -> Callable[[MatchTuple], None]:
    """``out.append``, or with ``seen`` an append of unseen matches only."""
    if seen is None:
        return out.append
    seen_add = seen.add
    out_append = out.append

    def record(match: MatchTuple) -> None:
        if match not in seen:
            seen_add(match)
            out_append(match)

    return record


@dataclass(frozen=True)
class QConst:
    """Placeholder for the ``index``-th constant of a parametrized query."""

    index: int

    def __repr__(self) -> str:
        return f"@{self.index}"


#: Shared placeholders for the common indices (cached plans hold many).
_HOLES = tuple(QConst(index) for index in range(64))


def split_constants(query: Query) -> Tuple[Query, Tuple[Value, ...]]:
    """Replace every constant of ``query`` by a :class:`QConst` placeholder.

    Returns the query's *shape* and its constants in placeholder order
    (table atoms' columns, then primitive arguments and outputs).  Queries
    that differ only in their constants share one shape, so one compiled
    plan serves them all, fed the constants per search.
    """
    consts: List[Value] = []

    def hole(arg: object) -> object:
        if isinstance(arg, QVar) or arg is None:
            return arg
        index = len(consts)
        consts.append(arg)  # type: ignore[arg-type]
        return _HOLES[index] if index < len(_HOLES) else QConst(index)

    atoms = [
        TableAtom(atom.func, tuple(map(hole, atom.args)), hole(atom.out))  # type: ignore[arg-type]
        for atom in query.atoms
    ]
    prims = [
        PrimAtom(prim.op, tuple(map(hole, prim.args)), hole(prim.out))  # type: ignore[arg-type]
        for prim in query.prims
    ]
    return Query(atoms=atoms, prims=prims), tuple(consts)


def assign_slots(query: Query) -> Tuple[Dict[str, int], Tuple[str, ...]]:
    """Map every query variable to an integer slot (first-occurrence order).

    Table-atom variables come first (in column order of appearance), then
    variables that only primitive atoms mention.  The mapping is shared by
    the query executors and the rule's compiled action program, so a match
    tuple unpacks directly into the program's slot locals.
    """
    slot_of: Dict[str, int] = {}
    names: List[str] = []
    for atom in query.atoms:
        for col in atom.columns():
            if isinstance(col, QVar) and col.name not in slot_of:
                slot_of[col.name] = len(names)
                names.append(col.name)
    for prim in query.prims:
        for col in prim.args + (prim.out,):
            if isinstance(col, QVar) and col.name not in slot_of:
                slot_of[col.name] = len(names)
                names.append(col.name)
    return slot_of, tuple(names)


# ---------------------------------------------------------------------------
# Primitive programs
# ---------------------------------------------------------------------------

OUT_GUARD = 0
OUT_BIND = 1
OUT_CHECK_SLOT = 2
OUT_CHECK_CONST = 3

#: One scheduled primitive step: (op name, arg fetch specs, out kind, payload).
#: An arg spec is ``(True, slot)`` or ``(False, constant Value)``.
PrimStep = Tuple[str, Tuple[Tuple[bool, object], ...], int, object]


def schedule_prims(
    prims: Sequence, slot_of: Dict[str, int], bound_slots: Set[int]
) -> Optional[Tuple[PrimStep, ...]]:
    """Schedule primitive atoms into a straight-line slot program.

    Replicates ``apply_prims``'s fixpoint: repeatedly schedule every
    primitive whose inputs are bound; an output may bind a fresh slot.
    Returns ``None`` when some primitive's inputs can never be bound — the
    interpreted engine fails every match of such an unsafe query, so
    callers must treat ``None`` as "no matches".
    """
    steps: List[PrimStep] = []
    bound = set(bound_slots)
    pending = list(prims)
    progress = True
    while pending and progress:
        progress = False
        still_pending = []
        for prim in pending:
            arg_specs: List[Tuple[bool, object]] = []
            ready = True
            for arg in prim.args:
                if isinstance(arg, QVar):
                    slot = slot_of[arg.name]
                    if slot not in bound:
                        ready = False
                        break
                    arg_specs.append((True, slot))
                else:
                    arg_specs.append((False, arg))
            if not ready:
                still_pending.append(prim)
                continue
            out = prim.out
            if out is None:
                out_kind, payload = OUT_GUARD, None
            elif isinstance(out, QVar):
                slot = slot_of[out.name]
                if slot in bound:
                    out_kind, payload = OUT_CHECK_SLOT, slot
                else:
                    out_kind, payload = OUT_BIND, slot
                    bound.add(slot)
            else:
                out_kind, payload = OUT_CHECK_CONST, out
            steps.append((prim.op, tuple(arg_specs), out_kind, payload))
            progress = True
        pending = still_pending
    if pending:
        return None  # unsafe query: inputs never bound, every match fails
    return tuple(steps)


#: A primitive runner: ``(regs, registry.call) -> bool``.
PrimRunner = Callable[[List[Optional[Value]], Callable[..., Optional[Value]]], bool]


def compile_prims(
    prims: Sequence, slot_of: Dict[str, int], bound_slots: Set[int]
) -> Optional[PrimRunner]:
    """:func:`schedule_prims` as a runner over a register list, given the
    registry's ``call`` (True iff every guard passed); ``None`` for an
    unsafe query."""
    steps = schedule_prims(prims, slot_of, bound_slots)
    if steps is None:
        return None
    if not steps:
        return lambda regs, call: True

    frozen = steps

    def run(regs: List[Optional[Value]], call: Callable[..., Optional[Value]]) -> bool:
        for op, arg_specs, out_kind, payload in frozen:
            args = tuple(
                regs[spec] if is_slot else spec for is_slot, spec in arg_specs
            )
            result = call(op, args)
            if result is None:
                return False
            if out_kind == OUT_GUARD:
                sort = result[0]  # Value is a (sort, data) tuple; C indexing
                if sort == BOOL and not result[1]:
                    return False
                if sort not in (BOOL, UNIT):
                    return False
            elif out_kind == OUT_BIND:
                regs[payload] = result
            elif out_kind == OUT_CHECK_SLOT:
                if regs[payload] != result:
                    return False
            else:
                if payload != result:
                    return False
        return True

    return run


def table_bound_slots(query: Query, slot_of: Dict[str, int]) -> Set[int]:
    """Slots bound by table atoms (order-independent: every atom binds all
    its variables regardless of join order)."""
    bound: Set[int] = set()
    for atom in query.atoms:
        for col in atom.columns():
            if isinstance(col, QVar):
                bound.add(slot_of[col.name])
    return bound


# ---------------------------------------------------------------------------
# Indexed (index-nested-loop) column roles
# ---------------------------------------------------------------------------


class IndexedStep:
    """One atom of an indexed plan, with column roles resolved.

    ``proj_cols``/``proj_get`` describe the hash-index lookup (constants and
    already-bound variables); ``key_binds``/``out_bind`` write
    first-occurrence variables into slots; ``key_dups``/``out_dup`` check
    repeated variables; ``key_consts``/``out_const`` check constants per
    row (used by the delta step, which scans the write log instead of an
    index).  ``bound`` is updated with the slots this atom binds.
    """

    __slots__ = (
        "func",
        "arity",
        "is_delta",
        "proj_cols",
        "proj_get",
        "key_consts",
        "out_const",
        "key_binds",
        "out_bind",
        "key_dups",
        "out_dup",
    )

    def __init__(
        self,
        atom: TableAtom,
        arity: int,
        bound: Set[int],
        slot_of: Dict[str, int],
        is_delta: bool,
    ) -> None:
        self.func = atom.func
        self.arity = arity
        self.is_delta = is_delta
        proj_cols: List[int] = []
        proj_get: List[Tuple[bool, object]] = []
        key_consts: List[Tuple[int, object]] = []
        self.out_const: Optional[object] = None
        key_binds: List[Tuple[int, int]] = []
        self.out_bind: Optional[int] = None
        key_dups: List[Tuple[int, int]] = []
        self.out_dup: Optional[int] = None
        seen_here: Set[int] = set()
        for col_index, col in enumerate(atom.columns()):
            is_out = col_index == arity
            if isinstance(col, QVar):
                slot = slot_of[col.name]
                if slot in bound:
                    # Bound by an earlier atom: part of the index lookup.
                    proj_cols.append(col_index)
                    proj_get.append((True, slot))
                elif slot in seen_here:
                    # Repeated within this atom: per-row equality check
                    # against the first occurrence's freshly-bound slot.
                    if is_out:
                        self.out_dup = slot
                    else:
                        key_dups.append((col_index, slot))
                else:
                    seen_here.add(slot)
                    if is_out:
                        self.out_bind = slot
                    else:
                        key_binds.append((col_index, slot))
            elif is_delta:
                # The delta step scans the write log, so constants are
                # checked per row rather than descended through an index.
                if is_out:
                    self.out_const = col
                else:
                    key_consts.append((col_index, col))
            else:
                proj_cols.append(col_index)
                proj_get.append((False, col))
        bound.update(seen_here)
        self.proj_cols = tuple(proj_cols)
        self.proj_get = tuple(proj_get)
        self.key_consts = tuple(key_consts)
        self.key_binds = tuple(key_binds)
        self.key_dups = tuple(key_dups)


# ---------------------------------------------------------------------------
# Generic-join executor
# ---------------------------------------------------------------------------

_ROLE_BIND = 0
_ROLE_DUP = 1
_ROLE_CONST = 2


class _GenericAtom:
    """Static per-atom data for the generic-join executor.

    ``roles`` drive the per-search trie build with zero per-row isinstance
    work: each entry is ``(role, payload)`` per column — bind into a local
    projection slot, compare against an earlier local slot, or compare
    against a constant.  ``permutation`` reorders the projected row into
    the global variable-rank order for the trie build.
    """

    __slots__ = ("func", "sorted_vars", "roles", "permutation", "width")

    def __init__(self, atom: TableAtom, var_rank: Dict[str, int]) -> None:
        self.func = atom.func
        local_of: Dict[str, int] = {}
        names: List[str] = []
        roles: List[Tuple[int, object]] = []
        for col in atom.columns():
            if isinstance(col, QVar):
                local = local_of.get(col.name)
                if local is None:
                    local_of[col.name] = len(names)
                    roles.append((_ROLE_BIND, len(names)))
                    names.append(col.name)
                else:
                    roles.append((_ROLE_DUP, local))
            else:
                roles.append((_ROLE_CONST, col))
        sorted_names = tuple(sorted(names, key=lambda v: var_rank[v]))
        self.sorted_vars = sorted_names
        self.roles = tuple(roles)
        self.permutation = tuple(names.index(v) for v in sorted_names)
        self.width = len(names)


class CompiledGenericQuery:
    """Positional worst-case-optimal generic-join executor for one query.

    The global variable order, the per-depth involved-atom lists, and every
    atom's column roles are resolved once at construction; an execution
    builds one trie per atom, then descends them and intersects children.
    """

    def __init__(self, query: Query, slot_of: Dict[str, int], n_slots: int) -> None:
        self.query = query
        self.slot_of = slot_of
        self.n_slots = n_slots
        self.prim_runner = compile_prims(
            query.prims, slot_of, table_bound_slots(query, slot_of)
        )
        self.no_prims = not query.prims
        self.var_order = tuple(structural_var_order(query.atoms))
        var_rank = {name: rank for rank, name in enumerate(self.var_order)}
        self.depth_slots = tuple(slot_of[name] for name in self.var_order)
        self.atoms = tuple(_GenericAtom(atom, var_rank) for atom in query.atoms)
        # Ascending atom order per depth, matching the interpreted
        # executor's `range(n_atoms)` relevance scan (min() tie-breaks on
        # the first atom in that order).
        self.involved = tuple(
            tuple(
                index
                for index, ga in enumerate(self.atoms)
                if depth_var in ga.sorted_vars
            )
            for depth_var in self.var_order
        )

    # -- per-search trie build -----------------------------------------------

    def _atom_node(
        self,
        ga: _GenericAtom,
        table: Table,
        restrict: bool,
        since: int,
    ) -> Optional[Dict]:
        """The trie this atom contributes, or None when it is empty.

        Rows are projected through the precomputed column roles and
        inserted directly in variable-rank order.
        """
        roles = ga.roles
        width = ga.width
        permutation = ga.permutation
        root: Dict = {}
        matched = False
        if restrict:
            data = table.data
            row_iter = (
                (key, data[key]) for key in table.new_keys(since)
            )
        else:
            row_iter = iter(table.data.items())
        local: List[Optional[Value]] = [None] * (width or 1)
        for key, row in row_iter:
            full = key + (row.value,)
            ok = True
            for position, (role, payload) in enumerate(roles):
                value = full[position]
                if role == _ROLE_BIND:
                    local[payload] = value
                elif role == _ROLE_DUP:
                    if value != local[payload]:
                        ok = False
                        break
                else:
                    if value != payload:
                        ok = False
                        break
            if not ok:
                continue
            matched = True
            if not width:
                continue
            node = root
            for level in permutation[:-1]:
                node = node.setdefault(local[level], {})
            node[local[permutation[-1]]] = True
        if not width:
            return NONEMPTY if matched else None
        return root if root else None

    # -- execution -----------------------------------------------------------

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
        """Append every match to ``out``; with ``seen``, only matches not
        already in it (the semi-naïve cross-atom dedup), recording them.

        ``call`` applies primitives (the engine registry's ``call``).
        Generic plans are built per concrete query, so ``consts`` — the
        query's constants, for plans parametrized over them — is unused.
        """
        runner = self.prim_runner
        if runner is None:
            return  # unsafe primitive schedule: every match fails
        record = _recorder(out, seen)
        if self.no_prims:

            def leaf(regs: List[Optional[Value]]) -> None:
                record(tuple(regs))  # type: ignore[arg-type]

        else:

            def leaf(regs: List[Optional[Value]]) -> None:
                if runner(regs, call):  # type: ignore[misc]
                    record(tuple(regs))  # type: ignore[arg-type]

        self._search(tables, delta_atom, since, leaf)

    def _search(
        self,
        tables: Dict[str, Table],
        delta_atom: Optional[int],
        since: int,
        leaf: Callable[[List[Optional[Value]]], None],
    ) -> None:
        """Run the query, calling ``leaf`` with the registers of every
        candidate (primitives unchecked) in enumeration order."""
        atoms = self.query.atoms
        if not atoms:
            leaf([None] * self.n_slots)
            return
        for atom in atoms:
            if atom.func not in tables:
                return

        n_atoms = len(self.atoms)
        # The delta atom goes first: if nothing is new since the watermark,
        # the search exits before any other atom pays for trie work.
        atom_order = list(range(n_atoms))
        if delta_atom is not None:
            atom_order.remove(delta_atom)
            atom_order.insert(0, delta_atom)
        nodes: List[Dict] = [_EMPTY] * n_atoms
        for index in atom_order:
            ga = self.atoms[index]
            restrict = delta_atom is not None and index == delta_atom
            node = self._atom_node(ga, tables[ga.func], restrict, since)
            if node is None:
                return
            nodes[index] = node

        regs: List[Optional[Value]] = [None] * self.n_slots
        self._descend(0, nodes, regs, leaf)

    def _descend(
        self,
        depth: int,
        nodes: List[Dict],
        regs: List[Optional[Value]],
        leaf: Callable[[List[Optional[Value]]], None],
    ) -> None:
        if depth == len(self.depth_slots):
            leaf(regs)
            return
        involved = self.involved[depth]
        if not involved:
            self._descend(depth + 1, nodes, regs, leaf)
            return
        slot = self.depth_slots[depth]
        next_depth = depth + 1
        smallest = involved[0]
        best = len(nodes[smallest])
        for index in involved[1:]:
            size = len(nodes[index])
            if size < best:
                smallest, best = index, size
        saved = [nodes[index] for index in involved]
        at_leaf = next_depth == len(self.depth_slots)
        for value in nodes[smallest]:
            ok = True
            for position, index in enumerate(involved):
                child = saved[position].get(value)
                if child is None:
                    ok = False
                    break
                nodes[index] = child if child.__class__ is dict else _EMPTY
            if not ok:
                continue
            regs[slot] = value
            if at_leaf:
                leaf(regs)
            else:
                self._descend(next_depth, nodes, regs, leaf)
        for position, index in enumerate(involved):
            nodes[index] = saved[position]
