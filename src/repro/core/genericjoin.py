"""Worst-case optimal generic join for egglog queries.

This is the join algorithm used by relational e-matching (Zhang et al. 2022)
and by the egglog query engine described in Section 5.1 of the paper: instead
of joining one *atom* at a time, generic join binds one *variable* at a time,
intersecting the candidate values contributed by every atom that mentions the
variable.  On cyclic or multi-pattern queries this avoids the intermediate
blowups of pairwise joins.

Generic join builds its tries per search, from the database as it stands:
each atom's rows are filtered by its constants and repeated variables,
projected onto its distinct variables, and inserted into a nested-dict trie
keyed in global variable order.  The semi-naïve delta atom reads only the
rows its table's write log stamps at or after the rule's watermark.

The global variable order is structural (occurrence count, then first
occurrence) rather than cardinality-based, so a query enumerates its
matches in the same order on every search of the same database.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .builtins import PrimitiveRegistry
from .database import Table
from .query import Query, QVar, Substitution, TableAtom, apply_prims
from .values import Value


def structural_var_order(atoms: Iterable[TableAtom]) -> List[str]:
    """Global variable order from query *structure* only.

    Variables occurring in more atoms come first (they constrain the join
    most), ties broken by first occurrence.  Unlike a cardinality-based
    tie-break this is stable across iterations, so the same query
    enumerates its matches in the same order on every search.
    """
    occurrence: Dict[str, int] = {}
    first_seen: Dict[str, int] = {}
    position = 0
    for atom in atoms:
        seen_here = set()
        for col in atom.columns():
            if isinstance(col, QVar):
                if col.name not in first_seen:
                    first_seen[col.name] = position
                    position += 1
                if col.name not in seen_here:
                    seen_here.add(col.name)
                    occurrence[col.name] = occurrence.get(col.name, 0) + 1
    return sorted(occurrence, key=lambda v: (-occurrence[v], first_seen[v]))


def _atom_rows(
    table: Table, restrict_new: bool, since: int
) -> Iterator[Tuple[Value, ...]]:
    """Rows of ``table`` as full tuples, optionally restricted to new rows.

    The ``restrict_new``/``since`` pair is the semi-naïve delta restriction
    (Section 4.3): only rows stamped at or after ``since`` participate —
    enumerated via the table's write log, so the delta atom costs
    O(|delta|), not a full scan.
    """
    if restrict_new:
        for key in table.new_keys(since):
            row = table.data[key]
            yield key + (row.value,)
        return
    for key, row in table.data.items():
        yield key + (row.value,)


def _project_atom(
    atom: TableAtom, rows: Iterator[Tuple[Value, ...]]
) -> Tuple[List[str], List[Tuple[Value, ...]]]:
    """Filter rows by the atom's constants and repeated variables, then
    project each row onto the atom's distinct variables (first-occurrence
    order).  Returns (variable names, projected rows)."""
    columns = atom.columns()
    var_positions: Dict[str, int] = {}
    var_order: List[str] = []
    for position, col in enumerate(columns):
        if isinstance(col, QVar) and col.name not in var_positions:
            var_positions[col.name] = position
            var_order.append(col.name)

    projected: List[Tuple[Value, ...]] = []
    for row in rows:
        ok = True
        for position, col in enumerate(columns):
            if isinstance(col, QVar):
                if row[var_positions[col.name]] != row[position]:
                    ok = False
                    break
            elif col != row[position]:
                ok = False
                break
        if ok:
            projected.append(tuple(row[var_positions[name]] for name in var_order))
    return var_order, projected


def _build_trie(rows: Sequence[Tuple[Value, ...]], permutation: Sequence[int]) -> Dict:
    """Build a nested-dict trie over ``rows`` keyed in ``permutation`` order."""
    root: Dict = {}
    if not permutation:
        # Zero-variable atom: the trie is just a non-emptiness marker.
        return {"__nonempty__": True} if rows else {}
    for row in rows:
        node = root
        for position in permutation[:-1]:
            node = node.setdefault(row[position], {})
        node.setdefault(row[permutation[-1]], True)
    return root


def search_generic(
    tables: Dict[str, Table],
    registry: PrimitiveRegistry,
    query: Query,
    delta_atom: Optional[int] = None,
    since: int = 0,
) -> Iterator[Substitution]:
    """Run ``query`` with a variable-at-a-time worst-case optimal join.

    ``delta_atom``/``since`` implement the semi-naïve restriction: when given,
    the designated atom only contributes rows with ``timestamp >= since``.
    """
    atoms = query.atoms
    if not atoms:
        result = apply_prims(query.prims, {}, registry)
        if result is not None:
            yield result
        return
    for atom in atoms:
        if atom.func not in tables:
            return

    var_order = structural_var_order(atoms)
    var_rank = {name: rank for rank, name in enumerate(var_order)}
    n_atoms = len(atoms)

    # The delta atom goes first: if nothing is new since the watermark, the
    # search exits before any other atom pays for projection or trie work.
    atom_order = list(range(n_atoms))
    if delta_atom is not None:
        atom_order.remove(delta_atom)
        atom_order.insert(0, delta_atom)

    tries: List[Optional[Dict]] = [None] * n_atoms
    atom_sorted_vars: List[Tuple[str, ...]] = [()] * n_atoms
    for index in atom_order:
        atom = atoms[index]
        table = tables[atom.func]
        restrict = delta_atom is not None and index == delta_atom
        names, rows = _project_atom(atom, _atom_rows(table, restrict, since))
        if not rows:
            return
        sorted_names = tuple(sorted(names, key=lambda v: var_rank[v]))
        permutation = [names.index(v) for v in sorted_names]
        tries[index] = _build_trie(rows, permutation)
        atom_sorted_vars[index] = sorted_names

    def recurse(
        depth: int, nodes: List[Dict], consumed: Tuple[int, ...], bindings: Substitution
    ) -> Iterator[Substitution]:
        if depth == len(var_order):
            final = apply_prims(query.prims, dict(bindings), registry)
            if final is not None:
                yield final
            return
        variable = var_order[depth]
        relevant = [
            index
            for index in range(n_atoms)
            if consumed[index] < len(atom_sorted_vars[index])
            and atom_sorted_vars[index][consumed[index]] == variable
        ]
        if not relevant:
            yield from recurse(depth + 1, nodes, consumed, bindings)
            return
        smallest = min(relevant, key=lambda index: len(nodes[index]))
        for value in nodes[smallest]:
            new_nodes = list(nodes)
            new_consumed = list(consumed)
            ok = True
            for index in relevant:
                child = nodes[index].get(value)
                if child is None:
                    ok = False
                    break
                new_nodes[index] = child if isinstance(child, dict) else {}
                new_consumed[index] = consumed[index] + 1
            if not ok:
                continue
            bindings[variable] = value
            yield from recurse(depth + 1, new_nodes, tuple(new_consumed), bindings)
            del bindings[variable]

    yield from recurse(0, tries, tuple(0 for _ in range(n_atoms)), {})  # type: ignore[arg-type]

