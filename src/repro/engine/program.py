"""Compiled action programs and the per-rule executor bundle.

The interpreted :func:`repro.engine.actions.run_actions` walks the action
dataclasses with ``isinstance`` dispatch and re-evaluates every term tree
per match, copying a dict substitution as it goes.  A compiled rule fires
its actions once per match, potentially millions of times, against the same
action *structure* — so :func:`compile_actions` renders a rule's action
list once into one generated Python function
(:func:`repro.engine.codegen.render_actions`):

* every query variable already has a slot (``repro.core.compile``); a
  match tuple unpacks straight into the slot locals;
* ``let`` bindings get locals of their own (re-using the variable's local
  when a let shadows a query variable, exactly like the interpreted dict
  overwrite);
* applications resolve their :class:`~repro.core.schema.FunctionDecl` and
  table once at compile time and perform the paper's get-or-default
  insertion inline.

``set`` actions go through :func:`~repro.engine.actions.set_function_value`,
the engine's compiled merge-resolution path (``EGraph.merge_fn``) shared
with rebuilding, so a ``set`` conflict and a congruence repair resolve
merges through the same cached closure.

Compiled programs are cached per rule and invalidated by the engine's
compile epoch (push/pop, rule replacement) — see ``EGraph.rule_exec``.  The
code object behind a program is shared process-wide
(:meth:`~repro.engine.compilecache.CompileCacheRegistry.code`); building a
program only renders its source and binds that code to this engine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Set

from ..core.compile import MatchTuple
from ..core.proofs import Justification, rule_justification
from ..core.query import Query
from ..core.values import Value
from .actions import Action
from .codegen import bind, plain_slots, render_actions
from .compilecache import CACHE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .egraph import EGraph
    from .rule import CompiledRule


#: A rule's actions as one generated function: ``fire(matches)`` runs them
#: once per match tuple, in order.
Fire = Callable[[Sequence[MatchTuple]], None]


def compile_actions(
    egraph: "EGraph",
    actions: Sequence[Action],
    slot_of: Dict[str, int],
    n_slots: int,
    query: Query,
    reason: Optional[Justification] = None,
) -> Fire:
    """Lower ``actions`` into a generated ``fire`` function over rule slots.

    ``query`` (the rule's body) decides which slots hold only
    primitive-sorted values and so skip ``canonicalize`` on every read.
    ``reason`` is bound into the program's unions so the proof forest
    records fire-time rule identity — it shares the executor cache's
    lifetime (compile epoch), so a replaced rule's fresh executor carries
    the fresh justification.
    """
    plain = plain_slots(egraph, query, slot_of)
    source, namespace = render_actions(egraph, actions, slot_of, n_slots, plain, reason)
    return bind(CACHE.code(source), namespace)


# ---------------------------------------------------------------------------
# Per-rule executor bundle
# ---------------------------------------------------------------------------


class RuleExec:
    """Everything one rule needs to run hot: plan, slots, generated actions.

    Built by ``EGraph.rule_exec`` and cached on the rule per strategy;
    ``epoch`` pins it to the engine state it was compiled against — the
    engine bumps its compile epoch on push/pop and rule replacement, which
    invalidates every cached executor (generated programs bind tables and
    declarations that those operations may replace).

    The engine-independent half — slot assignment and the compiled query
    search — comes from the process-level plan cache
    (:mod:`repro.engine.compilecache`), so engines with identical rules
    (e.g. sessions forked from one base) share query plans; the executor
    adds the rule's constants and this engine's primitive ``call``.  Only
    the action program, which binds this engine's tables and counters, is
    built per executor.
    """

    __slots__ = (
        "epoch",
        "strategy",
        "slot_of",
        "slot_names",
        "n_slots",
        "query_exec",
        "consts",
        "call",
        "fire",
        "reason",
    )

    def __init__(self, egraph: "EGraph", rule: "CompiledRule", strategy: str) -> None:
        self.epoch = egraph.compile_epoch
        self.strategy = strategy
        #: Justification for unions this rule performs; bound into the
        #: generated program's unions and installed as the ambient reason
        #: while the scheduler applies this rule's matches.
        self.reason = rule_justification(rule.name)
        plan, self.consts = CACHE.plan(rule.query, strategy)
        self.slot_of = plan.slot_of
        self.slot_names = plan.slot_names
        self.n_slots = plan.n_slots
        self.query_exec = plan.query_exec
        self.call = egraph.registry.call
        #: ``fire(matches)`` applies the rule's actions to a match batch.
        self.fire = compile_actions(
            egraph, rule.actions, plan.slot_of, plan.n_slots, rule.query, self.reason
        )

    def search_full(self, tables: Dict[str, Any]) -> List[MatchTuple]:
        """All matches of the query (no delta restriction), in plan order."""
        out: List[MatchTuple] = []
        self.query_exec.search_into(tables, self.call, self.consts, None, 0, out)
        return out

    def search_delta(
        self,
        tables: Dict[str, Any],
        delta_atom: int,
        since: int,
        seen: Set[MatchTuple],
        out: List[MatchTuple],
    ) -> None:
        """Semi-naïve delta search, deduplicating into ``seen``/``out``.

        Match tuples are canonical positional substitutions, so the
        cross-atom dedup is one tuple hash per match — no dict sorting.
        """
        self.query_exec.search_into(
            tables, self.call, self.consts, delta_atom, since, out, seen
        )

    def substitution(self, match: MatchTuple) -> Dict[str, Value]:
        """Re-inflate a match tuple into a name-keyed substitution dict."""
        return dict(zip(self.slot_names, match))
