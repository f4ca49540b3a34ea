"""Process-level cache of compiled query plans and generated code.

PR 5 cached each rule's compiled executor *on the rule object*, which is
the right lifetime for a single engine but the wrong one for a session
service: a hundred sessions forked from one base each carry fresh
``CompiledRule`` objects (snapshot decode builds new ones), so every fork
would recompile every rule's query plan from scratch.

The split that makes sharing sound: a rule's executor has an
**engine-independent** half and an **engine-bound** half.

* The query plan — slot assignment (:func:`~repro.core.compile.assign_slots`)
  plus the compiled search (:class:`~repro.engine.codegen.IndexedSearch`
  / :class:`~repro.core.compile.CompiledGenericQuery`) — closes over nothing
  but the query structure.  A search receives the tables, the registry's
  ``call`` and the query's constants per call, so one plan serves every
  engine in the process.  That half lives here, in one process-wide LRU
  keyed by (strategy, structural query fingerprint).
* The action program (:func:`~repro.engine.program.compile_actions`) binds
  the engine's tables, declarations, and counters — it stays per-engine,
  rebuilt by each :class:`~repro.engine.program.RuleExec`.

Keying on the *structural* fingerprint (the query's deterministic repr)
rather than the rule name means two sessions — or two differently-named
rules — with identical queries share one plan.  For the ``indexed``
strategy the fingerprint is that of the query's *shape*
(:func:`~repro.core.compile.split_constants`): queries that differ only in
their constants — every ``check`` of a session, say — share one plan and
one generated search.  Generic-join plans bake their constants into the
per-search trie build's row filter and are keyed by the concrete query.

Generated code.  The indexed search (:class:`~repro.engine.codegen
.IndexedSearch`) and every action program render their plans as Python
source.  The same registry also holds the compiled *code objects*, keyed by
that source text (:meth:`CompileCacheRegistry.code`): ``compile()`` runs
once per distinct source per process, and an executor only binds the
cached code to its own namespace of tables, constants, and callables.  The
source holds nothing but generator-chosen identifiers and integer indices,
so two structurally equal rules share one code object however their
function names and constants differ.  Code objects have their own LRU
bound and counters (``code_*``), separate from the plans'.

Thread safety: the cache itself is lock-protected, and the cached plan
objects are safe to *use* concurrently — their only mutation is the
idempotent, last-write-wins cache of bound search functions inside the
indexed search (keyed by delta atom and join order, value identical for a
given key).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from types import CodeType
from typing import Dict, List, Tuple, Union

from ..core.compile import CompiledGenericQuery, assign_slots, split_constants
from ..core.query import Query
from ..core.values import Value
from .codegen import IndexedSearch, compile_source
from .errors import EGraphError

#: Plan key: ``(strategy, query fingerprint)``.
PlanKey = Tuple[str, str]


class CompiledPlan:
    """The engine-independent half of a rule executor (see module docs)."""

    __slots__ = ("slot_of", "slot_names", "n_slots", "query_exec")

    def __init__(
        self, query: Query, strategy: str, n_consts: int, cache: "CompileCacheRegistry"
    ) -> None:
        slot_of, slot_names = assign_slots(query)
        self.slot_of = slot_of
        self.slot_names = slot_names
        self.n_slots = len(slot_names)
        self.query_exec: Union[IndexedSearch, CompiledGenericQuery]
        if strategy == "indexed":
            self.query_exec = IndexedSearch(query, slot_of, self.n_slots, n_consts, cache.code)
        elif strategy == "generic":
            self.query_exec = CompiledGenericQuery(query, slot_of, self.n_slots)
        else:
            raise EGraphError(f"no compiled executor for strategy {strategy!r}")


class CompileCacheRegistry:
    """Two bounded, thread-safe LRUs: :class:`CompiledPlan` objects, and the
    code objects compiled from generated source.

    One instance serves the whole process (module-level :data:`CACHE`);
    separate instances exist only for tests.  ``maxsize`` bounds each LRU
    separately, so code objects never push plans out: ``maxsize`` plans
    hold a rule set of about that many rules, and as many code objects
    are plenty, because code is keyed by structure — structurally equal
    rules share their search and action code whatever their function
    names and constants (a generated 488-rule set made 439 plans but only
    33 code objects; a plan takes about 4 KB).  One-off ``check``/``query``
    shapes are what the LRUs evict.
    """

    def __init__(self, maxsize: int = 1024) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self._maxsize = maxsize
        self._lock = threading.Lock()
        self._plans: "OrderedDict[PlanKey, CompiledPlan]" = OrderedDict()
        self._code: "OrderedDict[str, CodeType]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._code_hits = 0
        self._code_misses = 0
        self._evictions = 0
        self._code_evictions = 0

    def plan(self, query: Query, strategy: str) -> Tuple[CompiledPlan, Tuple[Value, ...]]:
        """The shared plan for ``query`` under ``strategy`` (compiled on
        miss), plus the constants its searches take (see module docs).

        Compilation happens outside the lock — two threads missing the same
        key may both compile, but plans for one key are interchangeable and
        the second insert just replaces the first (last-write-wins, no
        corruption).  That keeps an expensive compile from serializing every
        other session's cache hit.
        """
        if strategy == "indexed":
            shape, consts = split_constants(query)
        else:
            shape, consts = query, ()
        key: PlanKey = (strategy, repr(shape))
        with self._lock:
            cached = self._plans.get(key)
            if cached is not None:
                self._plans.move_to_end(key)
                self._hits += 1
                return cached, consts
            self._misses += 1
        built = CompiledPlan(shape, strategy, len(consts), self)
        with self._lock:
            self._plans[key] = built
            self._plans.move_to_end(key)
            while len(self._plans) > self._maxsize:
                self._plans.popitem(last=False)
                self._evictions += 1
        return built, consts

    def code(self, source: str) -> CodeType:
        """The code object of the one function defined by ``source``.

        Compiled on first request and shared by every later executor whose
        generated source is identical; binding it to a namespace is the
        only per-executor cost.  Like :meth:`plan`, compilation runs outside
        the lock (last write wins).
        """
        with self._lock:
            cached = self._code.get(source)
            if cached is not None:
                self._code.move_to_end(source)
                self._code_hits += 1
                return cached
            self._code_misses += 1
        built = compile_source(source)
        with self._lock:
            self._code[source] = built
            self._code.move_to_end(source)
            while len(self._code) > self._maxsize:
                self._code.popitem(last=False)
                self._code_evictions += 1
        return built

    def sources(self) -> List[str]:
        """Every generated source currently cached (for inspection/tests)."""
        with self._lock:
            return list(self._code)

    def stats(self) -> Dict[str, int]:
        """Cache effectiveness counters (also served by ``GET /stats``)."""
        with self._lock:
            return {
                "size": len(self._plans),
                "maxsize": self._maxsize,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "code_size": len(self._code),
                "code_hits": self._code_hits,
                "code_misses": self._code_misses,
                "code_evictions": self._code_evictions,
            }

    def clear(self) -> None:
        """Drop every cached plan and code object and reset the counters
        (tests/benchmarks)."""
        with self._lock:
            self._plans.clear()
            self._code.clear()
            self._hits = 0
            self._misses = 0
            self._code_hits = 0
            self._code_misses = 0
            self._evictions = 0
            self._code_evictions = 0


#: The process-level plan cache every :class:`~repro.engine.program.RuleExec`
#: and every ``EGraph.query``/``check`` consults.  Engines with identical
#: rules — sessions forked from one base, say — hit the same entries
#: instead of recompiling.
CACHE = CompileCacheRegistry()
