"""Seeded inputs for the three workloads, and the references that check them.

Everything here is independent of the engine: the generators only write
edges and ``.egg`` text, and the references (BFS closure, term costs, a
union-find with congruence and arrow decomposition) recompute the answers
the engine must give.  Nothing is imported from ``repro``.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

# ---------------------------------------------------------------------------
# datalog-closure: a sparse random digraph and its BFS closure
# ---------------------------------------------------------------------------

GRAPH_NODES = 300
GRAPH_EDGES = 900
#: The closure size every seed's graph is drawn to (within the tolerance),
#: so seeds differ in the graph but not in how much work it is.
CLOSURE_TARGET = 79_500
CLOSURE_TOLERANCE = 800


def random_digraph(seed: int, n: int = GRAPH_NODES, m: int = GRAPH_EDGES) -> List[Tuple[int, int]]:
    """``m`` distinct edges between ``n`` nodes, no self loops, sorted.

    Graphs are drawn until the closure has ``CLOSURE_TARGET`` rows give or
    take ``CLOSURE_TOLERANCE``; at this density unconditioned draws spread
    by about 3.5% (quartiles over 12 seeds), which would add to the
    run-to-run spread of ``run_s``.
    """
    rng = random.Random(f"digraph/{seed}")
    while True:
        edges = set()
        while len(edges) < m:
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                edges.add((a, b))
        ordered = sorted(edges)
        if abs(closure_size(n, ordered) - CLOSURE_TARGET) <= CLOSURE_TOLERANCE:
            return ordered


def closure_size(n: int, edges: Sequence[Tuple[int, int]]) -> int:
    """Number of pairs ``(x, y)`` joined by a path of one or more edges."""
    succ: List[List[int]] = [[] for _ in range(n)]
    for a, b in edges:
        succ[a].append(b)
    total = 0
    for start in range(n):
        seen = [False] * n
        queue = deque(succ[start])
        for node in succ[start]:
            seen[node] = True
        while queue:
            node = queue.popleft()
            for nxt in succ[node]:
                if not seen[nxt]:
                    seen[nxt] = True
                    queue.append(nxt)
        total += sum(seen)
    return total


# ---------------------------------------------------------------------------
# Terms as tuples: ("Num", 3), ("Var", "x"), ("Add", a, b), ...
# ---------------------------------------------------------------------------

Term = tuple


def render(term: Term) -> str:
    """A term as ``.egg`` text."""
    head = term[0]
    if len(term) == 1:
        return f"({head})"
    parts = [head]
    for arg in term[1:]:
        if isinstance(arg, tuple):
            parts.append(render(arg))
        elif isinstance(arg, str):
            parts.append('"' + arg + '"')
        else:
            parts.append(str(arg))
    return "(" + " ".join(parts) + ")"


def parse_term(text: str) -> Term:
    """Read back a term the engine printed (constructors, ints, strings)."""
    tokens: List[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in "()":
            tokens.append(ch)
            i += 1
        elif ch.isspace():
            i += 1
        elif ch == '"':
            end = text.index('"', i + 1)
            tokens.append(text[i : end + 1])
            i = end + 1
        else:
            end = i
            while end < len(text) and not text[end].isspace() and text[end] not in "()":
                end += 1
            tokens.append(text[i:end])
            i = end
    pos = 0

    def read():
        nonlocal pos
        token = tokens[pos]
        pos += 1
        if token == "(":
            items = []
            while tokens[pos] != ")":
                items.append(read())
            pos += 1
            return tuple(items)
        if token.startswith('"'):
            return token[1:-1]
        try:
            return int(token)
        except ValueError:
            return token

    term = read()
    if pos != len(tokens):
        raise ValueError(f"trailing text after term: {text!r}")
    return term


def _size(term: Term) -> int:
    return 1 + sum(_size(arg) for arg in term[1:] if isinstance(arg, tuple))


def term_cost(term: Term, costs: Dict[str, int]) -> int:
    """Extraction cost: each constructor's cost plus its term children's."""
    return costs[term[0]] + sum(term_cost(arg, costs) for arg in term[1:] if isinstance(arg, tuple))


# ---------------------------------------------------------------------------
# eqsat-extract: a generated Math program
# ---------------------------------------------------------------------------

MATH_COSTS = {"Num": 1, "Var": 1, "Add": 2, "Mul": 3}
MATH_DEPTH = 7
MATH_ROOTS = 2
MATH_RUN = 6
MATH_CHECKS = 12
MATH_EXTRACTS = 8
MATH_VARS = 24
MATH_OPS = ("Mul", "Add", "Add")
#: Checks stay on small sub-terms: a ground check is a join with one atom
#: per node, and its cost should not swamp the run it follows.
MATH_CHECK_SIZE = 7

MATH_HEADER = """\
(datatype Math
  (Num i64)
  (Var String)
  (Add Math Math :cost 2)
  (Mul Math Math :cost 3))
(rewrite (Add a b) (Add b a) :name "add-comm")
(rewrite (Mul a b) (Mul b a) :name "mul-comm")
(rewrite (Add a (Add b c)) (Add (Add a b) c) :name "add-assoc")
(rewrite (Mul a (Mul b c)) (Mul (Mul a b) c) :name "mul-assoc")
(rewrite (Add a (Num 0)) a :name "add-zero")
(rewrite (Mul a (Num 1)) a :name "mul-one")
"""


class MathProgram:
    """A seeded ``.egg`` program with the facts and extracts it asks for.

    ``checks`` holds equalities that hold after one iteration by
    construction (commutativity, associativity and identity instances of
    sub-terms present from the start); ``extracts`` the terms whose
    cheapest representatives are asked for.
    """

    def __init__(self, seed: int, depth: int = MATH_DEPTH, roots: int = MATH_ROOTS) -> None:
        self.seed = seed
        self.depth = depth
        rng = random.Random(f"math/{seed}")
        self._rng = rng
        self._facts: List[Tuple[Term, Term]] = []
        self._subterms: List[Term] = []
        self.roots = [self._term(depth) for _ in range(roots)]
        small = [f for f in self._facts if _size(f[0]) <= MATH_CHECK_SIZE]
        self.checks = rng.sample(small, min(MATH_CHECKS, len(small)))
        compound = [t for t in self._subterms if len(t) == 3]
        self.extracts = list(self.roots) + rng.sample(
            compound, min(MATH_EXTRACTS - len(self.roots), len(compound))
        )
        lines = [MATH_HEADER]
        for index, root in enumerate(self.roots):
            lines.append(f"(let r{index} {render(root)})")
        lines.append(f"(run {MATH_RUN})")
        for lhs, rhs in self.checks:
            lines.append(f"(check (= {render(lhs)} {render(rhs)}))")
        for term in self.extracts:
            lines.append(f"(extract {render(term)})")
        self.text = "\n".join(lines) + "\n"

    def _leaf(self) -> Term:
        rng = self._rng
        if rng.random() < 0.25:
            return ("Num", rng.randrange(2, 12))
        return ("Var", f"x{rng.randrange(MATH_VARS)}")

    def _term(self, depth: int) -> Term:
        """A full binary term whose operators follow a fixed level pattern.

        The pattern (``MATH_OPS``, indexed by depth) fixes the lengths of
        same-operator chains, which is what associativity blows up.  Only
        the leaves are random, and identity wrappers sit at fixed positions,
        so the e-graph's size varies little from seed to seed (about 2%
        between quartiles of node counts, against 140% when operators and
        shapes were random).
        """
        rng = self._rng
        if depth <= 0:
            return self._leaf()
        op = MATH_OPS[depth % len(MATH_OPS)]
        left, right = self._term(depth - 1), self._term(depth - 1)
        term = (op, left, right)
        self._facts.append((term, (op, right, left)))
        if right[0] == op:
            self._facts.append((term, (op, (op, left, right[1]), right[2])))
        if len(self._subterms) % 7 == 3:
            unit = ("Num", 0) if op == "Add" else ("Num", 1)
            wrapped = (op, term, unit)
            self._facts.append((wrapped, term))
            self._subterms.append(term)
            term = wrapped
        self._subterms.append(term)
        return term


# ---------------------------------------------------------------------------
# serve-sessions: a scaled typeinfer.egg base, batches, and their answers
# ---------------------------------------------------------------------------

TYPE_COSTS = {"TInt": 1, "TBool": 1, "TVar": 1, "TArrow": 2}
TYPE_VARS = 120
#: Distinct type terms in the base; arrows are drawn until there are this
#: many, so the base (and each checkpoint) has about the same size for
#: every seed.  Counting arrows instead let rows vary from 439 to 493.
TYPE_BASE_ROWS = 460
TYPE_DEPTH = 3
CYCLE_BATCHES = 8
CYCLE_SCRIPTS = 24
RUN_LIMIT = 100

TYPE_HEADER = """\
(datatype Type
  (TInt)
  (TBool)
  (TVar String)
  (TArrow Type Type :cost 2))
(rule ((= (TArrow a b) (TArrow c d)))
      ((union a c) (union b d))
      :name "decompose-arrow")
"""


class Unifier:
    """Union-find over hash-consed type terms, closed under congruence and
    arrow decomposition — the client-side model of a session's e-graph."""

    def __init__(self) -> None:
        self.ids: Dict[Term, int] = {}
        self.terms: List[Term] = []
        self.parent: List[int] = []

    def copy(self) -> "Unifier":
        other = Unifier()
        other.ids = dict(self.ids)
        other.terms = list(self.terms)
        other.parent = list(self.parent)
        return other

    def add(self, term: Term) -> int:
        found = self.ids.get(term)
        if found is not None:
            return found
        if term[0] == "TArrow":
            self.add(term[1])
            self.add(term[2])
        index = len(self.terms)
        self.ids[term] = index
        self.terms.append(term)
        self.parent.append(index)
        return index

    def find(self, index: int) -> int:
        parent = self.parent
        while parent[index] != index:
            parent[index] = parent[parent[index]]
            index = parent[index]
        return index

    def _merge(self, a: int, b: int) -> bool:
        a, b = self.find(a), self.find(b)
        if a == b:
            return False
        self.parent[max(a, b)] = min(a, b)
        return True

    def union(self, lhs: Term, rhs: Term) -> None:
        self._merge(self.add(lhs), self.add(rhs))
        self._close()

    def _close(self) -> None:
        changed = True
        while changed:
            changed = False
            by_sig: Dict[Tuple[int, int], int] = {}
            first_arrow: Dict[int, int] = {}
            for index, term in enumerate(self.terms):
                if term[0] != "TArrow":
                    continue
                kids = (self.find(self.ids[term[1]]), self.find(self.ids[term[2]]))
                other = by_sig.setdefault(kids, index)
                if other != index and self._merge(other, index):
                    changed = True
                root = self.find(index)
                seen = first_arrow.setdefault(root, index)
                if seen != index:
                    left = self.terms[seen]
                    if self._merge(self.ids[left[1]], self.ids[term[1]]):
                        changed = True
                    if self._merge(self.ids[left[2]], self.ids[term[2]]):
                        changed = True

    def min_cost(self, term: Term) -> int:
        """The cheapest cost of any term in ``term``'s class."""
        best: Dict[int, int] = {}
        changed = True
        while changed:
            changed = False
            for index, t in enumerate(self.terms):
                if t[0] == "TArrow":
                    left = best.get(self.find(self.ids[t[1]]))
                    right = best.get(self.find(self.ids[t[2]]))
                    if left is None or right is None:
                        continue
                    cost = TYPE_COSTS["TArrow"] + left + right
                else:
                    cost = TYPE_COSTS[t[0]]
                root = self.find(index)
                if cost < best.get(root, cost + 1):
                    best[root] = cost
                    changed = True
        return best[self.find(self.ids[term])]


class Batch:
    """One ``.egg`` batch and the answers the reference expects from it."""

    def __init__(self, text: str, target: Term, extract_cost: int) -> None:
        self.text = text
        #: The base arrow the batch unions and extracts.
        self.target = target
        self.extract_cost = extract_cost


class TypeBase:
    """The unification base program and seeded per-client session scripts.

    A script is the list of batches one session receives; client ``c``
    runs its scripts round robin, so the request sequence is fixed by the
    seed.  Each batch unions a base arrow with a fresh arrow of the same
    shape, runs to saturation, checks one equality the decomposition rule
    must derive, and extracts the base arrow.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(f"types/{seed}")
        self.vars = [("TVar", f"v{i}") for i in range(TYPE_VARS)]
        self.model = Unifier()
        self.terms: List[Term] = []
        while len(self.model.terms) < TYPE_BASE_ROWS:
            term = self._arrow(rng, TYPE_DEPTH)
            self.terms.append(term)
            self.model.add(term)
        self.text = (
            TYPE_HEADER
            + "".join(render(term) + "\n" for term in self.terms)
            + "(run 1)\n"
        )

    def _type(self, rng: random.Random, depth: int) -> Term:
        if depth <= 0 or rng.random() < 0.3:
            roll = rng.random()
            if roll < 0.1:
                return ("TInt",)
            if roll < 0.2:
                return ("TBool",)
            return rng.choice(self.vars)
        return self._arrow(rng, depth)

    def _arrow(self, rng: random.Random, depth: int) -> Term:
        return ("TArrow", self._type(rng, depth - 1), self._type(rng, depth - 1))

    def scripts(self, client: int) -> List[List[Batch]]:
        """``CYCLE_SCRIPTS`` session scripts for one client."""
        rng = random.Random(f"types/{self.seed}/client{client}")
        return [self._script(rng) for _ in range(CYCLE_SCRIPTS)]

    def _script(self, rng: random.Random) -> List[Batch]:
        model = self.model.copy()
        batches = []
        for _ in range(CYCLE_BATCHES):
            base = rng.choice(self.terms)
            fresh = self._arrow(rng, TYPE_DEPTH)
            model.union(base, fresh)
            lhs, rhs = base[1], fresh[1]
            text = (
                f"(union {render(base)} {render(fresh)})\n"
                f"(run {RUN_LIMIT})\n"
                f"(check (= {render(lhs)} {render(rhs)}))\n"
                f"(extract {render(base)})\n"
            )
            batches.append(Batch(text, base, model.min_cost(base)))
        return batches


def check_batch_lines(batch: Batch, lines: Sequence[str]) -> Optional[str]:
    """None if a batch's printed lines match the reference, else why not."""
    if len(lines) != 3:
        return f"expected 3 lines, got {list(lines)!r}"
    run, check, extract = lines
    if not run.startswith("run:") or not run.endswith("saturated"):
        return f"run did not saturate: {run!r}"
    if check != "check: ok (1 match(es))":
        return f"check answer {check!r}"
    prefix, _, rest = extract.partition(": ")
    term_text, _, cost_text = rest.rpartition(" (cost ")
    if prefix != "extract" or not cost_text.endswith(")"):
        return f"unreadable extract line {extract!r}"
    cost = int(cost_text[:-1])
    if cost != batch.extract_cost or term_cost(parse_term(term_text), TYPE_COSTS) != cost:
        return f"extract {extract!r}, expected cost {batch.extract_cost}"
    return None
