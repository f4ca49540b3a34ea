"""The in-process workloads: ``datalog-closure`` and ``eqsat-extract``.

``run.py`` starts this file in a fresh child process per benchmark run, so
the peak RSS it reports belongs to the work alone.  The child repeats the
workload (set-up, then the timed phase) until its time is up and prints
one JSON summary as its last stdout line.

Usage: ``python3 perfbench/inproc.py WORKLOAD SEED SECONDS TRACE``
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from typing import Any, Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gen  # noqa: E402
from common import (  # noqa: E402
    CAL_REFERENCE_S,
    HarnessError,
    calibrate,
    median,
    mismatches,
    out_dir,
    peak_rss_mb,
    use_source,
)
from spans import GcMeter, Tracer  # noqa: E402

#: Repetitions measured even when the time is up, so medians have support.
MIN_REPS = 5
#: Iteration cap for the closure; it saturates in about a dozen.
CLOSURE_LIMIT = 1000


class DatalogClosure:
    """Transitive closure through the engine API, run to saturation.

    Set-up declares ``edge``/``path``, registers the two rules and inserts
    the edges; the timed phase is ``run`` plus one ``check`` whose match
    count must equal the benchmark's BFS closure.
    """

    def __init__(self, seed: int) -> None:
        from repro.core.schema import RunReport
        from repro.core.terms import App, V
        from repro.engine import EGraph, EGraphError, Rule
        from repro.engine.actions import Expr

        self.App, self.V, self.EGraph, self.EGraphError = App, V, EGraph, EGraphError
        self.RunReport = RunReport
        self.rules = [
            Rule(
                facts=[App("edge", V("x"), V("y"))],
                actions=[Expr(App("path", V("x"), V("y")))],
                name="edge-path",
            ),
            Rule(
                facts=[App("path", V("x"), V("y")), App("edge", V("y"), V("z"))],
                actions=[Expr(App("path", V("x"), V("z")))],
                name="path-step",
            ),
        ]
        self.edges = gen.random_digraph(seed)
        self.expected = gen.closure_size(gen.GRAPH_NODES, self.edges)
        self.sizes = {
            "graph_nodes": gen.GRAPH_NODES,
            "graph_edges": len(self.edges),
            "expected_path_rows": self.expected,
        }

    def setup(self, tracer: Tracer) -> Any:
        App = self.App
        with tracer.span("engine.setup"):
            egraph = self.EGraph()
            egraph.relation("edge", ("i64", "i64"))
            egraph.relation("path", ("i64", "i64"))
            egraph.add_rules(*self.rules)
            for a, b in self.edges:
                egraph.add(App("edge", a, b))
        return egraph

    def timed(self, egraph: Any, tracer: Tracer) -> Dict[str, Any]:
        nodes_before = egraph.node_count()
        errors: List[str] = []
        report = self.RunReport()
        found = 0
        try:
            with tracer.span("engine.run"):
                report = egraph.run(CLOSURE_LIMIT)
            with tracer.span("engine.check"):
                found = egraph.check(self.App("path", self.V("x"), self.V("y")))
        except self.EGraphError as error:
            errors.append(f"closure raised {error}")
        if not report.saturated:
            errors.append(f"closure did not saturate in {CLOSURE_LIMIT} iterations")
        if found != self.expected:
            errors.append(f"check found {found} path rows, BFS closure has {self.expected}")
        nodes = egraph.node_count()
        return {
            "ops": 2,
            "failed": len(errors),
            "errors": errors,
            "report": report,
            "counts": {
                "path_rows": found,
                "nodes": nodes,
                "rows_added": nodes - nodes_before,
            },
        }


class EqsatExtract:
    """A generated Math ``.egg`` program through ``parse_program`` and
    ``Evaluator``, the in-process path of ``repro prog.egg``.

    Set-up reads and parses the file and executes every command before the
    first ``run``; the timed phase executes the rest: ``run``, the checks
    and the extracts.
    """

    def __init__(self, seed: int) -> None:
        from repro.frontend import Evaluator, FrontendError, parse_program
        from repro.frontend.parser import CheckCmd, ExtractCmd, RunCmd

        self.Evaluator, self.FrontendError, self.parse_program = (
            Evaluator,
            FrontendError,
            parse_program,
        )
        self.span_of = {
            RunCmd: "engine.run",
            CheckCmd: "engine.check",
            ExtractCmd: "engine.extract",
        }
        self.RunCmd = RunCmd
        self.program = gen.MathProgram(seed)
        self.path = os.path.join(out_dir("programs"), f"eqsat-extract-{seed}.egg")
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write(self.program.text)
        self.asked = [gen.term_cost(term, gen.MATH_COSTS) for term in self.program.extracts]
        self.sizes = {
            "depth": self.program.depth,
            "roots": len(self.program.roots),
            "run_limit": gen.MATH_RUN,
            "checks": len(self.program.checks),
            "extracts": len(self.program.extracts),
            "program_bytes": len(self.program.text),
        }

    def setup(self, tracer: Tracer) -> Any:
        with tracer.span("frontend.read"):
            with open(self.path, "r", encoding="utf-8") as handle:
                text = handle.read()
        with tracer.span("frontend.parse"):
            commands = self.parse_program(text, self.path)
        evaluator = self.Evaluator()
        first_run = next(i for i, cmd in enumerate(commands) if isinstance(cmd, self.RunCmd))
        for command in commands[:first_run]:
            with tracer.span("frontend.lower"):
                evaluator.execute(command)
        return evaluator, commands, first_run

    def timed(self, state: Any, tracer: Tracer) -> Dict[str, Any]:
        evaluator, commands, first_run = state
        nodes_before = evaluator.egraph.node_count()
        start = len(evaluator.lines)
        errors: List[str] = []
        for command in commands[first_run:]:
            try:
                with tracer.span(self.span_of[type(command)]):
                    evaluator.execute(command)
            except self.FrontendError as error:
                errors.append(str(error))
        lines = evaluator.lines[start:]
        costs = self._verify(lines, errors)
        nodes = evaluator.egraph.node_count()
        return {
            "ops": len(commands) - first_run,
            "failed": len(errors),
            "errors": errors,
            "report": evaluator.report,
            "counts": {
                "commands": len(commands),
                "nodes": nodes,
                "rows_added": nodes - nodes_before,
                "extract_costs": costs,
            },
        }

    def _verify(self, lines: List[str], errors: List[str]) -> List[int]:
        checks = [line for line in lines if line.startswith("check: ")]
        extracts = [line for line in lines if line.startswith("extract: ")]
        bad_checks = [line for line in checks if not line.startswith("check: ok")]
        errors.extend(f"check answered {line!r}" for line in bad_checks)
        if len(checks) != len(self.program.checks) or len(extracts) != len(self.asked):
            errors.append(f"expected {len(self.program.checks)} checks and {len(self.asked)} "
                          f"extracts, printed {len(checks)} and {len(extracts)}")
        costs = []
        for line, asked in zip(extracts, self.asked):
            term_text, _, cost_text = line[len("extract: "):].rpartition(" (cost ")
            cost = int(cost_text.rstrip(")"))
            costs.append(cost)
            if gen.term_cost(gen.parse_term(term_text), gen.MATH_COSTS) != cost:
                errors.append(f"extracted term does not cost {cost}: {line!r}")
            if cost > asked:
                errors.append(f"extract cost {cost} exceeds the asked term's {asked}")
        return costs


WORKLOADS = {"datalog-closure": DatalogClosure, "eqsat-extract": EqsatExtract}


def repetition(workload: Any, tracer: Tracer, meter: GcMeter) -> Dict[str, Any]:
    """One set-up plus timed phase, with GC collected before each, between
    two calibrations that give the machine's speed while it ran."""
    gc.collect()
    calibration = calibrate()
    gc.collect()
    begin = time.perf_counter()
    state = workload.setup(tracer)
    setup_s = time.perf_counter() - begin
    gc.collect()
    gc_before = meter.reading()
    begin = time.perf_counter()
    outcome = workload.timed(state, tracer)
    run_s = time.perf_counter() - begin
    gc_after = meter.reading()
    gc.collect()
    calibration += calibrate()
    report = outcome.pop("report")
    outcome.update(
        speed=2 * CAL_REFERENCE_S / calibration,
        setup_s=setup_s,
        run_s=run_s,
        gc_s=gc_after[0] - gc_before[0],
        search_s=report.search_time,
        apply_s=report.apply_time,
        rebuild_s=report.rebuild_time,
    )
    outcome["counts"].update(
        iterations=report.iterations,
        matches=report.num_matches,
        delta_skips=report.delta_skips,
        gc_collections=gc_after[1] - gc_before[1],
    )
    return outcome


def repeat(workload: Any, tracer: Tracer, meter: GcMeter, seconds: float) -> List[Dict[str, Any]]:
    reps: List[Dict[str, Any]] = []
    begin = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - begin < seconds:
        tracer.run = len(reps)
        reps.append(repetition(workload, tracer, meter))
    return reps


def scaled(reps: List[Dict[str, Any]], key: str) -> List[float]:
    """``key`` of each repetition at the reference machine speed."""
    return [rep[key] * rep["speed"] for rep in reps]


def layer_metrics(reps: List[Dict[str, Any]], tracer: Tracer) -> Dict[str, float]:
    """Per-layer medians over the traced repetitions."""
    counts = reps[0]["counts"]

    extract = tracer.per_run("engine.extract")
    check = tracer.per_run("engine.check")

    def spans(name: str) -> float:
        return median(list(tracer.per_run(name).values()))

    unattributed = [
        rep["run_s"] - rep["search_s"] - rep["apply_s"] - rep["rebuild_s"]
        - extract.get(run, 0.0) - check.get(run, 0.0)
        for run, rep in enumerate(reps)
    ]
    return {
        "frontend.parse_s": spans("frontend.parse"),
        "frontend.commands": counts.get("commands", 0),
        "frontend.lower_s": spans("frontend.lower"),
        "engine.search_s": median([rep["search_s"] for rep in reps]),
        "engine.apply_s": median([rep["apply_s"] for rep in reps]),
        "engine.rebuild_s": median([rep["rebuild_s"] for rep in reps]),
        "engine.iterations": counts["iterations"],
        "engine.matches": counts["matches"],
        "engine.delta_skips": counts["delta_skips"],
        "engine.nodes": counts["nodes"],
        "engine.rows_added": counts["rows_added"],
        "engine.rows_per_match": counts["rows_added"] / max(1, counts["matches"]),
        "engine.extract_s": spans("engine.extract"),
        "engine.extracts": len(counts.get("extract_costs", ())),
        "engine.check_s": spans("engine.check"),
        "engine.unattributed_s": median(unattributed),
        "python.gc_s": median([rep["gc_s"] for rep in reps]),
        "python.gc_collections": median([rep["counts"]["gc_collections"] for rep in reps]),
    }


def main(argv: List[str]) -> int:
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    use_source()
    workload = WORKLOADS[name](seed)
    meter = GcMeter()
    with meter:
        warm_up = repetition(workload, Tracer(False), meter)  # imports, lazy set-up
        untraced = repeat(workload, Tracer(False), meter, seconds / 2 if trace else seconds)
        reps = [warm_up] + untraced
        summary: Dict[str, Any] = {}
        if trace:
            tracer = Tracer(True)
            traced = repeat(workload, tracer, meter, seconds / 2)
            reps += traced
            summary["layers"] = layer_metrics(traced, tracer)
            summary["layers"]["trace.overhead_ratio"] = median(
                scaled(traced, "run_s")
            ) / median(scaled(untraced, "run_s"))
            trace_path = os.path.join(out_dir("traces"), f"{name}-{seed}.jsonl")
            tracer.write(trace_path)
            summary["trace_path"] = os.path.relpath(trace_path)
    ops = sum(rep["ops"] for rep in untraced)
    summary.update(
        setup_s=median(scaled(untraced, "setup_s")),
        run_s=median(scaled(untraced, "run_s")),
        requests_per_s=ops / sum(scaled(untraced, "run_s")),
        raw_run_s=median([rep["run_s"] for rep in untraced]),
        speed=median([rep["speed"] for rep in untraced]),
        peak_rss_mb=peak_rss_mb(),
        reps=len(untraced),
        samples={
            "setup_s": [rep["setup_s"] for rep in untraced],
            "run_s": [rep["run_s"] for rep in untraced],
        },
        attempted=sum(rep["ops"] for rep in reps),
        failed=sum(rep["failed"] for rep in reps),
        errors=[error for rep in reps for error in rep["errors"]][:20],
        sizes=workload.sizes,
        counts=untraced[0]["counts"],
        # Traced repetitions allocate spans, which can shift GC counts, so
        # each group is compared within itself.
        unsteady_counts=sorted(
            set(mismatches([rep["counts"] for rep in untraced]))
            | set(mismatches([rep["counts"] for rep in reps[1 + len(untraced):]]))
        ),
    )
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except HarnessError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        sys.exit(2)
