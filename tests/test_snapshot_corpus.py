"""Snapshot corpus: committed ``repro.snapshot/v1`` files as a compat gate.

Each file under ``tests/snapshots/`` was written by a builder below and
committed.  Every test run must still be able to (a) load it, (b) replay
its recorded schedule, (c) reproduce its recorded expected facts, and
(d) re-encode the loaded engine to the identical ``state`` section —
so a format or engine change that silently breaks old snapshots fails
here instead of in a user's workflow.  To regenerate after an
*intentional* format change (with a note in docs/PERSISTENCE.md, and a
schema bump if what the format records changed; a layout-only change
keeps every digest)::

    REPRO_REGEN_SNAPSHOTS=1 python -m pytest tests/test_snapshot_corpus.py

and review the diff before committing.
"""

import json
import os
import pathlib

import pytest

from repro.bench.replay import expected_block
from repro.bench.workloads import default_workloads
from repro.core.terms import App
from repro.engine import EGraph
from repro.engine.schedule import Run
from repro.frontend import Evaluator
from repro.frontend.cli import main as cli_main
from repro.serialize import (
    dumps_document,
    engine_document,
    engine_from_document,
    load_engine,
    read_document,
    save_engine,
)
from repro.serialize.encode import decode_schedule, encode_schedule

SNAPSHOT_DIR = pathlib.Path(__file__).parent / "snapshots"
REGEN_VAR = "REPRO_REGEN_SNAPSHOTS"


# ---------------------------------------------------------------------------
# Builders: one per committed snapshot, deterministic by construction
# ---------------------------------------------------------------------------


def _build_tc_chain() -> "tuple[EGraph, dict]":
    """Saturated transitive closure on a chain — the warm-start showcase."""
    workload = [w for w in default_workloads(quick=True) if w.name == "tc_chain"][0]
    engine = EGraph()
    workload.setup(engine)
    workload.run(engine)
    engine._ensure_canonical()
    return engine, {"schedule": encode_schedule(Run(50)), "expected": expected_block(engine)}


def _build_math_partial() -> "tuple[EGraph, dict]":
    """Math rewriting stopped mid-saturation; the replay finishes the run."""
    workload = [w for w in default_workloads(quick=True) if "math" in w.name][0]
    engine = EGraph()
    workload.setup(engine)
    engine.run(1)
    engine._ensure_canonical()
    # The expected facts describe the state *after* the replay schedule, so
    # dry-run it on a copy loaded from this exact document.
    schedule = Run(2)
    probe = engine_from_document(engine_document(engine))
    probe.run_schedule(schedule)
    expected = expected_block(probe)
    expected["saturated"] = False  # two more iterations do not saturate
    return engine, {"schedule": encode_schedule(schedule), "expected": expected}


def _build_congruence() -> "tuple[EGraph, dict]":
    """Unions over constructor towers: proof forest + congruence edges."""
    engine = EGraph()
    engine.declare_sort("M")
    engine.constructor("f", ("M",), "M")
    for leaf in ("a", "b", "c"):
        engine.constructor(leaf, (), "M")
        engine.add(App("f", App("f", App(leaf))))
    engine.union(App("a"), App("b"))
    engine.union(App("b"), App("c"))
    engine.rebuild()
    engine._ensure_canonical()
    return engine, {"schedule": encode_schedule(Run(1)), "expected": expected_block(engine)}


def _build_egg_globals() -> "tuple[EGraph, dict]":
    """A frontend session with globals — exercises the surfaces.egg block."""
    evaluator = Evaluator()
    evaluator.run_program(
        "(datatype Math (Num i64) (Add Math Math))\n"
        "(rewrite (Add (Num 0) x) x)\n"
        "(let one (Num 1))\n"
        "(let sum (Add (Num 0) one))\n"
        "(run 5)\n",
        "<corpus>",
    )
    evaluator.egraph._ensure_canonical()
    replay = {
        "schedule": encode_schedule(Run(5)),
        "expected": expected_block(evaluator.egraph),
    }
    return evaluator, replay


BUILDERS = {
    "tc_chain": _build_tc_chain,
    "math_partial": _build_math_partial,
    "congruence": _build_congruence,
    "egg_globals": _build_egg_globals,
}


def _render(name: str) -> str:
    """The exact on-disk bytes the builder for ``name`` produces today."""
    built, replay = BUILDERS[name]()
    if isinstance(built, Evaluator):
        # Route through the frontend's own save so the surfaces.egg block
        # is exactly what (save ...) writes, then splice in the replay
        # block (the .egg command has no replay argument).
        import tempfile

        with tempfile.TemporaryDirectory() as scratch:
            probe = os.path.join(scratch, "probe.json")
            built.save_snapshot(probe)
            probed = read_document(probe)
        document = engine_document(
            built.egraph, surfaces=probed.get("surfaces"), replay=replay
        )
    else:
        document = engine_document(built, replay=replay)
    return dumps_document(document)


def _write(name: str) -> pathlib.Path:
    path = SNAPSHOT_DIR / f"{name}.json"
    SNAPSHOT_DIR.mkdir(exist_ok=True)
    path.write_text(_render(name))
    return path


@pytest.fixture(scope="module", autouse=True)
def regenerate_if_requested():
    if os.environ.get(REGEN_VAR):
        for name in BUILDERS:
            _write(name)
    yield


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_corpus_file_exists(name):
    path = SNAPSHOT_DIR / f"{name}.json"
    assert path.exists(), (
        f"missing {path}; run {REGEN_VAR}=1 pytest tests/test_snapshot_corpus.py"
    )


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_corpus_loads_and_replays(name):
    path = SNAPSHOT_DIR / f"{name}.json"
    if not path.exists():
        pytest.skip(f"no committed snapshot {path.name}")
    engine, document = load_engine(str(path))
    _assert_replays(name, engine, document["replay"])


def _assert_replays(name, engine, replay):
    """Run the recorded schedule; the engine must reach the expected facts."""
    report = engine.run_schedule(decode_schedule(replay["schedule"]))
    expected = replay["expected"]
    assert report.saturated == expected["saturated"]
    assert engine.uf.n_unions == expected["n_unions"]
    for table, rows in expected["table_rows"].items():
        assert len(engine.tables[table]) == rows, f"{name}: table {table}"


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_corpus_state_reencodes_identically(name):
    """Load → re-encode must reproduce the committed state exactly.

    Compared at the ``state``/``surfaces`` level (not raw bytes) so a pure
    version-string bump in ``meta`` doesn't trip the gate; any change to
    what the format *records* still does.
    """
    path = SNAPSHOT_DIR / f"{name}.json"
    if not path.exists():
        pytest.skip(f"no committed snapshot {path.name}")
    committed = read_document(str(path))
    engine = engine_from_document(committed)
    fresh = engine_document(
        engine,
        surfaces=committed.get("surfaces"),
        replay=committed.get("replay"),
    )
    assert fresh["state"] == committed["state"]
    assert fresh.get("surfaces") == committed.get("surfaces")


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_corpus_matches_builders(name):
    """The committed file must be exactly what its builder writes today.

    This is the regen-discipline check (same pattern as the golden suite):
    if a change alters what a builder produces, the corpus file must be
    regenerated and reviewed in the same commit.
    """
    path = SNAPSHOT_DIR / f"{name}.json"
    if not path.exists():
        pytest.skip(f"no committed snapshot {path.name}")
    committed = path.read_text()
    assert _render(name) == committed, (
        f"{path.name} diverged from its builder; review and commit the "
        f"regenerated file ({REGEN_VAR}=1) if the change is intentional"
    )


def _write_indented(name: str, tmp_path) -> "tuple[pathlib.Path, str]":
    """The committed document in the indented layout earlier writers used;
    returns its path and the committed (compact) text."""
    committed = (SNAPSHOT_DIR / f"{name}.json").read_text()
    old = tmp_path / f"{name}.indented.json"
    old.write_text(json.dumps(json.loads(committed), indent=2, sort_keys=True) + "\n")
    return old, committed


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_indented_v1_files_still_load(name, tmp_path):
    """Files written before the compact layout (``indent=2``) carry the same
    digest: they validate, replay to their expected facts, and re-save to
    the committed compact bytes."""
    old, committed = _write_indented(name, tmp_path)
    document = read_document(str(old))
    engine, _ = load_engine(str(old))
    resaved = tmp_path / "resaved.json"
    save_engine(
        engine, str(resaved), surfaces=document.get("surfaces"), replay=document["replay"]
    )
    assert resaved.read_text() == committed
    _assert_replays(name, engine, document["replay"])


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_cli_rewrites_indented_files_compactly(name, tmp_path):
    """``python -m repro --load old --save new`` migrates the layout."""
    old, committed = _write_indented(name, tmp_path)
    new = tmp_path / "new.json"
    assert cli_main(["--load", str(old), "--save", str(new)]) == 0
    text = new.read_text()
    migrated = json.loads(text)
    assert text == dumps_document(migrated)
    assert text.count("\n") == 1
    assert migrated["state"] == json.loads(committed)["state"]
