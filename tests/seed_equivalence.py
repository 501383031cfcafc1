"""Compare this tree's reports with the seed commit's on generated scenarios.

    python tests/seed_equivalence.py [--count 200]

The goldens, `perfbench/goldens.json` and the all-events reference of
`tests/test_per_packet_reference.py` each check the report against a copy of
what the seed did.  This script checks it against the seed commit `22b227a`
itself: it extracts the commit's `src/` with `git archive` into a temporary
directory, draws `--count` documents, half from `_document(s)` and half from
`_tie_document(s)` of `tests/test_random_scenarios.py` for s from 1000 on
(past the random suite's own seeds 0..39), runs them at both trees, each
tree in its own process, and compares `report_to_json` byte for byte (or the
exception a run raised, by type and message).  It needs the commit in the
clone's history (a full checkout, not a shallow one) and is not part of
tier-1.

One class of documents is left out, and each one is listed with the reason:
a bandwidth step that targets clients in a run with a shared path (a shared
egress or a master uplink).  Since `c5049ea` such a step changes only the
targeted clients' own paths, where the seed also stepped the shared path;
`test_targeted_bandwidth_step_spares_other_clients_and_shared_egress`
covers the new rule.  Any other difference is a defect of this tree, or a
deliberate rule change that has to be named here, with its reason.

Exits 0 when every compared report matches, 1 when one differs, and 2 when
the seed cannot be extracted or a tree fails to run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED_COMMIT = "22b227a"
FIRST_SEED = 1000


def _skip_reason(doc: dict) -> str | None:
    """Why the seed's report cannot match this tree's for `doc`, or None."""
    targeted = [step for step in doc.get("events") or () if step.get("clients") is not None]
    shared = "shared egress" if doc.get("shared_egress") else (
        "master uplink" if doc["topology"]["mode"] == "client_hosted" else None)
    if targeted and shared:
        return (f"a bandwidth step targets clients {targeted[0]['clients']} and the run has a {shared}, "
                "which such a step no longer changes")
    return None


def _documents(count: int) -> list[tuple[str, dict]]:
    """`count` documents, named by generator and seed, alternating the two generators."""
    sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "src")]  # the generators run on this tree
    from test_random_scenarios import _document, _tie_document

    docs = []
    for k in range(count):
        make, seed = (_document, _tie_document)[k % 2], FIRST_SEED + k // 2
        docs.append((f"{make.__name__}({seed})", make(seed)))
    return docs


def _worker(docs_file: str, out_file: str, src: str) -> int:
    """Run each document with the epicsim under `src`; write one outcome per document."""
    from epicsim import orchestrator

    if not Path(orchestrator.__file__).resolve().is_relative_to(Path(src).resolve()):
        sys.exit(f"epicsim imported from {orchestrator.__file__}, not from {src}")
    outcomes = []
    for doc in json.loads(Path(docs_file).read_text()):
        try:
            report = orchestrator.run_scenario(orchestrator.parse_scenario(doc)).report
            outcomes.append(orchestrator.report_to_json(report))
        except Exception as exc:  # compared with the other tree's outcome, not raised
            outcomes.append(f"{type(exc).__name__}: {exc}")
    Path(out_file).write_text(json.dumps(outcomes))
    return 0


def _run_tree(src: Path, docs_file: Path, out_file: Path) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, __file__, "--worker", str(docs_file), str(out_file), str(src)],
                   env=env, check=True)
    return json.loads(out_file.read_text())


def _extract(commit: str, into: Path) -> Path:
    """Extract `commit`'s src/ into `into`; returns the extracted src/."""
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", "--format=tar", commit, "src"],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise subprocess.CalledProcessError(archive.returncode, "git archive")
    return into / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=200, help="documents to compare (default 200)")
    parser.add_argument("--worker", nargs=3, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return _worker(*args.worker)

    docs = _documents(args.count)
    compared = []
    for name, doc in docs:
        reason = _skip_reason(doc)
        if reason is None:
            compared.append((name, doc))
        else:
            print(f"skipped {name}: {reason}")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        docs_file = tmp / "documents.json"
        docs_file.write_text(json.dumps([doc for _, doc in compared]))
        try:
            seed_src = _extract(SEED_COMMIT, tmp)
            here = _run_tree(ROOT / "src", docs_file, tmp / "here.json")
            seed = _run_tree(seed_src, docs_file, tmp / "seed.json")
        except subprocess.CalledProcessError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    differ = [name for (name, _), a, b in zip(compared, here, seed) if a != b]
    for name in differ:
        print(f"DIFFERS {name}")
    print(f"{len(compared) - len(differ)} of {len(compared)} reports identical to {SEED_COMMIT}'s, "
          f"{len(differ)} differ, {len(docs) - len(compared)} skipped")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
