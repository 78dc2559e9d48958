"""Correctness gate for blochtower reports.

Every report a workload produces passes two checks:

* Facts from the paper, computed here and never read back from the
  program: ``B(F_q)`` is cyclic of order (q+1)/2 for odd q and q+1 for even
  q; every nontrivial refined eigenspace is trivial; every sweep passes;
  the order of c is 1 when X^2 - X + 1 has a root in F_q and 3 otherwise;
  the fuzz has no failures and an inconclusive rate below 0.05.
* Byte identity outside the ``timing`` block with the report of the seed
  implementation for the same command.  The seed implementation is a frozen
  copy of the package in ``perfbench/seed_reference``; its reports are
  computed once per checkout and cached under ``.perfbench/reference``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SEED_REFERENCE = Path(__file__).resolve().parent / "seed_reference"
INCONCLUSIVE_BOUND = 0.05


def field_size(spec: str) -> int:
    """q from the report's "p^m" field string ("37", "3^3")."""
    p, _, m = spec.partition("^")
    return int(p) ** int(m or 1)


def bloch_order(q: int) -> int:
    return (q + 1) // 2 if q % 2 else q + 1


def c_order(q: int) -> int:
    """Order of c: 1 if X^2 - X + 1 has a root in F_q, else 3.

    Its roots are the primitive sixth roots of unity (char > 3), the
    primitive cube roots of unity (char 2) or -1 (char 3), so a root exists
    exactly when q is not 2 mod 3.
    """
    return 3 if q % 3 == 2 else 1


def _cyclic(invariants: dict, order: int) -> bool:
    return invariants == {"factors": [order] if order > 1 else [], "free_rank": 0}


def fact_problems(report: dict) -> list[str]:
    """Paper facts the report must satisfy; an empty list means it passes."""
    command = report.get("command")
    checks = {c.get("name"): c for c in report.get("checks", [])}
    problems = []
    if command == "prebloch":
        q = field_size(report["config"]["q"])
        bloch = checks.get("bloch_invariants", {}).get("integral")
        if not _cyclic(bloch, bloch_order(q)):
            problems.append(f"q={q}: B(F_q) is {bloch}, expected cyclic of order {bloch_order(q)}")
        eigenspaces = checks.get("refined_bloch_per_character", {}).get("eigenspaces", [])
        if not eigenspaces:
            problems.append(f"q={q}: no refined eigenspaces reported")
        for space in eigenspaces:
            if any(s != 1 for s in space["signs"]) and not _cyclic(space["odd_invariants"], 1):
                problems.append(f"q={q}: eigenspace {space['character']} is nontrivial")
    elif command == "verify":
        if not checks:
            problems.append("no sweeps reported")
        for name, check in checks.items():
            if check.get("status") != "pass":
                problems.append(f"sweep {name} has status {check.get('status')!r}")
    elif command == "laurent-fuzz":
        fuzz = checks.get("specialization_fuzz", {})
        attempts = fuzz.get("attempts", 0)
        if fuzz.get("failures") != []:
            problems.append(f"fuzz failures: {fuzz.get('failures')}")
        if fuzz.get("samples") != report["config"]["samples"]:
            problems.append("fuzz sample count differs from the request")
        if not attempts or fuzz.get("inconclusive", 0) / attempts >= INCONCLUSIVE_BOUND:
            problems.append(f"inconclusive rate {fuzz.get('inconclusive')}/{attempts} is not below {INCONCLUSIVE_BOUND}")
    else:
        problems.append(f"unexpected command {command!r}")
    if report.get("status") != "ok":
        problems.append(f"report status is {report.get('status')!r}")
    return problems


def without_timing(report: dict) -> str:
    """The report as the CLI writes it, minus the ``timing`` block."""
    return json.dumps({k: v for k, v in report.items() if k != "timing"}, indent=2) + "\n"


def check_report(text: str, reference: str) -> list[str]:
    """Gate one report against the paper facts and the seed reference text."""
    try:
        report = json.loads(text)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    if not isinstance(report, dict) or not isinstance(report.get("timing"), dict):
        return ["report has no timing block"]
    try:
        problems = fact_problems(report)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        problems = [f"report is malformed: {exc!r}"]
    if without_timing(report) != without_timing(json.loads(reference)):
        problems.append("report differs from the seed reference outside the timing block")
    return problems


def reference_report(cache_dir: Path, argv: list[str]) -> str:
    """The seed implementation's report for ``argv``, computed once and cached."""
    path = cache_dir / ("_".join(a.lstrip("-") for a in argv) + ".json")
    if not path.exists():
        cache_dir.mkdir(parents=True, exist_ok=True)
        partial = path.with_suffix(".partial")
        env = dict(os.environ, PYTHONPATH=str(SEED_REFERENCE))
        subprocess.run(
            [sys.executable, "-m", "blochtower.cli", *argv, "--out", str(partial)],
            env=env, check=True, timeout=170, stdout=subprocess.DEVNULL,
        )
        partial.replace(path)
    return path.read_text(encoding="utf-8")
