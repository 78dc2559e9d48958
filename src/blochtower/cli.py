"""Command-line front end.

Four subcommands: ``prebloch`` (invariants of the pre-Bloch, Bloch and
refined Bloch groups of one finite field), ``verify`` (the identity sweeps),
``laurent-fuzz`` (the specialization well-definedness harness), and
``tower`` (hypothesis checklist plus predicted decomposition for a tower).

Reports are JSON by default (schema version 1) with a plain-text
alternative.  For a fixed configuration and seed the JSON is byte-identical
across runs except for the ``timing`` block, which consumers must ignore
when comparing.  Exit codes: 0 success, 1 a check failed, 2 bad usage or
configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from . import __version__
from .bloch_core import bloch_invariants, prebloch_presentation, refined_bloch, run_suite
from .finite_field import FieldBoundError, FieldSpec, parse_field_spec
from .laurent import DEFAULT_SEED, MAX_PRECISION, MAX_SAMPLES, fuzz_specialization

SCHEMA_VERSION = 1

#: Largest ``tower --levels`` accepted.  The census ledger has 2^(r+n) rows,
#: so its cost grows 4x per level: at 12 levels over F_5 the command takes
#: 0.3 s, peaks at 38 MB and writes a 2.8 MB report; at 14 levels, 1.4 s,
#: 107 MB and 12 MB (Python 3.11, 2-vCPU x86 box).
MAX_LEVELS = 12


class ConfigError(ValueError):
    """Bad command-line configuration; maps to exit code 2."""


def _parse_field(text: str) -> FieldSpec:
    try:
        return parse_field_spec(text)
    except FieldBoundError as exc:
        raise ConfigError(str(exc)) from exc
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid field spec {text!r}: {exc}") from exc


def _report(command: str, config: dict, checks: list[dict], started: float) -> dict:
    status = "ok" if all(c.get("status") != "fail" for c in checks) else "check_failed"
    return {
        "schema": SCHEMA_VERSION,
        "tool": {"name": "blochtower", "version": __version__},
        "command": command,
        "config": config,
        "status": status,
        "checks": checks,
        "timing": {"seconds": round(time.monotonic() - started, 6)},
    }


def _emit(report: dict, fmt: str, out: Optional[str]) -> None:
    if fmt == "json":
        text = json.dumps(report, indent=2) + "\n"
    else:
        lines = [
            f"blochtower {report['tool']['version']} - {report['command']} [{report['status']}]",
            f"config: {json.dumps(report['config'])}",
        ]
        for check in report["checks"]:
            data = {k: v for k, v in check.items() if k not in ("name", "status")}
            lines.append(f"  [{check['status']:>12}] {check['name']}: {json.dumps(data)}")
        lines.append(f"elapsed: {report['timing']['seconds']}s")
        text = "\n".join(lines) + "\n"
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write report to {out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_prebloch(args) -> tuple[dict, int]:
    started = time.monotonic()
    F = _parse_field(args.q)
    pre = prebloch_presentation(F).invariants()
    bloch = bloch_invariants(F)
    refined = refined_bloch(F)
    checks = [
        {
            "name": "prebloch_invariants",
            "status": "computed",
            "integral": pre.to_json(),
            "odd": pre.odd_part().to_json(),
        },
        {
            "name": "bloch_invariants",
            "status": "computed",
            "integral": bloch.to_json(),
            "odd": bloch.odd_part().to_json(),
        },
        {
            "name": "refined_bloch_per_character",
            "status": "computed",
            "eigenspaces": [
                {"character": chi.name, "signs": chi.signs(), "odd_invariants": inv.to_json()}
                for chi, inv in refined.items()
            ],
        },
    ]
    report = _report("prebloch", {"q": F.spec_string()}, checks, started)
    return report, 0


def _cmd_verify(args) -> tuple[dict, int]:
    started = time.monotonic()
    F = _parse_field(args.q)
    results = run_suite(F, args.suite)
    checks = [r.to_json() for r in results]
    report = _report("verify", {"q": F.spec_string(), "suite": args.suite}, checks, started)
    return report, 0 if all(r.ok for r in results) else 1


def _cmd_laurent_fuzz(args) -> tuple[dict, int]:
    started = time.monotonic()
    F = _parse_field(args.q)
    if F.q % 2 == 0:
        raise ConfigError("the residue field must have odd q")
    if args.precision < 2:
        raise ConfigError("precision must be at least 2")
    if args.precision > MAX_PRECISION:
        raise ConfigError(f"precision {args.precision} exceeds the bound {MAX_PRECISION}")
    if args.samples < 0:
        raise ConfigError("samples must be nonnegative")
    if args.samples > MAX_SAMPLES:
        raise ConfigError(f"samples {args.samples} exceeds the bound {MAX_SAMPLES}")
    fuzz = fuzz_specialization(F, args.precision, args.samples, args.seed)
    rate_ok = fuzz.samples == 0 or fuzz.inconclusive_rate < 0.05
    checks = [
        {"name": "specialization_fuzz", "status": "pass" if not fuzz.failures else "fail", **fuzz.to_json()},
        {
            "name": "inconclusive_rate",
            "status": "pass" if rate_ok else "fail",
            "rate": fuzz.inconclusive_rate,
            "bound": 0.05,
        },
    ]
    config = {
        "q": F.spec_string(),
        "precision": args.precision,
        "samples": args.samples,
        "seed": args.seed,
    }
    report = _report("laurent-fuzz", config, checks, started)
    return report, 0 if (not fuzz.failures and rate_ok) else 1


def _cmd_tower(args) -> tuple[dict, int]:
    # imported here: no other command reads the tower module
    from .tower import TowerSpec, census_matches_exponents, eigenspace_ledger, predict

    started = time.monotonic()
    if args.base in ("real-closed", "quadratically-closed"):
        base = args.base
    else:
        base = _parse_field(args.base)
    if args.levels < 0:
        raise ConfigError("levels must be nonnegative")
    if args.levels > MAX_LEVELS:
        raise ConfigError(f"levels {args.levels} exceeds the bound {MAX_LEVELS}")
    spec = TowerSpec(base, args.levels)
    report_data = predict(spec)
    ledger = eigenspace_ledger(spec)
    census_ok = census_matches_exponents(spec)
    checks = [
        {"name": f"hypothesis_{h.index}", "status": h.status, "condition": h.name, "note": h.note}
        for h in report_data.hypotheses
    ]
    checks.append(
        {
            "name": "decomposition",
            "status": "computed",
            "summands": [s.to_json() for s in report_data.summands],
            "exponents": list(report_data.exponents),
            "surjection_only": report_data.surjection_only,
            "rsq_order": report_data.rsq_order,
            "rsq_note": report_data.rsq_note,
            "constant_module_dimension": report_data.constant_module_dimension,
            "notes": list(report_data.notes),
        }
    )
    checks.append(
        {
            "name": "eigenspace_census",
            "status": "pass" if census_ok else "fail",
            "ledger": ledger.to_json(),
        }
    )
    report = _report("tower", spec.to_json(), checks, started)
    return report, 0 if census_ok else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blochtower",
        description="Exact Bloch-group computations for finite fields and tower decomposition predictions.",
    )
    parser.add_argument("--version", action="version", version=f"blochtower {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json", help="report format")
    common.add_argument("--out", metavar="PATH", default=None, help="write the report to PATH instead of stdout")

    p = sub.add_parser("prebloch", parents=[common], help="invariants of P, B and refined B of one finite field")
    p.add_argument("--q", required=True, help='field size, e.g. "5", "9" or "3^2"')
    p.set_defaults(func=_cmd_prebloch)

    v = sub.add_parser("verify", parents=[common], help="run the identity sweeps for one finite field")
    v.add_argument("--q", required=True, help='field size, e.g. "7"')
    v.add_argument(
        "--suite",
        default="all",
        choices=("all", "lambda", "suslin", "constants", "df", "pb"),
        help="which sweep to run",
    )
    v.set_defaults(func=_cmd_verify)

    f = sub.add_parser("laurent-fuzz", parents=[common], help="specialization well-definedness fuzz harness")
    f.add_argument("--q", required=True, help="odd residue field size")
    f.add_argument("--precision", type=int, default=64, help=f"tracked coefficients per series, 2 to {MAX_PRECISION}")
    f.add_argument("--samples", type=int, default=500, help=f"number of conclusive samples to collect, 0 to {MAX_SAMPLES}")
    f.add_argument("--seed", type=int, default=DEFAULT_SEED, help="fuzz seed (echoed in the report)")
    f.set_defaults(func=_cmd_laurent_fuzz)

    t = sub.add_parser("tower", parents=[common], help="hypotheses and predicted decomposition for a tower")
    t.add_argument(
        "--base",
        required=True,
        help='base field: a size like "5", or "real-closed" / "quadratically-closed"',
    )
    t.add_argument("--levels", type=int, required=True, help=f"number of Laurent levels, 0 to {MAX_LEVELS}")
    t.set_defaults(func=_cmd_tower)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report, code = args.func(args)
        _emit(report, args.format, args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
