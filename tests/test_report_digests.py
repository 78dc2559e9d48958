"""Golden digests of CLI reports.

Each case runs ``cli.main`` in process and hashes what it printed: the JSON
report with its ``timing`` block removed (the only part that may change from
run to run), followed by stderr.  ``tests/data/report_digests.json`` holds the
exit code and that SHA-256 for every case.  A change that alters a report on
purpose regenerates the file with

    PYTHONPATH=src python tests/test_report_digests.py --write

and says which reports changed and why.
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent / "data" / "report_digests.json"


def prime_powers(limit):
    """Every prime power 2 <= q <= limit."""
    out = []
    for q in range(2, limit + 1):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        rest = q
        while rest % p == 0:
            rest //= p
        if rest == 1:
            out.append(q)
    return out


CASES = (
    [("verify", "--q", str(q), "--suite", "all") for q in prime_powers(37)]
    + [("prebloch", "--q", str(q)) for q in prime_powers(64)]
    + [
        ("laurent-fuzz", "--q", "5", "--precision", "64", "--samples", "1500"),
        ("laurent-fuzz", "--q", "31", "--precision", "8", "--samples", "2000"),
        ("tower", "--base", "5", "--levels", "3"),
        ("tower", "--base", "9", "--levels", "2"),
        ("tower", "--base", "real-closed", "--levels", "2"),
        ("tower", "--base", "2", "--levels", "1"),
        ("tower", "--base", "4", "--levels", "2"),
        ("tower", "--base", "3", "--levels", "1"),
        ("tower", "--base", "7", "--levels", "2"),
        ("tower", "--base", "5", "--levels", "0"),
        ("tower", "--base", "9", "--levels", "4"),
        ("tower", "--base", "real-closed", "--levels", "0"),
        ("tower", "--base", "quadratically-closed", "--levels", "1"),
        ("prebloch", "--q", "6"),
        ("laurent-fuzz", "--q", "4"),
    ]
)


def run_case(argv):
    """(exit code, SHA-256 of the report without ``timing``, then stderr)."""
    from blochtower.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    text = out.getvalue()
    if text:
        report = json.loads(text)
        del report["timing"]
        text = json.dumps(report, indent=2) + "\n"
    return code, hashlib.sha256((text + err.getvalue()).encode()).hexdigest()


def _digests():
    return {" ".join(argv): dict(zip(("exit", "sha256"), run_case(argv))) for argv in CASES}


def test_reports_match_golden_digests():
    expected = json.loads(DIGESTS.read_text())
    assert sorted(expected) == sorted(" ".join(argv) for argv in CASES)
    changed = [key for key, got in _digests().items() if got != expected[key]]
    assert not changed, f"reports differ from {DIGESTS.name}: {changed}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_report_digests.py --write")
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(_digests(), indent=2) + "\n")
