"""Every function of the package is entered by some CLI command.

The four commands run through ``cli.main`` under ``sys.settrace`` in a fresh
interpreter, over odd, even and prime-power fields, both report formats, the
numeric and symbolic towers and the refused inputs.  A function compiled
from ``src/blochtower/*.py`` that none of them enters is a second path or a
helper only tests use: it belongs in ``tests/oracle.py`` or nowhere, unless
it is on the allow-list below.  Input refusals are branches inside entered
functions and are not counted.

The run is a subprocess because the package's ``lru_cache``s would hide
entries already made by other tests, and because the test session wraps
``_smith_quotient`` and ``smith_normal_form`` with checks (``conftest.py``)
that would enter functions, such as ``IntMatrix.__matmul__``, that no
command does.
"""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import blochtower

PACKAGE = Path(blochtower.__file__).resolve().parent

# Qualified names (module.qualname) no command enters, one comment per reason.
NOT_ENTERED = {
    # public API the acceptance suite and its tests use; IntMatrix.__init__
    # and IntMatrix.diagonal are reached only through smith_normal_form
    "exact_linalg.smith_normal_form",
    "exact_linalg.hermite_normal_form",
    "exact_linalg.IntMatrix.__init__",
    "exact_linalg.IntMatrix.diagonal",
    "exact_linalg.IntMatrix.to_rows",
    "exact_linalg.IntMatrix.__matmul__",
    "exact_linalg.IntMatrix.__eq__",
    "group_ring.idempotent",
    "group_ring.group_idempotent",
    "bloch_core.df_module",
    # read by name by perfbench/traced_cli.py
    "bloch_core.refined_presentation",
    "group_ring.character_specialize",
    "laurent.SpecializationTarget.is_zero_vector",
    "exact_linalg.IntMatrix.entries",
    "group_ring.z_expand",  # spanned, and applied to refined_presentation's result
    "group_ring.RModulePresentation.__init__",  # the type refined_presentation returns
}
# every __repr__ is exempt: they feed failure messages

# (argv, expected exit code); "OUT" becomes a report path, "MISSING" one in a missing directory
COMMANDS = [
    *[(["prebloch", "--q", q, "--out", "OUT"], 0) for q in ("2", "3", "4", "5", "9", "13")],
    *[(["verify", "--q", q, "--suite", "all", "--out", "OUT"], 0) for q in ("2", "3", "4", "5", "9", "13")],
    (["laurent-fuzz", "--q", "5", "--precision", "64", "--samples", "200", "--out", "OUT"], 0),
    (["laurent-fuzz", "--q", "31", "--precision", "8", "--samples", "200", "--out", "OUT"], 0),
    (["tower", "--base", "5", "--levels", "3", "--out", "OUT"], 0),
    (["tower", "--base", "real-closed", "--levels", "2", "--out", "OUT"], 0),
    (["prebloch", "--q", "7", "--format", "text"], 0),
    (["verify", "--q", "7", "--suite", "lambda", "--format", "text"], 0),
    (["laurent-fuzz", "--q", "3", "--precision", "16", "--samples", "50", "--format", "text"], 0),
    (["tower", "--base", "quadratically-closed", "--levels", "1", "--format", "text"], 0),
    (["prebloch", "--q", "6"], 2),
    (["prebloch", "--q", "2305843009213693951"], 2),
    (["laurent-fuzz", "--q", "4"], 2),
    (["tower", "--base", "5", "--levels", "13"], 2),
    (["prebloch", "--q", "5", "--out", "MISSING"], 2),
]

# Runs the commands under the tracer and writes the entered functions as
# [file name, first line, name] triples.
SCRIPT = """
import json, sys

package, out, commands = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
entered = set()

def tracer(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(package):
        entered.add((code.co_filename[len(package) + 1:], code.co_firstlineno, code.co_name))

sys.settrace(tracer)  # before the import, so class creation hooks count
from blochtower import cli
codes = [cli.main(argv) for argv, _ in commands]
sys.settrace(None)
with open(out, "w", encoding="utf-8") as fh:
    json.dump({"codes": codes, "entered": sorted(entered)}, fh)
"""


def _functions(code, prefix=""):
    """(first line, name) -> qualified name of every def in a code object, nested ones too."""
    out = {}
    for const in code.co_consts:
        if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
            name = prefix + const.co_name
            if const.co_flags & 0x2:  # CO_NEWLOCALS: a function, not a class body
                out[(const.co_firstlineno, const.co_name)] = name
            out.update(_functions(const, name + "."))
    return out


def _defined():
    """(file name, first line, name) -> module.qualname of every package function."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        for (line, name), qualname in _functions(code).items():
            out[(path.name, line, name)] = f"{path.stem}.{qualname}"
    return out


def _entered(tmp_path):
    paths = {"OUT": tmp_path / "report.json", "MISSING": tmp_path / "missing" / "report.json"}
    commands = [([str(paths.get(a, a)) for a in argv], code) for argv, code in COMMANDS]
    result = tmp_path / "entered.json"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(PACKAGE), str(result), json.dumps(commands)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(result.read_text(encoding="utf-8"))
    assert data["codes"] == [code for _, code in commands]
    return {tuple(key) for key in data["entered"]}


def test_every_function_is_entered(tmp_path):
    defined = _defined()
    # a nested function is counted on its own
    assert "laurent.five_term_heads.ratio" in defined.values()
    entered = _entered(tmp_path)
    missed = [
        f"{file}:{line} {name}"
        for (file, line, short), name in sorted(defined.items())
        if (file, line, short) not in entered and name not in NOT_ENTERED and short != "__repr__"
    ]
    assert not missed, "no command enters:\n" + "\n".join(missed)
    # and the allow-list names no function that is gone or that a command enters
    stale = NOT_ENTERED - {name for key, name in defined.items() if key not in entered}
    assert not stale, sorted(stale)
