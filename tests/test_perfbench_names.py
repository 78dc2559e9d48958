"""Every package name the traced benchmark run wraps must still resolve.

``perfbench/traced_cli.py`` wraps entry points by dotted path and reports a
metric as null when its path no longer resolves, so deleting or renaming a
wrapped name fails here instead of silently emptying a benchmark metric.
"""

from pathlib import Path

import blochtower.cli  # noqa: F401  (loads every module the paths name)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_wrapped_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import traced_cli

    paths = [path for path, _name in traced_cli.SPANNED + traced_cli.COUNTED]
    assert paths
    assert [path for path in paths if traced_cli._resolve(path) is None] == []
