"""Every public top-level name in ``src/repro`` has a caller outside ``tests/``.

A public function, class or UPPER_CASE constant that only tests reach is
code the reproduction does not run.  It either gains a caller, moves into
``tests/`` (as a fixture or an oracle), or goes.  The scan is by AST over
``src/``, ``examples/``, ``benchmarks/``, ``perfbench/`` and ``setup.py``:
a name counts as used where it is loaded, read as an attribute, or spelled
inside a string that is neither a docstring nor an ``__all__`` entry
(``perfbench`` wraps functions by name).  A definition's own body does not
count, and neither do imports, so the re-exports of package ``__init__``
modules keep nothing alive.  Names are matched without their owner: a name
spelled elsewhere for another module or library (``np.dot``) counts as a
use, and methods are not checked at all.
"""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Set, Tuple

_ROOT = Path(__file__).resolve().parents[1]
_PACKAGE = _ROOT / "src" / "repro"
_CORPUS = [_ROOT / "src", _ROOT / "examples", _ROOT / "benchmarks", _ROOT / "perfbench"]
_UPPER = re.compile(r"^[A-Z][A-Z0-9_]*$")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Public names kept although nothing outside ``tests/`` reaches them,
#: keyed ``module.name``, each with the reason it stays.
ALLOWLIST: Dict[str, str] = {
    "repro.mobility.generator.REGIMES": (
        "the README's register_generated recipe looks regimes up by name in it"
    ),
}


def _corpus_files() -> List[Path]:
    files = [path for root in _CORPUS for path in sorted(root.rglob("*.py"))]
    return files + [_ROOT / "setup.py"]


def _uses(path: Path) -> List[Tuple[str, int]]:
    """``(name, line)`` for every use of a name in *path* (see the module docstring)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    skipped: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            skipped.add(id(node.value))  # docstrings and bare strings
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            skipped.update(id(sub) for sub in ast.walk(node.value))
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            uses.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            uses.append((node.attr, node.lineno))
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in skipped
        ):
            uses.extend((word, node.lineno) for word in _IDENT.findall(node.value))
    return uses


def _definitions() -> List[Tuple[str, Path, int, int]]:
    """``(module.name, path, first line, last line)`` of every public top-level name."""
    found = []
    for path in sorted(_PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(_ROOT / "src").with_suffix("").parts)
        module = module.removesuffix(".__init__")
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            names: List[str] = []
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            for name in names:
                is_def = not isinstance(node, (ast.Assign, ast.AnnAssign))
                if name.startswith("_") or not (is_def or _UPPER.match(name)):
                    continue
                found.append((f"{module}.{name}", path, node.lineno, node.end_lineno))
    return found


def _unreached() -> List[str]:
    """Qualified names used nowhere but in their own definition."""
    uses: Dict[str, List[Tuple[Path, int]]] = defaultdict(list)
    for path in _corpus_files():
        for name, line in _uses(path):
            uses[name].append((path, line))
    unreached = []
    for qualified, path, first, last in _definitions():
        name = qualified.rsplit(".", 1)[1]
        outside = [
            (where, line) for where, line in uses[name]
            if not (where == path and first <= line <= last)
        ]
        if not outside:
            unreached.append(qualified)
    return unreached


def test_every_public_name_has_a_caller_outside_tests():
    unreached = [name for name in _unreached() if name not in ALLOWLIST]
    assert not unreached, (
        "public names in src/ that only tests reach (give them a caller, move "
        f"them into tests/, delete them, or allowlist them with a reason): {unreached}"
    )


def test_allowlist_entries_are_live_and_give_a_reason():
    unreached = set(_unreached())
    for name, reason in ALLOWLIST.items():
        assert reason.strip(), f"{name}: the allowlist entry needs a reason"
        assert name in unreached, f"{name} is gone or has a caller now; drop its entry"
