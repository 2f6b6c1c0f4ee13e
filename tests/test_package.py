import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "scalareq"

# exported for readers outside the program: lyapunov_v1 and
# disagreement_basis are the diagnostics of acceptance criteria 10 and 11,
# parse_trace and parse_results read the two formats serialize writes
KEEP = {"lyapunov_v1", "disagreement_basis", "parse_trace", "parse_results"}


def _exports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [a.asname or a.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for a in node.names]


def _names_read_in_src():
    """Every name the package modules load or read as an attribute; a
    def, a class statement or an import is not a read."""
    read = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def _names_used_in_bench():
    """Every name the benchmark takes from the package: a scalareq.<name>
    read or a 'from scalareq... import <name>'. A mention in a string or
    a comment is not a use."""
    used = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id == "scalareq":
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scalareq":
                used.update(a.name for a in node.names)
    return used


def test_every_export_is_used_or_kept():
    exports = _exports()
    assert KEEP <= set(exports)
    used = _names_read_in_src() | _names_used_in_bench()
    unused = [name for name in exports if name not in KEEP and name not in used]
    assert unused == [], f"exported but used neither in src/ nor in perfbench/: {unused}"
