"""The package has no library code that only the tests call, and only the
command line decides configuration errors.

Every public top-level function and every public method of a top-level
class in ``src/dashssl`` must be named somewhere in the program: in the
package itself or in a benchmark script (``benchmarks/*.py`` other than
its tests).  A name counts where it is read, as a bare name or as an
attribute; its own ``def`` does not count.

Only ``cli.py`` raises ``ConfigError`` by name: each command decides its
inputs there, before it writes anything.  The library's own checks raise
``ValueError``, which the command line reports under the key it built.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "dashssl").glob("*.py"))
PROGRAM = PACKAGE + sorted(p for p in (ROOT / "benchmarks").glob("*.py")
                           if not p.name.startswith("test_"))


def public_definitions(tree):
    """Names of the public top-level functions and methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name
        elif isinstance(node, ast.ClassDef):
            yield from (f"{node.name}.{item.name}" for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))


def referenced_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_public_definition_has_a_program_caller():
    used = set()
    for path in PROGRAM:
        used.update(referenced_names(ast.parse(path.read_text(), str(path))))
    unused = []
    for path in PACKAGE:
        for qualname in public_definitions(ast.parse(path.read_text(), str(path))):
            name = qualname.rsplit(".", 1)[-1]
            if not name.startswith("_") and name not in used:
                unused.append(f"{path.stem}.{qualname}")
    assert not unused, f"only the tests call: {unused}"


def test_only_the_cli_raises_config_error():
    raisers = []
    for path in PACKAGE:
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                func = node.exc.func
                if getattr(func, "id", getattr(func, "attr", None)) == "ConfigError":
                    raisers.append(f"{path.name}:{node.lineno}")
    assert not raisers, f"ConfigError raised outside the command line: {raisers}"
