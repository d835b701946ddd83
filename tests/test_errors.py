"""Static check on the library's raise statements."""

import ast
from pathlib import Path

from seldkit import errors


def test_every_raise_names_a_seld_error():
    # each raise in the package is a bare re-raise or `raise Name(...)` of a
    # SeldError subclass from seldkit.errors
    allowed = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, errors.SeldError)}
    sources = sorted(Path(errors.__file__).parent.glob("*.py"))
    assert len(sources) >= 8
    bad = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            if not (isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name)
                    and exc.func.id in allowed):
                bad.append(f"{path.name}:{node.lineno}: raise {ast.unparse(exc)[:60]}")
    assert not bad, "\n".join(bad)
