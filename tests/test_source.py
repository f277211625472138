"""Static checks on the library source."""

import ast
import pathlib

import spherecurve

SRC = pathlib.Path(spherecurve.__file__).parent


def broad_handlers(tree):
    """Line numbers of bare `except:` and `except Exception` clauses,
    alone or in a tuple."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        if any(c is None or (isinstance(c, ast.Name) and c.id in ("Exception", "BaseException"))
               for c in caught):
            yield node.lineno


class TestExceptClauses:
    def test_no_broad_handlers(self):
        found = [f"{path.name}:{line}"
                 for path in sorted(SRC.glob("*.py"))
                 for line in broad_handlers(ast.parse(path.read_text()))]
        assert not found, f"catch the library's own errors instead: {found}"

    def test_detector_finds_broad_handlers(self):
        code = ("try:\n    pass\nexcept:\n    pass\n"
                "try:\n    pass\nexcept (ValueError, Exception):\n    pass\n"
                "try:\n    pass\nexcept ValueError:\n    pass\n")
        assert list(broad_handlers(ast.parse(code))) == [3, 7]
