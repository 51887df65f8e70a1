#!/usr/bin/env python3
"""Count the lines of src/ltensor/*.py: total lines, and code lines.

A code line is neither blank, nor comment-only, nor inside a docstring (found
by ast).  The script prints each module's counts and then the sum, so a
change can report its net change in code lines.  Run it from the repo root:

    python scripts/line_count.py
"""

import ast
import glob


def counts(text):
    """(total lines, code lines) of one module's source."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr) \
                and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
            docs.update(range(body[0].lineno, body[0].end_lineno + 1))
    lines = text.splitlines()
    code = sum(1 for i, line in enumerate(lines, 1)
               if line.strip() and not line.strip().startswith("#") and i not in docs)
    return len(lines), code


def main():
    total = code = 0
    for path in sorted(glob.glob("src/ltensor/*.py")):
        with open(path) as f:
            lines, module = counts(f.read())
        print(f"{path}: {lines} lines, {module} code lines")
        total += lines
        code += module
    print(f"src/ltensor: {total} lines, {code} code lines")


if __name__ == "__main__":
    main()
