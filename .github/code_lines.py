"""Count the code lines of Python source files, the measure refactors are
judged by: lines that are not blank, a comment or part of a docstring, so
deleting comments reduces nothing.

    python .github/code_lines.py src/mprtc/*.py

Prints one count per file and the total, inside a Markdown code fence.
"""

import ast
import io
import sys
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            code.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(code)


def main(paths) -> None:
    total = 0
    print("```")
    for path in paths:
        with open(path) as f:
            count = code_lines(f.read())
        total += count
        print(f"{count:5d} code lines  {path}")
    print(f"{total:5d} code lines  total")
    print("```")


if __name__ == "__main__":
    main(sys.argv[1:])
