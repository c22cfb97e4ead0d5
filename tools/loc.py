"""Print the source lines and code lines of each module of src/thickrep.

Code lines are the lines that hold a token other than a comment, leaving
out blank lines, comment lines and the lines of docstrings (the string
that opens a module, class or function).  Standard library only:

    python tools/loc.py [package directory]
"""

import ast
import io
import pathlib
import sys
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "thickrep"


def docstring_lines(tree):
    """The line numbers spanned by the docstrings of `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source):
    """(source lines, code lines) of one module's text."""
    code = set()
    skip = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING)
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in skip:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring_lines(ast.parse(source))
    return len(source.splitlines()), len(code)


def main(argv):
    package = pathlib.Path(argv[1]) if len(argv) > 1 else PACKAGE
    total_source = total_code = 0
    print("%-20s %8s %8s" % ("module", "source", "code"))
    for path in sorted(package.glob("*.py")):
        source, code = count(path.read_text(encoding="utf-8"))
        total_source += source
        total_code += code
        print("%-20s %8d %8d" % (path.stem, source, code))
    print("%-20s %8s %8s" % ("total", format(total_source, ","), format(total_code, ",")))


if __name__ == "__main__":
    main(sys.argv)
