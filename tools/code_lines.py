"""Print the code lines of each module of the package, and their total.

A code line is a line that holds a token other than a comment: blank lines,
comment lines and docstrings (the string that opens a module, class or
function body) do not count.  Every line of any other string counts, so the
kernel template sources are code.  A token that spans lines, such as a
triple-quoted string or a bracketed expression's continuation, counts each
line it covers.

Run it from a checkout, on a source tree::

    python3 tools/code_lines.py [SRC]

``SRC`` defaults to this checkout's ``src``; the modules are those of
``SRC/apf_rcbf``.  Lines are ``module count``, largest first, then
``total count``.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_starts(tree) -> set:
    """(row, col) of every docstring in the parsed module ``tree``."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of code lines of the Python ``source``."""
    docstrings = docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in NOT_CODE or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="?", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="source tree holding apf_rcbf (default: this checkout's src)")
    args = parser.parse_args(argv)
    counts = {path.stem: code_lines(path.read_text(encoding="utf-8"))
              for path in sorted((Path(args.src) / "apf_rcbf").glob("*.py"))}
    for name, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"{name} {count}")
    print(f"total {sum(counts.values())}")


if __name__ == "__main__":
    main()
