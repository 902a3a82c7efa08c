"""Count the code lines of the package: lines that hold a token other than a
comment, a docstring or a blank.

    python3 tools/loc.py [DIR]

DIR defaults to src/ next to this script's directory.  Prints a count per
module and the total.  ast finds the docstrings, tokenize the code lines.
"""

import ast
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
# the nodes that can hold a docstring
OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    text = path.read_text()
    docs = set()  # (line, col) where each docstring starts
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, OWNERS) and ast.get_docstring(node) is not None:
            docs.add((node.body[0].lineno, node.body[0].col_offset))
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in SKIP and not (tok.type == tokenize.STRING
                                             and tok.start in docs):
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> None:
    root = Path(sys.argv[1] if len(sys.argv) > 1
                else Path(__file__).resolve().parent.parent / "src")
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
