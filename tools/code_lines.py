"""Code lines per module of a source tree: lines with a token that is neither
a comment nor a docstring.  Usage: python3 tools/code_lines.py [root=src]"""

import pathlib
import sys
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
STARTS = {tokenize.ENCODING, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def code_lines(path: pathlib.Path) -> int:
    lines, prev = set(), tokenize.ENCODING
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            # a string that opens a logical line is a docstring
            if tok.type not in SKIP and not (tok.type == tokenize.STRING and prev in STARTS):
                lines.update(range(tok.start[0], tok.end[0] + 1))
            if tok.type not in (tokenize.COMMENT, tokenize.NL):
                prev = tok.type
    return len(lines)


root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "src")
counts = {p: code_lines(p) for p in sorted(root.rglob("*.py"))}
for p, n in counts.items():
    print(f"{n:6d}  {p}")
print(f"{sum(counts.values()):6d}  total")
