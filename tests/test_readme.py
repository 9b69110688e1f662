"""The README's library tour runs as written.

The first ```python block of README.md is run statement by statement;
each expression statement whose line ends in a comment must print as
that comment.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs_as_written():
    source = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    comments = {tok.start[0]: tok.string.lstrip("#").strip()
                for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT}
    namespace = {}
    checked = {}
    for node in ast.parse(source).body:
        code = ast.get_source_segment(source, node)
        if isinstance(node, ast.Expr) and node.lineno in comments:
            checked[code] = str(eval(code, namespace))
            assert checked[code] == comments[node.lineno], code
        else:
            exec(code, namespace)
    assert checked == {
        "rank(g, d)": "2",
        'q_reduce(g, d, "P2")': "4·P2 + 1·P4",
        "report.galois_vertices": "('P1',)",
        "riemann_roch_check(g, d).holds": "True",
    }
