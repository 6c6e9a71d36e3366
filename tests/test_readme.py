"""The README's ``python`` examples run, and print what their comments say.

The blocks run in order in one namespace, as a reader would paste them.
"""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_as_commented():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    namespace, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    assert out.getvalue().splitlines()[0] == "1/2*a(0) + 1/2*a(1) + s(1)"
    summary = namespace["ideal"].summary()
    assert summary["kind"] == "pattern" and summary["quotient_dim"] == 6
    assert namespace["q"].dim == 6
