"""The README's "Python API in one minute" block runs and prints what its
comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def api_example():
    section = README.read_text().split("## Python API in one minute", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_api_example_prints_its_comments():
    source = api_example()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert printed == ["(2, 8)", "1.0"]
    comments = [
        line.split("#", 1)[1].strip()
        for line in source.splitlines()
        if line.startswith("print(")
    ]
    assert len(comments) == len(printed)
    for comment, value in zip(comments, printed):
        assert comment.startswith(value), (comment, value)
