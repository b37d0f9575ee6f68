"""How far apart two data_digest.py output trees are, file by file.

    python tools/data_diff.py OLD NEW

walks the two OUT trees that tools/data_digest.py wrote (manifests
excluded, as they carry timings) and prints one line per data file whose
bytes differ:

    <config>/<file>: <k> of <n> numeric fields differ, max rel <r>

Numbers are compared field by field as written, with the relative
difference |a - b| / max(|a|, |b|). Text that is not a number and differs
is printed as it is, as the lines that differ. A file in one tree only
is named as such. Exits 1 if any data file differs, 0 otherwise.
"""

import difflib
import re
import sys
from pathlib import Path

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf\b|\bnan\b")


def _data_files(root):
    return {p.relative_to(root).as_posix(): p for p in sorted(Path(root).rglob("*"))
            if p.is_file() and p.name != "manifest.json"}


def _split(text):
    """(the text with every number replaced by '#', the numbers in order)."""
    return NUMBER.sub("#", text), NUMBER.findall(text)


def _rel(a, b):
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def compare(old_text, new_text):
    """How new_text differs from old_text, or None when the bytes are equal."""
    if old_text == new_text:
        return None
    (old_shape, old_nums), (new_shape, new_nums) = _split(old_text), _split(new_text)
    if old_shape != new_shape:
        diff = difflib.unified_diff(
            old_text.splitlines(), new_text.splitlines(), n=0, lineterm="")
        return "\n".join(["text differs"] + [
            f"  {line}" for line in diff if not line.startswith(("---", "+++", "@@"))])
    rel = [_rel(float(a), float(b)) for a, b in zip(old_nums, new_nums) if a != b]
    return f"{len(rel)} of {len(old_nums)} numeric fields differ, max rel {max(rel):.2g}"


def main(old, new):
    old_files, new_files = _data_files(old), _data_files(new)
    differs = False
    for name in sorted(old_files.keys() | new_files.keys()):
        if name in old_files and name in new_files:
            how = compare(old_files[name].read_text(), new_files[name].read_text())
        else:
            how = f"only in {old if name in old_files else new}"
        if how is not None:
            print(f"{name}: {how}")
            differs = True
    return 1 if differs else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python tools/data_diff.py OLD NEW")
    sys.exit(main(sys.argv[1], sys.argv[2]))
