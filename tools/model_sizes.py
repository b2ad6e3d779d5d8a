"""Print where the bytes of latentrec model files go.

For each file, one line per section of the JSON document (from format 11
its header line): each header key, each part of a front-coded token list
(user_tokens.shared and user_tokens.suffixes, from format 9), each part
of every entry of the lists table (lists[0].gaps, lists[0].lengths,
lists[1].gaps, ...), each key of every member's parameter block and each
member's encoder (an ensemble's members are numbered in order), with the
shape and dtype of a block as one token, such as [802,8]<f8 for a float
block or [10000]<i1 for an int block ("-" for any other section, such as
a format 9 list of JSON ints), the section's size ("raw") and that
deflated on its own at the level model files use ("deflated"). A
section's size is its compact JSON text, but for a format 11 block, whose
bytes follow the header line, it is those bytes. Deflating a section
alone loses the matches deflate finds across sections, so the deflated
column sums to a little more than the document deflated whole, which the
"document" line gives (header line, newline and block bytes from format
11) beside the file's own size.

    python tools/model_sizes.py model.json [more.json ...]

Files may be gzip-compressed (as save_model writes them) or plain JSON.
Only the standard library is used, so a file of any format version can
be read.
"""

import gzip
import json
import math
import sys
import zlib
from pathlib import Path

# the deflate level save_model writes at
LEVEL = 6


def compact(value):
    """The compact, key-sorted JSON text of value, as UTF-8 bytes."""
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")


def deflated(data):
    """Size of data as one raw deflate stream at LEVEL."""
    deflate = zlib.compressobj(LEVEL, zlib.DEFLATED, -15)
    return len(deflate.compress(data) + deflate.flush())


def sections(doc):
    """(name, value) of each section of a model document, in key order."""
    members = [("", doc)]
    for key, value in sorted(doc.items()):
        if key == "ensemble":
            members = [(f"member {n} ", m) for n, m in enumerate(value["members"])]
            yield from ((f"ensemble.{k}", v) for k, v in sorted(value.items())
                        if k != "members")
        elif key == "lists":
            yield from ((f"lists[{n}].{part}", v) for n, entry in enumerate(value)
                        for part, v in sorted(entry.items()))
        elif key.endswith("_tokens") and isinstance(value, dict):
            yield from ((f"{key}.{part}", v) for part, v in sorted(value.items()))
        elif key not in ("parameters", "encoder"):
            yield key, value
    for prefix, member in members:
        for key, value in sorted(member.get("parameters", {}).items()):
            yield f"{prefix}parameters.{key}", value
        if "encoder" in member:
            yield f"{prefix}encoder", member["encoder"]


def shape(value):
    """The shape and dtype of a float block (format 4 on) or an int block
    (format 10 on) as one token, or "-"."""
    if isinstance(value, dict) and "dtype" in value:
        return "[" + ",".join(map(str, value["shape"])) + "]" + value["dtype"]
    return "-"


def parsed(text):
    """(document, tail) of an inflated file: from format 11 its header line
    and the block bytes after it; before, its one JSON document and None."""
    head, _, tail = text.partition(b"\n")
    try:
        doc = json.loads(head)
    except ValueError:  # a document written across lines
        return json.loads(text), None
    return doc, tail if doc.get("format_version") == 11 else None


def section_bytes(value, tail):
    """The bytes a section holds: a format 11 block's bytes in the tail
    (its data is their offset, and its dtype, such as "<f8", and shape
    give their length), or the section's compact JSON text."""
    if tail is not None and isinstance(value, dict) and type(value.get("data")) is int:
        start = value["data"]
        return tail[start:start + int(value["dtype"][2:]) * math.prod(value["shape"])]
    return compact(value)


def report(path):
    """The lines printed for one model file."""
    data = Path(path).read_bytes()
    text = gzip.decompress(data) if data[:2] == b"\x1f\x8b" else data
    doc, tail = parsed(text)
    rows = []
    for name, value in sections(doc):
        part = section_bytes(value, tail)
        rows.append((name, shape(value), len(part), deflated(part)))
    rows.append(("document", "-", len(text), deflated(text)))
    width = max(len(name) for name, *_ in rows)
    shapes = max(len(row[1]) for row in rows + [("", "shape")])
    lines = [f"{path}: {len(data)} bytes on disk",
             f"  {'section':<{width}}  {'shape':<{shapes}}  {'raw':>9}  {'deflated':>9}"]
    lines += [f"  {name:<{width}}  {kind:<{shapes}}  {raw:>9}  {packed:>9}"
              for name, kind, raw, packed in rows]
    return lines


def main(argv):
    if not argv:
        print(__doc__.split("\n\n")[2].strip(), file=sys.stderr)
        return 2
    for path in argv:
        print("\n".join(report(path)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
