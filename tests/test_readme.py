"""The README's Library code block runs as written."""

import re
from pathlib import Path

import hyperhomophily as hh

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_block_runs(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library\n\n```python\n(.*?)^```", text, re.S | re.M).group(1)
    # a small graph with edges of size 3, the size the block's baseline line asks for
    h = hh.generate_hsbm(hh.HsbmConfig(num_nodes=60, num_attributes=3, k=3, num_edges=200, p=0.5))
    names = ("hyperedges.txt", "node-labels.txt", "label-names.txt")
    assert all(f'"{name}"' in block for name in names)
    with (
        open(tmp_path / names[0], "w") as edges,
        open(tmp_path / names[1], "w") as labels,
        open(tmp_path / names[2], "w") as label_names,
    ):
        hh.write_hypergraph(h, edges, labels, label_names)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
