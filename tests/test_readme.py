"""The README's Library code block runs as written, and every documented
command line parses."""

import re
import shlex
from pathlib import Path

import pytest

import hyperhomophily as hh
from hyperhomophily import cli

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
DOCS = (README, ROOT / "docs" / "plotting.md")


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


def documented_commands():
    """(file name, argv) of every ``hyperhomophily`` line in a bash block of
    the docs, its backslash continuations joined."""
    commands = []
    for path in DOCS:
        text = path.read_text(encoding="utf-8")
        for block in re.findall(r"^```bash\n(.*?)^```", text, re.S | re.M):
            for line in block.replace("\\\n", " ").splitlines():
                if line.startswith("hyperhomophily "):
                    commands.append((path.name, shlex.split(line)[1:]))
    return commands


def test_documented_commands_parse(capsys):
    # a flag removed from the CLI but left in the docs exits argparse with 2
    commands = documented_commands()
    assert {name for name, _ in commands} == {path.name for path in DOCS}
    parser = cli.build_parser()
    for name, argv in commands:
        try:
            parser.parse_args(cli._join_grid_values(argv))
        except SystemExit:
            pytest.fail(f"{name}: {shlex.join(argv)}: {capsys.readouterr().err.strip()}")
