"""Analyze `pareto-wide`'s seed-1 benchmark fixture at a sampled order in a
fresh CLI process: order 2, 10,000 samples.

Usage: python3 .github/sampled_order_run.py DIRECTORY

Writes the fixture, the report and the CLI's stderr into DIRECTORY, prints
that stderr and then the child's wall time and peak RSS (printed, not
gated), and exits with the CLI's exit code.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import fixtures  # noqa: E402
import run  # noqa: E402

if len(sys.argv) != 2:
    sys.exit(__doc__)
directory = Path(sys.argv[1]).resolve()
fixture = fixtures.write(run.WORKLOADS["pareto-wide"].fixture, 1, directory)
argv = [
    *run.CLI, "analyze",
    "--hyperedges", str(fixture.hyperedges),
    "--labels", str(fixture.labels),
    "--label-names", str(fixture.label_names),
    "--order", "2", "--samples", "10000",
    "--out", str(directory / "report.json"),
]
code, wall, rss, _ = run.run_child(argv, directory / "stderr.log")
print((directory / "stderr.log").read_text(), end="")
print(f"exit code {code}, wall {wall:.2f} s, child peak RSS {rss:.1f} MB")
sys.exit(code)
