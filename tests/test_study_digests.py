"""The output of ``tools/study_digests.py``: one ``sha256 run file`` line per
artifact of its fixed runs, and exactly the lines saved in
``tools/study_digests.txt``.  A change that keeps every artifact's bits keeps
that file; one that moves an artifact must say so and save the new lines."""

import importlib.util
import re
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"
SCRIPT = TOOLS / "study_digests.py"
SAVED = TOOLS / "study_digests.txt"


def test_one_line_per_artifact(capsys):
    spec = importlib.util.spec_from_file_location("study_digests", SCRIPT)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main() == 0
    lines = capsys.readouterr().out.splitlines()
    want = [(name, f) for name, _ in tool.STUDIES for f in ("metrics.csv", "detection_rates.csv")]
    want += [(name, f) for name in ("pipeline", "pipeline_trusted") for f in ("aggregate.csv", "detection.csv")]
    want.append(("unfittable", "stderr"))
    assert len(tool.STUDIES) == 9 and tool.REPLICATES >= 20
    assert [tuple(line.split()[1:]) for line in lines] == want
    assert all(re.fullmatch(r"[0-9a-f]{64} \S+ \S+", line) for line in lines)
    assert len({line.split()[0] for line in lines}) == len(lines)
    assert lines == SAVED.read_text().splitlines()
