"""End-to-end CLI tests: exit codes and output formats."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from conftest import FIXTURES

from repro.lint.__main__ import main

REPO_ROOT = Path(__file__).resolve().parents[2]

#: One minimal dirty snippet per rule, each tripping exactly that rule.
RULE_FIXTURES = {
    "rng-discipline": {"video/sim.py": "import random\n"},
    "wall-clock": {"analysis/sim.py": "import time\nstamp = time.time()\n"},
    "fastpath-flag": {
        "analysis/sim.py": 'import os\nflag = os.getenv("REPRO_NET_FASTPATH")\n'
    },
    "hot-slots": {
        "net/packet.py": (
            "from dataclasses import dataclass\n\n"
            "@dataclass\n"
            "class Packet:\n"
            "    sequence: int\n"
        )
    },
    "float-time-eq": {
        "net/sim.py": "def check(send_time, recv_time):\n"
        "    return send_time == recv_time\n"
    },
    "mutable-default": {"core/sim.py": "def f(items=[]):\n    return items\n"},
    "broad-except": {
        "distrib/sim.py": "def f():\n"
        "    try:\n"
        "        return 1\n"
        "    except Exception:\n"
        "        return 0\n"
    },
    "protocol-exhaustive": {
        "distrib/protocol.py": "PROTOCOL_VERSION = 1\n",
    },
}


def write_tree(root: Path, files: dict[str, str]) -> None:
    for relpath, source in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")


class TestExitCodes:
    def test_shipped_tree_exits_zero(self, capsys):
        assert main(["--root", str(REPO_ROOT / "src" / "repro")]) == 0
        out = capsys.readouterr().out
        assert "clean" in out

    @pytest.mark.parametrize("rule", sorted(RULE_FIXTURES))
    def test_each_rule_fixture_exits_nonzero(self, rule, tmp_path, capsys):
        write_tree(tmp_path, RULE_FIXTURES[rule])
        assert main(["--root", str(tmp_path)]) == 1
        assert rule in capsys.readouterr().out

    def test_broken_protocol_fixture_exits_nonzero(self, capsys):
        assert main(["--root", str(FIXTURES / "broken_protocol")]) == 1
        assert "protocol-exhaustive" in capsys.readouterr().out


class TestJsonFormat:
    def test_json_report_is_parseable_and_clean(self, capsys):
        assert (
            main(["--root", str(REPO_ROOT / "src" / "repro"), "--format", "json"]) == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert report["clean"] is True
        assert report["findings"] == []
        assert report["files_checked"] > 50

    def test_json_report_keys_on_shipped_tree(self, capsys):
        assert (
            main(["--root", str(REPO_ROOT / "src" / "repro"), "--format", "json"]) == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {
            "version",
            "root",
            "files_checked",
            "clean",
            "findings",
            "suppressed",
        }
        assert report["version"] == 2

    def test_json_report_carries_findings(self, tmp_path, capsys):
        write_tree(tmp_path, RULE_FIXTURES["wall-clock"])
        assert main(["--root", str(tmp_path), "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["clean"] is False
        assert [f["rule"] for f in report["findings"]] == ["wall-clock"]
        finding = report["findings"][0]
        assert finding["path"] == "analysis/sim.py"
        assert finding["line"] == 2


class TestListRules:
    def test_list_rules_names_every_rule(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULE_FIXTURES:
            assert rule in out
