"""Golden reports: every computing subcommand's JSON envelope, byte for byte.

Each report minus timing_ms must equal a literal captured before the
report path was consolidated into cli.main, so any change to the
envelope, its keys or a results payload shows up here.  `audit all` is
pinned by the sha256 of its key-sorted results (53 claims).
"""

import hashlib
import json

import pytest

from bdom import __version__
from bdom.cli import main
from bdom.families import grid, star, star_orientation
from bdom.graphs import format_dg, format_ug

ENVELOPE_KEYS = {"command", "inputs_digest", "params", "results", "timing_ms", "version"}

ODD_PAT = "3 3\nT..\n...\n..T\n000\n011\n100\n010\n001\n101\n"

G34 = {"graph": "677bbd55ba1648a00200b4d8b7bb25c2ac83bb3b79fec8101c25c29570aaa173"}
S9_DG = {"graph": "a5b2ad313527a7cd957c875faf66c47adb1227bbe6c181d74d6e8e6b146891a6"}
S5 = {"graph": "65cdbbaf7bdcbe7e5699e145abe31605d104e685455bef7f8d8e618d6247c5ef"}
G23 = {"graph": "5b91679a228adad8d494b19aad4028cda32edf3fbbe34b412612e744db5bca02"}
G23_INTERVAL = {"D": 3, "attained": [2, 3], "d": 2, "full": True}

STAR_CLAIMS = [
    {"claim": "star interval S_3 at (1,1) = [3,3], full",
     "details": {"actual": [3, 3], "attained": [3], "expected": [3, 3], "full": True},
     "instance": {"n": 3, "r": 1, "t": 1},
     "status": "confirmed"},
    {"claim": "star interval S_3 at (2,2) = [2,3], full",
     "details": {"actual": [2, 3], "attained": [2, 3], "expected": [2, 3], "full": True},
     "instance": {"n": 3, "r": 2, "t": 2},
     "status": "confirmed"},
    {"claim": "star interval S_3 at (3,3) = [2,3], full",
     "details": {"actual": [2, 3], "attained": [2, 3], "expected": [2, 3], "full": True},
     "instance": {"n": 3, "r": 3, "t": 3},
     "status": "confirmed"},
    {"claim": "star interval S_3 at (4,4) = [2,3], full",
     "details": {"actual": [2, 3], "attained": [2, 3], "expected": [2, 3], "full": True},
     "instance": {"n": 3, "r": 4, "t": 4},
     "status": "confirmed"},
    {"claim": "star interval S_3 at (2,1) = [1,2], full",
     "details": {"actual": [1, 2], "attained": [1, 2], "expected": [1, 2], "full": True},
     "instance": {"n": 3, "r": 1, "t": 2},
     "status": "confirmed"},
    {"claim": "star interval S_3 at (3,1) = [1,2], full",
     "details": {"actual": [1, 2], "attained": [1, 2], "expected": [1, 2], "full": True},
     "instance": {"n": 3, "r": 1, "t": 3},
     "status": "confirmed"},
    {"claim": "star interval S_3 at (3,2) = [1,2], full",
     "details": {"actual": [1, 2], "attained": [1, 2], "expected": [1, 2], "full": True},
     "instance": {"n": 3, "r": 2, "t": 3},
     "status": "confirmed"},
    {"claim": "star interval S_3 at (4,2) = [1,2], full",
     "details": {"actual": [1, 2], "attained": [1, 2], "expected": [1, 2], "full": True},
     "instance": {"n": 3, "r": 2, "t": 4},
     "status": "confirmed"},
    {"claim": "star interval S_4 at (1,1) = [4,4], full",
     "details": {"actual": [4, 4], "attained": [4], "expected": [4, 4], "full": True},
     "instance": {"n": 4, "r": 1, "t": 1},
     "status": "confirmed"},
    {"claim": "star interval S_4 at (2,2) = [3,4], full",
     "details": {"actual": [3, 4], "attained": [3, 4], "expected": [3, 4], "full": True},
     "instance": {"n": 4, "r": 2, "t": 2},
     "status": "confirmed"},
    {"claim": "star interval S_4 at (3,3) = [2,4], full",
     "details": {"actual": [2, 4], "attained": [2, 3, 4], "expected": [2, 4], "full": True},
     "instance": {"n": 4, "r": 3, "t": 3},
     "status": "confirmed"},
    {"claim": "star interval S_4 at (4,4) = [2,4], full",
     "details": {"actual": [2, 4], "attained": [2, 3, 4], "expected": [2, 4], "full": True},
     "instance": {"n": 4, "r": 4, "t": 4},
     "status": "confirmed"},
    {"claim": "star interval S_4 at (2,1) = [1,3], full",
     "details": {"actual": [1, 3], "attained": [1, 2, 3], "expected": [1, 3], "full": True},
     "instance": {"n": 4, "r": 1, "t": 2},
     "status": "confirmed"},
    {"claim": "star interval S_4 at (3,1) = [1,3], full",
     "details": {"actual": [1, 3], "attained": [1, 2, 3], "expected": [1, 3], "full": True},
     "instance": {"n": 4, "r": 1, "t": 3},
     "status": "confirmed"},
    {"claim": "star interval S_4 at (3,2) = [1,3], full",
     "details": {"actual": [1, 3], "attained": [1, 2, 3], "expected": [1, 3], "full": True},
     "instance": {"n": 4, "r": 2, "t": 3},
     "status": "confirmed"},
    {"claim": "star interval S_4 at (4,2) = [1,3], full",
     "details": {"actual": [1, 3], "attained": [1, 2, 3], "expected": [1, 3], "full": True},
     "instance": {"n": 4, "r": 2, "t": 4},
     "status": "confirmed"},
    {"claim": "star interval S_5 at (1,1) = [5,5], full",
     "details": {"actual": [5, 5], "attained": [5], "expected": [5, 5], "full": True},
     "instance": {"n": 5, "r": 1, "t": 1},
     "status": "confirmed"},
    {"claim": "star interval S_5 at (2,2) = [4,5], full",
     "details": {"actual": [4, 5], "attained": [4, 5], "expected": [4, 5], "full": True},
     "instance": {"n": 5, "r": 2, "t": 2},
     "status": "confirmed"},
    {"claim": "star interval S_5 at (3,3) = [2,5], full",
     "details": {"actual": [2, 5], "attained": [2, 3, 4, 5], "expected": [2, 5], "full": True},
     "instance": {"n": 5, "r": 3, "t": 3},
     "status": "confirmed"},
    {"claim": "star interval S_5 at (4,4) = [2,5], full",
     "details": {"actual": [2, 5], "attained": [2, 3, 4, 5], "expected": [2, 5], "full": True},
     "instance": {"n": 5, "r": 4, "t": 4},
     "status": "confirmed"},
    {"claim": "star interval S_5 at (2,1) = [1,4], full",
     "details": {"actual": [1, 4], "attained": [1, 2, 3, 4], "expected": [1, 4], "full": True},
     "instance": {"n": 5, "r": 1, "t": 2},
     "status": "confirmed"},
    {"claim": "star interval S_5 at (3,1) = [1,4], full",
     "details": {"actual": [1, 4], "attained": [1, 2, 3, 4], "expected": [1, 4], "full": True},
     "instance": {"n": 5, "r": 1, "t": 3},
     "status": "confirmed"},
    {"claim": "star interval S_5 at (3,2) = [1,4], full",
     "details": {"actual": [1, 4], "attained": [1, 2, 3, 4], "expected": [1, 4], "full": True},
     "instance": {"n": 5, "r": 2, "t": 3},
     "status": "confirmed"},
    {"claim": "star interval S_5 at (4,2) = [1,4], full",
     "details": {"actual": [1, 4], "attained": [1, 2, 3, 4], "expected": [1, 4], "full": True},
     "instance": {"n": 5, "r": 2, "t": 4},
     "status": "confirmed"},
    {"claim": "star interval S_6 at (1,1) = [6,6], full",
     "details": {"actual": [6, 6], "attained": [6], "expected": [6, 6], "full": True},
     "instance": {"n": 6, "r": 1, "t": 1},
     "status": "confirmed"},
    {"claim": "star interval S_6 at (2,2) = [5,6], full",
     "details": {"actual": [5, 6], "attained": [5, 6], "expected": [5, 6], "full": True},
     "instance": {"n": 6, "r": 2, "t": 2},
     "status": "confirmed"},
    {"claim": "star interval S_6 at (3,3) = [2,6], full",
     "details": {"actual": [2, 6],
                 "attained": [2, 3, 4, 5, 6],
                 "expected": [2, 6],
                 "full": True},
     "instance": {"n": 6, "r": 3, "t": 3},
     "status": "confirmed"},
    {"claim": "star interval S_6 at (4,4) = [2,6], full",
     "details": {"actual": [2, 6],
                 "attained": [2, 3, 4, 5, 6],
                 "expected": [2, 6],
                 "full": True},
     "instance": {"n": 6, "r": 4, "t": 4},
     "status": "confirmed"},
    {"claim": "star interval S_6 at (2,1) = [1,5], full",
     "details": {"actual": [1, 5],
                 "attained": [1, 2, 3, 4, 5],
                 "expected": [1, 5],
                 "full": True},
     "instance": {"n": 6, "r": 1, "t": 2},
     "status": "confirmed"},
    {"claim": "star interval S_6 at (3,1) = [1,5], full",
     "details": {"actual": [1, 5],
                 "attained": [1, 2, 3, 4, 5],
                 "expected": [1, 5],
                 "full": True},
     "instance": {"n": 6, "r": 1, "t": 3},
     "status": "confirmed"},
    {"claim": "star interval S_6 at (3,2) = [1,5], full",
     "details": {"actual": [1, 5],
                 "attained": [1, 2, 3, 4, 5],
                 "expected": [1, 5],
                 "full": True},
     "instance": {"n": 6, "r": 2, "t": 3},
     "status": "confirmed"},
    {"claim": "star interval S_6 at (4,2) = [1,5], full",
     "details": {"actual": [1, 5],
                 "attained": [1, 2, 3, 4, 5],
                 "expected": [1, 5],
                 "full": True},
     "instance": {"n": 6, "r": 2, "t": 4},
     "status": "confirmed"},
]

# "@" in an argv entry or a string value stands for the input directory
GOLDEN = {
    "gamma-ug": (
        "gamma @g34.ug --t 2 --r 2",
        {
            "command": "gamma",
            "inputs_digest": G34,
            "params": {"directed": False, "r": 2, "t": 2},
            "results": {"gamma": 6, "r": 2, "t": 2, "witness": [0, 2, 5, 7, 8, 10]},
        },
    ),
    "gamma-dg": (
        "gamma @s9.dg --t 2 --r 1",
        {
            "command": "gamma",
            "inputs_digest": S9_DG,
            "params": {"directed": True, "r": 1, "t": 2},
            "results": {"gamma": 1, "r": 1, "t": 2, "witness": [0]},
        },
    ),
    "oracle": (
        "oracle @s5.ug --t 3 --r 2",
        {
            "command": "oracle",
            "inputs_digest": S5,
            "params": {"directed": False, "r": 2, "t": 3},
            "results": {"gamma": 1, "r": 2, "t": 3, "witness": [0]},
        },
    ),
    "interval": (
        "interval @g23.ug --t 2 --r 1",
        {
            "command": "interval",
            "inputs_digest": G23,
            "params": {"jobs": 1, "r": 1, "t": 2},
            "results": G23_INTERVAL,
        },
    ),
    "interval-witnesses": (
        "interval @g23.ug --t 2 --r 1 --witnesses",
        {
            "command": "interval",
            "inputs_digest": G23,
            "params": {"jobs": 1, "r": 1, "t": 2},
            "results": {**G23_INTERVAL, "witnesses": {"2": "1010000", "3": "0000000"}},
        },
    ),
    "walk": (
        "walk @s5.ug --from 0000 --to 1111 --t 2 --r 1",
        {
            "command": "walk",
            "inputs_digest": S5,
            "params": {"from": "0000", "r": 1, "t": 2, "to": "1111"},
            "results": {"flips": [0, 1, 2, 3], "gamma_sequence": [1, 2, 3, 4, 4], "max_step": 1},
        },
    ),
    "torus-builtin": (
        "torus --pattern diag13 --t 2 --r 2",
        {
            "command": "torus",
            "inputs_digest": {},
            "params": {"clause": "self-consistent", "pattern": "diag13", "r": 2, "reps": 2, "t": 2},
            "results": {
                "clause_interpretation": "self-consistent",
                "density": "1/3",
                "dominating": True,
                "nontower_exact": True,
                "pattern": "diag13",
                "strict_efficient": True,
                "torus": [6, 6],
                "violations": [],
            },
        },
    ),
    "torus-pat-file": (
        "torus --pattern @odd.pat --t 2 --r 2 --reps 1",
        {
            "command": "torus",
            "inputs_digest": {
                "pattern": "9eb5e70815af773958c16fe2e6f17aaf14336282ec0397be3447a6576279ac03"
            },
            "params": {"clause": "self-consistent", "pattern": "@odd.pat", "r": 2, "reps": 1, "t": 2},
            "results": {
                "clause_interpretation": "self-consistent",
                "density": "2/9",
                "dominating": False,
                "nontower_exact": False,
                "pattern": "odd",
                "strict_efficient": False,
                "torus": [3, 3],
                "violations": [
                    {"cell": [0, 1], "reception": 1},
                    {"cell": [0, 2], "reception": 0},
                    {"cell": [1, 0], "reception": 1},
                    {"cell": [1, 1], "reception": 0},
                    {"cell": [1, 2], "reception": 1},
                    {"cell": [2, 1], "reception": 0},
                ],
            },
        },
    ),
    "jumps": (
        "jumps --t 4 --r 3 --budget 8 --trials 10 --seed 23",
        {
            "command": "jumps",
            "inputs_digest": {},
            "params": {"budget": 8, "r": 3, "seed": 23, "t": 4, "trials": 10},
            "results": {
                "count": 1,
                "jumps": [
                    {
                        "bits": "11001100",
                        "edge_index": 2,
                        "edges": [
                            [0, 3], [2, 5], [3, 5], [4, 6], [4, 5], [1, 5], [1, 7], [2, 7]
                        ],
                        "gamma_after": 4,
                        "gamma_before": 2,
                        "n": 8,
                    }
                ],
            },
        },
    ),
    "audit-star": (
        "audit star",
        {
            "command": "audit",
            "inputs_digest": {},
            "params": {"target": "star"},
            "results": {"target": "star", "claims": STAR_CLAIMS},
        },
    ),
}

AUDIT_ALL_RESULTS_SHA256 = "22ef981ad4e1cb6dfbfc32553373f5e2f53ecfc1b9b047e1a64bb8e7828ba6b0"


@pytest.fixture
def inputs(tmp_path):
    files = {
        "g34.ug": format_ug(grid(3, 4)),
        "s9.dg": format_dg(star_orientation(9, 0)),
        "s5.ug": format_ug(star(5)),
        "g23.ug": format_ug(grid(2, 3)),
        "odd.pat": ODD_PAT,
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    return f"{tmp_path}/"


def report(capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    got = json.loads(out)
    assert set(got) == ENVELOPE_KEYS
    assert isinstance(got.pop("timing_ms"), int)
    return got


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_report(case, inputs, capsys):
    argv, expected = GOLDEN[case]
    got = report(capsys, argv.replace("@", inputs).split())
    expected = json.loads(json.dumps(expected).replace("@", inputs))
    assert got == {**expected, "version": __version__}


def test_golden_audit_all(capsys):
    got = report(capsys, ["audit", "all"])
    assert {k: v for k, v in got.items() if k != "results"} == {
        "command": "audit",
        "inputs_digest": {},
        "params": {"target": "all"},
        "version": __version__,
    }
    assert len(got["results"]["claims"]) == 53
    payload = json.dumps(got["results"], sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == AUDIT_ALL_RESULTS_SHA256
