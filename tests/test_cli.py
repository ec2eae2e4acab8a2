"""End-to-end command line behavior through ``main``."""

import contextlib
import dataclasses
import fractions
import hashlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fairslice
from fairslice import get_mechanism, mechanisms, properties, sweeps
from fairslice.cli import build_parser, main

UNEVEN = {
    "resource": "cake",
    "agents": [
        {"id": "a1", "intervals": [["0", "1/2"]]},
        {"id": "a2", "intervals": [["0", "1"]]},
    ],
}
EVEN = {
    "resource": "cake",
    "agents": [
        {"id": "a1", "intervals": [["0", "1"]]},
        {"id": "a2", "intervals": [["0", "1"]]},
    ],
}
CUTCHOOSE = {
    "resource": "cake",
    "agents": [
        {"id": "a1", "intervals": [["0", "1"]]},
        {"id": "a2", "intervals": [["0", "1/4"]]},
    ],
}
SHIFTED = {
    "resource": "cake",
    "agents": [
        {"id": "a1", "intervals": [["1/2", "1"]]},
        {"id": "a2", "intervals": [["0", "1"]]},
    ],
}
THREE = {
    "resource": "cake",
    "agents": [
        {"id": "a1", "intervals": [["0", "1/3"]]},
        {"id": "a2", "intervals": [["1/3", "2/3"]]},
        {"id": "a3", "intervals": [["2/3", "1"]]},
    ],
}


@pytest.fixture
def fx(tmp_path):
    paths = {}
    for name, doc in (
        ("uneven", UNEVEN),
        ("even", EVEN),
        ("cutchoose", CUTCHOOSE),
        ("shifted", SHIFTED),
        ("three", THREE),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    paths["dir"] = tmp_path
    return paths


class TestAllocate:
    def test_text_output(self, fx, capsys):
        code = main(["allocate", "--mechanism", "cake2", "--instance", fx["uneven"]])
        assert code == 0
        assert capsys.readouterr().out == (
            "a1: [0/1, 1/2]  value 1/2\n" "a2: [1/2, 1/1]  value 1/2\n"
        )

    def test_machine_output(self, fx, capsys):
        code = main(
            [
                "allocate",
                "--mechanism",
                "cake2",
                "--instance",
                fx["uneven"],
                "--format",
                "machine",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {
            "pieces": [
                {"id": "a1", "intervals": [["0/1", "1/2"]], "value": "1/2"},
                {"id": "a2", "intervals": [["1/2", "1/1"]], "value": "1/2"},
            ]
        }

    def test_eating_trace(self, fx, capsys):
        code = main(
            [
                "allocate",
                "--mechanism",
                "cake2-eating",
                "--instance",
                fx["uneven"],
                "--trace",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "a1: [0/1, 1/2]  value 1/2"
        assert "t=0/1 a1 eat-start at 0/1" in lines
        assert "t=1/2 a1 meet at 1/2" in lines
        assert lines[-1] == "meeting point 1/2"

    def test_trace_needs_eating_mechanism(self, fx, capsys):
        code = main(
            ["allocate", "--mechanism", "cake2", "--instance", fx["uneven"], "--trace"]
        )
        assert code == 2
        assert "--trace requires" in capsys.readouterr().err

    def test_empty_piece_text(self, fx, capsys):
        path = fx["dir"] / "empty.json"
        path.write_text(json.dumps({
            "resource": "cake",
            "agents": [
                {"id": "a1", "intervals": []},
                {"id": "a2", "intervals": [["0", "1"]]},
            ],
        }))
        code = main(["allocate", "--mechanism", "prefix-cake", "--instance", str(path)])
        assert code == 0
        assert capsys.readouterr().out == (
            "a1: (nothing)  value 0/1\n" "a2: [0/1, 1/1]  value 1/1\n"
        )

    def test_eating_trace_refuses_chores(self, fx, capsys):
        path = fx["dir"] / "chore.json"
        path.write_text(json.dumps({**UNEVEN, "resource": "chore"}))
        code = main(["allocate", "--mechanism", "cake2-eating", "--instance", str(path),
                     "--trace"])
        assert code == 2
        assert capsys.readouterr() == (
            "", "fairslice: error: mechanism serves cakes, instance is a chore\n"
        )


class TestVerify:
    def test_all_checks_pass(self, fx, capsys):
        code = main(["verify", "--mechanism", "cake2", "--instance", fx["even"]])
        assert code == 0
        out = capsys.readouterr().out
        for prop in (
            "full-and-connected",
            "envy-free",
            "proportional",
            "pareto",
            "anonymity",
            "crossing-vs-eating-values",
            "crossing-vs-eating-pieces",
        ):
            assert f"{prop}: holds" in out

    def test_anonymity_flagged(self, fx, capsys):
        code = main(["verify", "--mechanism", "cake2", "--instance", fx["uneven"]])
        assert code == 1
        out = capsys.readouterr().out
        assert "anonymity: violated" in out
        assert "envy-free: holds" in out

    def test_machine_with_paired_instance(self, fx, capsys):
        code = main(
            [
                "verify",
                "--mechanism",
                "cake2",
                "--instance",
                fx["uneven"],
                "--instance-b",
                fx["shifted"],
                "--format",
                "machine",
            ]
        )
        assert code == 1
        lines = capsys.readouterr().out.strip().split("\n")
        docs = [json.loads(line) for line in lines]
        assert [d["property"] for d in docs] == [
            "full-and-connected",
            "envy-free",
            "proportional",
            "pareto",
            "anonymity",
            "crossing-vs-eating-values",
            "crossing-vs-eating-pieces",
            "position-oblivious",
        ]
        assert docs[-1] == {
            "property": "position-oblivious",
            "verdict": "violated",
            "witness": {
                "values_a": ["1/2", "1/2"],
                "values_b": ["1/4", "3/4"],
                "agent": "a1",
            },
        }

    def test_paired_instance_profile_mismatch(self, fx, capsys):
        code = main(
            [
                "verify",
                "--mechanism",
                "cake2",
                "--instance",
                fx["uneven"],
                "--instance-b",
                fx["cutchoose"],
            ]
        )
        assert code == 2
        assert "equal lengths" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, agents, instance_b, runs",
        [
            # the instance once, then each of the 23 other orders once
            ("prefix-cake", 4, False, 24),
            ("prefix-chore", 4, False, 24),
            ("prefix-cake", 3, False, 6),
            # the instance, its one swap, and the paired instance
            ("cake2", 2, True, 3),
            ("cake2-eating", 2, True, 3),
            # no anonymity check past four agents
            ("prefix-chore", 5, False, 1),
        ],
    )
    def test_each_profile_runs_once(
        self, fx, capsys, monkeypatch, name, agents, instance_b, runs
    ):
        # crossing-vs-eating reuses the instance's run for the mechanism's
        # own route and runs only the other one: (crossing, eating) runs
        crossing_runs, eating_runs = {
            "cake2": (0, 1), "cake2-eating": (1, 0)
        }.get(name, (0, 0))
        original = get_mechanism(name)
        seen = []
        routes = {"allocate_cake2": 0, "simulate_eating": 0}

        def counting(instance):
            seen.append(instance)
            return original.run(instance)

        def counted_route(attribute):
            route = getattr(properties, attribute)

            def run(instance):
                routes[attribute] += 1
                return route(instance)

            monkeypatch.setattr(properties, attribute, run)

        monkeypatch.setitem(
            mechanisms.MECHANISMS, name, dataclasses.replace(original, run=counting)
        )
        counted_route("allocate_cake2")
        counted_route("simulate_eating")
        if agents == 2:
            args = ["--instance", fx["uneven"], "--instance-b", fx["shifted"]]
        else:
            path = fx["dir"] / "prefixes.json"
            path.write_text(json.dumps({
                "resource": original.kind.value,
                "agents": [
                    {"id": f"a{i + 1}", "intervals": [["0", f"{i + 1}/{agents + 1}"]]}
                    for i in range(agents)
                ],
            }))
            args = ["--instance", str(path)]
        main(["verify", "--mechanism", name, *args])
        assert len(seen) == runs
        assert len(set(seen)) == runs
        assert routes == {
            "allocate_cake2": crossing_runs, "simulate_eating": eating_runs
        }

    @pytest.mark.parametrize("content", [None, "{not json"])
    def test_bad_paired_file_fails_before_any_run(
        self, fx, capsys, monkeypatch, content
    ):
        original = get_mechanism("cake2")
        seen = []

        def counting(instance):
            seen.append(instance)
            return original.run(instance)

        monkeypatch.setitem(
            mechanisms.MECHANISMS, "cake2", dataclasses.replace(original, run=counting)
        )
        path = fx["dir"] / "paired.json"
        if content is not None:
            path.write_text(content)
        code = main(["verify", "--mechanism", "cake2", "--instance", fx["uneven"],
                     "--instance-b", str(path)])
        assert code == 2
        assert capsys.readouterr().out == ""
        assert seen == []

    def test_empty_paired_path_is_a_missing_file(self, fx, capsys):
        expected = "fairslice: error: [Errno 2] No such file or directory: ''\n"
        for args in (["--instance", ""],
                     ["--instance", fx["uneven"], "--instance-b", ""]):
            assert main(["verify", "--mechanism", "cake2", *args]) == 2
            assert capsys.readouterr() == ("", expected)

    def test_wrong_agent_count(self, fx, capsys):
        code = main(["verify", "--mechanism", "cake2", "--instance", fx["three"]])
        assert code == 2
        assert "exactly 2 agents" in capsys.readouterr().err


def _run_machine(capsys, command, mechanism, path):
    code = main([command, "--mechanism", mechanism, "--instance", str(path),
                 "--format", "machine"])
    return code, capsys.readouterr().out


# Prefix profiles on the 1/24 grid, with repeated and zero claims, and the
# SHA-256 of the exact `verify` and `allocate` stdout (--format machine)
# printed before the prefix mechanisms were reworked to do less Fraction
# arithmetic. Any change to a piece, a value or a witness changes a digest.
GOLDEN_PREFIX = [
    ("prefix-cake", (0, 6, 6, 17),
     "c2c9eb2f26c86147563028b3481327ede155074273e5a66e3664dd55b91804b8",
     "c682c237a57c1bcd51ec86673d9fc9f145e59c20da81c73c5b614a3450217ace"),
    ("prefix-chore", (24, 3, 3, 0),
     "6d52b4bd8f248db48a8102bd6075782d3a1a564f7ed240e14b913da9b269f355",
     "4b19f67cfb104c24086e5c22c3a16fc453b02e67a9181ae35acdae7a787bd0bd"),
    ("prefix-cake",
     (12, 16, 6, 20, 12, 0, 24, 12, 20, 5, 0, 6, 0, 12, 6, 24),
     "fb580d80d0d82de1c91b6fcdf6ef10505e1cacac217c94211035fa458baa79b3",
     "2da0029279529752f625a4418107c7e30dfcf1250be0337c2d945c59af3fef3c"),
    ("prefix-chore",
     (0, 12, 12, 6, 6, 0, 0, 6, 0, 6, 12, 12, 2, 24, 0, 0),
     "97ebae998de57e5f50074c6758cb6d9ee6f8d2d1188d71a0ad09360524b4a8d7",
     "4223f03b31ced7c1c2ffb80821a1ec1dfd89bf9ff33477a79314ed9cbcb4b5bb"),
    ("prefix-cake",
     (0, 0, 12, 24, 12, 3, 12, 12, 6, 0, 12, 20, 3, 6, 24, 12,
      0, 24, 0, 11, 4, 3, 24, 6, 6, 24, 24, 15, 0, 0, 6, 12),
     "033232a075c0927bf77f90824f7fe8a3dde6217b44b986900ee385c7457e9ddf",
     "a132cab207bfc3cfb5e281857293cf3107967c44d2cd553f6c5949591ea85097"),
    ("prefix-chore",
     (13, 15, 0, 12, 20, 6, 0, 12, 0, 6, 16, 12, 12, 21, 4, 12,
      6, 0, 12, 6, 0, 2, 0, 3, 0, 0, 12, 0, 12, 0, 0, 6),
     "97ebae998de57e5f50074c6758cb6d9ee6f8d2d1188d71a0ad09360524b4a8d7",
     "68f23c0453149feb841e4bebafbcb62dbe84ad1e2d26e41d1ec78ec0e98a3d3e"),
]

# Two-agent cakes and the SHA-256 of the exact `verify --format machine`
# stdout for cake2 and cake2-eating, printed while crossing-vs-eating still
# ran both routes itself. HOLES is criterion 5's kind: the eating race and
# the crossing form give a1 different pieces (they differ only in cake
# neither agent wants), so crossing-vs-eating-pieces is violated; on
# FRAGMENTED the pieces agree and anonymity is what fails.
HOLES = {
    "resource": "cake",
    "agents": [
        {"id": "a1", "intervals": [["0", "1/4"], ["3/8", "1/2"]]},
        {"id": "a2", "intervals": [["1/2", "3/4"]]},
    ],
}
FRAGMENTED = {
    "resource": "cake",
    "agents": [
        {"id": "a1", "intervals": [["1/48", "5/48"], ["1/3", "17/24"],
                                   ["3/4", "47/48"]]},
        {"id": "a2", "intervals": [["0", "1/6"], ["5/16", "3/8"],
                                   ["7/12", "2/3"]]},
    ],
}
GOLDEN_TWO_AGENT = [
    ("cake2", HOLES, "violated",
     "e4f0bd3b3b5a91da93113d02cdfa26debe585e4cab81c480ddac62ff7cf8672e"),
    ("cake2-eating", HOLES, "violated",
     "84a098e45b4fac138c7e0aebd92f94308a713c938f3e8b3f884b897e9ece7ef7"),
    ("cake2", FRAGMENTED, "holds",
     "7f409d9128f049c5b7b34c10eaa2e2f9eb08669a465cac1517453e1936e73665"),
    ("cake2-eating", FRAGMENTED, "holds",
     "7f409d9128f049c5b7b34c10eaa2e2f9eb08669a465cac1517453e1936e73665"),
]

# The SHA-256 of `verify --format machine` stdout for the mechanisms and the
# position check that the digests above leave out, printed while the CLI
# still coded the battery itself. Each second instance desires the same
# length per agent subset as the first; a prefix pair has no other
# arrangement, so connected-baseline is paired with itself.
HOLES_SHIFTED = {
    "resource": "cake",
    "agents": [
        {"id": "a1", "intervals": [["1/4", "5/8"]]},
        {"id": "a2", "intervals": [["0", "1/4"]]},
    ],
}
FRAGMENTED_CHORE = {**FRAGMENTED, "resource": "chore"}
FRAGMENTED_CHORE_BLOCKS = {
    "resource": "chore",
    "agents": [
        {"id": "a1", "intervals": [["0", "11/16"]]},
        {"id": "a2", "intervals": [["0", "5/24"], ["11/16", "19/24"]]},
    ],
}
PREFIX_PAIR = {
    "resource": "cake",
    "agents": [
        {"id": "a1", "intervals": [["0", "1/2"]]},
        {"id": "a2", "intervals": [["0", "1/4"]]},
    ],
}
GOLDEN_BATTERY = [
    ("chore2", FRAGMENTED_CHORE, None,
     "4584213593c1464d14f662eb01642deb5d498497004084cebf52111417ac77c8"),
    ("chore2", FRAGMENTED_CHORE, FRAGMENTED_CHORE_BLOCKS,
     "2283df2e1f5ca4e12958c8d4f581706af5ce4dcc19ccf1dcbfd84f5b7160abb5"),
    ("connected-baseline", PREFIX_PAIR, None,
     "47c0eb246af190123faaac39e5b76e5b205b4d678ccc1065e54f7b89c483be09"),
    ("connected-baseline", PREFIX_PAIR, PREFIX_PAIR,
     "6e6124b7dd1325919a15fe51050d2e24e40e000acd290e0cc68e2d95c463c023"),
    ("cake2", HOLES, HOLES_SHIFTED,
     "17170673dda0e7243be20634bce8202049d8600a07d396b245915cebf3413875"),
]

# Each agent's desired intervals, given the resource of the mechanism under
# test. Most searches here end in ties between many equally good reports,
# so the digests below pin which of them each witness names.
DEVIATE_AGENTS = {
    "cutter": [[["0", "1"]], [["0", "1/4"]]],
    "halves": [[["0", "1/2"]], [["1/2", "1"]]],
    "comb": [[["0", "1/4"], ["1/2", "3/4"]], [["1/4", "1/2"], ["3/4", "1"]]],
    "overlap": [[["0", "2/3"]], [["1/3", "1"]]],
    "pair": [[["0", "1/2"]], [["0", "1/4"]]],
    "triple": [[["0", "1/3"]], [["0", "1/3"]], [["0", "2/3"]]],
}
# The SHA-256 of `deviate --format machine` stdout for every agent, printed
# while subset candidates were still built in mask order, with ties broken
# by a separate table of lexicographic ranks.
GOLDEN_DEVIATE = [
    ("cake2", "subsets", 6, "cutter", 0,
     "7dca6bfebef93bc064249e08d78846ed8759d9d7ba47f212276a6672d3f22a97"),
    ("cake2", "subsets", 8, "cutter", 0,
     "943914e50c03105f11abbc1349d52c80063882a784118d4e74e4e443657ef067"),
    ("cake2", "subsets", 6, "halves", 0,
     "6981c048b6bfa81d63458918032f1325d237ab17f3a676ffd8691893223fa6a7"),
    ("cake2", "subsets", 8, "halves", 0,
     "8b1e0ec7f13267bd7e971609bdeb49d42cf01650f58f85f211f1d9bec31556c1"),
    ("cake2", "subsets", 6, "comb", 0,
     "c32b01139f9936dee2de1344c28a51856748ab9833800826f1ab30ebae855d99"),
    ("cake2", "subsets", 8, "comb", 0,
     "4f35464b5327b4c85d714fbf64e681dc3db53273887b01c274590c16e3aec012"),
    ("cake2", "subsets", 6, "overlap", 0,
     "6981c048b6bfa81d63458918032f1325d237ab17f3a676ffd8691893223fa6a7"),
    ("cake2", "subsets", 8, "overlap", 0,
     "8b1e0ec7f13267bd7e971609bdeb49d42cf01650f58f85f211f1d9bec31556c1"),
    ("chore2", "subsets", 6, "cutter", 0,
     "b370724cec9f8f1c4b0ffaa60c35aabf57658ff221b06ad14063255bc30ccb4e"),
    ("chore2", "subsets", 8, "cutter", 0,
     "6c8dca90c2e807b0ac3cc6f7b44b36a8663e65be9f806bb3234487e4b49d82ae"),
    ("chore2", "subsets", 6, "halves", 0,
     "d676b8b8767a631ba03932e508cb1b7e89590af3ddf456f3fa9e5e5182bd9396"),
    ("chore2", "subsets", 8, "halves", 0,
     "347832b9bdee335f443bbd34714f725d523675b01aca6d0c6cffd799b907cdda"),
    ("chore2", "subsets", 6, "comb", 0,
     "1a06a17ff8c8b903cad1fec7b780ab54e46ee67853ed6a103acca8a98b15d615"),
    ("chore2", "subsets", 8, "comb", 0,
     "b34bb8bf03c0087ba92aabb51b9d0e404b651a6aa3bc241bb3bf8d99ba96089e"),
    ("chore2", "subsets", 6, "overlap", 0,
     "3153aa8bf41fba5f4081290196dd9a7beefab420b33dc1053fc76529333bbe67"),
    ("chore2", "subsets", 8, "overlap", 0,
     "41e899e728c3a2cf77ec7320252e194759c351b706cdb0073a72efbe1e46b622"),
    ("cut-and-choose", "subsets", 6, "cutter", 1,
     "4a5e8c5080792ae5dda697320c72cfd45d169bd647ce06f1f881fdf959158cd1"),
    ("cut-and-choose", "subsets", 8, "cutter", 1,
     "84558ccdf6d10c3d1bfaa1b4f5f82b897bc73bbbcdce2d9172e28305a0e6d548"),
    ("cut-and-choose", "subsets", 6, "halves", 1,
     "ce820ab45ae2128511322d6dd6900920231e309507fed782565709e5befd7666"),
    ("cut-and-choose", "subsets", 8, "halves", 1,
     "1d95d4b7c6e03bea0bd996d3d95e399c2589202f995a39c6c78c7ba33116b7ee"),
    ("cut-and-choose", "subsets", 6, "comb", 0,
     "5c4a4302af890c4e7aea294f6398e52792f827f3c1dcc54ffc3a0422a3086d77"),
    ("cut-and-choose", "subsets", 8, "comb", 0,
     "e41197a9bb44e3cfb063ca3c7b826eab6d85aea33681d31f3ebfe64acc0fefcc"),
    ("cut-and-choose", "subsets", 6, "overlap", 1,
     "a8f454fa91ff67b4e67a34f5372a48e25f1d1def9db05bbc3099f5d6dc8be36c"),
    ("cut-and-choose", "subsets", 8, "overlap", 1,
     "70ff9cf83e63036140899f932ac7881d64a4e886923ce3f4df957fd0335118d5"),
    ("cake2-eating", "subsets", 6, "cutter", 0,
     "7dca6bfebef93bc064249e08d78846ed8759d9d7ba47f212276a6672d3f22a97"),
    ("cake2-eating", "subsets", 8, "cutter", 0,
     "943914e50c03105f11abbc1349d52c80063882a784118d4e74e4e443657ef067"),
    ("cake2-eating", "subsets", 6, "halves", 0,
     "6981c048b6bfa81d63458918032f1325d237ab17f3a676ffd8691893223fa6a7"),
    ("cake2-eating", "subsets", 8, "halves", 0,
     "8b1e0ec7f13267bd7e971609bdeb49d42cf01650f58f85f211f1d9bec31556c1"),
    ("cake2-eating", "subsets", 6, "comb", 0,
     "c32b01139f9936dee2de1344c28a51856748ab9833800826f1ab30ebae855d99"),
    ("cake2-eating", "subsets", 8, "comb", 0,
     "4f35464b5327b4c85d714fbf64e681dc3db53273887b01c274590c16e3aec012"),
    ("cake2-eating", "subsets", 6, "overlap", 0,
     "6981c048b6bfa81d63458918032f1325d237ab17f3a676ffd8691893223fa6a7"),
    ("cake2-eating", "subsets", 8, "overlap", 0,
     "8b1e0ec7f13267bd7e971609bdeb49d42cf01650f58f85f211f1d9bec31556c1"),
    ("prefix-cake", "prefix", 6, "pair", 0,
     "d36bfc0b28f34605e1be2242558d5ef1c8837528a6bb4374d00099fb5e79a7e3"),
    ("prefix-cake", "prefix", 8, "pair", 0,
     "de3520ab27cef35e905109ee21be835b8f6f63ff89e04e6add9708bb91a8062d"),
    ("prefix-cake", "prefix", 6, "triple", 0,
     "06b1129b64c8974926a0b10003c6b0f56039e91928e0abd4d4f159768aa4e64d"),
    ("prefix-cake", "prefix", 8, "triple", 0,
     "b75f71bc46fc85c9019e15fdbfcb4aa829bb8ac6046f5ea76f0b36182162f78f"),
    ("prefix-chore", "prefix", 6, "pair", 0,
     "ab535f7b33f4c1417acb2530e6da012d2ab233096ba63bc1ccdc558085016cbc"),
    ("prefix-chore", "prefix", 8, "pair", 0,
     "0330cd068f4ae4f52df4b89c0c02b4eff6988c7a5bab114f5a39b176c649d2cc"),
    ("prefix-chore", "prefix", 6, "triple", 0,
     "bac8703c0fa75837bb324c9d61fea89dde79c033a672659b78e02507819591aa"),
    ("prefix-chore", "prefix", 8, "triple", 0,
     "201f27ed543c60baabc7c019c96d93af3a863af84a2278de7da25fa7be71bc04"),
]


class TestGoldenBytes:
    @pytest.mark.parametrize("name, claims, verify_digest, allocate_digest",
                             GOLDEN_PREFIX)
    def test_prefix_output_frozen(
        self, fx, capsys, name, claims, verify_digest, allocate_digest
    ):
        path = fx["dir"] / "golden.json"
        path.write_text(json.dumps({
            "resource": get_mechanism(name).kind.value,
            "agents": [
                {"id": f"a{i + 1}", "intervals": [["0", f"{k}/24"]]}
                for i, k in enumerate(claims)
            ],
        }))
        # only prefix-cake breaks a property here: connectedness, and at
        # n = 4 anonymity
        expected_code = 1 if name == "prefix-cake" else 0
        for command, digest, code in (
            ("verify", verify_digest, expected_code),
            ("allocate", allocate_digest, 0),
        ):
            got_code, out = _run_machine(capsys, command, name, path)
            assert got_code == code
            assert hashlib.sha256(out.encode()).hexdigest() == digest, out[:400]

    @pytest.mark.parametrize("name, document, pieces_verdict, digest",
                             GOLDEN_TWO_AGENT)
    def test_two_agent_verify_frozen(
        self, fx, capsys, name, document, pieces_verdict, digest
    ):
        path = fx["dir"] / "golden.json"
        path.write_text(json.dumps(document))
        code, out = _run_machine(capsys, "verify", name, path)
        assert code == 1
        pieces = json.loads(out.splitlines()[-1])
        assert pieces["property"] == "crossing-vs-eating-pieces"
        assert pieces["verdict"] == pieces_verdict
        assert hashlib.sha256(out.encode()).hexdigest() == digest, out[:400]

    @pytest.mark.parametrize("name, document, document_b, digest",
                             GOLDEN_BATTERY)
    def test_battery_frozen(self, fx, capsys, name, document, document_b, digest):
        args = ["verify", "--mechanism", name, "--format", "machine"]
        for option, doc in (("--instance", document), ("--instance-b", document_b)):
            if doc is not None:
                path = fx["dir"] / f"golden{option}.json"
                path.write_text(json.dumps(doc))
                args += [option, str(path)]
        # every one of these breaks connectedness or full coverage
        assert main(args) == 1
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, out[:400]

    @pytest.mark.parametrize("name, family, grid, agents, code, digest",
                             GOLDEN_DEVIATE)
    def test_deviate_frozen(
        self, fx, capsys, name, family, grid, agents, code, digest
    ):
        path = fx["dir"] / "golden.json"
        path.write_text(json.dumps({
            "resource": get_mechanism(name).kind.value,
            "agents": [
                {"id": f"a{i + 1}", "intervals": intervals}
                for i, intervals in enumerate(DEVIATE_AGENTS[agents])
            ],
        }))
        assert main(["deviate", "--mechanism", name, "--instance", str(path),
                     "--grid", str(grid), "--family", family,
                     "--format", "machine"]) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, out[:400]

    @pytest.mark.parametrize(
        "document, expected",
        [
            (
                CUTCHOOSE,
                '{"property": "pareto", "verdict": "violated", "witness": '
                '{"atom": ["1/4", "1/2"], "owner": "a2", "wanted_by": ["a1"]}}\n'
                '{"property": "anonymity", "verdict": "violated", "witness": '
                '{"sigma": [1, 0], "original_values": ["1/2", "1/4"], '
                '"permuted_values": ["7/8", "1/8"], "agent": "a1", '
                '"original_value": "1/2", "permuted_value": "7/8"}}\n',
            ),
            (
                {"resource": "cake", "agents": [
                    {"id": "a1", "intervals": [
                        ["1/48", "5/48"], ["1/3", "17/24"], ["3/4", "47/48"]]},
                    {"id": "a2", "intervals": [
                        ["0", "1/6"], ["5/16", "3/8"], ["7/12", "2/3"]]},
                ]},
                '{"property": "pareto", "verdict": "violated", "witness": '
                '{"atom": ["3/8", "7/12"], "owner": "a2", "wanted_by": ["a1"]}}\n'
                '{"property": "anonymity", "verdict": "violated", "witness": '
                '{"sigma": [1, 0], "original_values": ["11/32", "23/96"], '
                '"permuted_values": ["29/48", "5/32"], "agent": "a1", '
                '"original_value": "11/32", "permuted_value": "29/48"}}\n',
            ),
        ],
    )
    def test_pareto_witness_frozen(self, fx, capsys, document, expected):
        path = fx["dir"] / "golden.json"
        path.write_text(json.dumps(document))
        code, out = _run_machine(capsys, "verify", "cut-and-choose", path)
        assert code == 1
        assert out == (
            '{"property": "full-and-connected", "verdict": "holds", "witness": '
            '{"full": "holds", "connected": "holds"}}\n'
            '{"property": "envy-free", "verdict": "holds", "witness": null}\n'
            '{"property": "proportional", "verdict": "holds", "witness": null}\n'
        ) + expected


class TestDeviate:
    def test_manipulable_mechanism_flagged(self, fx, capsys):
        code = main(
            [
                "deviate",
                "--mechanism",
                "cut-and-choose",
                "--instance",
                fx["cutchoose"],
                "--grid",
                "8",
                "--family",
                "subsets",
            ]
        )
        assert code == 1
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].startswith("truthful: violated")
        assert '"best_value": "7/8"' in lines[0]
        assert lines[1] == "truthful: holds"

    def test_single_agent_machine(self, fx, capsys):
        code = main(
            [
                "deviate",
                "--mechanism",
                "cut-and-choose",
                "--instance",
                fx["cutchoose"],
                "--grid",
                "8",
                "--family",
                "subsets",
                "--agent",
                "a2",
                "--format",
                "machine",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "holds"
        assert doc["witness"]["agent"] == "a2"
        assert doc["witness"]["gain"] == "0/1"

    def test_truthful_mechanism_clean(self, fx, capsys):
        code = main(
            [
                "deviate",
                "--mechanism",
                "cake2",
                "--instance",
                fx["cutchoose"],
                "--grid",
                "6",
                "--family",
                "subsets",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == "truthful: holds\ntruthful: holds\n"


class TestReproduce:
    def test_corpus_matches(self, capsys):
        code = main(["reproduce"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[-1] == "27 cases, 0 diffs"
        assert len(lines) == 28
        assert all(line.endswith(": match") for line in lines[:-1])

    def test_machine_output_is_stable(self, capsys):
        code = main(["reproduce", "--format", "machine"])
        first = capsys.readouterr().out
        assert code == 0
        main(["reproduce", "--format", "machine"])
        assert capsys.readouterr().out == first
        lines = first.strip().split("\n")
        assert len(lines) == 28
        assert json.loads(lines[-1]) == {"summary": {"cases": 27, "diffs": 0}}
        assert all(json.loads(line)["status"] == "match" for line in lines[:-1])


class TestEnumerate:
    def test_text_summary(self, capsys):
        code = main(
            ["enumerate", "--mechanism", "prefix-cake", "--n", "3", "--grid", "6"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.strip().split("\n")[-1] == "343 instances, 0 guarantee violations"

    def test_machine_records_and_worker_independence(self, capsys):
        args = [
            "enumerate",
            "--mechanism",
            "prefix-cake",
            "--n",
            "3",
            "--grid",
            "6",
            "--format",
            "machine",
        ]
        assert main(args + ["--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--workers", "2"]) == 0
        fanned = capsys.readouterr().out
        assert serial == fanned
        lines = serial.strip().split("\n")
        assert len(lines) == 344
        first = json.loads(lines[0])
        assert first["instance"] == 0
        assert first["xs"] == ["0/1", "0/1", "0/1"]
        assert {r["property"] for r in first["reports"]} >= {
            "envy-free",
            "proportional",
            "pareto",
        }
        summary = json.loads(lines[-1])["summary"]
        assert summary["mechanism"] == "prefix-cake"
        assert summary["instances"] == 343
        assert summary["guarantee_violations"] == 0

    def test_chore_summary(self, capsys):
        code = main(
            [
                "enumerate",
                "--mechanism",
                "prefix-chore",
                "--n",
                "2",
                "--grid",
                "4",
                "--format",
                "machine",
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
        assert summary["summary"]["instances"] == 25
        assert summary["summary"]["guarantee_violations"] == 0

    def test_free_disposal_mechanism_skips_pareto(self, capsys):
        code = main(
            [
                "enumerate",
                "--mechanism",
                "connected-baseline",
                "--n",
                "2",
                "--grid",
                "4",
                "--format",
                "machine",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.err
        records = [json.loads(line) for line in captured.out.strip().split("\n")]
        assert len(records[:-1]) == 25
        assert all(
            r["property"] != "pareto" for rec in records[:-1] for r in rec["reports"]
        )
        assert records[-1]["summary"]["guarantee_violations"] == 0

    # Registry entries whose run ignores the reports and breaks a guarantee
    # the entry claims, swept at n=2, D=1, whose profiles are the claims
    # (0, 0), (0, 1), (1, 0) and (1, 1).
    BROKEN = [
        # prefix-cake claims full, envy-free and proportional: [1/2, 1] is
        # thrown away, and a2 gets nothing, which it minds when it claims 1
        (
            "prefix-cake",
            lambda instance: fairslice.Allocation(
                (fairslice.IntervalSet.prefix(fractions.Fraction(1, 2)),
                 fairslice.EMPTY),
                free_disposal=True,
            ),
            [["full"], ["full", "envy-free", "proportional"], ["full"],
             ["full", "envy-free", "proportional"]],
            {"full-and-connected": 4, "envy-free": 2, "proportional": 2},
        ),
        # connected-baseline claims connected pieces, not Pareto optimality:
        # alternating quarters break the one everywhere, the other only
        # where one agent wants nothing, and only the first counts
        (
            "connected-baseline",
            lambda instance: fairslice.Allocation(tuple(
                fairslice.IntervalSet.from_endpoints(
                    [(fractions.Fraction(k, 4), fractions.Fraction(k + 1, 4))
                     for k in (i, i + 2)]
                )
                for i in (0, 1)
            )),
            [["connected"]] * 4,
            {"full-and-connected": 4, "pareto": 2},
        ),
    ]

    @pytest.mark.parametrize("name, run, broken, flagged", BROKEN,
                             ids=["full", "connected"])
    def test_broken_guarantees_are_counted(
        self, capsys, monkeypatch, name, run, broken, flagged
    ):
        monkeypatch.setitem(
            mechanisms.MECHANISMS, name, dataclasses.replace(get_mechanism(name), run=run)
        )
        args = ["enumerate", "--mechanism", name, "--n", "2", "--grid", "1"]
        assert main(args) == 1
        xs = [["0/1", "0/1"], ["0/1", "1/1"], ["1/1", "0/1"], ["1/1", "1/1"]]
        total = sum(map(len, broken))
        assert capsys.readouterr() == ("".join(
            f"instance {k} xs={xs[k]} breaks {', '.join(names)}\n"
            for k, names in enumerate(broken) if names
        ) + f"4 instances, {total} guarantee violations\n", "")
        assert main([*args, "--format", "machine"]) == 1
        summary = json.loads(capsys.readouterr().out.split("\n")[-2])["summary"]
        assert summary["guarantee_violations"] == total
        assert summary["flagged"] == flagged


class TestUsageErrors:
    def test_unknown_mechanism(self, fx, capsys):
        code = main(["allocate", "--mechanism", "mystery", "--instance", fx["uneven"]])
        assert code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_instance_file(self, fx, capsys):
        code = main(
            [
                "allocate",
                "--mechanism",
                "cake2",
                "--instance",
                str(fx["dir"] / "missing.json"),
            ]
        )
        assert code == 2
        assert "No such file" in capsys.readouterr().err

    def test_malformed_json(self, fx, capsys):
        path = fx["dir"] / "broken.json"
        path.write_text("{not json")
        code = main(["allocate", "--mechanism", "cake2", "--instance", str(path)])
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            "[" * 100_000,
            '{"resource": "cake", "agents": [{"id": "a1", "intervals": [['
            + "7" * 5000
            + ', 1]]}]}',
        ],
        ids=["deep-nesting", "5000-digit-integer"],
    )
    def test_json_beyond_decoder_limits(self, fx, capsys, text):
        path = fx["dir"] / "hostile.json"
        path.write_text(text)
        code = main(["verify", "--mechanism", "cake2", "--instance", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("fairslice: error: not valid JSON")
        assert "Traceback" not in err

    def test_float_endpoints_rejected(self, fx, capsys):
        path = fx["dir"] / "floaty.json"
        path.write_text(
            json.dumps(
                {
                    "resource": "cake",
                    "agents": [{"id": "a1", "intervals": [[0.25, 0.5]]}],
                }
            )
        )
        code = main(["allocate", "--mechanism", "cake2", "--instance", str(path)])
        assert code == 2
        assert "floats are not accepted" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "endpoint",
        ["\u0661/\u0662", "\uff11/\uff12", "1 / 2"],
        ids=["arabic-indic-digits", "fullwidth-digits", "spaced-slash"],
    )
    def test_rational_outside_the_ascii_grammar(self, fx, capsys, endpoint):
        path = fx["dir"] / "digits.json"
        path.write_text(json.dumps({
            "resource": "cake",
            "agents": [
                {"id": "a1", "intervals": [["0", endpoint]]},
                {"id": "a2", "intervals": [["0", "1"]]},
            ],
        }))
        code = main(["allocate", "--mechanism", "cake2", "--instance", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"fairslice: error: cannot parse {endpoint!r} as a rational: "
            'expected "p/q" or a decimal string\n'
        )

    @pytest.mark.parametrize("command", ["allocate", "verify", "deviate"])
    def test_agent_id_that_is_not_unicode(self, fx, capsys, command):
        """A lone surrogate is valid JSON but cannot be written as UTF-8."""
        path = fx["dir"] / "surrogate.json"
        path.write_text(json.dumps({
            "resource": "cake",
            "agents": [
                {"id": "\ud800", "intervals": []},
                {"id": "b", "intervals": []},
            ],
        }))
        code = main([command, "--mechanism", "cake2", "--instance", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "fairslice: error: agent '\\ud800': id is not valid Unicode\n"
        )

    def test_grid_must_be_positive(self, fx, capsys):
        code = main(
            [
                "deviate",
                "--mechanism",
                "cake2",
                "--instance",
                fx["uneven"],
                "--grid",
                "0",
            ]
        )
        assert code == 2
        assert "grid denominator must be at least 1" in capsys.readouterr().err

    def test_subset_search_cap(self, fx, capsys):
        code = main(
            [
                "deviate",
                "--mechanism",
                "cake2",
                "--instance",
                fx["uneven"],
                "--grid",
                "15",
                "--family",
                "subsets",
            ]
        )
        assert code == 2
        assert "cap is D=14" in capsys.readouterr().err

    def test_unknown_agent(self, fx, capsys):
        code = main(
            [
                "deviate",
                "--mechanism",
                "cake2",
                "--instance",
                fx["uneven"],
                "--agent",
                "zz",
            ]
        )
        assert code == 2
        assert "unknown agent 'zz'" in capsys.readouterr().err

    def test_prefix_mechanism_subset_family_any_workers(self, fx, capsys):
        args = [
            "deviate",
            "--mechanism",
            "prefix-cake",
            "--instance",
            fx["even"],
            "--family",
            "subsets",
        ]
        assert main(args + ["--workers", "1"]) == 2
        serial = capsys.readouterr().err
        assert main(args + ["--workers", "2"]) == 2
        assert capsys.readouterr().err == serial
        assert "use the prefix family" in serial

    def test_enumerate_sweep_cap(self, capsys):
        code = main(["enumerate", "--mechanism", "prefix-cake", "--n", "10", "--grid", "8"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "prefix sweep at n=10, D=8 has 9^10 profiles; cap is 20000" in captured.err

    def test_huge_prefix_grid_refused_at_once(self, fx, capsys):
        t0 = time.perf_counter()
        code = main(
            [
                "deviate",
                "--mechanism",
                "cake2",
                "--instance",
                fx["uneven"],
                "--family",
                "prefix",
                "--grid",
                "1000000000",
            ]
        )
        assert time.perf_counter() - t0 < 1.0
        assert code == 2
        assert (
            "prefix family at D=1000000000 has 1000000001 candidates; cap is D=16384"
            in capsys.readouterr().err
        )

    def test_huge_sweep_grid_refused_at_once(self, capsys):
        t0 = time.perf_counter()
        code = main(
            ["enumerate", "--mechanism", "prefix-cake", "--n", "2", "--grid", "1000000000"]
        )
        assert time.perf_counter() - t0 < 1.0
        assert code == 2
        assert "has 1000000001^2 profiles; cap is 20000" in capsys.readouterr().err

    def test_non_prefix_report_message(self, fx, capsys):
        code = main(["verify", "--mechanism", "prefix-cake", "--instance", fx["shifted"]])
        assert code == 2
        assert (
            "report must be a prefix [0, x], got [1/2, 1/1]\n"
            in capsys.readouterr().err
        )

    @pytest.mark.parametrize("command", ["allocate", "verify"])
    @pytest.mark.parametrize("fmt", ["text", "machine"])
    def test_result_past_digit_limit(self, fx, capsys, command, fmt):
        """Every endpoint parses, but the cake2 split multiplies the
        3,000-digit denominators past CPython's int-to-str limit."""
        path = fx["dir"] / "huge.json"
        path.write_text(json.dumps({
            "resource": "cake",
            "agents": [
                {"id": "a1", "intervals": [["1/" + "7" * 3000, "1/" + "3" * 3000]]},
                {"id": "a2", "intervals": [["1/" + "9" * 2999 + "1", "1"]]},
            ],
        }))
        code = main([command, "--mechanism", "cake2", "--instance", str(path),
                     "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "fairslice: error: an exact result has an integer of more than "
            f"{sys.get_int_max_str_digits()} digits, too long to print\n"
        )

    def test_long_unparsable_rational_echoed_in_part(self, fx, capsys):
        path = fx["dir"] / "long.json"
        endpoint = "1/" + "1" * 5000
        path.write_text(json.dumps({
            "resource": "cake",
            "agents": [{"id": "a1", "intervals": [["0", endpoint]]}],
        }))
        code = main(["verify", "--mechanism", "prefix-cake", "--instance", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(
            "fairslice: error: cannot parse '1/111111111111111111111111111111111111"
            "11'... (5002 characters) as a rational: "
        )
        assert err.count("\n") == 1 and len(err) < 300

    @pytest.mark.parametrize(
        "args, document, expected",
        [
            (
                ["verify"],
                {"resource": "x" * 5000, "agents": [{"id": "a1", "intervals": []}]},
                '"resource" must be "cake" or "chore", got '
                f"{'x' * 40!r}... (5000 characters)",
            ),
            (
                ["verify"],
                {"resource": list(range(2000)), "agents": [{"id": "a1", "intervals": []}]},
                '"resource" must be "cake" or "chore", got '
                f"{str(list(range(2000)))[:40]!r}... "
                f"({len(str(list(range(2000))))} characters)",
            ),
            (
                ["verify"],
                {"resource": "cake", "agents": [{"id": "b" * 5000, "intervals": "none"}]},
                f"agent {'b' * 40!r}... (5000 characters): intervals must be a list",
            ),
            (
                ["verify"],
                {"resource": "cake", "agents": [
                    {"id": f"agent-{k:05d}", "intervals": []}
                    for k in [*range(2999), 1500]
                ]},
                "duplicate agent id 'agent-01500' among 3000 ids",
            ),
            (
                ["deviate", "--agent", "zz"],
                {"resource": "cake", "agents": [
                    {"id": f"agent-{k:05d}", "intervals": []} for k in range(2999)
                ]},
                "unknown agent 'zz'; the instance has 2999 agents",
            ),
            (
                ["verify"],
                {"resource": "cake", "agents": [
                    {"id": "a1", "intervals": [["0", "9" * 400]]}
                ]},
                f"interval [0, {'9' * 40!r}... (400 characters)] leaves [0, 1]",
            ),
            (
                ["verify"],
                {"resource": "cake", "agents": [
                    {"id": "a1", "intervals": [["-" + "9" * 300, "0"]]}
                ]},
                f"interval [{'-' + '9' * 39!r}... (301 characters), 0] leaves [0, 1]",
            ),
        ],
    )
    def test_outside_text_echoed_in_part(self, fx, capsys, args, document, expected):
        path = fx["dir"] / "echo.json"
        path.write_text(json.dumps(document))
        code = main([args[0], "--mechanism", "prefix-cake", "--instance", str(path),
                     *args[1:]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"fairslice: error: {expected}\n"
        assert len(captured.err.encode()) < 300

    @pytest.mark.parametrize(
        "name, cap",
        [
            ("prefix-cake", mechanisms.PREFIX_CAKE_AGENT_CAP),
            ("prefix-chore", mechanisms.PREFIX_CHORE_AGENT_CAP),
        ],
    )
    def test_agent_cap_fails_fast(self, fx, capsys, name, cap):
        path = fx["dir"] / "many.json"
        path.write_text(json.dumps({
            "resource": get_mechanism(name).kind.value,
            # distinct claims: past the cap prefix-cake's output grows as n^2
            "agents": [
                {"id": f"a{i + 1}", "intervals": [["0", f"{i + 1}/100003"]]}
                for i in range(cap + 1)
            ],
        }))
        code = main(["verify", "--mechanism", name, "--instance", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"fairslice: error: mechanism serves at most {cap} agents, "
            f"instance has {cap + 1}\n"
        )

    def test_enumerate_needs_agents(self, capsys):
        code = main(["enumerate", "--mechanism", "prefix-cake", "--n", "0"])
        assert code == 2
        assert "prefix sweep needs at least 1 agent, not 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name", [m.name for m in mechanisms.MECHANISMS.values() if m.n_agents == 2]
    )
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_enumerate_refuses_fixed_size_before_any_run(
        self, capsys, monkeypatch, name, workers
    ):
        original = get_mechanism(name)
        seen = []

        def counting(instance):
            seen.append(instance)
            return original.run(instance)

        monkeypatch.setitem(
            mechanisms.MECHANISMS, name, dataclasses.replace(original, run=counting)
        )
        monkeypatch.setattr(
            sweeps, "ordered_map", lambda *args: pytest.fail("a sweep started")
        )
        code = main(["enumerate", "--mechanism", name, "--n", "3", "--grid", "2",
                     "--workers", workers])
        assert code == 2
        assert capsys.readouterr() == (
            "", f"fairslice: error: {name} serves 2 agents, not 3\n"
        )
        assert seen == []

    @pytest.mark.parametrize(
        "args",
        [
            ["deviate", "--mechanism", "cake2", "--family", "subsets", "--grid", "4"],
            ["enumerate", "--mechanism", "prefix-cake", "--n", "2", "--grid", "3"],
            ["enumerate", "--mechanism", "cake2", "--n", "3"],
        ],
    )
    @pytest.mark.parametrize("fmt", ["text", "machine"])
    def test_non_positive_workers_run_serially(self, fx, capsys, args, fmt):
        if args[0] == "deviate":
            args = args + ["--instance", fx["uneven"]]
        results = []
        for workers in ("1", "0", "-3"):
            code = main(args + ["--format", fmt, "--workers", workers])
            results.append((code, capsys.readouterr()))
        assert results[0][1].out or results[0][1].err
        assert results[1:] == [results[0]] * 2

    def test_enumerate_has_no_family_option(self, capsys):
        code = main(
            ["enumerate", "--mechanism", "prefix-cake", "--family", "prefix"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --family prefix" in captured.err

    def test_no_command(self, capsys):
        assert main([]) == 2
        assert "required: command" in capsys.readouterr().err


class TestParserReuse:
    """`main` builds its parser once per process and reuses it; every call
    must still behave as it would on a freshly built parser."""

    def test_import_builds_no_parser(self):
        src = os.path.dirname(os.path.dirname(fairslice.__file__))
        probe = subprocess.run(
            [sys.executable, "-c",
             "import fairslice.cli as cli; "
             "print(cli.build_parser.cache_info().currsize)"],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        )
        assert probe.stdout == "0\n"

    def test_import_loads_no_process_pool(self):
        src = os.path.dirname(os.path.dirname(fairslice.__file__))
        probe = subprocess.run(
            [sys.executable, "-c",
             "import sys, fairslice.cli; print(sorted({'concurrent.futures.process', "
             "'multiprocessing'} & set(sys.modules)))"],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        )
        assert probe.stdout == "[]\n"

    def test_repeated_calls_build_it_once(self, fx, capsys):
        build_parser.cache_clear()
        for _ in range(3):
            assert main(["allocate", "--mechanism", "cake2",
                         "--instance", fx["uneven"]]) == 0
        assert main(["verify", "--mechanism", "cake2"]) == 2
        capsys.readouterr()
        info = build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 3)

    @staticmethod
    def _outcome(capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize(
        "sequence, codes, grids",
        [
            # a usage error, then a valid call
            ([["verify", "--mechanism", "cake2"],
              ["verify", "--mechanism", "cake2", "--instance", "{uneven}",
               "--format", "machine"]],
             [2, 1], [None, None]),
            # --grid defaults to 4 for enumerate and to 8 for deviate
            ([["enumerate", "--mechanism", "prefix-cake", "--format", "machine"],
              ["deviate", "--mechanism", "cake2", "--instance", "{uneven}",
               "--format", "machine"]],
             [0, 0], ['"grid": 4', '"grid": 8']),
        ],
        ids=["usage-error-then-valid", "deviate-after-enumerate"],
    )
    def test_sequence_matches_fresh_parser(
        self, fx, capsys, sequence, codes, grids
    ):
        argvs = [[arg.format(**fx) for arg in argv] for argv in sequence]
        fresh = []
        for argv in argvs:
            build_parser.cache_clear()
            fresh.append(self._outcome(capsys, argv))
        build_parser.cache_clear()
        reused = [self._outcome(capsys, argv) for argv in argvs]
        assert build_parser.cache_info().misses == 1
        assert reused == fresh
        assert [code for code, _, _ in fresh] == codes
        for (_, out, _), grid in zip(fresh, grids):
            assert grid is None or grid in out


# Sets for fuzzed instance files: prefixes, which every mechanism accepts,
# and two sets that only the non-prefix mechanisms accept.
PREFIX_SETS = [[], [["0", "1"]], [["0", "1/2"]], [["0", "1/3"]]]
OTHER_SETS = [[["1/4", "3/4"]], [["0", "1/4"], ["1/2", "1"]]]


@st.composite
def fuzz_case(draw):
    """An argument list argparse accepts, for any of the five commands, and
    the two instance documents its "{a}" and "{b}" paths stand for. Half
    the documents fit the mechanism's kind, agent count and report form.
    Flag values include non-positive --grid and --n, unknown --agent ids
    and prefix-only mechanisms with --family subsets. Workers stay in
    {-1, 0, 1}, so no process starts, and sweeps and searches stay small."""
    command = draw(st.sampled_from(
        ["allocate", "verify", "deviate", "reproduce", "enumerate"]
    ))
    mechanism = mechanisms.MECHANISMS[
        draw(st.sampled_from(sorted(mechanisms.MECHANISMS)))
    ]

    def document():
        if draw(st.booleans()):
            kind, n = mechanism.kind.value, mechanism.n_agents
            sets = PREFIX_SETS if mechanism.prefix_only else PREFIX_SETS + OTHER_SETS
        else:
            kind = draw(st.sampled_from(["cake", "chore"]))
            n, sets = None, PREFIX_SETS + OTHER_SETS
        return {"resource": kind, "agents": [
            {"id": f"a{i + 1}", "intervals": draw(st.sampled_from(sets))}
            for i in range(n or draw(st.integers(1, 3)))
        ]}

    argv = [command, "--format", draw(st.sampled_from(["text", "machine"]))]
    if command != "reproduce":
        argv += ["--mechanism", mechanism.name]
    if command in ("allocate", "verify", "deviate"):
        argv += ["--instance", "{a}"]
    if command == "allocate" and draw(st.booleans()):
        argv.append("--trace")
    if command == "verify" and draw(st.booleans()):
        argv += ["--instance-b", "{b}"]
    if command == "deviate":
        family = draw(st.sampled_from([None, "prefix", "subsets"]))
        if family is not None:
            argv += ["--family", family]
        argv.append(f"--grid={draw(st.integers(-1, 4 if family == 'prefix' else 5))}")
        agent = draw(st.sampled_from([None, "a1", "a2", "a3", "zz"]))
        if agent is not None:
            argv += ["--agent", agent]
    if command == "enumerate":
        argv += [f"--n={draw(st.integers(-1, 3))}",
                 f"--grid={draw(st.integers(-1, 4))}"]
    if command in ("deviate", "enumerate"):
        argv.append(f"--workers={draw(st.sampled_from([-1, 0, 1]))}")
    return argv, [document(), document()]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


PREFIX_PAIR_DOCUMENTS = [
    {"resource": "cake", "agents": [
        {"id": "a1", "intervals": [["0", "1/2"]]},
        {"id": "a2", "intervals": [["0", "1"]]},
    ]}
] * 2


class TestFuzzMain:
    @given(case=fuzz_case())
    # the sweep and the search refuse these themselves, with no CLI check
    @example(case=(["enumerate", "--mechanism", "prefix-cake", "--n=-1", "--grid=2"],
                   PREFIX_PAIR_DOCUMENTS))
    @example(case=(["enumerate", "--mechanism", "prefix-chore", "--n=0", "--grid=2"],
                   PREFIX_PAIR_DOCUMENTS))
    @example(case=(["enumerate", "--mechanism", "prefix-cake", "--n=2", "--grid=-1"],
                   PREFIX_PAIR_DOCUMENTS))
    @example(case=(["enumerate", "--mechanism", "cake2", "--n=3", "--grid=2"],
                   PREFIX_PAIR_DOCUMENTS))
    @example(case=(["deviate", "--mechanism", "cake2", "--instance", "{a}",
                    "--grid=0"], PREFIX_PAIR_DOCUMENTS))
    @settings(max_examples=500)
    def test_any_command_exits_cleanly(self, fuzz_dir, case):
        """Exit 0 or 1 with nothing on stderr, or exit 2 with one short
        line; no exception escapes."""
        argv, documents = case
        paths = {}
        for name, document in zip("ab", documents):
            paths[name] = fuzz_dir / f"{name}.json"
            paths[name].write_text(json.dumps(document))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([arg.format(**paths) for arg in argv])
        assert code in (0, 1, 2)
        if code == 2:
            assert err.getvalue().startswith("fairslice: error: ")
            assert err.getvalue().count("\n") == 1 and len(err.getvalue()) < 300
        else:
            assert err.getvalue() == ""
