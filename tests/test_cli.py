"""End-to-end command line behavior through ``main``."""

import dataclasses
import json
import sys
import time

import pytest

from fairslice import get_mechanism, mechanisms
from fairslice.cli import main

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
            # no anonymity check past four agents
            ("prefix-chore", 5, False, 1),
        ],
    )
    def test_each_profile_runs_once(
        self, fx, capsys, monkeypatch, name, agents, instance_b, runs
    ):
        original = get_mechanism(name)
        seen = []

        def counting(instance):
            seen.append(instance)
            return original.run(instance)

        monkeypatch.setitem(
            mechanisms.MECHANISMS, name, dataclasses.replace(original, run=counting)
        )
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

    def test_wrong_agent_count(self, fx, capsys):
        code = main(["verify", "--mechanism", "cake2", "--instance", fx["three"]])
        assert code == 2
        assert "exactly 2 agents" in capsys.readouterr().err


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
        assert "--grid must be at least 1" in capsys.readouterr().err

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

    def test_enumerate_needs_agents(self, capsys):
        code = main(["enumerate", "--mechanism", "prefix-cake", "--n", "0"])
        assert code == 2
        assert "--n must be at least 1" in capsys.readouterr().err

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
