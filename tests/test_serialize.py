"""JSON instance/allocation/report documents and their round trips."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairslice import (
    DuplicateAgentIdError,
    FairsliceError,
    Instance,
    OutOfRangeError,
    ParseError,
    Resource,
    get_mechanism,
    parse_instance,
)
from fairslice.errors import MalformedIntervalError
from fairslice.properties import check_envy_free
from fairslice.serialize import (
    allocation_document,
    dumps,
    instance_document,
    report_document,
)
from helpers import F, cake, iset, two_agent_instances


def doc_bytes(doc):
    return json.dumps(doc).encode()


# lone surrogates parse from JSON text but cannot be encoded; 5,000 digits
# are past CPython's limit on the digits of an int read from a string
SURROGATES = st.text(st.characters(categories=["Cs"]), min_size=1, max_size=3)
LONG_DIGITS = st.sampled_from("123456789").map(lambda digit: digit * 5000)
LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8)
    | SURROGATES
    | LONG_DIGITS
    | st.sampled_from(["3/2", "1/0", "-1", "2/4/6", " 1/2 "])
)
JSON_VALUES = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(
        st.sampled_from(["resource", "agents", "id", "intervals"]) | st.text(max_size=8),
        children,
        max_size=4,
    ),
    max_leaves=20,
)
# documents shaped like an instance, so that inputs reach every check
ENDPOINTS = st.sampled_from(["0", "1/3", "1/2", "0.25", "1", 0, 1]) | LEAVES
AGENTS = st.fixed_dictionaries(
    {
        "id": st.text(min_size=1, max_size=4) | SURROGATES | JSON_VALUES,
        "intervals": st.lists(
            st.lists(ENDPOINTS, min_size=2, max_size=2) | JSON_VALUES, max_size=3
        )
        | JSON_VALUES,
    }
)
DOCUMENTS = JSON_VALUES | st.fixed_dictionaries(
    {
        "resource": st.sampled_from(["cake", "chore"]) | JSON_VALUES,
        "agents": st.lists(AGENTS, min_size=1, max_size=3) | JSON_VALUES,
    }
)


class TestParseInstance:
    def test_two_agent_cake(self):
        inst = parse_instance(
            doc_bytes(
                {
                    "resource": "cake",
                    "agents": [
                        {"id": "a1", "intervals": [["0", "1/2"]]},
                        {"id": "a2", "intervals": [["0", "1"]]},
                    ],
                }
            )
        )
        assert inst.kind is Resource.CAKE
        assert inst.n == 2
        assert inst.valuations[0].desired == iset((0, F(1, 2)))
        assert inst.valuations[1].desired == iset((0, 1))
        assert inst.ids == ("a1", "a2")

    def test_decimal_strings_parse_exactly(self):
        inst = parse_instance(
            doc_bytes(
                {
                    "resource": "chore",
                    "agents": [
                        {"id": "a1", "intervals": [["0", "0.6"]]},
                        {"id": "a2", "intervals": [["0", "0.3"]]},
                        {"id": "a3", "intervals": [["0", "0.9"]]},
                    ],
                }
            )
        )
        assert inst.kind is Resource.CHORE
        assert [v.desired for v in inst.valuations] == [
            iset((0, F(3, 5))),
            iset((0, F(3, 10))),
            iset((0, F(9, 10))),
        ]

    def test_empty_agent_list_rejected(self):
        with pytest.raises(ParseError):
            parse_instance(doc_bytes({"resource": "cake", "agents": []}))

    def test_malformed_json_rejected(self):
        with pytest.raises(ParseError):
            parse_instance(b"{not json")

    def test_float_endpoints_rejected(self):
        with pytest.raises(ParseError):
            parse_instance(
                b'{"resource":"cake","agents":'
                b'[{"id":"a1","intervals":[[0.25,"1/2"]]}]}'
            )

    def test_unknown_resource_rejected(self):
        with pytest.raises(ParseError):
            parse_instance(
                doc_bytes({"resource": "lawn", "agents": [{"id": "a1", "intervals": []}]})
            )

    def test_duplicate_agent_ids_rejected(self):
        with pytest.raises(DuplicateAgentIdError):
            parse_instance(
                doc_bytes(
                    {
                        "resource": "cake",
                        "agents": [
                            {"id": "x", "intervals": []},
                            {"id": "x", "intervals": []},
                        ],
                    }
                )
            )

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(OutOfRangeError):
            parse_instance(
                doc_bytes(
                    {
                        "resource": "cake",
                        "agents": [{"id": "a1", "intervals": [["0", "2"]]}],
                    }
                )
            )

    def test_backwards_interval_rejected(self):
        with pytest.raises(MalformedIntervalError):
            parse_instance(
                doc_bytes(
                    {
                        "resource": "cake",
                        "agents": [{"id": "a1", "intervals": [["1/2", "1/4"]]}],
                    }
                )
            )

    def test_zero_denominator_rejected(self):
        with pytest.raises(ParseError):
            parse_instance(
                doc_bytes(
                    {
                        "resource": "cake",
                        "agents": [{"id": "a1", "intervals": [["1/0", "1"]]}],
                    }
                )
            )


    @given(st.binary() | DOCUMENTS.map(json.dumps))
    @settings(max_examples=500)
    def test_any_input_parses_or_fails_with_one_short_line(self, document):
        try:
            parsed = parse_instance(document)
        except FairsliceError as exc:
            message = str(exc)
            assert "\n" not in message and len(message) <= 300, message
        else:
            assert isinstance(parsed, Instance)


class TestRoundTrips:
    def test_parse_then_serialize_is_identity_on_canonical_documents(self):
        doc = {
            "resource": "cake",
            "agents": [
                {"id": "a1", "intervals": [["0/1", "1/2"]]},
                {"id": "a2", "intervals": [["0/1", "1/1"]]},
            ],
        }
        assert instance_document(parse_instance(doc_bytes(doc))) == doc

    @given(two_agent_instances())
    def test_serialize_then_parse_recovers_instance(self, inst):
        blob = dumps(instance_document(inst)).encode()
        assert parse_instance(blob) == inst

    @given(two_agent_instances(kind=Resource.CHORE))
    def test_chore_instances_round_trip_too(self, inst):
        blob = dumps(instance_document(inst)).encode()
        assert parse_instance(blob) == inst


class TestDocuments:
    def test_allocation_document_shape(self):
        inst = cake(iset((0, F(1, 2))), iset((0, 1)))
        alloc = get_mechanism("cake2").run(inst)
        doc = allocation_document(inst, alloc.pieces, alloc.values(inst))
        assert doc == {
            "pieces": [
                {"id": "a1", "intervals": [["0/1", "1/2"]], "value": "1/2"},
                {"id": "a2", "intervals": [["1/2", "1/1"]], "value": "1/2"},
            ]
        }

    def test_report_document_shape(self):
        inst = cake(iset((0, F(1, 2))), iset((0, 1)))
        alloc = get_mechanism("cake2").run(inst)
        doc = report_document(check_envy_free(inst, alloc))
        assert doc == {"property": "envy-free", "verdict": "holds", "witness": None}

    def test_rationals_in_documents_are_strings(self):
        inst = cake(iset((0, F(1, 3))), iset((0, 1)))
        blob = dumps(instance_document(inst))
        parsed = json.loads(blob)
        for agent in parsed["agents"]:
            for left, right in agent["intervals"]:
                assert isinstance(left, str) and isinstance(right, str)
                assert "/" in left and "/" in right

    def test_dumps_is_stable(self):
        inst = cake(iset((0, F(1, 3))), iset((0, 1)))
        assert dumps(instance_document(inst)) == dumps(instance_document(inst))
