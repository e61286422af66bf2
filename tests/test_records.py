"""The record classes of the report: construction by keyword, equality,
hashing, repr and the JSON form."""

import pickle

import pytest

from hatkit.altcycles import (AltDecomposition, alternating_cycles,
                              antipodal_involution, half_arc_orientation)
from hatkit.autgroup import (TransitivityReport, automorphism_group,
                             transitivity_report)
from hatkit.census import CensusEntry, builtin_entries, complete_graph
from hatkit.cli import _EntryAnalysis
from hatkit.covers import CoveringMap, quotient_by_tau
from hatkit.dartgraph import DartLabeling
from hatkit.records import Record, replace

# The JSON keys of each record class in the report, in order.
JSON_KEYS = {
    CensusEntry: ("name", "graph6", "expected"),
    TransitivityReport: (
        "vertex_transitive", "edge_transitive", "arc_transitive",
        "two_arc_transitive", "half_arc_transitive", "arc_orbit_count"),
}
RECORD_CLASSES = {AltDecomposition, TransitivityReport, CensusEntry,
                  CoveringMap, DartLabeling}
HIDDEN = {
    TransitivityReport: {"arc_orbits"},
}


@pytest.fixture(scope="module")
def builtin_records():
    """Every record with a JSON form that the verify suites and analyze
    build on the builtin census, by class."""
    found = {}
    for entry in builtin_entries():
        found.setdefault(CensusEntry, []).append(entry)
        analysis = _EntryAnalysis(entry.graph())
        found.setdefault(TransitivityReport, []).append(analysis.report)
    return found


@pytest.fixture(scope="module")
def one_of_each(builtin_records):
    """One record of every record class: the cover stage's records of
    Dart(Petersen) and the first builtin record of each other class."""
    petersen = next(e for e in builtin_entries() if e.name == "petersen")
    labeling, lifted, dec, _ = _EntryAnalysis(petersen.graph()).forward
    tau = antipodal_involution(labeling.graph, dec, lifted)
    cover = quotient_by_tau(labeling.graph, tau)
    records = [cover, labeling, dec]
    records += [found[0] for found in builtin_records.values()]
    assert {type(r) for r in records} == RECORD_CLASSES
    return records


def test_builtin_records_json_keys_and_strings(builtin_records):
    """to_json_dict writes each record's keys in declaration order, less
    the hidden fields, and only a census entry's name and graph6 as
    strings."""
    assert set(builtin_records) == set(JSON_KEYS)
    for cls, records in builtin_records.items():
        for record in records:
            data = record.to_json_dict()
            assert tuple(data) == JSON_KEYS[cls]
            assert {k for k, v in data.items() if isinstance(v, str)} == (
                {"name", "graph6"} if cls is CensusEntry else set())


def test_record_equality_compares_every_field(one_of_each):
    """Records are equal when of the same class with equal fields; each
    field takes part, and a record of a subclass or of another class with
    the same attributes is never equal."""
    for record in one_of_each:
        twin = replace(record)
        assert twin == record and twin is not record
        for name in record._fields:
            other = replace(record)
            setattr(other, name, object())
            assert other != record, (type(record).__name__, name)
        sub = type("Sub", (type(record),), {})
        assert sub._fields == record._fields
        values = {f: getattr(record, f) for f in record._fields}
        assert sub(**values) != record
        assert record.__eq__(vars(record)) is NotImplemented


def test_census_entry_equality_ignores_parsed():
    """The parsed graph is no field: == ignores it, the JSON form and the
    repr leave it out, and replace parses the graph6 string again."""
    plain = CensusEntry(name="k4", graph6="C~")
    other = CensusEntry(name="k4", graph6="C~", parsed=complete_graph(5))
    assert plain == other and plain.parsed != other.parsed
    assert plain.expected is None
    assert plain.to_json_dict() == {"name": "k4", "graph6": "C~",
                                    "expected": None}
    assert repr(plain) == "CensusEntry(name='k4', graph6='C~', expected=None)"
    assert replace(other).parsed == plain.parsed
    assert plain != CensusEntry(name="k4", graph6="C~", expected={})
    copied = pickle.loads(pickle.dumps(other))
    assert copied == other and copied.parsed == other.parsed


def test_records_are_unhashable(one_of_each):
    for record in one_of_each:
        with pytest.raises(TypeError):
            hash(record)


def test_record_fields_missing_or_unknown_raise_type_error(one_of_each):
    """Every field is required, but a census entry's expected properties
    (None by default); an unknown field is refused."""
    assert set(Record.__subclasses__()) == RECORD_CLASSES
    for record in one_of_each:
        values = {f: getattr(record, f) for f in record._fields}
        for name in record._fields:
            if (type(record), name) == (CensusEntry, "expected"):
                continue
            fewer = {f: v for f, v in values.items() if f != name}
            with pytest.raises(TypeError):
                type(record)(**fewer)
        with pytest.raises(TypeError):
            type(record)(**values, unknown=1)


def test_record_repr_leaves_out_hidden_fields(one_of_each):
    for record in one_of_each:
        text = repr(record)
        hidden = HIDDEN.get(type(record), set())
        shown = [f for f in record._fields if f not in hidden]
        assert text == (f"{type(record).__name__}("
                        + ", ".join(f"{f}={getattr(record, f)!r}"
                                    for f in shown) + ")")


def test_replace_keeps_nothing_cached():
    """replace builds from the fields alone: a decomposition's cached
    graph of alternating cycles is not carried over."""
    g = complete_graph(4)
    report = transitivity_report(automorphism_group(g), g)
    assert replace(report, arc_orbit_count=0).arc_orbit_count == 0
    holt = next(e for e in builtin_entries() if e.name == "holt").graph()
    holt_report = transitivity_report(automorphism_group(holt), holt)
    d = half_arc_orientation(holt, holt_report)
    dec = alternating_cycles(d)
    cycle_graph = dec.cycle_graph
    assert "cycle_graph" in vars(dec)
    copy = replace(dec)
    assert "cycle_graph" not in vars(copy)
    assert copy.cycle_graph == cycle_graph
    assert isinstance(copy, AltDecomposition)
