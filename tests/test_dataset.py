"""Dataset loading, validation, description and round-trip serialization."""

from __future__ import annotations

import csv
import importlib.util

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logitlab import dataset as ds

from conftest import ROOT, SYNTH_CSV, SYNTH_DICT, SYNTH_FLIPPED_CSV

DICT_MD = """# Tiny dictionary

| name | kind | alternative | units | description |
| --- | --- | --- | --- | --- |
| ID | id |  |  | person |
| av_a | availability | a | 0/1 | a available |
| av_b | availability | b | 0/1 | b available |
| choice | choice |  |  | chosen |
| time_a | attribute | a | minutes | in-vehicle travel time |
| cost_a | attribute | a | pounds | travel cost |
| access_a | attribute | a | minutes | access time |
| inc | covariate |  |  | income |
"""


HEADER = "ID,av_a,av_b,choice,time_a,cost_a,access_a,inc\n"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def assert_same_data(a: ds.Dataset, b: ds.Dataset) -> None:
    assert a.alternatives == b.alternatives
    assert a.dictionary == b.dictionary
    assert a.columns.keys() == b.columns.keys()
    for name, values in b.columns.items():
        np.testing.assert_array_equal(a.columns[name], values, strict=True)
    np.testing.assert_array_equal(a.avail, b.avail, strict=True)
    np.testing.assert_array_equal(a.choice_idx, b.choice_idx, strict=True)
    assert a.person_id == b.person_id


def _refuse(*args):
    raise ValueError("numpy's reader refuses every file")


def load_with_csv_reader(csv_path, dictionary_path) -> ds.Dataset:
    """``load_dataset`` as it goes for a file numpy's reader refuses: by csv.reader alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ds, "_read_plain", _refuse)
        return ds.load_dataset(csv_path, dictionary_path)


def test_loads_frozen_dataset(synth_data):
    assert synth_data.n_obs == 1000
    assert synth_data.alternatives == ("car", "bus", "air", "rail")
    assert len(synth_data.dictionary.entries) == 20


def test_choice_parsed_from_name_or_code(tmp_path):
    d = write(tmp_path, "d.md", DICT_MD)
    csv_text = HEADER + "1,1,1,a,10,2,1,30\n2,1,1,2,12,3,1,31\n3,1,1,2.0,12,3,1,31\n"
    data = ds.load_dataset(write(tmp_path, "c.csv", csv_text), d)
    assert [data.alternatives[i] for i in data.choice_idx] == ["a", "b", "b"]


def test_rejects_unavailable_choice(tmp_path):
    three = DICT_MD.replace(
        "| av_b | availability | b | 0/1 | b available |",
        "| av_b | availability | b | 0/1 | b available |\n"
        "| av_c | availability | c | 0/1 | c available |",
    )
    d = write(tmp_path, "d.md", three)
    c = write(
        tmp_path, "c.csv",
        "ID,av_a,av_b,av_c,choice,time_a,cost_a,access_a,inc\n1,0,1,1,a,10,2,1,30\n",
    )
    with pytest.raises(ds.ChoiceUnavailable, match="row 1"):
        ds.load_dataset(c, d)


def test_rejects_fewer_than_two_available(tmp_path):
    d = write(tmp_path, "d.md", DICT_MD)
    c = write(tmp_path, "c.csv", "ID,av_a,av_b,choice,time_a,cost_a,access_a,inc\n1,1,0,a,10,2,1,30\n")
    with pytest.raises(ds.TooFewAvailable, match="row 1"):
        ds.load_dataset(c, d)


def test_rejects_missing_column(tmp_path):
    d = write(tmp_path, "d.md", DICT_MD)
    c = write(tmp_path, "c.csv", "ID,av_a,av_b,choice,time_a,cost_a,inc\n1,1,1,a,10,2,30\n")
    with pytest.raises(ds.MissingColumn, match="access_a"):
        ds.load_dataset(c, d)


def test_rejects_non_finite_and_non_numeric(tmp_path):
    d = write(tmp_path, "d.md", DICT_MD)
    c = write(tmp_path, "c.csv", "ID,av_a,av_b,choice,time_a,cost_a,access_a,inc\n1,1,1,a,nan,2,1,30\n")
    with pytest.raises(ds.NonFiniteValue, match="time_a"):
        ds.load_dataset(c, d)
    c = write(tmp_path, "c2.csv", "ID,av_a,av_b,choice,time_a,cost_a,access_a,inc\n1,1,1,a,ten,2,1,30\n")
    with pytest.raises(ds.NonFiniteValue, match="'ten'"):
        ds.load_dataset(c, d)


def test_rejects_bad_availability_cell(tmp_path):
    d = write(tmp_path, "d.md", DICT_MD)
    c = write(tmp_path, "c.csv", "ID,av_a,av_b,choice,time_a,cost_a,access_a,inc\n1,2,1,a,10,2,1,30\n")
    with pytest.raises(ds.DatasetError, match="availability"):
        ds.load_dataset(c, d)


def test_rejects_out_of_range_choice_code(tmp_path):
    d = write(tmp_path, "d.md", DICT_MD)
    c = write(tmp_path, "c.csv", "ID,av_a,av_b,choice,time_a,cost_a,access_a,inc\n1,1,1,3,10,2,1,30\n")
    with pytest.raises(ds.DatasetError, match="out of range"):
        ds.load_dataset(c, d)


def test_rejects_short_row(tmp_path):
    d = write(tmp_path, "d.md", DICT_MD)
    c = write(tmp_path, "c.csv", HEADER + "1,1,1,a,10,2,1,30\n2,1,1,b,12\n")
    with pytest.raises(ds.DatasetError, match=r"^row 2: 5 cells, the header has 8$"):
        ds.load_dataset(c, d)


# Files with several violations: the error raised is the lowest row's, and
# within a row the first in the order availability, two available, choice,
# chosen available, numbers.  Blank lines count toward row numbers.
MIXED_VIOLATIONS = [
    (["1,1,1,a,nan,2,1,30", "2,2,1,a,10,2,1,30"],
     ds.NonFiniteValue, "row 1, column 'time_a': non-finite value 'nan'"),
    (["1,1,1,a,10,2,1,x", "2,1,1,a,y,2,1,30"],
     ds.NonFiniteValue, "row 1, column 'inc': cannot parse 'x'"),
    (["1,1,1,a,10,2,1,30", "2,1,0,a,10,2,1,30", "3,1,1"],
     ds.TooFewAvailable, "row 2: fewer than 2"),
    (["1,1,1,a,10,2,1,30", "2,1,1", "3,1,0,a,10,2,1,30"],
     ds.DatasetError, "row 2: 3 cells"),
    (["1,2,1,a,ten,2,1,30"],
     ds.DatasetError, "row 1, column 'av_a': availability must be 0 or 1"),
    (["1,1,1,z,ten,2,1,30"],
     ds.DatasetError, "row 1: unknown choice value 'z'"),
    (["", "1,1,1,a,10,2,1,30", "  ,  ", "2,1,1,q,10,2,1,nan"],
     ds.DatasetError, "row 4: unknown choice value 'q'"),
    (["1,1,1,inf,10,2,1,30"],
     ds.DatasetError, "row 1: unknown choice value 'inf'"),
    (["1,1,1,a,10,2,1,30", "2,1,1,1.7,10,2,1,30"],
     ds.DatasetError, "row 2: unknown choice value '1.7'"),
    (["1,1,1,a,10,2,1,30", "2,1,1,b,12,3,1,x"],
     ds.NonFiniteValue, "row 2, column 'inc': cannot parse 'x'"),
    (["1,1,1,a,10,2,1,inf", "2,1,1,b,ten,3,1,30"],
     ds.NonFiniteValue, "row 1, column 'inc': non-finite value 'inf'"),
]


@pytest.mark.parametrize("block_rows", [1, ds.BLOCK_ROWS])
@pytest.mark.parametrize("lines, error, message", MIXED_VIOLATIONS)
def test_lowest_row_violation_is_raised(tmp_path, monkeypatch, lines, error, message, block_rows):
    monkeypatch.setattr(ds, "BLOCK_ROWS", block_rows)
    d = write(tmp_path, "d.md", DICT_MD)
    c = write(tmp_path, "c.csv", HEADER + "\n".join(lines) + "\n")
    with pytest.raises(ds.DatasetError) as info:
        ds.load_dataset(c, d)
    assert type(info.value) is error
    assert str(info.value).startswith(message)


def test_dictionary_requires_exactly_one_choice():
    with pytest.raises(ds.DatasetError, match="choice"):
        ds.DataDictionary(entries=(ds.DictEntry("x", "attribute", "a"),))


def test_dictionary_rejects_duplicates():
    with pytest.raises(ds.DatasetError, match="duplicate"):
        ds.DataDictionary(
            entries=(
                ds.DictEntry("c", "choice"),
                ds.DictEntry("x", "covariate"),
                ds.DictEntry("x", "covariate"),
            )
        )


def test_dictionary_rejects_second_id_entry():
    text = DICT_MD.replace("| av_a |", "| HH | id |  |  | household |\n| av_a |")
    with pytest.raises(ds.DatasetError, match=r"at most one id entry, found \['ID', 'HH'\]"):
        ds.parse_dictionary(text)


def test_dictionary_rejects_second_availability_entry_for_an_alternative():
    text = DICT_MD.replace("| choice |", "| av_b2 | availability | b | 0/1 | b again |\n| choice |")
    with pytest.raises(ds.DatasetError, match="alternative 'b' has more than one availability"):
        ds.parse_dictionary(text)


def test_quantity_inferred_from_units_and_description():
    d = ds.parse_dictionary(DICT_MD)
    assert d.entry("time_a").quantity == "time"
    assert d.entry("cost_a").quantity == "cost"
    assert d.entry("access_a").quantity == "other"  # access time is not in-vehicle
    assert d.entry("inc").quantity == "other"


def test_explicit_quantity_column_wins(synth_data):
    d = synth_data.dictionary
    assert d.entry("time_rail").quantity == "time"
    assert d.entry("cost_air").quantity == "cost"
    assert d.entry("access_bus").quantity == "other"


def test_csv_round_trip(synth_data, tmp_path):
    out = tmp_path / "again.csv"
    ds.write_csv(synth_data, out)
    again = ds.load_dataset(out, SYNTH_DICT)
    assert_same_data(again, synth_data)


def test_load_in_small_blocks_matches_whole_file(synth_data, monkeypatch):
    monkeypatch.setattr(ds, "BLOCK_ROWS", 7)
    assert_same_data(load_with_csv_reader(SYNTH_CSV, SYNTH_DICT), synth_data)


# Cells float() reads in its own way: padding, digit grouping, exponent case, signs.
FLOAT_CELLS = (" 2.5 ", "1_000", "1E3", "-0", "+.5")


def test_columns_hold_python_float_of_each_cell(synth_data, tmp_path):
    odd = write(tmp_path, "c.csv", HEADER + "".join(
        f"{i},1,1,a,{','.join(np.roll(FLOAT_CELLS, i)[:4])}\n" for i in range(len(FLOAT_CELLS))
    ))
    odd_data = ds.load_dataset(odd, write(tmp_path, "d.md", DICT_MD))
    by_csv_reader = load_with_csv_reader(SYNTH_CSV, SYNTH_DICT)
    for data, path in ((synth_data, SYNTH_CSV), (by_csv_reader, SYNTH_CSV), (odd_data, odd)):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        for name, values in data.columns.items():
            expected = np.array([float(r[name]) for r in rows])
            np.testing.assert_array_equal(values.view(np.int64), expected.view(np.int64))
        assert data.person_id == tuple(r["ID"] for r in rows)
        chosen = [data.alternatives[i] for i in data.choice_idx]
        assert chosen == [r["choice"] for r in rows]


def test_ids_differing_in_trailing_nul_stay_apart(tmp_path, monkeypatch):
    csv_path = write(tmp_path, "c.csv", HEADER + "7,1,1,a,1,2,3,4\n7\x00,1,1,b,1,2,3,4\n")
    plain_reads = []
    read_plain = ds._read_plain

    def spy(*args):
        plain_reads.append(read_plain(*args))
        return plain_reads[-1]

    monkeypatch.setattr(ds, "_read_plain", spy)
    data = ds.load_dataset(csv_path, write(tmp_path, "d.md", DICT_MD))
    assert not plain_reads  # a NUL leaves the file to csv.reader
    assert data.person_id == ("7", "7\x00")


# -- numpy's reader against csv.reader ---------------------------------------

SYNTH_NAMES = [e.name for e in ds.parse_dictionary(SYNTH_DICT.read_text(encoding="utf-8")).entries]
SYNTH_ALTS = ("car", "bus", "air", "rail")
NUMBER_NAMES = SYNTH_NAMES[SYNTH_NAMES.index("choice") + 1:]
NUMBER_CELLS = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(("1E3", "-0", "+.5", "2.5", "1e-320")),
)
# Padding float() strips and padding it does not: numpy strips the ASCII separators too.
PADS = st.sampled_from(" \t\x0b\x0c\x85\xa0\u2028\u3000" "\x1c\x1f\u200b\x00")
# Edits numpy's reader takes, then edits that leave the file to csv.reader or break a rule.
PLAIN_EDITS = ("padded number", "crlf", "no final newline", "extra column")
OTHER_EDITS = (
    "quoted id", "quoted comma", "blank line", "whitespace line", "short row", "long row",
    "1_000", "nan", "1e400", "availability 1.0", "unknown choice", "unavailable choice",
    "fractional choice", "invalid utf-8",
)


@st.composite
def synth_csv_files(draw) -> tuple[bytes, bool, bool]:
    """A small CSV under the shipped dictionary, with a few edits.

    Also whether the dictionary documents the ID column (without it, rows
    are numbered) and whether all edits are plain.
    """
    names = list(SYNTH_NAMES)
    rows, chosen = [], []
    for i in range(draw(st.integers(1, 6))):
        offered = draw(st.sets(st.integers(0, 3), min_size=2))
        chosen.append(draw(st.sampled_from(sorted(offered))))
        row = {name: draw(NUMBER_CELLS) for name in NUMBER_NAMES}
        row.update({f"av_{alt}": str(int(j in offered)) for j, alt in enumerate(SYNTH_ALTS)})
        row.update(ID=str(i // 2 + 1), choice=draw(st.sampled_from(
            (SYNTH_ALTS[chosen[-1]], str(chosen[-1] + 1), f"{chosen[-1] + 1}.0")
        )))
        rows.append(row)
    edits = draw(st.lists(st.sampled_from(PLAIN_EDITS + OTHER_EDITS), unique=True, max_size=3))
    for edit in edits:
        i = draw(st.integers(0, len(rows) - 1))
        number = draw(st.sampled_from(NUMBER_NAMES))
        cell_edits = {
            "padded number": (number, draw(PADS) + rows[i][number] + draw(PADS)),
            "quoted id": ("ID", '"7"'),
            "quoted comma": ("ID", '"7,8"'),
            "1_000": (number, "1_000"),
            "nan": (number, "nan"),
            "1e400": (number, "1e400"),
            "availability 1.0": (f"av_{draw(st.sampled_from(SYNTH_ALTS))}", "1.0"),
            "unknown choice": ("choice", "walk"),
            "unavailable choice": (f"av_{SYNTH_ALTS[chosen[i]]}", "0"),
            "fractional choice": ("choice", "1.7"),
        }
        if edit in cell_edits:
            name, cell = cell_edits[edit]
            rows[i][name] = cell
    if "extra column" in edits:
        names.insert(draw(st.integers(0, len(names))), "note")
        for i, row in enumerate(rows):
            row["note"] = f"n{i}"
    lines = [",".join(names)] + [",".join(row[name] for name in names) for row in rows]
    short_line = draw(st.integers(1, len(rows))) if "short row" in edits else None
    long_line = draw(st.integers(1, len(rows))) if "long row" in edits else None
    if short_line is not None:
        # one cell cut and one added would leave a plain row
        cut = draw(st.integers(1 + (short_line == long_line), 3))
        lines[short_line] = lines[short_line].rsplit(",", cut)[0]
    if long_line is not None:
        lines[long_line] += ",9"
    whitespace_line = draw(st.sampled_from([" ", " , "]))
    for edit, line in (("blank line", ""), ("whitespace line", whitespace_line)):
        if edit in edits:
            # an empty last line is no edit when the file has no final newline
            last = len(lines) - (not line and "no final newline" in edits)
            lines.insert(draw(st.integers(1, last)), line)
    end = "\r\n" if "crlf" in edits else "\n"
    data = (end.join(lines) + ("" if "no final newline" in edits else end)).encode("utf-8")
    if "invalid utf-8" in edits:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data, draw(st.booleans()), set(edits) <= set(PLAIN_EDITS)


def load_outcome(path, dictionary_path):
    """The dataset, or the class and message of the error loading it raises."""
    try:
        return ds.load_dataset(path, dictionary_path)
    except Exception as exc:  # the readers must agree on any error
        return type(exc), str(exc)


SYNTH_ROW = "1,1,1,0,1,car," + ",".join(["12"] * len(NUMBER_NAMES))


@settings(max_examples=300, deadline=None)
@given(case=synth_csv_files())
@example(case=(f"{','.join(SYNTH_NAMES)}\n{SYNTH_ROW}\n".encode(), True, True))
@example(case=(f"{','.join(SYNTH_NAMES)}\n\"7\"{SYNTH_ROW[1:]}\n".encode(), True, False))
@example(case=(f"{','.join(SYNTH_NAMES)}\n{SYNTH_ROW}\x1c\n".encode(), True, True))
@example(case=(f"{','.join(SYNTH_NAMES)}\n\n{SYNTH_ROW}\n".encode(), False, False))
@example(case=(f"{','.join(SYNTH_NAMES)}\n\n".encode(), True, False))
@example(case=(f"{','.join(SYNTH_NAMES)}\n{SYNTH_ROW}\r\r{SYNTH_ROW}\n".encode(), False, False))
@example(case=(f"{','.join(SYNTH_NAMES)}\n{'7' * 200_000}{SYNTH_ROW[1:]}\n".encode(), True, False))
def test_numpy_reader_loads_as_csv_reader_does(tmp_path_factory, case):
    data, documented_id, plain = case
    path = tmp_path_factory.mktemp("differential") / "c.csv"
    path.write_bytes(data)
    dictionary = SYNTH_DICT.read_text(encoding="utf-8")
    if not documented_id:
        dictionary = "".join(
            line for line in dictionary.splitlines(keepends=True) if not line.startswith("| ID |")
        )
    dictionary_path = write(path.parent, "d.md", dictionary)
    plain_reads = []
    read_plain = ds._read_plain

    def spy(*args):
        plain_reads.append(read_plain(*args))  # only a read that returns counts
        return plain_reads[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ds, "_read_plain", spy)
        loaded = load_outcome(path, dictionary_path)
        mp.setattr(ds, "_read_plain", _refuse)
        reference = load_outcome(path, dictionary_path)
    if not isinstance(reference, ds.Dataset):
        assert loaded == reference
        return
    assert isinstance(loaded, ds.Dataset), loaded
    assert_same_data(loaded, reference)
    for name, values in reference.columns.items():  # bit for bit, -0.0 included
        np.testing.assert_array_equal(loaded.columns[name].view(np.int64), values.view(np.int64))
    assert bool(plain_reads) == plain


def test_arrays_are_read_only(synth_data):
    for array in (synth_data.avail, synth_data.choice_idx, synth_data.columns["time_car"]):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_generator_reproduces_shipped_files():
    spec = importlib.util.spec_from_file_location(
        "make_synthetic_data", ROOT / "tools/make_synthetic_data.py"
    )
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    for cost_sign, shipped in ((-1.0, SYNTH_CSV), (1.0, SYNTH_FLIPPED_CSV)):
        data = gen.simulate(cost_sign, np.random.default_rng(gen.SEED))
        assert ds.format_csv(data) == shipped.read_text(encoding="utf-8")
    text = ds.write_dictionary(gen.build_dictionary(), title="Synthetic mode choice dictionary")
    assert text == SYNTH_DICT.read_text(encoding="utf-8")


def test_format_csv_is_deterministic(synth_data):
    assert ds.format_csv(synth_data) == ds.format_csv(synth_data)
    assert ds.format_csv(synth_data) == SYNTH_CSV.read_text(encoding="utf-8")


def test_dictionary_round_trip(synth_data):
    text = ds.write_dictionary(synth_data.dictionary)
    assert ds.parse_dictionary(text) == synth_data.dictionary


def test_describe_document(synth_data):
    doc = ds.describe(synth_data)
    assert "observations: 1000" in doc
    assert "alternatives: car, bus, air, rail" in doc
    for e in synth_data.dictionary.entries:
        assert f"| {e.name} |" in doc
    assert doc == ds.describe(synth_data)
