"""Choice dataset loading, validation and description.

A dataset is a CSV of long-format choice observations plus a markdown
data dictionary declaring what each column means.  The dictionary is the
single source of truth for variable roles: attributes (per-alternative),
covariates (per-person), availability flags, the choice column and
optional identifier columns.

A :class:`Dataset` holds one entry per non-blank CSV row in each of its
read-only column arrays, so it is immutable after load and safe to share
across concurrent estimations.  Only this module knows the CSV layout.

Two readers share one set of data rules.  numpy's C reader
(``np.loadtxt``) takes a plain CSV in one pass: after the header, one
with no ``"``, NUL, ASCII separator (``\\x1c``-``\\x1f``) or blank line,
``\\n`` or ``\\r\\n`` line ends, and in every line the header's cell count
with a number numpy parses in each attribute and covariate cell.  Every
other file, and every file that breaks a rule, is read again from the
start by ``csv.reader``, the reference reader, so the data loaded and
each error message are the same whichever reader took the file.

Parsing happens once per file content.  :func:`load_dataset` keeps the
checked columns of each file it parses in an on-disk cache under
``$XDG_CACHE_HOME/logitlab/datasets`` (``~/.cache/logitlab/datasets`` when
that is unset), keyed by a sha256 of the CSV bytes, the dictionary text,
this module's source and the versions that decide a parse, and rebuilds
a later load of the same content from there.  A missing or damaged entry
is parsed again; only a load that succeeds is cached, so every error
comes from a parse.  Deleting the directory is always safe.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from logitlab import LogitlabError

VALID_KINDS = ("attribute", "availability", "covariate", "choice", "id")
VALID_QUANTITIES = ("time", "cost", "other")
BLOCK_ROWS = 8192  # CSV rows csv.reader holds as strings at once
# Bytes of entries the cache keeps; a write evicts the least recently used beyond
# these.  An entry holds about 8 bytes per number cell: some 13 MB for 100k rows of
# the shipped dictionary's 14 attributes and covariates.
CACHE_BYTES = 256 * 2**20
# A .tmp file older than this was left by a writer killed before its rename.
STALE_SECONDS = 3600


class DatasetError(LogitlabError):
    """Base class for dataset loading/validation failures."""


class MissingColumn(DatasetError):
    """Dictionary names a column that the CSV does not have."""


class NonFiniteValue(DatasetError):
    """A numeric cell is NaN or infinite (or not a number at all)."""


class ChoiceUnavailable(DatasetError):
    """A row's chosen alternative is flagged unavailable in that row."""


class TooFewAvailable(DatasetError):
    """A row offers fewer than two available alternatives."""


@dataclass(frozen=True)
class DictEntry:
    """One dictionary row: what a CSV column means."""

    name: str
    kind: str
    alternative: str | None = None
    units: str = ""
    description: str = ""
    quantity: str = "other"  # time | cost | other; used by VoT/sign checks


@dataclass(frozen=True)
class DataDictionary:
    """Ordered collection of :class:`DictEntry` with schema invariants."""

    entries: tuple[DictEntry, ...]

    def __post_init__(self):
        names = [e.name for e in self.entries]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise DatasetError(f"duplicate dictionary entry names: {dupes}")
        choices = [e for e in self.entries if e.kind == "choice"]
        if len(choices) != 1:
            raise DatasetError(
                f"dictionary must declare exactly one choice entry, found {len(choices)}"
            )
        ids = [e.name for e in self.entries if e.kind == "id"]
        if len(ids) > 1:
            raise DatasetError(f"dictionary may declare at most one id entry, found {ids}")
        for e in self.entries:
            if e.kind not in VALID_KINDS:
                raise DatasetError(f"entry {e.name!r}: unknown kind {e.kind!r}")
            if e.kind == "availability" and not e.alternative:
                raise DatasetError(f"availability entry {e.name!r} must name an alternative")
            if e.quantity not in VALID_QUANTITIES:
                raise DatasetError(f"entry {e.name!r}: unknown quantity {e.quantity!r}")
        flagged = [e.alternative for e in self.entries if e.kind == "availability"]
        twice = sorted({a for a in flagged if flagged.count(a) > 1})
        if twice:
            raise DatasetError(f"alternative {twice[0]!r} has more than one availability entry")

    @property
    def alternatives(self) -> tuple[str, ...]:
        """Alternatives in dictionary order of their availability entries."""
        seen: list[str] = []
        for e in self.entries:
            if e.kind == "availability" and e.alternative not in seen:
                seen.append(e.alternative)
        return tuple(seen)

    @property
    def choice_entry(self) -> DictEntry:
        return next(e for e in self.entries if e.kind == "choice")

    @property
    def id_entry(self) -> DictEntry | None:
        return next((e for e in self.entries if e.kind == "id"), None)

    def of_kind(self, kind: str) -> tuple[DictEntry, ...]:
        return tuple(e for e in self.entries if e.kind == kind)

    @property
    def variable_names(self) -> tuple[str, ...]:
        """Names usable in utility expressions (attributes + covariates)."""
        return tuple(e.name for e in self.entries if e.kind in ("attribute", "covariate"))

    def entry(self, name: str) -> DictEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def availability_column(self, alternative: str) -> str:
        for e in self.entries:
            if e.kind == "availability" and e.alternative == alternative:
                return e.name
        raise KeyError(alternative)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable choice dataset bound to its dictionary, stored by column.

    ``columns`` maps each attribute and covariate to a float64 array,
    ``avail`` is the (n_obs, n_alts) availability matrix and ``choice_idx``
    the chosen alternative's position.  Arrays are made read-only here;
    ``==`` is identity, so compare fields to compare contents.
    ``csv_text`` is formed on first use and kept.
    """

    alternatives: tuple[str, ...]
    columns: dict[str, np.ndarray]
    avail: np.ndarray
    choice_idx: np.ndarray
    person_id: tuple[str, ...]
    dictionary: DataDictionary

    def __post_init__(self):
        for array in (self.avail, self.choice_idx, *self.columns.values()):
            array.flags.writeable = False

    @property
    def n_obs(self) -> int:
        return len(self.choice_idx)

    @cached_property
    def csv_text(self) -> str:
        """The CSV text of :func:`format_csv`."""
        d = self.dictionary
        text = {name: _format_column(x) for name, x in self.columns.items()}
        for j, alt in enumerate(self.alternatives):
            text[d.availability_column(alt)] = np.where(self.avail[:, j], "1", "0").tolist()
        text[d.choice_entry.name] = np.array(self.alternatives)[self.choice_idx].tolist()
        if d.id_entry is not None:
            text[d.id_entry.name] = list(self.person_id)
        names = [e.name for e in d.entries]
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(names)
        writer.writerows(zip(*(text[name] for name in names)))
        return out.getvalue()


# -- dictionary markdown -------------------------------------------------

_DICT_COLUMNS = ("name", "kind", "alternative", "units", "description", "quantity")


def _infer_quantity(kind: str, units: str, description: str) -> str:
    """Tag attribute columns as time/cost when the dictionary omits the column.

    Access/egress times are deliberately 'other': only in-vehicle travel
    time enters the VoT ratio and the behavioural sign checks.
    """
    if kind != "attribute":
        return "other"
    u = units.lower()
    d = description.lower()
    if ("minute" in u or u in ("min", "mins")) and "in-vehicle" in d:
        return "time"
    if any(tok in u for tok in ("pound", "gbp", "eur", "usd")) or "£" in u or "$" in u:
        return "cost"
    return "other"


def parse_dictionary(text: str) -> DataDictionary:
    """Parse a markdown data dictionary.

    The dictionary is a pipe table with columns
    ``name | kind | alternative | units | description`` and an optional
    trailing ``quantity`` column.  Anything outside the first table is
    ignored, so the file may carry a title and prose.
    """
    header: list[str] | None = None
    entries: list[DictEntry] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line.startswith("|"):
            if header is not None and entries:
                break  # table finished
            continue
        cells = [c.strip() for c in line.strip("|").split("|")]
        if header is None:
            header = [c.lower() for c in cells]
            missing = [c for c in _DICT_COLUMNS[:5] if c not in header]
            if missing:
                raise DatasetError(f"dictionary table is missing columns: {missing}")
            continue
        if set(line) <= {"|", "-", ":", " "}:
            continue  # separator row
        row = dict(zip(header, cells))
        kind = row.get("kind", "")
        units = row.get("units", "")
        description = row.get("description", "")
        quantity = row.get("quantity", "") or _infer_quantity(kind, units, description)
        entries.append(
            DictEntry(
                name=row.get("name", ""),
                kind=kind,
                alternative=row.get("alternative") or None,
                units=units,
                description=description,
                quantity=quantity,
            )
        )
    if header is None or not entries:
        raise DatasetError("no dictionary table found")
    return DataDictionary(entries=tuple(entries))


def write_dictionary(dictionary: DataDictionary, title: str = "Data dictionary") -> str:
    """Render a dictionary back to its canonical markdown table."""
    lines = [f"# {title}", ""]
    lines.append("| " + " | ".join(_DICT_COLUMNS) + " |")
    lines.append("|" + "|".join([" --- "] * len(_DICT_COLUMNS)) + "|")
    for e in dictionary.entries:
        lines.append(
            "| {} | {} | {} | {} | {} | {} |".format(
                e.name, e.kind, e.alternative or "", e.units, e.description, e.quantity
            )
        )
    lines.append("")
    return "\n".join(lines)


# -- CSV loading ---------------------------------------------------------


def load_dataset(csv_path: str | Path, dictionary_path: str | Path) -> Dataset:
    """Load and validate a choice dataset.

    A plain CSV (see :func:`_read_plain`) is read in one pass by numpy's C
    reader.  Any other file, and any file that breaks a rule, is read again
    from the start by :func:`_read_csv` with ``csv.reader``, so the data
    and every error are the same whichever reader took the file.

    The checked columns of a file that loads are cached on disk (see
    :func:`_entry_path`), and a later load of the same CSV bytes under the
    same dictionary text is rebuilt from that entry, bit for bit as a parse
    gives them.  A cache directory that cannot be made or written only
    costs the parse.

    Raises :class:`MissingColumn`, :class:`NonFiniteValue`,
    :class:`ChoiceUnavailable`, :class:`TooFewAvailable` or another
    :class:`DatasetError` for the lowest violating data row; messages
    carry that 1-based row, blank lines counted.
    """
    csv_path = Path(csv_path)
    dictionary_text = Path(dictionary_path).read_text(encoding="utf-8")
    dictionary = parse_dictionary(dictionary_text)
    if len(dictionary.alternatives) < 2:
        raise DatasetError("dictionary must declare availability for at least two alternatives")
    raw = csv_path.read_bytes()  # parsed and hashed alike, so an entry holds what its key names
    entry = _entry_path(raw, dictionary_text)
    columns = None if entry is None else _read_entry(entry, dictionary)
    if columns is None:
        try:
            columns = _read_plain(csv_path, raw, dictionary)
        except (ValueError, DatasetError):  # UnicodeDecodeError too; csv.reader words the error
            columns = _read_csv(csv_path, raw, dictionary)
        if entry is not None:
            _write_entry(entry, columns)
    values, avail, choice_idx, person_id = columns
    return Dataset(
        alternatives=dictionary.alternatives,
        columns=dict(zip(dictionary.variable_names, values)),
        avail=avail,
        choice_idx=choice_idx,
        person_id=tuple(person_id),
        dictionary=dictionary,
    )


# values (n_vars, n), avail, choice_idx and person_id of checked rows; the IDs
# stay Python strings, since numpy's fixed-width strings drop trailing NULs
Columns = tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]


def _read_header(reader, csv_path: Path, dictionary: DataDictionary) -> list[str]:
    """The next record of the csv ``reader``, stripped and checked as a header."""
    try:
        raw_header = next(reader)
    except StopIteration:
        raise DatasetError(f"{csv_path}: empty CSV") from None
    header = [h.strip() for h in raw_header]
    if len(set(header)) != len(header):
        raise DatasetError(f"{csv_path}: duplicate CSV header names")
    for e in dictionary.entries:
        if e.name not in header:
            raise MissingColumn(f"dictionary column {e.name!r} not found in {csv_path.name}")
    return header


# The quote; NUL, which csv.reader refuses before Python 3.11; and the
# ASCII separators numpy strips from a number as whitespace and float() does not.
_NOT_PLAIN = '"\x00\x1c\x1d\x1e\x1f'


def _text(raw: bytes) -> io.TextIOWrapper:
    """CSV bytes as text, as ``open(newline="", encoding="utf-8")`` reads a file."""
    return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="")


def _read_plain(csv_path: Path, raw: bytes, dictionary: DataDictionary) -> Columns:
    """Checked columns of a plain CSV, the bytes ``raw`` of ``csv_path``, read in one
    pass by ``np.loadtxt``.

    After its header, a plain CSV has no ``"``, NUL or ASCII separator
    (``\\x1c``-``\\x1f``), no blank line and no line longer than csv's
    field size limit.  numpy reads each of its lines as one row, split into
    cells as csv.reader splits it, and refuses a ``\\r`` anywhere but at a
    line's end, a row without the header's cell count and a number it
    cannot parse.  It parses numbers with ``PyOS_string_to_double``, as
    float() does, and refuses what only float() reads, such as ``1_000`` or
    non-ASCII digits.

    Raises ValueError for a file that is not plain or a row numpy refuses,
    and :class:`DatasetError` when a rule of :func:`_checked_columns` fails.
    """
    with _text(raw) as fh:
        header = _read_header(csv.reader(fh), csv_path, dictionary)
        text = fh.read()
    lines = text.removesuffix("\n").split("\n")
    if (
        any(c in text for c in _NOT_PLAIN) or "" in lines or "\r" in lines  # blank lines
        or max(map(len, lines)) > csv.field_size_limit()
    ):
        raise ValueError(f"{csv_path} is not a plain CSV")
    numeric = set(dictionary.variable_names)
    table = np.loadtxt(
        lines,
        np.dtype([(f"f{j}", np.float64 if h in numeric else object) for j, h in enumerate(header)]),
        delimiter=",", comments=None, quotechar=None, ndmin=1,
    )

    def column(name: str) -> np.ndarray:
        return table[f"f{header.index(name)}"]

    names = dictionary.variable_names
    values = np.array([column(name) for name in names]).reshape(len(names), len(table))
    return _checked_columns(
        np.arange(1, len(table) + 1), lambda name: column(name).tolist(), values, dictionary
    )


def _read_csv(csv_path: Path, raw: bytes, dictionary: DataDictionary) -> Columns:
    """Checked columns of any CSV, the bytes ``raw`` of ``csv_path``, read by
    ``csv.reader`` in blocks of BLOCK_ROWS rows.

    This is the reference reader: it takes every file, and every error
    message comes from it.
    """
    with _text(raw) as fh:
        reader = csv.reader(fh)
        header = _read_header(reader, csv_path, dictionary)
        blocks = []
        first_row = 1
        while records := list(itertools.islice(reader, BLOCK_ROWS)):
            blocks.append(_to_columns(records, first_row, header, dictionary))
            first_row += len(records)
    if not any(len(block[2]) for block in blocks):
        raise DatasetError(f"{csv_path}: no data rows")
    values, avail, choice_idx, person_id = zip(*blocks)
    return (
        np.concatenate(values, axis=1), np.concatenate(avail), np.concatenate(choice_idx),
        list(itertools.chain.from_iterable(person_id)),
    )


def _to_columns(
    records: list[list[str]], first_row: int, header: list[str], dictionary: DataDictionary
) -> Columns:
    """Checked columns of csv.reader records, the first numbered ``first_row``.

    A blank record is dropped but keeps its number; a record short of cells
    is an error, and the records after it are left unchecked.
    """
    row_no = np.flatnonzero([any(map(str.strip, r)) for r in records]) + first_row
    records = [records[i] for i in (row_no - first_row).tolist()]
    errors = []
    short = np.fromiter(map(len, records), np.int64, len(records)) < len(header)
    if short.any():  # rows from the short one on cannot hold a lower error
        i = int(short.argmax())
        row = int(row_no[i])
        errors.append((row, DatasetError(
            f"row {row}: {len(records[i])} cells, the header has {len(header)}"
        )))
        records, row_no = records[:i], row_no[:i]

    def cells(name: str) -> list[str]:
        return list(map(itemgetter(header.index(name)), records))

    names = dictionary.variable_names
    values = np.array([_float_column(cells(name)) for name in names], np.float64)
    return _checked_columns(
        row_no, cells, values.reshape(len(names), len(records)), dictionary, errors
    )


def _checked_columns(
    row_no: np.ndarray,
    cells: Callable[[str], list],
    values: np.ndarray,
    dictionary: DataDictionary,
    errors: Iterable[tuple[int, DatasetError]] = (),
) -> Columns:
    """Apply every data rule to the rows numbered ``row_no``; both readers end here.

    ``cells(name)`` lists a column's cells as the reader gave them, ``values``
    the (n_vars, n) attribute and covariate numbers, NaN where a cell is not
    one.  Returns values, avail, choice_idx and person_id.  Each check
    covers whole columns; the error raised is the lowest row's among
    ``errors`` (row, error) and those found here, first in the order below.
    """
    alternatives, names = dictionary.alternatives, dictionary.variable_names
    errors = list(errors)

    def check(bad: np.ndarray, error: Callable[[int, int, int], DatasetError]) -> None:
        """Note ``error(i, j, row)`` for the first failing row i, at its first failing column j."""
        if bad.any():
            i, j = divmod(int(bad.argmax()), bad[0].size)
            errors.append((int(row_no[i]), error(i, j, int(row_no[i]))))

    flag_names = [dictionary.availability_column(alt) for alt in alternatives]
    flag_cells = [cells(c) for c in flag_names]
    flags = np.column_stack([_codes(c, _flag_code) for c in flag_cells])
    avail = flags == 1
    check(flags < 0, lambda i, j, row: DatasetError(
        f"row {row}, column {flag_names[j]!r}: availability must be 0 or 1,"
        f" got {flag_cells[j][i]!r}"
    ))
    check(avail.sum(axis=1) < 2, lambda i, j, row: TooFewAvailable(
        f"row {row}: fewer than 2 available alternatives"
    ))

    def choice_code(cell: str) -> int:
        index = _choice_index(cell, alternatives)
        return index if isinstance(index, int) else -1

    choices = cells(dictionary.choice_entry.name)
    choice_idx = _codes(choices, choice_code)
    check(choice_idx < 0, lambda i, j, row: DatasetError(
        f"row {row}: {_choice_index(choices[i], alternatives)}"
    ))
    check((choice_idx >= 0) & ~avail[np.arange(len(row_no)), choice_idx],
          lambda i, j, row: ChoiceUnavailable(
              f"row {row}: chosen alternative {alternatives[choice_idx[i]]!r} is not available"
          ))

    check(~np.isfinite(values.T), lambda i, j, row: _number_error(
        cells(names[j])[i], names[j], row
    ))

    if errors:  # min keeps the first of equal rows, which is the earlier check
        raise min(errors, key=itemgetter(0))[1]
    id_entry = dictionary.id_entry
    person_id = map(str.strip, cells(id_entry.name)) if id_entry else map(str, row_no.tolist())
    return values, avail, choice_idx, list(person_id)


def _codes(cells: list[str], code: Callable[[str], int]) -> np.ndarray:
    """``code(cell)`` of each cell, called once per distinct cell."""
    codes = {cell: code(cell) for cell in dict.fromkeys(cells)}
    return np.fromiter(map(codes.__getitem__, cells), np.int64, len(cells))


def _flag_code(cell: str) -> int:
    """1 or 0 for an availability cell that reads so, padding aside, else -1."""
    return {"1": 1, "0": 0}.get(cell.strip(), -1)


def _float_column(cells: list[str]) -> np.ndarray:
    """float() of each cell, NaN where it fails; cell by cell only in a column that fails."""
    try:
        return np.fromiter(map(float, cells), np.float64, len(cells))
    except ValueError:
        return np.array(list(map(_float_or_none, cells)), np.float64)


def _float_or_none(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _number_error(cell: str, column: str, row_no: int) -> NonFiniteValue:
    if _float_or_none(cell) is None:
        return NonFiniteValue(f"row {row_no}, column {column!r}: cannot parse {cell!r} as a number")
    return NonFiniteValue(f"row {row_no}, column {column!r}: non-finite value {cell!r}")


def _choice_index(cell: str, alternatives: tuple[str, ...]) -> int | str:
    """Position of the alternative a cell names or codes (1-based), or why it names none."""
    token = cell.strip()
    if token in alternatives:
        return alternatives.index(token)
    number = _float_or_none(token)
    if number is None or not number.is_integer():  # NaN and infinities are not integers
        return f"unknown choice value {cell!r}"
    code = int(number)
    if 1 <= code <= len(alternatives):
        return code - 1
    return f"choice code {code} out of range 1..{len(alternatives)}"


# -- the parsed-columns cache --------------------------------------------


def _entry_path(raw: bytes, dictionary_text: str) -> Path | None:
    """Where the checked columns of CSV bytes ``raw`` under a dictionary are cached.

    The file name is a sha256 over every input that decides what a parse
    gives: the CSV bytes, the dictionary text, this module's source, numpy's
    version, Python's minor version (``csv.reader`` refuses NUL before 3.11)
    and csv's field size limit; never a path or a time.  The directory is
    ``$XDG_CACHE_HOME/logitlab/datasets``, or ``~/.cache/logitlab/datasets``
    where that variable is unset or not absolute.  None when this module's
    source cannot be read, or the directory would lie in a home directory
    that cannot be found.
    """
    try:
        source = Path(__file__).read_bytes()
        root = os.environ.get("XDG_CACHE_HOME", "")
        root = Path(root) if os.path.isabs(root) else Path.home() / ".cache"
    except (OSError, RuntimeError):  # RuntimeError: no home directory
        return None
    versions = repr((np.__version__, sys.version_info[:2], csv.field_size_limit()))
    digest = hashlib.sha256()
    for part in (raw, dictionary_text.encode("utf-8"), source, versions.encode("utf-8")):
        digest.update(len(part).to_bytes(8, "little"))  # so no part runs into the next
        digest.update(part)
    return root / "logitlab" / "datasets" / f"{digest.hexdigest()}.columns"


# An entry is four .npy arrays back to back: the (n_vars, n) values, avail,
# choice_idx, and the IDs as the UTF-8 bytes of a separator followed by the
# IDs joined by it, a character no ID holds; so any str round-trips, NUL and
# trailing NUL included, which numpy's fixed-width strings would drop.


def _read_entry(path: Path, dictionary: DataDictionary) -> Columns | None:
    """The columns cached at ``path``, or None where the entry is missing, cut short or
    does not fit ``dictionary``; a hit marks the entry as used now."""
    try:
        with open(path, "rb") as fh:
            values, avail, choice_idx, ids = (np.load(fh, allow_pickle=False) for _ in range(4))
            whole = not fh.read(1)
        text = ids.tobytes().decode("utf-8", "surrogatepass")
        person_id = text[1:].split(text[0])
    except (OSError, ValueError, EOFError, IndexError):  # UnicodeDecodeError is a ValueError
        return None
    n = len(person_id)
    layout = [(a.dtype, a.shape) for a in (values, avail, choice_idx)]
    expected = [
        (np.float64, (len(dictionary.variable_names), n)),
        (bool, (n, len(dictionary.alternatives))),
        (np.int64, (n,)),
    ]
    if not whole or layout != expected:
        return None
    with contextlib.suppress(OSError):  # a read-only cache still serves its entries
        os.utime(path)
    return values, avail, choice_idx, person_id


def _write_entry(path: Path, columns: Columns) -> None:
    """Cache ``columns`` at ``path``, then evict the least recently used entries beyond
    CACHE_BYTES and stale ``.tmp`` files.  Columns larger than CACHE_BYTES are not
    cached.  A directory that cannot be made or written leaves the cache as it was."""
    values, avail, choice_idx, person_id = columns
    joined = "".join(person_id)
    separator = next(c for c in map(chr, itertools.count(ord("\n"))) if c not in joined)
    text = separator + separator.join(person_id)
    ids = np.frombuffer(text.encode("utf-8", "surrogatepass"), np.uint8)
    if sum(a.nbytes for a in (values, avail, choice_idx, ids)) > CACHE_BYTES:
        return
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=path.parent)
        try:
            with open(fd, "wb") as fh:
                for array in (values, avail, choice_idx, ids):
                    np.save(fh, array, allow_pickle=False)
            os.replace(tmp, path)  # a reader sees the whole entry or none
        except BaseException:
            os.unlink(tmp)
            raise
        _evict(path.parent)
    except OSError:
        pass  # the cache only saves time; the columns are loaded either way


def _evict(directory: Path) -> None:
    """Remove the least recently used entries of ``directory`` beyond CACHE_BYTES, and
    every ``.tmp`` file older than STALE_SECONDS.  A file another process removes
    first is skipped."""
    entries = []
    stale = time.time() - STALE_SECONDS
    with os.scandir(directory) as listing:
        for e in listing:
            with contextlib.suppress(OSError):
                stat = e.stat()
                if e.name.endswith(".tmp") and stat.st_mtime < stale:
                    os.unlink(e.path)
                elif e.name.endswith(".columns"):
                    entries.append((stat.st_mtime_ns, stat.st_size, e.path))
    kept = 0
    for _, size, old in sorted(entries, reverse=True):
        kept += size
        if kept > CACHE_BYTES:
            with contextlib.suppress(OSError):
                os.unlink(old)


def format_csv(dataset: Dataset) -> str:
    """Serialize a dataset back to CSV text, columns in dictionary order.

    Reloading the result against the same dictionary yields the same
    columns; the text is byte-identical across runs for identical input.
    It is formed once per dataset (``Dataset.csv_text``), so a run that
    attaches the data to its prompt and hashes it serializes it once.
    """
    return dataset.csv_text


def write_csv(dataset: Dataset, path: str | Path) -> None:
    Path(path).write_text(format_csv(dataset), encoding="utf-8")


def _format_column(x: np.ndarray) -> list[str]:
    """Integral values below 1e15 without a decimal point, the rest by repr."""
    text = np.array(list(map(repr, x.tolist())), dtype=object)
    whole = (x == np.trunc(x)) & (np.abs(x) < 1e15)
    text[whole] = list(map(str, x[whole].astype(np.int64).tolist()))
    return text.tolist()


# -- description and profiling -------------------------------------------


def describe(dataset: Dataset) -> str:
    """Render a deterministic markdown description of the dataset.

    This is the document attached to LLM prompts, so it must read well on
    its own: counts, the alternative list, then one table per variable
    role.  Byte-identical across runs for identical input.
    """
    d = dataset.dictionary
    lines = ["# Data description", ""]
    lines.append(f"observations: {dataset.n_obs}")
    lines.append(f"alternatives: {', '.join(dataset.alternatives)}")
    lines.append("")

    def table(title: str, entries, columns):
        lines.append(f"## {title}")
        lines.append("")
        if not entries:
            lines.append("(none)")
            lines.append("")
            return
        lines.append("| " + " | ".join(columns) + " |")
        lines.append("|" + "|".join([" --- "] * len(columns)) + "|")
        for e in entries:
            cells = [getattr(e, c) if getattr(e, c) is not None else "" for c in columns]
            lines.append("| " + " | ".join(str(c) for c in cells) + " |")
        lines.append("")

    table("Attributes", d.of_kind("attribute"), ["name", "alternative", "units", "description"])
    table("Availability flags", d.of_kind("availability"), ["name", "alternative", "description"])
    table("Covariates", d.of_kind("covariate"), ["name", "units", "description"])
    table(
        "Choice and identifiers",
        d.of_kind("choice") + d.of_kind("id"),
        ["name", "kind", "description"],
    )
    return "\n".join(lines)

