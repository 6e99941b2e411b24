"""Trade-flow ingestion: registries, money matrices, merges, volume probabilities.

The money matrix of a product holds the USD value traded from an exporter
(column) to an importer (row). A dataset is a set of such matrices, one per
product, over a shared country registry.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np
from scipy import sparse

from ._io import open_input, open_output
from .errors import EmptyDataError, ParseError, ValidationError

CSV_HEADER = ("year", "exporter", "importer", "product", "value_usd")

# SITC Rev. 1 level-1 commodity categories, by their one-digit codes, ascending.
SITC1_CODES = tuple("0123456789")

_ID_RE = re.compile(r"^[A-Z0-9][A-Z0-9_-]*$")


def canonical_country_id(raw: str) -> str:
    """Normalize a country key (ISO alpha-3 in real data, any stable token otherwise)."""
    cid = raw.strip().upper() if isinstance(raw, str) else ""
    if not _ID_RE.match(cid):
        raise ValidationError(f"invalid country id {raw!r}")
    return cid


def canonical_product_code(raw: str) -> str:
    """Normalize a product key: one of the one-digit SITC-1 codes, surrounding blanks trimmed."""
    code = raw.strip() if isinstance(raw, str) else ""
    if code not in SITC1_CODES:
        raise ValidationError(f"unknown product code {raw!r}")
    return code


def _registry_keys(keys, canonical, name: str) -> tuple[str, ...]:
    """``keys`` as a tuple (a list compares unequal), checked as a registry's keys: not
    empty, each unchanged by ``canonical``, and strictly ascending, so none repeats."""
    keys = tuple(keys)
    if not keys:
        raise ValidationError(f"no {name}s")
    for key in keys:
        if canonical(key) != key:
            raise ValidationError(f"{name} {key!r} is not canonical")
    if any(a >= b for a, b in zip(keys, keys[1:])):
        raise ValidationError(f"{name}s must be strictly ascending")
    return keys


@dataclass(frozen=True)
class ProductRegistry:
    """One-digit SITC-1 product codes, strictly ascending.

    The canonical registry carries all ten SITC level-1 codes; subsets are
    allowed so that reduced synthetic datasets stay first-class.
    """

    codes: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "codes",
                           _registry_keys(self.codes, canonical_product_code, "product code"))

    @classmethod
    def from_codes(cls, codes: Iterable[str]) -> "ProductRegistry":
        return cls(sorted(set(codes)))

    @cached_property
    def _index(self) -> dict[str, int]:
        return {code: i for i, code in enumerate(self.codes)}

    def index_of(self, code: str) -> int:
        try:
            return self._index[code]
        except KeyError:
            raise ValidationError(f"product {code!r} not in registry") from None

    def __len__(self) -> int:
        return len(self.codes)


@dataclass(frozen=True)
class CountryRegistry:
    """Canonical country ids, strictly ascending, plus optional node-label overrides.

    Ids are stable text keys (ISO-3166 alpha-3 for real data) and name the
    countries in every output. A registry position is thus the place in id
    order, which breaks ties. ``short_codes`` optionally overrides the
    two-letter node label of ids in the registry; each code must be a valid id, and
    the registry keeps a read-only copy, so no code changes after its check.
    """

    ids: tuple[str, ...]
    short_codes: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "ids", _registry_keys(self.ids, canonical_country_id,
                                                       "country id"))
        object.__setattr__(self, "short_codes", MappingProxyType(dict(self.short_codes)))
        for cid, code in self.short_codes.items():  # they name nodes in the CSV and DOT outputs
            if cid not in self._index:
                raise ValidationError(f"short code {code!r} of {cid!r}, an id not in the registry")
            if not isinstance(code, str) or not _ID_RE.fullmatch(code):
                raise ValidationError(f"short code {code!r} of {cid!r} is not a valid id")

    @classmethod
    def from_ids(cls, ids: Iterable[str]) -> "CountryRegistry":
        return cls(sorted(set(ids)))

    @cached_property
    def _index(self) -> dict[str, int]:
        return {cid: i for i, cid in enumerate(self.ids)}

    @cached_property
    def display_codes(self) -> Mapping[str, str]:
        """Read-only map of id -> node-label code (e.g. US, EU).

        The code is the ``short_codes`` override, else the first two letters upper
        cased, else ``cid[:2]``; the full id stands instead where that code is shared
        or is any country's id, so every node label stays distinct.
        """
        short = [self.short_codes.get(cid)
                 or "".join(filter(str.isalpha, cid))[:2].upper()
                 or cid[:2] for cid in self.ids]
        counts = Counter(short)
        return MappingProxyType({cid: cid if counts[code] > 1 or code in self._index else code
                                 for cid, code in zip(self.ids, short)})

    def index_of(self, cid: str) -> int:
        try:
            return self._index[cid]
        except KeyError:
            raise ValidationError(f"country {cid!r} not in registry") from None

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True, eq=False)
class MoneyMatrixSet:
    """Per-product sparse money matrices over a shared country registry.

    ``matrices[p][c, c']`` is the USD flow of product ``p`` from exporter
    ``c'`` to importer ``c``. Construction is the one gate: the year must be an
    ``Integral`` other than a bool, kept as an ``int``, and every matrix must
    be sparse and n x n, with finite, nonnegative values and no nonzero
    diagonal entry, or ``ValidationError`` names the year or product. The set then
    holds canonical float64 CSC (sorted indices, no duplicates); any other
    input is rebuilt, its duplicates added one by one in storage order from 0.0;
    a sum past the largest finite float raises ``ValidationError`` naming its key.

    ``imports`` (``m @ ones``, each row in ascending column order) and ``exports``
    (``m.T @ ones``, each column's stored values, by row, from 0.0) are the only
    row and column sums. Not ``m.sum()``: its order has changed between scipy
    releases, and a central difference, divided by 2h, shows every last bit.
    """

    matrices: tuple[sparse.csc_matrix, ...]
    year: int
    countries: CountryRegistry
    products: ProductRegistry

    def __post_init__(self):
        object.__setattr__(self, "year", _check_year(self.year))
        if len(self.matrices) != len(self.products):
            raise ValidationError("matrix count does not match product registry")
        n, canonical = len(self.countries), True
        for code, m in zip(self.products.codes, self.matrices):
            if not sparse.issparse(m) or m.shape != (n, n):
                raise ValidationError(f"product {code!r}: not a sparse {n}x{n} matrix")
            if not (isinstance(m, sparse.csc_matrix) and m.dtype == np.float64
                    and m.has_canonical_format):
                canonical, m = False, m.tocoo()
            bad = m.data[~(np.isfinite(m.data) & (m.data >= 0.0))]
            if bad.size:
                raise ValidationError(f"product {code!r}: negative or non-finite flow {bad[0]}")
            if np.any(m.diagonal()):  # duplicates summed, but every part is >= 0
                raise ValidationError(f"product {code!r}: nonzero self-flow on the diagonal")
        if not canonical:
            rebuilt = _money_from_columns(*_stored_flows(self.matrices), self.year,
                                          self.countries, self.products)
            object.__setattr__(self, "matrices", rebuilt.matrices)

    @property
    def n_countries(self) -> int:
        return len(self.countries)

    @property
    def n_products(self) -> int:
        return len(self.products)

    @cached_property
    def imports(self) -> np.ndarray:
        """Read-only (n_products, n_countries) row sums ``m @ ones``."""
        return self._sums(self.matrices)

    @cached_property
    def exports(self) -> np.ndarray:
        """Read-only (n_products, n_countries) column sums ``m.T @ ones``."""
        return self._sums([m.T for m in self.matrices])

    def _sums(self, matrices) -> np.ndarray:
        sums = np.array([m @ np.ones(self.n_countries) for m in matrices])
        sums.flags.writeable = False
        return sums

    def total_volume(self) -> float:
        """``numpy.sum`` of each ``imports`` row, added one by one in product order.

        An explicit loop, since the builtin ``sum`` of floats is compensated
        from Python 3.12 on and would round differently from 3.10 and 3.11.
        """
        total = 0.0
        for row in self.imports:
            total += float(np.sum(row))
        return total


@dataclass(frozen=True)
class IngestResult:
    """A money matrix set plus the counters accumulated while reading it."""

    money: MoneyMatrixSet
    rows_used: int
    self_flows_dropped: int
    duplicates_merged: int


# Characters read per block, before the rest of the line they end in. At 194x10,
# 1M-character blocks raised the CLI's peak RSS by 8-10% over this size.
_BLOCK = 1 << 18


def ingest_csv(source, year: int) -> IngestResult:
    """Read trade-flow CSV records for one year into a money matrix set.

    Parameters
    ----------
    source : path, bytes, or byte/text stream
        UTF-8 CSV with header ``year,exporter,importer,product,value_usd``. Flows
        held in memory come in as their CSV text, encoded.
    year : int
        Rows of other years are ignored; the year must occur in the data. A year
        that is not an int, or is a bool, raises ``ValidationError``.

    Self-flows (exporter == importer) are dropped and counted. Rows sharing
    the same (exporter, importer, product) key are summed. Unknown product
    codes, negative values, or malformed rows raise with the physical line on
    which the record starts (a quoted field may span lines); a year
    or value must be ASCII without ``_`` digit separators. Input that is not
    UTF-8, or that ``csv`` rejects (such as a field over
    ``csv.field_size_limit()``), raises ``ParseError``.
    Each distinct raw year, id and product field is canonicalized once per call,
    into ``_Keys``; a bad one is never cached, so the error names the first line it
    is on. The years' table is seeded with ``year``, which is thus position 0. The
    ``_Keys`` live only as long as the call: what one call meets never reaches
    another.

    The body is read in blocks of whole lines, each one string: ``_BLOCK``
    characters and the rest of the line they end in. Each block is split by column
    while it is plain (see ``_plain_block``). The first block that is not, and every
    block after it, go through the ``csv.reader`` row loop, which words every error.
    It gets each block's lines from a ``StringIO`` with ``newline=""``: a line ends
    at ``\\n``, ``\\r\\n`` or a lone ``\\r``, as in a file that ``open_input`` opens,
    wherever a block ends.
    """
    year = _check_year(year)  # "2018" would match no row
    years, ids = _Keys(_year, year), _Keys(canonical_country_id)
    codes = _Keys(canonical_product_code)
    blocks = []
    try:
        with open_input(source) as stream:
            try:
                header = next(reader := csv.reader(stream))
            except StopIteration:
                raise EmptyDataError("no header row") from None
            except csv.Error as exc:
                raise ParseError(str(exc), line=1) from None
            if tuple(h.strip().lstrip("﻿") for h in header) != CSV_HEADER:
                raise ParseError(f"expected header {','.join(CSV_HEADER)}", line=1)
            lineno = reader.line_num + 1
            texts = iter(lambda: stream.read(_BLOCK) + stream.readline(), "")
            for text in texts:
                if (block := _plain_block(text, years, ids, codes)) is None:
                    texts = chain([text], texts)
                    break
                n_lines, *columns = block
                blocks.append(columns)
                lineno += n_lines
            lines = chain.from_iterable(io.StringIO(text, newline="") for text in texts)
            blocks.append(_row_loop(csv.reader(lines), lineno, years, ids, codes))
    except UnicodeDecodeError as exc:
        raise ParseError(f"the trade CSV is not UTF-8 ({exc.reason})") from None

    self_flows = sum(block[0] for block in blocks)
    exporter, importer, product, value = (np.concatenate(column)
                                          for column in zip(*[b[1:] for b in blocks]))
    if not value.size:
        raise EmptyDataError(f"no usable rows for year {year}")
    countries, country = ids.lookup(CountryRegistry.from_ids, exporter, importer)
    products, code = codes.lookup(ProductRegistry.from_codes, product)
    money = _money_from_columns(country[exporter], country[importer], code[product], value,
                                year, countries, products)
    unique_keys = sum(m.nnz for m in money.matrices)
    return IngestResult(money, value.size, self_flows, value.size - unique_keys)


def _plain_block(text, years, ids, codes):
    """The line count of a plain block of whole lines, given as one string, and
    ``_row_loop``'s result for it; None when the block is not plain.

    A block is plain when it holds no ``"`` or NUL, no carriage return but one
    directly before a line's ``\\n`` (so a ``\\n`` ends each line but perhaps the
    last), four commas on each line, no field over
    ``csv.field_size_limit()`` UTF-8 bytes, and every field passes the row
    loop's check. csv would then split each line at its commas and drop its
    ``\\r\\n``, so the block is read from its UTF-8 bytes by column, and no field
    becomes a ``str`` of its own: ``_lookup`` packs each year, id and code into
    one word (a field over 8 bytes makes the block not plain) and finds it in the
    hash table of ``years``, ``ids`` or ``codes``; it decodes a word only the first
    time the call meets it. ``_values`` converts the values, 8 bytes a word. New
    keys are numbered, in ``years``, ``ids`` and ``codes``, after the seed keys (the
    year, at 0, in ``years``) in the order ``_lookup`` meets them.
    """
    data = (text if text.endswith("\n") else text + "\n").encode(errors="surrogatepass")
    raw = np.frombuffer(data + bytes(16), np.uint8)  # room to read 16 bytes from any field
    newline = raw == ord("\n")
    lines = int(np.count_nonzero(newline))
    ends = np.flatnonzero(newline | (raw == ord(",")))  # one per field
    if (b'"' in data or b"\0" in data or ends.size != 5 * lines
            or not np.all(newline[ends[4::5]])):
        return None
    crlf = raw[ends[4::5] - 1] == ord("\r")
    if np.count_nonzero(raw == ord("\r")) != np.count_nonzero(crlf):  # a "\r" not before "\n"
        return None
    start = np.concatenate(([0], ends[:-1] + 1)).reshape(-1, 5)
    length = ends.reshape(-1, 5) - start
    if length.max() > csv.field_size_limit():
        return None
    length[:, 4] -= crlf
    words = np.ndarray(raw.size - 7, "<u8", raw, strides=(1,))  # bytes i to i + 7 at i
    try:
        keep = _lookup(words, start[:, 0], length[:, 0], years) == 0
        exporter, importer = np.split(_lookup(words, start[:, 1:3].T.ravel(),
                                              length[:, 1:3].T.ravel(), ids), 2)
        product = _lookup(words, start[:, 3], length[:, 3], codes)
        value = _values(raw, words, start[:, 4], length[:, 4])
    except (ValueError, ValidationError):
        return None
    if not np.all((value >= 0.0) & (value < math.inf)):
        return None
    self_flow = keep & (exporter == importer)
    keep &= ~self_flow
    return (lines, int(np.count_nonzero(self_flow)), exporter[keep], importer[keep],
            product[keep], value[keep])


# the low k bytes of a uint64, for k = 0..8
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)
# _Keys' table: the odd multipliers it tries in turn, 2**64 over the golden ratio
# (D. E. Knuth, TAOCP Vol. 3, 6.4), then those of SplitMix64's and MurmurHash3's
# mixers; at least this many slots a word; and at most 2**16 slots
_MULTIPLIERS = tuple(map(np.uint64, (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9,
                                     0x94D049BB133111EB, 0xFF51AFD7ED558CCD)))
_SLOTS_PER_WORD = 16
_MAX_SLOT_BITS = 16


def _lookup(words, start, length, keys) -> np.ndarray:
    """The position in ``keys`` of each field; ``ValueError`` when a field is over
    8 bytes.

    ``words[i]`` is bytes i to i + 7 of the block as a little-endian uint64. Each
    field is packed into one word with the bytes past its end zeroed. The block
    holds no NUL, so two fields pack alike only when they are equal. A field whose
    word is in its slot of ``keys``' table takes the position stored there. Only
    the others, the misses, are sorted: each distinct one goes through ``keys``
    once, in ascending order of the packed words, so ``keys`` numbers the new ones
    in that order, after its seed keys. Then they are stored in the table.
    """
    if (longest := int(length.max())) > 8:  # the row loop reads the block
        raise ValueError(f"a key field of {longest} bytes")
    packed = words[start] & _LOW_BYTES[length]
    slot = keys.slot(packed)
    position = keys.slot_positions[slot]
    miss = (keys.slot_words[slot] != packed) | (position < 0)
    if miss.any():
        miss = np.flatnonzero(miss)
        distinct, inverse = np.unique(packed[miss], return_inverse=True)
        found = np.array([keys[t.decode(errors="surrogatepass")]  # trailing NULs dropped
                          for t in distinct.view("S8").tolist()], np.int64)
        position[miss] = found[inverse]
        keys.store(distinct, found)
    return position


# 10**k, exact in float64 for k <= 15, and in uint64
_TEN = (10 ** np.arange(16)).astype(float)
_POW10 = 10 ** np.arange(16, dtype=np.uint64)
# for k = 0..8: the factor that moves the low k bytes of a word to its top, the
# bytes above them falling off, and "0" in each of the 8 - k bytes left below
_TO_TOP = np.array([(1 << 8 * (8 - k)) % (1 << 64) for k in range(9)], np.uint64)
_ZERO_FILL = np.array([0x3030303030303030 >> 8 * k for k in range(9)], np.uint64)


def _values(raw, words, start, length) -> np.ndarray:
    """``float(field.strip())`` of each value field; ``ValueError`` where that or the row
    loop's check fails.

    A field of at most 16 bytes, all digits or digits and one point, is read a
    word of 8 bytes at a time (``_digit_word``): ``words[start]``, and
    ``words[start + 8]`` when a field of the block is over 8 bytes. SWAR masks,
    which handle all 8 bytes of a word at once, find the point, check every
    other byte is a digit, and read the point as a "0". That gives D', the
    digits of the field with a 0 for the point. For f digits after the point,
    the digits are then d = (D' - D' mod 10**f) / 10 + D' mod 10**f, and
    d / 10**f is ``float``'s result: an integer d below 10**16 converts to
    float64 correctly rounded, and with a point d has at most 15 digits, so d
    and 10**f are exact and their correctly rounded quotient is the value
    (Clinger's fast path), also for ``.5`` and ``5.``. The other fields go to
    ``_float_fields``.
    """
    # Every field reads the second word too. Reading it for the long fields only was
    # faster on short values, but numpy keeps freed arrays under 1 KiB for reuse, and
    # those subsets, a new size in each block, kept the heap from shrinking after ingest.
    first = np.arange(0, 16 if length.max() > 8 else 8, 8)[:, None]  # a row per word
    k = np.clip(length - first, 0, 8).astype(np.uint64)  # bytes of each field in each word
    word_digits, word_plain, word_points, word_after = _digit_word(words[start + first], k)
    digits, points, after = word_digits[0], word_points[0], word_after[0]
    if first.size == 2:  # append the second word
        digits = digits * _POW10[k[1]] + word_digits[1]
        after = after + points * k[1] + word_after[1]  # the digits after a point
        points = points + word_points[1]
    plain = np.all(word_plain, axis=0) & (length <= 16) & (points <= 1) & (length > points)
    has_point = plain & (points == 1)
    after = np.where(has_point, after, 0)
    if np.any(has_point):  # take the point's 0 out of the digits
        tail = digits % _POW10[after]
        digits = np.where(has_point, (digits - tail) // 10 + tail, digits)
    value = digits.astype(np.int64) / _TEN[after]
    if not np.all(plain):
        value[~plain] = _float_fields(raw, start[~plain], length[~plain])
    return value


def _digit_word(word, k):
    """The number that the low k bytes of each word spell, a point read as "0";
    whether each of those bytes is a digit or a point; how many are points; and
    how many bytes follow the point.

    The k bytes are moved to the top of the word, the last in byte 7, and "0"
    fills the bytes below them, so ``_eight_digits`` reads 8 digits with leading
    zeros.
    """
    word = word * _TO_TOP[k]
    dot = word ^ 0x2E2E2E2E2E2E2E2E  # a 0 byte where a point is
    point = ~(((dot & 0x7F7F7F7F7F7F7F7F) + 0x7F7F7F7F7F7F7F7F) | dot) & 0x8080808080808080
    word = (word + (point >> 6)) | _ZERO_FILL[k]  # "." + 2 is "0"
    plain = ((word & 0xF0F0F0F0F0F0F0F0) | (((word + 0x0606060606060606)
                                             & 0xF0F0F0F0F0F0F0F0) >> 4)
             ) == 0x3333333333333333  # every byte is "0" to "9"
    mark = point >> 7  # 1 in the byte of each point; a product's top byte sums the marks
    return (_eight_digits(word & 0x0F0F0F0F0F0F0F0F), plain,
            (mark * 0x0101010101010101) >> 56,  # weighted 1 each
            (mark * 0x0706050403020100) >> 56)  # weighted 7 - j in byte j


def _eight_digits(word) -> np.ndarray:
    """The number that the 8 digit values in the bytes of each word spell, byte 0 the
    leading one: pairs, then fours, then all eight, a multiply, shift and mask each
    (D. Lemire, "Number parsing at a gigabyte per second", Softw. Pract. Exp. 2021)."""
    word = (word * 10 + (word >> 8)) & 0x00FF00FF00FF00FF
    word = (word * 100 + (word >> 16)) & 0x0000FFFF0000FFFF
    return (word * 10000 + (word >> 32)) & 0xFFFFFFFF


def _float_fields(raw, start, length) -> list[float]:
    """``float(field.strip())`` of the fields, decoded as one string, under the row
    loop's ``_number`` rule."""
    size = length + 1  # each field with the byte after it, which becomes its "\n"
    offset = np.cumsum(size) - size
    joined = raw[np.arange(size.sum()) + np.repeat(start - offset, size)]
    joined[offset + length] = ord("\n")
    text = _number(joined.tobytes().decode(errors="surrogatepass"))
    return list(map(float, map(str.strip, text.split("\n")[:-1])))


def _number(raw: str) -> str:
    """``raw``; ``ValueError`` on ``_`` or non-ASCII, which ``int`` and ``float`` take."""
    if "_" in raw or not raw.isascii():
        raise ValueError(raw)
    return raw


def _check_year(year) -> int:
    """``year`` as an int; ``ValidationError`` unless an ``Integral`` and not a bool."""
    if not isinstance(year, numbers.Integral) or isinstance(year, bool):
        raise ValidationError(f"year {year!r} is not an int")
    return int(year)


def _year(raw: str) -> int:
    """The year that a raw year field spells, under the ``_number`` rule."""
    return int(_number(raw).strip())


def _row_loop(reader, first: int, years, ids, codes):
    """(self-flows, exporter, importer, product, value) of the rows of a ``csv.reader``
    whose first line is line ``first``; the reference that ``_plain_block`` matches.
    An error names the line on which its record starts, from ``reader.line_num``."""
    exporters, importers, products, values = [], [], [], []
    self_flows, start = 0, first  # the line on which the next record starts
    try:
        for row in reader:
            lineno, start = start, first + reader.line_num
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 5:
                raise ParseError(f"expected 5 fields, got {len(row)}", line=lineno)
            raw_year, raw_exp, raw_imp, raw_prod, raw_val = row
            try:
                wanted = years[raw_year] == 0
            except ValueError:
                raise ParseError(f"bad year {raw_year!r}", line=lineno) from None
            try:
                value = float(_number(raw_val).strip())
            except ValueError:
                raise ParseError(f"bad value {raw_val!r}", line=lineno) from None
            if not 0.0 <= value < math.inf:
                raise ValidationError(f"line {lineno}: negative or non-finite value {value!r}")
            try:
                product, exporter, importer = codes[raw_prod], ids[raw_exp], ids[raw_imp]
            except ValidationError as exc:
                raise ValidationError(f"line {lineno}: {exc}") from None
            if not wanted:
                continue
            if exporter == importer:
                self_flows += 1
                continue
            exporters.append(exporter)
            importers.append(importer)
            products.append(product)
            values.append(value)
    except csv.Error as exc:  # the reader failed on the record that starts at ``start``
        raise ParseError(str(exc), line=start) from None
    return (self_flows, *(np.array(c, np.int64) for c in (exporters, importers, products)),
            np.array(values, float))


class _Keys(dict):
    """Raw field -> position of its canonical key in ``positions``.

    The seed ``keys`` come first, from 0, so the year ``ingest_csv`` reads is 0 in
    its years. Others are numbered as first looked up: the row loop's in file
    order, a plain block's misses in ascending order of their packed bytes
    (``_lookup``). ``ingest_csv`` builds its registries from the keys, sorted, so no
    position reaches its result. Each distinct raw value goes through ``canonical``
    once. One that raises is never stored, so it raises again, with the same
    message, on each use.

    Beside the dict, a direct-mapped table maps the packed words of plain fields to
    positions: a word stored by ``store`` is ``slot_words[slot(word)]``, its position
    ``slot_positions[slot(word)]``. An empty slot holds position -1, so it matches
    no word, not even the 0 of an empty field. The table has a power-of-two number
    of slots, at least ``_SLOTS_PER_WORD`` for each word it holds, and no two of its
    words share a slot.
    """

    def __init__(self, canonical, *keys):
        super().__init__()
        self.canonical, self.positions = canonical, {key: i for i, key in enumerate(keys)}
        self._build(np.zeros(0, np.uint64), np.zeros(0, np.int64))

    def slot(self, words) -> np.ndarray:
        """Each packed word's slot: the top bits of word * multiplier mod 2**64, as
        many as the table's size has (Knuth's multiplicative hashing)."""
        return ((words * self.multiplier) >> self.shift).view(np.int64)

    def store(self, words, positions) -> None:
        """Put distinct words that the table does not hold in it, with their positions:
        the table is rebuilt with them, unless it is at its largest, where they go
        into the free slots only, so that a word whose slot is taken stays a miss
        without a rebuild in every block."""
        if self.slot_positions.size < 1 << _MAX_SLOT_BITS:
            held = self.slot_positions >= 0
            self._build(np.concatenate((self.slot_words[held], words)),
                        np.concatenate((self.slot_positions[held], positions)))
        else:
            self._fill(self.slot(words), words, positions)

    def _build(self, words, positions) -> None:
        """A new table of the words: the fewest slots, at least ``_SLOTS_PER_WORD`` a
        word, and the first of ``_MULTIPLIERS`` that give every word a slot of its
        own; past ``_MAX_SLOT_BITS``, the last try, a word whose slot is taken left
        out (it stays a miss, which ``_lookup`` looks up exactly)."""
        least = min((_SLOTS_PER_WORD * words.size - 1).bit_length(), _MAX_SLOT_BITS)
        for bits, multiplier in ((b, m) for b in range(least, _MAX_SLOT_BITS + 1)
                                 for m in _MULTIPLIERS):
            self.multiplier, self.shift = multiplier, np.uint64(64 - bits)
            if np.unique(slot := self.slot(words)).size == words.size:
                break
        self.slot_words = np.zeros(1 << bits, np.uint64)
        self.slot_positions = np.full(1 << bits, -1, np.int64)
        self._fill(slot, words, positions)

    def _fill(self, slot, words, positions) -> None:
        """Store each word whose slot is free, the first of words that share one."""
        slot, first = np.unique(slot, return_index=True)
        free = self.slot_positions[slot] < 0
        self.slot_words[slot[free]] = words[first[free]]
        self.slot_positions[slot[free]] = positions[first[free]]

    def __missing__(self, raw):
        key = self.canonical(raw)
        self[raw] = position = self.positions.setdefault(key, len(self.positions))
        return position

    def lookup(self, make, *columns):
        """``(make(used keys), key position -> registry position)`` for the keys that
        ``columns`` use; each used key takes one ``index_of``."""
        keys = list(self.positions)
        used = np.flatnonzero(np.bincount(np.concatenate(columns), minlength=len(keys)))
        used_keys = [keys[i] for i in used]
        registry = make(used_keys)
        to_registry = np.zeros(len(keys), np.int64)
        to_registry[used] = [registry.index_of(key) for key in used_keys]
        return registry, to_registry


# _money_from_columns sums over all n_products * n**2 keys while they are at most
# this many per flow, at 9 bytes a key (its sum and a flag). At about 180k flows that
# was faster than sorting up to about 4 keys a flow and raised the peak past it;
# sorting keeps memory linear in the flows however many ids a file names
_DENSE_KEYS = 4


def _money_from_columns(exporter, importer, product, value, year, countries,
                        products) -> MoneyMatrixSet:
    """Money matrices from flows given as registry positions, dropping self-flows.

    Flows sharing a key are added one by one in input order from 0.0, so no sum
    hangs on a library's summation order: a ``bincount`` over all n_products·n²
    keys where there are at most ``_DENSE_KEYS`` of them a flow, else over the
    ``unique`` inverse. The sorted keys, (product, exporter, importer), are each
    product's CSC order. Each flow is finite and nonnegative, so a sum that is
    not has overflowed: ``ValidationError`` names its product, exporter and importer.
    """
    n, n_p = len(countries), len(products)
    keep = exporter != importer
    keys = (product[keep] * n + exporter[keep]) * n + importer[keep]
    if n_p * n * n <= _DENSE_KEYS * keys.size:
        sums = np.bincount(keys, weights=value[keep], minlength=n_p * n * n)
        seen = np.zeros(sums.size, bool)
        seen[keys] = True
        unique = np.flatnonzero(seen)
        sums = sums[unique]
    else:
        unique, inverse = np.unique(keys, return_inverse=True)
        sums = np.bincount(inverse, weights=value[keep])
    overflow = np.flatnonzero(sums == math.inf)
    if overflow.size:
        code, pair = divmod(int(unique[overflow[0]]), n * n)
        raise ValidationError(f"product {products.codes[code]!r}: the flows "
                              f"{countries.ids[pair // n]}->{countries.ids[pair % n]} "
                              "sum past the largest finite float")
    columns, rows = np.divmod(unique, n)  # column of the side-by-side blocks
    indptr = np.concatenate(([0], np.cumsum(np.bincount(columns, minlength=n_p * n))))
    # product p's CSC is its columns' range ptr; dtype: an empty bincount comes back int64
    matrices = tuple(sparse.csc_matrix((sums[ptr[0]:ptr[-1]], rows[ptr[0]:ptr[-1]], ptr - ptr[0]),
                                       shape=(n, n), dtype=float)
                     for ptr in (indptr[p * n:(p + 1) * n + 1] for p in range(n_p)))
    return MoneyMatrixSet(matrices, year, countries, products)


def _stored_flows(matrices):
    """(exporter, importer, product, value) of every stored entry, product by
    product, each matrix's values in storage order."""
    coos = [m.tocoo() for m in matrices]
    product = np.repeat(np.arange(len(coos)), [coo.nnz for coo in coos])
    exporter, importer, value = (np.concatenate(part) for part in zip(
        *[(coo.col, coo.row, coo.data) for coo in coos]))
    return exporter, importer, product, value


def write_trade_csv(mm: MoneyMatrixSet, dest) -> None:
    """Serialize to the ingest CSV format (canonical row order, exact floats).

    Rows run by product, then exporter, then importer: each canonical CSC's storage
    order, since registry positions ascend with code and id. Stored zeros are skipped.
    One ASCII byte array per product, a row of fixed-width fields per flow:
    "year,", the exporter's and the importer's "id," (row i of ``ids``: id i and a
    "," right-aligned to the longest), "code,", the value from ``_value_texts`` and
    "\\n". No field holds a space, so the spaces that pad them are dropped, and the
    bytes left are the rows. Canonical ids, one-digit codes, int years and float
    reprs never need quoting, so they are the bytes that ``csv.writer`` would write.
    """
    width = max(map(len, mm.countries.ids)) + 1
    ids = np.frombuffer("".join([f"{cid},".rjust(width) for cid in mm.countries.ids])
                        .encode("ascii"), np.uint8).reshape(-1, width)
    year_field = np.frombuffer(f"{mm.year},".encode("ascii"), np.uint8)
    with open_output(dest) as stream:
        stream.write(",".join(CSV_HEADER) + "\n")
        for code, m in zip(mm.products.codes, mm.matrices):
            coo = m.tocoo()
            nonzero = coo.data != 0.0
            exporter, importer, value = coo.col[nonzero], coo.row[nonzero], coo.data[nonzero]
            n = value.size
            code_field = np.frombuffer(f"{code},".encode("ascii"), np.uint8)
            rows = np.concatenate((np.broadcast_to(year_field, (n, year_field.size)),
                                   ids[exporter], ids[importer],
                                   np.broadcast_to(code_field, (n, code_field.size)),
                                   _value_texts(value), np.full((n, 1), ord("\n"), np.uint8)),
                                  axis=1)
            stream.write(rows[rows != ord(" ")].tobytes().decode("ascii"))


def _value_texts(value) -> np.ndarray:
    """``repr(v)`` of each value v > 0 in a row of 23 ASCII bytes (the longest repr of
    a positive float), right-aligned with spaces.

    A whole v below 1e16 has as its repr its decimal digits and ".0"; numpy writes
    those, one digit place of all such values a step. ``repr`` writes the others.
    """
    whole = (value == np.floor(value)) & (value < 1e16)
    number = value[whole].astype(np.int64)
    digits = np.empty((23, number.size), np.uint8)  # a row per byte, the last digit in row 20
    digits[:5] = ord(" ")
    digits[21:] = np.frombuffer(b".0", np.uint8)[:, None]
    for place in range(20, 4, -1):
        quotient = number // 10
        digits[place] = np.where(number > 0, number - 10 * quotient + ord("0"), ord(" "))
        number = quotient
    texts = np.empty((value.size, 23), np.uint8)
    texts[whole] = digits.T
    texts[~whole] = np.frombuffer("".join([repr(v).rjust(23) for v in value[~whole].tolist()])
                                  .encode("ascii"), np.uint8).reshape(-1, 23)
    return texts


def merge_country_group(mm: MoneyMatrixSet, members: Iterable[str], label: str,
                        short: str | None = None) -> MoneyMatrixSet:
    """Treat a set of countries as one trade actor.

    Flows among the members are discarded; flows between a member and an
    outsider are reattributed to the synthetic group node and summed.
    Flows between outsiders are untouched.
    """
    members = [canonical_country_id(m) for m in members]
    if not members:
        raise ValidationError("empty member set")
    ids = mm.countries.ids
    for m in members:  # in the order given, so the error names the first unknown one
        if m not in mm.countries._index:
            raise ValidationError(f"unknown member id {m!r}")
    member_set = set(members)
    group_id = canonical_country_id(label)
    if group_id in ids:
        raise ValidationError(f"label {group_id!r} collides with an existing country id")

    new_ids = sorted([cid for cid in ids if cid not in member_set] + [group_id])
    short_codes = {
        cid: code for cid, code in mm.countries.short_codes.items() if cid in new_ids
    }
    if short is not None:
        short_codes[group_id] = short
    registry = CountryRegistry(new_ids, short_codes)

    old_to_new = np.array(
        [registry.index_of(group_id if cid in member_set else cid) for cid in ids],
        dtype=np.int64)

    exporter, importer, product, value = _stored_flows(mm.matrices)
    # intra-group flows become self-flows of the group node and are dropped
    return _money_from_columns(old_to_new[exporter], old_to_new[importer], product, value,
                               mm.year, registry, mm.products)


@dataclass(frozen=True)
class VolumeProbabilities:
    """Import/export trade-volume probabilities (the one-step baseline ranking).

    ``import_c`` and ``export_c`` are each country's share of total trade volume
    as importer and as exporter, by registry position; each sums to 1.
    ``import_rank`` and ``export_rank`` (ImportRank and ExportRank) are each
    ranked once, on first use.
    """

    import_c: np.ndarray
    export_c: np.ndarray
    countries: CountryRegistry

    @cached_property
    def import_rank(self) -> np.ndarray:
        """``assign_ranks(import_c)``: each country's 1-based rank, ties by id."""
        from .ranks import assign_ranks  # ranks imports this module
        return assign_ranks(self.import_c)

    @cached_property
    def export_rank(self) -> np.ndarray:
        """``assign_ranks(export_c)``: each country's 1-based rank, ties by id."""
        from .ranks import assign_ranks
        return assign_ranks(self.export_c)


def volume_probabilities(mm: MoneyMatrixSet) -> VolumeProbabilities:
    """Normalize the set's ``imports`` and ``exports`` by its ``total_volume``."""
    total = mm.total_volume()
    if total <= 0.0:
        raise EmptyDataError("zero total trade volume")
    return VolumeProbabilities((mm.imports / total).sum(axis=0),
                               (mm.exports / total).sum(axis=0), mm.countries)


def load_group_config(source) -> tuple[str, list[str], str | None]:
    """Read a group-merge JSON config: label, members, optional short code.

    The config must be a JSON object with a string ``label``, a non-empty array
    of strings ``members`` and, optionally, a string ``short``. The label and
    members come back as canonical country ids; the members are checked first,
    in config order, as ``merge_country_group`` checks them.
    """
    try:
        with open_input(source) as stream:
            cfg = json.load(stream)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"bad group config: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"bad group config: the file is not UTF-8 ({exc.reason})") from None
    if not isinstance(cfg, dict):  # an array, string or number fails the check below
        cfg = {}
    label, members, short = cfg.get("label"), cfg.get("members"), cfg.get("short")
    if (not isinstance(label, str) or not isinstance(members, list) or not members
            or not all(isinstance(m, str) for m in members)
            or not isinstance(short, (str, type(None)))):
        raise ValidationError("bad group config: need a JSON object with a string label, a "
                              "non-empty array of string members and an optional string short")
    members = [canonical_country_id(m) for m in members]
    return canonical_country_id(label), members, short
