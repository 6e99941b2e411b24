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


@dataclass(frozen=True)
class ProductRegistry:
    """Ordered one-digit SITC-1 product codes, sorted ascending.

    The canonical registry carries all ten SITC level-1 codes; subsets are
    allowed so that reduced synthetic datasets stay first-class.
    """

    codes: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "codes", codes := tuple(self.codes))  # lists compare unequal
        if not codes:
            raise ValidationError("product registry is empty")
        for code in codes:
            if code not in SITC1_CODES:
                raise ValidationError(f"unknown product code {code!r}")
        if len(self._index) != len(codes):
            raise ValidationError("duplicate product codes")
        if list(codes) != sorted(codes):
            raise ValidationError("product codes must be sorted ascending")

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
    """Country ids in registry order, plus optional node-label overrides.

    Ids are stable text keys (ISO-3166 alpha-3 for real data) and name the
    countries in every output. The order need not be sorted: ``id_rank``
    gives the ascending-id order that breaks ties. ``short_codes`` optionally
    overrides the two-letter node label; each code must be a valid id.
    """

    ids: tuple[str, ...]
    short_codes: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "ids", ids := tuple(self.ids))  # lists compare unequal
        if not ids:
            raise ValidationError("country registry is empty")
        if len(self._index) != len(ids):
            raise ValidationError("duplicate country ids")
        for cid in ids:
            if canonical_country_id(cid) != cid:
                raise ValidationError(f"country id {cid!r} is not canonical")
        for cid, code in self.short_codes.items():  # they name nodes in the CSV and DOT outputs
            if not isinstance(code, str) or not _ID_RE.fullmatch(code):
                raise ValidationError(f"short code {code!r} of {cid!r} is not a valid id")

    @classmethod
    def from_ids(cls, ids: Iterable[str]) -> "CountryRegistry":
        return cls(sorted(set(ids)))

    @cached_property
    def _index(self) -> dict[str, int]:
        return {cid: i for i, cid in enumerate(self.ids)}

    @cached_property
    def id_rank(self) -> np.ndarray:
        """Read-only map of registry position -> place in ascending id order."""
        rank = np.argsort(np.argsort(np.array(self.ids, dtype=object)))
        rank.flags.writeable = False
        return rank

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


@dataclass(frozen=True)
class TradeFlowRecord:
    """One directed product flow: exporter -> importer, value in USD."""

    year: int
    exporter: str
    importer: str
    product: str
    value_usd: float


@dataclass(frozen=True, eq=False)
class MoneyMatrixSet:
    """Per-product sparse money matrices over a shared country registry.

    ``matrices[p][c, c']`` is the USD flow of product ``p`` from exporter
    ``c'`` to importer ``c``. Construction is the one gate: every matrix must
    be sparse and n x n, with finite, nonnegative values and no nonzero
    diagonal entry, or ``ValidationError`` names the product. The set then
    holds canonical float64 CSC (sorted indices, no duplicates); any other
    input is rebuilt, its duplicates added one by one in storage order from 0.0.

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

    def _sorted_flows(self):
        """Per product, in code order: its code and the exporter positions, importer
        positions and values of its nonzero flows, as arrays sorted by exporter, then
        importer id."""
        id_rank, n = self.countries.id_rank, self.n_countries
        for code, m in zip(self.products.codes, self.matrices):
            coo = m.tocoo()
            nonzero = coo.data != 0.0
            exp, imp, values = coo.col[nonzero], coo.row[nonzero], coo.data[nonzero]
            order = np.argsort(id_rank[exp] * n + id_rank[imp], kind="stable")
            yield code, exp[order], imp[order], values[order]


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
    source : path or byte/text stream
        UTF-8 CSV with header ``year,exporter,importer,product,value_usd``.
    year : int
        Rows of other years are ignored; the year must occur in the data.

    Self-flows (exporter == importer) are dropped and counted. Rows sharing
    the same (exporter, importer, product) key are summed. Unknown product
    codes, negative values, or malformed rows raise with the physical line on
    which the record starts (a quoted field may span lines); a year
    or value must be ASCII without ``_`` digit separators. Input that is not
    UTF-8, or that ``csv`` rejects (such as a field over
    ``csv.field_size_limit()``), raises ``ParseError``.
    Each distinct raw year, id and product field is canonicalized once per
    call; a bad one is never cached, so the error names the first line it is on.

    The body is read in blocks of whole lines, each one string: ``_BLOCK``
    characters and the rest of the line they end in. Each block is split by column
    while it is plain (see ``_plain_block``). The first block that is not, and every
    block after it, go through the ``csv.reader`` row loop, which words every error.
    It gets each block's lines from a ``StringIO`` with ``newline=""``: a line ends
    at ``\\n``, ``\\r\\n`` or a lone ``\\r``, as in a file that ``open_input`` opens,
    wherever a block ends.
    """
    in_year, ids = _InYear(year), _Keys(canonical_country_id)
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
                if (block := _plain_block(text, in_year, ids, codes)) is None:
                    texts = chain([text], texts)
                    break
                n_lines, *columns = block
                blocks.append(columns)
                lineno += n_lines
            lines = chain.from_iterable(io.StringIO(text, newline="") for text in texts)
            blocks.append(_row_loop(csv.reader(lines), lineno, in_year, ids, codes))
    except UnicodeDecodeError as exc:
        raise ParseError(f"the trade CSV is not UTF-8 ({exc.reason})") from None

    self_flows = sum(block[0] for block in blocks)
    exporters, importers, products, values = (np.concatenate(column)
                                              for column in zip(*[b[1:] for b in blocks]))
    if not values.size:
        raise EmptyDataError(f"no usable rows for year {year}")
    money = _money_from_keys(ids, codes, exporters, importers, products, values, year)
    unique_keys = sum(m.nnz for m in money.matrices)
    return IngestResult(money, values.size, self_flows, values.size - unique_keys)


def _plain_block(text, in_year, ids, codes):
    """The line count of a plain block of whole lines, given as one string, and
    ``_row_loop``'s result for it; None when the block is not plain.

    A block is plain when it holds no ``"`` or NUL, no carriage return but one
    directly before a line's ``\\n`` (so a ``\\n`` ends each line but perhaps the
    last), four commas on each line, no field over
    ``csv.field_size_limit()`` UTF-8 bytes, and every field passes the row
    loop's check. csv would then split each line at its commas and drop its
    ``\\r\\n``, so the block is read from its UTF-8 bytes by column, and no field
    becomes a ``str`` of its own: ``_lookup`` decodes each distinct year, id
    and code once, and ``_values`` converts the values. The keys of a block are
    numbered, in ``ids`` and ``codes``, in the order ``_lookup`` meets them.
    """
    data = (text if text.endswith("\n") else text + "\n").encode(errors="surrogatepass")
    lines = data.count(b"\n")
    raw = np.frombuffer(data + bytes(16), np.uint8)  # room to read 16 bytes from any field
    ends = np.flatnonzero((raw == ord(",")) | (raw == ord("\n")))  # one per field
    if (b'"' in data or b"\0" in data or ends.size != 5 * lines
            or not np.all(raw[ends[4::5]] == ord("\n"))
            or np.diff(ends, prepend=-1).max() > csv.field_size_limit() + 1):
        return None
    crlf = raw[ends[4::5] - 1] == ord("\r")
    if data.count(b"\r") != np.count_nonzero(crlf):  # a "\r" not just before a "\n"
        return None
    start = np.concatenate(([0], ends[:-1] + 1)).reshape(-1, 5)
    length = ends.reshape(-1, 5) - start
    length[:, 4] -= crlf
    words = np.ndarray(raw.size - 7, "<u8", raw, strides=(1,))  # bytes i to i + 7 at i
    try:
        keep = _lookup(words, start[:, 0], length[:, 0], in_year.__getitem__).astype(bool)
        exporter, importer = np.split(_lookup(words, start[:, 1:3].T.ravel(),
                                              length[:, 1:3].T.ravel(), ids.__getitem__), 2)
        product = _lookup(words, start[:, 3], length[:, 3], codes.__getitem__)
        value = _values(raw, start[:, 4], length[:, 4])
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


def _lookup(words, start, length, lookup) -> np.ndarray:
    """``lookup`` of the text of each field, called once per distinct field.

    ``words[i]`` is bytes i to i + 7 of the block as a little-endian uint64. A
    field is packed into as many words as it needs, the bytes past its end
    zeroed: one uint64 for up to 8 bytes, else a bytes string of whole words,
    one group per word count. The block holds no NUL, so two fields pack alike
    only when they are equal. Each group's distinct fields are looked up in
    ascending order of their packed codes, one-word fields first.
    """
    result = np.empty(start.size, np.int64)
    n_words = np.maximum(length + 7, 8) // 8
    for width in np.flatnonzero(np.bincount(n_words)).tolist():
        fields = n_words == width
        packed = words[8 * np.arange(width)[:, None] + start[fields]]  # word j of each in row j
        packed[-1] &= _LOW_BYTES[length[fields] - 8 * (width - 1)]
        codes = packed[0] if width == 1 else np.ascontiguousarray(packed.T).view(
            f"S{8 * width}").ravel()
        distinct, inverse = np.unique(codes, return_inverse=True)
        texts = distinct.view(f"S{8 * width}").tolist()  # trailing NULs dropped
        result[fields] = np.array([lookup(t.decode(errors="surrogatepass")) for t in texts],
                                  np.int64)[inverse]
    return result


# 10**k, exact in float64 for k <= 15
_TEN = (10 ** np.arange(16)).astype(float)


def _values(raw, start, length) -> np.ndarray:
    """``float(field.strip())`` of each value field; ``ValueError`` where that or the row
    loop's check fails.

    A field of at most 16 bytes, all digits or digits and one point, is read
    with int64 arithmetic: its digits d over 10**k, for k digits after the
    point. An integer d below 10**16 converts to float64 correctly rounded; with
    a point, d has at most 15 digits, so d and 10**k are exact in float64 and the
    correctly rounded quotient is ``float``'s result (Clinger's fast path), also
    for ``.5`` and ``5.``. The other fields go to ``_float_fields``.
    """
    digits, n_digits, point = np.zeros(start.size, np.int64), 0, -1
    for k in range(min(int(length.max()), 16)):  # Horner's rule, one byte of each field a step
        byte, inside = raw[k:][start], k < length
        digit = byte - ord("0")  # uint8, so a byte below "0" wraps round
        is_digit = inside & (digit < 10)
        digits = np.where(is_digit, digits * 10 + digit, digits)
        n_digits += is_digit
        point = np.where(inside & (byte == ord(".")), k, point)
    has_point = (n_digits == length - 1) & (point >= 0)  # one byte is no digit: a point
    exact = (n_digits > 0) & ((n_digits == length) | has_point)
    value = digits / _TEN[np.where(exact & has_point, length - 1 - point, 0)]
    if not np.all(exact):
        value[~exact] = _float_fields(raw, start[~exact], length[~exact])
    return value


def _float_fields(raw, start, length) -> list[float]:
    """``float(field.strip())`` of the fields, decoded as one string; ``ValueError``
    when one holds ``_`` or a non-ASCII character, as in the row loop."""
    size = length + 1  # each field with the byte after it, which becomes its "\n"
    offset = np.cumsum(size) - size
    joined = raw[np.arange(size.sum()) + np.repeat(start - offset, size)]
    joined[offset + length] = ord("\n")
    text = joined.tobytes().decode(errors="surrogatepass")
    if "_" in text or not text.isascii():  # float() would take "_" and non-ASCII digits
        raise ValueError(text)
    return list(map(float, map(str.strip, text.split("\n")[:-1])))


def _row_loop(reader, first: int, in_year, ids, codes):
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
                wanted = in_year[raw_year]
            except ValueError:
                raise ParseError(f"bad year {raw_year!r}", line=lineno) from None
            try:  # float() would take "_" digit separators and non-ASCII digits
                if "_" in raw_val or not raw_val.isascii():
                    raise ValueError
                value = float(raw_val.strip())
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


class _InYear(dict):
    """Raw year field -> whether it is ``year``, each distinct field converted once.

    A bad field raises ``ValueError`` and is never stored.
    """

    def __init__(self, year):
        super().__init__()
        self.year = year

    def __missing__(self, raw):
        if "_" in raw or not raw.isascii():  # int() would take "_" and non-ASCII digits
            raise ValueError(raw)
        self[raw] = match = bool(int(raw.strip()) == self.year)
        return match


class _Keys(dict):
    """Raw field -> position of its canonical key in ``positions``.

    Keys are numbered in the order they are first looked up: the row loop's in
    file order, a plain block's in ascending order of their packed bytes (see
    ``_lookup``). ``ingest_csv`` builds its registries from the keys, sorted, so
    no position reaches its result. Each distinct raw value goes through
    ``canonical`` once. One that raises is never stored, so it raises again,
    with the same message, on each use.
    """

    def __init__(self, canonical):
        super().__init__()
        self.canonical, self.positions = canonical, {}

    def __missing__(self, raw):
        key = self.canonical(raw)
        self[raw] = position = self.positions.setdefault(key, len(self.positions))
        return position

    def lookup(self, registry, make, *columns):
        """``(registry, key position -> registry position)`` for the keys ``columns`` use.

        ``registry`` defaults, when None, to ``make`` of those keys. Each used key
        takes one ``index_of``, which rejects a key outside a given registry.
        """
        keys = list(self.positions)
        used = np.flatnonzero(np.bincount(np.concatenate(columns), minlength=len(keys)))
        used_keys = [keys[i] for i in used]
        if registry is None:
            registry = make(used_keys)
        to_registry = np.zeros(len(keys), np.int64)
        to_registry[used] = [registry.index_of(key) for key in used_keys]
        return registry, to_registry


def _money_from_keys(ids, codes, exporter, importer, product, value, year, countries=None,
                     products=None) -> MoneyMatrixSet:
    """Money matrices from per-flow ``_Keys`` positions of ids and codes."""
    exporter, importer, product = (np.asarray(c, dtype=np.int64)
                                   for c in (exporter, importer, product))
    countries, country = ids.lookup(countries, CountryRegistry.from_ids, exporter, importer)
    products, code = codes.lookup(products, ProductRegistry.from_codes, product)
    return _money_from_columns(country[exporter], country[importer], code[product],
                               np.asarray(value, dtype=float), year, countries, products)


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
    product's CSC order.
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
    columns, rows = np.divmod(unique, n)  # column of the side-by-side blocks
    indptr = np.concatenate(([0], np.cumsum(np.bincount(columns, minlength=n_p * n))))
    # dtype: the bincount of no flows at all comes back as int64
    blocks = sparse.csc_matrix((sums, rows, indptr), shape=(n, n_p * n), dtype=float)
    matrices = tuple(blocks[:, p * n:(p + 1) * n] for p in range(n_p))
    return MoneyMatrixSet(matrices, year, countries, products)


def _stored_flows(matrices):
    """(exporter, importer, product, value) of every stored entry, product by
    product, each matrix's values in storage order."""
    coos = [m.tocoo() for m in matrices]
    product = np.repeat(np.arange(len(coos)), [coo.nnz for coo in coos])
    exporter, importer, value = (np.concatenate(part) for part in zip(
        *[(coo.col, coo.row, coo.data) for coo in coos]))
    return exporter, importer, product, value


def money_from_records(records: Iterable[TradeFlowRecord], year: int,
                       countries: CountryRegistry | None = None,
                       products: ProductRegistry | None = None) -> MoneyMatrixSet:
    """Assemble a money matrix set from in-memory records.

    Ids and product codes are canonicalized and self-flows dropped. Each
    value must be a finite, nonnegative number, as each ingest row must;
    records sharing a key are then summed.
    """
    ids, codes = _Keys(canonical_country_id), _Keys(canonical_product_code)
    exporters, importers, flow_products, values = [], [], [], []
    for r in records:
        try:
            exporter, importer, product = ids[r.exporter], ids[r.importer], codes[r.product]
        except TypeError:  # an unhashable field is no string, so its check raises
            canonical_country_id(r.exporter), canonical_country_id(r.importer)
            canonical_product_code(r.product)
            raise
        if r.year != year or exporter == importer:
            continue
        if not isinstance(r.value_usd, numbers.Real) or not 0.0 <= r.value_usd < math.inf:
            raise ValidationError(f"value {r.value_usd!r} for {canonical_country_id(r.exporter)}->"
                                  f"{canonical_country_id(r.importer)} "
                                  "is not a finite, nonnegative number")
        exporters.append(exporter)
        importers.append(importer)
        flow_products.append(product)
        values.append(r.value_usd)
    if not values and (countries is None or products is None):
        raise EmptyDataError(f"no usable records for year {year}")
    return _money_from_keys(ids, codes, exporters, importers, flow_products, values, year,
                            countries, products)


def write_trade_csv(mm: MoneyMatrixSet, dest) -> None:
    """Serialize to the ingest CSV format (canonical row order, exact floats).

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
        for code, exporter, importer, value in mm._sorted_flows():
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

    Joint arrays are (n_products, n_countries); the two joints each sum to 1.
    """

    import_pc: np.ndarray
    export_pc: np.ndarray
    import_c: np.ndarray
    export_c: np.ndarray
    import_p: np.ndarray
    export_p: np.ndarray
    countries: CountryRegistry
    products: ProductRegistry
    year: int


def volume_probabilities(mm: MoneyMatrixSet) -> VolumeProbabilities:
    """Normalize the set's ``imports`` and ``exports`` by its ``total_volume``."""
    total = mm.total_volume()
    if total <= 0.0:
        raise EmptyDataError("zero total trade volume")
    import_pc, export_pc = mm.imports / total, mm.exports / total
    return VolumeProbabilities(
        import_pc=import_pc,
        export_pc=export_pc,
        import_c=import_pc.sum(axis=0),
        export_c=export_pc.sum(axis=0),
        import_p=import_pc.sum(axis=1),
        export_p=export_pc.sum(axis=1),
        countries=mm.countries,
        products=mm.products,
        year=mm.year,
    )


def load_group_config(source) -> tuple[str, list[str], str | None]:
    """Read a group-merge JSON config: label, members, optional short code.

    The label and members come back as canonical country ids; the members are
    checked first, in config order, as ``merge_country_group`` checks them.
    """
    try:
        with open_input(source) as stream:
            cfg = json.load(stream)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"bad group config: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"bad group config: the file is not UTF-8 ({exc.reason})") from None
    try:
        label = cfg["label"]
        members = list(cfg["members"])
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"bad group config: missing {exc}") from None
    short = cfg.get("short")
    if (not isinstance(label, str) or not members
            or not all(isinstance(m, str) for m in members)
            or not isinstance(short, (str, type(None)))):
        raise ValidationError("bad group config: need a label, string members "
                              "and an optional string short code")
    members = [canonical_country_id(m) for m in members]
    return canonical_country_id(label), members, short
