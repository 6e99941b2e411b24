"""Trade-flow ingestion: registries, money matrices, merges, volume probabilities.

The money matrix of a product holds the USD value traded from an exporter
(column) to an importer (row). A dataset is a set of such matrices, one per
product, over a shared country registry.
"""

from __future__ import annotations

import csv
import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import Iterable, Mapping

import numpy as np
from scipy import sparse

from ._io import open_input, write_csv
from .errors import EmptyDataError, ParseError, ValidationError

CSV_HEADER = ("year", "exporter", "importer", "product", "value_usd")

# SITC Rev. 1 level-1 commodity categories (one-digit codes).
SITC1_NAMES = {
    "0": "Food and live animals",
    "1": "Beverages and tobacco",
    "2": "Crude materials, inedible, except fuels",
    "3": "Mineral fuels etc",
    "4": "Animal and vegetable oils and fats",
    "5": "Chemicals and related products, n.e.s.",
    "6": "Basic manufactures",
    "7": "Machinery, transport equipment",
    "8": "Miscellaneous manufactured articles",
    "9": "Goods not classified elsewhere",
}

_ID_RE = re.compile(r"^[A-Z0-9][A-Z0-9_-]*$")


def canonical_country_id(raw: str) -> str:
    """Normalize a country key (ISO alpha-3 in real data, any stable token otherwise)."""
    cid = raw.strip().upper()
    if not _ID_RE.match(cid):
        raise ValidationError(f"invalid country id {raw!r}")
    return cid


@dataclass(frozen=True)
class ProductRegistry:
    """Ordered one-digit product codes with display names.

    The canonical registry carries all ten SITC level-1 codes; subsets are
    allowed so that reduced synthetic datasets stay first-class.
    """

    entries: tuple[tuple[str, str], ...]

    def __post_init__(self):
        codes = self.codes
        if not codes:
            raise ValidationError("product registry is empty")
        for code in codes:
            if code not in SITC1_NAMES:
                raise ValidationError(f"unknown product code {code!r}")
        if len(self._index) != len(codes):
            raise ValidationError("duplicate product codes")
        if list(codes) != sorted(codes):
            raise ValidationError("product codes must be sorted ascending")

    @classmethod
    def sitc1(cls) -> "ProductRegistry":
        """The full ten-category SITC Rev. 1 level-1 registry."""
        return cls(tuple(sorted(SITC1_NAMES.items())))

    @classmethod
    def from_codes(cls, codes: Iterable[str]) -> "ProductRegistry":
        unknown = set(codes) - set(SITC1_NAMES)
        if unknown:
            raise ValidationError(f"unknown product codes {sorted(unknown)}")
        return cls(tuple((c, SITC1_NAMES[c]) for c in sorted(set(codes))))

    @cached_property
    def codes(self) -> tuple[str, ...]:
        return tuple(code for code, _ in self.entries)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {code: i for i, code in enumerate(self.codes)}

    def index_of(self, code: str) -> int:
        try:
            return self._index[code]
        except KeyError:
            raise ValidationError(f"product {code!r} not in registry") from None

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class CountryRegistry:
    """Active country list plus provenance of merged country groups.

    Ids are stable text keys (ISO-3166 alpha-3 for real data); display names
    are decorative. ``group_labels`` records, for every synthetic group id
    ever created, the member ids it absorbed. ``short_codes`` optionally
    overrides the two-letter label used in matrix dumps and graph exports.
    """

    entries: tuple[tuple[str, str], ...]
    group_labels: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    short_codes: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not self.entries:
            raise ValidationError("country registry is empty")
        if len(self._index) != len(self.entries):
            raise ValidationError("duplicate country ids")
        for members in self.group_labels.values():
            for m in members:
                if m in self._index:
                    raise ValidationError(f"merged member {m!r} still active")

    @classmethod
    def from_ids(cls, ids: Iterable[str]) -> "CountryRegistry":
        return cls(tuple((cid, cid) for cid in sorted(set(ids))))

    @cached_property
    def ids(self) -> tuple[str, ...]:
        return tuple(cid for cid, _ in self.entries)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {cid: i for i, cid in enumerate(self.ids)}

    @cached_property
    def _short_code_counts(self) -> Counter:
        return Counter(self.short_code(cid) for cid in self.ids)

    def index_of(self, cid: str) -> int:
        try:
            return self._index[cid]
        except KeyError:
            raise ValidationError(f"country {cid!r} not in registry") from None

    def display_name(self, cid: str) -> str:
        return self.entries[self.index_of(cid)][1]

    def short_code(self, cid: str) -> str:
        """Two-letter label for compact node names (e.g. US, EU)."""
        if cid in self.short_codes:
            return self.short_codes[cid]
        letters = [ch for ch in cid if ch.isalpha()]
        return "".join(letters[:2]).upper() or cid[:2]

    def display_code(self, cid: str) -> str:
        """Short code, or the full id when another registered country shares the code."""
        code = self.short_code(cid)
        return cid if self._short_code_counts[code] > 1 else code

    def __len__(self) -> int:
        return len(self.entries)


def matrix_volume(m: sparse.spmatrix) -> float:
    """Sum of every entry of a money matrix, in one fixed order.

    Each row is summed in ascending column order: the CSC product
    ``m @ ones`` visits the columns in turn, so how the entries of one
    column are stored does not matter. The row sums are then added by
    ``numpy.sum`` (pairwise summation over the contiguous float64 vector).
    ``m.sum()`` is not used: its order has changed between scipy releases,
    and a central-difference sensitivity, divided by 2h, shows every
    last-bit change in a volume total.
    """
    row_sums = sparse.csc_matrix(m) @ np.ones(m.shape[1])
    return float(np.sum(row_sums))


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
    ``c'`` to importer ``c``. Diagonals are zero; entries are nonnegative.
    """

    matrices: tuple[sparse.csc_matrix, ...]
    year: int
    countries: CountryRegistry
    products: ProductRegistry

    def __post_init__(self):
        if len(self.matrices) != len(self.products):
            raise ValidationError("matrix count does not match product registry")
        n = len(self.countries)
        for m in self.matrices:
            if m.shape != (n, n):
                raise ValidationError("matrix shape does not match country registry")

    @property
    def n_countries(self) -> int:
        return len(self.countries)

    @property
    def n_products(self) -> int:
        return len(self.products)

    def matrix_for(self, code: str) -> sparse.csc_matrix:
        return self.matrices[self.products.index_of(code)]

    def total_volume(self) -> float:
        """Per-product ``matrix_volume`` totals, added one by one in product order.

        An explicit loop, since the builtin ``sum`` of floats is compensated
        from Python 3.12 on and would round differently from 3.10 and 3.11.
        """
        total = 0.0
        for m in self.matrices:
            total += matrix_volume(m)
        return total

    def records(self) -> list[TradeFlowRecord]:
        """All nonzero flows, sorted by (product, exporter, importer)."""
        return [TradeFlowRecord(self.year, *flow) for flow in self._sorted_flows()]

    def _sorted_flows(self):
        """Nonzero (exporter, importer, product, value) flows, sorted by product and ids."""
        ids = np.array(self.countries.ids, dtype=object)
        id_rank = np.argsort(np.argsort(ids))  # position -> place in id order
        for code, m in zip(self.products.codes, self.matrices):
            coo = m.tocoo()
            nonzero = coo.data != 0.0
            exp, imp, values = coo.col[nonzero], coo.row[nonzero], coo.data[nonzero]
            order = np.lexsort((id_rank[imp], id_rank[exp]))
            yield from zip(ids[exp[order]], ids[imp[order]], repeat(code), values[order].tolist())


def money_sets_equal(a: MoneyMatrixSet, b: MoneyMatrixSet) -> bool:
    """Exact structural equality (registries, year, and every stored entry)."""
    return (a.year == b.year and a.countries.entries == b.countries.entries
            and a.products.entries == b.products.entries
            and all((ma != mb).nnz == 0 for ma, mb in zip(a.matrices, b.matrices)))


@dataclass(frozen=True)
class IngestResult:
    """A money matrix set plus the counters accumulated while reading it."""

    money: MoneyMatrixSet
    rows_used: int
    self_flows_dropped: int
    duplicates_merged: int


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
    codes, negative values, or malformed rows raise with the line number.
    """
    with open_input(source) as stream:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDataError("no header row") from None
        if tuple(h.strip().lstrip("﻿") for h in header) != CSV_HEADER:
            raise ParseError(f"expected header {','.join(CSV_HEADER)}", line=1)

        exporters, importers, codes, values = [], [], [], []
        self_flows = 0
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 5:
                raise ParseError(f"expected 5 fields, got {len(row)}", line=lineno)
            raw_year, raw_exp, raw_imp, raw_prod, raw_val = row
            try:
                row_year = int(raw_year.strip())
            except ValueError:
                raise ParseError(f"bad year {raw_year!r}", line=lineno) from None
            try:
                value = float(raw_val.strip())
            except ValueError:
                raise ParseError(f"bad value {raw_val!r}", line=lineno) from None
            if not math.isfinite(value) or value < 0.0:
                raise ValidationError(f"line {lineno}: negative or non-finite value {value!r}")
            product = raw_prod.strip()
            if product not in SITC1_NAMES:
                raise ValidationError(f"line {lineno}: unknown product code {raw_prod!r}")
            try:
                exporter = canonical_country_id(raw_exp)
                importer = canonical_country_id(raw_imp)
            except ValidationError as exc:
                raise ValidationError(f"line {lineno}: {exc}") from None
            if row_year != year:
                continue
            if exporter == importer:
                self_flows += 1
                continue
            exporters.append(exporter)
            importers.append(importer)
            codes.append(product)
            values.append(value)

    if not values:
        raise EmptyDataError(f"no usable rows for year {year}")
    money = _money_from_keys(exporters, importers, codes, values, year)
    unique_keys = sum(m.nnz for m in money.matrices)
    return IngestResult(money, len(values), self_flows, len(values) - unique_keys)


def _money_from_keys(exporters, importers, codes, values, year, countries=None,
                     products=None) -> MoneyMatrixSet:
    """Money matrices from per-flow ids and codes; the registry lookups reject unknown keys."""
    if countries is None:
        countries = CountryRegistry.from_ids({*exporters, *importers})
    if products is None:
        products = ProductRegistry.from_codes(codes)
    country, count = countries.index_of, len(values)
    return _money_from_columns(
        np.fromiter(map(country, exporters), np.int64, count),
        np.fromiter(map(country, importers), np.int64, count),
        np.fromiter(map(products.index_of, codes), np.int64, count),
        np.array(values, dtype=float), year, countries, products)


def _money_from_columns(exporter, importer, product, value, year, countries,
                        products) -> MoneyMatrixSet:
    """Money matrices from flows given as registry positions, dropping self-flows.

    Flows sharing a key are added one by one in input order from 0.0 (``bincount``
    over the ``unique`` inverse), so no sum hangs on a library's summation order.
    The sorted keys, (product, exporter, importer), are each product's CSC order.
    """
    n, n_p = len(countries), len(products)
    keep = exporter != importer
    keys = (product[keep] * n + exporter[keep]) * n + importer[keep]
    unique, inverse = np.unique(keys, return_inverse=True)
    sums = np.bincount(inverse, weights=value[keep])
    columns, rows = np.divmod(unique, n)  # column of the side-by-side blocks
    indptr = np.concatenate(([0], np.cumsum(np.bincount(columns, minlength=n_p * n))))
    blocks = sparse.csc_matrix((sums, rows, indptr), shape=(n, n_p * n))
    matrices = tuple(blocks[:, p * n:(p + 1) * n] for p in range(n_p))
    return MoneyMatrixSet(matrices, year, countries, products)


def money_from_records(records: Iterable[TradeFlowRecord], year: int,
                       countries: CountryRegistry | None = None,
                       products: ProductRegistry | None = None) -> MoneyMatrixSet:
    """Assemble a money matrix set from in-memory records (duplicates summed)."""
    exporters, importers, codes, values = [], [], [], []
    for r in records:
        if r.year != year or r.exporter == r.importer:
            continue
        if r.value_usd < 0.0:
            raise ValidationError(f"negative value for {r.exporter}->{r.importer}")
        exporters.append(r.exporter)
        importers.append(r.importer)
        codes.append(r.product)
        values.append(r.value_usd)
    if not values and (countries is None or products is None):
        raise EmptyDataError(f"no usable records for year {year}")
    return _money_from_keys(exporters, importers, codes, values, year, countries, products)


def write_trade_csv(mm: MoneyMatrixSet, dest) -> None:
    """Serialize to the ingest CSV format (canonical row order, exact floats)."""
    rows = ([mm.year, exp, imp, code, repr(value)]
            for exp, imp, code, value in mm._sorted_flows())
    write_csv(CSV_HEADER, rows, dest)


def merge_country_group(mm: MoneyMatrixSet, members: Iterable[str], label: str,
                        short: str | None = None) -> MoneyMatrixSet:
    """Treat a set of countries as one trade actor.

    Flows among the members are discarded; flows between a member and an
    outsider are reattributed to the synthetic group node and summed.
    Flows between outsiders are untouched.
    """
    member_set = {canonical_country_id(m) for m in members}
    if not member_set:
        raise ValidationError("empty member set")
    ids = mm.countries.ids
    for m in member_set:
        if m not in ids:
            raise ValidationError(f"unknown member id {m!r}")
    group_id = canonical_country_id(label)
    if group_id in ids:
        raise ValidationError(f"label {group_id!r} collides with an existing country id")

    survivors = [cid for cid in ids if cid not in member_set]
    new_ids = sorted(survivors + [group_id])
    new_entries = tuple(
        (cid, group_id if cid == group_id else mm.countries.display_name(cid))
        for cid in new_ids
    )
    group_labels = dict(mm.countries.group_labels)
    group_labels[group_id] = tuple(sorted(member_set))
    short_codes = {
        cid: code for cid, code in mm.countries.short_codes.items() if cid in new_ids
    }
    if short is not None:
        short_codes[group_id] = short
    registry = CountryRegistry(new_entries, group_labels, short_codes)

    old_to_new = np.array(
        [registry.index_of(group_id if cid in member_set else cid) for cid in ids],
        dtype=np.int64)

    coos = [m.tocoo() for m in mm.matrices]  # each in storage order
    product = np.repeat(np.arange(mm.n_products), [coo.nnz for coo in coos])
    exporter, importer, value = (np.concatenate(part) for part in zip(
        *[(old_to_new[coo.col], old_to_new[coo.row], coo.data) for coo in coos]))
    # intra-group flows become self-flows of the group node and are dropped
    return _money_from_columns(exporter, importer, product, value, mm.year, registry, mm.products)


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
    """Normalize import (row-sum) and export (column-sum) volumes to unity."""
    total = mm.total_volume()
    if total <= 0.0:
        raise EmptyDataError("zero total trade volume")
    n_p, n_c = mm.n_products, mm.n_countries
    import_pc = np.empty((n_p, n_c))
    export_pc = np.empty((n_p, n_c))
    for p, m in enumerate(mm.matrices):
        import_pc[p] = np.asarray(m.sum(axis=1)).ravel() / total
        export_pc[p] = np.asarray(m.sum(axis=0)).ravel() / total
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
    """Read a group-merge JSON config: label, members, optional short code."""
    with open_input(source) as stream:
        try:
            cfg = json.load(stream)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"bad group config: {exc}") from None
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
    return label, members, short
