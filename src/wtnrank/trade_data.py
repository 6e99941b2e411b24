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
        ids = self.countries.ids
        out = []
        for code, m in zip(self.products.codes, self.matrices):
            coo = m.tocoo()
            for imp, exp, val in zip(coo.row, coo.col, coo.data):
                if val != 0.0:
                    out.append(TradeFlowRecord(self.year, ids[exp], ids[imp], code, float(val)))
        out.sort(key=lambda r: (r.product, r.exporter, r.importer))
        return out


def money_sets_equal(a: MoneyMatrixSet, b: MoneyMatrixSet) -> bool:
    """Exact structural equality (registries, year, and every stored entry)."""
    if a.year != b.year or a.countries.entries != b.countries.entries:
        return False
    if a.products.entries != b.products.entries:
        return False
    for ma, mb in zip(a.matrices, b.matrices):
        if (ma != mb).nnz != 0:
            return False
    return True


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

        flows: dict[tuple[str, str, str], float] = {}
        rows_used = 0
        self_flows = 0
        duplicates = 0
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
            key = (exporter, importer, product)
            if key in flows:
                flows[key] += value
                duplicates += 1
            else:
                flows[key] = value
            rows_used += 1

    if not flows:
        raise EmptyDataError(f"no usable rows for year {year}")

    countries = CountryRegistry.from_ids(
        {exp for exp, _, _ in flows} | {imp for _, imp, _ in flows}
    )
    products = ProductRegistry.from_codes({prod for _, _, prod in flows})
    money = _money_from_flows(flows, year, countries, products)
    return IngestResult(money, rows_used, self_flows, duplicates)


def _money_from_flows(flows, year, countries, products) -> MoneyMatrixSet:
    """Money matrices from summed flows; the registries look up (and validate) every key."""
    n, count = len(countries), len(flows)
    exp, imp, prod = zip(*flows) if flows else ((), (), ())
    cols = np.fromiter(map(countries.index_of, exp), np.int64, count)
    rows = np.fromiter(map(countries.index_of, imp), np.int64, count)
    positions = np.fromiter(map(products.index_of, prod), np.int64, count)
    values = np.fromiter(flows.values(), float, count)
    matrices = []
    for p in range(len(products)):
        keep = positions == p  # flows keep their order within a product
        matrices.append(sparse.coo_matrix(
            (values[keep], (rows[keep], cols[keep])), shape=(n, n)).tocsc())
    return MoneyMatrixSet(tuple(matrices), year, countries, products)


def money_from_records(records: Iterable[TradeFlowRecord], year: int,
                       countries: CountryRegistry | None = None,
                       products: ProductRegistry | None = None) -> MoneyMatrixSet:
    """Assemble a money matrix set from in-memory records (duplicates summed)."""
    flows: dict[tuple[str, str, str], float] = {}
    for r in records:
        if r.year != year or r.exporter == r.importer:
            continue
        if r.value_usd < 0.0:
            raise ValidationError(f"negative value for {r.exporter}->{r.importer}")
        key = (r.exporter, r.importer, r.product)
        flows[key] = flows.get(key, 0.0) + r.value_usd
    if not flows and (countries is None or products is None):
        raise EmptyDataError(f"no usable records for year {year}")
    if countries is None:
        countries = CountryRegistry.from_ids(
            {e for e, _, _ in flows} | {i for _, i, _ in flows}
        )
    if products is None:
        products = ProductRegistry.from_codes({p for _, _, p in flows})
    return _money_from_flows(flows, year, countries, products)


def write_trade_csv(mm: MoneyMatrixSet, dest) -> None:
    """Serialize to the ingest CSV format (canonical row order, exact floats)."""
    rows = ([r.year, r.exporter, r.importer, r.product, repr(r.value_usd)]
            for r in mm.records())
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

    n = len(new_ids)
    matrices = []
    for m in mm.matrices:
        coo = m.tocoo()
        rows = old_to_new[coo.row]
        cols = old_to_new[coo.col]
        keep = rows != cols  # drops intra-group flows
        merged = sparse.coo_matrix(
            (coo.data[keep], (rows[keep], cols[keep])), shape=(n, n)
        ).tocsc()
        matrices.append(merged)
    return MoneyMatrixSet(tuple(matrices), mm.year, registry, mm.products)


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
