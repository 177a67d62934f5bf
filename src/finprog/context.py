"""Evidence containers: one financial table plus its surrounding text.

Row names resolve case-insensitively with punctuation and whitespace folded,
so a program argument "risk-free interest rate" finds the row even when the
table writes "Risk-Free Interest Rate".
"""

from __future__ import annotations

import re
from decimal import Decimal
from typing import Iterator

from .frozen import Frozen, set_field
from .numeric import (
    NotANumber,
    Quantity,
    extract_numbers,
    format_decimal,
    mantissas,
    parse_mantissa,
)

_NORMALIZE_RE = re.compile(r"[^0-9a-z]+")


def normalize_row_name(name: str) -> str:
    return _NORMALIZE_RE.sub(" ", name.lower()).strip()


class FinTable(Frozen):
    """A single-header table: column labels plus (row name, cells) rows.

    ``header[0]`` labels the row-name column and is usually empty; the value
    columns are ``header[1:]``. Every row must have one cell per value column.
    """

    __slots__ = __match_args__ = ("header", "rows")
    header: tuple[str, ...]
    rows: tuple[tuple[str, tuple[str, ...]], ...]

    def __init__(self, header: tuple[str, ...], rows: tuple[tuple[str, tuple[str, ...]], ...]):
        width = len(header) - 1
        for name, cells in rows:
            if len(cells) != width:
                raise ValueError(
                    f"row {name!r} has {len(cells)} cells for {width} value columns"
                )
        set_field(self, "header", header)
        set_field(self, "rows", rows)

    @classmethod
    def from_rows(cls, raw: list[list[str]]) -> "FinTable":
        """Build from a raw grid whose first row is the header.

        Every row, the header included, must be a list of strings; row ``i``
        of another type, or a value of another type in its column ``j``,
        raises ValueError naming ``i`` (and ``j``).
        """
        for i, row in enumerate(raw):
            if not isinstance(row, list):
                raise ValueError(f"row {i} is not a list")
            for j, value in enumerate(row):
                if not isinstance(value, str):
                    raise ValueError(f"row {i} column {j} is not a string")
        if not raw or not raw[0]:
            raise ValueError("table needs a header row")
        rows = tuple((r[0] if r else "", tuple(r[1:])) for r in raw[1:])
        return cls(header=tuple(raw[0]), rows=rows)

    @property
    def column_labels(self) -> tuple[str, ...]:
        return self.header[1:]

    @property
    def row_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.rows)

    def _matches(self, name: str) -> Iterator[int]:
        """Indexes of the rows whose normalized name equals the query's, in order, read as asked for."""
        key = normalize_row_name(name)
        return (i for i, (row_name, _) in enumerate(self.rows) if normalize_row_name(row_name) == key)

    def matching_rows(self, name: str) -> list[int]:
        return list(self._matches(name))

    def find_row(self, name: str) -> int | None:
        """First row matching the name, or None. Ties resolve to the first; later rows are not read."""
        return next(self._matches(name), None)

    def numeric_cells(self, index: int) -> list[tuple[int, int]]:
        """Numeric cell values of one row, in column order, as reduced (numerator, denominator) pairs.

        Non-numeric cells (footnote marks, empty strings) are skipped. The
        row-name cell is never included.
        """
        values = []
        for cell in self.rows[index][1]:
            try:
                values.append(parse_mantissa(cell).as_integer_ratio())
            except NotANumber:
                continue
        return values


class EvidenceContext(Frozen):
    """Text sentences and one table.

    Numbers are read from the texts on demand: ``mentions`` grounds one
    value, reading only the texts that can hold it; ``number_values`` and
    ``sentence_quantities`` extract every number each time they are read.
    """

    __slots__ = __match_args__ = ("text_sentences", "table")
    text_sentences: tuple[str, ...]
    table: FinTable

    def __init__(self, text_sentences: tuple[str, ...], table: FinTable):
        set_field(self, "text_sentences", text_sentences)
        set_field(self, "table", table)

    @classmethod
    def build(cls, sentences, table: FinTable | None = None) -> "EvidenceContext":
        if table is None:
            table = FinTable(header=("",), rows=())
        return cls(text_sentences=tuple(sentences), table=table)

    @property
    def sentence_quantities(self) -> tuple[tuple[Quantity, ...], ...]:
        return tuple(tuple(extract_numbers(s)) for s in self.text_sentences)

    def _texts(self) -> list[str]:
        """The sentences, then the table's header labels, then each row's name and cells."""
        texts = [*self.text_sentences, *self.table.header]
        for name, cells in self.table.rows:
            texts.append(name)
            texts.extend(cells)
        return texts

    @property
    def number_values(self) -> frozenset[Decimal]:
        """Every number present anywhere in the evidence, as its signed mantissa.

        The values are ``Decimal``s. A ``Decimal`` hashes and compares equal to
        the ``Fraction`` of the same value, so ``Fraction(3, 2)`` and
        ``Decimal("1.50")`` are both members when the evidence says 1.5.
        Building it reads every text; to ground a single value, ``mentions``
        gives the same answer and reads only the texts that can hold it.
        """
        return frozenset(mantissas(self._texts()))

    def mentions(self, value: Decimal) -> bool:
        """Whether the finite ``value`` is in ``number_values``, without building that set.

        A number is read from ASCII digits and commas alone, so a text can
        hold the value only if, with its thousands commas removed, it
        contains the digits of ``format_decimal(value.copy_abs())``, less the
        leading ``0`` of a magnitude below 1 (the evidence may write ``.5``).
        Only the texts that pass this test are read, up to the first number
        equal to the value; so the answer is exactly that of ``value in
        number_values``.
        """
        digits = format_decimal(value.copy_abs())  # abs() would round past 28 digits
        if digits.startswith("0."):
            digits = digits[1:]
        return value in mantissas(t for t in self._texts() if digits in t.replace(",", ""))

    def number_tokens(self) -> list[str]:
        """Canonical number tokens in first-appearance order, deduplicated."""
        return list(dict.fromkeys(map(format_decimal, mantissas(self._texts()))))
