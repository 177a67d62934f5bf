"""Evidence containers: one financial table plus its surrounding text.

``tokenize`` is the one word rule: retrieval indexes a text's words, and a row
name finds each row with the same words, so "risk-free interest rate" finds
"Risk-Free Interest Rate" (docs/grammar.md, "Evidence rules").
"""

from __future__ import annotations

from decimal import Decimal

from .frozen import Frozen, set_field
from .numeric import (
    NotANumber,
    Quantity,
    exact_ratio,
    extract_numbers,
    format_decimal,
    mantissas,
    oversized_number,
    parse_mantissa,
)

#: Keeps the bytes of ``[a-z0-9]`` and blanks every other byte.
_BLANK_NON_TOKEN = bytes(
    b if chr(b) in "abcdefghijklmnopqrstuvwxyz0123456789" else ord(" ") for b in range(256)
)


def tokenize(text: str) -> list[str]:
    """The ``[a-z0-9]`` runs of the lowered text, by one byte-table pass.

    Every UTF-8 byte of a non-ASCII character, a lone surrogate's included
    (``surrogatepass``), is 0x80 or above, so the table blanks it.
    """
    return text.lower().encode("utf-8", "surrogatepass").translate(_BLANK_NON_TOKEN).decode().split()


def normalize_row_name(name: str) -> str:
    """The name's words, by ``tokenize``, joined by one space."""
    return " ".join(tokenize(name))


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
        raises ValueError naming ``i`` (and ``j``), as does a value cell
        (``i``, ``j`` >= 1) that reads as a number past MAX_NUMBER_DIGITS.
        """
        for i, row in enumerate(raw):
            if not isinstance(row, list):
                raise ValueError(f"row {i} is not a list")
            for j, value in enumerate(row):
                if not isinstance(value, str):
                    raise ValueError(f"row {i} column {j} is not a string")
                if i and j and (reason := oversized_number(value)):
                    raise ValueError(f"row {i} column {j}: {reason}")
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

    def rows_by_name(self) -> dict[str, list[int]]:
        """A new map from each ``normalize_row_name`` of a row to its row indexes, in order; built per call."""
        by_name: dict[str, list[int]] = {}
        for i, (name, _) in enumerate(self.rows):
            by_name.setdefault(normalize_row_name(name), []).append(i)
        return by_name

    def find_row(self, name: str) -> int | None:
        """First row matching the name, or None, read from a new ``rows_by_name`` map."""
        rows = self.rows_by_name().get(normalize_row_name(name))
        return rows[0] if rows else None

    def numeric_cells(self, index: int) -> list[tuple[int, int]]:
        """Numeric cell values of one row, in column order, as reduced (numerator, denominator) pairs.

        Non-numeric cells (footnote marks, empty strings) are skipped. The
        row-name cell is never included.
        """
        values = []
        for cell in self.rows[index][1]:
            try:
                values.append(exact_ratio(parse_mantissa(cell)))
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
