"""Report documents and their JSON/CSV serialization.

Each record is the one statement of its report's field order. A document
holds ``schema_version`` and then the record's fields in declaration order,
and it leaves out a field that is None. So two runs with the same
configuration serialize byte-identically apart from ``wall_time_ms``, which
every record declares last. A CSV row is its document read by a column list
built from the same fields, with an empty cell for a field the document left out.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import fields
from typing import Any, Optional

from .campaign import Campaign
from .core import EXECUTION_FAILURES
from .harness import CampaignReport, Counterexample, MatrixCell, MatrixReport

SCHEMA_VERSION = "1"

_REPORT_FIELDS = tuple(field.name for field in fields(CampaignReport))
_MATRIX_FIELDS = tuple(field.name for field in fields(MatrixReport))
_CELL_FIELDS = tuple(field.name for field in fields(MatrixCell))
_COUNTEREXAMPLE_KEYS = ("input", "output_original", "output_variant")

CAMPAIGN_CSV_COLUMNS = ["schema_version", *(column for name in _REPORT_FIELDS for column in (
    [f"{name}_{key}" for key in _COUNTEREXAMPLE_KEYS] if name == "counterexample" else [name]))]

# a matrix row is one cell after its matrix's fields: the cells are the rows, and
# the matrix's wall time is no cell's, so the matrix CSV repeats byte for byte
MATRIX_CSV_COLUMNS = ["schema_version", *(
    name for name in _MATRIX_FIELDS if name not in ("cells", "wall_time_ms")), *_CELL_FIELDS]


def _document(record: Any, names: tuple[str, ...], /, **values: Any) -> dict:
    """The record's fields in order, ``values`` in place of their own, Nones left out."""
    document = {}
    for name in names:
        value = values[name] if name in values else getattr(record, name)
        if value is not None:
            document[name] = value
    return document


def _render_output(campaign: Campaign, output: Any) -> str:
    """The campaign's rendering of a program's output, or a placeholder naming what
    rendering raised: an output can be any object, even one whose ``repr`` raises or exits."""
    try:
        return campaign.render_output(output)
    except EXECUTION_FAILURES as exc:
        return f"<unrenderable output: {type(exc).__name__}: {exc}>"


def _counterexample(counterexample: Optional[Counterexample],
                    campaign: Campaign) -> Optional[dict]:
    if counterexample is None:
        return None
    return dict(zip(_COUNTEREXAMPLE_KEYS, (
        campaign.render_payload(counterexample.payload),
        _render_output(campaign, counterexample.original_output),
        _render_output(campaign, counterexample.variant_output))))


def campaign_report_document(report: CampaignReport, campaign: Campaign) -> dict:
    """Flat ordered mapping for one campaign run; wall_time_ms is last."""
    return {"schema_version": SCHEMA_VERSION, **_document(
        report, _REPORT_FIELDS,
        counterexample=_counterexample(report.counterexample, campaign))}


def matrix_report_document(matrix: MatrixReport) -> dict:
    """The matrix's fields in order, each cell as an ordered mapping; the
    control cell's mutant is ``"none"``."""
    cells = [_document(cell, _CELL_FIELDS,
                       mutant="none" if cell.mutant is None else cell.mutant)
             for cell in matrix.cells]
    return {"schema_version": SCHEMA_VERSION,
            **_document(matrix, _MATRIX_FIELDS, cells=cells)}


def to_json(document: dict) -> str:
    return json.dumps(document, indent=2) + "\n"


def _csv_text(header: list[str], rows: list[dict]) -> str:
    """The header, then each row read by it; a boolean is written lowercase."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, quoting=csv.QUOTE_NONNUMERIC, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        values = (row.get(column, "") for column in header)
        writer.writerow([str(value).lower() if isinstance(value, bool) else value
                         for value in values])
    return buffer.getvalue()


def campaign_report_csv(document: dict) -> str:
    row = dict(document)
    for key, value in document.get("counterexample", {}).items():
        row[f"counterexample_{key}"] = value
    return _csv_text(CAMPAIGN_CSV_COLUMNS, [row])


def matrix_report_csv(document: dict) -> str:
    return _csv_text(MATRIX_CSV_COLUMNS, [{**document, **cell} for cell in document["cells"]])


def emit_report(text: str, path: Optional[str]) -> None:
    """Write the serialized report to the given path, or stdout when absent."""
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
