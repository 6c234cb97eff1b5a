"""Byte-for-byte lock on the catalog-level reports.

``tests/golden/catalog_reports.txt`` holds the stdout of every catalog,
classification, analysis, tier, complexity, heatmap, MECE and trade-off
report the CLI prints for the shipped catalog. Regenerate it after an
intended change to a report with

    PYTHONPATH=src python tests/test_reports.py
"""

import contextlib
import io
import pathlib

from qsaf.catalog import all_primitives
from qsaf.cli import main
from qsaf.core import FunctionalCategory, category_template

GOLDEN = pathlib.Path(__file__).parent / "golden" / "catalog_reports.txt"


def _commands():
    for desc in all_primitives():
        for verb in (["catalog", "show"], ["classify"], ["analyze"],
                     ["tier"]):
            yield verb + [str(desc.id)]
    for desc in all_primitives():
        if desc.growth is not None:
            yield ["complexity", str(desc.id)]
    yield from (["catalog", "list"], ["heatmap"], ["mece"], ["tier"],
                ["compare"], ["compare", "--regime", "fault_tolerant"])


def catalog_reports() -> str:
    out = io.StringIO()
    for argv in _commands():
        out.write("$ qsaf " + " ".join(argv) + "\n")
        with contextlib.redirect_stdout(out):
            code = main(argv)
        out.write(f"# exit {code}\n")
    return out.getvalue()


def test_catalog_reports_match_golden():
    assert catalog_reports() == GOLDEN.read_text(encoding="utf-8")


def test_category_rows_cover_the_categorized_ids_once():
    rows = [category_template(c) for c in FunctionalCategory]
    ids = [pid for row in rows for pid in row.ids]
    assert sorted(ids) == list(range(1, 30))
    for desc in all_primitives():
        owners = [row.category for row in rows
                  if desc.id in row.ids]
        assert owners == ([] if desc.is_auxiliary else [desc.category])


if __name__ == "__main__":
    GOLDEN.write_text(catalog_reports(), encoding="utf-8")
