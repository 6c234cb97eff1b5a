"""Functional classification and inter-rater agreement.

A primitive is described by seven boolean attributes and classified by a
fixed-order decision tree (first matching attribute wins). The catalog's
attribute table is required to be MECE: every categorized entry sets exactly
the one flag of its category, auxiliary entries set none, so categories are
mutually exclusive and jointly exhaustive over the non-auxiliary rows.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .core import FunctionalCategory, category_template
from .errors import (DegenerateMarginalsError, RatingsMatrixError,
                     UnclassifiableError)

#: Agreement score reported for the six-expert classification study that
#: produced the catalog's category assignments. The raw rating sheets are
#: not distributed with this package, so this is a documented constant for
#: display, never a recomputed quantity.
EXPERT_STUDY_KAPPA = 0.86
EXPERT_STUDY_RATERS = 6


@dataclass(frozen=True)
class ClassificationAttributes:
    """The seven decision-tree attributes, in tree order."""

    initializes_state: bool = False
    generates_entanglement: bool = False
    encodes_problem: bool = False
    amplifies_amplitude: bool = False
    transforms_basis: bool = False
    estimates_phase: bool = False
    parameterized_form: bool = False

    def flags(self) -> tuple[bool, ...]:
        return tuple(getattr(self, f.name) for f in fields(self))

    @property
    def true_count(self) -> int:
        return sum(self.flags())

    def with_flag(self, name: str, value: bool) -> "ClassificationAttributes":
        return replace(self, **{name: value})


ATTRIBUTE_NAMES = tuple(f.name for f in fields(ClassificationAttributes))

#: Decision-tree branch order; the first true attribute decides.
DECISION_ORDER: tuple[tuple[str, FunctionalCategory], ...] = tuple(
    (category_template(c).flag, c) for c in FunctionalCategory)

CATEGORY_FLAG = {cat: name for name, cat in DECISION_ORDER}


def classify(attrs: ClassificationAttributes) -> FunctionalCategory:
    """Walk the decision tree; raise if no attribute is set."""
    for name, category in DECISION_ORDER:
        if getattr(attrs, name):
            return category
    raise UnclassifiableError("no classification attribute is set")


@dataclass(frozen=True)
class MeceViolation:
    primitive_id: int
    name: str
    kind: str
    message: str


def check_mece(entries) -> list[MeceViolation]:
    """Audit a catalog's attribute table.

    ``entries`` is an iterable of objects with ``id``, ``name``,
    ``category`` (None for auxiliary), and ``attributes``. Categorized
    entries must set exactly the flag of their category and classify back
    to it; auxiliary entries must set no flag at all.
    """
    violations = []

    def flag(pid, name, kind, message):
        violations.append(MeceViolation(pid, name, kind, message))

    for entry in entries:
        attrs = entry.attributes
        if entry.category is None:
            if attrs.true_count != 0:
                flag(entry.id, entry.name, "auxiliary_flagged",
                     "auxiliary entry sets classification attributes")
            continue
        if attrs.true_count != 1:
            flag(entry.id, entry.name, "not_exclusive",
                 f"expected exactly one attribute, found {attrs.true_count}")
        expected = category_template(entry.category).flag
        if not getattr(attrs, expected):
            flag(entry.id, entry.name, "missing_category_flag",
                 f"attribute '{expected}' not set for category "
                 f"{entry.category.value}")
        try:
            derived = classify(attrs)
        except UnclassifiableError:
            flag(entry.id, entry.name, "unclassifiable",
                 "decision tree reaches no category")
            continue
        if derived is not entry.category:
            flag(entry.id, entry.name, "tree_disagrees",
                 f"decision tree yields {derived.value}, catalog says "
                 f"{entry.category.value}")
    return violations


# inter-rater agreement


@dataclass(frozen=True)
class RatingsMatrix:
    """Items x categories table of rating counts.

    rows[i][j] = number of raters assigning item i to category j. Every row
    must sum to the same rater count r >= 2.
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.rows) < 1:
            raise RatingsMatrixError("need at least one item")
        width = len(self.rows[0])
        if width < 1:
            raise RatingsMatrixError("need at least one category")
        sums = set()
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise RatingsMatrixError(f"row {i} has {len(row)} entries, "
                                         f"expected {width}")
            for v in row:
                if not isinstance(v, int) or v < 0:
                    raise RatingsMatrixError(
                        f"row {i} contains non-count value {v!r}")
            sums.add(sum(row))
        if len(sums) != 1:
            raise RatingsMatrixError(
                f"rows have unequal rater counts: {sorted(sums)}")
        r = sums.pop()
        if r < 2:
            raise RatingsMatrixError(f"need at least 2 raters, got {r}")

    @property
    def n_items(self) -> int:
        return len(self.rows)

    @property
    def n_raters(self) -> int:
        return sum(self.rows[0])

    @property
    def n_categories(self) -> int:
        return len(self.rows[0])


def fleiss_kappa(ratings) -> float:
    """Chance-corrected multi-rater agreement.

    Accepts a RatingsMatrix or any nested sequence of counts. Unanimous
    ratings over two or more used categories return exactly 1.0. When all
    ratings fall into a single category, expected agreement is 1 and the
    coefficient is undefined; that raises DegenerateMarginals.
    """
    if not isinstance(ratings, RatingsMatrix):
        ratings = RatingsMatrix(tuple(tuple(int(v) for v in row)
                                      for row in ratings))
    rows = ratings.rows
    n, r = ratings.n_items, ratings.n_raters
    total = n * r

    col_sums = [sum(row[j] for row in rows)
                for j in range(ratings.n_categories)]
    if any(c == total for c in col_sums):
        raise DegenerateMarginalsError(
            "all ratings fall into one category; agreement is undefined")

    p_bar = sum((sum(v * v for v in row) - r) / (r * (r - 1))
                for row in rows) / n
    if p_bar == 1.0:  # unanimity: exact by definition, skip the division
        return 1.0
    p_exp = sum((c / total) ** 2 for c in col_sums)
    return (p_bar - p_exp) / (1.0 - p_exp)


def parse_ratings_csv(text: str) -> RatingsMatrix:
    """Parse comma-separated count rows, one item per line.

    Blank lines and lines starting with '#' are skipped.
    """
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append(tuple(int(cell.strip())
                              for cell in line.split(",") if cell.strip()))
        except ValueError as exc:
            raise RatingsMatrixError(
                f"line {lineno}: {exc}") from None
    if not rows:
        raise RatingsMatrixError("no rating rows found")
    return RatingsMatrix(tuple(rows))
