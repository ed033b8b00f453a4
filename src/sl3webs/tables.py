"""Reference catalog fixtures: the prime webs up to 20 vertices.

Each row carries the published invariant expression (bracket form), the
three polygonal descriptions and the circularness flag.  Three invariant
entries are typographically suspect in the source; they are transcribed
verbatim and the verification harness reports, rather than asserts,
agreement for those rows.
"""

from __future__ import annotations

from .qlaurent import parse_qexpr


class TableRow:
    __slots__ = ("name", "expression", "descriptions", "circular", "suspect")

    def __init__(self, name, expression, descriptions, circular, suspect=False):
        self.name = name
        self.expression = expression
        self.descriptions = tuple(sorted(tuple(sorted(d)) for d in descriptions))
        self.circular = circular
        self.suspect = suspect

    @property
    def vertex_count(self):
        return 2 * int(self.name.split("_")[0])

    def invariant(self):
        return parse_qexpr(self.expression)

    def fingerprint(self):
        return (self.vertex_count, self.descriptions, self.circular)

    def __repr__(self):
        return f"TableRow({self.name})"


TABLE_ROWS = [
    TableRow("4_1", "2[2]^2[3]", [[4, 4], [4, 4], [4, 4]], True),
    TableRow("6_1", "[2]^4[3]+2[2]^2[3]", [[4, 4, 4], [4, 4, 4], [6, 6]], True),
    TableRow("7_1", "-4[2]^3[3]", [[4, 4, 6], [4, 4, 6], [4, 4, 6]], True),
    TableRow(
        "8_1",
        "[2]^6[3]+[2]^4[3]+2[2]^2[3]",
        [[4, 4, 4, 4], [4, 4, 4, 4], [8, 8]],
        True,
    ),
    TableRow("8_2", "3[2]^4[3]+2[2]^2[3]", [[4, 4, 4, 4], [4, 6, 6], [4, 6, 6]], True),
    TableRow(
        "9_1", "-[2]^5[3]-6[2]^3[3]", [[4, 4, 4, 6], [4, 4, 4, 6], [6, 6, 6]], True
    ),
    TableRow(
        "9_2", "-2[2]^5[3]-4[2]^3[3]", [[4, 4, 4, 6], [4, 4, 4, 6], [4, 6, 8]], True
    ),
    TableRow(
        "10_1",
        "[2]^8[3]+[2]^6+[2]^4[3]+2[2]^2[3]",
        [[4, 4, 4, 4, 4], [4, 4, 4, 4, 4], [10, 10]],
        True,
        suspect=True,
    ),
    TableRow(
        "10_2",
        "8[2]^4[3][3]",
        [[4, 4, 4, 8], [4, 4, 4, 8], [4, 4, 6, 6]],
        True,
        suspect=True,
    ),
    TableRow(
        "10_3",
        "[2]^6[3]+5[2]^4[3]+2[2]^2[3]",
        [[4, 4, 4, 4, 4], [4, 4, 6, 6], [6, 6, 8]],
        True,
    ),
    TableRow("10_4", "8[2]^4[3]", [[4, 4, 4, 8], [4, 4, 6, 6], [4, 4, 6, 6]], True),
    TableRow(
        "10_5",
        "6[2]^4[3][3]+3[2]^4[3]+2[2]^2[3]",
        [[4, 4, 4, 4, 4], [4, 4, 6, 6], [4, 8, 8]],
        True,
        suspect=True,
    ),
    TableRow(
        "10_6", "7[2]^4[3]+2[2]^2[3]", [[4, 4, 6, 6], [4, 4, 6, 6], [4, 4, 6, 6]], False
    ),
    TableRow(
        "10_7",
        "[2]^6[3]+5[2]^4[3]+2[2]^2[3]",
        [[4, 4, 6, 6], [4, 4, 6, 6], [4, 4, 6, 6]],
        False,
    ),
    TableRow(
        "10_8", "8[2]^4[3]", [[4, 4, 6, 6], [4, 4, 6, 6], [4, 4, 6, 6]], False
    ),
]
