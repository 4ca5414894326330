"""Plain-text H-representation files, one constraint per line.

Header line is "m d+1" (row count, then 1 + dimension).  Each data row
"c a_1 ... a_d" encodes c + a.x >= 0.  An optional trailing line
"linearity k i_1 ... i_k" marks rows (1-based) that hold with equality.
Equality rows are written first so the linearity indices are a prefix.
"""

from __future__ import annotations

from .polyhedra import HRepPolytope


def _require_int(value, where):
    if value != int(value):
        raise ValueError(f"non-integer entry {value} in {where}")
    return int(value)


def polytope_to_text(poly: HRepPolytope) -> str:
    d = poly.dim
    lines = []
    count = len(poly.eq_rows) + len(poly.rows)
    lines.append(f"{count} {d + 1}")
    for rows, rhs, kind in ((poly.eq_rows, poly.eq_rhs, "equality"), (poly.rows, poly.rhs, "inequality")):
        for a, b in zip(rows, rhs):
            c = _require_int(b, f"{kind} rhs")
            coeffs = [-_require_int(x, f"{kind} row") for x in a]
            lines.append(" ".join(str(v) for v in [c] + coeffs))
    k = len(poly.eq_rows)
    if k:
        lines.append(f"linearity {k} " + " ".join(str(i) for i in range(1, k + 1)))
    return "\n".join(lines) + "\n"


def polytope_from_text(text: str) -> HRepPolytope:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty polytope file")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"bad header {lines[0]!r}")
    m, d1 = int(header[0]), int(header[1])
    if m < 0 or d1 < 1:
        raise ValueError(f"bad header values {m} {d1}")
    if m == 0 and d1 > 1:
        raise ValueError(f"header {m} {d1} declares dimension {d1 - 1} but no rows")
    if len(lines) < 1 + m:
        raise ValueError(f"expected {m} rows, found {len(lines) - 1}")
    raw = []
    for ln in lines[1 : 1 + m]:
        vals = [int(t) for t in ln.split()]
        if len(vals) != d1:
            raise ValueError(f"row {ln!r} has {len(vals)} entries, expected {d1}")
        raw.append(vals)
    eq_indices = set()
    extra = lines[1 + m :]
    if extra:
        toks = extra[0].split()
        if len(extra) > 1 or len(toks) < 2 or toks[0] != "linearity":
            raise ValueError(f"trailing content {extra!r} is not 'linearity k i_1 ... i_k'")
        k = int(toks[1])
        idx = [int(t) for t in toks[2:]]
        if len(idx) != k:
            raise ValueError(f"linearity declares {k} rows, lists {len(idx)}")
        for i in idx:
            if not 1 <= i <= m:
                raise ValueError(f"linearity index {i} out of range 1..{m}")
            if i in eq_indices:
                raise ValueError(f"linearity lists row {i} twice")
            eq_indices.add(i)
    rows, rhs, eq_rows, eq_rhs = [], [], [], []
    for i, vals in enumerate(raw, start=1):
        c, coeffs = vals[0], vals[1:]
        a = tuple(-x for x in coeffs)
        if i in eq_indices:
            eq_rows.append(a)
            eq_rhs.append(c)
        else:
            rows.append(a)
            rhs.append(c)
    return HRepPolytope(
        rows=tuple(rows), rhs=tuple(rhs), eq_rows=tuple(eq_rows), eq_rhs=tuple(eq_rhs)
    )


def write_polytope_file(poly: HRepPolytope, path) -> None:
    with open(path, "w") as fh:
        fh.write(polytope_to_text(poly))


def read_polytope_file(path) -> HRepPolytope:
    with open(path) as fh:
        return polytope_from_text(fh.read())
