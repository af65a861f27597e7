"""SVG and ASCII renderings of the admissible-degree region."""

from fractions import Fraction

from .relations import RegionDescription


def region_to_dict(r: RegionDescription) -> dict:
    return {
        "lines": {
            "r": {"slope": -1, "intercept": r.intercept_r},
            "i": {"slope": 1, "intercept": r.intercept_i},
        },
        "intersection": r.intersection,
        "triangle": r.triangle,
        "window": {"lam_min": r.window.lam_min, "lam_max": r.window.lam_max,
                   "delta_min": r.window.delta_min, "delta_max": r.window.delta_max},
        "congruences": {
            "delta_mod_4": r.delta_congruence,
            "lam_square_mod_4": r.lam_congruence,
            "white_dots_lam_square_mod_8": 0 if r.w_characteristic else None,
        },
        "w_characteristic": r.w_characteristic,
        "marked": r.marked,
        "white": r.white,
    }


_SCALE = 20
_MARGIN = 40


def _sx(r: RegionDescription, lam) -> Fraction:
    return _MARGIN + (Fraction(lam) - r.window.lam_min) * _SCALE


def _sy(r: RegionDescription, delta) -> Fraction:
    return _MARGIN + (r.window.delta_max - Fraction(delta)) * _SCALE


def _fmt(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{float(x):.2f}"


def region_to_svg(r: RegionDescription) -> str:
    w = (r.window.lam_max - r.window.lam_min) * _SCALE + 2 * _MARGIN
    h = (r.window.delta_max - r.window.delta_min) * _SCALE + 2 * _MARGIN
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w} {h}" '
        f'width="{w}" height="{h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
    ]

    x1, x2 = r.window.lam_min, r.window.lam_max
    for slope, intercept, label in (
        (-1, r.intercept_r, "delta = r"),
        (1, r.intercept_i, "delta = i"),
    ):
        # the line delta = slope*lam + intercept, clipped to the window
        y1, y2 = slope * x1 + intercept, slope * x2 + intercept
        parts.append(
            f'<line x1="{_fmt(_sx(r, x1))}" y1="{_fmt(_sy(r, y1))}" '
            f'x2="{_fmt(_sx(r, x2))}" y2="{_fmt(_sy(r, y2))}" '
            f'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(_sx(r, x2))}" y="{_fmt(_sy(r, y2) - 6)}" '
            f'font-size="12">{label}</text>'
        )

    tri = " ".join(f"{_fmt(_sx(r, x))},{_fmt(_sy(r, y))}" for x, y in r.triangle)
    parts.append(
        f'<polygon points="{tri}" fill="none" stroke="black" '
        f'stroke-dasharray="4 3" stroke-width="1"/>'
    )

    # delta axis at the left edge, lam axis along delta = 0
    parts.append(
        f'<line x1="{_fmt(_sx(r, r.window.lam_min))}" y1="{_fmt(_sy(r, 0))}" '
        f'x2="{_fmt(_sx(r, r.window.lam_max))}" y2="{_fmt(_sy(r, 0))}" '
        f'stroke="gray" stroke-width="0.5"/>'
    )

    white = set(r.white)
    for lam, delta in r.marked:
        cx, cy = _fmt(_sx(r, lam)), _fmt(_sy(r, delta))
        if (lam, delta) in white:
            parts.append(
                f'<circle class="dot white-dot" cx="{cx}" cy="{cy}" r="3" '
                f'fill="white" stroke="black"/>'
            )
        else:
            parts.append(
                f'<circle class="dot marked-dot" cx="{cx}" cy="{cy}" r="3" fill="black"/>'
            )
    ix, iy = r.intersection
    parts.append(
        f'<text x="{_fmt(_sx(r, ix) + 4)}" y="{_fmt(_sy(r, iy) - 4)}" font-size="12">'
        f"({ix}, {iy})</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def region_to_ascii(r: RegionDescription) -> str:
    white = set(r.white)
    marked = set(r.marked)
    rows = []
    header = f"delta \\ lam.lam in [{r.window.lam_min}, {r.window.lam_max}]"
    rows.append(header)
    for delta in range(r.window.delta_max, r.window.delta_min - 1, -1):
        cells = []
        for lam in range(r.window.lam_min, r.window.lam_max + 1):
            ch = "."
            if -lam + r.intercept_r == delta:
                ch = "\\"
            if lam + r.intercept_i == delta:
                ch = "X" if ch == "\\" else "/"
            if (lam, delta) in marked:
                ch = "o" if (lam, delta) in white else "*"
            cells.append(ch)
        rows.append(f"{delta:>4} " + " ".join(cells))
    rows.append("     " + " ".join("^" if lam == r.intersection[0] else " "
                                   for lam in range(r.window.lam_min, r.window.lam_max + 1)))
    rows.append(f"legend: * marked, o marked with lam.lam = 0 mod 8, "
                f"\\ delta=r, / delta=i, X on both")
    return "\n".join(rows) + "\n"
