"""Static SVG chart rendering for experiment result tables.

Hand-rolled SVG keeps outputs dependency-free and byte-deterministic: fixed
canvas, fixed float formatting, no timestamps.
"""
from __future__ import annotations

from html import escape

PALETTE = ("#4878d0", "#ee854a", "#6acc64", "#d65f5f", "#956cb4",
           "#8c613c", "#dc7ec0", "#797979")

# the keys each renderer reads from every row, each a label (str) or a
# finite number (float: a JSON integer or real, not a bool)
OCCUPANCY_KEYS = {"algorithm": str, **dict.fromkeys(
    ("accuracy_pct", "n_windows", "tp", "tn", "fp", "fn", "energy_proxy",
     "miss_time"), float)}
CLASSIFICATION_KEYS = {"characteristic": str, "source": str,
                       "accuracy_pct": float, "baseline_accuracy_pct": float}

_W, _H = 880, 460
_X0, _X1, _Y0, _Y1 = 70, _W - 30, _H - 90, 50  # plot box: left, right, bottom, top


def _header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="28" text-anchor="middle" '
        f'font-family="sans-serif" font-size="17">{escape(title, quote=False)}</text>',
    ]


def _axis(parts: list[str], y_max: float, y_label: str):
    parts.append(f'<line x1="{_X0}" y1="{_Y0}" x2="{_X1}" y2="{_Y0}" '
                 f'stroke="black"/>')
    parts.append(f'<line x1="{_X0}" y1="{_Y0}" x2="{_X0}" y2="{_Y1}" '
                 f'stroke="black"/>')
    for i in range(5):
        frac = i / 4
        y = _Y0 - frac * (_Y0 - _Y1)
        parts.append(f'<line x1="{_X0 - 4}" y1="{y:.1f}" x2="{_X0}" y2="{y:.1f}" '
                     f'stroke="black"/>')
        parts.append(f'<text x="{_X0 - 8}" y="{y + 4:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">'
                     f'{y_max * frac:.0f}</text>')
    parts.append(f'<text x="18" y="{(_Y0 + _Y1) / 2:.1f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12" '
                 f'transform="rotate(-90 18 {(_Y0 + _Y1) / 2:.1f})">'
                 f'{escape(y_label, quote=False)}</text>')


def grouped_bar_svg(title: str, group_labels: list, series: list,
                    y_label: str) -> str:
    """series: list of (name, values) with one value per group."""
    parts = _header(title)
    y_max = max((max(vals) for _, vals in series), default=1.0)
    y_max = max(y_max, 1e-9) * 1.08
    _axis(parts, y_max, y_label)

    n_groups = len(group_labels)
    n_series = len(series)
    group_w = (_X1 - _X0) / max(n_groups, 1)
    bar_w = group_w * 0.8 / max(n_series, 1)
    for gi, label in enumerate(group_labels):
        gx = _X0 + gi * group_w
        for si, (name, vals) in enumerate(series):
            v = float(vals[gi])
            h = (v / y_max) * (_Y0 - _Y1)
            bx = gx + group_w * 0.1 + si * bar_w
            color = PALETTE[si % len(PALETTE)]
            parts.append(f'<rect x="{bx:.1f}" y="{_Y0 - h:.1f}" '
                         f'width="{bar_w:.1f}" height="{h:.1f}" '
                         f'fill="{color}"/>')
        parts.append(f'<text x="{gx + group_w / 2:.1f}" y="{_Y0 + 16}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{escape(str(label), quote=False)}</text>')
    for si, (name, _) in enumerate(series):
        lx = _X0 + si * 130
        ly = _H - 40
        color = PALETTE[si % len(PALETTE)]
        parts.append(f'<rect x="{lx}" y="{ly - 10}" width="12" height="12" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="{lx + 16}" y="{ly}" font-family="sans-serif" '
                     f'font-size="11">{escape(str(name), quote=False)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def scatter_svg(title: str, points: list, x_label: str, y_label: str) -> str:
    """points: list of (label, x, y)."""
    parts = _header(title)
    xs = [p[1] for p in points] or [1.0]
    ys = [p[2] for p in points] or [1.0]
    x_max = max(max(xs), 1e-9) * 1.15
    y_max = max(max(ys), 1e-9) * 1.15
    _axis(parts, y_max, y_label)
    for i, (label, x, y) in enumerate(points):
        px = _X0 + (float(x) / x_max) * (_X1 - _X0)
        py = _Y0 - (float(y) / y_max) * (_Y0 - _Y1)
        color = PALETTE[i % len(PALETTE)]
        parts.append(f'<circle cx="{px:.1f}" cy="{py:.1f}" r="6" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="{px + 9:.1f}" y="{py + 4:.1f}" '
                     f'font-family="sans-serif" font-size="11">'
                     f'{escape(str(label), quote=False)}</text>')
    parts.append(f'<text x="{(_X0 + _X1) / 2:.1f}" y="{_H - 14}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="12">{escape(x_label, quote=False)}</text>')
    for i in range(5):
        frac = i / 4
        x = _X0 + frac * (_X1 - _X0)
        parts.append(f'<text x="{x:.1f}" y="{_Y0 + 16}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">'
                     f'{x_max * frac:.1f}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_occupancy_report(summary: list) -> dict:
    """SVG documents for an occupancy payload's summary rows: window-rate
    bars per algorithm and the energy-vs-miss-time trade-off scatter."""
    if not summary:
        return {}
    series = [("accuracy %", [row["accuracy_pct"] for row in summary])]
    series += [(f"{key.upper()} %", [100.0 * row[key] / max(row["n_windows"], 1)
                                     for row in summary])
               for key in ("tp", "tn", "fp", "fn")]
    points = [(row["algorithm"], row["energy_proxy"], row["miss_time"])
              for row in summary]
    return {"occupancy_metrics.svg": grouped_bar_svg(
                "Occupancy prediction quality by algorithm",
                [row["algorithm"] for row in summary], series,
                "percent of evaluated windows"),
            "energy_vs_miss_time.svg": scatter_svg(
                "HVAC-control trade-off (lower-left is better)", points,
                "energy proxy (mean windows predicted occupied)",
                "miss time (mean occupied windows missed)")}


def render_classification_report(rows: list) -> dict:
    """Accuracy bars per characteristic, one bar series per feature source."""
    if not rows:
        return {}
    chars = sorted({r["characteristic"] for r in rows})
    sources = sorted({r["source"] for r in rows})
    series = []
    for source in sources:
        by_char = {r["characteristic"]: r["accuracy_pct"]
                   for r in rows if r["source"] == source}
        series.append((source, [by_char.get(c, 0.0) for c in chars]))
    baseline = {r["characteristic"]: r["baseline_accuracy_pct"] for r in rows}
    series.append(("majority baseline", [baseline.get(c, 0.0) for c in chars]))
    return {"characteristics_accuracy.svg": grouped_bar_svg(
        "Household-characteristic classification accuracy", chars, series,
        "accuracy %")}
