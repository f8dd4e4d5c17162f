"""Static SVG chart rendering for experiment result tables.

Hand-rolled SVG keeps outputs dependency-free and byte-deterministic: fixed
canvas, fixed float formatting, no timestamps.
"""
from __future__ import annotations

from html import escape

PALETTE = ("#4878d0", "#ee854a", "#6acc64", "#d65f5f", "#956cb4",
           "#8c613c", "#dc7ec0", "#797979")

_W, _H = 880, 460
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 30, 50, 90


def _header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="28" text-anchor="middle" '
        f'font-family="sans-serif" font-size="17">{escape(title, quote=False)}</text>',
    ]


def _axis(parts: list[str], y_max: float, y_label: str):
    x0, x1 = _MARGIN_L, _W - _MARGIN_R
    y0, y1 = _H - _MARGIN_B, _MARGIN_T
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" '
                 f'stroke="black"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" '
                 f'stroke="black"/>')
    for i in range(5):
        frac = i / 4
        y = y0 - frac * (y0 - y1)
        parts.append(f'<line x1="{x0 - 4}" y1="{y:.1f}" x2="{x0}" y2="{y:.1f}" '
                     f'stroke="black"/>')
        parts.append(f'<text x="{x0 - 8}" y="{y + 4:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">'
                     f'{y_max * frac:.0f}</text>')
    parts.append(f'<text x="18" y="{(y0 + y1) / 2:.1f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12" '
                 f'transform="rotate(-90 18 {(y0 + y1) / 2:.1f})">'
                 f'{escape(y_label, quote=False)}</text>')


def grouped_bar_svg(title: str, group_labels: list, series: list,
                    y_label: str) -> str:
    """series: list of (name, values) with one value per group."""
    parts = _header(title)
    y_max = max((max(vals) for _, vals in series), default=1.0)
    y_max = max(y_max, 1e-9) * 1.08
    _axis(parts, y_max, y_label)

    x0, x1 = _MARGIN_L, _W - _MARGIN_R
    y0, y1 = _H - _MARGIN_B, _MARGIN_T
    n_groups = len(group_labels)
    n_series = len(series)
    group_w = (x1 - x0) / max(n_groups, 1)
    bar_w = group_w * 0.8 / max(n_series, 1)
    for gi, label in enumerate(group_labels):
        gx = x0 + gi * group_w
        for si, (name, vals) in enumerate(series):
            v = float(vals[gi])
            h = (v / y_max) * (y0 - y1)
            bx = gx + group_w * 0.1 + si * bar_w
            color = PALETTE[si % len(PALETTE)]
            parts.append(f'<rect x="{bx:.1f}" y="{y0 - h:.1f}" '
                         f'width="{bar_w:.1f}" height="{h:.1f}" '
                         f'fill="{color}"/>')
        parts.append(f'<text x="{gx + group_w / 2:.1f}" y="{y0 + 16}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{escape(str(label), quote=False)}</text>')
    for si, (name, _) in enumerate(series):
        lx = x0 + si * 130
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
    x0, x1 = _MARGIN_L, _W - _MARGIN_R
    y0, y1 = _H - _MARGIN_B, _MARGIN_T
    for i, (label, x, y) in enumerate(points):
        px = x0 + (float(x) / x_max) * (x1 - x0)
        py = y0 - (float(y) / y_max) * (y0 - y1)
        color = PALETTE[i % len(PALETTE)]
        parts.append(f'<circle cx="{px:.1f}" cy="{py:.1f}" r="6" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="{px + 9:.1f}" y="{py + 4:.1f}" '
                     f'font-family="sans-serif" font-size="11">'
                     f'{escape(str(label), quote=False)}</text>')
    parts.append(f'<text x="{(x0 + x1) / 2:.1f}" y="{_H - 14}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="12">{escape(x_label, quote=False)}</text>')
    for i in range(5):
        frac = i / 4
        x = x0 + frac * (x1 - x0)
        parts.append(f'<text x="{x:.1f}" y="{y0 + 16}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">'
                     f'{x_max * frac:.1f}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_occupancy_report(results: dict) -> dict:
    """SVG documents for an occupancy results payload: window-rate bars per
    algorithm and the energy-vs-miss-time trade-off scatter."""
    summary = results.get("summary", [])
    algos = [row["algorithm"] for row in summary]
    out = {}
    if summary:
        n = [max(row["n_windows"], 1) for row in summary]
        series = [("accuracy %", [row["accuracy_pct"] for row in summary])]
        for key in ("tp", "tn", "fp", "fn"):
            series.append((f"{key.upper()} %",
                           [100.0 * row[key] / n[i]
                            for i, row in enumerate(summary)]))
        out["occupancy_metrics.svg"] = grouped_bar_svg(
            "Occupancy prediction quality by algorithm", algos, series,
            "percent of evaluated windows")
        points = [(row["algorithm"], row["energy_proxy"], row["miss_time"])
                  for row in summary]
        out["energy_vs_miss_time.svg"] = scatter_svg(
            "HVAC-control trade-off (lower-left is better)", points,
            "energy proxy (mean windows predicted occupied)",
            "miss time (mean occupied windows missed)")
    return out


def render_classification_report(rows: list) -> dict:
    """Accuracy bars per characteristic, one bar series per feature source."""
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
