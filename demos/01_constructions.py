"""Build the four built-in subdivision schemes and render their stages.

Each scheme cuts a base shape into M affine images: the first m children are
kept and subdivided again, the rest are removed.  This script prints the
cell bookkeeping for each construction and writes SVG snapshots of the first
few stages to demos/output/.
"""

from pathlib import Path

from porofractal import build_tree, builtin
from porofractal.geometry import diameter, measures
from porofractal.render import render_construction

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

DEPTHS = {"carpet": 3, "pascal3": 3, "koch": 5, "cantor": 5}

for name, depth in DEPTHS.items():
    s = builtin(name)
    t = build_tree(s, depth)
    print(f"=== {name}: m={s.m}, M={s.M}, measure={s.measure_kind} ===")
    print(f"base measure {s.base_measure():.6f}, base diameter {diameter(s.base):.6f}")
    for n in range(1, depth + 1):
        kept = t.kept_cells(n)
        comp = [c for c in t.levels[n] if not c.is_kept]
        kept_mu = float(measures(t.vertices[n][t.kept_rows(n)], s.measure_kind).sum())
        print(
            f"  depth {n}: {len(kept):5d} kept + {len(comp):4d} removed cells, "
            f"kept measure {kept_mu:.6f} "
            f"({kept_mu / s.base_measure():.4%} of the base)"
        )
    path = OUT / f"{name}_depth{depth}.svg"
    path.write_text(render_construction(t, depth), encoding="utf-8")
    print(f"  wrote {path}")
    print()

print("The kept measure shrinks geometrically: each subdivision keeps the")
print("same fraction, which is exactly what the ratio condition quantifies.")
