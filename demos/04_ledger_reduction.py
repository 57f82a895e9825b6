"""Symbolic coefficient ledger: re-derive the displayed Hessian constants.

The trace-free and conformal second-variation displays are linear
combinations of a small basis of curvature quantities.  The ledger expands
each display step by step in exact arithmetic and compares every
coefficient with an independent re-derivation.
"""

from crosscurv.ledger import (a4_variants, expand_theorem_conformal,
                              expand_theorem_tt, noncompact_chain)

tt = expand_theorem_tt(variant="printed", a4="printed")
print("trace-free chain, printed ingredients:")
for row in tt.comparisons:
    mark = "MATCH   " if row["match"] else "MISMATCH"
    print(f"  {mark} {row['term']:<16} claimed {row['claimed']!s:<40}"
          f" computed {row['computed']}")

# the quadratic-in-curvature display has two printable forms; they differ
# by one pairing term, and that term is exactly what moves NORM_HTILDE
# from -24 c^2 to the printed -48 c^2
v = a4_variants()
diff = {k: e for k, e in v["difference"].coeffs.items() if e}
print()
print("a4 composed minus printed:", {k: str(e) for k, e in diff.items()})
tt2 = expand_theorem_tt(variant="printed", a4="composed")
row = [r for r in tt2.comparisons if r["term"] == "NORM_HTILDE"][0]
print(f"with the composed a4 the NORM_HTILDE row becomes:"
      f" {'MATCH' if row['match'] else 'MISMATCH'}"
      f" ({row['computed']})")

print()
ce = expand_theorem_conformal(assembly="corrected")
print("conformal polynomial:", ce.polynomial())
print("rows:", ", ".join(
    f"{r['term']}={'MATCH' if r['match'] else 'MISMATCH'}"
    for r in ce.comparisons))

print()
nc = noncompact_chain()
print("non-compact bound chain rows:")
for row in nc.comparisons:
    mark = "MATCH   " if row["match"] else "MISMATCH"
    print(f"  {mark} {row['term']:<16} claimed {row['claimed']!s:<34}"
          f" computed {row['computed']}")
for entry in nc.inequality_log:
    print("  dropped nonnegative piece:", entry)
