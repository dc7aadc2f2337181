"""From a creation-operator expression to an accessible density matrix.

Walks the full analysis pipeline on a three-photon state whose third photon
is only partially indistinguishable from the other two: parse the operator
product, trace out the hidden modes, and read off what polarization
measurements can still see.
"""

from pathlib import Path

import numpy as np

from accdm import (
    expression_to_accessible,
    fidelity,
    indistinguishability_report,
    parse_expression_file,
)
from accdm.states import AccessibleDensityMatrix
from accdm.schur import occurring_two_j

np.set_printoptions(precision=4, suppress=True)

text = (Path(__file__).parent / "data" / "half_overlap.expr").read_text()
print("expression file:")
print(text)

expr = parse_expression_file(text)
modes = sorted({term.mode for factor in expr.factors for term in factor})
print(f"{expr.n} photons over primitive hidden modes {tuple(modes)}")

rho = expression_to_accessible(expr)
for two_j in occurring_two_j(rho.n):
    label = f"{two_j}/2" if two_j % 2 else f"{two_j // 2}"
    print(f"\nblock j = {label} (x{rho.multiplicity(two_j)} copies):")
    print(rho.blocks[two_j])

# the perfectly indistinguishable target: all three photons in mode a
noon_blocks = {tj: np.zeros((tj + 1, tj + 1), dtype=complex)
               for tj in occurring_two_j(3)}
vec = np.zeros(4, dtype=complex)
vec[0] = vec[3] = 1 / np.sqrt(2)
noon_blocks[3] = np.outer(vec, vec.conj())
noon = AccessibleDensityMatrix(3, noon_blocks)

print(f"\nsymmetric population: {rho.symmetric_population():.4f}")
print(f"purity:               {rho.purity():.4f}")
print(f"fidelity to target:   {fidelity(rho, noon):.4f}")

report = indistinguishability_report(rho)
print(f"verdict:              {report.verdict}")
print("\nA 50% hidden-mode overlap moves 27% of the population out of the")
print("symmetric sector: the deficit is measurable with polarization optics")
print("alone, even though no detector can resolve the modes themselves.")
