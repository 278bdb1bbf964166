"""Obstruction to the existence of a compatible symplectic structure.

On a compact almost-complex manifold, a (1,0)-form that is dbar-closed but
not d-closed rules out any compatible symplectic structure: such a form is
harmonic for the mixed operator dbar + mu under every Hermitian metric but
never harmonic for del + mubar, while the two mixed Laplacians coincide on
almost-Kahler manifolds.  A coframe corollary: some d(phi^j) nonzero with
pure (2,0) + (0,2) type already obstructs, with phi^j as the witness.

The search runs over the computed dbar-closed (1,0) space only (invariant
plus finitely many modes), so a negative search is reported Inconclusive,
never as existence of a symplectic structure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fourier import HarmonicSpace, ModeForm, d_mode, dbar_mode
from .manifold import ManifoldSpec


@dataclass
class ObstructionVerdict:
    verdict: str  # "Obstructed" | "Inconclusive"
    witness: ModeForm | None = None
    rule: str | None = None  # "theorem" | "coframe_corollary"
    certificate: dict | None = None


def _certify(witness: ModeForm, spec: ManifoldSpec, d_witness: ModeForm) -> dict:
    """The certificate of ``witness``, whose differential is ``d_witness``."""
    return {
        "dbar_witness_zero": dbar_mode(witness, spec).is_zero(),
        "d_witness_nonzero": not d_witness.is_zero(),
    }


def coframe_obstruction(spec: ManifoldSpec) -> ObstructionVerdict:
    """Look for a coframe element with nonzero differential of pure
    (2,0) + (0,2) type."""
    for j in range(1, spec.n + 1):
        dphi = spec.dphi[j - 1]
        if dphi.is_zero():
            continue
        if not dphi.component(1, 1).is_zero():
            continue
        witness = ModeForm.invariant(spec.generator(j), spec.fibration.rank)
        cert = _certify(witness, spec, d_mode(witness, spec))
        if cert["dbar_witness_zero"] and cert["d_witness_nonzero"]:
            return ObstructionVerdict("Obstructed", witness, "coframe_corollary", cert)
    return ObstructionVerdict("Inconclusive")


def symplectic_obstruction(spec: ManifoldSpec, dbar: HarmonicSpace) -> ObstructionVerdict:
    """Search the degree-1 dbar space ``dbar`` (when determined) for a
    witness with nonzero differential; fall back to the coframe criterion."""
    for psi in dbar.basis or ():
        d_psi = d_mode(psi, spec)
        if d_psi.is_zero():
            continue
        cert = _certify(psi, spec, d_psi)
        if cert["dbar_witness_zero"] and cert["d_witness_nonzero"]:
            return ObstructionVerdict("Obstructed", psi, "theorem", cert)
    return coframe_obstruction(spec)
